#include "core/scenario_matrix.h"

#include <cstdio>
#include <map>
#include <sstream>

#include "core/routines.h"

namespace detstl::core {

namespace {

using analysis::AbsIntResult;
using analysis::AddrRange;
using analysis::Obligation;
using analysis::ObligationStatus;

/// One assembled per-core program plus the regions it reserves (its data
/// contract and every image segment) — what peers must stay disjoint from.
struct CoreImage {
  isa::Program prog;
  BuildEnv env;
  std::vector<AddrRange> reserved;
};

CoreImage build_core_image(const SelfTestRoutine& r, const MatrixPoint& p,
                           unsigned core_id) {
  CoreImage ci;
  ci.env = matrix_env(p, core_id);
  ci.prog = assemble_wrapped(r, WrapperKind::kCacheBased, ci.env);
  ci.reserved.push_back(
      {ci.env.data_base, std::max<u32>(r.data_bytes(), 4)});
  for (const auto& seg : ci.prog.segments())
    ci.reserved.push_back({seg.base, static_cast<u32>(seg.bytes.size())});
  return ci;
}

std::string first_problem(const AbsIntResult& ai) {
  if (!ai.analyzable) return "not analyzable: " + ai.not_analyzable_why;
  for (const Obligation& o : ai.obligations) {
    if (o.status == ObligationStatus::kRefuted ||
        o.status == ObligationStatus::kUnproven) {
      return std::string(analysis::obligation_name(o.kind)) + " " +
             analysis::obligation_status_name(o.status) + ": " + o.detail;
    }
  }
  return "unknown";
}

/// "8K/2w/16B"; a size that is not a whole number of KiB prints in bytes.
std::string geom(const mem::CacheConfig& c) {
  char buf[48];
  if (c.size_bytes % 1024 == 0) {
    std::snprintf(buf, sizeof buf, "%2uK/%uw/%2uB", c.size_bytes / 1024,
                  c.ways, c.line_bytes);
  } else {
    std::snprintf(buf, sizeof buf, "%uB/%uw/%2uB", c.size_bytes, c.ways,
                  c.line_bytes);
  }
  return buf;
}

}  // namespace

unsigned MatrixReport::proven_configurations() const {
  unsigned n = 0;
  for (const auto& c : cells) n += c.proven == c.proofs ? 1 : 0;
  return n;
}

bool MatrixReport::all_proven() const {
  return proven_configurations() == configurations();
}

std::vector<MatrixPoint> default_matrix_grid() {
  std::vector<MatrixPoint> grid;
  for (const u32 ikb : {8u, 16u, 32u}) {
    for (const unsigned ways : {2u, 4u}) {
      for (const u32 line : {16u, 32u}) {
        for (const bool wa : {true, false}) {
          for (const unsigned cores : {1u, 2u, 3u}) {
            for (const unsigned place : {0u, 1u}) {
              MatrixPoint p;
              p.mem.icache = {.size_bytes = ikb * 1024, .ways = ways,
                              .line_bytes = line};
              p.mem.dcache = {.size_bytes = ikb * 512, .ways = ways,
                              .line_bytes = line};
              p.write_allocate = wa;
              p.num_cores = cores;
              p.placement = place;
              grid.push_back(p);
            }
          }
        }
      }
    }
  }
  return grid;
}

BuildEnv matrix_env(const MatrixPoint& p, unsigned core_id) {
  BuildEnv env = quickstart_env(core_id, p.write_allocate);
  if (p.placement == 1) {
    // Shifted variant: different flash page and SRAM bank, still disjoint
    // per core — proves the placement argument is positional, not absolute.
    env.code_base = mem::kFlashBase + 0x3000 + core_id * 0x40000;
    env.data_base = mem::kSramBase + 0xC000 + core_id * 0x1000;
  }
  return env;
}

MatrixReport run_matrix(const std::vector<MatrixPoint>& grid,
                        const std::vector<const RoutineEntry*>& routines) {
  std::vector<const RoutineEntry*> targets = routines;
  if (targets.empty())
    for (const auto& r : routine_registry()) targets.push_back(&r);

  // The image and its ProgramModel depend only on (routine, placement,
  // write-allocate, core) — never on cache geometry or core count. So walk
  // the sweep image by image: model each image once, prove every grid point
  // that grades it, then drop the model; at most one is alive at a time.
  // Routines outermost and cores ascending within each (placement, WA)
  // group append every cell's failures in (routine, core) order, as proving
  // the points one by one would.
  std::map<std::pair<unsigned, bool>, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < grid.size(); ++i)
    groups[{grid[i].placement, grid[i].write_allocate}].push_back(i);

  MatrixReport rep;
  rep.cells.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) rep.cells[i].point = grid[i];

  for (const RoutineEntry* t : targets) {
    const auto routine = t->make();
    for (const auto& [key, points] : groups) {
      unsigned cores = 0;
      for (const std::size_t i : points)
        cores = std::max(cores, grid[i].num_cores);
      std::vector<CoreImage> images;
      for (unsigned c = 0; c < cores; ++c)
        images.push_back(build_core_image(*routine, grid[points.front()], c));
      for (unsigned c = 0; c < cores; ++c) {
        const CoreImage& self = images[c];
        const analysis::AnalysisConfig base =
            lint_config(*routine, WrapperKind::kCacheBased, self.env);
        const analysis::ProgramModel model =
            analysis::build_model(self.prog, base);
        for (const std::size_t i : points) {
          MatrixCell& cell = rep.cells[i];
          const MatrixPoint& p = cell.point;
          if (c >= p.num_cores) continue;
          analysis::AnalysisConfig acfg = base;
          acfg.mem = p.mem;
          acfg.num_cores = p.num_cores;
          for (unsigned peer = 0; peer < p.num_cores; ++peer) {
            if (peer == c) continue;
            acfg.peer_regions.insert(acfg.peer_regions.end(),
                                     images[peer].reserved.begin(),
                                     images[peer].reserved.end());
          }
          const AbsIntResult ai = analysis::interpret(self.prog, acfg, model);
          ++cell.proofs;
          if (ai.analyzable && ai.all_proven()) {
            ++cell.proven;
          } else {
            cell.failures.push_back({t->name, c, first_problem(ai)});
          }
          cell.d_max = std::max(cell.d_max, ai.bound.d_max);
        }
      }
    }
  }
  return rep;
}

std::string format_matrix(const MatrixReport& rep) {
  std::ostringstream os;
  os << "scenario matrix — abstract-interpretation proof obligations\n"
     << "(exec-miss-free, loading-footprint, set-conflict-free, "
        "cross-core-disjoint, interference-bound)\n\n";
  for (const auto& c : rep.cells) {
    char row[160];
    std::snprintf(row, sizeof row,
                  "I$ %s  D$ %s  wa=%-3s cores=%u place=%u  proven %2u/%2u  "
                  "d_max %3u\n",
                  geom(c.point.mem.icache).c_str(),
                  geom(c.point.mem.dcache).c_str(),
                  c.point.write_allocate ? "on" : "off", c.point.num_cores,
                  c.point.placement, c.proven, c.proofs, c.d_max);
    os << row;
    for (const auto& f : c.failures)
      os << "     FAIL " << f.routine << " core " << f.core << ": " << f.detail
         << "\n";
  }
  os << "\nmatrix: " << rep.proven_configurations() << "/"
     << rep.configurations() << " configurations fully proven\n";
  return os.str();
}

std::string matrix_json(const MatrixReport& rep) {
  std::ostringstream os;
  os << "{\"schema\":1,\"configurations\":" << rep.configurations()
     << ",\"proven\":" << rep.proven_configurations()
     << ",\"all_proven\":" << (rep.all_proven() ? "true" : "false")
     << ",\"cells\":[";
  bool first = true;
  for (const auto& c : rep.cells) {
    if (!first) os << ",";
    first = false;
    os << "\n {\"icache\":{\"size\":" << c.point.mem.icache.size_bytes
       << ",\"ways\":" << c.point.mem.icache.ways
       << ",\"line\":" << c.point.mem.icache.line_bytes << "}"
       << ",\"dcache\":{\"size\":" << c.point.mem.dcache.size_bytes
       << ",\"ways\":" << c.point.mem.dcache.ways
       << ",\"line\":" << c.point.mem.dcache.line_bytes << "}"
       << ",\"write_allocate\":" << (c.point.write_allocate ? "true" : "false")
       << ",\"cores\":" << c.point.num_cores
       << ",\"placement\":" << c.point.placement << ",\"proofs\":" << c.proofs
       << ",\"proven\":" << c.proven << ",\"d_max\":" << c.d_max
       << ",\"failures\":[";
    bool ff = true;
    for (const auto& f : c.failures) {
      if (!ff) os << ",";
      ff = false;
      os << "{\"routine\":\"" << f.routine << "\",\"core\":" << f.core << "}";
    }
    os << "]}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace detstl::core
