#include "trace/xval.h"

#include <set>
#include <sstream>

#include "analysis/absint.h"
#include "common/table.h"
#include "core/routines.h"
#include "core/stl.h"

namespace detstl::trace {

namespace {

struct CorePrediction {
  std::set<u32> ilines, dlines;  // loading-phase may-refill line bases
  bool proven = false;
  std::string why;
  u32 d_max = 0;
  u32 iline_bytes = 32, dline_bytes = 32;
};

CorePrediction predict(const core::RoutineEntry& entry, unsigned core_id,
                       const XvalOptions& opt) {
  const auto routine = entry.make();
  const core::BuildEnv env = core::quickstart_env(core_id, opt.write_allocate);
  const isa::Program prog =
      core::assemble_wrapped(*routine, core::WrapperKind::kCacheBased, env);

  analysis::AnalysisConfig acfg =
      core::lint_config(*routine, core::WrapperKind::kCacheBased, env);
  acfg.num_cores = opt.cores;
  for (unsigned peer = 0; peer < opt.cores; ++peer) {
    if (peer == core_id) continue;
    const core::BuildEnv pe = core::quickstart_env(peer, opt.write_allocate);
    const isa::Program pp =
        core::assemble_wrapped(*routine, core::WrapperKind::kCacheBased, pe);
    acfg.peer_regions.push_back(
        {pe.data_base, std::max<u32>(routine->data_bytes(), 4)});
    for (const auto& seg : pp.segments())
      acfg.peer_regions.push_back({seg.base, static_cast<u32>(seg.bytes.size())});
  }

  const analysis::ProgramModel model = analysis::build_model(prog, acfg);
  const analysis::AbsIntResult ai = analysis::interpret(prog, acfg, model);

  CorePrediction p;
  p.ilines = ai.predicted_loading_ilines;
  p.dlines = ai.predicted_loading_dlines;
  p.proven = ai.analyzable && ai.all_proven();
  if (!p.proven) {
    p.why = ai.analyzable ? "an obligation is unproven or refuted"
                          : ai.not_analyzable_why;
  }
  p.d_max = ai.bound.d_max;
  p.iline_bytes = acfg.mem.icache.line_bytes;
  p.dline_bytes = acfg.mem.dcache.line_bytes;
  return p;
}

}  // namespace

bool XvalResult::passed() const {
  if (!ok) return false;
  for (const auto& c : cores)
    if (!c.ok()) return false;
  return true;
}

XvalResult cross_validate(const std::vector<Event>& events,
                          const XvalOptions& opt) {
  XvalResult r;
  const core::RoutineEntry* entry = core::find_routine(opt.routine);
  if (entry == nullptr) {
    r.error = "unknown routine '" + opt.routine + "'";
    return r;
  }
  if (events.empty()) {
    r.error = "event stream is empty (record with detscope run --events)";
    return r;
  }

  std::vector<CorePrediction> preds;
  for (unsigned c = 0; c < opt.cores; ++c) preds.push_back(predict(*entry, c, opt));
  r.d_max = preds.empty() ? 0 : preds[0].d_max;

  r.cores.resize(opt.cores);
  std::vector<Phase> phase(opt.cores, Phase::kSignatureCheck);
  std::vector<bool> in_wrapper(opt.cores, false);
  for (unsigned c = 0; c < opt.cores; ++c) {
    r.cores[c].core = c;
    r.cores[c].statically_proven = preds[c].proven;
    r.cores[c].predicted_lines =
        preds[c].ilines.size() + preds[c].dlines.size();
    if (!preds[c].proven)
      r.cores[c].violations.push_back("static proof missing: " + preds[c].why);
  }

  for (const Event& e : events) {
    if (e.core >= opt.cores) continue;
    CoreXval& cx = r.cores[e.core];
    switch (e.kind) {
      case EventKind::kPhaseBegin:
        phase[e.core] = static_cast<Phase>(e.unit);
        in_wrapper[e.core] = true;
        if (phase[e.core] == Phase::kExecutionLoop) cx.exec_window_seen = true;
        break;
      case EventKind::kCacheMiss:
        if (in_wrapper[e.core] && phase[e.core] == Phase::kExecutionLoop) {
          ++cx.exec_misses;
          if (cx.violations.size() < 16)
            cx.violations.push_back(
                std::string("execution-loop ") + (e.unit == 0 ? "I" : "D") +
                "-cache miss at " + TextTable::fmt_hex(e.addr) +
                " (predicted miss set is empty)");
        }
        break;
      case EventKind::kCacheRefill:
        if (in_wrapper[e.core] && phase[e.core] == Phase::kLoadingLoop) {
          ++cx.loading_refills;
          const auto& pred = e.unit == 0 ? preds[e.core].ilines
                                         : preds[e.core].dlines;
          const u32 lb = e.unit == 0 ? preds[e.core].iline_bytes
                                     : preds[e.core].dline_bytes;
          // One line of sequential fetch-ahead slack: the fetch stage may
          // run one line past the last predicted instruction of a path.
          const bool predicted =
              pred.count(e.addr) != 0 ||
              (e.addr >= lb && pred.count(e.addr - lb) != 0);
          if (!predicted) {
            ++cx.unpredicted_refills;
            if (cx.violations.size() < 16)
              cx.violations.push_back(
                  std::string("loading-loop ") + (e.unit == 0 ? "I" : "D") +
                  "-refill of line " + TextTable::fmt_hex(e.addr) +
                  " outside the static may-footprint");
          }
        }
        break;
      case EventKind::kBusGrant:
        cx.max_bus_wait = std::max(cx.max_bus_wait, e.a);
        if (e.a > r.d_max && cx.violations.size() < 16)
          cx.violations.push_back("bus grant waited " + std::to_string(e.a) +
                                  " cycles > static bound " +
                                  std::to_string(r.d_max));
        break;
      default:
        break;
    }
  }

  for (unsigned c = 0; c < opt.cores; ++c) {
    if (!r.cores[c].exec_window_seen)
      r.cores[c].violations.push_back(
          "trace never reached the execution loop on this core");
  }
  r.ok = true;
  return r;
}

std::string format(const XvalResult& r) {
  std::ostringstream os;
  if (!r.ok) {
    os << "xval: " << r.error << "\n";
    return os.str();
  }
  os << "static<->dynamic cross-validation (interference bound d_max = "
     << r.d_max << " cycles)\n";
  for (const auto& c : r.cores) {
    os << "core " << static_cast<char>('A' + c.core) << ": "
       << (c.ok() ? "OK  " : "FAIL") << "  exec misses " << c.exec_misses
       << " (predicted 0), loading refills " << c.loading_refills << "/"
       << c.predicted_lines << " predicted lines (" << c.unpredicted_refills
       << " unpredicted), max bus wait " << c.max_bus_wait << "\n";
    for (const auto& v : c.violations) os << "    " << v << "\n";
  }
  os << "xval: " << (r.passed() ? "PASS" : "FAIL")
     << " — observed behaviour " << (r.passed() ? "matches" : "contradicts")
     << " the static prediction\n";
  return os.str();
}

}  // namespace detstl::trace
