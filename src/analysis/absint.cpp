#include "analysis/absint.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "mem/flash.h"
#include "mem/memmap.h"

namespace detstl::analysis {

using namespace isa;

const char* obligation_name(ObligationKind k) {
  switch (k) {
    case ObligationKind::kExecMissFree: return "exec-miss-free";
    case ObligationKind::kLoadingFootprint: return "loading-footprint";
    case ObligationKind::kSetConflictFree: return "set-conflict-free";
    case ObligationKind::kCrossCoreDisjoint: return "cross-core-disjoint";
    case ObligationKind::kInterferenceBound: return "interference-bound";
  }
  return "?";
}

const char* obligation_status_name(ObligationStatus s) {
  switch (s) {
    case ObligationStatus::kProven: return "proven";
    case ObligationStatus::kUnproven: return "unproven";
    case ObligationStatus::kRefuted: return "refuted";
    case ObligationStatus::kNotApplicable: return "n/a";
  }
  return "?";
}

u32 SetFootprint::total_lines() const {
  u32 n = 0;
  for (const auto& [set, ls] : lines) n += static_cast<u32>(ls.size());
  return n;
}

u32 SetFootprint::worst_set_occupancy() const {
  u32 n = 0;
  for (const auto& [set, ls] : lines)
    n = std::max(n, static_cast<u32>(ls.size()));
  return n;
}

const Obligation* AbsIntResult::find(ObligationKind k) const {
  for (const auto& o : obligations)
    if (o.kind == k) return &o;
  return nullptr;
}

ObligationStatus AbsIntResult::status(ObligationKind k) const {
  const Obligation* o = find(k);
  return o ? o->status : ObligationStatus::kNotApplicable;
}

bool AbsIntResult::all_proven() const {
  if (!analyzable) return false;
  for (const auto& o : obligations)
    if (o.status != ObligationStatus::kProven &&
        o.status != ObligationStatus::kNotApplicable)
      return false;
  return true;
}

namespace {

/// A set of cache lines as a bitset over one sorted line universe.
using LineBits = std::vector<u64>;

/// Must component: lines certainly touched so far per cache, as bitsets over
/// the call's I-line and D-line universes. Under the no-eviction premise
/// (set-conflict-free), touched == resident.
struct MustState {
  bool reached = false;
  LineBits il, dl;
};

/// a := a meet b — intersection, with an unreached state as the identity.
/// Returns whether `a` changed.
bool meet_into(MustState& a, const MustState& b) {
  if (!b.reached) return false;
  if (!a.reached) {
    a = b;
    return true;
  }
  bool changed = false;
  const auto meet = [&](LineBits& x, const LineBits& y) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      const u64 w = x[i] & y[i];
      changed |= w != x[i];
      x[i] = w;
    }
  };
  meet(a.il, b.il);
  meet(a.dl, b.dl);
  return changed;
}

void unite(LineBits& x, const LineBits& y) {
  for (std::size_t i = 0; i < x.size(); ++i) x[i] |= y[i];
}

/// The sorted line addresses a must state can hold in one cache.
class LineUniverse {
 public:
  void add(u32 line) { lines_.push_back(line); }
  void seal() {
    std::sort(lines_.begin(), lines_.end());
    lines_.erase(std::unique(lines_.begin(), lines_.end()), lines_.end());
  }
  LineBits none() const { return LineBits((lines_.size() + 63) / 64, 0); }
  void set(LineBits& b, u32 line) const {
    const std::size_t i = index(line);
    assert(i < lines_.size());
    b[i / 64] |= u64{1} << (i % 64);
  }
  bool test(const LineBits& b, u32 line) const {
    const std::size_t i = index(line);
    return i < lines_.size() && (b[i / 64] >> (i % 64) & 1) != 0;
  }

 private:
  /// Position of `line`, or size() when the universe lacks it.
  std::size_t index(u32 line) const {
    const auto it = std::lower_bound(lines_.begin(), lines_.end(), line);
    return it != lines_.end() && *it == line
               ? static_cast<std::size_t>(it - lines_.begin())
               : lines_.size();
  }

  std::vector<u32> lines_;
};

/// The model resolved against one call's geometry.
struct Ctx {
  const AnalysisConfig& cfg;
  const ProgramModel& m;
  LineUniverse iuni, duni;    // lines a must state can hold
  std::vector<MustState> gen;  // per footprint block: lines it certainly touches

  u32 iline(u32 a) const {
    return a / cfg.mem.icache.line_bytes * cfg.mem.icache.line_bytes;
  }
  u32 iset(u32 a) const {
    return (a / cfg.mem.icache.line_bytes) % cfg.mem.icache.num_sets();
  }
  u32 dset(u32 line) const {
    return (line / cfg.mem.dcache.line_bytes) % cfg.mem.dcache.num_sets();
  }
  /// D-cache lines covered by the access's address interval.
  std::vector<u32> dlines(const MemAccess& a) const {
    std::vector<u32> out;
    const u32 lb = cfg.mem.dcache.line_bytes;
    for (u32 line = a.lo / lb * lb; line < a.end(); line += lb)
      out.push_back(line);
    return out;
  }
  /// A bounded cacheable access that allocates its lines: a load, or a
  /// store under write-allocate (an NWA store writes around the cache).
  bool allocating(const MemAccess& a) const {
    return a.kind == MemAccess::Kind::kOk && (a.load || cfg.write_allocate);
  }
  /// D-lines the access certainly touches: only an allocating access at a
  /// single constant address (the one case where we know *which* line is
  /// touched) has any.
  std::vector<u32> must_dlines(const MemAccess& a) const {
    return allocating(a) && a.lo == a.hi ? dlines(a) : std::vector<u32>{};
  }
  MustState empty() const { return {true, iuni.none(), duni.none()}; }
};

/// The line universes and each footprint block's must-gain under the call's
/// geometry.
void resolve_blocks(Ctx& c) {
  for (const FootprintBlock& b : c.m.blocks) {
    for (u32 pc = b.begin; pc < b.end; pc += 4)
      if (mem::is_bus(pc)) c.iuni.add(c.iline(pc));
    for (const MemAccess& a : c.m.accesses_of(b))
      for (u32 line : c.must_dlines(a)) c.duni.add(line);
  }
  c.iuni.seal();
  c.duni.seal();
  for (const FootprintBlock& b : c.m.blocks) {
    MustState& g = c.gen.emplace_back(c.empty());
    for (u32 pc = b.begin; pc < b.end; pc += 4)
      if (mem::is_bus(pc)) c.iuni.set(g.il, c.iline(pc));
    for (const MemAccess& a : c.m.accesses_of(b))
      for (u32 line : c.must_dlines(a)) c.duni.set(g.dl, line);
  }
}

/// One abstract pass over the footprint blocks; returns each block's entry
/// state. `cut_back_edge` drops every edge returning to the loop head
/// (virtual peeling of the loading pass) and reports the state carried along
/// it through `exit_out`.
std::vector<MustState> run_pass(const Ctx& c, bool cut_back_edge,
                                const MustState& head_seed,
                                const MustState& root_seed,
                                MustState* exit_out) {
  std::vector<MustState> in(c.m.blocks.size());
  std::vector<int> work;
  const auto seed = [&](int k, const MustState& st) {
    meet_into(in[k], st);
    work.push_back(k);
  };
  if (c.m.head_block >= 0) seed(c.m.head_block, head_seed);
  for (const int k : c.m.root_blocks) seed(k, root_seed);
  MustState s;
  while (!work.empty()) {
    const int k = work.back();
    s = in[k];
    work.pop_back();
    unite(s.il, c.gen[k].il);
    unite(s.dl, c.gen[k].dl);
    for (const FootprintBlock::Edge& e : c.m.blocks[k].edges) {
      if (e.back && cut_back_edge) {
        if (exit_out) meet_into(*exit_out, s);
        continue;
      }
      if (e.to >= 0 && meet_into(in[e.to], s)) work.push_back(e.to);
    }
  }
  return in;
}

}  // namespace

InterferenceBound interference_bound(const mem::MemSystemConfig& geom, unsigned num_cores) {
  InterferenceBound b;
  b.line_bytes = std::max(geom.icache.line_bytes, geom.dcache.line_bytes);
  const u32 beats = std::max(1u, b.line_bytes / 8);  // flash 8-byte beats
  b.t_max = 1 + mem::kFlashMissCycles + (beats - 1) * mem::kFlashHitCycles;
  b.requesters = 3 * std::max(1u, num_cores);
  b.d_max = (b.requesters - 1) * b.t_max + (b.t_max - 1);
  return b;
}

AbsIntResult interpret(const isa::Program& prog, const AnalysisConfig& cfg,
                       const ProgramModel& model) {
  AbsIntResult res;
  if (!model.entry_ok) {
    res.not_analyzable_why = "entry point outside the program image";
    return res;
  }
  if (!model.loop.found) {
    res.not_analyzable_why =
        "no loading/execution loop (back edge) found; not a cache-based "
        "wrapper";
    return res;
  }
  res.analyzable = true;

  Ctx c{cfg, model, {}, {}, {}};
  resolve_blocks(c);

  // --- virtual peeling: loading pass (empty, back edge cut) then execution
  // pass (seeded with the loading exit state, back edge restored) -----------
  const MustState empty = c.empty();
  MustState exit_state;  // carried along the cut back edge
  run_pass(c, /*cut_back_edge=*/true, empty, empty, &exit_state);
  const bool latch_reached = exit_state.reached;
  const MustState pass2_seed = latch_reached ? exit_state : empty;
  // Callees/ISRs in pass 2 run after the loading pass completed: everything
  // it certainly touched is still resident (no-eviction premise).
  const auto in2 =
      run_pass(c, /*cut_back_edge=*/false, pass2_seed, pass2_seed, nullptr);

  // --- may-footprints -------------------------------------------------------
  // Every line a reached block may touch. The execution pass reaches every
  // block the loading pass does (same roots, one more edge), so its blocks
  // cover the whole loading+execution window.
  for (std::size_t k = 0; k < model.blocks.size(); ++k) {
    if (!in2[k].reached) continue;
    const FootprintBlock& b = model.blocks[k];
    for (u32 pc = b.begin; pc < b.end; pc += 4)
      if (mem::is_bus(pc)) res.ifoot.lines[c.iset(pc)].insert(c.iline(pc));
    for (const MemAccess& a : model.accesses_of(b))
      if (c.allocating(a))
        for (u32 line : c.dlines(a)) res.dfoot.lines[c.dset(line)].insert(line);
  }

  const bool r1_ic = res.ifoot.worst_set_occupancy() <= cfg.mem.icache.ways;
  const bool r1_dc = res.dfoot.worst_set_occupancy() <= cfg.mem.dcache.ways;

  // --- per-access execution-pass verdicts -----------------------------------
  // Blocks ascend and do not overlap, so verdicts arrive in pc order; at a
  // pc whose fetch is already unproven, its data access adds none.
  const auto record = [&](u32 pc, std::string why) {
    if (res.exec_unproven.empty() || res.exec_unproven.back().first != pc)
      res.exec_unproven.emplace_back(pc, std::move(why));
  };
  unsigned proven_accesses = 0;
  for (std::size_t k = 0; k < model.blocks.size(); ++k) {
    if (!in2[k].reached) continue;
    const FootprintBlock& b = model.blocks[k];
    const auto accesses = model.accesses_of(b);
    auto next = accesses.begin();
    MustState s = in2[k];
    for (u32 pc = b.begin; pc < b.end; pc += 4) {
      if (mem::is_bus(pc)) {
        const u32 line = c.iline(pc);
        if (c.iuni.test(s.il, line) || (r1_ic && model.replay_control)) {
          ++proven_accesses;
        } else {
          record(pc, "instruction line " + hex(line) +
                         " not provably warm in the execution pass" +
                         (r1_ic ? " (" + model.replay_why + ")"
                                : " (I-cache set conflict)"));
        }
        c.iuni.set(s.il, line);
      }
      if (next == accesses.end() || next->pc != pc) continue;
      const MemAccess& a = *next++;
      switch (a.kind) {
        case MemAccess::Kind::kTcm:
          ++proven_accesses;  // single-cycle private memory, bus-free
          break;
        case MemAccess::Kind::kUnbounded:
          record(pc,
                 "access address cannot be bounded; cache residency is "
                 "unprovable");
          break;
        case MemAccess::Kind::kOk: {
          bool must_hit = true;
          for (u32 line : c.dlines(a))
            if (!c.duni.test(s.dl, line)) must_hit = false;
          bool replay_ok = r1_dc && model.replay_control && a.iter_invariant;
          if (replay_ok && a.store && !cfg.write_allocate && !a.nwa_covered)
            replay_ok = false;
          if (must_hit || replay_ok) {
            ++proven_accesses;
          } else if (!r1_dc) {
            record(pc, "D-cache set conflict defeats the no-eviction "
                       "premise for this access");
          } else if (!model.replay_control) {
            record(pc, "strided access relies on the replay argument, but " +
                           model.replay_why);
          } else if (!a.iter_invariant) {
            record(pc,
                   "address is loop-carried across wrapper iterations (not "
                   "re-derived from loop-invariant constants), so the "
                   "execution pass may not repeat the loading trace");
          } else {
            record(pc,
                   "no-write-allocate store has no dummy load with an "
                   "identical address interval; its lines are never "
                   "allocated");
          }
          break;
        }
        default:  // bus-coupled
          record(pc, std::string(bus_reason(a.kind)) +
                         " inside the execution loop");
      }
      for (u32 line : c.must_dlines(a)) c.duni.set(s.dl, line);
    }
  }

  // --- obligation: set-conflict-free ----------------------------------------
  {
    std::ostringstream detail;
    ObligationStatus st = ObligationStatus::kProven;
    if (!r1_ic || !r1_dc) {
      st = ObligationStatus::kRefuted;
      detail << (r1_ic ? "D" : "I") << "-cache set holds "
             << (r1_ic ? res.dfoot.worst_set_occupancy()
                       : res.ifoot.worst_set_occupancy())
             << " may-lines with associativity "
             << (r1_ic ? cfg.mem.dcache.ways : cfg.mem.icache.ways)
             << "; an eviction is possible";
    } else {
      detail << "worst set occupancy I=" << res.ifoot.worst_set_occupancy()
             << "/" << cfg.mem.icache.ways
             << " D=" << res.dfoot.worst_set_occupancy() << "/"
             << cfg.mem.dcache.ways << "; no line can ever be evicted";
    }
    res.obligations.push_back(
        {ObligationKind::kSetConflictFree, st, detail.str()});
  }

  // --- obligation: exec-miss-free -------------------------------------------
  {
    ObligationStatus st = ObligationStatus::kProven;
    std::ostringstream detail;
    if (!r1_ic || !r1_dc) {
      st = ObligationStatus::kRefuted;
      detail << "set conflict makes an execution-pass eviction (and hence a "
                "miss) statically certain";
    } else if (!latch_reached) {
      st = ObligationStatus::kUnproven;
      detail << "loading pass never reaches the wrapper latch abstractly";
    } else if (!res.exec_unproven.empty()) {
      st = ObligationStatus::kUnproven;
      detail << res.exec_unproven.size()
             << " access(es) not provably miss-free, first at "
             << hex(res.exec_unproven.front().first) << ": "
             << res.exec_unproven.front().second;
    } else {
      detail << proven_accesses << " fetch/data accesses proven miss-free ("
             << res.ifoot.total_lines() << " I-lines, "
             << res.dfoot.total_lines() << " D-lines warm after loading)";
    }
    res.obligations.push_back(
        {ObligationKind::kExecMissFree, st, detail.str()});
  }

  // --- obligation: loading-footprint (decided once per image) --------------
  res.loading_violations = model.loading_violations;
  res.obligations.push_back(model.loading);

  // --- obligation: cross-core-disjoint --------------------------------------
  {
    ObligationStatus st = cfg.peer_regions.empty()
                              ? ObligationStatus::kNotApplicable
                              : ObligationStatus::kProven;
    std::vector<AddrRange> self = cfg.data_regions;
    for (const auto& seg : prog.segments())
      self.push_back({seg.base, static_cast<u32>(seg.bytes.size())});
    for (const auto& s : self) {
      for (const auto& p : cfg.peer_regions) {
        if (!p.overlaps(s.base, s.end())) continue;
        res.overlap_violations.push_back(
            "reserved region [" + hex(s.base) + ", " + hex(s.end()) +
            ") overlaps peer core region [" + hex(p.base) + ", " +
            hex(p.end()) + ")");
        st = ObligationStatus::kRefuted;
      }
    }
    std::ostringstream detail;
    if (st == ObligationStatus::kNotApplicable) {
      detail << "single-core scenario slot: no peer regions declared";
    } else if (st == ObligationStatus::kProven) {
      detail << self.size() << " reserved region(s) disjoint from "
             << cfg.peer_regions.size() << " peer region(s)";
    } else {
      detail << res.overlap_violations.front();
    }
    res.obligations.push_back(
        {ObligationKind::kCrossCoreDisjoint, st, detail.str()});
  }

  // --- obligation: interference-bound ---------------------------------------
  {
    res.bound = interference_bound(cfg.mem, cfg.num_cores);
    const InterferenceBound& b = res.bound;
    const u32 beats = std::max(1u, b.line_bytes / 8);  // flash 8-byte beats
    std::ostringstream detail;
    detail << "a non-graded core's access waits at most " << b.d_max
           << " bus cycles: (R-1)*t_max + (t_max-1) with R=" << b.requesters
           << " requesters (3 per core x " << std::max(1u, cfg.num_cores)
           << " core(s)) and t_max=" << b.t_max << " (grant + "
           << mem::kFlashMissCycles << "-cycle first beat + (" << beats
           << "-1) buffered beats x " << mem::kFlashHitCycles << " cycles, "
           << b.line_bytes << "-byte line)";
    res.obligations.push_back({ObligationKind::kInterferenceBound,
                               ObligationStatus::kProven, detail.str()});
  }

  for (const auto& [set, ls] : res.ifoot.lines)
    res.predicted_loading_ilines.insert(ls.begin(), ls.end());
  for (const auto& [set, ls] : res.dfoot.lines)
    res.predicted_loading_dlines.insert(ls.begin(), ls.end());

  return res;
}

}  // namespace detstl::analysis
