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

ObligationStatus AbsIntResult::status(ObligationKind k) const {
  for (const auto& o : obligations)
    if (o.kind == k) return o.status;
  return ObligationStatus::kNotApplicable;
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

std::string hex(u32 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// Same interval span cap as the syntactic layer (analyzer.cpp).
constexpr u32 kMaxSpan = 64 * 1024;

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

/// Classification of one footprint load/store after interval analysis.
struct MemAccess {
  enum class Kind : u8 {
    kOk,          // bounded, cacheable target
    kTcm,         // private single-cycle memory; never cached, never on bus
    kBusCoupled,  // shared region / atomic / flash store / unmapped
    kUnbounded,   // interval analysis gave up
  };
  u32 pc = 0;
  bool load = false;
  bool store = false;
  u32 size = 0;
  Kind kind = Kind::kUnbounded;
  u32 lo = 0, hi = 0;  // start-address interval, inclusive (kOk / kTcm)
  std::string why;     // kBusCoupled reason
};

/// One footprint block's successor: a footprint block index, or -1 when the
/// edge leaves the footprint; `back` marks an edge to the loop head.
struct Edge {
  int to = -1;
  bool back = false;
};

/// One footprint block, resolved against the call's geometry.
struct Block {
  const BasicBlock* bb = nullptr;
  std::vector<Edge> edges;
  MustState gen;  // lines the block certainly touches
};

struct Ctx {
  const isa::Program& prog;
  const AnalysisConfig& cfg;
  const ProgramModel& m;
  AbsIntResult res;

  std::vector<MemAccess> accesses;        // footprint order (ascending pc)
  std::map<u32, const MemAccess*> at_pc;  // filled after `accesses` is final
  std::vector<Block> blocks;              // footprint blocks, ascending begin
  std::vector<u32> block_begin;           // ... and their begin addresses
  LineUniverse iuni, duni;                // lines a must state can hold

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
    for (u32 line = a.lo / lb * lb; line < a.hi + a.size; line += lb)
      out.push_back(line);
    return out;
  }
  /// The bounded cacheable access at `pc` that allocates its lines (loads,
  /// and stores under write-allocate), or nullptr.
  const MemAccess* allocating(u32 pc) const {
    const auto it = at_pc.find(pc);
    if (it == at_pc.end()) return nullptr;
    const MemAccess& a = *it->second;
    const bool ok = a.kind == MemAccess::Kind::kOk &&
                    (a.load || cfg.write_allocate);  // NWA store: write-around
    return ok ? &a : nullptr;
  }
  /// D-lines the instruction at `pc` certainly touches: only an allocating
  /// access at a single constant address (the one case where we know
  /// *which* line is touched) has any.
  std::vector<u32> must_dlines(u32 pc) const {
    const MemAccess* a = allocating(pc);
    return a && a->lo == a->hi ? dlines(*a) : std::vector<u32>{};
  }
  /// Index of the footprint block starting at `b`, or -1.
  int block_index(u32 b) const {
    const auto it =
        std::lower_bound(block_begin.begin(), block_begin.end(), b);
    return it != block_begin.end() && *it == b
               ? static_cast<int>(it - block_begin.begin())
               : -1;
  }
  MustState empty() const { return {true, iuni.none(), duni.none()}; }
};

void classify_accesses(Ctx& c) {
  const Cfg& g = c.m.cfg();
  for (u32 pc : c.m.footprint) {
    const Instr& in = g.instrs().at(pc);
    if (!in.valid() || (!is_load(in.op) && !is_store(in.op))) continue;
    MemAccess a;
    a.pc = pc;
    a.load = is_load(in.op);
    a.store = is_store(in.op);
    a.size = mem_size(in.op);
    if (in.op == Op::kAmoAdd) {
      a.kind = MemAccess::Kind::kBusCoupled;
      a.why = "atomic access is serviced by the shared bus";
      c.accesses.push_back(a);
      continue;
    }
    const auto it = c.m.cp.access_addr.find(pc);
    const AVal addr = it == c.m.cp.access_addr.end() ? AVal::top() : it->second;
    if (!addr.bounded() || addr.width() > kMaxSpan) {
      a.kind = MemAccess::Kind::kUnbounded;
      c.accesses.push_back(a);
      continue;
    }
    a.lo = addr.lo;
    a.hi = addr.hi;
    const u32 end = a.hi + a.size;  // one past the last touched byte
    const bool tcm = (mem::is_itcm(a.lo) && mem::is_itcm(end - 1)) ||
                     (mem::is_dtcm(a.lo) && mem::is_dtcm(end - 1));
    if (tcm) {
      a.kind = MemAccess::Kind::kTcm;
      c.accesses.push_back(a);
      continue;
    }
    bool shared = false;
    for (const auto& r : c.cfg.shared_regions)
      if (r.overlaps(a.lo, end)) shared = true;
    if (shared) {
      a.kind = MemAccess::Kind::kBusCoupled;
      a.why = "access to a shared communication region";
    } else if (!mem::is_bus(a.lo) || !mem::is_bus(end - 1)) {
      a.kind = MemAccess::Kind::kBusCoupled;
      a.why = "access to unmapped or mixed address space";
    } else if (a.store && mem::is_flash(a.lo)) {
      a.kind = MemAccess::Kind::kBusCoupled;
      a.why = "store to flash";
    } else {
      a.kind = MemAccess::Kind::kOk;
    }
    c.accesses.push_back(a);
  }
  for (const auto& a : c.accesses) c.at_pc[a.pc] = &a;
}

/// Abstract must-effect of one instruction: fetch the instruction line, then
/// perform the data access.
void step(const Ctx& c, u32 pc, MustState& s) {
  if (mem::is_bus(pc)) c.iuni.set(s.il, c.iline(pc));
  for (u32 line : c.must_dlines(pc)) c.duni.set(s.dl, line);
}

/// Index the footprint blocks, their edges, the line universes and each
/// block's must-gain under the call's geometry.
void resolve_blocks(Ctx& c) {
  for (const auto& [b, bb] : c.m.cfg().blocks()) {
    if (!c.m.footprint.count(b)) continue;
    c.block_begin.push_back(b);
    c.blocks.push_back({&bb, {}, {}});
    for (u32 pc = bb.begin; pc < bb.end; pc += 4) {
      if (mem::is_bus(pc)) c.iuni.add(c.iline(pc));
      for (u32 line : c.must_dlines(pc)) c.duni.add(line);
    }
  }
  c.iuni.seal();
  c.duni.seal();
  for (Block& blk : c.blocks) {
    for (u32 succ : blk.bb->succs)
      blk.edges.push_back({c.block_index(succ), succ == c.m.loop.head});
    blk.gen = c.empty();
    for (u32 pc = blk.bb->begin; pc < blk.bb->end; pc += 4) step(c, pc, blk.gen);
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
  std::vector<MustState> in(c.blocks.size());
  std::vector<int> work;
  const auto seed = [&](u32 b, const MustState& st) {
    const int k = c.block_index(b);
    if (k < 0) return;
    meet_into(in[k], st);
    work.push_back(k);
  };
  seed(c.m.loop.head, head_seed);
  for (u32 r : c.m.loop_extra_roots) seed(r, root_seed);
  MustState s;
  while (!work.empty()) {
    const Block& blk = c.blocks[work.back()];
    s = in[work.back()];
    work.pop_back();
    unite(s.il, blk.gen.il);
    unite(s.dl, blk.gen.dl);
    for (const Edge& e : blk.edges) {
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

AbsIntResult interpret(const isa::Program& prog, const AnalysisConfig& cfg) {
  const ProgramModel model = build_model(prog, cfg);
  return interpret(prog, cfg, model);
}

AbsIntResult interpret(const isa::Program& prog, const AnalysisConfig& cfg,
                       const ProgramModel& model) {
  Ctx c{prog, cfg, model, {}, {}, {}, {}, {}, {}, {}};
  AbsIntResult& res = c.res;

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

  classify_accesses(c);
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
  for (std::size_t k = 0; k < c.blocks.size(); ++k) {
    if (!in2[k].reached) continue;
    const BasicBlock& bb = *c.blocks[k].bb;
    for (u32 pc = bb.begin; pc < bb.end; pc += 4) {
      if (mem::is_bus(pc)) res.ifoot.lines[c.iset(pc)].insert(c.iline(pc));
      if (const MemAccess* a = c.allocating(pc))
        for (u32 line : c.dlines(*a)) res.dfoot.lines[c.dset(line)].insert(line);
    }
  }

  // --- replay premises ------------------------------------------------------
  // The iteration-local interval analysis (ProgramModel::iter_cp) bounds
  // exactly the accesses that re-derive the same address sequence on every
  // wrapper-loop pass.
  const ConstPropResult& cp_iter = model.iter_cp;
  const auto iter_bounded = [&](u32 pc) {
    const auto it = cp_iter.access_addr.find(pc);
    return it != cp_iter.access_addr.end() && it->second.bounded() &&
           it->second.width() <= kMaxSpan;
  };

  // Control-flow iteration-independence: every conditional branch in the
  // footprint decides identically on each pass (operands re-derived from
  // loop-invariant constants), so the execution pass repeats the loading
  // pass's exact trace. The wrapper latch — any branch targeting the loop
  // head — is exempt: it branches on r30, which differs between passes by
  // design and only selects whether another pass runs at all.
  const Cfg& g = model.cfg();
  bool replay_control = model.unresolved_calls.empty();
  std::string replay_why =
      replay_control ? "" : "indirect call target unresolved in the loop";
  for (u32 pc : model.footprint) {
    if (!replay_control) break;
    const Instr& in = g.instrs().at(pc);
    const auto st = cp_iter.at.find(pc);
    if (is_branch(in.op)) {
      const auto t = direct_target(in, pc);
      if (t && *t == model.loop.head) continue;
      const auto ok = [&](u8 r) {
        return r == R0 ||
               (st != cp_iter.at.end() && st->second[r].bounded());
      };
      if (!ok(in.rs1) || !ok(in.rs2)) {
        replay_control = false;
        replay_why = "branch at " + hex(pc) +
                     " decides on values not re-derived from loop-invariant "
                     "constants (possibly loaded data)";
      }
    } else if (in.op == Op::kJalr) {
      if (st == cp_iter.at.end() || !st->second[in.rs1].is_const()) {
        replay_control = false;
        replay_why = "indirect jump at " + hex(pc) +
                     " has no iteration-invariant target";
      }
    }
  }

  // NWA dummy-load contract at interval precision: a no-write-allocate store
  // replays deterministically only if a load with the *identical* address
  // interval (the dummy load of the same base+offset) warms its lines.
  const auto nwa_covered = [&](const MemAccess& stp) {
    for (const auto& ld : c.accesses)
      if (ld.load && ld.kind == MemAccess::Kind::kOk && ld.lo == stp.lo &&
          ld.hi == stp.hi && ld.size >= stp.size && iter_bounded(ld.pc))
        return true;
    return false;
  };

  const bool r1_ic =
      res.ifoot.worst_set_occupancy() <= cfg.mem.icache.ways;
  const bool r1_dc =
      res.dfoot.worst_set_occupancy() <= cfg.mem.dcache.ways;

  // --- per-access execution-pass verdicts -----------------------------------
  std::map<u32, std::string> unproven;
  const auto record = [&](u32 pc, std::string why) {
    unproven.emplace(pc, std::move(why));
  };
  unsigned proven_accesses = 0;
  for (std::size_t k = 0; k < c.blocks.size(); ++k) {
    if (!in2[k].reached) continue;
    const BasicBlock& bb = *c.blocks[k].bb;
    MustState s = in2[k];
    for (u32 pc = bb.begin; pc < bb.end; pc += 4) {
      if (mem::is_bus(pc)) {
        const u32 line = c.iline(pc);
        if (c.iuni.test(s.il, line) || (r1_ic && replay_control)) {
          ++proven_accesses;
        } else {
          record(pc, "instruction line " + hex(line) +
                         " not provably warm in the execution pass" +
                         (r1_ic ? " (" + replay_why + ")"
                                : " (I-cache set conflict)"));
        }
      }
      const auto ait = c.at_pc.find(pc);
      if (ait != c.at_pc.end()) {
        const MemAccess& a = *ait->second;
        switch (a.kind) {
          case MemAccess::Kind::kTcm:
            ++proven_accesses;  // single-cycle private memory, bus-free
            break;
          case MemAccess::Kind::kBusCoupled:
            record(pc, a.why + " inside the execution loop");
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
            bool replay_ok = r1_dc && replay_control && iter_bounded(a.pc);
            if (replay_ok && a.store && !cfg.write_allocate &&
                !nwa_covered(a))
              replay_ok = false;
            if (must_hit || replay_ok) {
              ++proven_accesses;
            } else if (!r1_dc) {
              record(pc, "D-cache set conflict defeats the no-eviction "
                         "premise for this access");
            } else if (!replay_control) {
              record(pc, "strided access relies on the replay argument, but " +
                             replay_why);
            } else if (!iter_bounded(a.pc)) {
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
        }
      }
      step(c, pc, s);
    }
  }
  for (auto& [pc, why] : unproven) res.exec_unproven.emplace_back(pc, why);

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

  // --- obligation: loading-footprint ----------------------------------------
  {
    ObligationStatus st = ObligationStatus::kProven;
    for (const auto& a : c.accesses) {
      if (a.kind == MemAccess::Kind::kTcm) continue;
      if (a.kind == MemAccess::Kind::kBusCoupled) {
        res.loading_violations.emplace_back(
            a.pc, a.why + " — outside the reserved cacheable regions");
        st = ObligationStatus::kRefuted;
        continue;
      }
      if (a.kind == MemAccess::Kind::kUnbounded) {
        res.loading_violations.emplace_back(
            a.pc,
            "access address cannot be bounded; containment in the reserved "
            "regions is unprovable");
        if (st == ObligationStatus::kProven)
          st = ObligationStatus::kUnproven;
        continue;
      }
      bool ok = false;
      // Start-interval containment: widening clamps a strided pointer to
      // [base, end()] inclusive, so the access *start* may sit exactly at
      // the region's one-past-end bound; the final stride never executes.
      for (const auto& r : cfg.data_regions)
        if (r.contains(a.lo) && a.hi <= r.end()) ok = true;
      if (!ok && a.load && mem::is_flash(a.lo)) {
        for (const auto& seg : prog.segments())
          if (a.lo >= seg.base && a.hi + a.size <= seg.end()) ok = true;
      }
      if (!ok) {
        res.loading_violations.emplace_back(
            a.pc, "loading-pass access [" + hex(a.lo) + ", " +
                      hex(a.hi + a.size) +
                      ") escapes the declared data regions and the routine's "
                      "own code image");
        st = ObligationStatus::kRefuted;
      }
    }
    std::ostringstream detail;
    if (st == ObligationStatus::kProven) {
      detail << "every loading-pass access stays inside the reserved "
                "regions ("
             << cfg.data_regions.size() << " declared data region(s) + own "
             << "code image + TCMs)";
    } else {
      detail << res.loading_violations.size() << " violation(s), first at "
             << hex(res.loading_violations.front().first);
    }
    res.obligations.push_back(
        {ObligationKind::kLoadingFootprint, st, detail.str()});
  }

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
