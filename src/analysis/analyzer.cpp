#include "analysis/analyzer.h"

#include <algorithm>
#include <sstream>

#include "analysis/absint.h"
#include "common/bitutil.h"
#include "mem/memmap.h"

namespace detstl::analysis {

using namespace isa;

namespace {

/// True when a write to r29 matches the MISR idiom (routine.cpp's
/// emit_misr_acc: slli r26,r29,1; srli r29,r29,31; or r29,r26,r29;
/// xor r29,r29,v) or the seed load (li r29 = lui + ori).
bool misr_idiom_write(const Instr& in) {
  switch (in.op) {
    case Op::kLui:
      return true;
    case Op::kOri:
      return in.rs1 == R29;
    case Op::kSrli:
      return in.rs1 == R29 && in.imm == 31;
    case Op::kOr:
    case Op::kXor:
      return in.rs1 == R29 || in.rs2 == R29;
    default:
      return false;
  }
}

/// Per-set line occupancy of one cache.
class SetMap {
 public:
  explicit SetMap(const mem::CacheConfig& cfg) : cfg_(cfg) {}

  void add(u32 addr, u32 pc) {
    const u32 line = addr / cfg_.line_bytes * cfg_.line_bytes;
    const u32 set = (addr / cfg_.line_bytes) % cfg_.num_sets();
    if (sets_.lines[set].insert(line).second) sample_pc_[line] = pc;
  }

  u32 total_lines() const { return sets_.total_lines(); }

  /// Report every set holding more than `ways` distinct lines.
  void report_conflicts(Report& rep, Rule rule, const char* what,
                        std::string hint) const {
    for (const auto& [set, lines] : sets_.lines) {
      if (lines.size() <= cfg_.ways) continue;
      std::ostringstream os;
      os << "execution-loop " << what << " maps " << lines.size()
         << " lines onto cache set " << set << " (associativity " << cfg_.ways
         << "): ";
      bool first = true;
      for (u32 line : lines) {
        if (!first) os << ", ";
        os << hex(line);
        first = false;
      }
      rep.add(Severity::kError, rule, sample_pc_.at(*lines.begin()), os.str(),
              hint);
    }
  }

 private:
  mem::CacheConfig cfg_;
  SetFootprint sets_;
  std::map<u32, u32> sample_pc_;
};

/// The interval of the access at `pc`, or top when the analysis has none.
AVal access_addr(const ConstPropResult& cp, u32 pc) {
  const auto it = cp.access_addr.find(pc);
  return it == cp.access_addr.end() ? AVal::top() : it->second;
}

/// Classify the load/store `in` at `pc` of the footprint. A declared shared
/// region wins over every other target, a TCM included: an access the
/// routine's contract calls shared is reported, never trusted as private.
MemAccess classify(const ProgramModel& m, const AnalysisConfig& cfg, u32 pc,
                   const Instr& in) {
  using Kind = MemAccess::Kind;
  MemAccess a;
  a.pc = pc;
  a.load = is_load(in.op);
  a.store = is_store(in.op);
  a.size = mem_size(in.op);
  a.iter_invariant = access_addr(m.iter_cp, pc).resolved();
  const auto as = [&](Kind k) {
    a.kind = k;
    return a;
  };
  if (in.op == Op::kAmoAdd) return as(Kind::kAtomic);
  const AVal addr = access_addr(m.cp, pc);
  if (!addr.resolved()) return as(Kind::kUnbounded);
  a.lo = addr.lo;
  a.hi = addr.hi;
  for (const auto& r : cfg.shared_regions) {
    if (!r.overlaps(a.lo, a.end())) continue;
    a.shared = r;
    return as(Kind::kShared);
  }
  if ((mem::is_itcm(a.lo) && mem::is_itcm(a.end() - 1)) ||
      (mem::is_dtcm(a.lo) && mem::is_dtcm(a.end() - 1)))
    return as(Kind::kTcm);
  if (!mem::is_bus(a.lo) || !mem::is_bus(a.end() - 1))
    return as(Kind::kUnmapped);
  if (a.store && mem::is_flash(a.lo)) return as(Kind::kFlashStore);
  return as(Kind::kOk);
}

/// Index the footprint's blocks: their accesses, their successors and the
/// blocks the abstract passes are seeded at.
void index_blocks(ProgramModel& m) {
  std::map<u32, int> index;  // block begin -> footprint block
  std::size_t k = 0;         // first access at or after the block
  for (const auto& [b, bb] : m.cfg().blocks()) {
    if (!m.footprint.count(b)) continue;
    index[b] = static_cast<int>(m.blocks.size());
    while (k < m.accesses.size() && m.accesses[k].pc < bb.begin) ++k;
    FootprintBlock& blk = m.blocks.emplace_back();
    blk.begin = bb.begin;
    blk.end = bb.end;
    blk.first_access = k;
    while (k < m.accesses.size() && m.accesses[k].pc < bb.end) ++k;
    blk.end_access = k;
  }
  const auto at = [&](u32 b) {
    const auto it = index.find(b);
    return it == index.end() ? -1 : it->second;
  };
  for (FootprintBlock& blk : m.blocks)
    for (u32 succ : m.cfg().block_at(blk.begin)->succs)
      blk.edges.push_back({at(succ), succ == m.loop.head});
  m.head_block = at(m.loop.head);
  for (u32 r : m.loop_extra_roots)
    if (const int b = at(r); b >= 0) m.root_blocks.push_back(b);
}

/// The replay premises over the iteration-local constprop: the control
/// verdict, and which no-write-allocate stores a dummy load covers.
void decide_replay(ProgramModel& m) {
  // Control-flow iteration-independence: every conditional branch in the
  // footprint decides identically on each pass (operands re-derived from
  // loop-invariant constants), so the execution pass repeats the loading
  // pass's exact trace. The wrapper latch — any branch targeting the loop
  // head — is exempt: it branches on r30, which differs between passes by
  // design and only selects whether another pass runs at all.
  const ConstPropResult& cp_iter = m.iter_cp;
  m.replay_control = m.unresolved_calls.empty();
  if (!m.replay_control)
    m.replay_why = "indirect call target unresolved in the loop";
  for (u32 pc : m.footprint) {
    if (!m.replay_control) break;
    const Instr& in = m.cfg().instrs().at(pc);
    const auto st = cp_iter.at.find(pc);
    if (is_branch(in.op)) {
      const auto t = direct_target(in, pc);
      if (t && *t == m.loop.head) continue;
      const auto ok = [&](u8 r) {
        return r == R0 || (st != cp_iter.at.end() && st->second[r].bounded());
      };
      if (!ok(in.rs1) || !ok(in.rs2)) {
        m.replay_control = false;
        m.replay_why = "branch at " + hex(pc) +
                       " decides on values not re-derived from loop-invariant "
                       "constants (possibly loaded data)";
      }
    } else if (in.op == Op::kJalr) {
      if (st == cp_iter.at.end() || !st->second[in.rs1].is_const()) {
        m.replay_control = false;
        m.replay_why = "indirect jump at " + hex(pc) +
                       " has no iteration-invariant target";
      }
    }
  }

  // NWA dummy-load contract at interval precision: a no-write-allocate store
  // replays deterministically only if a load with the *identical* address
  // interval (the dummy load of the same base+offset) warms its lines.
  for (MemAccess& st : m.accesses) {
    if (!st.store || st.kind != MemAccess::Kind::kOk) continue;
    for (const MemAccess& ld : m.accesses)
      if (ld.load && ld.kind == MemAccess::Kind::kOk && ld.lo == st.lo &&
          ld.hi == st.hi && ld.size >= st.size && ld.iter_invariant)
        st.nwa_covered = true;
  }
}

/// The loading-footprint obligation: every loading-pass access stays inside
/// the declared data regions, the routine's own code image or a TCM.
void decide_loading(ProgramModel& m, const isa::Program& prog,
                    const AnalysisConfig& cfg) {
  ObligationStatus st = ObligationStatus::kProven;
  for (const MemAccess& a : m.accesses) {
    if (a.kind == MemAccess::Kind::kTcm) continue;
    if (a.bus_coupled()) {
      m.loading_violations.emplace_back(
          a.pc, std::string(bus_reason(a.kind)) +
                    " — outside the reserved cacheable regions");
      st = ObligationStatus::kRefuted;
      continue;
    }
    if (a.kind == MemAccess::Kind::kUnbounded) {
      m.loading_violations.emplace_back(
          a.pc,
          "access address cannot be bounded; containment in the reserved "
          "regions is unprovable");
      if (st == ObligationStatus::kProven) st = ObligationStatus::kUnproven;
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
        if (a.lo >= seg.base && a.end() <= seg.end()) ok = true;
    }
    if (!ok) {
      m.loading_violations.emplace_back(
          a.pc, "loading-pass access [" + hex(a.lo) + ", " + hex(a.end()) +
                    ") escapes the declared data regions and the routine's "
                    "own code image");
      st = ObligationStatus::kRefuted;
    }
  }
  std::ostringstream detail;
  if (st == ObligationStatus::kProven) {
    detail << "every loading-pass access stays inside the reserved regions ("
           << cfg.data_regions.size() << " declared data region(s) + own "
           << "code image + TCMs)";
  } else {
    detail << m.loading_violations.size() << " violation(s), first at "
           << hex(m.loading_violations.front().first);
  }
  m.loading = {ObligationKind::kLoadingFootprint, st, detail.str()};
}

}  // namespace

const char* bus_reason(MemAccess::Kind k) {
  switch (k) {
    case MemAccess::Kind::kAtomic:
      return "atomic access is serviced by the shared bus";
    case MemAccess::Kind::kShared:
      return "access to a shared communication region";
    case MemAccess::Kind::kUnmapped:
      return "access to unmapped or mixed address space";
    case MemAccess::Kind::kFlashStore:
      return "store to flash";
    default:
      return "?";
  }
}

LoopRegion find_loop(const isa::Program& prog, const Cfg& g,
                     const std::string& loop_symbol) {
  LoopRegion lr;
  const auto edges = g.back_edges();
  if (!loop_symbol.empty() && prog.has_symbol(loop_symbol)) {
    lr.head = prog.symbol(loop_symbol);
    for (const auto& [br, t] : edges) {
      if (t == lr.head && br > lr.end) {
        lr.end = br;
        lr.found = true;
      }
    }
    if (lr.found) return lr;
  }
  // Infer: merge overlapping back-edge intervals, take the widest.
  std::vector<std::pair<u32, u32>> iv;
  for (const auto& [br, t] : edges) iv.emplace_back(t, br);
  std::sort(iv.begin(), iv.end());
  std::vector<std::pair<u32, u32>> merged;
  for (const auto& [lo, hi] : iv) {
    if (!merged.empty() && lo <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, hi);
    } else {
      merged.emplace_back(lo, hi);
    }
  }
  for (const auto& [lo, hi] : merged) {
    if (!lr.found || hi - lo > lr.end - lr.head) {
      lr.head = lo;
      lr.end = hi;
      lr.found = true;
    }
  }
  return lr;
}

ProgramModel build_model(const isa::Program& prog, const AnalysisConfig& cfg) {
  ProgramModel m;
  ImageView image(prog);
  if (!image.contains(prog.entry(), 4)) return m;
  m.entry_ok = true;

  // CFG/constprop fixpoint: constant-resolved JALR and MTVEC targets become
  // new roots until the reachable set stops growing.
  std::set<u32> roots{prog.entry()};
  for (int iter = 0; iter < 5; ++iter) {
    m.graph.emplace(image, roots);
    m.cp = propagate(*m.graph, cfg.data_regions);
    bool grew = false;
    for (u32 t : m.cp.jalr_targets)
      if (image.contains(t, 4) && roots.insert(t).second) grew = true;
    for (u32 t : m.cp.mtvec_targets) {
      if (!image.contains(t, 4)) continue;
      m.isr_roots.insert(t);
      if (roots.insert(t).second) grew = true;
    }
    if (!grew) break;
  }
  const Cfg& g = *m.graph;

  m.loop = find_loop(prog, g, cfg.loop_symbol);
  if (!m.loop.found) return m;

  // Loop footprint: the back-edge interval, plus ISR code (interrupts fire
  // during the loop), plus callees invoked from inside the interval.
  for (const auto& [pc, in] : g.instrs())
    if (pc >= m.loop.head && pc <= m.loop.end) m.footprint.insert(pc);
  m.loop_extra_roots = m.isr_roots;
  for (u32 pc : m.footprint) {
    const Instr& in = g.instrs().at(pc);
    if (in.op == Op::kJal && in.rd != R0) {
      const u32 t = *direct_target(in, pc);
      if (t < m.loop.head || t > m.loop.end) m.loop_extra_roots.insert(t);
    }
    if (in.op == Op::kJalr && in.rd != R0) {
      const auto st = m.cp.at.find(pc);
      if (st == m.cp.at.end() || !st->second[in.rs1].is_const())
        m.unresolved_calls.push_back(pc);
    }
  }
  for (u32 pc : g.reachable_from(m.loop_extra_roots)) m.footprint.insert(pc);

  if (cfg.check_cache_determinism) {
    // Iteration-local interval analysis: re-run constprop rooted at the loop
    // head keeping only the registers that are globally *constant* there
    // (the loop-invariant bases); everything else — in particular
    // loop-carried values — starts from top. An access bounded under this
    // weaker state re-derives the same address sequence on every
    // wrapper-loop pass.
    RegState head_state;
    head_state.fill(AVal::top());
    head_state[R0] = AVal::cst(0);
    const auto hs = m.cp.at.find(m.loop.head);
    if (hs != m.cp.at.end())
      for (unsigned r = 0; r < kNumRegs; ++r)
        if (hs->second[r].is_const()) head_state[r] = hs->second[r];
    std::set<u32> iter_roots = m.loop_extra_roots;
    iter_roots.insert(m.loop.head);
    m.iter_cp = propagate(Cfg(image, iter_roots), cfg.data_regions,
                          {{m.loop.head, head_state}});
  }

  for (u32 pc : m.footprint) {
    const Instr& in = g.instrs().at(pc);
    if (in.valid() && (is_load(in.op) || is_store(in.op)))
      m.accesses.push_back(classify(m, cfg, pc, in));
  }
  index_blocks(m);
  decide_replay(m);
  decide_loading(m, prog, cfg);
  return m;
}

namespace {

Report analyze_impl(const isa::Program& prog, const AnalysisConfig& cfg,
                    const ProgramModel& m) {
  Report rep;
  if (!m.entry_ok) {
    rep.add(Severity::kError, Rule::kUnreachableEntry, prog.entry(),
            "entry point " + hex(prog.entry()) + " is outside the program image");
    return rep;
  }
  const Cfg& g = m.cfg();
  const ConstPropResult& cp = m.cp;

  // --- structural lints -------------------------------------------------------

  for (const auto& [b, bb] : g.blocks()) {
    if (bb.falls_off) {
      rep.add(Severity::kError, Rule::kHaltFallthrough, bb.end - 4,
              "reachable path continues past " + hex(bb.end) +
                  " into data or off the program image",
              "terminate the path with halt/ret or an unconditional branch "
              "before embedded data");
    }
  }

  std::vector<u32> code_pcs;
  for (const auto& [pc, in] : g.instrs())
    if (mem::is_bus(pc) && in.valid()) code_pcs.push_back(pc);
  const auto overlaps_code = [&](u32 lo, u32 hi) {  // [lo, hi)
    auto it = std::lower_bound(code_pcs.begin(), code_pcs.end(),
                               lo >= 3 ? lo - 3 : 0);
    return it != code_pcs.end() && *it < hi;
  };

  for (const auto& [pc, in] : g.instrs()) {
    if (!in.valid()) continue;
    if (is_store(in.op)) {
      const AVal addr = access_addr(cp, pc);
      if (addr.resolved()) {
        const u32 lo = addr.lo;
        const u32 hi = addr.hi + mem_size(in.op);
        if (overlaps_code(lo, hi)) {
          rep.add(Severity::kError, Rule::kSelfModifyingCode, pc,
                  "store to [" + hex(lo) + ", " + hex(hi) +
                      ") overwrites reachable code",
                  "self-test code must be immutable; write results to the "
                  "data scratch area");
        }
      }
    }
    if (writes_rd(in) && in.rd == R29 && !misr_idiom_write(in)) {
      rep.add(Severity::kWarning, Rule::kSignatureDiscipline, pc,
              "signature register r29 written outside the MISR idiom",
              "fold observations with emit_misr_acc (rotate-left-1 then XOR) "
              "so faults cannot alias to the golden signature");
    }
  }

  // --- execution-loop cache rules ---------------------------------------------

  if (!cfg.check_cache_determinism) return rep;

  const LoopRegion& loop = m.loop;
  if (!loop.found) {
    rep.add(Severity::kWarning, Rule::kUnresolvedAddress, prog.entry(),
            "no execution loop (back edge) found; cache determinism rules "
            "were not applied",
            "cache-based wrappers must run the body in a loading+execution "
            "loop (paper Fig. 2b)");
    return rep;
  }

  const std::set<u32>& fp = m.footprint;
  for (u32 pc : m.unresolved_calls) {
    rep.add(Severity::kWarning, Rule::kUnresolvedAddress, pc,
            "indirect call target inside the execution loop cannot be "
            "resolved; the code footprint may be incomplete");
  }

  // Rule 1: instruction footprint vs the I-cache.
  SetMap imap(cfg.mem.icache);
  for (u32 pc : fp)
    if (mem::is_bus(pc)) imap.add(pc, pc);
  const u32 icache_bytes = cfg.mem.icache.size_bytes;
  if (imap.total_lines() * cfg.mem.icache.line_bytes > icache_bytes) {
    rep.add(Severity::kError, Rule::kCodeFootprint, loop.head,
            "execution-loop code footprint (" +
                std::to_string(imap.total_lines() * cfg.mem.icache.line_bytes) +
                " B over " + std::to_string(imap.total_lines()) +
                " lines) exceeds the I-cache (" + std::to_string(icache_bytes) +
                " B)",
            "split the routine into cache-sized parts (paper rule 2.2)");
  }
  imap.report_conflicts(rep, Rule::kIcacheConflict, "code",
                        "keep at most <associativity> code lines per set: "
                        "pack the loop contiguously or split the routine "
                        "(paper rule 2.2)");

  // Rules 2-4: data footprint vs the D-cache, bus-coupled accesses, and the
  // no-write-allocate dummy-load fix-up, over the model's classification.
  SetMap dmap(cfg.mem.dcache);
  std::set<u32> loaded_lines;
  std::vector<std::pair<u32, std::vector<u32>>> store_lines;  // pc -> lines
  for (const MemAccess& a : m.accesses) {
    const auto bus_error = [&](std::string message, std::string hint) {
      rep.add(Severity::kError, Rule::kNoncacheableAccess, a.pc,
              std::move(message), std::move(hint));
    };
    switch (a.kind) {
      case MemAccess::Kind::kTcm:
        break;  // private single-cycle memory: never on the bus
      case MemAccess::Kind::kUnbounded:
        rep.add(Severity::kWarning, Rule::kUnresolvedAddress, a.pc,
                "memory access address inside the execution loop cannot be "
                "bounded; cache-residence cannot be proven",
                "use static addressing from li/la bases (paper Sec. III)");
        break;
      case MemAccess::Kind::kAtomic:
        bus_error("atomic access inside the execution loop is serviced by the "
                  "shared bus and re-couples the test to bus contention",
                  "move synchronisation outside the loading/execution loop");
        break;
      case MemAccess::Kind::kShared:
        bus_error("access to shared communication region [" +
                      hex(a.shared.base) + ", " + hex(a.shared.end()) +
                      ") inside the execution loop",
                  "mailbox/barrier traffic must happen before the loop or "
                  "after it with the caches disabled");
        break;
      case MemAccess::Kind::kUnmapped:
        bus_error("access to [" + hex(a.lo) + ", " + hex(a.end()) +
                      ") targets unmapped or mixed address space inside the "
                      "execution loop",
                  "");
        break;
      case MemAccess::Kind::kFlashStore:
        bus_error("store to flash at " + hex(a.lo) +
                      " inside the execution loop",
                  "stores must target the SRAM data scratch area");
        break;
      case MemAccess::Kind::kOk: {
        std::vector<u32> lines;
        const u32 lb = cfg.mem.dcache.line_bytes;
        for (u32 line = a.lo / lb * lb; line < a.end(); line += lb) {
          dmap.add(line, a.pc);
          lines.push_back(line);
          if (a.load) loaded_lines.insert(line);
        }
        if (a.store) store_lines.emplace_back(a.pc, std::move(lines));
        break;
      }
    }
  }
  dmap.report_conflicts(rep, Rule::kDcacheConflict, "data",
                        "shrink or realign the data footprint so at most "
                        "<associativity> lines alias each set");

  if (!cfg.write_allocate) {
    for (const auto& [pc, lines] : store_lines) {
      for (u32 line : lines) {
        if (!loaded_lines.count(line)) {
          rep.add(Severity::kError, Rule::kNwaMissingDummyLoad, pc,
                  "store to line " + hex(line) +
                      " with write-allocate disabled, and no load in the loop "
                      "touches that line: every execution-loop iteration "
                      "writes around the cache onto the bus",
                  "follow the store with a dummy load of the same address "
                  "(paper Sec. III step 1)");
          break;
        }
      }
    }
  }

  // Rule 5: counter reads feeding the signature without opting in.
  if (!cfg.use_perf_counters) {
    for (const auto& [pc, in] : g.instrs()) {
      if (in.op != Op::kCsrr || !is_counter_csr(in.csr)) continue;
      const bool in_loop = fp.count(pc) != 0;
      rep.add(in_loop ? Severity::kError : Severity::kWarning,
              Rule::kPerfCounterRead, pc,
              std::string("performance-counter CSR read") +
                  (in_loop ? " inside the execution loop" : "") +
                  " with use_perf_counters=false",
              "set use_perf_counters=true (and recalibrate) or drop the read; "
              "un-audited counter values destabilise the signature");
    }
  }

  // --- layer 2: abstract-interpretation obligations (absint.h) ----------------

  const AbsIntResult ai = interpret(prog, cfg, m);
  if (!ai.analyzable) return rep;

  // When the syntactic layer already refuted the cache structure, the
  // per-access unproven verdicts are downstream noise of the same root
  // cause — report the structural error once, not per access.
  const bool structure_bad = rep.has(Rule::kIcacheConflict) ||
                             rep.has(Rule::kDcacheConflict) ||
                             rep.has(Rule::kCodeFootprint);
  const bool ai_conflict =
      ai.status(ObligationKind::kSetConflictFree) == ObligationStatus::kRefuted;
  if (ai_conflict && !structure_bad) {
    rep.add(Severity::kError, Rule::kAiExecUnproven, loop.head,
            "abstract may-footprint refutes the no-eviction premise: " +
                ai.find(ObligationKind::kSetConflictFree)->detail,
            "shrink or realign the footprint so every set holds at most "
            "<associativity> lines");
  }
  if (!structure_bad && !ai_conflict) {
    for (const auto& [pc, why] : ai.exec_unproven) {
      if (rep.has_error_at(pc)) continue;
      rep.add(Severity::kError, Rule::kAiExecUnproven, pc,
              "execution-pass access not provably miss-free: " + why,
              "derive addresses from loop-invariant li/la bases and keep "
              "branch decisions independent of loaded data (paper Sec. III)");
    }
  }
  for (const auto& [pc, why] : ai.loading_violations) {
    if (rep.has_error_at(pc)) continue;
    rep.add(Severity::kError, Rule::kAiLoadingFootprint, pc, why,
            "declare the target in the routine's data contract or move the "
            "access outside the loading/execution loop");
  }
  for (const auto& v : ai.overlap_violations) {
    rep.add(Severity::kError, Rule::kAiCrossCoreOverlap, prog.entry(), v,
            "re-place the scenario so each graded core's code and data "
            "regions are private");
  }
  if (rep.clean() &&
      ai.status(ObligationKind::kExecMissFree) == ObligationStatus::kProven) {
    rep.add(Severity::kInfo, Rule::kAiInterferenceBound, loop.head,
            ai.find(ObligationKind::kInterferenceBound)->detail);
  }

  return rep;
}

}  // namespace

Report analyze(const isa::Program& prog, const AnalysisConfig& cfg) {
  const ProgramModel m = build_model(prog, cfg);
  Report rep = analyze_impl(prog, cfg, m);
  rep.annotate(prog);
  return rep;
}

}  // namespace detstl::analysis
