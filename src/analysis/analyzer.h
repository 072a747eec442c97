#pragma once
// Static determinism verifier for cache-wrapped self-test routines.
//
// The paper's guarantee (Sec. III) holds only if, during the execution loop,
// every instruction fetch and data access of the wrapped routine hits in the
// private L1s. This pass proves that property on the assembled program —
// before any simulation — or refutes it with precise diagnostics:
//
//  1. CFG + reachability over the decoded instruction stream (cfg.h);
//  2. code-footprint analysis mapping every reachable in-loop fetch to
//     I-cache sets, rejecting capacity/conflict self-evictions;
//  3. data-access interval analysis (constprop.h) mapping loads/stores to
//     D-cache sets, flagging bus-coupled accesses inside the loop and stores
//     lacking the no-write-allocate dummy-load fix-up;
//  4. structural lints: self-modifying code, fall-through past halt,
//     signature updates outside the MISR idiom, perf-counter reads with
//     use_perf_counters=false;
//  5. abstract cache-state interpretation (absint.h): a must/may residency
//     analysis over the loading/execution phases that upgrades the syntactic
//     rules to per-configuration proof obligations — exec-loop miss-freedom,
//     loading footprint containment, cross-core disjointness, and a static
//     per-access bus-interference bound.

#include <stdexcept>
#include <string>

#include "analysis/constprop.h"
#include "analysis/diag.h"
#include "mem/memsys.h"

namespace detstl::analysis {

struct AnalysisConfig {
  mem::MemSystemConfig mem{};

  /// Apply the execution-loop cache rules (2-3 above). Off for plain/TCM
  /// wrappers whose determinism argument does not rest on the caches.
  bool check_cache_determinism = true;
  bool write_allocate = true;
  bool use_perf_counters = false;

  /// Label of the execution-loop head (e.g. "t0_loop"). When empty or
  /// undefined in the program, the loop is inferred as the outermost
  /// back-edge interval.
  std::string loop_symbol;

  /// Declared data scratch areas (routine data contract). Guides interval
  /// widening and the D-cache footprint.
  std::vector<AddrRange> data_regions;

  /// Shared-communication areas (mailboxes, barrier counters). Any in-loop
  /// access re-couples the test to the bus/coherence protocol and is an
  /// error.
  std::vector<AddrRange> shared_regions;

  /// Reserved regions (code + data) of the *other* graded cores in the same
  /// scenario slot. The cross-core disjointness obligation refutes when this
  /// core's reserved regions overlap any of them. Empty = single-core run,
  /// obligation not applicable.
  std::vector<AddrRange> peer_regions;

  /// Cores sharing the bus in the scenario (graded + non-graded), used for
  /// the worst-case per-access interference bound (requesters = 3 per core).
  unsigned num_cores = 1;
};

/// Execution-loop region: [head, back_edge_pc], inclusive.
struct LoopRegion {
  u32 head = 0;
  u32 end = 0;
  bool found = false;
};

/// Locate the wrapper's loading/execution loop: prefer `loop_symbol` (taking
/// the widest back edge returning to it), otherwise the widest merged
/// back-edge interval.
LoopRegion find_loop(const isa::Program& prog, const Cfg& g,
                     const std::string& loop_symbol);

/// Shared orchestration state: the CFG/constprop fixpoint and the resolved
/// loop structure, computed once and consumed by both the syntactic rules
/// (analyze) and the abstract interpreter (absint.h) / the trace
/// cross-validator (trace/xval.h). Nothing in it depends on the cache
/// geometry, the core count or the peers, so one model serves every
/// interpret() of the same image (the scenario matrix sweeps it).
struct ProgramModel {
  bool entry_ok = false;        // entry decodes inside the image
  std::optional<Cfg> graph;     // engaged when entry_ok
  ConstPropResult cp;
  std::set<u32> isr_roots;      // constant MTVEC targets
  LoopRegion loop;
  /// Instruction PCs of the execution-loop footprint: the back-edge interval
  /// plus ISR code and callees invoked from inside it.
  std::set<u32> footprint;
  /// Footprint roots outside [loop.head, loop.end] (callee entries, ISRs).
  std::set<u32> loop_extra_roots;
  /// In-loop JALR pcs whose target the interval analysis cannot resolve
  /// (the footprint may be incomplete; reported as unresolved-address).
  std::vector<u32> unresolved_calls;
  /// Iteration-local constprop (absint.h replay premises): rooted at the
  /// loop head with only the registers that are globally constant there, so
  /// whatever it bounds re-derives identically on every wrapper-loop pass.
  /// Filled when the loop is found and cfg.check_cache_determinism is set.
  ConstPropResult iter_cp;

  const Cfg& cfg() const { return *graph; }
};

/// Build the CFG/constprop fixpoint (constant-resolved JALR and MTVEC
/// targets become new roots until the reachable set stops growing), resolve
/// the loop footprint and, for cache-determinism checks, run the
/// iteration-local constprop.
ProgramModel build_model(const isa::Program& prog, const AnalysisConfig& cfg);

/// Thrown by enforcing callers (build_wrapped with LintMode::kEnforce).
class AnalysisError : public std::runtime_error {
 public:
  AnalysisError(std::string what, Report report)
      : std::runtime_error(std::move(what)), report_(std::move(report)) {}
  const Report& report() const { return report_; }

 private:
  Report report_;
};

Report analyze(const isa::Program& prog, const AnalysisConfig& cfg);

}  // namespace detstl::analysis
