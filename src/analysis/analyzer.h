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
//
// Steps 1 and 3's interval analysis, the loop footprint, the classification
// of every loop load/store, the footprint's block index, the replay premises
// and the loading-footprint obligation depend only on the image: build_model()
// computes them once into a ProgramModel, and both the syntactic rules and
// every interpret() read them from there. What depends on the cache geometry
// (set mapping, conflicts, must/may states) is computed per configuration.

#include <span>
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

enum class ObligationKind : u8 {
  kExecMissFree,
  kLoadingFootprint,
  kSetConflictFree,
  kCrossCoreDisjoint,
  kInterferenceBound,
};

enum class ObligationStatus : u8 {
  kProven,         // holds for every concrete execution
  kUnproven,       // the analysis cannot establish it (maybe imprecision)
  kRefuted,        // a counterexample is statically certain
  kNotApplicable,  // e.g. cross-core disjointness with no peers
};

const char* obligation_name(ObligationKind k);
const char* obligation_status_name(ObligationStatus s);

/// One proof obligation of the abstract interpreter (absint.h).
struct Obligation {
  ObligationKind kind;
  ObligationStatus status;
  std::string detail;  // human-readable justification / counterexample
};

/// One load/store of the execution-loop footprint, classified once per
/// image. The syntactic rules 2-4 (analyze) and the abstract interpreter
/// both switch over `kind`; each words its own diagnostics.
struct MemAccess {
  enum class Kind : u8 {
    kOk,          // bounded, cacheable target
    kTcm,         // private single-cycle memory; never cached, never on bus
    kUnbounded,   // no interval within kMaxSpan
    // Bus-coupled kinds, serviced by the shared bus:
    kAtomic,      // an atomic, wherever it points
    kShared,      // overlaps a declared shared region (`shared`, the first)
    kUnmapped,    // unmapped or mixed address space
    kFlashStore,  // a store to flash
  };

  u32 pc = 0;
  bool load = false;
  bool store = false;
  u32 size = 0;
  Kind kind = Kind::kUnbounded;
  AddrRange shared;
  u32 lo = 0, hi = 0;  // start-address interval, inclusive (bounded kinds)
  /// Replay premises (absint.h): the iteration-local constprop resolves the
  /// address, and, for a kOk store, an iteration-invariant kOk load of the
  /// identical interval and at least its width warms its lines (the
  /// no-write-allocate dummy load).
  bool iter_invariant = false;
  bool nwa_covered = false;

  bool bus_coupled() const { return kind >= Kind::kAtomic; }
  u32 end() const { return hi + size; }  // one past the last touched byte
};

/// Layer 2's wording of why a bus-coupled access is on the bus.
const char* bus_reason(MemAccess::Kind k);

/// One footprint basic block: its instructions [begin, end), its accesses
/// ProgramModel::accesses[first_access, end_access), and its successors.
struct FootprintBlock {
  struct Edge {
    int to = -1;        // footprint block index; -1 leaves the footprint
    bool back = false;  // returns to the loop head
  };
  u32 begin = 0, end = 0;
  std::size_t first_access = 0, end_access = 0;
  std::vector<Edge> edges;
};

/// Everything the analysis knows about one image that does not depend on
/// the cache geometry, the core count or the peers, computed once by
/// build_model() and consumed by the syntactic rules (analyze), the abstract
/// interpreter (absint.h) and the trace cross-validator (trace/xval.h). One
/// model serves every interpret() of the same image (the scenario matrix
/// sweeps it).
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
  /// whatever it resolves re-derives identically on every wrapper-loop
  /// pass. Filled when the loop is found and cfg.check_cache_determinism is
  /// set.
  ConstPropResult iter_cp;

  // The rest is filled when the loop is found.
  /// The footprint's loads and stores in ascending pc order.
  std::vector<MemAccess> accesses;
  /// The footprint's blocks in ascending begin order, and the blocks the
  /// abstract passes are seeded at: the loop head, then each extra root.
  std::vector<FootprintBlock> blocks;
  int head_block = -1;
  std::vector<int> root_blocks;
  /// Replay control premise: every conditional branch of the footprint bar
  /// the wrapper latch, and every indirect jump, decides identically on
  /// each pass; `replay_why` says why not.
  bool replay_control = false;
  std::string replay_why;
  /// The loading-footprint obligation: every loading-pass access stays in
  /// the declared data regions, the own code image or a TCM. Violations are
  /// pc -> why.
  Obligation loading{ObligationKind::kLoadingFootprint,
                     ObligationStatus::kNotApplicable, {}};
  std::vector<std::pair<u32, std::string>> loading_violations;

  const Cfg& cfg() const { return *graph; }
  std::span<const MemAccess> accesses_of(const FootprintBlock& b) const {
    return {accesses.data() + b.first_access, accesses.data() + b.end_access};
  }
};

/// Build the CFG/constprop fixpoint (constant-resolved JALR and MTVEC
/// targets become new roots until the reachable set stops growing), resolve
/// the loop footprint, run the iteration-local constprop for
/// cache-determinism checks, classify the footprint's accesses against
/// cfg.shared_regions and the memory map, index its blocks, and decide the
/// replay premises and the loading-footprint obligation against
/// cfg.data_regions and the program's segments.
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
