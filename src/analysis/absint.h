#pragma once
// Abstract cache-state interpretation of a wrapped self-test routine
// (stlint layer 2). Where the syntactic rules (analyzer.cpp) count lines per
// set, this module *proves* the paper's determinism obligations by abstract
// interpretation over the CFG, parameterized over the cache geometry
// (size / associativity / line bytes) and the write-allocate mode:
//
//   exec-miss-free        every instruction fetch and data access of the
//                         execution pass provably hits in the private L1s
//   loading-footprint     every loading-pass access stays inside the
//                         routine's reserved regions (declared data contract,
//                         own code image, TCMs)
//   set-conflict-free     no cache set is ever offered more distinct lines
//                         than its associativity (the no-eviction premise)
//   cross-core-disjoint   this core's reserved regions do not overlap any
//                         peer core's (scenario placement safety)
//   interference-bound    closed-form worst-case per-access bus delay for
//                         the non-graded cores while this test runs
//
// Domain. A classic must/may line-residency pair, specialised under the
// no-eviction premise: once `set-conflict-free` holds (every set sees at most
// `ways` distinct lines over the whole run), an LRU set never evicts — a
// (ways+1)-th distinct line would be required — so "certainly resident" is
// exactly "certainly touched". The must component is therefore a set of
// certainly-touched lines per cache (joined by intersection over paths); the
// may component accumulates every possibly-touched line per cache set
// (union), which both discharges the premise and yields the loading-phase
// footprint that the trace cross-validator (trace/xval.h) replays against.
//
// Phases. The wrapper loop (paper Fig. 2b) runs the body with r30=2 (loading
// pass) then r30=1 (execution pass). The interpreter peels it virtually:
// pass 1 flows from the loop head with *empty* caches (the wrapper
// invalidates first) and the outer back edge cut; the state carried along
// that back edge seeds pass 2, a fixpoint with the back edge restored. An
// execution-pass access is proven miss-free when
//   (a) its lines are certainly touched at that point (must-hit), or
//   (b) the replay argument applies: no set conflict, every conditional
//       branch in the footprint (bar the wrapper latch) and this access's
//       address re-derive identically each pass from loop-invariant
//       constants (iteration-local constprop, constprop.h root states), so
//       the execution pass repeats the loading pass's access trace — and,
//       under no-write-allocate, the store's lines are covered by loads
//       (the dummy-load contract) so the warm-up actually allocated them.
//
// Per image, per configuration. The access classification, the footprint
// block index, the replay premises of (b) and the loading-footprint
// obligation depend only on the image and come from the ProgramModel
// (analyzer.h); interpret() computes the rest for each cache geometry, core
// count and peer set.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"

namespace detstl::analysis {

/// Worst-case shared-bus interference while this test runs, for an access of
/// a non-graded core (round-robin arbitration, paper Sec. IV):
///   t_max = 1 (grant) + first-beat flash miss + buffered beats of one
///           line refill — the longest single bus transaction the wrapped
///           test can issue;
///   d_max = (requesters-1) * t_max + (t_max - 1) — every other requester
///           slips in a worst-case transaction, plus arriving one cycle
///           after a grant.
struct InterferenceBound {
  u32 t_max = 0;
  u32 d_max = 0;
  u32 requesters = 0;  // 3 per core: ifetch0, data, ifetch1
  u32 line_bytes = 0;  // widest refill among the two L1s
};

/// Closed-form per-access bound for a given memory geometry and core count —
/// the same numbers `interpret()` reports as `ai-interference-bound`.
/// Exposed standalone so the mission-mode runtime (runtime/mission.h) checks
/// its measured per-access bus waits against the stlint prediction.
InterferenceBound interference_bound(const mem::MemSystemConfig& geom, unsigned num_cores);

/// One per-cache may-footprint: cache set index -> line base addresses that
/// may occupy it.
struct SetFootprint {
  std::map<u32, std::set<u32>> lines;  // set -> line bases
  u32 total_lines() const;
  u32 worst_set_occupancy() const;
};

struct AbsIntResult {
  /// False when the program has no recognisable wrapper loop (plain/TCM
  /// style); obligations are then empty and `not_analyzable_why` says why.
  bool analyzable = false;
  std::string not_analyzable_why;

  std::vector<Obligation> obligations;
  const Obligation* find(ObligationKind k) const;  // nullptr when absent
  ObligationStatus status(ObligationKind k) const;
  bool all_proven() const;  // every obligation proven or not-applicable

  /// Execution-pass accesses that could not be proven miss-free: pc -> why.
  std::vector<std::pair<u32, std::string>> exec_unproven;
  /// Loading-pass accesses escaping the reserved regions: pc -> why.
  std::vector<std::pair<u32, std::string>> loading_violations;
  /// Reserved-region overlaps with peer cores (already formatted).
  std::vector<std::string> overlap_violations;

  InterferenceBound bound;

  /// May-footprints (I / D) of the whole loading+execution window — the
  /// static prediction of which lines the loading pass refills.
  SetFootprint ifoot, dfoot;

  /// All line base addresses the loading pass may refill (union of the two
  /// footprints, keyed per cache), consumed by the trace cross-validator.
  std::set<u32> predicted_loading_ilines;
  std::set<u32> predicted_loading_dlines;
};

/// Run the abstract interpreter over a model from build_model() of the same
/// program with the same data regions, shared regions, loop symbol and
/// check_cache_determinism. The model holds every fact of the image (access
/// classification, block index, replay premises, loading-footprint
/// obligation); each call adds what depends on `cfg.mem`, `cfg.num_cores`,
/// `cfg.peer_regions` and `cfg.write_allocate`: the line universes and block
/// gains, the two must passes, the may-footprints, the per-access verdicts
/// and the other four obligations.
AbsIntResult interpret(const isa::Program& prog, const AnalysisConfig& cfg,
                       const ProgramModel& model);

}  // namespace detstl::analysis
