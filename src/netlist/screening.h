#pragma once
// Excitation screening entry point (fault-campaign phase 1).
//
// A LaneGroupScreen owns the evaluation state for one *lane group*: up to 63
// faults (a campaign passes one representative per equivalence class) packed
// into lanes 0..62 of the 64-lane bit-parallel evaluator, with lane 63 left
// fault-free as the golden reference. The caller replays the recorded module-call trace — encode the
// call's inputs into state(), then observe(call_idx) — and the screen records
// the call index of each fault's first output divergence.
//
// Lane groups are independent by construction (each group carries its own
// EvalState and writes only its own slice of the divergence results), which
// is what lets the campaign shard groups across worker threads without any
// synchronisation beyond the work queue.

#include <cstddef>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace detstl::netlist {

class LaneGroupScreen {
 public:
  /// Faulty lanes per evaluation word; lane kLanesPerGroup is the reference.
  static constexpr unsigned kLanesPerGroup = 63;

  /// Number of lane groups needed to screen `nfaults` faults.
  static constexpr std::size_t num_groups(std::size_t nfaults) {
    return (nfaults + kLanesPerGroup - 1) / kLanesPerGroup;
  }

  /// Prepares a screen over `faults` (at most kLanesPerGroup of them),
  /// observed on the `outputs` nets of `nl`. The referenced netlist and
  /// output list must outlive the screen; the fault span is copied.
  LaneGroupScreen(const Netlist& nl, std::span<const NetId> outputs,
                  std::span<const Fault> faults);

  /// Evaluation state to encode the next call's inputs into.
  EvalState& state() { return state_; }

  /// Evaluate the netlist on the currently-encoded inputs and record, for
  /// every not-yet-diverged lane whose outputs differ from the reference
  /// lane, `call_idx` as its first divergence.
  void observe(std::size_t call_idx);

  /// Commit flop state (sequential modules; call after observe()).
  void clock() { nl_->clock(state_); }

  /// Every fault in the group has diverged — replay may stop early.
  bool done() const { return alive_ == 0; }

  /// Per-fault call index of the first output divergence, in the order the
  /// faults were passed to the constructor; SIZE_MAX = never diverged.
  const std::vector<std::size_t>& first_divergence() const { return first_div_; }

 private:
  const Netlist* nl_;
  std::span<const NetId> outputs_;
  EvalState state_;
  u64 alive_;
  std::vector<std::size_t> first_div_;
};

}  // namespace detstl::netlist
