#pragma once
// Event sink that counts events per core and per wrapper phase into a
// perf::Registry. This turns the paper's central determinism claim — "during
// the execution loop every access hits in the private L1s" — into the
// checkable invariant `phase.bus_submits == 0 && phase.*_misses == 0` at
// `phase=execution-loop` (see violations()).
//
// Every counter is a kSim series `phase.<counter>` labelled
// `core=A,phase=execution-loop`. Events emitted before the first kPhaseBegin
// of a core (boot, prologue) and after its wrapper completes land in
// `phase=outside`. The first event of a (core, phase) pair registers all of
// its counters at zero, so a report states the invariant's zeros instead of
// omitting them. Campaign lifecycle events carry core == kNoCore and are
// counted in `phase.campaign_events` (no labels).

#include <array>
#include <string>
#include <vector>

#include "perf/metrics.h"
#include "trace/event.h"

namespace detstl::trace {

class PhaseMetrics final : public EventSink {
 public:
  /// Counts into `reg`, which must outlive the sink.
  explicit PhaseMetrics(perf::Registry& reg);

  void on_event(const Event& e) override;

  /// Execution-loop determinism violations: one human-readable line per
  /// core whose execution loop issued bus transactions or missed a cache.
  /// Empty == the paper's invariant holds for every traced core.
  std::vector<std::string> violations() const;

  /// Per-core phase tables (TextTable rendering).
  std::string render() const;

 private:
  static constexpr unsigned kCores = 3;

  perf::Registry& reg_;
  std::array<std::string, kCores> labels_;  // each core's current phase label
};

}  // namespace detstl::trace
