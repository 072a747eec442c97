#pragma once
// Host-resource sampler: wall-clock, process CPU time and peak RSS. Every
// value this header produces is kHost by definition — never let one into a
// sim-tagged metric or the canonical report bytes.

#include "common/bitutil.h"

namespace detstl::perf {

struct HostUsage {
  double wall_s = 0.0;   // wall-clock since the timer started
  double cpu_s = 0.0;    // process CPU (user+sys) since the timer started
  long peak_rss_kb = 0;  // process-lifetime peak resident set, in KiB
};

/// Monotonic (steady-clock) wall time in nanoseconds from an arbitrary
/// epoch: the one host clock behind HostTimer and the checkpoint flush
/// timing.
u64 wall_now_ns();

/// Process CPU time (user + system) since process start, in seconds.
double process_cpu_seconds();

/// Process-lifetime peak resident set size in KiB (0 where unsupported).
long peak_rss_kb();

/// Monotonic wall + CPU interval timer.
class HostTimer {
 public:
  HostTimer();      // starts immediately
  void restart();
  HostUsage sample() const;

 private:
  u64 wall_start_ns_ = 0;
  double cpu_start_s_ = 0.0;
};

}  // namespace detstl::perf
