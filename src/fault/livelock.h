#pragma once
// Livelock exit for phase-2 detection replicas (docs/fault_simulation.md,
// "Phase 2"). A replica ends when the graded core halts, when its signature
// diverges for good, or at the watchdog. A replica whose state repeats,
// with no core reading a counter CSR in between, is periodic from there
// on: it can neither halt nor diverge any further, so it would end at the
// watchdog, and simulating the rest of the way changes no outcome.
//
// The state is the clock-blind SoC state (soc::same_state) plus what lives
// outside the SoC and steers the run: the caller's `side`, which for a
// replica is the compare tap's position and the hooked model's flops. The
// check is Brent's cycle detection over tick boundaries: one snapshot,
// compared with every later state, re-taken whenever the distance to it
// reaches the next power of two. Once the run is in a cycle of period P,
// the first snapshot taken inside it with an interval of at least P ticks
// is matched P ticks later. A cheap compare of the graded core's PCs and
// registers screens each tick before the full one.

#include <algorithm>
#include <optional>
#include <vector>

#include "soc/soc.h"

namespace detstl::fault {

class LivelockDetector {
 public:
  explicit LivelockDetector(unsigned graded_core) : graded_(graded_core) {}

  /// Observe the state at the next tick boundary. `side(out)` appends the
  /// run's state outside the SoC to `out`; it is called only for a snapshot
  /// or a full compare. True when this state repeats the snapshot's with no
  /// counter read in between: the run is periodic from here on.
  template <class Side>
  bool repeats(const soc::Soc& s, Side&& side) {
    // Soc::tick compares the clock with the start delays, so the clock
    // steers the run until every delay has run out.
    if (s.now() < latest_start(s)) return false;
    if (!snap_) {
      take(s, side);
      return false;
    }
    ++dist_;
    if (counter_reads(s) == snap_reads_ &&
        s.core(graded_).same_pcs_and_regs(snap_->core(graded_))) {
      side_.clear();
      side(side_);
      if (side_ == snap_side_ && soc::same_state(s, *snap_)) return true;
    }
    if (dist_ == power_) {
      take(s, side);
      power_ *= 2;
    }
    return false;
  }

 private:
  static u64 latest_start(const soc::Soc& s) {
    const auto& d = s.config().start_delay;
    return *std::max_element(d.begin(), d.end());
  }

  static u64 counter_reads(const soc::Soc& s) {
    u64 n = 0;
    for (unsigned c = 0; c < s.num_cores(); ++c) n += s.core(c).counter_reads();
    return n;
  }

  template <class Side>
  void take(const soc::Soc& s, Side& side) {
    if (snap_)
      *snap_ = s;  // reuses the snapshot's buffers
    else
      snap_.emplace(s);
    snap_side_.clear();
    side(snap_side_);
    snap_reads_ = counter_reads(s);
    dist_ = 0;
  }

  unsigned graded_;
  std::optional<soc::Soc> snap_;
  std::vector<u64> snap_side_;
  std::vector<u64> side_;  // the side state being compared, buffer reused
  u64 snap_reads_ = 0;
  u64 dist_ = 0;  // ticks since the snapshot
  u64 power_ = 1;
};

}  // namespace detstl::fault
