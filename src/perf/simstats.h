#pragma once
// Process-global simulated-work totals: how many SoC cycles and campaign
// units this process has simulated, fed by the fault and runtime campaign
// engines and read by the benches to compute sim-MHz per phase.
//
// Accumulation is relaxed atomic addition — commutative, so the totals are
// byte-identical for a fixed workload at ANY thread count (sums don't care
// about scheduling order). They are NOT invariant under --resume: a resumed
// campaign skips re-simulating journalled units, which is exactly the point
// of resuming. Tools that compare sim totals must compare straight runs.

#include <array>
#include <atomic>

#include "common/bitutil.h"

namespace detstl::perf {

enum class SimStat : unsigned {
  // fault campaign: good-run SoC ticks, the traced run and the silent
  // re-run that places phase 2's evenly spaced checkpoints
  kGoodRunCycles,
  kScreenCalls,      // fault campaign: module calls replayed in the 64-lane screen
  kDetectionCycles,  // fault campaign: SoC ticks across every detection re-run
  kFaultUnits,       // fault campaign: fault units completed this process
  // fault campaign: eval/clock calls on the detection replicas' module
  // models, and the Netlist::eval passes they took (the rest hit the memo)
  kDetectionModuleCalls,
  kDetectionModuleEvals,
  // fault campaign: detection replicas ended by the livelock exit
  // (fault/livelock.h), and the watchdog ticks they did not simulate
  kLivelockExits,
  kLivelockSkippedCycles,
  kDisturbRuns,      // supervised-run campaigns (disturbance, soak): runs completed
  // supervised-run campaigns: SoC ticks actually simulated, every run's
  // first pass plus the soak isolation probes that were simulated (from
  // reset or from a snapshot, up to their first failed attempt)
  kDisturbCycles,
  kSocRunCycles,     // direct soc::Soc runs outside a campaign (benches, tools)
  kCount,
};

inline constexpr unsigned kNumSimStats = static_cast<unsigned>(SimStat::kCount);

/// Stable snake_case name, used as the JSON key.
const char* sim_stat_name(SimStat s);

struct SimSnapshot {
  std::array<u64, kNumSimStats> v{};

  u64 operator[](SimStat s) const { return v[static_cast<unsigned>(s)]; }
  /// Element-wise this - earlier (callers bracket a phase with snapshots).
  SimSnapshot since(const SimSnapshot& earlier) const;
  /// Total simulated SoC cycles (every *Cycles stat).
  u64 sim_cycles() const;
  /// Total campaign work units (faults + supervised runs).
  u64 units() const;
};

class SimTotals {
 public:
  void add(SimStat s, u64 n) {
    v_[static_cast<unsigned>(s)].fetch_add(n, std::memory_order_relaxed);
  }
  SimSnapshot snapshot() const;
  void reset();

 private:
  std::array<std::atomic<u64>, kNumSimStats> v_{};
};

/// The process-wide instance the campaign engines feed.
SimTotals& sim_totals();

}  // namespace detstl::perf
