#include "perf/simstats.h"

namespace detstl::perf {

const char* sim_stat_name(SimStat s) {
  switch (s) {
    case SimStat::kGoodRunCycles: return "good_run_cycles";
    case SimStat::kScreenCalls: return "screen_calls";
    case SimStat::kDetectionCycles: return "detection_cycles";
    case SimStat::kFaultUnits: return "fault_units";
    case SimStat::kDetectionModuleCalls: return "detection_module_calls";
    case SimStat::kDetectionModuleEvals: return "detection_module_evals";
    case SimStat::kLivelockExits: return "livelock_exits";
    case SimStat::kLivelockSkippedCycles: return "livelock_skipped_cycles";
    case SimStat::kDisturbRuns: return "disturb_runs";
    case SimStat::kDisturbCycles: return "disturb_cycles";
    case SimStat::kSocRunCycles: return "soc_run_cycles";
    case SimStat::kCount: break;
  }
  return "?";
}

SimSnapshot SimSnapshot::since(const SimSnapshot& earlier) const {
  SimSnapshot d;
  for (unsigned i = 0; i < kNumSimStats; ++i) d.v[i] = v[i] - earlier.v[i];
  return d;
}

u64 SimSnapshot::sim_cycles() const {
  return (*this)[SimStat::kGoodRunCycles] + (*this)[SimStat::kDetectionCycles] +
         (*this)[SimStat::kDisturbCycles] + (*this)[SimStat::kSocRunCycles];
}

u64 SimSnapshot::units() const {
  return (*this)[SimStat::kFaultUnits] + (*this)[SimStat::kDisturbRuns];
}

SimSnapshot SimTotals::snapshot() const {
  SimSnapshot s;
  for (unsigned i = 0; i < kNumSimStats; ++i)
    s.v[i] = v_[i].load(std::memory_order_relaxed);
  return s;
}

void SimTotals::reset() {
  for (auto& a : v_) a.store(0, std::memory_order_relaxed);
}

SimTotals& sim_totals() {
  static SimTotals totals;
  return totals;
}

}  // namespace detstl::perf
