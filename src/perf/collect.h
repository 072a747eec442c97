#pragma once
// Header-only collectors: pull simulation counters out of the SoC and the
// campaign engines into a perf::Registry. Lives in perf/ but deliberately
// header-only — detstl_perf links only detstl_common, so including soc/fault/
// runtime headers here creates no library cycle (the callers already link
// those libraries).
//
// Everything collected here except the explicitly host-tagged series derives
// purely from simulation state, so the kSim determinism contract
// (perf/metrics.h) holds: byte-identical for a fixed seed/config at any
// thread count.

#include <string>

#include "fault/campaign.h"
#include "perf/metrics.h"
#include "perf/sampler.h"
#include "perf/simstats.h"
#include "runtime/campaign.h"
#include "soc/soc.h"

namespace detstl::perf {

inline std::string core_label(unsigned core) {
  return std::string("core=") + static_cast<char>('A' + core);
}

/// Architected CPU counters, L1 cache stats and shared-bus arbitration
/// counters of every active core, plus the global bus totals.
inline void collect_soc(Registry& reg, const soc::Soc& soc) {
  static const char* kPortName[3] = {"ifetch0", "data", "ifetch1"};
  for (unsigned c = 0; c < soc.num_cores(); ++c) {
    if (!soc.is_active(c)) continue;
    const std::string core = core_label(c);
    const cpu::PerfCounters& p = soc.core(c).perf();
    reg.add_counter("cpu.cycles", core, p.cycles);
    reg.add_counter("cpu.instret", core, p.instret);
    reg.add_counter("cpu.decodes", core, p.decodes);
    reg.add_counter("cpu.if_stalls", core, p.if_stalls);
    reg.add_counter("cpu.mem_stalls", core, p.mem_stalls);
    reg.add_counter("cpu.hdcu_stalls", core, p.hdcu_stalls);
    reg.add_counter("cpu.issue_splits", core, p.splits);

    const mem::MemSystem& ms = soc.core(c).memsys();
    const auto cache_stats = [&](const mem::CacheStats& s, const char* level) {
      const std::string labels = core + ",level=" + level;
      reg.add_counter("cache.hits", labels, s.hits);
      reg.add_counter("cache.misses", labels, s.misses);
      reg.add_counter("cache.refills", labels, s.refills);
      reg.add_counter("cache.writebacks", labels, s.writebacks);
    };
    cache_stats(ms.icache().stats(), "l1i");
    cache_stats(ms.dcache().stats(), "l1d");

    for (unsigned port = 0; port < 3; ++port) {
      const mem::BusStats& b = soc.bus().stats(c * 3 + port);
      if (b.submits == 0 && b.grants == 0) continue;
      const std::string labels = core + ",port=" + kPortName[port];
      reg.add_counter("bus.submits", labels, b.submits);
      reg.add_counter("bus.grants", labels, b.grants);
      reg.add_counter("bus.wait_cycles", labels, b.wait_cycles);
      reg.add_counter("bus.occupancy_cycles", labels, b.occupancy_cycles);
    }
  }
  reg.add_counter("bus.transactions", "", soc.bus().transactions());
  reg.add_counter("bus.stall_ticks", "", soc.bus().stall_ticks());
}

/// What both campaign kinds report beside their outcomes: throughput and
/// worker count (host gauges) and checkpoint bookkeeping (host-tagged: shard
/// counts depend on interrupt timing, not on the simulation).
inline void collect_campaign_host(Registry& reg, u64 units, double wall_seconds,
                                  unsigned threads_used,
                                  const fault::CheckpointStats& ckpt,
                                  const std::string& labels) {
  if (wall_seconds > 0)
    reg.set_gauge("campaign.units_per_s", labels,
                  static_cast<double>(units) / wall_seconds);
  reg.set_gauge("campaign.workers", labels, threads_used);
  if (ckpt.enabled) {
    reg.add_counter("ckpt.shards_flushed", labels, ckpt.shards_flushed,
                    MetricSource::kHost);
    reg.add_counter("ckpt.shards_loaded", labels, ckpt.shards_loaded,
                    MetricSource::kHost);
    reg.add_counter("ckpt.records_resumed", labels, ckpt.records_resumed,
                    MetricSource::kHost);
  }
}

/// Fault-campaign outcome counters.
inline void collect_fault_result(Registry& reg, const fault::CampaignResult& r,
                                 const std::string& labels) {
  reg.add_counter("campaign.faults.total", labels, r.total_faults);
  reg.add_counter("campaign.faults.simulated", labels, r.simulated_faults);
  // Equivalence classes among the simulated faults: what phases 1 and 2
  // actually had to simulate.
  reg.add_counter("campaign.faults.classes", labels, r.fault_classes);
  reg.add_counter("campaign.faults.excited", labels, r.excited);
  reg.add_counter("campaign.faults.detected", labels, r.detected);
  reg.add_counter("campaign.faults.detected_signature", labels,
                  r.detected_signature);
  reg.add_counter("campaign.faults.detected_verdict", labels, r.detected_verdict);
  reg.add_counter("campaign.faults.detected_watchdog", labels,
                  r.detected_watchdog);
  reg.add_counter("campaign.good_cycles", labels, r.good_cycles);
  collect_campaign_host(reg, r.simulated_faults, r.wall_seconds, r.threads_used,
                        r.ckpt, labels);
}

/// Disturbance-campaign recovery counters: retries, degradations, recovery
/// ladder outcomes, per-run cycle histogram — all simulation-derived.
inline void collect_disturbance_result(Registry& reg,
                                       const runtime::CampaignResult& r,
                                       const std::string& labels) {
  u64 sim_cycles = 0, retries = 0, fallback_retries = 0, degraded = 0,
      recovered = 0, quarantined_runs = 0, budget_exhausted = 0;
  // Buckets in cycles: per-run totals of the small campaigns sit in the
  // hundreds of thousands; the open bucket catches pathological runs.
  static const std::vector<u64> kRunCycleBounds = {
      100'000, 300'000, 1'000'000, 3'000'000, 10'000'000};
  for (const runtime::RunRecord& rec : r.records) {
    sim_cycles += rec.result.total_cycles;
    reg.record_hist("campaign.run_cycles", labels, kRunCycleBounds,
                    rec.result.total_cycles);
    budget_exhausted += rec.result.budget_exhausted ? 1 : 0;
    for (const runtime::CoreReport& cr : rec.result.cores) {
      quarantined_runs += cr.quarantined ? 1 : 0;
      for (const runtime::RoutineRecord& rr : cr.records) {
        if (rr.cached_attempts > 1) retries += rr.cached_attempts - 1;
        fallback_retries += rr.fallback_attempts;
        if (rr.outcome == runtime::RecoveryOutcome::kPassDegraded) ++degraded;
        if (rr.outcome == runtime::RecoveryOutcome::kPassRecovered) ++recovered;
      }
    }
  }
  reg.add_counter("campaign.runs", labels, r.runs);
  reg.add_counter("campaign.sim_cycles", labels, sim_cycles);
  reg.add_counter("campaign.retries", labels, retries);
  reg.add_counter("campaign.fallback_attempts", labels, fallback_retries);
  reg.add_counter("campaign.recovered", labels, recovered);
  reg.add_counter("campaign.degraded", labels, degraded);
  reg.add_counter("campaign.quarantined_runs", labels, quarantined_runs);
  reg.add_counter("campaign.budget_exhausted", labels, budget_exhausted);
  collect_campaign_host(reg, r.runs, r.wall_seconds, r.threads_used, r.ckpt,
                        labels);
}

/// Total simulated work accumulated by the engines (perf/simstats.h),
/// usually a delta bracketing one bench or phase.
inline void collect_sim_totals(Registry& reg, const SimSnapshot& totals) {
  for (unsigned i = 0; i < kNumSimStats; ++i) {
    if (totals.v[i] == 0) continue;
    reg.add_counter(std::string("sim.") + sim_stat_name(static_cast<SimStat>(i)),
                    "", totals.v[i]);
  }
}

/// Host resource usage (always kHost).
inline void collect_host_usage(Registry& reg, const HostUsage& u) {
  reg.set_gauge("host.wall_s", "", u.wall_s);
  reg.set_gauge("host.cpu_s", "", u.cpu_s);
  reg.set_gauge("host.peak_rss_kb", "", static_cast<double>(u.peak_rss_kb));
}

}  // namespace detstl::perf
