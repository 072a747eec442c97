#pragma once
// Rate-based SEU soak model + differential fault isolation.
//
// Where the DisturbanceInjector replays a fixed *count* of perturbations,
// the soak model draws Poisson-style upset arrivals at configurable
// per-site rates over a long observation window — the in-field radiation
// regime (SNIPPETS.md snippet 1: memory vs. cache vs. pipeline isolation on
// a commodity SoC). Everything is a deterministic function of (spec, seed):
// the plan is compact (site, core, cycle, pick) and replayable, so a soak
// campaign rides the same sharded + checkpointed executor as the
// disturbance campaign (fault/unit_driver.h) and stays byte-identical at
// any thread count.
//
// Differential isolation: when a supervised run under the full upset plan
// diverges from a clean pass (any routine slot not kPassClean, a
// quarantined core, or an exhausted budget), the plan is bisected by prefix
// length until the minimal failing prefix is found; its last upset is the
// responsible one, reported with its resolved landing site (address + bit)
// from the first pass's applied log. A probe cut at upset p is the first
// pass, tick for tick, until upset p is polled, so probes are decided from
// the first pass wherever that is exact: one zero-upset baseline per
// campaign, probes that stop at their first failed attempt, probes whose
// cut-off upset arrives after the first pass's first failure answered
// without simulation, and probes from the bisection's first cut on resumed
// from one in-run snapshot (docs/runtime.md, "Differential isolation").
//
// The soak is the second kind of the supervised-run campaign
// (runtime/campaign.h): it shares the spec base, result type, driver body
// and report frame with the disturbance campaign and supplies its own
// payload kind, config hash, per-run function (upset plan, supervised run,
// bisection), record codec and report body.

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/campaign.h"
#include "runtime/disturb.h"
#include "runtime/supervisor.h"

namespace detstl::runtime {

/// Where an upset lands. RAM flips hit the SRAM array underneath any cached
/// copies; L1 flips hit a resident line of the targeted core's private
/// cache; pipeline flips hit a valid EX/MEM/WB result latch.
enum class SoakSite : u8 {
  kRam = 0,
  kL1I = 1,
  kL1D = 2,
  kPipeline = 3,
};

inline constexpr unsigned kNumSoakSites = 4;

const char* soak_site_name(SoakSite s);

/// Expected upsets per million cycles, per site (flux knobs).
struct SoakRates {
  u32 ram = 60;
  u32 l1i = 30;
  u32 l1d = 30;
  u32 pipeline = 15;
};

struct SoakSpec {
  /// Arrival horizon in SoC cycles; 0 = derived from the schedule
  /// calibration (twice the slowest core's fault-free time + slack), so
  /// upsets land across the whole run including retries.
  u64 duration = 0;
  SoakRates rates;
};

/// One planned upset. `pick` is raw seed material resolved against the
/// simulation state at application time (which SRAM word / resident line /
/// pipeline latch, which bit).
struct SoakUpset {
  SoakSite site = SoakSite::kRam;
  u8 core = 0;
  u64 cycle = 0;
  u64 pick = 0;
};

struct SoakPlan {
  std::vector<SoakUpset> upsets;  // sorted by cycle
};

/// Derive a plan from (spec, seed): per-site Bernoulli-per-cycle arrival
/// scan (the discrete Poisson process), merged and sorted by cycle. Same
/// inputs, same plan, bit for bit, on any host.
SoakPlan make_soak_plan(const SoakSpec& spec, u64 seed, unsigned num_cores);

struct SoakStats {
  std::array<u64, kNumSoakSites> applied{};
  std::array<u64, kNumSoakSites> skipped{};  // dead core / empty cache / idle pipeline
  u64 total_applied() const {
    u64 n = 0;
    for (u64 v : applied) n += v;
    return n;
  }
};

/// An upset that actually landed, with its resolved target (the isolation
/// report names this).
struct AppliedUpset {
  u32 index = 0;  // position in the plan
  SoakSite site = SoakSite::kRam;
  u8 core = 0;
  u64 cycle = 0;
  u32 addr = 0;  // resolved SRAM word / cache line base; 0 for pipeline
  u32 bit = 0;
};

/// Replays the first `limit` upsets of a SoakPlan against a running SoC
/// (limit past the end = the whole plan — prefix truncation is the
/// differential-isolation probe). Poll once per SoC tick, same contract as
/// DisturbanceInjector. The plan is borrowed; the caller keeps it alive.
class SoakInjector : public InjectorHook {
 public:
  explicit SoakInjector(const SoakPlan& plan, std::size_t limit = SIZE_MAX);

  void poll(soc::Soc& soc, const InjectTargets& targets) override;

  /// Replay only the first `k` upsets from here on; the cursor must not
  /// have passed `k`. A copy of a running injector cut this way replays
  /// exactly what a fresh SoakInjector(plan, k) would.
  void limit_to(std::size_t k);

  const SoakStats& stats() const { return stats_; }
  const std::vector<AppliedUpset>& applied_log() const { return applied_; }

 private:
  void apply(const SoakUpset& u, u32 index, soc::Soc& soc, const InjectTargets& targets);

  const SoakPlan* plan_;
  std::size_t limit_;
  std::size_t next_ = 0;
  SoakStats stats_;
  std::vector<AppliedUpset> applied_;
};

/// Differential-isolation verdict for one soak run.
struct IsolationResult {
  u8 diverged = 0;  // run differed from a clean pass
  u8 isolated = 0;  // bisection converged on a single culprit
  u32 upset_index = 0;
  SoakSite site = SoakSite::kRam;
  u8 core = 0;
  u64 cycle = 0;  // planned arrival tick of the culprit
  u32 addr = 0;   // resolved landing address (0 when masked/pipeline)
  u32 bit = 0;
  u32 reruns = 0;  // logical probes; some are decided without simulation
};

struct SoakRunRecord : RunRecord {
  SoakStats stats;
  IsolationResult isolation;

  /// RunRecord's slice of the outcome vector, then the per-site upset stats
  /// and the isolation verdict.
  void put_outcome(std::vector<u8>& out) const;
};

/// True when `r` differs from a clean undisturbed pass: any routine slot
/// not kPassClean, a quarantined core, or an exhausted budget.
bool soak_run_diverged(const SupervisorResult& r);

struct SoakCampaignSpec : RunCampaignSpec {
  SoakCampaignSpec() : RunCampaignSpec(0x5EA50001, 8) {}
  SoakSpec soak{};
  /// Run differential bisection on every diverged run (about log2(n)
  /// logical probes per divergence, each simulated at most up to its first
  /// failed attempt, some not at all). Part of the config hash.
  bool isolate = true;
};

using SoakCampaignResult = RunCampaignResult<SoakRunRecord>;

/// Loss-less shard payload of a soak-campaign checkpoint (framed
/// serialize_run_record + soak stats + isolation verdict).
std::vector<u8> serialize_soak_record(const SoakRunRecord& rec);
bool deserialize_soak_record(const std::vector<u8>& bytes, SoakRunRecord& out);

/// Manifest identity of a soak checkpoint: seed, runs, cores, resolved
/// schedule, supervisor config, soak spec (as given; run_soak_campaign
/// passes the calibrated duration), isolate flag and the SoC image
/// fingerprint. EXCLUDES threads, shard range, checkpoint and interrupt —
/// the partitioned-campaign property stlserve relies on.
u64 soak_checkpoint_config_hash(const SoakCampaignSpec& spec, const SchedulePlan& plan);

SoakCampaignResult run_soak_campaign(const SoakCampaignSpec& spec);

/// Deterministic report (no wall-clock, no thread count): per-site upset
/// totals, per-run divergence/isolation table, outcome digest.
std::string render_soak_report(const SoakCampaignResult& r);

}  // namespace detstl::runtime
