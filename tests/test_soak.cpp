// SEU soak + mission-mode tests: the rate-based upset plan is a pure function
// of (spec, seed); soak campaigns are byte-identical across worker-thread
// counts and across kill/resume; the differential bisection names a minimal
// culprit (re-simulating one upset fewer is clean, the named prefix
// diverges) and decides every probe exactly as a from-scratch bisection
// does; and mission mode keeps the STL signature golden with every measured
// per-access bus wait inside the stlint-predicted d_max.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "perf/simstats.h"
#include "runtime/mission.h"
#include "runtime/soak.h"

namespace fs = std::filesystem;

namespace detstl::runtime {
namespace {

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("detstl-soak-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::unique_ptr<core::SelfTestRoutine>> g_keep;

std::vector<const core::SelfTestRoutine*> routines(
    std::initializer_list<const char*> names) {
  std::vector<const core::SelfTestRoutine*> out;
  for (const char* n : names) {
    const core::RoutineEntry* e = core::find_routine(n);
    EXPECT_NE(e, nullptr) << n;
    g_keep.push_back(e->make());
    out.push_back(g_keep.back().get());
  }
  return out;
}

/// Small two-core spec that still injects a useful number of upsets.
SoakCampaignSpec small_spec() {
  SoakCampaignSpec spec;
  spec.seed = 0x50AF0001;
  spec.runs = 4;
  spec.threads = 1;
  spec.cores = 2;
  spec.routines = {"alu", "shifter"};
  return spec;
}

/// The elevated-rate spec that forces divergences on two cores.
SoakCampaignSpec elevated_spec(unsigned runs) {
  SoakCampaignSpec spec = small_spec();
  spec.seed = 0x50AF0BAD;
  spec.runs = runs;
  spec.soak.rates = {200, 400, 300, 120};
  return spec;
}

// --- The from-scratch bisection, kept as the oracle --------------------------
//
// Every probe re-simulated from reset to the end of the schedule, the clean
// probe once per diverged run, and the culprit's landing site read from the
// last failing probe's own applied log.

/// One supervised run under the first `limit` upsets of `plan`, from reset
/// to the end of the schedule.
struct PrefixRun {
  SupervisorResult result;
  SoakStats stats;
  std::vector<AppliedUpset> log;
  u64 first_failure = 0;  // StlSupervisor::first_failure
};

PrefixRun run_prefix(const SchedulePlan& sp, const SupervisorConfig& cfg,
                     const SoakPlan& plan, std::size_t limit) {
  SoakInjector inj(plan, limit);
  StlSupervisor sup(sp.soc, sp.schedule, cfg);
  PrefixRun r;
  r.result = sup.run(&inj);
  r.stats = inj.stats();
  r.log = inj.applied_log();
  r.first_failure = sup.first_failure();
  return r;
}

/// A bisection probe as the from-scratch bisection ran it.
struct OracleProbe {
  std::size_t limit = 0;  // upsets replayed
  u64 first_failure = 0;
  u64 total_cycles = 0;
  bool diverged = false;
};

/// One soak run as the from-scratch bisection records it; `probes` gets the
/// bisection probes in order (the clean probe excluded).
SoakRunRecord oracle_record(const SchedulePlan& sp, const SoakCampaignSpec& spec,
                            const SoakPlan& plan, u64 run_seed,
                            std::vector<OracleProbe>& probes) {
  SoakRunRecord rec;
  rec.seed = run_seed;
  PrefixRun first = run_prefix(sp, spec.supervisor, plan, plan.upsets.size());
  rec.result = first.result;
  rec.stats = first.stats;

  IsolationResult& iso = rec.isolation;
  iso.diverged = soak_run_diverged(rec.result) ? 1 : 0;
  if (iso.diverged == 0 || !spec.isolate || plan.upsets.empty()) return rec;

  std::size_t lo = 0, hi = plan.upsets.size();
  u32 reruns = 1;
  std::vector<AppliedUpset> culprit_log = std::move(first.log);
  if (soak_run_diverged(run_prefix(sp, spec.supervisor, plan, 0).result)) {
    iso.reruns = reruns;
    return rec;
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    PrefixRun probe = run_prefix(sp, spec.supervisor, plan, mid);
    const bool diverged = soak_run_diverged(probe.result);
    probes.push_back({mid, probe.first_failure, probe.result.total_cycles, diverged});
    ++reruns;
    if (diverged) {
      hi = mid;
      culprit_log = std::move(probe.log);
    } else {
      lo = mid;
    }
  }
  const u32 culprit = static_cast<u32>(hi - 1);
  const SoakUpset& u = plan.upsets[culprit];
  iso.isolated = 1;
  iso.upset_index = culprit;
  iso.site = u.site;
  iso.core = u.core;
  iso.cycle = u.cycle;
  iso.reruns = reruns;
  for (const AppliedUpset& a : culprit_log) {
    if (a.index != culprit) continue;
    iso.core = a.core;
    iso.addr = a.addr;
    iso.bit = a.bit;
    break;
  }
  return rec;
}

/// How often the campaign's bisection takes each of its exact shortcuts
/// (runtime/soak.cpp), classified from the plan and the first pass alone.
struct ProbePaths {
  unsigned after_failure = 0;  // cut-off upset arrives after the first failure
  unsigned resumed = 0;        // simulated from the first pass's snapshot
  unsigned from_reset = 0;     // simulated from reset
  unsigned early_exit = 0;     // simulated, stopped at a failed attempt
};

void classify_probes(const SchedulePlan& sp, const SoakCampaignSpec& spec,
                     const SoakPlan& plan, const std::vector<OracleProbe>& probes,
                     ProbePaths& paths) {
  const std::vector<SoakUpset>& ups = plan.upsets;
  const std::size_t p1 = ups.size() / 2;
  SoakInjector inj(plan);
  StlSupervisor sup(sp.soc, sp.schedule, spec.supervisor);
  sup.start();
  bool snapshot = false;  // a failure-free first pass reached upset p1's poll
  do {
    if (ups.size() >= 2 && sup.first_failure() == 0 && sup.now() + 1 >= ups[p1].cycle)
      snapshot = true;
  } while (sup.step(&inj));
  const u64 failure = sup.first_failure();
  for (const OracleProbe& p : probes) {
    if (failure != 0 && ups[p.limit].cycle > failure) {
      EXPECT_TRUE(p.diverged) << "a probe that replays the first failure diverges";
      ++paths.after_failure;
      continue;
    }
    if (snapshot && p.limit >= p1)
      ++paths.resumed;
    else
      ++paths.from_reset;
    if (p.first_failure != 0 && p.first_failure < p.total_cycles) ++paths.early_exit;
  }
}

TEST(SoakPlan, DeterministicAndSeedSensitive) {
  SoakSpec spec;
  spec.duration = 50'000;
  const SoakPlan a = make_soak_plan(spec, 0x1234, 3);
  const SoakPlan b = make_soak_plan(spec, 0x1234, 3);
  const SoakPlan c = make_soak_plan(spec, 0x1235, 3);
  ASSERT_EQ(a.upsets.size(), b.upsets.size());
  for (std::size_t i = 0; i < a.upsets.size(); ++i) {
    EXPECT_EQ(a.upsets[i].site, b.upsets[i].site);
    EXPECT_EQ(a.upsets[i].core, b.upsets[i].core);
    EXPECT_EQ(a.upsets[i].cycle, b.upsets[i].cycle);
    EXPECT_EQ(a.upsets[i].pick, b.upsets[i].pick);
  }
  // ~0.000135 upsets/cycle over 50k cycles: arrivals are all but certain.
  EXPECT_GT(a.upsets.size(), 0u);
  for (std::size_t i = 1; i < a.upsets.size(); ++i)
    EXPECT_LE(a.upsets[i - 1].cycle, a.upsets[i].cycle);
  bool differs = a.upsets.size() != c.upsets.size();
  for (std::size_t i = 0; !differs && i < a.upsets.size(); ++i)
    differs = a.upsets[i].cycle != c.upsets[i].cycle ||
              a.upsets[i].pick != c.upsets[i].pick;
  EXPECT_TRUE(differs);
}

TEST(SoakPlan, RatesScaleArrivalsPerSite) {
  SoakSpec spec;
  spec.duration = 200'000;
  spec.rates = {0, 0, 0, 0};
  EXPECT_TRUE(make_soak_plan(spec, 0x77, 3).upsets.empty());
  spec.rates = {500, 0, 0, 0};
  const SoakPlan ram_only = make_soak_plan(spec, 0x77, 3);
  EXPECT_GT(ram_only.upsets.size(), 50u);  // E = 100
  for (const SoakUpset& u : ram_only.upsets) EXPECT_EQ(u.site, SoakSite::kRam);
}

TEST(SoakInjector, HookStatsStayOutOfDisturbanceStats) {
  const SchedulePlan plan = plan_schedule(routines({"alu"}), 2);
  SoakSpec sspec;
  sspec.duration = 20'000;
  sspec.rates = {400, 200, 200, 100};
  const SoakPlan splan = make_soak_plan(sspec, 0xBEE5, 2);
  ASSERT_FALSE(splan.upsets.empty());
  SoakInjector inj(splan);
  StlSupervisor sup(plan.soc, plan.schedule, SupervisorConfig{});
  const SupervisorResult r = sup.run(&inj);
  EXPECT_GT(inj.stats().total_applied() +
                inj.stats().skipped[0] + inj.stats().skipped[1] +
                inj.stats().skipped[2] + inj.stats().skipped[3],
            0u);
  for (unsigned k = 0; k < kNumDisturbanceKinds; ++k) {
    EXPECT_EQ(r.injections.applied[k], 0u);
    EXPECT_EQ(r.injections.skipped[k], 0u);
  }
  // Every applied upset resolved a concrete landing site and plan index.
  for (const AppliedUpset& a : inj.applied_log())
    EXPECT_LT(a.index, splan.upsets.size());
}

TEST(SoakCampaign, ByteIdenticalAcrossThreadCounts) {
  SoakCampaignSpec spec = small_spec();
  const SoakCampaignResult ref = run_soak_campaign(spec);
  for (unsigned t : {2u, 8u}) {
    SoakCampaignSpec s = spec;
    s.threads = t;
    const SoakCampaignResult res = run_soak_campaign(s);
    EXPECT_EQ(res.outcome_vector(), ref.outcome_vector()) << "threads=" << t;
    EXPECT_EQ(render_soak_report(res), render_soak_report(ref)) << "threads=" << t;
  }
}

TEST(SoakCampaign, KillAndResumeIsByteIdentical) {
  SoakCampaignSpec spec = small_spec();
  spec.threads = 2;
  const SoakCampaignResult straight = run_soak_campaign(spec);

  const fs::path dir = scratch_dir("kill-resume");
  SoakCampaignSpec killed = spec;
  killed.checkpoint.dir = dir.string();
  killed.checkpoint.interval = 1;
  killed.checkpoint.fsync = fault::FsyncPolicy::kNone;
  fault::InterruptToken token;
  token.arm_after(2);
  killed.interrupt = &token;
  const SoakCampaignResult partial = run_soak_campaign(killed);
  EXPECT_TRUE(partial.ckpt.interrupted);

  SoakCampaignSpec resumed = spec;
  resumed.checkpoint.dir = dir.string();
  resumed.checkpoint.fsync = fault::FsyncPolicy::kNone;
  resumed.checkpoint.resume = true;
  const SoakCampaignResult full = run_soak_campaign(resumed);
  EXPECT_FALSE(full.ckpt.interrupted);
  EXPECT_GT(full.ckpt.records_resumed, 0u);
  EXPECT_EQ(full.outcome_vector(), straight.outcome_vector());
  EXPECT_EQ(render_soak_report(full), render_soak_report(straight));
}

TEST(SoakCampaign, ShardRangesMergeToTheStraightResult) {
  SoakCampaignSpec spec = small_spec();
  const SoakCampaignResult straight = run_soak_campaign(spec);

  const fs::path lo_dir = scratch_dir("shard-lo");
  const fs::path hi_dir = scratch_dir("shard-hi");
  for (const auto& [dir, lo, hi] :
       {std::tuple{lo_dir, u64{0}, u64{2}}, std::tuple{hi_dir, u64{2}, u64{4}}}) {
    SoakCampaignSpec shard = spec;
    shard.checkpoint.dir = dir.string();
    shard.checkpoint.interval = 1;
    shard.checkpoint.fsync = fault::FsyncPolicy::kNone;
    shard.unit_begin = lo;
    shard.unit_end = hi;
    run_soak_campaign(shard);
  }
  SoakCampaignSpec merge = spec;
  merge.merge_dirs = {lo_dir.string(), hi_dir.string()};
  const SoakCampaignResult merged = run_soak_campaign(merge);
  EXPECT_EQ(merged.ckpt.records_resumed, 4u);
  EXPECT_EQ(merged.outcome_vector(), straight.outcome_vector());
}

// A journal write failing on a worker thread must surface as an exception
// from the campaign, never as std::terminate, at any thread count. A
// directory squatting on the first shard's temp name makes that write fail
// whichever worker reaches it.
TEST(SoakCampaign, JournalWriteFailureThrowsAtAnyThreadCount) {
  for (const unsigned threads : {1u, 2u}) {
    const fs::path dir = scratch_dir("write-failure");
    fs::create_directory(dir / "shard-000000.ckpt.tmp");
    SoakCampaignSpec spec = small_spec();
    spec.threads = threads;
    spec.checkpoint.dir = dir.string();
    spec.checkpoint.interval = 1;
    spec.checkpoint.fsync = fault::FsyncPolicy::kNone;
    EXPECT_THROW(run_soak_campaign(spec), std::runtime_error) << "threads=" << threads;
  }
}

TEST(SoakCampaign, BisectionNamesAMinimalCulprit) {
  // Elevated rates force divergences; every diverged run must be isolated,
  // and the verdict must be *minimal*: replaying the plan truncated to the
  // culprit diverges, truncated one earlier is clean.
  const SoakCampaignSpec spec = elevated_spec(3);

  const SoakCampaignResult res = run_soak_campaign(spec);
  const SchedulePlan plan = plan_schedule(routines({"alu", "shifter"}), spec.cores);

  unsigned diverged = 0;
  for (const SoakRunRecord& rec : res.records) {
    if (rec.isolation.diverged == 0) continue;
    ++diverged;
    ASSERT_EQ(rec.isolation.isolated, 1u);
    EXPECT_GE(rec.isolation.reruns, 1u);

    SoakSpec sspec = spec.soak;
    sspec.duration = calibrated_horizon(plan, spec.cores);  // as the campaign did
    const SoakPlan splan = make_soak_plan(sspec, rec.seed, spec.cores);
    const u32 culprit = rec.isolation.upset_index;
    ASSERT_LT(culprit, splan.upsets.size());
    EXPECT_EQ(splan.upsets[culprit].site, rec.isolation.site);
    EXPECT_EQ(splan.upsets[culprit].cycle, rec.isolation.cycle);

    const auto replay = [&](std::size_t limit) {
      SoakInjector inj(splan, limit);
      StlSupervisor sup(plan.soc, plan.schedule, spec.supervisor);
      return soak_run_diverged(sup.run(&inj));
    };
    EXPECT_TRUE(replay(culprit + 1)) << "culprit prefix must diverge";
    EXPECT_FALSE(replay(culprit)) << "prefix without the culprit must be clean";
  }
  EXPECT_GT(diverged, 0u) << "rates chosen to force at least one divergence";
}

TEST(SoakCampaign, IsolationMatchesFromScratchBisection) {
  // Every record, isolation verdict and logical rerun count included, must
  // equal what the from-scratch bisection records, while the campaign takes
  // each of its shortcuts at least once. The last spec's budget ends every
  // run early, so the clean baseline itself diverges and no upset is blamed.
  SoakCampaignSpec three_core;
  three_core.runs = 48;
  three_core.cores = 3;
  std::vector<SoakCampaignSpec> specs = {elevated_spec(16)};
  for (const u64 seed : {u64{0x5EA5BEAC}, u64{0x5EA5BEAD}}) {
    three_core.seed = seed;
    specs.push_back(three_core);
  }
  SoakCampaignSpec unstable = elevated_spec(4);
  unstable.supervisor.global_budget = 2'000;
  specs.push_back(unstable);

  ProbePaths paths;
  unsigned diverged = 0, unattributed = 0;
  for (SoakCampaignSpec& spec : specs) {
    spec.threads = 4;
    const SoakCampaignResult res = run_soak_campaign(spec);
    ASSERT_EQ(res.records.size(), spec.runs);
    const ResolvedRoutines rs = resolve_routines(spec.routines, "soak");
    const SchedulePlan plan = plan_schedule(rs.ptrs, spec.cores);
    SoakSpec sspec = spec.soak;
    sspec.duration = calibrated_horizon(plan, spec.cores);
    for (unsigned i = 0; i < spec.runs; ++i) {
      const u64 seed = derive_run_seed(spec.seed, i);
      const SoakPlan splan = make_soak_plan(sspec, seed, spec.cores);
      std::vector<OracleProbe> probes;
      const SoakRunRecord ref = oracle_record(plan, spec, splan, seed, probes);
      EXPECT_EQ(serialize_soak_record(res.records[i]), serialize_soak_record(ref))
          << "seed " << std::hex << spec.seed << std::dec << " run " << i;
      diverged += ref.isolation.diverged;
      unattributed += ref.isolation.diverged != 0 && ref.isolation.isolated == 0;
      if (ref.isolation.isolated != 0) classify_probes(plan, spec, splan, probes, paths);
    }
  }
  EXPECT_GE(diverged, 10u);
  EXPECT_GT(unattributed, 0u);
  EXPECT_GT(paths.after_failure, 0u);
  EXPECT_GT(paths.resumed, 0u);
  EXPECT_GT(paths.from_reset, 0u);
  EXPECT_GT(paths.early_exit, 0u);
}

TEST(SoakCampaign, SimTotalsMatchAcrossThreadCounts) {
  // The shared clean baseline is simulated once per campaign, whichever
  // worker gets to it, and every probe counts the ticks it simulates.
  using perf::SimStat;
  SoakCampaignSpec spec = elevated_spec(8);
  std::vector<perf::SimSnapshot> deltas;
  std::vector<u8> first;
  for (const unsigned threads : {1u, 2u, 8u}) {
    spec.threads = threads;
    const perf::SimSnapshot before = perf::sim_totals().snapshot();
    const SoakCampaignResult res = run_soak_campaign(spec);
    deltas.push_back(perf::sim_totals().snapshot().since(before));
    if (first.empty()) first = res.outcome_vector();
    EXPECT_EQ(res.outcome_vector(), first) << "threads=" << threads;
    unsigned diverged = 0;
    for (const SoakRunRecord& rec : res.records) diverged += rec.isolation.diverged;
    EXPECT_GE(diverged, 2u);
  }
  for (std::size_t t = 1; t < deltas.size(); ++t) {
    EXPECT_EQ(deltas[t][SimStat::kDisturbRuns], deltas[0][SimStat::kDisturbRuns]);
    EXPECT_EQ(deltas[t][SimStat::kDisturbCycles], deltas[0][SimStat::kDisturbCycles]);
  }
  EXPECT_EQ(deltas[0][SimStat::kDisturbRuns], spec.runs);
  EXPECT_GT(deltas[0][SimStat::kDisturbCycles], 0u);
}

TEST(SoakRecord, SerializationRoundTripsAndRejectsGarbage) {
  SoakCampaignSpec spec = small_spec();
  spec.runs = 1;
  const SoakCampaignResult res = run_soak_campaign(spec);
  ASSERT_EQ(res.records.size(), 1u);
  const SoakRunRecord& rec = res.records[0];

  const std::vector<u8> bytes = serialize_soak_record(rec);
  SoakRunRecord back;
  ASSERT_TRUE(deserialize_soak_record(bytes, back));
  EXPECT_EQ(serialize_soak_record(back), bytes);
  EXPECT_EQ(back.seed, rec.seed);
  EXPECT_EQ(back.isolation.diverged, rec.isolation.diverged);
  EXPECT_EQ(back.isolation.upset_index, rec.isolation.upset_index);
  for (unsigned s = 0; s < kNumSoakSites; ++s)
    EXPECT_EQ(back.stats.applied[s], rec.stats.applied[s]);

  std::vector<u8> truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_FALSE(deserialize_soak_record(truncated, back));
  std::vector<u8> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(deserialize_soak_record(padded, back));
  EXPECT_FALSE(deserialize_soak_record({}, back));
}

TEST(SoakCampaign, ConfigHashCoversSoakKnobsButNotThreads) {
  SoakCampaignSpec spec = small_spec();
  const SchedulePlan plan = plan_schedule(routines({"alu", "shifter"}), spec.cores);
  const u64 base = soak_checkpoint_config_hash(spec, plan);

  SoakCampaignSpec t = spec;
  t.threads = 7;
  t.unit_begin = 1;
  t.unit_end = 3;
  EXPECT_EQ(soak_checkpoint_config_hash(t, plan), base);

  SoakCampaignSpec r = spec;
  r.soak.rates.l1i += 1;
  EXPECT_NE(soak_checkpoint_config_hash(r, plan), base);
  SoakCampaignSpec iso = spec;
  iso.isolate = false;
  EXPECT_NE(soak_checkpoint_config_hash(iso, plan), base);
}

TEST(Mission, DeterministicGoldenSignaturesWithinBound) {
  MissionSpec spec;
  spec.seed = 0xA1151234;
  spec.slices = 6;
  spec.cores = 3;
  spec.routines = {"alu", "branch"};
  const MissionResult a = run_mission(spec);
  const MissionResult b = run_mission(spec);
  EXPECT_EQ(a.outcome_vector(), b.outcome_vector());
  EXPECT_EQ(a.digest(), b.digest());

  // The paper's two in-field claims, on simulated traffic.
  EXPECT_EQ(a.divergences(), 0u);
  EXPECT_EQ(a.bound_violations(), 0u);
  EXPECT_LE(a.worst_wait(), a.bound.d_max);
  EXPECT_GT(a.worst_wait(), 0u);  // the mission fleet really contended
  ASSERT_EQ(a.records.size(), 6u);
  for (const MissionSliceRecord& rec : a.records) {
    EXPECT_EQ(rec.sig_ok, 1u);
    EXPECT_EQ(rec.timed_out, 0u);
    EXPECT_GT(rec.mission_grants, 0u);
  }

  MissionSpec other = spec;
  other.seed = 0xA1151235;
  EXPECT_NE(run_mission(other).digest(), a.digest());
}

}  // namespace
}  // namespace detstl::runtime
