// SEU soak + mission-mode tests: the rate-based upset plan is a pure function
// of (spec, seed); soak campaigns are byte-identical across worker-thread
// counts and across kill/resume; the differential bisection names a minimal
// culprit (re-simulating one upset fewer is clean, the named prefix
// diverges); and mission mode keeps the STL signature golden with every
// measured per-access bus wait inside the stlint-predicted d_max.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

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
  SoakCampaignSpec spec = small_spec();
  spec.seed = 0x50AF0BAD;
  spec.runs = 3;
  spec.soak.rates = {200, 400, 300, 120};

  const SoakCampaignResult res = run_soak_campaign(spec);
  const SchedulePlan plan = plan_schedule(routines({"alu", "shifter"}), spec.cores);

  unsigned diverged = 0;
  for (const SoakRunRecord& rec : res.records) {
    if (rec.isolation.diverged == 0) continue;
    ++diverged;
    ASSERT_EQ(rec.isolation.isolated, 1u);
    EXPECT_GE(rec.isolation.reruns, 1u);

    SoakSpec sspec = spec.soak;
    sspec.duration = 0;  // recompute exactly as the campaign did
    {
      u64 longest = 0;
      for (unsigned c = 0; c < spec.cores; ++c) {
        u64 sum = 0;
        for (const PlannedRoutine& r : plan.schedule[c]) sum += r.cached_calib;
        longest = std::max(longest, sum);
      }
      sspec.duration = 2 * longest + 1'000;
    }
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
