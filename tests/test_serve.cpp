// stlserve orchestration layer (src/serve/): spec parsing, shard planning,
// and the supervision ladder end-to-end with forked workers — worker kill →
// respawn, hung worker → watchdog SIGKILL, corrupt journal → quarantine,
// respawn exhaustion → in-process re-execution at the merge — with the
// headline contract that the merged multi-process result is byte-identical
// to the single-process `stlrun campaign` run at 1/2/4 workers, no matter
// what was killed, hung or corrupted along the way. Also covers the manifest
// advisory lock (live-writer refusal, stale-lock takeover) and the forked-
// worker drain-handler reset.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/routines.h"
#include "exp/experiments.h"
#include "fault/campaign.h"
#include "fault/checkpoint.h"
#include "runtime/campaign.h"
#include "serve/serve.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace fs = std::filesystem;

namespace detstl::serve {
namespace {

// Documented shard layout (fault/checkpoint.h): header is 56 bytes, payload
// follows. Used to place bit-flips for the corruption drills.
constexpr std::size_t kShardHeaderBytes = 56;

/// Fresh scratch directory under the gtest temp root; wiped up-front so a
/// crashed earlier run can never leak shards into this one.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("detstl-serve-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<u8> read_all(const fs::path& p) {
  std::vector<u8> out;
  std::FILE* f = std::fopen(p.c_str(), "rb");
  EXPECT_NE(f, nullptr) << p;
  if (f == nullptr) return out;
  u8 buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
    out.insert(out.end(), buf, buf + n);
  std::fclose(f);
  return out;
}

void write_all(const fs::path& p, const std::vector<u8>& bytes) {
  std::FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr) << p;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

bool any_entry_matching(const fs::path& dir, const std::string& needle) {
  if (!fs::exists(dir)) return false;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().find(needle) != std::string::npos)
      return true;
  return false;
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(ServeSpecJson, ExampleParsesAndRoundTrips) {
  ServeSpec s;
  std::string err;
  ASSERT_TRUE(parse_spec(example_spec_json(), s, &err)) << err;
  EXPECT_EQ(s.kind, "disturbance");
  EXPECT_EQ(s.seed, 0xD171u);
  EXPECT_EQ(s.runs, 200u);
  EXPECT_EQ(s.workers, 4u);
  ASSERT_EQ(s.routines.size(), 3u);
  EXPECT_EQ(s.routines[0], "alu");

  // Canonical serialisation is a fixpoint: parse(to_json(s)) == to_json(s).
  const std::string json = spec_to_json(s);
  ServeSpec back;
  ASSERT_TRUE(parse_spec(json, back, &err)) << err;
  EXPECT_EQ(spec_to_json(back), json);
}

TEST(ServeSpecJson, SeedAcceptsNumberAndString) {
  ServeSpec s;
  ASSERT_TRUE(parse_spec("{\"seed\": 4242}", s, nullptr));
  EXPECT_EQ(s.seed, 4242u);
  ASSERT_TRUE(parse_spec("{\"seed\": \"0xd171\"}", s, nullptr));
  EXPECT_EQ(s.seed, 0xD171u);
  EXPECT_FALSE(parse_spec("{\"seed\": \"0xd171 junk\"}", s, nullptr));
}

TEST(ServeSpecJson, StrictParseRejectsBadInput) {
  ServeSpec s;
  std::string err;
  // Unknown key: a typo must not silently run a different campaign.
  EXPECT_FALSE(parse_spec("{\"run\": 8}", s, &err));
  EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
  // Wrong kind, wrong types, out-of-range values, syntax errors.
  EXPECT_FALSE(parse_spec("{\"kind\": \"soak\"}", s, &err));
  EXPECT_FALSE(parse_spec("{\"module\": \"alu\"}", s, &err));
  EXPECT_FALSE(parse_spec("{\"stride\": 0}", s, &err));
  EXPECT_FALSE(parse_spec("{\"runs\": \"many\"}", s, &err));
  EXPECT_FALSE(parse_spec("{\"cores\": 4}", s, &err));
  EXPECT_FALSE(parse_spec("{\"permanent\": 101}", s, &err));
  EXPECT_FALSE(parse_spec("{\"routines\": [1]}", s, &err));
  EXPECT_FALSE(parse_spec("{\"runs\": 8", s, &err));
  EXPECT_FALSE(parse_spec("[]", s, &err));
}

// Numbers are unsigned integers written out in full: a fraction, an
// exponent, a sign or a value past 64 bits is an error with a one-line
// reason, never truncated, wrapped or saturated. A zero seed is refused, as
// stlrun refuses it.
TEST(ServeSpecJson, NumbersAreStrictAndSeedIsNonZero) {
  for (const char* json :
       {"{\"runs\": 1e3}", "{\"runs\": 1.5}", "{\"runs\": -1}",
        "{\"stride\": 2.9}", "{\"cores\": 2E0}", "{\"seed\": -5}",
        "{\"seed\": \"-5\"}", "{\"seed\": \"+5\"}", "{\"seed\": \" 5\"}",
        "{\"seed\": 1.5}", "{\"seed\": \"0x1ffffffffffffffff\"}",
        "{\"seed\": 18446744073709551616}", "{\"seed\": 0}",
        "{\"seed\": \"0\"}", "{\"seed\": \"0x0\"}"}) {
    ServeSpec s;
    std::string err;
    EXPECT_FALSE(parse_spec(json, s, &err)) << json;
    EXPECT_FALSE(err.empty()) << json;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  }
  // The full u64 range stays reachable, as a number and as a hex string.
  ServeSpec s;
  ASSERT_TRUE(parse_spec("{\"seed\": 18446744073709551615}", s, nullptr));
  EXPECT_EQ(s.seed, ~0ull);
  ASSERT_TRUE(parse_spec("{\"seed\": \"0xffffffffffffffff\", \"runs\": 100000}",
                         s, nullptr));
  EXPECT_EQ(s.seed, ~0ull);
  EXPECT_EQ(s.runs, 100'000u);
}

TEST(ServeSpecJson, FaultKindParsesAndRoundTrips) {
  ServeSpec s;
  std::string err;
  ASSERT_TRUE(parse_spec(
      "{\"kind\": \"fault\", \"module\": \"icu\", \"stride\": 12, "
      "\"workers\": 3}",
      s, &err))
      << err;
  EXPECT_EQ(s.kind, "fault");
  EXPECT_EQ(s.module, "icu");
  EXPECT_EQ(s.stride, 12u);
  EXPECT_EQ(s.workers, 3u);

  const std::string json = spec_to_json(s);
  ServeSpec back;
  ASSERT_TRUE(parse_spec(json, back, &err)) << err;
  EXPECT_EQ(spec_to_json(back), json);
  EXPECT_EQ(back.module, "icu");
  EXPECT_EQ(back.stride, 12u);
}

// ---------------------------------------------------------------------------
// Shard planning (pure helper)
// ---------------------------------------------------------------------------

TEST(ServePlan, ShardsPartitionContiguouslyWithRemainderUpFront) {
  const auto plans = plan_shards(10, 4, "w");
  ASSERT_EQ(plans.size(), 4u);
  EXPECT_EQ(plans[0].begin, 0u);
  EXPECT_EQ(plans[0].end, 3u);  // 10 = 3 + 3 + 2 + 2
  EXPECT_EQ(plans[1].end, 6u);
  EXPECT_EQ(plans[2].end, 8u);
  EXPECT_EQ(plans[3].end, 10u);
  EXPECT_EQ(plans[0].dir, "w/shard-00");
  EXPECT_EQ(plans[0].heartbeat, "w/shard-00/heartbeat");
  for (std::size_t i = 1; i < plans.size(); ++i)
    EXPECT_EQ(plans[i].begin, plans[i - 1].end);
}

TEST(ServePlan, NeverMoreShardsThanRunsAndAtLeastOne) {
  EXPECT_EQ(plan_shards(3, 8, "w").size(), 3u);  // one run per shard
  EXPECT_EQ(plan_shards(5, 0, "w").size(), 1u);  // workers=0 degrades to 1
  const auto one = plan_shards(1, 64, "w");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].end, 1u);
}

// ---------------------------------------------------------------------------
// Manifest advisory lock (fault/checkpoint.h CheckpointWriter)
// ---------------------------------------------------------------------------

TEST(ManifestLock, SecondWriterRefusedWhileOwnerIsAlive) {
  const auto dir = scratch_dir("lock-live");
  // A lock naming a LIVE process that is not us (the test runner's parent):
  // a second writer must fail fast, never interleave shard writes.
  const std::string body =
      "pid " + std::to_string(static_cast<long>(::getppid())) + "\nstart 0\n";
  write_all(dir / "manifest.lock",
            std::vector<u8>(body.begin(), body.end()));
  fault::CheckpointConfig cfg;
  cfg.dir = dir.string();
  cfg.fsync = fault::FsyncPolicy::kNone;
  EXPECT_THROW(fault::CheckpointWriter(cfg, fault::PayloadKind::kFaultOutcomes,
                                       1, 0, nullptr),
               fault::CheckpointMismatch);
}

TEST(ManifestLock, StaleLockIsBrokenAndReleasedOnDestruction) {
  const auto dir = scratch_dir("lock-stale");
  // A lock left by a dead owner (crashed or SIGKILLed worker): break it.
  const std::string body = "pid 999999999\nstart 0\n";
  write_all(dir / "manifest.lock",
            std::vector<u8>(body.begin(), body.end()));
  fault::CheckpointConfig cfg;
  cfg.dir = dir.string();
  cfg.fsync = fault::FsyncPolicy::kNone;
  {
    fault::CheckpointWriter w(cfg, fault::PayloadKind::kFaultOutcomes, 1, 0,
                              nullptr);
    ASSERT_TRUE(w.enabled());
    EXPECT_TRUE(fs::exists(dir / "manifest.lock"));  // re-claimed by us
  }
  EXPECT_FALSE(fs::exists(dir / "manifest.lock"));  // released with the writer
}

TEST(ManifestLock, ConstructorFailureReleasesTheLock) {
  const auto dir = scratch_dir("lock-ctor-throw");
  fault::CheckpointConfig cfg;
  cfg.dir = dir.string();
  cfg.fsync = fault::FsyncPolicy::kNone;
  cfg.resume = true;  // resume with no manifest: the constructor throws...
  EXPECT_THROW(fault::CheckpointWriter(cfg, fault::PayloadKind::kFaultOutcomes,
                                       1, 0, nullptr),
               fault::CheckpointMismatch);
  // ...and must not leak its just-claimed lock (a throwing constructor never
  // runs the destructor), or this still-live process would block everyone.
  EXPECT_FALSE(fs::exists(dir / "manifest.lock"));
  cfg.resume = false;
  fault::CheckpointWriter w(cfg, fault::PayloadKind::kFaultOutcomes, 1, 0,
                            nullptr);
  EXPECT_TRUE(w.enabled());
}

TEST(DrainHandlers, ResetForChildClearsInheritedStopState) {
  fault::install_drain_handlers();
  fault::install_drain_handlers();  // idempotent by contract
  fault::global_interrupt().request_stop();
  fault::global_interrupt().arm_after(3);
  fault::reset_for_child();
  EXPECT_FALSE(fault::global_interrupt().stop_requested());
  // The armed countdown was cleared too: completing units must not re-trip.
  for (int i = 0; i < 8; ++i) fault::global_interrupt().on_unit_complete();
  EXPECT_FALSE(fault::global_interrupt().stop_requested());
}

#ifndef _WIN32

// ---------------------------------------------------------------------------
// Orchestrated campaigns: each shard runs in a forked child of run_campaign
// ---------------------------------------------------------------------------

ServeSpec small_spec() {
  ServeSpec s;
  s.seed = 0xC0FFEE42;
  s.runs = 8;
  s.cores = 2;
  s.routines = {"alu", "shifter"};
  s.events = 3;
  s.permanent = 50;
  s.workers = 2;
  s.checkpoint_interval = 1;  // journal every run: a kill loses nothing
  return s;
}

/// Straight single-process reference, computed once per test binary.
const runtime::CampaignResult& reference() {
  static const runtime::CampaignResult r =
      runtime::run_disturbance_campaign(to_campaign_spec(small_spec()));
  return r;
}

ServeConfig fast_cfg(const fs::path& dir) {
  ServeConfig c;
  c.work_dir = dir.string();
  c.poll_ms = 5;
  c.no_fsync = true;
  c.quiet = true;
  return c;
}

/// The whole point of src/serve/: whatever the supervision history, the
/// merged result is byte-identical to the single-process campaign.
void expect_identical(const runtime::CampaignResult& got) {
  const runtime::CampaignResult& ref = reference();
  EXPECT_EQ(got.outcome_vector(), ref.outcome_vector());
  EXPECT_EQ(got.digest(), ref.digest());
  EXPECT_EQ(runtime::render_recovery_report(got),
            runtime::render_recovery_report(ref));
}

TEST(ServeCampaign, MergedResultIdenticalAt1And2And4Workers) {
  for (unsigned workers : {1u, 2u, 4u}) {
    const auto dir = scratch_dir("identity-" + std::to_string(workers));
    ServeConfig cfg = fast_cfg(dir);
    cfg.workers = workers;
    const ServeResult sr = run_campaign(small_spec(), cfg);
    ASSERT_FALSE(sr.interrupted) << workers << " workers";
    EXPECT_EQ(sr.stats.shards, workers);
    EXPECT_EQ(sr.stats.respawns, 0u);
    // Every run came out of a shard journal; nothing was re-executed.
    EXPECT_EQ(sr.stats.records_resumed, small_spec().runs);
    EXPECT_EQ(sr.stats.merge_reexecuted, 0u);
    expect_identical(sr.result);
  }
}

TEST(ServeCampaign, HeartbeatRecordsCarryTheRunIndex) {
  const auto dir = scratch_dir("heartbeat");
  const ServeResult sr = run_campaign(small_spec(), fast_cfg(dir));
  ASSERT_FALSE(sr.interrupted);
  expect_identical(sr.result);

  // Every shard heartbeat is a sequence of 8-byte little-endian records,
  // one per completed run, carrying that run's index — what the supervisor
  // surfaces in its progress and hang notes. 8 runs over 2 workers: shard
  // 0 owns [0, 4), shard 1 owns [4, 8).
  const auto plans = plan_shards(small_spec().runs, 2, dir.string());
  ASSERT_EQ(plans.size(), 2u);
  for (const ShardPlan& p : plans) {
    const std::vector<u8> hb = read_all(p.heartbeat);
    ASSERT_EQ(hb.size(), (p.end - p.begin) * 8) << p.heartbeat;
    for (u64 i = 0; i < p.end - p.begin; ++i) {
      u64 run = 0;
      for (unsigned b = 0; b < 8; ++b)
        run |= static_cast<u64>(hb[i * 8 + b]) << (8 * b);
      // threads=1 workers complete runs in order.
      EXPECT_EQ(run, p.begin + i) << p.heartbeat;
    }
  }
}

TEST(ServeCampaign, FreshRunRefusesOccupiedWorkDir) {
  const auto dir = scratch_dir("occupied");
  const ServeResult sr = run_campaign(small_spec(), fast_cfg(dir));
  ASSERT_FALSE(sr.interrupted);
  // Starting over an existing campaign must be explicit (--resume).
  EXPECT_THROW(run_campaign(small_spec(), fast_cfg(dir)), std::runtime_error);
}

TEST(ServeCampaign, KilledWorkerIsRespawnedAndResumesItsJournal) {
  const auto dir = scratch_dir("chaos-kill");
  ServeConfig cfg = fast_cfg(dir);
  cfg.chaos.push_back({0, "kill-after", 2});  // shard 0 crashes after 2 runs
  cfg.backoff_base_ms = 10;
  const ServeResult sr = run_campaign(small_spec(), cfg);
  ASSERT_FALSE(sr.interrupted);
  // kill-after fires on the first spawn only, and the respawned worker
  // journalled the rest of shard 0 itself: with a flush per run, the merge
  // finds every run and re-executes none.
  EXPECT_EQ(sr.stats.respawns, 1u);
  EXPECT_EQ(sr.stats.merge_reexecuted, 0u);
  EXPECT_EQ(sr.stats.records_resumed, small_spec().runs);
  expect_identical(sr.result);
}

TEST(ServeCampaign, HungWorkerIsKilledByWatchdogAndRecovered) {
  const auto dir = scratch_dir("chaos-hang");
  ServeConfig cfg = fast_cfg(dir);
  cfg.chaos.push_back({1, "hang-after", 2});  // shard 1 wedges after 2 runs
  cfg.hang_timeout_ms = 400;
  cfg.backoff_base_ms = 10;
  const ServeResult sr = run_campaign(small_spec(), cfg);
  ASSERT_FALSE(sr.interrupted);
  EXPECT_GE(sr.stats.hung_killed, 1u);
  EXPECT_GE(sr.stats.respawns, 1u);
  expect_identical(sr.result);
}

TEST(ServeCampaign, RespawnExhaustionFallsBackToInProcessExecution) {
  const auto dir = scratch_dir("chaos-fallback");
  ServeConfig cfg = fast_cfg(dir);
  cfg.chaos.push_back({0, "kill-every", 1});  // EVERY spawn of shard 0 dies
  cfg.max_respawns = 1;
  cfg.backoff_base_ms = 10;
  const ServeResult sr = run_campaign(small_spec(), cfg);
  ASSERT_FALSE(sr.interrupted);
  EXPECT_GE(sr.stats.respawns, 1u);
  // The dead shard stays FAILED; the merge re-executed, in the supervisor,
  // the runs its journal lacks.
  EXPECT_GE(sr.stats.merge_reexecuted, 1u);
  expect_identical(sr.result);
}

TEST(ServeCampaign, ResumeRefusesADifferentSpec) {
  const auto dir = scratch_dir("resume-other-spec");
  ASSERT_FALSE(run_campaign(small_spec(), fast_cfg(dir)).interrupted);

  // Another seed is another campaign: refused before any worker spawns, so
  // no shard journal is rejected and set aside.
  ServeConfig cfg = fast_cfg(dir);
  cfg.resume = true;
  ServeSpec other = small_spec();
  other.seed += 1;
  EXPECT_THROW(run_campaign(other, cfg), fault::CheckpointMismatch);
  EXPECT_FALSE(any_entry_matching(dir, ".corrupt"));
  EXPECT_FALSE(any_entry_matching(dir / "shard-00", ".corrupt"));
  EXPECT_FALSE(any_entry_matching(dir / "shard-01", ".corrupt"));

  // The worker count and the flush interval only change how it runs.
  other = small_spec();
  other.workers = 4;
  other.checkpoint_interval = 2;
  const ServeResult sr = run_campaign(other, cfg);
  ASSERT_FALSE(sr.interrupted);
  expect_identical(sr.result);
}

TEST(ServeCampaign, CorruptShardFileIsQuarantinedOnResume) {
  const auto dir = scratch_dir("corrupt-shard");
  const ServeResult first = run_campaign(small_spec(), fast_cfg(dir));
  ASSERT_FALSE(first.interrupted);

  // Bit-flip one record payload in shard 0's journal, then resume: the
  // worker quarantines the file (*.corrupt) and re-executes its range.
  const fs::path victim = dir / "shard-00" / "shard-000000.ckpt";
  ASSERT_TRUE(fs::exists(victim));
  auto bytes = read_all(victim);
  ASSERT_GT(bytes.size(), kShardHeaderBytes);
  bytes[kShardHeaderBytes + 9] ^= 0x40;
  write_all(victim, bytes);

  ServeConfig cfg = fast_cfg(dir);
  cfg.resume = true;
  const ServeResult sr = run_campaign(small_spec(), cfg);
  ASSERT_FALSE(sr.interrupted);
  EXPECT_TRUE(any_entry_matching(dir / "shard-00", ".corrupt"));
  expect_identical(sr.result);
}

TEST(ServeCampaign, CorruptManifestQuarantinesTheWholeSubdir) {
  const auto dir = scratch_dir("corrupt-manifest");
  const ServeResult first = run_campaign(small_spec(), fast_cfg(dir));
  ASSERT_FALSE(first.interrupted);

  // A bit-flipped manifest makes the worker refuse the whole journal
  // (exit code 2): the supervisor sets the subdir aside as evidence and
  // starts the shard over on a clean one.
  const fs::path manifest = dir / "shard-01" / "manifest.ckpt";
  ASSERT_TRUE(fs::exists(manifest));
  auto bytes = read_all(manifest);
  ASSERT_GT(bytes.size(), 16u);
  bytes[16] ^= 0x01;
  write_all(manifest, bytes);

  ServeConfig cfg = fast_cfg(dir);
  cfg.resume = true;
  cfg.backoff_base_ms = 10;
  const ServeResult sr = run_campaign(small_spec(), cfg);
  ASSERT_FALSE(sr.interrupted);
  EXPECT_GE(sr.stats.dirs_quarantined, 1u);
  EXPECT_TRUE(any_entry_matching(dir, "shard-01.corrupt"));
  expect_identical(sr.result);
}

// ---------------------------------------------------------------------------
// Fault-campaign sharding: ranges + post-hoc merge (fault/campaign.h)
// ---------------------------------------------------------------------------

fault::CampaignResult run_fwd_shard(const fs::path& ckpt_dir, u64 begin,
                                    u64 end,
                                    std::vector<std::string> merge = {},
                                    unsigned stride = 8, unsigned threads = 1) {
  const auto routine = core::make_fwd_test(/*with_perf_counters=*/false);
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "serve"};
  auto tests = exp::build_scenario_tests(*routine, core::WrapperKind::kPlain,
                                         sc, 0, /*use_pcs=*/false);
  fault::CampaignConfig cc;
  cc.module = fault::Module::kFwd;
  cc.core_id = 0;
  cc.kind = isa::CoreKind::kA;
  cc.fault_stride = stride;
  cc.threads = threads;
  cc.unit_begin = begin;
  cc.unit_end = end;
  cc.merge_dirs = std::move(merge);
  if (!ckpt_dir.empty()) {
    cc.checkpoint.dir = ckpt_dir.string();
    cc.checkpoint.interval = 16;
    cc.checkpoint.fsync = fault::FsyncPolicy::kNone;
  }
  fault::Campaign campaign(cc, exp::scenario_factory(std::move(tests), sc, 0));
  return campaign.run();
}

TEST(ServeFaultShards, RangePartitionMergesByteIdentical) {
  const fault::CampaignResult base = run_fwd_shard({}, 0, 0);
  ASSERT_GT(base.simulated_faults, 16u);
  const u64 mid = base.simulated_faults / 2;

  const auto a = scratch_dir("fault-shard-a");
  const auto b = scratch_dir("fault-shard-b");
  (void)run_fwd_shard(a, 0, mid);
  (void)run_fwd_shard(b, mid, base.simulated_faults);

  // Merge both journals in a third process image: every fault is resumed
  // from a shard journal, nothing re-simulated, bytes identical.
  const fault::CampaignResult merged =
      run_fwd_shard({}, 0, 0, {a.string(), b.string()});
  EXPECT_EQ(merged.ckpt.records_resumed, base.simulated_faults);
  EXPECT_EQ(merged.canonical_bytes(), base.canonical_bytes());

  // A partial merge (one shard dir missing) re-executes the gap and still
  // converges — the property stlserve's degraded paths lean on.
  const fault::CampaignResult partial = run_fwd_shard({}, 0, 0, {a.string()});
  EXPECT_LT(partial.ckpt.records_resumed, base.simulated_faults);
  EXPECT_EQ(partial.canonical_bytes(), base.canonical_bytes());
}

TEST(ServeFaultShards, EmptyShardRangeIsRejected) {
  EXPECT_THROW(run_fwd_shard({}, 5, 5), std::runtime_error);
  EXPECT_THROW(run_fwd_shard({}, 7, 3), std::runtime_error);
}

TEST(ServeFaultShards, SupervisedFaultCampaignMatchesTheStraightRun) {
  // The full orchestration path for kind "fault": spec → shard planning
  // over the sampled fault list → forked workers journaling fault outcomes
  // → post-hoc merge — byte-identical to the single-process campaign the
  // same recipe runs above.
  ServeSpec spec;
  spec.kind = "fault";
  spec.module = "fwd";
  spec.stride = 8;
  spec.workers = 2;
  spec.checkpoint_interval = 16;
  const u64 units = spec_unit_count(spec);
  const fault::CampaignResult base = run_fwd_shard({}, 0, 0);
  ASSERT_EQ(units, base.simulated_faults);

  const auto dir = scratch_dir("fault-serve");
  const ServeResult sr = run_campaign(spec, fast_cfg(dir));
  ASSERT_FALSE(sr.interrupted);
  EXPECT_EQ(sr.stats.shards, 2u);
  EXPECT_EQ(sr.stats.records_resumed, base.simulated_faults);
  EXPECT_EQ(sr.stats.merge_reexecuted, 0u);
  EXPECT_EQ(sr.fault_result.canonical_bytes(), base.canonical_bytes());
}

TEST(ServeFaultShards, HeartbeatRecordsCarryTheFaultIndex) {
  // Fault workers beat as disturbance workers do: one 8-byte record per
  // completed fault, carrying its fault index. Screening lane groups beat
  // nothing. 2 workers split the stride-8 fwd list; threads=1 workers
  // complete their range in index order. A watchdog kill would re-run
  // unjournalled faults and beat them twice, so the hang timeout is set far
  // above a sanitizer build's run time.
  ServeSpec spec;
  spec.kind = "fault";
  spec.module = "fwd";
  spec.stride = 8;
  spec.workers = 2;
  spec.checkpoint_interval = 16;
  const auto dir = scratch_dir("fault-heartbeat");
  ServeConfig cfg = fast_cfg(dir);
  cfg.hang_timeout_ms = 300'000;
  const ServeResult sr = run_campaign(spec, cfg);
  ASSERT_FALSE(sr.interrupted);
  ASSERT_EQ(sr.stats.hung_killed, 0u);
  ASSERT_EQ(sr.stats.respawns, 0u);

  const auto plans = plan_shards(spec_unit_count(spec), 2, dir.string());
  ASSERT_EQ(plans.size(), 2u);
  for (const ShardPlan& p : plans) {
    const std::vector<u8> hb = read_all(p.heartbeat);
    ASSERT_EQ(hb.size(), (p.end - p.begin) * 8) << p.heartbeat;
    for (u64 i = 0; i < p.end - p.begin; ++i)
      EXPECT_EQ(load_le(hb.data() + i * 8, 8), p.begin + i) << p.heartbeat;
  }
}

TEST(ServeFaultShards, ShortHangTimeoutKillsNoHealthyShard) {
  // One worker grades the exhaustive fwd list: several hang timeouts of
  // work in one shard, each fault beating well within one. Only a stale
  // heartbeat marks a worker hung, so a shard that keeps beating runs to
  // its end unkilled however long the whole shard takes. 3 s still covers
  // a sanitizer build's wait for the first heartbeat (the good run plus
  // screening).
  ServeSpec spec;
  spec.kind = "fault";
  spec.module = "fwd";
  spec.stride = 1;
  spec.workers = 1;
  const auto dir = scratch_dir("fault-short-hang");
  ServeConfig cfg = fast_cfg(dir);
  cfg.hang_timeout_ms = 3'000;
  const ServeResult sr = run_campaign(spec, cfg);
  ASSERT_FALSE(sr.interrupted);
  EXPECT_EQ(sr.stats.hung_killed, 0u);
  EXPECT_EQ(sr.stats.respawns, 0u);
  const fault::CampaignResult straight =
      run_fwd_shard({}, 0, 0, {}, /*stride=*/1, /*threads=*/2);
  EXPECT_EQ(sr.fault_result.canonical_bytes(), straight.canonical_bytes());
}

#endif  // !_WIN32

}  // namespace
}  // namespace detstl::serve
