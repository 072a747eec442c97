// Checkpoint/resume subsystem (fault/checkpoint.h): shard I/O round-trips,
// manifest binding, corruption quarantine (truncation, bit-flips, version
// skew) with kCkptReject telemetry, the work-queue done-mask/halt extensions,
// loss-less RunRecord serialisation — and the headline contract: straight,
// killed-and-resumed and multi-resume campaigns are byte-identical at any
// thread count, for both the fault campaign and the disturbance campaign,
// also when a kill point or shard boundary cuts a fault-equivalence class.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/routines.h"
#include "exp/experiments.h"
#include "fault/campaign.h"
#include "fault/checkpoint.h"
#include "fault/report.h"
#include "fault/work_queue.h"
#include "netlist/equivalence.h"
#include "netlist/modules.h"
#include "perf/simstats.h"
#include "runtime/campaign.h"
#include "runtime/soak.h"
#include "trace/capture.h"

namespace fs = std::filesystem;

namespace detstl::fault {
namespace {

using core::WrapperKind;

// Documented shard layout (fault/checkpoint.h): the trailing header checksum
// is FNV-1a over the first 48 bytes, stored at offset 48; payload follows.
constexpr std::size_t kSchemaOffset = 8;
constexpr std::size_t kChecksummedBytes = 48;
constexpr std::size_t kHeaderBytes = 56;

/// Fresh scratch directory under the gtest temp root; wiped up-front so a
/// crashed earlier run can never leak shards into this one.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("detstl-ckpt-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

CheckpointConfig make_cfg(const fs::path& dir, u32 interval = 4,
                          bool resume = false) {
  CheckpointConfig cfg;
  cfg.dir = dir.string();
  cfg.interval = interval;
  cfg.resume = resume;
  cfg.fsync = FsyncPolicy::kNone;  // the tests do not survive power cuts anyway
  return cfg;
}

std::vector<u8> read_all(const fs::path& p) {
  std::vector<u8> out;
  std::FILE* f = std::fopen(p.c_str(), "rb");
  EXPECT_NE(f, nullptr) << p;
  if (f == nullptr) return out;
  u8 buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.insert(out.end(), buf, buf + n);
  std::fclose(f);
  return out;
}

void write_all(const fs::path& p, const std::vector<u8>& bytes) {
  std::FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr) << p;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void patch_u64(std::vector<u8>& bytes, std::size_t at, u64 v) {
  for (unsigned i = 0; i < 8; ++i) bytes[at + i] = static_cast<u8>(v >> (8 * i));
}

std::vector<trace::Event> ckpt_events(const trace::StreamCapture& cap,
                                      trace::EventKind kind) {
  std::vector<trace::Event> out;
  for (const trace::Event& e : cap.events())
    if (e.kind == kind) out.push_back(e);
  return out;
}

// ---------------------------------------------------------------------------
// Shard I/O
// ---------------------------------------------------------------------------

TEST(CheckpointIO, WriterAndLoaderRoundTrip) {
  const auto dir = scratch_dir("roundtrip");
  const u64 hash = 0x1234'5678'9abc'def0ull;
  {
    CheckpointWriter w(make_cfg(dir, 3), PayloadKind::kFaultOutcomes, hash, 0,
                       nullptr);
    ASSERT_TRUE(w.enabled());
    for (u64 i = 0; i < 10; ++i)
      w.add(i * 7, {static_cast<u8>(i), static_cast<u8>(i + 100)});
    w.flush();
    EXPECT_EQ(w.shards_flushed(), 4u);  // 3 + 3 + 3 + final 1
  }
  EXPECT_TRUE(checkpoint_present(make_cfg(dir)));

  trace::StreamCapture cap;
  const auto loaded =
      load_checkpoint(make_cfg(dir, 3, true), PayloadKind::kFaultOutcomes, hash, &cap);
  EXPECT_EQ(loaded.shards_loaded, 4u);
  EXPECT_EQ(loaded.shards_corrupt, 0u);
  EXPECT_EQ(loaded.next_shard, 4u);  // numbering continues after the highest
  ASSERT_EQ(loaded.records.size(), 10u);
  for (u64 i = 0; i < 10; ++i) {
    EXPECT_EQ(loaded.records[i].index, i * 7);
    const std::vector<u8> want{static_cast<u8>(i), static_cast<u8>(i + 100)};
    EXPECT_EQ(loaded.records[i].payload, want) << "record " << i;
  }
  EXPECT_EQ(ckpt_events(cap, trace::EventKind::kCkptLoad).size(), 4u);
  EXPECT_TRUE(ckpt_events(cap, trace::EventKind::kCkptReject).empty());
}

TEST(CheckpointIO, DisabledConfigIsInert) {
  const CheckpointConfig off;  // empty dir = checkpointing off
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(checkpoint_present(off));
  CheckpointWriter w(off, PayloadKind::kFaultOutcomes, 0, 0, nullptr);
  EXPECT_FALSE(w.enabled());
  w.add(0, {1});
  w.flush();
  EXPECT_EQ(w.shards_flushed(), 0u);
  const auto loaded = load_checkpoint(off, PayloadKind::kFaultOutcomes, 0, nullptr);
  EXPECT_TRUE(loaded.records.empty());
}

TEST(CheckpointIO, FreshWriterRefusesOccupiedDirAndResumeNeedsManifest) {
  const auto dir = scratch_dir("occupied");
  {
    CheckpointWriter w(make_cfg(dir), PayloadKind::kFaultOutcomes, 7, 0, nullptr);
    ASSERT_TRUE(w.enabled());
  }
  // Restarting fresh over an existing checkpoint must be an explicit decision.
  EXPECT_THROW(
      CheckpointWriter(make_cfg(dir), PayloadKind::kFaultOutcomes, 7, 0, nullptr),
      CheckpointMismatch);
  // A resume writer without a manifest has nothing to continue.
  const auto empty = scratch_dir("occupied-empty");
  EXPECT_THROW(CheckpointWriter(make_cfg(empty, 4, true),
                                PayloadKind::kFaultOutcomes, 7, 0, nullptr),
               CheckpointMismatch);
}

TEST(CheckpointIO, LoadWithoutManifestThrows) {
  const auto dir = scratch_dir("no-manifest");
  EXPECT_THROW(
      load_checkpoint(make_cfg(dir, 4, true), PayloadKind::kFaultOutcomes, 0, nullptr),
      CheckpointMismatch);
  // Nonexistent directory: same refusal, not a crash.
  CheckpointConfig gone = make_cfg(dir / "does-not-exist", 4, true);
  EXPECT_THROW(load_checkpoint(gone, PayloadKind::kFaultOutcomes, 0, nullptr),
               CheckpointMismatch);
}

TEST(CheckpointIO, ManifestBindingRejectsHashAndKindMismatch) {
  const auto dir = scratch_dir("binding");
  {
    CheckpointWriter w(make_cfg(dir), PayloadKind::kFaultOutcomes, 42, 0, nullptr);
    w.add(0, {1});
    w.flush();
  }
  // Same kind, different config hash: a different campaign — never merged.
  EXPECT_THROW(
      load_checkpoint(make_cfg(dir, 4, true), PayloadKind::kFaultOutcomes, 43, nullptr),
      CheckpointMismatch);
  // Same hash, different payload kind: a different campaign *type*.
  EXPECT_THROW(
      load_checkpoint(make_cfg(dir, 4, true), PayloadKind::kDisturbanceRuns, 42, nullptr),
      CheckpointMismatch);
}

/// Write two 2-record shards bound to `hash` and return their paths.
std::pair<fs::path, fs::path> write_two_shards(const fs::path& dir, u64 hash) {
  CheckpointWriter w(make_cfg(dir, 2), PayloadKind::kFaultOutcomes, hash, 0, nullptr);
  for (u64 i = 0; i < 4; ++i) w.add(i, {static_cast<u8>(i)});
  w.flush();
  return {dir / "shard-000000.ckpt", dir / "shard-000001.ckpt"};
}

TEST(CheckpointIO, TruncatedShardQuarantinedAndRestLoaded) {
  const auto dir = scratch_dir("truncate");
  const auto [s0, s1] = write_two_shards(dir, 99);
  auto bytes = read_all(s0);
  bytes.resize(bytes.size() - 1);  // lose the tail (simulated torn write)
  write_all(s0, bytes);

  trace::StreamCapture cap;
  const auto loaded =
      load_checkpoint(make_cfg(dir, 2, true), PayloadKind::kFaultOutcomes, 99, &cap);
  EXPECT_EQ(loaded.shards_corrupt, 1u);
  EXPECT_EQ(loaded.shards_loaded, 1u);
  ASSERT_EQ(loaded.records.size(), 2u);  // only shard 1's records survive
  EXPECT_EQ(loaded.records[0].index, 2u);
  EXPECT_EQ(loaded.records[1].index, 3u);
  // Quarantined under <shard>.corrupt; the original name is freed.
  EXPECT_FALSE(fs::exists(s0));
  EXPECT_TRUE(fs::exists(fs::path(s0.string() + ".corrupt")));
  const auto rejects = ckpt_events(cap, trace::EventKind::kCkptReject);
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].a, static_cast<u32>(RejectReason::kTruncated));
  EXPECT_EQ(rejects[0].b, 0u);  // shard number
}

TEST(CheckpointIO, BitFlipsInHeaderAndPayloadQuarantined) {
  const auto dir = scratch_dir("bitflip");
  const auto [s0, s1] = write_two_shards(dir, 99);
  auto h = read_all(s0);
  h[16] ^= 0x01;  // config-hash field: header checksum catches it first
  write_all(s0, h);
  auto p = read_all(s1);
  ASSERT_GT(p.size(), kHeaderBytes);
  p[kHeaderBytes + 3] ^= 0x40;  // one flipped bit inside the payload
  write_all(s1, p);

  trace::StreamCapture cap;
  const auto loaded =
      load_checkpoint(make_cfg(dir, 2, true), PayloadKind::kFaultOutcomes, 99, &cap);
  EXPECT_EQ(loaded.shards_corrupt, 2u);
  EXPECT_EQ(loaded.shards_loaded, 0u);
  EXPECT_TRUE(loaded.records.empty());
  const auto rejects = ckpt_events(cap, trace::EventKind::kCkptReject);
  ASSERT_EQ(rejects.size(), 2u);
  EXPECT_EQ(rejects[0].a, static_cast<u32>(RejectReason::kBadHeaderChecksum));
  EXPECT_EQ(rejects[1].a, static_cast<u32>(RejectReason::kBadPayloadChecksum));
}

TEST(CheckpointIO, VersionSkewedShardQuarantined) {
  const auto dir = scratch_dir("version-skew");
  const auto [s0, s1] = write_two_shards(dir, 99);
  // Craft a shard from a "future" schema: bump the version field and restamp
  // the header checksum so only the version check can reject it.
  auto bytes = read_all(s0);
  bytes[kSchemaOffset] = static_cast<u8>(kCheckpointSchemaVersion + 1);
  patch_u64(bytes, kChecksummedBytes, fnv1a(bytes.data(), kChecksummedBytes));
  write_all(s0, bytes);

  trace::StreamCapture cap;
  const auto loaded =
      load_checkpoint(make_cfg(dir, 2, true), PayloadKind::kFaultOutcomes, 99, &cap);
  EXPECT_EQ(loaded.shards_corrupt, 1u);
  EXPECT_EQ(loaded.shards_loaded, 1u);
  const auto rejects = ckpt_events(cap, trace::EventKind::kCkptReject);
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].a, static_cast<u32>(RejectReason::kVersionSkew));
}

// ---------------------------------------------------------------------------
// Work-queue extensions (done mask, halt)
// ---------------------------------------------------------------------------

TEST(WorkQueue, DoneMaskSkipsFullyDoneChunksOnly) {
  std::vector<u8> done(12, 0);
  for (std::size_t i = 4; i < 8; ++i) done[i] = 1;  // chunk [4,8) fully done
  done[0] = 1;                                      // chunk [0,4) only partly
  WorkQueue q(12, 4, &done);
  const auto a = q.next(), b = q.next();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->begin, 0u);  // mixed chunk still dispensed
  EXPECT_EQ(b->begin, 8u);  // fully-done chunk skipped
  EXPECT_FALSE(q.next().has_value());
}

TEST(WorkQueue, AllDoneDispensesNothing) {
  std::vector<u8> done(10, 1);
  WorkQueue q(10, 3, &done);
  EXPECT_FALSE(q.next().has_value());
}

TEST(WorkQueue, HaltStopsDispensingImmediately) {
  WorkQueue q(100, 10);
  ASSERT_TRUE(q.next().has_value());
  EXPECT_FALSE(q.halted());
  q.halt();
  EXPECT_TRUE(q.halted());
  EXPECT_FALSE(q.next().has_value());
  EXPECT_FALSE(q.next().has_value());
}

// ---------------------------------------------------------------------------
// Fault campaign: kill, resume, multi-resume, corruption convergence
// ---------------------------------------------------------------------------

CampaignResult run_fwd(unsigned threads, const CheckpointConfig& ckpt = {},
                       InterruptToken* token = nullptr,
                       trace::EventSink* sink = nullptr) {
  const auto routine = core::make_fwd_test(/*with_perf_counters=*/false);
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "ckpt"};
  auto tests = exp::build_scenario_tests(*routine, WrapperKind::kPlain, sc, 0,
                                         /*use_pcs=*/false);
  CampaignConfig cc;
  cc.module = Module::kFwd;
  cc.core_id = 0;
  cc.kind = isa::CoreKind::kA;
  cc.fault_stride = 8;
  cc.threads = threads;
  cc.checkpoint = ckpt;
  cc.interrupt = token;
  cc.sink = sink;
  Campaign campaign(cc, exp::scenario_factory(std::move(tests), sc, 0));
  return campaign.run();
}

/// Straight single-threaded reference run, computed once per test binary.
const CampaignResult& fwd_baseline() {
  static const CampaignResult r = run_fwd(1);
  return r;
}

TEST(CheckpointCampaign, KillResumeAndMultiResumeAreByteIdentical) {
  const auto& base = fwd_baseline();
  ASSERT_GT(base.simulated_faults, 100u);
  const auto base_bytes = base.canonical_bytes();

  const auto dir = scratch_dir("fault-kill-resume");
  InterruptToken token;
  token.arm_after(10);  // deterministic kill point mid-detection
  const auto killed = run_fwd(2, make_cfg(dir, 4), &token);
  EXPECT_TRUE(killed.ckpt.interrupted);
  EXPECT_GT(killed.ckpt.shards_flushed, 0u);
  EXPECT_LT(killed.detected, base.detected);  // genuinely partial

  // Second kill: resume at a different thread count and drain again.
  token.clear();
  token.arm_after(10);
  const auto killed2 = run_fwd(1, make_cfg(dir, 4, true), &token);
  EXPECT_TRUE(killed2.ckpt.interrupted);
  EXPECT_GT(killed2.ckpt.shards_loaded, 0u);
  EXPECT_GT(killed2.ckpt.records_resumed, 0u);

  // Final resume runs to completion — byte-identical to the straight run.
  token.clear();
  const auto resumed = run_fwd(8, make_cfg(dir, 4, true), &token);
  EXPECT_FALSE(resumed.ckpt.interrupted);
  EXPECT_GT(resumed.ckpt.records_resumed, killed2.ckpt.records_resumed);
  EXPECT_EQ(resumed.canonical_bytes(), base_bytes);
}

TEST(CheckpointCampaign, CorruptShardIsReexecutedToConvergence) {
  const auto& base = fwd_baseline();
  const auto dir = scratch_dir("fault-corrupt");
  InterruptToken token;
  token.arm_after(24);
  (void)run_fwd(2, make_cfg(dir, 4), &token);
  const fs::path s0 = dir / "shard-000000.ckpt";
  ASSERT_TRUE(fs::exists(s0));
  auto bytes = read_all(s0);
  ASSERT_GT(bytes.size(), kHeaderBytes);
  bytes[kHeaderBytes] ^= 0x40;  // bit-flip the first record's payload
  write_all(s0, bytes);

  token.clear();
  trace::StreamCapture cap;
  const auto resumed = run_fwd(1, make_cfg(dir, 4, true), &token, &cap);
  EXPECT_GE(resumed.ckpt.shards_corrupt, 1u);
  EXPECT_TRUE(fs::exists(fs::path(s0.string() + ".corrupt")));
  const auto rejects = ckpt_events(cap, trace::EventKind::kCkptReject);
  ASSERT_GE(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].a, static_cast<u32>(RejectReason::kBadPayloadChecksum));
  // The quarantined range was re-executed: the result still converges.
  EXPECT_EQ(resumed.canonical_bytes(), base.canonical_bytes());
}

TEST(CheckpointCampaign, CompleteCheckpointResumesWithoutRework) {
  const auto& base = fwd_baseline();
  const auto dir = scratch_dir("fault-complete");
  const auto full = run_fwd(2, make_cfg(dir, 8));
  EXPECT_FALSE(full.ckpt.interrupted);
  EXPECT_EQ(full.canonical_bytes(), base.canonical_bytes());

  // Every simulated fault is journaled (kNotExcited included), so a resume of
  // a complete checkpoint skips the entire fault population.
  const auto resumed = run_fwd(1, make_cfg(dir, 8, true));
  EXPECT_EQ(resumed.ckpt.records_resumed, base.simulated_faults);
  EXPECT_EQ(resumed.canonical_bytes(), base.canonical_bytes());
}

// ---------------------------------------------------------------------------
// Equivalence classes across kill points and shard boundaries
// ---------------------------------------------------------------------------

/// Exhaustive ICU campaign of core A, single-core plain (perfbench's table3
/// recipe): about 40% of its faults share a class with an earlier fault.
CampaignResult run_icu(unsigned threads, const CheckpointConfig& ckpt = {},
                       InterruptToken* token = nullptr, u64 unit_begin = 0,
                       u64 unit_end = 0, std::vector<std::string> merge_dirs = {}) {
  const auto routine = core::make_icu_test();
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "ckpt"};
  auto tests = exp::build_scenario_tests(*routine, WrapperKind::kPlain, sc, 0,
                                         /*use_pcs=*/false);
  CampaignConfig cc;
  cc.module = Module::kIcu;
  cc.core_id = 0;
  cc.kind = isa::CoreKind::kA;
  cc.fault_stride = 1;
  cc.threads = threads;
  cc.checkpoint = ckpt;
  cc.interrupt = token;
  cc.unit_begin = unit_begin;
  cc.unit_end = unit_end;
  cc.merge_dirs = std::move(merge_dirs);
  Campaign campaign(cc, exp::scenario_factory(std::move(tests), sc, 0));
  return campaign.run();
}

/// Detection cycles this process simulated since `from`: the
/// kDetectionCycles delta of perf::sim_totals().
u64 detection_cycles(const perf::SimSnapshot& from) {
  return perf::sim_totals().snapshot().since(from)[perf::SimStat::kDetectionCycles];
}

/// The straight ICU run and the detection cycles it simulated.
struct IcuBaseline {
  CampaignResult result;
  u64 detection_cycles = 0;
};

const IcuBaseline& icu_baseline() {
  static const IcuBaseline b = [] {
    const perf::SimSnapshot from = perf::sim_totals().snapshot();
    IcuBaseline out{run_icu(1)};
    out.detection_cycles = detection_cycles(from);
    return out;
  }();
  return b;
}

/// The printed report of an ICU campaign result.
std::string icu_report(const CampaignResult& r) {
  static const netlist::Netlist nl = module_netlist(Module::kIcu, isa::CoreKind::kA);
  return render_report(make_report(r, nl, 1), "icu");
}

/// True when unit `split` cuts an excited class in two: one member lies
/// before it, another at or after it.
bool splits_an_excited_class(u64 split) {
  static const netlist::FaultClasses classes = [] {
    const netlist::IcuNetlist icu(isa::CoreKind::kA);
    return netlist::equivalence_classes(icu.nl(), icu.outputs(),
                                        sample_faults(icu.nl(), 1));
  }();
  for (u64 j = split; j < classes.class_of.size(); ++j)
    if (classes.representative[classes.class_of[j]] < split &&
        icu_baseline().result.outcomes[j] != FaultOutcome::kNotExcited)
      return true;
  return false;
}

/// The first multiple of `align` that cuts an excited class in two.
u64 class_split_point(u64 align) {
  for (u64 split = align; split < icu_baseline().result.simulated_faults;
       split += align)
    if (splits_an_excited_class(split)) return split;
  return 0;
}

TEST(CheckpointCampaign, KillInsideAnEquivalenceClassResumesByteIdentical) {
  const auto& base = icu_baseline();
  // One worker claims the detection queue in index order, four units a
  // chunk, so a kill armed at a multiple of four stops exactly there.
  const u64 split = class_split_point(4);
  ASSERT_GT(split, 0u);

  const auto dir = scratch_dir("fault-class-kill");
  InterruptToken token;
  token.arm_after(split);
  perf::SimSnapshot from = perf::sim_totals().snapshot();
  const auto killed = run_icu(1, make_cfg(dir, 4), &token);
  const u64 killed_cycles = detection_cycles(from);
  ASSERT_TRUE(killed.ckpt.interrupted);

  token.clear();
  from = perf::sim_totals().snapshot();
  const auto resumed = run_icu(2, make_cfg(dir, 4, true), &token);
  const u64 resumed_cycles = detection_cycles(from);
  EXPECT_FALSE(resumed.ckpt.interrupted);
  EXPECT_EQ(resumed.ckpt.records_resumed, split);
  EXPECT_TRUE(splits_an_excited_class(resumed.ckpt.records_resumed));
  EXPECT_EQ(resumed.canonical_bytes(), base.result.canonical_bytes());
  // The printed report holds outcomes only: the same bytes at another
  // thread count and after a kill.
  EXPECT_EQ(icu_report(resumed), icu_report(base.result));
  // Each excited class was detected once over both processes: a class the
  // kill cut in two takes its journalled member's outcome on resume.
  EXPECT_EQ(killed_cycles + resumed_cycles, base.detection_cycles);
}

TEST(CheckpointCampaign, ShardSplitInsideAnEquivalenceClassMergesByteIdentical) {
  const auto& base = icu_baseline();
  const u64 split = class_split_point(1);
  ASSERT_GT(split, 0u);

  const auto a = scratch_dir("fault-class-shard-a");
  const auto b = scratch_dir("fault-class-shard-b");
  perf::SimSnapshot from = perf::sim_totals().snapshot();
  (void)run_icu(2, make_cfg(a, 8), nullptr, 0, split);
  const u64 first_cycles = detection_cycles(from);
  (void)run_icu(2, make_cfg(b, 8), nullptr, split, base.result.simulated_faults);

  from = perf::sim_totals().snapshot();
  const auto merged = run_icu(2, {}, nullptr, 0, 0, {a.string(), b.string()});
  EXPECT_EQ(merged.ckpt.records_resumed, base.result.simulated_faults);
  EXPECT_EQ(detection_cycles(from), 0u);  // nothing re-simulated
  EXPECT_EQ(merged.canonical_bytes(), base.result.canonical_bytes());
  EXPECT_EQ(icu_report(merged), icu_report(base.result));

  // Merging the first shard alone re-executes the rest, except the classes
  // a merged member already decides.
  from = perf::sim_totals().snapshot();
  const auto partial = run_icu(2, {}, nullptr, 0, 0, {a.string()});
  EXPECT_EQ(partial.ckpt.records_resumed, split);
  EXPECT_EQ(partial.canonical_bytes(), base.result.canonical_bytes());
  EXPECT_EQ(icu_report(partial), icu_report(base.result));
  EXPECT_EQ(first_cycles + detection_cycles(from), base.detection_cycles);
}

TEST(CheckpointCampaign, ForeignManifestRejectedEndToEnd) {
  const auto dir = scratch_dir("fault-foreign");
  {
    // A manifest bound to some other campaign's hash.
    CheckpointWriter w(make_cfg(dir), PayloadKind::kFaultOutcomes,
                       0xDEAD'BEEF'0BAD'F00Dull, 0, nullptr);
    ASSERT_TRUE(w.enabled());
  }
  EXPECT_THROW(run_fwd(1, make_cfg(dir, 4, true)), CheckpointMismatch);
  // And a fresh (non-resume) campaign must refuse the occupied directory.
  EXPECT_THROW(run_fwd(1, make_cfg(dir, 4, false)), CheckpointMismatch);
}

// ---------------------------------------------------------------------------
// Disturbance campaign: record serialisation + kill/resume
// ---------------------------------------------------------------------------

runtime::CampaignSpec small_disturbance_spec() {
  runtime::CampaignSpec spec;
  spec.seed = 0xC0FFEE42;
  spec.runs = 6;
  spec.cores = 2;
  spec.threads = 1;
  spec.routines = {"alu", "shifter"};
  spec.disturb.count = 3;
  spec.disturb.permanent_chance = 0.5;
  return spec;
}

TEST(CheckpointDisturbance, RunRecordSerialisationRoundTripsLosslessly) {
  auto spec = small_disturbance_spec();
  spec.runs = 2;
  const auto res = runtime::run_disturbance_campaign(spec);
  ASSERT_EQ(res.records.size(), 2u);
  for (const runtime::RunRecord& rec : res.records) {
    const auto bytes = runtime::serialize_run_record(rec);
    runtime::RunRecord back;
    ASSERT_TRUE(runtime::deserialize_run_record(bytes, back));
    // Round-trip fixpoint: re-serialising the parse reproduces the bytes.
    EXPECT_EQ(runtime::serialize_run_record(back), bytes);
    EXPECT_EQ(back.seed, rec.seed);

    // Framing errors are rejected, never half-parsed: truncation...
    auto cut = bytes;
    cut.pop_back();
    EXPECT_FALSE(runtime::deserialize_run_record(cut, back));
    // ...trailing garbage...
    auto padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(runtime::deserialize_run_record(padded, back));
    // ...and an empty payload.
    EXPECT_FALSE(runtime::deserialize_run_record({}, back));
    // Flag bytes other than 0 and 1 would parse to `true` and re-serialise
    // as 1, so they are framing errors too: core A's quarantined byte (after
    // the seed and the core count) and the budget_exhausted byte (before the
    // per-kind injection counters).
    const std::size_t quarantined_at = 8 + 1;
    const std::size_t budget_at =
        bytes.size() - 1 - 16 * runtime::kNumDisturbanceKinds;
    for (const std::size_t at : {quarantined_at, budget_at}) {
      for (const u8 flag : {u8{2}, u8{7}}) {
        auto bad = bytes;
        bad[at] = flag;
        EXPECT_FALSE(runtime::deserialize_run_record(bad, back))
            << "offset " << at << " flag " << unsigned{flag};
      }
    }
  }
}

TEST(CheckpointDisturbance, KillAndResumeMatchesStraightRun) {
  const auto spec = small_disturbance_spec();
  const auto straight = runtime::run_disturbance_campaign(spec);

  const auto dir = scratch_dir("dist-kill-resume");
  InterruptToken token;
  token.arm_after(3);
  auto killed_spec = spec;
  killed_spec.checkpoint = make_cfg(dir, 2);
  killed_spec.interrupt = &token;
  const auto killed = runtime::run_disturbance_campaign(killed_spec);
  EXPECT_TRUE(killed.ckpt.interrupted);
  EXPECT_GT(killed.ckpt.shards_flushed, 0u);

  token.clear();
  auto resume_spec = killed_spec;
  resume_spec.checkpoint.resume = true;
  resume_spec.threads = 2;  // resuming on a different worker count is legal
  const auto resumed = runtime::run_disturbance_campaign(resume_spec);
  EXPECT_FALSE(resumed.ckpt.interrupted);
  EXPECT_GT(resumed.ckpt.shards_loaded, 0u);
  EXPECT_GT(resumed.ckpt.records_resumed, 0u);
  EXPECT_EQ(resumed.outcome_vector(), straight.outcome_vector());
  EXPECT_EQ(resumed.digest(), straight.digest());
  EXPECT_EQ(runtime::render_recovery_report(resumed),
            runtime::render_recovery_report(straight));
}

// A journal write failing on a worker thread must surface as an exception
// from the campaign, never as std::terminate, at any thread count. A
// directory squatting on the first shard's temp-file name makes the first
// journal write fail, whichever worker makes it.
TEST(CheckpointDisturbance, JournalWriteFailureThrowsAtAnyThreadCount) {
  for (const unsigned threads : {1u, 2u}) {
    const auto dir = scratch_dir("dist-write-failure");
    fs::create_directory(dir / "shard-000000.ckpt.tmp");
    auto spec = small_disturbance_spec();
    spec.threads = threads;
    spec.checkpoint = make_cfg(dir, 1);
    EXPECT_THROW(runtime::run_disturbance_campaign(spec), std::runtime_error)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// On-disk compatibility: journals written by earlier builds must still resume
// ---------------------------------------------------------------------------

std::vector<const core::SelfTestRoutine*> alu_shifter() {
  static const auto alu = core::find_routine("alu")->make();
  static const auto shifter = core::find_routine("shifter")->make();
  return {alu.get(), shifter.get()};
}

runtime::SoakCampaignSpec pinned_soak_spec() {
  runtime::SoakCampaignSpec spec;
  spec.seed = 0x50AF0001;
  spec.runs = 4;
  spec.threads = 1;
  spec.cores = 2;
  spec.routines = {"alu", "shifter"};
  return spec;
}

// Absolute manifest hashes, not just comparisons between them: a changed
// value means every checkpoint directory already on disk stops resuming.
TEST(CheckpointCompat, ConfigHashesArePinned) {
  const auto routine = core::make_fwd_test(/*with_perf_counters=*/false);
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "ckpt"};
  auto tests = exp::build_scenario_tests(*routine, WrapperKind::kPlain, sc, 0,
                                         /*use_pcs=*/false);
  CampaignConfig cc;
  cc.fault_stride = 8;
  const netlist::FwdNetlist fwd(isa::CoreKind::kA);
  EXPECT_EQ(checkpoint_config_hash(cc, fwd.nl(),
                                   exp::scenario_factory(std::move(tests), sc, 0)()),
            0xa77c'b1ec'31ce'00b7ull);

  const runtime::SchedulePlan plan = runtime::plan_schedule(alu_shifter(), 2);
  EXPECT_EQ(runtime::checkpoint_config_hash(small_disturbance_spec(), plan),
            0xa14b'9f72'ba19'1726ull);
  EXPECT_EQ(runtime::soak_checkpoint_config_hash(pinned_soak_spec(), plan),
            0x7561'0fdf'6eb4'68e2ull);
}

TEST(CheckpointCompat, FaultShardBytesArePinned) {
  // Exhaustive, so the journal holds records of faults that were never
  // simulated themselves, only their class representative.
  const auto dir = scratch_dir("fault-pinned");
  const CampaignResult res = run_icu(1, make_cfg(dir, 32));
  ASSERT_GE(res.ckpt.shards_flushed, 1u);
  const std::vector<u8> shard = read_all(dir / "shard-000000.ckpt");
  EXPECT_EQ(fnv1a(shard.data(), shard.size()), 0x3fc2'e0e9'ea80'7671ull);
}

TEST(CheckpointCompat, DisturbanceShardBytesArePinned) {
  const auto dir = scratch_dir("disturbance-pinned");
  runtime::CampaignSpec spec = small_disturbance_spec();
  spec.checkpoint = make_cfg(dir, 256);
  const runtime::CampaignResult res = runtime::run_disturbance_campaign(spec);
  ASSERT_EQ(res.ckpt.shards_flushed, 1u);
  const std::vector<u8> shard = read_all(dir / "shard-000000.ckpt");
  EXPECT_EQ(fnv1a(shard.data(), shard.size()), 0xd8a2'b938'572c'dd24ull);
}

TEST(CheckpointCompat, SoakShardBytesArePinned) {
  const auto dir = scratch_dir("soak-pinned");
  runtime::SoakCampaignSpec spec = pinned_soak_spec();
  spec.checkpoint = make_cfg(dir, 256);
  const runtime::SoakCampaignResult res = runtime::run_soak_campaign(spec);
  ASSERT_EQ(res.ckpt.shards_flushed, 1u);
  const std::vector<u8> shard = read_all(dir / "shard-000000.ckpt");
  EXPECT_EQ(fnv1a(shard.data(), shard.size()), 0x735b'ec68'1ff7'b65eull);
}

}  // namespace
}  // namespace detstl::fault
