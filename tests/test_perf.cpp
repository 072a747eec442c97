// stlperf observability subsystem (src/perf/): registry determinism, the
// sim/host JSON schema split and its round-trip, the regression-compare
// semantics behind `stlperf diff/check`, the report writer, and the
// headline invariance the subsystem rests on — the "sim" subtree of a
// campaign's report is byte-identical at 1, 2 and 8 worker threads (only
// host timings may move).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/routines.h"
#include "exp/experiments.h"
#include "fault/campaign.h"
#include "perf/collect.h"
#include "perf/json.h"
#include "perf/metrics.h"
#include "perf/perf_report.h"
#include "perf/sampler.h"
#include "perf/session.h"
#include "perf/simstats.h"
#include "runtime/campaign.h"

namespace detstl::perf {
namespace {

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, CountersAccumulateAndGaugesOverwrite) {
  Registry reg;
  reg.add_counter("a.hits", "core=A", 3);
  reg.add_counter("a.hits", "core=A", 4);
  reg.set_gauge("host.rss", "", 100.0);
  reg.set_gauge("host.rss", "", 200.0);

  const Metric* c = reg.find("a.hits", "core=A");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricKind::kCounter);
  EXPECT_EQ(c->counter, 7u);
  const Metric* g = reg.find("host.rss", "");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->kind, MetricKind::kGauge);
  EXPECT_EQ(g->gauge, 200.0);
  EXPECT_EQ(reg.find("missing", ""), nullptr);
}

TEST(Registry, VisitOrderIsNameLabelLexicographicNotInsertion) {
  Registry reg;
  reg.add_counter("z.last", "", 1);
  reg.add_counter("a.first", "core=B", 1);
  reg.add_counter("a.first", "core=A", 1);
  std::vector<std::string> order;
  reg.visit([&](const std::string& n, const std::string& l, const Metric&) {
    order.push_back(n + "|" + l);
  });
  const std::vector<std::string> want = {"a.first|core=A", "a.first|core=B",
                                         "z.last|"};
  EXPECT_EQ(order, want);
}

TEST(Registry, HistogramBucketsBoundsAndOverflow) {
  Registry reg;
  const std::vector<u64> bounds = {10, 100};
  reg.record_hist("h", "", bounds, 5);     // bucket 0 (<= 10)
  reg.record_hist("h", "", bounds, 10);    // bucket 0 (inclusive bound)
  reg.record_hist("h", "", bounds, 11);    // bucket 1
  reg.record_hist("h", "", bounds, 1000);  // overflow bucket
  const Metric* m = reg.find("h", "");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->hist.counts.size(), 3u);
  EXPECT_EQ(m->hist.counts[0], 2u);
  EXPECT_EQ(m->hist.counts[1], 1u);
  EXPECT_EQ(m->hist.counts[2], 1u);
  EXPECT_EQ(m->hist.total, 4u);
  EXPECT_EQ(m->hist.sum, 5u + 10u + 11u + 1000u);
}

TEST(Registry, FingerprintCoversSimAndIgnoresHost) {
  Registry a, b;
  a.add_counter("sim.cycles", "", 100);
  b.add_counter("sim.cycles", "", 100);
  a.set_gauge("host.wall", "", 1.0);
  b.set_gauge("host.wall", "", 99.0);  // host values differ...
  EXPECT_EQ(a.sim_fingerprint(), b.sim_fingerprint());  // ...fingerprint equal

  b.add_counter("sim.cycles", "", 1);  // sim value differs
  EXPECT_NE(a.sim_fingerprint(), b.sim_fingerprint());
}

// ---------------------------------------------------------------------------
// JSON round-trip and schema rejection
// ---------------------------------------------------------------------------

PerfReport sample_report() {
  PerfReport rep;
  rep.name = "unit";
  rep.detstl_version = "test";
  rep.config_hash = 0xdeadbeefcafef00dull;
  rep.sim_cycles = 123'456;
  rep.sim_units = 42;
  rep.phases.push_back({"warm", 23'456, 2, 0.25});
  rep.phases.push_back({"main", 100'000, 40, 1.75});
  rep.metrics.add_counter("cpu.instret", "core=A", 99'000);
  rep.metrics.record_hist("campaign.run_cycles", "", {100, 1000}, 450);
  rep.metrics.record_hist("campaign.run_cycles", "", {100, 1000}, 40);
  rep.metrics.set_gauge("campaign.units_per_s", "", 21.5);
  rep.metrics.add_counter("ckpt.shards_flushed", "", 7, MetricSource::kHost);
  rep.wall_s = 2.0;
  rep.cpu_s = 3.5;
  rep.peak_rss_kb = 4096;
  return rep;
}

TEST(PerfJson, RoundTripPreservesEverything) {
  const PerfReport rep = sample_report();
  const std::string text = to_json(rep);

  PerfReport back;
  std::string err;
  ASSERT_TRUE(from_json(text, back, &err)) << err;
  EXPECT_EQ(back.schema, kPerfSchemaVersion);
  EXPECT_EQ(back.name, "unit");
  EXPECT_EQ(back.detstl_version, "test");
  EXPECT_EQ(back.config_hash, 0xdeadbeefcafef00dull);
  EXPECT_EQ(back.sim_cycles, 123'456u);
  EXPECT_EQ(back.sim_units, 42u);
  ASSERT_EQ(back.phases.size(), 2u);
  EXPECT_EQ(back.phases[1].name, "main");
  EXPECT_EQ(back.phases[1].sim_cycles, 100'000u);
  EXPECT_EQ(back.phases[1].units, 40u);
  EXPECT_NEAR(back.phases[1].wall_s, 1.75, 1e-9);
  EXPECT_EQ(back.wall_s, 2.0);
  EXPECT_EQ(back.cpu_s, 3.5);
  EXPECT_EQ(back.peak_rss_kb, 4096);

  const Metric* h = back.metrics.find("campaign.run_cycles", "");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->hist.total, 2u);
  EXPECT_EQ(h->hist.sum, 490u);
  ASSERT_EQ(h->hist.counts.size(), 3u);
  EXPECT_EQ(h->hist.counts[0], 1u);
  EXPECT_EQ(h->hist.counts[1], 1u);

  // The round-trip is loss-less where it matters: identical sim subtree and
  // fingerprint, and a re-serialisation reproduces the exact document.
  EXPECT_EQ(sim_canonical(rep), sim_canonical(back));
  EXPECT_EQ(rep.metrics.sim_fingerprint(), back.metrics.sim_fingerprint());
  EXPECT_EQ(to_json(back), text);

  // Host series land in the "host" subtree and keep their tag.
  const Metric* flushed = back.metrics.find("ckpt.shards_flushed", "");
  ASSERT_NE(flushed, nullptr);
  EXPECT_EQ(flushed->source, MetricSource::kHost);
  EXPECT_EQ(flushed->counter, 7u);
  EXPECT_GT(text.find("\"ckpt.shards_flushed\""), text.find("\"host\""));
}

// Reports written by older builds carry "profiled"/"profile" host keys and
// prof.* series; they still load, and the series render as ordinary host
// metrics.
TEST(PerfJson, LegacyProfileKeysAndSeriesStillLoad) {
  PerfReport rep = sample_report();
  rep.metrics.add_counter("prof.ns", "scope=cpu.fetch", 35'000,
                          MetricSource::kHost);
  std::string text = to_json(rep);
  const std::string host = "\"host\": {\n";
  const auto pos = text.find(host);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + host.size(),
              "    \"profiled\": true,\n    \"profile\": [{\"scope\": "
              "\"cpu.fetch\", \"calls\": 700, \"ns\": 35000}],\n");

  PerfReport back;
  std::string err;
  ASSERT_TRUE(from_json(text, back, &err)) << err;
  EXPECT_EQ(to_json(back), to_json(rep));
  const std::string rendered = render_report(back);
  EXPECT_NE(rendered.find("| prof.ns"), std::string::npos);
  EXPECT_EQ(rendered.find("subsystem profile"), std::string::npos);
}

TEST(PerfJson, UnknownSchemaVersionIsRejected) {
  std::string text = to_json(sample_report());
  const auto pos = text.find("\"stlperf_schema\": 1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::strlen("\"stlperf_schema\": 1"), "\"stlperf_schema\": 99");
  PerfReport back;
  std::string err;
  EXPECT_FALSE(from_json(text, back, &err));
  EXPECT_NE(err.find("schema"), std::string::npos) << err;
}

TEST(PerfJson, MalformedDocumentsFailWithReason) {
  PerfReport back;
  std::string err;
  EXPECT_FALSE(from_json("", back, &err));
  EXPECT_FALSE(from_json("{\"stlperf_schema\": 1", back, &err));
  EXPECT_FALSE(from_json("[1,2,3]", back, &err));
  EXPECT_FALSE(err.empty());

  // A \u escape is exactly four hex digits: no sign, space or 0x prefix,
  // and no stopping at the first non-hex character (\u00zz once decoded to
  // a NUL that cut the rendered report short).
  const std::string text = to_json(sample_report());
  const std::string quoted = "\"unit\"";
  const std::size_t at = text.find(quoted);
  ASSERT_NE(at, std::string::npos);
  const auto with_name = [&](const std::string& name) {
    return std::string(text).replace(at, quoted.size(), "\"" + name + "\"");
  };
  for (const char* bad : {"ab\\u00zzcd\\u-041", "\\u-041", "\\u +41", "\\u0x41"}) {
    err.clear();
    EXPECT_FALSE(from_json(with_name(bad), back, &err)) << bad;
    EXPECT_NE(err.find("four hex digits"), std::string::npos) << bad << ": " << err;
  }
  ASSERT_TRUE(from_json(with_name("\\u0041b\\u00e9"), back, &err)) << err;
  EXPECT_EQ(back.name, "Ab\xc3\xa9");
}

TEST(PerfJson, MalformedNumbersAreRejected) {
  // A count is a plain non-negative decimal integer that fits in 64 bits,
  // and the config hash is "0x" and hex: a negative count once printed as
  // -50,148, an exponent read as 1 and a non-hex hash as zero.
  const std::string text = to_json(sample_report());
  const auto with = [&](const std::string& from, const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return std::string(text).replace(at, from.size(), to);
  };
  PerfReport back;
  std::string err;
  ASSERT_TRUE(from_json(text, back, &err)) << err;
  for (const char* bad : {"-50148", "1.5e3", "18446744073709551616"}) {
    err.clear();
    EXPECT_FALSE(from_json(with("\"cycles\": 123456", std::string("\"cycles\": ") + bad),
                           back, &err))
        << bad;
    EXPECT_NE(err.find("sim.cycles"), std::string::npos) << bad << ": " << err;
  }
  err.clear();
  EXPECT_FALSE(from_json(with("\"value\": 99000", "\"value\": -1"), back, &err));
  EXPECT_NE(err.find("counter cpu.instret"), std::string::npos) << err;
  for (const char* bad : {"zz15e26534487a7de9", "deadbeefcafef00d", "0x", "0x-1",
                          "0x1ffffffffffffffff"}) {
    err.clear();
    EXPECT_FALSE(from_json(with("0xdeadbeefcafef00d", bad), back, &err)) << bad;
    EXPECT_NE(err.find("config_hash"), std::string::npos) << bad << ": " << err;
  }
}

TEST(PerfJson, ExactU64ValuesSurviveTheNumberModel) {
  PerfReport rep = sample_report();
  rep.sim_cycles = 0xffffffffffffffffull;  // would lose precision as double
  PerfReport back;
  std::string err;
  ASSERT_TRUE(from_json(to_json(rep), back, &err)) << err;
  EXPECT_EQ(back.sim_cycles, 0xffffffffffffffffull);
}

// ---------------------------------------------------------------------------
// Comparison semantics (stlperf diff/check)
// ---------------------------------------------------------------------------

TEST(PerfCompare, TwentyPercentSlowdownTripsFifteenButNotTwentyFive) {
  const PerfReport baseline = sample_report();
  PerfReport slow = sample_report();
  slow.wall_s = baseline.wall_s * 1.25;  // sim-MHz drops by exactly 20%

  const CompareOutcome cmp = compare_reports(baseline, slow);
  EXPECT_TRUE(cmp.comparable);
  EXPECT_FALSE(cmp.config_changed);
  EXPECT_TRUE(cmp.sim_identical);
  EXPECT_NEAR(cmp.regression_pct, 20.0, 1e-6);
  EXPECT_TRUE(cmp.regressed(15.0));
  EXPECT_FALSE(cmp.regressed(25.0));

  const std::string text = render_diff(baseline, slow, cmp, 15.0);
  EXPECT_NE(text.find("stlperf: REGRESSION"), std::string::npos);
}

TEST(PerfCompare, SpeedupNeverRegresses) {
  const PerfReport baseline = sample_report();
  PerfReport fast = sample_report();
  fast.wall_s = baseline.wall_s / 2.0;
  const CompareOutcome cmp = compare_reports(baseline, fast);
  EXPECT_LT(cmp.regression_pct, 0.0);
  EXPECT_FALSE(cmp.regressed(0.0));
}

TEST(PerfCompare, DifferentBenchNamesAreNotComparable) {
  const PerfReport baseline = sample_report();
  PerfReport other = sample_report();
  other.name = "another-bench";
  const CompareOutcome cmp = compare_reports(baseline, other);
  EXPECT_FALSE(cmp.comparable);
  const std::string text = render_diff(baseline, other, cmp, 15.0);
  EXPECT_NE(text.find("NOT COMPARABLE"), std::string::npos);
}

TEST(PerfCompare, ConfigHashMismatchIsNotedButStillGates) {
  const PerfReport baseline = sample_report();
  PerfReport changed = sample_report();
  changed.config_hash ^= 1;
  changed.sim_cycles += 1;  // different workload, different sim subtree
  const CompareOutcome cmp = compare_reports(baseline, changed);
  EXPECT_TRUE(cmp.comparable);
  EXPECT_TRUE(cmp.config_changed);
  EXPECT_FALSE(cmp.sim_identical);
  EXPECT_FALSE(cmp.determinism_break());
  EXPECT_FALSE(cmp.notes.empty());
}

TEST(PerfCompare, SimDivergenceUnderSameConfigHashIsADeterminismBreak) {
  const PerfReport baseline = sample_report();
  const CompareOutcome same = compare_reports(baseline, baseline);
  EXPECT_FALSE(same.determinism_break());
  EXPECT_NE(render_diff(baseline, baseline, same, 15.0)
                .find("stlperf: OK — sim-MHz delta +0.0%"),
            std::string::npos);

  PerfReport diverged = sample_report();
  diverged.metrics.add_counter("cpu.instret", "core=A", 1);
  const CompareOutcome cmp = compare_reports(baseline, diverged);
  EXPECT_TRUE(cmp.comparable);
  EXPECT_FALSE(cmp.config_changed);
  EXPECT_FALSE(cmp.sim_identical);
  EXPECT_FALSE(cmp.regressed(15.0));  // same speed, yet it must not pass
  EXPECT_TRUE(cmp.determinism_break());
  const std::string text = render_diff(baseline, diverged, cmp, 15.0);
  EXPECT_NE(text.find("stlperf: DETERMINISM BREAK"), std::string::npos);
  EXPECT_EQ(text.find("stlperf: OK"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

TEST(Session, FillsPhasesTotalsAndHash) {
  Session s("unit-session");
  s.hash_knob("stride", 3);
  sim_totals().add(SimStat::kSocRunCycles, 100);
  s.mark_phase("first");
  sim_totals().add(SimStat::kSocRunCycles, 20);
  const PerfReport& rep = s.close();

  fault::ConfigHasher want;
  want.str("unit-session").str("stride").u64v(3);
  EXPECT_EQ(rep.name, "unit-session");
  EXPECT_EQ(rep.config_hash, want.digest());
  EXPECT_EQ(rep.sim_cycles, 120u);
  ASSERT_EQ(rep.phases.size(), 2u);
  EXPECT_EQ(rep.phases[0].sim_cycles, 100u);
  EXPECT_EQ(rep.phases[1].name, "tail");
  EXPECT_EQ(rep.phases[1].sim_cycles, 20u);
  EXPECT_EQ(rep.metrics.find("sim.soc_run_cycles", "")->counter, 120u);
  EXPECT_EQ(&s.close(), &rep);  // closing twice changes nothing
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

TEST(Sampler, WallAdvancesAndRssIsSane) {
  HostTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100'000; ++i) sink = sink + i * 0.5;
  const HostUsage u = t.sample();
  EXPECT_GT(u.wall_s, 0.0);
  EXPECT_GE(u.cpu_s, 0.0);
  EXPECT_GT(peak_rss_kb(), 0);  // Linux/macOS both support RUSAGE
}

// ---------------------------------------------------------------------------
// The headline contract: sim metrics byte-identical across thread counts
// ---------------------------------------------------------------------------

fault::CampaignResult run_fwd_campaign(unsigned threads) {
  const auto routine = core::make_fwd_test(/*with_perf_counters=*/false);
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "perf-det"};
  auto tests = exp::build_scenario_tests(*routine, core::WrapperKind::kPlain, sc,
                                         0, /*use_pcs=*/false);
  fault::CampaignConfig cc;
  cc.module = fault::Module::kFwd;
  cc.core_id = 0;
  cc.kind = isa::CoreKind::kA;
  cc.fault_stride = 32;  // small but non-trivial
  cc.threads = threads;
  fault::Campaign campaign(cc, exp::scenario_factory(std::move(tests), sc, 0));
  return campaign.run();
}

/// The exact report a bench would emit for this campaign, minus host noise.
PerfReport report_for(const fault::CampaignResult& r, const SimSnapshot& delta) {
  PerfReport rep;
  rep.name = "threads-invariance";
  rep.detstl_version = "test";
  rep.config_hash = 1;
  rep.sim_cycles = delta.sim_cycles();
  rep.sim_units = delta.units();
  rep.phases.push_back({"campaign", delta.sim_cycles(), delta.units(), 0.5});
  collect_fault_result(rep.metrics, r, "module=fwd");
  collect_sim_totals(rep.metrics, delta);
  return rep;
}

TEST(ThreadInvariance, FaultCampaignSimSubtreeByteIdenticalAt1_2_8Threads) {
  const SimSnapshot s0 = sim_totals().snapshot();
  const auto r1 = run_fwd_campaign(1);
  const SimSnapshot s1 = sim_totals().snapshot();
  const auto r2 = run_fwd_campaign(2);
  const SimSnapshot s2 = sim_totals().snapshot();
  const auto r8 = run_fwd_campaign(8);
  const SimSnapshot s8 = sim_totals().snapshot();

  // The class count is thread-invariant and outside the resume contract's
  // canonical bytes.
  EXPECT_GT(r1.fault_classes, 0u);
  EXPECT_LE(r1.fault_classes, r1.simulated_faults);
  EXPECT_EQ(r1.fault_classes, r8.fault_classes);
  EXPECT_EQ(r1.canonical_bytes(), r2.canonical_bytes());
  EXPECT_EQ(r1.canonical_bytes(), r8.canonical_bytes());

  // The process-global sim totals, the one home of the campaign's work
  // counts, advanced identically per campaign.
  const SimSnapshot d1 = s1.since(s0), d2 = s2.since(s1), d8 = s8.since(s2);
  EXPECT_EQ(d1.v, d2.v);
  EXPECT_EQ(d1.v, d8.v);
  // Campaign work lands in the campaign stats: the good run twice (once
  // traced, once to place phase 2's evenly spaced checkpoints). The golden
  // run build_wrapped executes while assembling the routine lands in
  // kSocRunCycles.
  EXPECT_EQ(d1[SimStat::kGoodRunCycles], 2 * r1.good_cycles);
  EXPECT_GT(d1[SimStat::kSocRunCycles], 0u);
  EXPECT_EQ(d1[SimStat::kFaultUnits], r1.simulated_faults);
  // Screen replays, detection re-run cycles, and the detection replicas'
  // memoised module models (calls answered and netlist settles taken): all
  // happened, the same at every thread count.
  for (const SimStat s : {SimStat::kScreenCalls, SimStat::kDetectionCycles,
                          SimStat::kDetectionModuleCalls,
                          SimStat::kDetectionModuleEvals}) {
    EXPECT_GT(d1[s], 0u) << sim_stat_name(s);
    EXPECT_EQ(d1[s], d2[s]) << sim_stat_name(s);
    EXPECT_EQ(d1[s], d8[s]) << sim_stat_name(s);
  }
  EXPECT_LT(d1[SimStat::kDetectionModuleEvals], d1[SimStat::kDetectionModuleCalls]);

  // The full schema-level contract: byte-identical "sim" subtrees.
  const std::string sim1 = sim_canonical(report_for(r1, d1));
  const std::string sim2 = sim_canonical(report_for(r2, d2));
  const std::string sim8 = sim_canonical(report_for(r8, d8));
  EXPECT_EQ(sim1, sim2);
  EXPECT_EQ(sim1, sim8);
  EXPECT_NE(sim1.find("\"cycles\""), std::string::npos);
  const PerfReport rep1 = report_for(r1, d1);
  const Metric* classes = rep1.metrics.find("campaign.faults.classes", "module=fwd");
  ASSERT_NE(classes, nullptr);
  EXPECT_EQ(classes->source, MetricSource::kSim);
  EXPECT_EQ(classes->counter, r1.fault_classes);
}

runtime::CampaignResult run_disturb(unsigned threads) {
  runtime::CampaignSpec spec;
  spec.seed = 0xd15b'0001;
  spec.runs = 4;
  spec.cores = 2;
  spec.routines = {"alu"};
  spec.disturb.count = 4;
  spec.threads = threads;
  return runtime::run_disturbance_campaign(spec);
}

TEST(ThreadInvariance, DisturbanceCampaignSimTotalsMatchAcrossThreads) {
  const SimSnapshot s0 = sim_totals().snapshot();
  const auto r1 = run_disturb(1);
  const SimSnapshot s1 = sim_totals().snapshot();
  const auto r2 = run_disturb(2);
  const SimSnapshot s2 = sim_totals().snapshot();

  EXPECT_EQ(r1.outcome_vector(), r2.outcome_vector());
  const SimSnapshot d1 = s1.since(s0), d2 = s2.since(s1);
  EXPECT_EQ(d1.v, d2.v);
  EXPECT_EQ(d1[SimStat::kDisturbRuns], 4u);
  EXPECT_GT(d1[SimStat::kDisturbCycles], 0u);

  // collect_disturbance_result is sim-pure given equal results.
  Registry a, b;
  collect_disturbance_result(a, r1, "");
  collect_disturbance_result(b, r2, "");
  EXPECT_EQ(a.sim_fingerprint(), b.sim_fingerprint());
}

}  // namespace
}  // namespace detstl::perf
