// Parallel campaign executor: work-queue dispensing invariants (every index
// exactly once, under contention too) and the determinism-under-threading
// contract — the same CampaignConfig must produce a byte-identical
// CampaignResult for every thread count (docs/fault_simulation.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/routines.h"
#include "exp/experiments.h"
#include "fault/work_queue.h"

namespace detstl::fault {
namespace {

using core::WrapperKind;

TEST(WorkQueue, DispensesEveryIndexExactlyOnce) {
  WorkQueue q(100, 7);
  std::vector<unsigned> seen(100, 0);
  std::size_t chunks = 0;
  while (const auto c = q.next()) {
    ++chunks;
    EXPECT_LT(c->begin, c->end);
    EXPECT_LE(c->end, 100u);
    for (std::size_t i = c->begin; i < c->end; ++i) ++seen[i];
  }
  EXPECT_EQ(chunks, (100 + 6) / 7u);
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 1u) << "index " << i << " dispensed " << seen[i] << " times";
  // Exhausted queues stay exhausted.
  EXPECT_FALSE(q.next().has_value());
  EXPECT_FALSE(q.next().has_value());
}

TEST(WorkQueue, EmptyRangeAndChunkPromotion) {
  WorkQueue empty(0, 16);
  EXPECT_FALSE(empty.next().has_value());
  // A zero chunk size must not hand out empty chunks forever.
  WorkQueue q(3, 0);
  EXPECT_EQ(q.chunk_size(), 1u);
  std::size_t n = 0;
  while (q.next()) ++n;
  EXPECT_EQ(n, 3u);
}

TEST(WorkQueue, FinalChunkIsTruncated) {
  WorkQueue q(10, 4);
  const auto a = q.next(), b = q.next(), c = q.next();
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->size(), 4u);
  EXPECT_EQ(b->size(), 4u);
  EXPECT_EQ(c->size(), 2u);  // 8..10
  EXPECT_FALSE(q.next().has_value());
}

TEST(WorkQueue, ExactCoverageUnderContention) {
  constexpr std::size_t kTotal = 100'000;
  constexpr unsigned kThreads = 8;
  WorkQueue q(kTotal, 3);
  std::vector<std::vector<std::size_t>> claimed(kThreads);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < kThreads; ++w) {
    pool.emplace_back([&q, &claimed, w] {
      while (const auto c = q.next())
        for (std::size_t i = c->begin; i < c->end; ++i) claimed[w].push_back(i);
    });
  }
  for (auto& t : pool) t.join();

  std::vector<std::size_t> all;
  for (const auto& v : claimed) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), kTotal) << "indices lost or dispensed twice";
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < kTotal; ++i)
    ASSERT_EQ(all[i], i) << "index " << i << " missing or duplicated";
}

// ---------------------------------------------------------------------------
// Determinism under threading
// ---------------------------------------------------------------------------

CampaignResult run_fwd_campaign(unsigned threads) {
  const auto routine = core::make_fwd_test(/*with_perf_counters=*/false);
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "det"};
  auto tests = exp::build_scenario_tests(*routine, WrapperKind::kPlain, sc, 0,
                                         /*use_pcs=*/false);
  CampaignConfig cc;
  cc.module = Module::kFwd;
  cc.core_id = 0;
  cc.kind = isa::CoreKind::kA;
  cc.fault_stride = 8;  // small campaign; the contract holds for any stride
  cc.threads = threads;
  Campaign campaign(cc, exp::scenario_factory(std::move(tests), sc, 0));
  return campaign.run();
}

void expect_identical(const CampaignResult& a, const CampaignResult& b,
                      const char* what) {
  EXPECT_EQ(a.total_faults, b.total_faults) << what;
  EXPECT_EQ(a.simulated_faults, b.simulated_faults) << what;
  EXPECT_EQ(a.excited, b.excited) << what;
  EXPECT_EQ(a.detected, b.detected) << what;
  EXPECT_EQ(a.detected_signature, b.detected_signature) << what;
  EXPECT_EQ(a.detected_verdict, b.detected_verdict) << what;
  EXPECT_EQ(a.detected_watchdog, b.detected_watchdog) << what;
  EXPECT_EQ(a.good_cycles, b.good_cycles) << what;
  EXPECT_EQ(a.good_verdict.status, b.good_verdict.status) << what;
  EXPECT_EQ(a.good_verdict.signature, b.good_verdict.signature) << what;
  EXPECT_EQ(a.coverage_percent(), b.coverage_percent()) << what;
  EXPECT_EQ(a.coverage_percent_of_total(), b.coverage_percent_of_total()) << what;
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << what;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i)
    ASSERT_EQ(a.outcomes[i], b.outcomes[i])
        << what << ": outcome of fault " << i << " differs";
}

TEST(ParallelCampaign, ResultIdenticalForOneTwoAndEightThreads) {
  const auto serial = run_fwd_campaign(1);
  EXPECT_GT(serial.simulated_faults, 100u);  // non-trivial campaign
  EXPECT_GT(serial.detected, 0u);

  const auto two = run_fwd_campaign(2);
  const auto eight = run_fwd_campaign(8);
  expect_identical(serial, two, "threads=1 vs threads=2");
  expect_identical(serial, eight, "threads=1 vs threads=8");
}

TEST(ParallelCampaign, AutoThreadCountMatchesSerial) {
  // threads = 0 resolves to hardware concurrency — still the same result.
  const auto serial = run_fwd_campaign(1);
  const auto auto_threads = run_fwd_campaign(0);
  expect_identical(serial, auto_threads, "threads=1 vs threads=0 (auto)");
}

TEST(ParallelCampaign, ProgressCallbackObservesAllPhasesWithoutChangingResult) {
  const auto routine = core::make_icu_test();
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "prog"};
  CampaignConfig cc;
  cc.module = Module::kIcu;
  cc.core_id = 0;
  cc.kind = isa::CoreKind::kA;
  cc.fault_stride = 2;
  cc.threads = 2;

  std::vector<CampaignPhase> phases;
  u64 last_detection_done = 0, detection_total = 0;
  cc.progress = [&](const CampaignProgress& p) {
    if (phases.empty() || phases.back() != p.phase) phases.push_back(p.phase);
    EXPECT_LE(p.done, p.total == 0 ? p.done : p.total);
    if (p.phase == CampaignPhase::kDetection) {
      EXPECT_GE(p.done, last_detection_done);  // monotone within the phase
      last_detection_done = p.done;
      detection_total = p.total;
    }
  };
  auto tests = exp::build_scenario_tests(*routine, WrapperKind::kPlain, sc, 0, false);
  Campaign with_progress(cc, exp::scenario_factory(tests, sc, 0));
  const auto res = with_progress.run();

  // All three phases reported, detection driven to completion.
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0], CampaignPhase::kGoodRun);
  EXPECT_EQ(phases[1], CampaignPhase::kScreening);
  EXPECT_EQ(phases[2], CampaignPhase::kDetection);
  EXPECT_EQ(last_detection_done, detection_total);
  EXPECT_EQ(detection_total, res.simulated_faults);

  // The callback is observational: same result without it.
  cc.progress = nullptr;
  Campaign without_progress(cc, exp::scenario_factory(std::move(tests), sc, 0));
  expect_identical(res, without_progress.run(), "progress vs no progress");
}

}  // namespace
}  // namespace detstl::fault
