// Experiment drivers: scenario plumbing and the cheap exhibits (Figure 1,
// Table I with one stagger, Table IV). The fault-simulation tables are
// exercised end-to-end by their bench binaries; here we pin the invariants
// that must hold for any configuration.

#include <gtest/gtest.h>

#include "exp/experiments.h"

namespace detstl::exp {
namespace {

TEST(Scenarios, GridCoversCoresPositionsAlignments) {
  const auto grid = nocache_scenario_grid();
  EXPECT_EQ(grid.size(), 12u);
  std::set<unsigned> cores;
  std::set<u32> positions, aligns;
  for (const auto& sc : grid) {
    cores.insert(sc.active_cores);
    positions.insert(sc.position);
    aligns.insert(sc.alignment);
    EXPECT_EQ(sc.alignment % 8, 0u) << "alignment must be packet-granular";
  }
  EXPECT_EQ(cores, (std::set<unsigned>{2, 3}));
  EXPECT_EQ(positions.size(), 3u);
  EXPECT_EQ(aligns, (std::set<u32>{0, 8}));
}

TEST(Scenarios, GradedCoreAlwaysActive) {
  const auto routine = core::make_alu_test();
  for (unsigned graded = 0; graded < 3; ++graded) {
    Scenario sc{2, {0, 0, 0}, 0, 0, "t"};
    auto tests = build_scenario_tests(*routine, core::WrapperKind::kPlain, sc,
                                      graded, false);
    ASSERT_EQ(tests.size(), 2u);
    EXPECT_EQ(tests[0].env.core_id, graded);
    // Core kinds match core ids (core 2 is the 64-bit C).
    for (const auto& t : tests)
      EXPECT_EQ(static_cast<unsigned>(t.env.kind), t.env.core_id);
  }
}

TEST(Scenarios, FactoryBuildsAreDeterministic) {
  const auto routine = core::make_alu_test();
  Scenario sc{3, {0, 3, 7}, 0, 8, "t"};
  auto tests = build_scenario_tests(*routine, core::WrapperKind::kCacheBased, sc, 0,
                                    false);
  auto factory = scenario_factory(tests, sc, 0);
  soc::Soc s1 = factory();
  soc::Soc s2 = factory();
  s1.reset();
  s2.reset();
  for (int i = 0; i < 5000; ++i) {
    s1.tick();
    s2.tick();
  }
  for (unsigned c = 0; c < 3; ++c)
    EXPECT_EQ(s1.core(c).perf().cycles, s2.core(c).perf().cycles);
}

TEST(Fig1, DistancesShowTheParadigm) {
  const auto r = run_fig1();
  EXPECT_EQ(r.ex_distance_cached, 1u);                    // EX->EX excited
  EXPECT_GE(r.ex_distance_single, r.ex_distance_cached);  // flash latency
  EXPECT_GT(r.ex_distance_triple, 4u);                    // contention breaks it
  EXPECT_NE(r.trace_cached.find("add"), std::string::npos);
  EXPECT_NE(r.trace_triple_core.find('-'), std::string::npos);  // stall bubbles
}

TEST(Table1, StallsGrowSuperlinearly) {
  const auto rows = run_table1(/*stagger_samples=*/1);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_GT(rows[1].if_stalls, 2.0 * rows[0].if_stalls);
  EXPECT_GT(rows[2].if_stalls, rows[1].if_stalls);
  for (const auto& r : rows) EXPECT_GT(r.if_stalls, r.mem_stalls);
}

TEST(Table1, StaggerCountOutsideItsRangeThrows) {
  EXPECT_THROW(run_table1(0), std::invalid_argument);
  EXPECT_THROW(run_table1(kTable1Staggers + 1), std::invalid_argument);
}

TEST(Table4, TcmReservesMemoryCacheDoesNot) {
  const auto rows = run_table4();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].approach, "TCM-based");
  EXPECT_GT(rows[0].memory_overhead_bytes, 0u);
  EXPECT_EQ(rows[1].memory_overhead_bytes, 0u);
  EXPECT_GT(rows[0].execution_cycles, 0u);
  EXPECT_GT(rows[1].execution_cycles, 0u);
  // Both deterministic strategies complete under contention too.
  EXPECT_GT(rows[0].contended_cycles, 0u);
  EXPECT_GT(rows[1].contended_cycles, 0u);
}

}  // namespace
}  // namespace detstl::exp
