// The static determinism verifier as executable invariants:
//  * CFG construction: reachability follows branches/calls, stops at halt,
//    never decodes embedded data;
//  * interval analysis resolves li/la-based addressing and bounds strided
//    loop pointers to their declared data region;
//  * each negative fixture trips exactly its rule class;
//  * crafted I-cache and D-cache set aliasing is rejected;
//  * the no-write-allocate dummy-load ablation is flagged on the real
//    wrapper output, and the fix-up makes it clean;
//  * every shipped routine lints clean under both write-allocate modes;
//  * build_wrapped() surfaces the report by default and kEnforce throws.

#include <gtest/gtest.h>

#include "analysis/absint.h"
#include "analysis/analyzer.h"
#include "analysis/fixtures.h"
#include "analysis/sarif.h"
#include "core/routines.h"
#include "core/scenario_matrix.h"
#include "core/wrapper.h"

namespace detstl::analysis {
namespace {

using namespace isa;

constexpr u32 kBase = mem::kFlashBase + 0x1000;
constexpr u32 kData = mem::kSramBase + 0x8000;

// ----------------------------------------------------------------------------
// CFG construction
// ----------------------------------------------------------------------------

TEST(Cfg, StraightLineIsOneBlockEndingAtHalt) {
  Assembler a(kBase);
  a.addi(R1, R0, 1);
  a.addi(R2, R1, 2);
  a.halt();
  a.word(0xdeadbeef);  // data after halt: must not be decoded
  const Program p = a.assemble();
  Cfg g(ImageView(p), {p.entry()});
  ASSERT_EQ(g.blocks().size(), 1u);
  const BasicBlock& bb = g.blocks().begin()->second;
  EXPECT_EQ(bb.begin, kBase);
  EXPECT_EQ(bb.end, kBase + 12);
  EXPECT_TRUE(bb.succs.empty());
  EXPECT_FALSE(bb.falls_off);
  EXPECT_FALSE(g.reachable(kBase + 12));  // the data word
}

TEST(Cfg, BranchSplitsBlocksAndRecordsBackEdge) {
  Assembler a(kBase);
  a.addi(R1, R0, 3);          // kBase
  a.label("loop");            // kBase+4
  a.addi(R1, R1, -1);
  a.bne(R1, R0, "loop");      // kBase+8: back edge
  a.halt();                   // kBase+12
  const Program p = a.assemble();
  Cfg g(ImageView(p), {p.entry()});
  ASSERT_EQ(g.blocks().size(), 3u);
  const auto edges = g.back_edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].first, kBase + 8);
  EXPECT_EQ(edges[0].second, kBase + 4);
  const BasicBlock* loop = g.block_at(kBase + 4);
  ASSERT_NE(loop, nullptr);
  ASSERT_EQ(loop->succs.size(), 2u);  // taken + fall-through
}

TEST(Cfg, GotoIdiomHasNoFallthroughSuccessor) {
  Assembler a(kBase);
  a.beq(R0, R0, "skip");  // unconditional by same-register folding
  a.word(0);              // never reached, never decoded
  a.label("skip");
  a.halt();
  const Program p = a.assemble();
  Cfg g(ImageView(p), {p.entry()});
  EXPECT_FALSE(g.reachable(kBase + 4));
  const BasicBlock* b0 = g.block_of(kBase);
  ASSERT_NE(b0, nullptr);
  EXPECT_FALSE(b0->falls_off);
  ASSERT_EQ(b0->succs.size(), 1u);
  EXPECT_EQ(b0->succs[0], kBase + 8);
}

TEST(Cfg, CallApproximationReachesCalleeAndContinuation) {
  Assembler a(kBase);
  a.jal(R31, "sub");   // call
  a.halt();            // continuation
  a.label("sub");
  a.addi(R1, R0, 7);
  a.ret();
  const Program p = a.assemble();
  Cfg g(ImageView(p), {p.entry()});
  EXPECT_TRUE(g.reachable(kBase + 4));   // halt after the call
  EXPECT_TRUE(g.reachable(kBase + 8));   // callee body
  EXPECT_TRUE(g.reachable(kBase + 12));  // ret
}

// ----------------------------------------------------------------------------
// Interval analysis
// ----------------------------------------------------------------------------

TEST(ConstProp, LiBasedAddressingResolvesToConstant) {
  Assembler a(kBase);
  a.li(R1, kData);        // kBase..kBase+8
  a.lw(R2, R1, 12);       // kBase+8
  a.halt();
  const Program p = a.assemble();
  Cfg g(ImageView(p), {p.entry()});
  const ConstPropResult cp = propagate(g, {});
  auto it = cp.access_addr.find(kBase + 8);
  ASSERT_NE(it, cp.access_addr.end());
  EXPECT_TRUE(it->second.is_const());
  EXPECT_EQ(it->second.lo, kData + 12);
}

TEST(ConstProp, StridedLoopPointerStaysWithinDeclaredRegion) {
  Assembler a(kBase);
  a.li(R1, kData);
  a.li(R2, kData + 1024);  // big enough to force widening
  a.label("loop");
  a.lw(R3, R1, 0);         // kBase+16
  a.addi(R1, R1, 4);
  a.bne(R1, R2, "loop");
  a.halt();
  const Program p = a.assemble();
  Cfg g(ImageView(p), {p.entry()});
  const ConstPropResult cp = propagate(g, {{kData, 1024}});
  auto it = cp.access_addr.find(kBase + 16);
  ASSERT_NE(it, cp.access_addr.end());
  ASSERT_TRUE(it->second.bounded());
  EXPECT_GE(it->second.lo, kData);
  EXPECT_LE(it->second.hi, kData + 1024);
}

TEST(ConstProp, MtvecWriteIsCollectedAsTrapRoot) {
  Assembler a(kBase);
  a.la(R1, "isr");
  a.csrw(Csr::kMtvec, R1);
  a.halt();
  a.label("isr");
  a.eret();
  const Program p = a.assemble();
  Cfg g(ImageView(p), {p.entry()});
  const ConstPropResult cp = propagate(g, {});
  ASSERT_EQ(cp.mtvec_targets.size(), 1u);
  EXPECT_EQ(cp.mtvec_targets[0], p.symbol("isr"));
}

// ----------------------------------------------------------------------------
// Rule classes on negative fixtures
// ----------------------------------------------------------------------------

TEST(Analyzer, EveryNegativeFixtureTripsItsRule) {
  for (const auto& f : negative_fixtures()) {
    const Report rep = analyze(f.prog, f.cfg);
    EXPECT_TRUE(rep.has(f.expect)) << f.name << ":\n" << rep.format();
    if (f.expect_severity == Severity::kError) {
      EXPECT_FALSE(rep.clean()) << f.name;
    }
  }
}

TEST(Analyzer, CraftedIcacheSetAliasingIsRejected) {
  const auto fixtures = negative_fixtures();
  const Fixture* f = find_fixture(fixtures, "set-conflict");
  ASSERT_NE(f, nullptr);
  const Report rep = analyze(f->prog, f->cfg);
  ASSERT_TRUE(rep.has(Rule::kIcacheConflict)) << rep.format();
  // Exactly the one conflict — no collateral findings.
  EXPECT_EQ(rep.errors(), 1u) << rep.format();
}

TEST(Analyzer, CraftedDcacheSetAliasingIsRejected) {
  // Default D-cache: 4 KiB, 2-way, 32 B lines -> the set index cycles every
  // 2 KiB. Three loads 2 KiB apart alias one set beyond the associativity.
  Assembler a(kBase);
  a.li(R1, kData);
  a.li(R5, 2);
  a.label("loop");
  a.lw(R2, R1, 0);
  a.lw(R3, R1, 2048);
  a.lw(R4, R1, 4096);
  a.addi(R5, R5, -1);
  a.bne(R5, R0, "loop");
  a.halt();
  AnalysisConfig cfg;
  cfg.loop_symbol = "loop";
  cfg.data_regions = {{kData, 8192}};
  const Report rep = analyze(a.assemble(), cfg);
  EXPECT_TRUE(rep.has(Rule::kDcacheConflict)) << rep.format();

  // Two lines per set is within the associativity: clean.
  Assembler b(kBase);
  b.li(R1, kData);
  b.li(R5, 2);
  b.label("loop");
  b.lw(R2, R1, 0);
  b.lw(R3, R1, 2048);
  b.addi(R5, R5, -1);
  b.bne(R5, R0, "loop");
  b.halt();
  const Report rep2 = analyze(b.assemble(), cfg);
  EXPECT_TRUE(rep2.clean()) << rep2.format();
}

// ----------------------------------------------------------------------------
// The no-write-allocate dummy-load rule on real wrapper output
// ----------------------------------------------------------------------------

core::BuildEnv nwa_env(bool omit_fixup) {
  core::BuildEnv env;
  env.write_allocate = false;
  env.omit_nwa_dummy_loads = omit_fixup;
  return env;
}

TEST(Analyzer, NwaAblationIsFlaggedOnRealWrapperOutput) {
  // The fwd routine spills its signature to a store-only cache line — the
  // exact pattern the dummy-load fix-up exists for. Ablating the fix-up
  // under no-write-allocate must be flagged; restoring it must be clean.
  const auto routine = core::make_fwd_test(false);
  const core::BuiltTest bad = core::build_wrapped(
      *routine, core::WrapperKind::kCacheBased, nwa_env(true));
  EXPECT_TRUE(bad.lint.has(Rule::kNwaMissingDummyLoad)) << bad.lint.format();
  EXPECT_FALSE(bad.lint.clean());

  const core::BuiltTest good = core::build_wrapped(
      *routine, core::WrapperKind::kCacheBased, nwa_env(false));
  EXPECT_TRUE(good.lint.clean()) << good.lint.format();
}

TEST(Analyzer, NwaAblationIsHarmlessWhenARoundTripLoadCoversTheLine) {
  // The ALU routine's only store is followed by an explicit load of the same
  // word (a data-path round trip), so the line is allocated either way — the
  // analyzer must not cry wolf here even with the fix-up ablated.
  const auto routine = core::make_alu_test();
  const core::BuiltTest bt = core::build_wrapped(
      *routine, core::WrapperKind::kCacheBased, nwa_env(true));
  EXPECT_TRUE(bt.lint.clean()) << bt.lint.format();
}

TEST(Analyzer, EnforceModeThrowsOnAblatedBuild) {
  core::BuildEnv env = nwa_env(true);
  env.lint = core::LintMode::kEnforce;
  const auto routine = core::make_fwd_test(false);
  EXPECT_THROW(
      core::build_wrapped(*routine, core::WrapperKind::kCacheBased, env),
      AnalysisError);
}

TEST(Analyzer, OffModeSkipsTheReport) {
  core::BuildEnv env;
  env.lint = core::LintMode::kOff;
  const auto routine = core::make_alu_test();
  const core::BuiltTest bt =
      core::build_wrapped(*routine, core::WrapperKind::kCacheBased, env);
  EXPECT_TRUE(bt.lint.diagnostics().empty());
}

// ----------------------------------------------------------------------------
// Regression: every shipped routine lints clean under both WA modes
// ----------------------------------------------------------------------------

std::vector<std::unique_ptr<core::SelfTestRoutine>> shipped_routines() {
  std::vector<std::unique_ptr<core::SelfTestRoutine>> rs;
  rs.push_back(core::make_alu_test());
  rs.push_back(core::make_rf_march_test());
  rs.push_back(core::make_shifter_test());
  rs.push_back(core::make_branch_test());
  rs.push_back(core::make_muldiv_test());
  rs.push_back(core::make_fwd_test(false));
  rs.push_back(core::make_fwd_test(true));
  rs.push_back(core::make_icu_test());
  return rs;
}

TEST(Analyzer, ShippedRoutinesLintCleanUnderBothWriteAllocateModes) {
  for (const auto& r : shipped_routines()) {
    for (bool wa : {true, false}) {
      core::BuildEnv env;
      env.write_allocate = wa;
      const core::BuiltTest bt =
          core::build_wrapped(*r, core::WrapperKind::kCacheBased, env);
      EXPECT_TRUE(bt.lint.clean())
          << r->name() << " wa=" << wa << "\n" << bt.lint.format();
      EXPECT_EQ(bt.lint.warnings(), 0u)
          << r->name() << " wa=" << wa << "\n" << bt.lint.format();
    }
  }
}

TEST(Analyzer, ShippedRoutinesLintCleanOnEveryCoreKind) {
  for (unsigned c = 0; c < 3; ++c) {
    core::BuildEnv env;
    env.kind = static_cast<CoreKind>(c);
    env.core_id = c;
    const auto r = core::make_alu_test();
    const core::BuiltTest bt =
        core::build_wrapped(*r, core::WrapperKind::kCacheBased, env);
    EXPECT_TRUE(bt.lint.clean()) << "core " << c << "\n" << bt.lint.format();
  }
}

// ----------------------------------------------------------------------------
// CFG / loop-structure corner cases
// ----------------------------------------------------------------------------

TEST(Cfg, MultiLatchLoopMergesBackEdgesIntoOneRegion) {
  // Two conditional latches returning to the same head — a 'continue'-style
  // loop. The region must extend to the *widest* back edge.
  Assembler a(kBase);
  a.li(R1, 4);
  a.label("loop");
  a.addi(R1, R1, -1);
  a.beq(R1, R0, "done");
  a.andi(R2, R1, 1);
  a.bne(R2, R0, "loop");  // latch 1: odd counter continues early
  a.addi(R3, R3, 1);
  a.bne(R1, R0, "loop");  // latch 2: even counter's full body
  a.label("done");
  a.halt();
  const Program p = a.assemble();
  Cfg g(ImageView(p), {p.entry()});
  const LoopRegion loop = find_loop(p, g, "loop");
  ASSERT_TRUE(loop.found);
  EXPECT_EQ(loop.head, p.symbol("loop"));
  EXPECT_EQ(loop.end, p.symbol("done") - 4);  // the second latch

  AnalysisConfig cfg;
  cfg.loop_symbol = "loop";
  const Report rep = analyze(p, cfg);  // must terminate, not assert/crash
  // Data-dependent latches defeat the replay argument, so the conservative
  // verdict may be exec-unproven — but the loop itself must be recognised
  // (no "no loop found" finding) and nothing may be misread as unreachable.
  for (const auto& d : rep.diagnostics())
    EXPECT_NE(d.rule, Rule::kUnreachableEntry) << rep.format();
}

TEST(Cfg, CodeAfterHaltStaysUndecoded) {
  Assembler a(kBase);
  a.li(R1, 1);
  a.halt();
  a.addi(R2, R2, 1);   // unreachable
  a.word(0xffffffff);  // garbage that must never be decoded
  const Program p = a.assemble();
  Cfg g(ImageView(p), {p.entry()});
  EXPECT_FALSE(g.reachable(kBase + 12));
  AnalysisConfig cfg;
  cfg.check_cache_determinism = false;
  const Report rep = analyze(p, cfg);
  EXPECT_TRUE(rep.clean()) << rep.format();
}

TEST(Analyzer, JalrThroughLoadedPointerDegradesToWarning) {
  // The in-loop indirect call cannot be resolved: the footprint may be
  // incomplete, which is a warning — never a crash, never a spurious error
  // (every resolvable access is still proven).
  const auto fixtures = negative_fixtures();
  const Fixture* f = find_fixture(fixtures, "indirect-loop-call");
  ASSERT_NE(f, nullptr);
  const Report rep = analyze(f->prog, f->cfg);
  EXPECT_TRUE(rep.has(Rule::kUnresolvedAddress)) << rep.format();
  EXPECT_EQ(rep.errors(), 0u) << rep.format();
}

// ----------------------------------------------------------------------------
// Abstract interpretation: proof obligations
// ----------------------------------------------------------------------------

TEST(AbsInt, ShippedRoutineDischargesEveryObligation) {
  const auto routine = core::find_routine("alu")->make();
  core::BuildEnv env;
  const Program prog =
      core::assemble_wrapped(*routine, core::WrapperKind::kCacheBased, env);
  const AnalysisConfig acfg =
      core::lint_config(*routine, core::WrapperKind::kCacheBased, env);
  const ProgramModel model = build_model(prog, acfg);
  const AbsIntResult ai = interpret(prog, acfg, model);
  ASSERT_TRUE(ai.analyzable) << ai.not_analyzable_why;
  EXPECT_TRUE(ai.all_proven());
  EXPECT_EQ(ai.status(ObligationKind::kExecMissFree),
            ObligationStatus::kProven);
  EXPECT_EQ(ai.status(ObligationKind::kCrossCoreDisjoint),
            ObligationStatus::kNotApplicable);  // single-core scenario
  // Closed form for the default geometry: t_max = 1 + 8 + 3*2 = 15,
  // d_max = (3-1)*15 + 14 = 44 with one core's three requesters.
  EXPECT_EQ(ai.bound.t_max, 15u);
  EXPECT_EQ(ai.bound.d_max, 44u);
  EXPECT_FALSE(ai.predicted_loading_ilines.empty());
  EXPECT_FALSE(ai.predicted_loading_dlines.empty());
}

TEST(AbsInt, SetConflictRefutesTheNoEvictionPremise) {
  const auto fixtures = negative_fixtures();
  const Fixture* f = find_fixture(fixtures, "dcache-conflict");
  ASSERT_NE(f, nullptr);
  const AbsIntResult ai = interpret(f->prog, f->cfg);
  ASSERT_TRUE(ai.analyzable);
  EXPECT_EQ(ai.status(ObligationKind::kSetConflictFree),
            ObligationStatus::kRefuted);
  EXPECT_FALSE(ai.all_proven());
}

TEST(AbsInt, PeerOverlapRefutesCrossCoreDisjointness) {
  const auto fixtures = negative_fixtures();
  const Fixture* f = find_fixture(fixtures, "ai-cross-core-overlap");
  ASSERT_NE(f, nullptr);
  const AbsIntResult ai = interpret(f->prog, f->cfg);
  ASSERT_TRUE(ai.analyzable);
  EXPECT_EQ(ai.status(ObligationKind::kCrossCoreDisjoint),
            ObligationStatus::kRefuted);
}

// ----------------------------------------------------------------------------
// Scenario matrix + SARIF
// ----------------------------------------------------------------------------

TEST(ScenarioMatrix, DefaultGridSweepsAtLeast100Configurations) {
  EXPECT_EQ(core::default_matrix_grid().size(), 144u);
}

TEST(ScenarioMatrix, SinglePointSmokeProvesOneRoutine) {
  const core::MatrixPoint p;  // default geometry, 1 core, placement 0
  const auto rep = core::run_matrix({p}, {core::find_routine("alu")});
  ASSERT_EQ(rep.configurations(), 1u);
  EXPECT_TRUE(rep.all_proven()) << core::format_matrix(rep);
  EXPECT_EQ(rep.cells[0].proofs, 1u);
  EXPECT_EQ(rep.cells[0].d_max, 44u);
  EXPECT_NE(core::matrix_json(rep).find("\"all_proven\":true"),
            std::string::npos);
}

TEST(ScenarioMatrix, SweepMatchesOnePointSweeps) {
  // run_matrix proves image by image, not point by point. A grid mixing
  // proven and refuted cells (1 KiB and direct-mapped caches fail) checks
  // that the table, the JSON and the order of the failure rows are those of
  // proving each point on its own.
  std::vector<core::MatrixPoint> grid;
  for (const u32 ikb : {1u, 2u, 8u}) {
    for (const unsigned ways : {1u, 2u}) {
      for (const bool wa : {true, false}) {
        for (const unsigned cores : {1u, 3u}) {
          core::MatrixPoint p;
          p.mem.icache = {.size_bytes = ikb * 1024, .ways = ways,
                          .line_bytes = 32};
          p.mem.dcache = {.size_bytes = ikb * 512, .ways = ways,
                          .line_bytes = 32};
          p.write_allocate = wa;
          p.num_cores = cores;
          grid.push_back(p);
        }
      }
    }
  }
  const core::MatrixReport sweep = core::run_matrix(grid, {});
  core::MatrixReport one_by_one;
  for (const core::MatrixPoint& p : grid)
    one_by_one.cells.push_back(core::run_matrix({p}, {}).cells.at(0));
  const std::string table = core::format_matrix(sweep);
  EXPECT_EQ(table, core::format_matrix(one_by_one));
  EXPECT_EQ(core::matrix_json(sweep), core::matrix_json(one_by_one));

  EXPECT_EQ(sweep.proven_configurations(), 8u) << table;
  std::size_t fail_rows = 0;
  for (const auto& c : sweep.cells) fail_rows += c.failures.size();
  EXPECT_EQ(fail_rows, 160u);
  // A sub-KiB cache is labelled in bytes, not as "0K".
  EXPECT_NE(table.find("D$ 512B/1w/32B"), std::string::npos) << table;
  EXPECT_EQ(table.find(" 0K/"), std::string::npos) << table;
}

TEST(Sarif, SerialisesDriverRulesAndFindings) {
  const auto fixtures = negative_fixtures();
  const Fixture* f = find_fixture(fixtures, "set-conflict");
  ASSERT_NE(f, nullptr);
  const Report rep = analyze(f->prog, f->cfg);
  const std::string s = to_sarif({{"set-conflict", &rep}});
  EXPECT_NE(s.find("sarif-2.1.0"), std::string::npos);
  EXPECT_NE(s.find("\"name\": \"stlint\""), std::string::npos);
  // Every catalogue rule is declared, findings carry rule id + level.
  for (const Rule r : rule_catalogue())
    EXPECT_NE(s.find(rule_id(r)), std::string::npos) << rule_id(r);
  EXPECT_NE(s.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(s.find("[set-conflict]"), std::string::npos);
}

}  // namespace
}  // namespace detstl::analysis
