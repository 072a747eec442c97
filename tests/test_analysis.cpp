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
//  * build_wrapped() surfaces the report by default and kEnforce throws;
//  * each loop access kind gets the same verdict from both layers, and
//    every AbsIntResult field over the matrix grid and the fixtures is
//    pinned by one digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "analysis/absint.h"
#include "analysis/analyzer.h"
#include "analysis/fixtures.h"
#include "analysis/sarif.h"
#include "common/bytes.h"
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
  const AbsIntResult ai =
      interpret(f->prog, f->cfg, build_model(f->prog, f->cfg));
  ASSERT_TRUE(ai.analyzable);
  EXPECT_EQ(ai.status(ObligationKind::kSetConflictFree),
            ObligationStatus::kRefuted);
  EXPECT_FALSE(ai.all_proven());
}

TEST(AbsInt, PeerOverlapRefutesCrossCoreDisjointness) {
  const auto fixtures = negative_fixtures();
  const Fixture* f = find_fixture(fixtures, "ai-cross-core-overlap");
  ASSERT_NE(f, nullptr);
  const AbsIntResult ai =
      interpret(f->prog, f->cfg, build_model(f->prog, f->cfg));
  ASSERT_TRUE(ai.analyzable);
  EXPECT_EQ(ai.status(ObligationKind::kCrossCoreDisjoint),
            ObligationStatus::kRefuted);
}

TEST(AbsInt, StridedNwaStoreIsProvenOnlyByItsDummyLoad) {
  // A strided no-write-allocate store never has a certainly-warm line: only
  // the replay argument proves it, and only when a load of the identical
  // interval (the dummy load) warms its lines during the loading pass.
  const auto build = [](bool dummy_load) {
    Assembler a(kBase);
    a.li(R30, 2);
    a.label("loop");
    a.li(R1, kData);
    a.li(R2, kData + 64);
    a.label("inner");
    a.sw(R3, R1, 0);
    if (dummy_load) a.lw(R4, R1, 0);
    a.addi(R1, R1, 4);
    a.bne(R1, R2, "inner");
    a.addi(R30, R30, -1);
    a.bne(R30, R0, "loop");
    a.halt();
    return a.assemble();
  };
  AnalysisConfig cfg;
  cfg.loop_symbol = "loop";
  cfg.data_regions = {{kData, 64}};
  cfg.write_allocate = false;

  const Program covered = build(true);
  const AbsIntResult ok = interpret(covered, cfg, build_model(covered, cfg));
  EXPECT_TRUE(ok.all_proven()) << ok.find(ObligationKind::kExecMissFree)->detail;

  const Program bare = build(false);
  const AbsIntResult bad = interpret(bare, cfg, build_model(bare, cfg));
  EXPECT_EQ(bad.status(ObligationKind::kExecMissFree),
            ObligationStatus::kUnproven);
  ASSERT_EQ(bad.exec_unproven.size(), 1u);
  EXPECT_EQ(bad.exec_unproven[0].first, bare.symbol("inner"));
  EXPECT_NE(bad.exec_unproven[0].second.find("has no dummy load"),
            std::string::npos)
      << bad.exec_unproven[0].second;
}

TEST(AbsInt, EachAccessKindIsReportedByBothLayers) {
  // One loop access per kind that no fixture or routine has. Each is
  // classified once, in the model: layer 1 words the bus-coupled ones as
  // noncacheable-access errors, layer 2 leaves the same pc unproven and,
  // when it is bus-coupled, a loading-footprint violation.
  struct Case {
    u32 base;      // r1 at the access
    bool carried;  // r1 set before the loop and stepped every pass
    void (*access)(Assembler&);
    const char* layer1;  // the diagnostic analyze() anchors at the access
    const char* layer2;  // its execution-pass verdict
    bool loading_violation;
  };
  const Case cases[] = {
      {kData, false, [](Assembler& a) { a.amoadd(R4, R1, R5); },
       "atomic access inside the execution loop is serviced by the shared "
       "bus",
       "atomic access is serviced by the shared bus inside the execution loop",
       true},
      {kBase + 0x800, false, [](Assembler& a) { a.sw(R3, R1, 0); },
       "store to flash at 0x10001800 inside the execution loop",
       "store to flash inside the execution loop", true},
      {0x3000'0000, false, [](Assembler& a) { a.lw(R4, R1, 0); },
       "access to [0x30000000, 0x30000004) targets unmapped or mixed address "
       "space inside the execution loop",
       "access to unmapped or mixed address space inside the execution loop",
       true},
      {kData, true, [](Assembler& a) { a.lw(R4, R1, 0); },
       "execution-pass access not provably miss-free: address is "
       "loop-carried across wrapper iterations",
       "address is loop-carried across wrapper iterations", false},
  };
  for (const Case& t : cases) {
    Assembler a(kBase);
    a.li(R30, 2);
    if (t.carried) a.li(R1, t.base);
    a.label("loop");
    if (!t.carried) a.li(R1, t.base);
    a.label("access");
    t.access(a);
    if (t.carried) a.addi(R1, R1, 4);
    a.addi(R30, R30, -1);
    a.bne(R30, R0, "loop");
    a.halt();
    const Program prog = a.assemble();
    const u32 pc = prog.symbol("access");
    AnalysisConfig cfg;
    cfg.loop_symbol = "loop";
    cfg.data_regions = {{kData, 64}};

    const Report rep = analyze(prog, cfg);
    bool worded = false;
    for (const Diagnostic& d : rep.diagnostics())
      worded |= d.pc == pc && d.severity == Severity::kError &&
                d.message.find(t.layer1) != std::string::npos;
    EXPECT_TRUE(worded) << t.layer1 << "\n" << rep.format();

    const AbsIntResult ai = interpret(prog, cfg, build_model(prog, cfg));
    ASSERT_EQ(ai.exec_unproven.size(), 1u) << t.layer2;
    EXPECT_EQ(ai.exec_unproven[0].first, pc);
    EXPECT_NE(ai.exec_unproven[0].second.find(t.layer2), std::string::npos)
        << ai.exec_unproven[0].second;
    bool violates = false;
    for (const auto& [vpc, why] : ai.loading_violations) violates |= vpc == pc;
    EXPECT_EQ(violates, t.loading_violation) << t.layer2;
  }
}

/// FNV-1a fold of every AbsIntResult field; strings are length-prefixed so
/// no two field sequences hash the same bytes.
class ResultDigest {
 public:
  void add(u64 v) { h_ = fnv1a(&v, sizeof v, h_); }
  void add(const std::string& s) {
    add(s.size());
    h_ = fnv1a(s.data(), s.size(), h_);
  }
  void add(const SetFootprint& f) {
    add(f.lines.size());
    for (const auto& [set, lines] : f.lines) {
      add(set);
      add(lines);
    }
  }
  void add(const std::set<u32>& lines) {
    add(lines.size());
    for (const u32 l : lines) add(l);
  }
  void add(const std::vector<std::pair<u32, std::string>>& v) {
    add(v.size());
    for (const auto& [pc, why] : v) {
      add(pc);
      add(why);
    }
  }
  void add(const AbsIntResult& r) {
    add(r.analyzable);
    add(r.not_analyzable_why);
    add(r.obligations.size());
    for (const Obligation& o : r.obligations) {
      add(static_cast<u64>(o.kind));
      add(static_cast<u64>(o.status));
      add(o.detail);
    }
    add(r.exec_unproven);
    add(r.loading_violations);
    add(r.overlap_violations.size());
    for (const std::string& v : r.overlap_violations) add(v);
    add(r.ifoot);
    add(r.dfoot);
    add(r.predicted_loading_ilines);
    add(r.predicted_loading_dlines);
    for (const u32 v : {r.bound.t_max, r.bound.d_max, r.bound.requesters,
                        r.bound.line_bytes})
      add(v);
  }
  u64 value() const { return h_; }

 private:
  u64 h_ = kFnvOffset;
};

TEST(AbsInt, EveryResultFieldIsPinned) {
  // Every routine image the default scenario matrix grades, proven at every
  // grid point with the matrix's peers, plus every negative fixture: one
  // digest over every field of every result. The value pins the analysis
  // output byte for byte, failure texts included. Eight direct-mapped and
  // 1 KiB points, where the routines' proofs fail, and each routine's
  // no-write-allocate build without its dummy loads add failing results.
  std::vector<core::MatrixPoint> grid = core::default_matrix_grid();
  for (const u32 ikb : {1u, 8u}) {
    for (const unsigned ways : {1u, 2u}) {
      for (const bool wa : {true, false}) {
        core::MatrixPoint p;
        p.mem.icache = {.size_bytes = ikb * 1024, .ways = ways,
                        .line_bytes = 32};
        p.mem.dcache = {.size_bytes = ikb * 512, .ways = ways,
                        .line_bytes = 32};
        p.write_allocate = wa;
        p.num_cores = 2;
        grid.push_back(p);
      }
    }
  }
  ResultDigest d;
  unsigned results = 0, failing = 0;
  const auto fold = [&](const AbsIntResult& r) {
    d.add(r);
    ++results;
    failing += r.all_proven() ? 0 : 1;
  };
  for (const core::RoutineEntry& entry : core::routine_registry()) {
    const auto routine = entry.make();
    for (const unsigned placement : {0u, 1u}) {
      for (const bool wa : {true, false}) {
        core::MatrixPoint key;
        key.placement = placement;
        key.write_allocate = wa;
        std::vector<Program> progs;
        std::vector<std::vector<AddrRange>> reserved;
        for (unsigned c = 0; c < 3; ++c) {
          const core::BuildEnv env = core::matrix_env(key, c);
          progs.push_back(core::assemble_wrapped(
              *routine, core::WrapperKind::kCacheBased, env));
          reserved.push_back(
              {{env.data_base, std::max<u32>(routine->data_bytes(), 4)}});
          for (const auto& seg : progs.back().segments())
            reserved.back().push_back(
                {seg.base, static_cast<u32>(seg.bytes.size())});
        }
        for (unsigned c = 0; c < 3; ++c) {
          const AnalysisConfig base =
              core::lint_config(*routine, core::WrapperKind::kCacheBased,
                                core::matrix_env(key, c));
          const ProgramModel model = build_model(progs[c], base);
          for (const core::MatrixPoint& p : grid) {
            if (p.placement != placement || p.write_allocate != wa ||
                c >= p.num_cores)
              continue;
            AnalysisConfig acfg = base;
            acfg.mem = p.mem;
            acfg.num_cores = p.num_cores;
            for (unsigned peer = 0; peer < p.num_cores; ++peer)
              if (peer != c)
                acfg.peer_regions.insert(acfg.peer_regions.end(),
                                         reserved[peer].begin(),
                                         reserved[peer].end());
            fold(interpret(progs[c], acfg, model));
          }
        }
      }
    }
    const core::BuildEnv ablated = nwa_env(/*omit_fixup=*/true);
    const Program prog = core::assemble_wrapped(
        *routine, core::WrapperKind::kCacheBased, ablated);
    const AnalysisConfig acfg =
        core::lint_config(*routine, core::WrapperKind::kCacheBased, ablated);
    fold(interpret(prog, acfg, build_model(prog, acfg)));
  }
  for (const Fixture& f : negative_fixtures())
    fold(interpret(f.prog, f.cfg, build_model(f.prog, f.cfg)));
  EXPECT_EQ(results, 2304u + 8u * 8u * 2u + 8u + 15u);
  EXPECT_EQ(failing, 63u);
  EXPECT_EQ(d.value(), 0xff50923876a3a752ull) << std::hex << "0x" << d.value();
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
