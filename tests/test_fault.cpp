// Fault-simulation engine: detection of known-bad faults, excitation
// screening soundness, checkpoint-placement invariance (the engine's central
// correctness property), marker-mode loading-loop immunity, sampling, report
// input checks, and pinned outcome digests of every graded module's campaign.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/routines.h"
#include "exp/experiments.h"
#include "fault/livelock.h"
#include "fault/report.h"
#include "isa/assembler.h"

namespace detstl::fault {
namespace {

using core::WrapperKind;
using namespace isa;

CampaignResult run_icu_campaign(WrapperKind w, unsigned cores, u32 stride,
                                u32 checkpoint_every) {
  const auto routine = core::make_icu_test();
  exp::Scenario sc{cores, {0, 3, 7}, 0, 0, "t"};
  auto tests = exp::build_scenario_tests(*routine, w, sc, 0, false);
  CampaignConfig cc;
  cc.module = Module::kIcu;
  cc.core_id = 0;
  cc.kind = isa::CoreKind::kA;
  cc.fault_stride = stride;
  cc.checkpoint_every = checkpoint_every;
  cc.signature_from_marker = w == WrapperKind::kCacheBased;
  Campaign campaign(cc, exp::scenario_factory(std::move(tests), sc, 0));
  return campaign.run();
}

TEST(Campaign, FaultFreeRunPassesAndFaultsAreFound) {
  const auto res = run_icu_campaign(WrapperKind::kPlain, 1, 2, 4096);
  EXPECT_EQ(res.good_verdict.status, soc::kStatusPass);
  EXPECT_GT(res.total_faults, 100u);
  EXPECT_GT(res.detected, res.simulated_faults / 2);
  EXPECT_LE(res.detected, res.excited);
  EXPECT_EQ(res.detected,
            res.detected_signature + res.detected_verdict + res.detected_watchdog);
  EXPECT_GT(res.coverage_percent(), 50.0);
  EXPECT_LE(res.coverage_percent(), 100.0);
}

TEST(Campaign, CheckpointPlacementDoesNotChangeOutcomes) {
  // The same campaign with dense and sparse checkpoints must classify every
  // fault identically, down to how it was detected: restoring from a
  // checkpoint is a pure optimisation. (A livelock exit that misread a
  // verdict as a hang would still agree on detected-or-not.)
  const auto dense = run_icu_campaign(WrapperKind::kCacheBased, 3, 3, 256);
  const auto sparse = run_icu_campaign(WrapperKind::kCacheBased, 3, 3, 1'000'000);
  ASSERT_EQ(dense.outcomes.size(), sparse.outcomes.size());
  for (std::size_t i = 0; i < dense.outcomes.size(); ++i)
    ASSERT_EQ(dense.outcomes[i], sparse.outcomes[i])
        << "fault " << i << " outcome differs with checkpointing";
  EXPECT_EQ(dense.canonical_bytes(), sparse.canonical_bytes());
  // Every way a fault ends shows up.
  EXPECT_GT(dense.detected_signature, 0u);
  EXPECT_GT(dense.detected_verdict, 0u);
  EXPECT_GT(dense.detected_watchdog, 0u);
}

TEST(Campaign, StrideSamplesDeterministically) {
  const auto full = run_icu_campaign(WrapperKind::kPlain, 1, 1, 4096);
  const auto half = run_icu_campaign(WrapperKind::kPlain, 1, 2, 4096);
  EXPECT_EQ(full.total_faults, half.total_faults);
  EXPECT_EQ(half.simulated_faults, (full.total_faults + 1) / 2);
  // The sampled estimate tracks the exhaustive coverage.
  EXPECT_NEAR(half.coverage_percent(), full.coverage_percent(), 10.0);
}

TEST(Campaign, ExcitedNeverLessThanDetected) {
  const auto res = run_icu_campaign(WrapperKind::kCacheBased, 3, 2, 4096);
  EXPECT_GE(res.excited, res.detected);
  unsigned not_excited = 0;
  for (auto o : res.outcomes)
    if (o == FaultOutcome::kNotExcited) ++not_excited;
  EXPECT_EQ(not_excited, res.simulated_faults - res.excited);
}

TEST(Campaign, HdcuStallStuckHighIsCaughtByWatchdogOrVerdict) {
  // The HDCU's stall output stuck at 1 wedges the pipeline: the in-field
  // observation is a watchdog reset. Verify the campaign classifies at least
  // one fault as watchdog-detected in an HDCU campaign.
  const auto routine = core::make_fwd_test(true);
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "t"};
  auto tests =
      exp::build_scenario_tests(*routine, WrapperKind::kPlain, sc, 0, true);
  CampaignConfig cc;
  cc.module = Module::kHdcu;
  cc.core_id = 0;
  cc.kind = isa::CoreKind::kA;
  cc.fault_stride = 2;
  Campaign campaign(cc, exp::scenario_factory(std::move(tests), sc, 0));
  const auto res = campaign.run();
  EXPECT_GT(res.detected_watchdog, 0u);
  EXPECT_GT(res.coverage_percent(), 30.0);
}

/// Counts the graded core's writes of the signature register.
struct SignatureWrites final : cpu::ModuleTap {
  u64 n = 0;
  void on_wb(u64, unsigned rd, u32) override { n += rd == core::kSignatureReg; }
};

TEST(LivelockDetector, FiresOnAWedgedPipelineThatEndsAtTheWatchdog) {
  // The fault of Campaign.HdcuStallStuckHighIsCaughtByWatchdogOrVerdict:
  // the HDCU's stall output stuck at 1 holds every packet in EX forever.
  const auto routine = core::make_fwd_test(true);
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "t"};
  soc::Soc start = exp::scenario_factory(
      exp::build_scenario_tests(*routine, WrapperKind::kPlain, sc, 0, true), sc, 0)();
  start.reset();
  soc::Soc good = start;
  ASSERT_FALSE(good.run(kGoodRunMaxCycles).timed_out);
  const u64 good_cycles = good.now();
  const u64 watchdog = good_cycles * 2 + 10'000;  // the campaign's

  const netlist::HdcuNetlist hdcu(isa::CoreKind::kA);
  netlist::NetlistHazard model(hdcu);
  model.set_fault(netlist::Fault{hdcu.outputs().back(), true});  // the stall output
  SignatureWrites sig;
  soc::Soc s = start;
  s.core(0).hooks() = cpu::CpuHooks{.hazard = &model, .tap = &sig};
  LivelockDetector livelock(0);
  const auto side = [&](std::vector<u64>& out) { out.push_back(sig.n); };
  u64 fired_at = 0;
  while (!s.core(0).halted() && s.now() < watchdog) {
    if (s.now() > good_cycles && livelock.repeats(s, side)) {
      fired_at = s.now();
      break;
    }
    s.tick();
  }
  ASSERT_GT(fired_at, 0u) << "no livelock exit before the watchdog";

  // Simulated on, the run neither halts nor writes another signature.
  const u64 sig_at_exit = sig.n;
  while (!s.core(0).halted() && s.now() < watchdog) s.tick();
  EXPECT_EQ(s.now(), watchdog);
  EXPECT_FALSE(s.core(0).halted());
  EXPECT_EQ(sig.n, sig_at_exit);
}

TEST(LivelockDetector, ALoopThatReadsACounterNeverFires) {
  // The loop spins until bit 11 of `cycle` is set. Between two reads its
  // state repeats, clocks aside, so without the counter-read guard the
  // detector would call the run periodic; it halts after 2,048 cycles.
  Assembler a(mem::kFlashBase + 0x2000);
  a.label("wait");
  a.csrr(R1, Csr::kCycle);
  a.srli(R1, R1, 11);
  a.andi(R1, R1, 1);
  a.beq(R1, R0, "wait");
  a.halt();
  const isa::Program p = a.assemble();
  soc::Soc s;
  s.load_program(p);
  s.set_boot(0, p.entry());
  s.reset();
  LivelockDetector livelock(0);
  const auto side = [](std::vector<u64>&) {};
  while (!s.core(0).halted() && s.now() < 100'000) {
    ASSERT_FALSE(livelock.repeats(s, side)) << "fired at cycle " << s.now();
    s.tick();
  }
  EXPECT_TRUE(s.core(0).halted());
  EXPECT_GE(s.now(), 2048u);
}

TEST(Campaign, ModuleNames) {
  EXPECT_STREQ(module_name(Module::kFwd), "forwarding-logic");
  EXPECT_STREQ(module_name(Module::kHdcu), "hdcu");
  EXPECT_STREQ(module_name(Module::kIcu), "icu");
}

TEST(Campaign, CheckpointConfigHashBindsOutcomeRelevantFieldsOnly) {
  // The hash a checkpoint manifest binds to must change with anything that
  // changes outcomes (sampling, graded netlist, routine image) and must NOT
  // change with execution knobs (threads, observability, checkpoint paths) —
  // resuming on a different worker count is legal.
  const netlist::FwdNetlist fwd(isa::CoreKind::kA);
  const auto routine = core::make_fwd_test(false);
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "hash"};
  auto tests = exp::build_scenario_tests(*routine, WrapperKind::kPlain, sc, 0, false);
  const soc::Soc soc = exp::scenario_factory(std::move(tests), sc, 0)();

  CampaignConfig cfg;
  cfg.module = Module::kFwd;
  cfg.fault_stride = 8;
  const u64 base = checkpoint_config_hash(cfg, fwd.nl(), soc);
  EXPECT_EQ(checkpoint_config_hash(cfg, fwd.nl(), soc), base);  // stable

  CampaignConfig knobs = cfg;
  knobs.threads = 8;
  knobs.checkpoint.dir = "elsewhere";
  knobs.checkpoint.resume = true;
  EXPECT_EQ(checkpoint_config_hash(knobs, fwd.nl(), soc), base);

  CampaignConfig stride = cfg;
  stride.fault_stride = 4;
  EXPECT_NE(checkpoint_config_hash(stride, fwd.nl(), soc), base);

  CampaignConfig marker = cfg;
  marker.signature_from_marker = true;
  EXPECT_NE(checkpoint_config_hash(marker, fwd.nl(), soc), base);

  // A different graded netlist changes the fault list, so it must re-key.
  const netlist::HdcuNetlist hdcu(isa::CoreKind::kA);
  EXPECT_NE(checkpoint_config_hash(cfg, hdcu.nl(), soc), base);

  // A different routine image (same config, same netlist) must re-key too.
  const auto other = core::make_icu_test();
  auto tests2 = exp::build_scenario_tests(*other, WrapperKind::kPlain, sc, 0, false);
  const soc::Soc soc2 = exp::scenario_factory(std::move(tests2), sc, 0)();
  EXPECT_NE(checkpoint_config_hash(cfg, fwd.nl(), soc2), base);
}

TEST(Campaign, UnitCompletionHookSeesEveryFaultOnce) {
  // UnitPlumbing::on_run_complete fires once per fault this process
  // completes, with the fault index, from whichever worker completed it:
  // never for a screening lane group, never for a fault outside the shard.
  const auto routine = core::make_icu_test();
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "t"};
  auto tests = exp::build_scenario_tests(*routine, WrapperKind::kPlain, sc, 0, false);
  const netlist::IcuNetlist icu(isa::CoreKind::kA);
  const u64 n = sample_faults(icu.nl(), 2).size();
  ASSERT_GT(n, 8u);
  CampaignConfig cc;
  cc.module = Module::kIcu;
  cc.fault_stride = 2;
  cc.threads = 2;
  cc.unit_begin = 3;
  cc.unit_end = n - 2;
  std::vector<std::atomic<unsigned>> seen(n);
  cc.on_run_complete = [&](u64 i) { seen.at(i).fetch_add(1); };
  Campaign(cc, exp::scenario_factory(std::move(tests), sc, 0)).run();
  for (u64 i = 0; i < n; ++i)
    EXPECT_EQ(seen[i].load(), i >= cc.unit_begin && i < cc.unit_end ? 1u : 0u)
        << "fault " << i;
}

TEST(Campaign, ZeroStrideThrowsInsteadOfTrapping) {
  // The sampling rule divides by the stride; zero must be a reportable
  // configuration error, never an integer-division trap.
  EXPECT_THROW(run_icu_campaign(WrapperKind::kPlain, 1, 0, 4096),
               std::invalid_argument);
  const netlist::IcuNetlist icu(isa::CoreKind::kA);
  EXPECT_THROW(sample_faults(icu.nl(), 0), std::invalid_argument);
  EXPECT_EQ(sample_faults(icu.nl(), 1).size(), icu.nl().fault_list().size());
}

TEST(Report, GateClassTotalsMatchCampaign) {
  const auto res = run_icu_campaign(WrapperKind::kPlain, 1, 2, 4096);
  const netlist::IcuNetlist icu(isa::CoreKind::kA);
  const auto rep = make_report(res, icu.nl(), 2);
  u64 faults = 0, detected = 0;
  for (const auto& c : rep.by_gate_class) {
    faults += c.faults;
    detected += c.detected;
    EXPECT_GE(c.faults, c.detected);
  }
  EXPECT_EQ(faults, res.simulated_faults);
  EXPECT_EQ(detected, res.detected);
  const std::string text = render_report(rep, "icu");
  EXPECT_NE(text.find("fault coverage"), std::string::npos);
  EXPECT_NE(text.find("dff"), std::string::npos);  // ICU has flops
}

TEST(Report, RejectsAStrideOrNetlistTheCampaignDidNotUse) {
  // A per-gate-class table built from another sampling or another netlist
  // would not sum to the campaign; make_report refuses to print one.
  const auto res = run_icu_campaign(WrapperKind::kPlain, 1, 2, 4096);
  const netlist::IcuNetlist icu(isa::CoreKind::kA);
  EXPECT_THROW(make_report(res, icu.nl(), 1), std::invalid_argument);
  const netlist::IcuNetlist icu_b(isa::CoreKind::kB);
  EXPECT_THROW(make_report(res, icu_b.nl(), 2), std::invalid_argument);
  EXPECT_NO_THROW(make_report(res, icu.nl(), 2));
}

// ---------------------------------------------------------------------------
// Golden outcome digests: every module's campaign, byte for byte
// ---------------------------------------------------------------------------

// fnv1a(canonical_bytes()) of one strided campaign. Single-core plain
// campaigns follow stlserve's "fault" recipe (serve.cpp) on one worker; the
// cached ones are Table III's three-core scenario at stagger {0,3,7}, graded
// from the execution-loop marker on two workers.
u64 campaign_digest(Module module, bool cached, unsigned graded, u32 stride) {
  const auto routine = module == Module::kIcu ? core::make_icu_test()
                                              : core::make_fwd_test(module == Module::kHdcu);
  const exp::Scenario sc = cached ? exp::Scenario{3, {0, 3, 7}, 0, 0, "multi"}
                                  : exp::Scenario{1, {0, 0, 0}, 0, 0, "serve"};
  auto tests = exp::build_scenario_tests(
      *routine, cached ? WrapperKind::kCacheBased : WrapperKind::kPlain, sc, graded,
      /*use_perf_counters=*/cached && module == Module::kHdcu);
  CampaignConfig cc;
  cc.module = module;
  cc.core_id = graded;
  cc.kind = static_cast<isa::CoreKind>(graded);
  cc.fault_stride = stride;
  cc.signature_from_marker = cached;
  cc.threads = cached ? 2 : 1;
  return fnv1a(Campaign(cc, exp::scenario_factory(std::move(tests), sc, graded))
                   .run()
                   .canonical_bytes());
}

TEST(CampaignGolden, FwdPlainCoreA) {
  EXPECT_EQ(campaign_digest(Module::kFwd, false, 0, 8), 0x805d'7912'4d99'65e2ull);
}
TEST(CampaignGolden, HdcuPlainCoreA) {
  EXPECT_EQ(campaign_digest(Module::kHdcu, false, 0, 8), 0x8471'050f'43f5'0d83ull);
}
TEST(CampaignGolden, IcuPlainCoreA) {
  EXPECT_EQ(campaign_digest(Module::kIcu, false, 0, 8), 0xde9b'1a19'1d64'f4b6ull);
}
TEST(CampaignGolden, FwdCachedCoreB) {
  EXPECT_EQ(campaign_digest(Module::kFwd, true, 1, 16), 0xb8c9'4045'fc4b'fa4bull);
}
TEST(CampaignGolden, HdcuCachedCoreC) {
  EXPECT_EQ(campaign_digest(Module::kHdcu, true, 2, 8), 0x2aef'c498'c819'd795ull);
}
TEST(CampaignGolden, IcuCachedCoreA) {
  EXPECT_EQ(campaign_digest(Module::kIcu, true, 0, 3), 0xbddc'5118'db3d'1c25ull);
}

// Exhaustive campaigns, where about half of the faults are members of a
// class whose representative decides them: the perfbench table3 seed pins.
TEST(CampaignGolden, IcuPlainCoreAExhaustive) {
  EXPECT_EQ(campaign_digest(Module::kIcu, false, 0, 1), 0x5ba2'e095'37a1'5df4ull);
}
TEST(CampaignGolden, HdcuPlainCoreAExhaustive) {
  EXPECT_EQ(campaign_digest(Module::kHdcu, false, 0, 1), 0x109c'babc'1fe2'3a54ull);
}
TEST(CampaignGolden, IcuCachedCoreCExhaustive) {
  EXPECT_EQ(campaign_digest(Module::kIcu, true, 2, 1), 0x7e70'c592'92e5'b69bull);
}

}  // namespace
}  // namespace detstl::fault
