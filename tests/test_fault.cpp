// Fault-simulation engine: detection of known-bad faults, excitation
// screening soundness, checkpoint-placement invariance (the engine's central
// correctness property), marker-mode loading-loop immunity, sampling, and
// pinned outcome digests of every graded module's campaign.

#include <gtest/gtest.h>

#include "core/routines.h"
#include "exp/experiments.h"
#include "fault/report.h"

namespace detstl::fault {
namespace {

using core::WrapperKind;

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
  // fault identically: restoring from a checkpoint is a pure optimisation.
  const auto dense = run_icu_campaign(WrapperKind::kCacheBased, 3, 3, 256);
  const auto sparse = run_icu_campaign(WrapperKind::kCacheBased, 3, 3, 1'000'000);
  ASSERT_EQ(dense.outcomes.size(), sparse.outcomes.size());
  for (std::size_t i = 0; i < dense.outcomes.size(); ++i) {
    const bool d1 = dense.outcomes[i] != FaultOutcome::kNotExcited &&
                    dense.outcomes[i] != FaultOutcome::kUndetected;
    const bool d2 = sparse.outcomes[i] != FaultOutcome::kNotExcited &&
                    sparse.outcomes[i] != FaultOutcome::kUndetected;
    ASSERT_EQ(d1, d2) << "fault " << i << " detection differs with checkpointing";
  }
  EXPECT_EQ(dense.detected, sparse.detected);
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
  knobs.progress_every = 1;
  knobs.checkpoint.dir = "elsewhere";
  knobs.checkpoint.resume = true;
  EXPECT_EQ(checkpoint_config_hash(knobs, fwd.nl(), soc), base);

  CampaignConfig stride = cfg;
  stride.fault_stride = 4;
  EXPECT_NE(checkpoint_config_hash(stride, fwd.nl(), soc), base);

  CampaignConfig marker = cfg;
  marker.signature_from_marker = true;
  EXPECT_NE(checkpoint_config_hash(marker, fwd.nl(), soc), base);

  CampaignConfig bound = cfg;
  bound.max_cycles = 1'000;
  EXPECT_NE(checkpoint_config_hash(bound, fwd.nl(), soc), base);

  // A different graded netlist changes the fault list, so it must re-key.
  const netlist::HdcuNetlist hdcu(isa::CoreKind::kA);
  EXPECT_NE(checkpoint_config_hash(cfg, hdcu.nl(), soc), base);

  // A different routine image (same config, same netlist) must re-key too.
  const auto other = core::make_icu_test();
  auto tests2 = exp::build_scenario_tests(*other, WrapperKind::kPlain, sc, 0, false);
  const soc::Soc soc2 = exp::scenario_factory(std::move(tests2), sc, 0)();
  EXPECT_NE(checkpoint_config_hash(cfg, fwd.nl(), soc2), base);
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

}  // namespace
}  // namespace detstl::fault
