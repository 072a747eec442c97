#include "scenarios.h"

namespace perfbench {

Table3Routines Table3Routines::make() {
  return Table3Routines{core::make_icu_test(), core::make_fwd_test(/*with_perf_counters=*/true)};
}

fault::CampaignConfig Table3Case::config() const {
  fault::CampaignConfig cc;
  cc.module = module;
  cc.core_id = graded;
  cc.kind = static_cast<isa::CoreKind>(graded);
  cc.fault_stride = 1;
  cc.signature_from_marker = cached;
  return cc;
}

fault::SocFactory Table3Case::factory() const {
  return exp::scenario_factory(tests, scenario, graded);
}

std::vector<Table3Case> build_table3_cases(const Table3Routines& r) {
  const exp::Scenario single{1, {0, 0, 0}, 0, 0, "single"};
  const exp::Scenario multi{3, {0, 3, 7}, 0, 0, "multi"};
  std::vector<Table3Case> cases;
  for (unsigned graded = 0; graded < 3; ++graded) {
    for (const bool is_icu : {true, false}) {
      const core::SelfTestRoutine& routine = is_icu ? *r.icu : *r.hdcu;
      for (const bool cached : {false, true}) {
        Table3Case c;
        c.module = is_icu ? fault::Module::kIcu : fault::Module::kHdcu;
        c.graded = graded;
        c.cached = cached;
        c.scenario = cached ? multi : single;
        // The HDCU routine reads the performance counters (Table III).
        c.tests = exp::build_scenario_tests(
            routine, cached ? core::WrapperKind::kCacheBased : core::WrapperKind::kPlain,
            c.scenario, graded, /*use_pcs=*/!is_icu);
        c.label = std::string(c.module_name()) + "-" + c.core() + "-" + c.scenario.label;
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

std::vector<std::vector<StabilityCase>> build_stability_cases(const Table3Routines& r) {
  const std::array<u32, 3> staggers[] = {{0, 3, 7}, {5, 0, 2}, {1, 9, 4}};
  std::vector<std::vector<StabilityCase>> rows;
  for (unsigned graded = 0; graded < 3; ++graded) {
    for (const bool is_icu : {true, false}) {
      const core::SelfTestRoutine& routine = is_icu ? *r.icu : *r.hdcu;
      // The stagger only changes the SoC config, not the placement, so one
      // build serves all three scenarios of the row.
      const exp::Scenario placement{3, {0, 0, 0}, 0, 0, "stab"};
      const std::vector<core::BuiltTest> tests = exp::build_scenario_tests(
          routine, core::WrapperKind::kPlain, placement, graded, /*use_pcs=*/!is_icu);
      std::vector<StabilityCase> row;
      for (const auto& st : staggers) {
        const exp::Scenario sc{3, st, 0, 0, "stab"};
        row.push_back(StabilityCase{graded, exp::scenario_factory(tests, sc, graded)});
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

namespace {

core::BuiltTest build_probe_test(unsigned core_id, core::WrapperKind w) {
  core::BuildEnv env;
  env.core_id = core_id;
  env.kind = static_cast<isa::CoreKind>(core_id);
  env.code_base = mem::kFlashBase + 0x2000 + core_id * 0x40000;
  env.data_base = core::default_data_base(core_id);
  const auto routine = core::make_fwd_test(false);
  return core::build_wrapped(*routine, w, env);
}

void read_verdicts(ProbeRun& run, unsigned cores) {
  for (unsigned c = 0; c < cores; ++c) {
    const core::TestVerdict v = core::read_verdict(run.soc, soc::mailbox_addr(c));
    run.verdicts.push_back(v.status);
    run.verdicts.push_back(v.signature);
  }
}

}  // namespace

ProbeTests build_probe_tests() {
  ProbeTests t;
  t.cached = build_probe_test(0, core::WrapperKind::kCacheBased);
  for (unsigned c = 0; c < 3; ++c)
    t.plain.push_back(build_probe_test(c, core::WrapperKind::kPlain));
  return t;
}

ProbeRun run_probe_single(const ProbeTests& t) {
  ProbeRun run;
  run.soc.load_program(t.cached.prog);
  run.soc.set_boot(0, t.cached.prog.entry());
  run.soc.reset();
  run.cycles = run.soc.run(10'000'000).cycles;
  read_verdicts(run, 1);
  return run;
}

ProbeRun run_probe_triple(const ProbeTests& t) {
  ProbeRun run;
  for (const auto& test : t.plain) {
    run.soc.load_program(test.prog);
    run.soc.set_boot(test.env.core_id, test.prog.entry());
  }
  run.soc.reset();
  run.cycles = run.soc.run(20'000'000).cycles;
  read_verdicts(run, 3);
  return run;
}

}  // namespace perfbench
