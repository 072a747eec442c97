#include "exp/experiments.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "isa/disasm.h"

namespace detstl::exp {

using core::BuildEnv;
using core::BuiltTest;
using core::WrapperKind;
using isa::CoreKind;

namespace {

constexpr u32 kPosLow = 0x2000;
constexpr u32 kPosMid = 0x80000;
constexpr u32 kPosHigh = 0x100000;
constexpr u32 kPerCoreCodeStride = 0x40000;

BuildEnv scenario_env(const Scenario& sc, unsigned core_id, bool use_pcs) {
  BuildEnv env;
  env.core_id = core_id;
  env.kind = static_cast<CoreKind>(core_id);
  env.code_base = mem::kFlashBase + sc.position + kPosLow + sc.alignment +
                  core_id * kPerCoreCodeStride;
  env.data_base = core::default_data_base(core_id);
  env.use_perf_counters = use_pcs;
  return env;
}

/// Active core ids for a scenario graded on `graded`.
std::vector<unsigned> active_set(const Scenario& sc, unsigned graded) {
  std::vector<unsigned> act{graded};
  for (unsigned c = 0; c < 3 && act.size() < sc.active_cores; ++c)
    if (c != graded) act.push_back(c);
  return act;
}

}  // namespace

std::vector<Scenario> nocache_scenario_grid() {
  std::vector<Scenario> grid;
  const std::array<std::pair<u32, const char*>, 3> positions = {
      std::pair<u32, const char*>{0, "low"}, {kPosMid, "mid"}, {kPosHigh, "high"}};
  const std::array<u32, 3> staggers[4] = {{0, 3, 7}, {9, 2, 5}, {1, 13, 4}, {6, 0, 11}};
  unsigned idx = 0;
  for (unsigned cores : {2u, 3u}) {
    for (const auto& [pos, pname] : positions) {
      for (u32 align : {0u, 8u}) {
        Scenario sc;
        sc.active_cores = cores;
        sc.position = pos;
        sc.alignment = align;
        sc.stagger = staggers[idx++ % 4];
        sc.label = std::string(pname) + "/" + std::to_string(cores) + "c/a" +
                   std::to_string(align);
        grid.push_back(sc);
      }
    }
  }
  return grid;
}

std::vector<BuiltTest> build_scenario_tests(const core::SelfTestRoutine& r,
                                            WrapperKind wrapper, const Scenario& sc,
                                            unsigned graded, bool use_pcs) {
  std::vector<BuiltTest> tests;
  for (unsigned c : active_set(sc, graded))
    tests.push_back(core::build_wrapped(r, wrapper, scenario_env(sc, c, use_pcs)));
  return tests;
}

fault::SocFactory scenario_factory(std::vector<BuiltTest> tests, const Scenario& sc,
                                   unsigned graded) {
  (void)graded;
  soc::SocConfig cfg;
  cfg.start_delay = sc.stagger;
  return [tests = std::move(tests), cfg]() {
    soc::Soc s(cfg);
    for (const auto& t : tests) {
      s.load_program(t.prog);
      s.set_boot(t.env.core_id, t.prog.entry());
    }
    return s;
  };
}

// -----------------------------------------------------------------------------
// Figure 1
// -----------------------------------------------------------------------------

namespace {

/// The paper's code fragment: two dependent adds (EX-to-EX forwarding path).
isa::Program fig1_program(u32 code_base, bool cached) {
  isa::Assembler a(code_base);
  a.label("entry");
  a.set_entry("entry");
  using namespace isa;
  if (cached) {
    a.li(R1, kCacheOpInvI | kCacheOpInvD);
    a.csrw(Csr::kCacheOp, R1);
    a.li(R1, kCacheCfgIEn | kCacheCfgDEn | kCacheCfgWriteAllocate);
    a.csrw(Csr::kCacheCfg, R1);
  }
  a.li(R1, 0x1111);
  a.li(R2, 0x2222);
  a.li(R7, 0x0f0f);
  // Warm-up loop: with caches this is the loading pass; the second iteration
  // is the observed one.
  a.addi(R30, R0, 2);
  a.label("loop");
  a.align(8);
  a.add(R3, R1, R2);   // producer
  a.nop();
  a.add(R5, R3, R7);   // consumer: needs R3 via the EX->EX path
  a.nop();
  a.addi(R30, R30, -1);
  a.bne(R30, R0, "loop");
  a.halt();
  return a.assemble();
}

struct Fig1Run {
  std::string trace;
  u64 ex_distance = 0;
};

Fig1Run fig1_run(unsigned cores, bool cached) {
  soc::SocConfig cfg;
  cfg.start_delay = {0, 3, 6};
  soc::Soc s(cfg);
  const isa::Program p0 = fig1_program(mem::kFlashBase + 0x2000, cached);
  s.load_program(p0);
  s.set_boot(0, p0.entry());
  for (unsigned c = 1; c < cores; ++c) {
    const isa::Program pc =
        fig1_program(mem::kFlashBase + 0x2000 + c * kPerCoreCodeStride, cached);
    s.load_program(pc);
    s.set_boot(c, pc.entry());
  }
  s.reset();
  s.core(0).trace().enable(true);
  const auto res = s.run(100000);
  if (res.timed_out) throw std::runtime_error("fig1 run timed out");

  Fig1Run out;
  // Find the second-iteration producer/consumer EX cycles.
  const auto& instrs = s.core(0).trace().instrs();
  u64 prod_ex = 0, cons_ex = 0, window_lo = 0, window_hi = 0;
  for (const auto& ti : instrs) {
    if (ti.text.rfind("add    r3", 0) == 0) {
      prod_ex = ti.stage_cycle[1];
      window_lo = ti.stage_cycle[0];
    }
    if (ti.text.rfind("add    r5", 0) == 0) {
      cons_ex = ti.stage_cycle[1];
      window_hi = ti.stage_cycle[3];
    }
  }
  out.ex_distance = cons_ex > prod_ex ? cons_ex - prod_ex : 0;
  out.trace = s.core(0).trace().render(window_lo > 4 ? window_lo - 4 : 0,
                                       window_hi + 2);
  return out;
}

}  // namespace

Fig1Result run_fig1() {
  Fig1Result r;
  auto cached = fig1_run(3, true);
  auto single = fig1_run(1, false);
  auto triple = fig1_run(3, false);
  r.trace_cached = std::move(cached.trace);
  r.trace_single_core = std::move(single.trace);
  r.trace_triple_core = std::move(triple.trace);
  r.ex_distance_cached = cached.ex_distance;
  r.ex_distance_single = single.ex_distance;
  r.ex_distance_triple = triple.ex_distance;
  return r;
}

// -----------------------------------------------------------------------------
// Table I
// -----------------------------------------------------------------------------

std::vector<Table1Row> run_table1(unsigned stagger_samples, const ExecOptions& opts) {
  if (stagger_samples < 1 || stagger_samples > kTable1Staggers)
    throw std::invalid_argument("run_table1: stagger_samples must be in [1, " +
                                std::to_string(kTable1Staggers) + "]");
  std::vector<Table1Row> rows;
  const std::array<u32, 3> staggers[kTable1Staggers] = {
      {0, 0, 0}, {0, 5, 11}, {3, 9, 1}, {7, 2, 13}};

  for (unsigned cores = 1; cores <= 3; ++cores) {
    double if_sum = 0, mem_sum = 0;
    const unsigned samples = cores == 1 ? 1 : stagger_samples;
    for (unsigned sidx = 0; sidx < samples; ++sidx) {
      // Each active core runs the full boot STL (plain structure, no caches).
      soc::SocConfig cfg;
      cfg.start_delay = staggers[sidx];
      soc::Soc s(cfg);
      std::vector<core::BuiltSuite> suites;
      for (unsigned c = 0; c < cores; ++c) {
        auto stl = core::make_boot_stl();
        core::SuiteSpec spec;
        for (const auto& r : stl) spec.routines.push_back(r.get());
        spec.wrapper = WrapperKind::kPlain;
        Scenario sc;  // default placement
        spec.env = scenario_env(sc, c, false);
        suites.push_back(core::build_suite(spec));
        s.load_program(suites.back().prog);
        s.set_boot(c, suites.back().prog.entry());
      }
      s.reset();
      const auto res = s.run(50'000'000);
      if (res.timed_out) throw std::runtime_error("table1 run timed out");
      for (unsigned c = 0; c < cores; ++c) {
        if_sum += static_cast<double>(s.core(c).perf().if_stalls);
        mem_sum += static_cast<double>(s.core(c).perf().mem_stalls);
      }
    }
    rows.push_back(Table1Row{cores, if_sum / samples, mem_sum / samples});
    if (opts.log)
      opts.log(std::to_string(cores) + " active core(s): IF stalls " +
               std::to_string(static_cast<long long>(rows.back().if_stalls)) +
               ", MEM stalls " +
               std::to_string(static_cast<long long>(rows.back().mem_stalls)));
  }
  return rows;
}

// -----------------------------------------------------------------------------
// Table II
// -----------------------------------------------------------------------------

namespace {

/// Shared campaign-configuration boilerplate of the table drivers. `leaf`
/// names this campaign's checkpoint subdirectory under the ExecOptions
/// checkpoint root (must be unique per campaign within one bench run).
fault::CampaignConfig table_campaign_config(fault::Module module, unsigned graded,
                                            u32 fault_stride, bool from_marker,
                                            const std::string& leaf,
                                            const ExecOptions& opts) {
  fault::CampaignConfig cc;
  cc.module = module;
  cc.core_id = graded;
  cc.kind = static_cast<CoreKind>(graded);
  cc.fault_stride = fault_stride;
  cc.signature_from_marker = from_marker;
  cc.threads = opts.threads;
  cc.progress = opts.progress;
  cc.sink = opts.sink;
  cc.interrupt = opts.interrupt;
  if (opts.checkpoint.enabled()) {
    cc.checkpoint = opts.checkpoint;
    std::string s = leaf;
    for (char& ch : s)
      if (ch == '/' || ch == ' ') ch = '-';
    cc.checkpoint.dir += "/" + s;
    // Bench-level --resume is per campaign: campaigns the interrupted run
    // never reached have no manifest yet and start fresh.
    cc.checkpoint.resume =
        opts.checkpoint.resume && fault::checkpoint_present(cc.checkpoint);
  }
  return cc;
}

/// Stop a multi-campaign table bench at the first drained campaign: the
/// completed prefix is journalled; later campaigns resume untouched.
void throw_if_interrupted(const fault::CampaignResult& res) {
  if (res.ckpt.interrupted)
    throw fault::Interrupted(
        "fault campaign drained mid-run; re-run with --resume to continue");
}

std::string fc_log_line(char core, const Scenario& sc, double fc) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", fc);
  return std::string("core ") + core + " | " + sc.label + " | FC " + buf + "%";
}

}  // namespace

std::vector<Table2Row> run_table2(u32 fault_stride, unsigned max_scenarios,
                                  const ExecOptions& opts) {
  std::vector<Table2Row> rows;
  const auto routine = core::make_fwd_test(/*with_perf_counters=*/false);
  auto grid = nocache_scenario_grid();
  if (max_scenarios != 0 && grid.size() > max_scenarios) grid.resize(max_scenarios);

  for (unsigned graded = 0; graded < 3; ++graded) {
    Table2Row row;
    row.core = static_cast<char>('A' + graded);
    row.fc_min = 101.0;
    row.fc_max = -1.0;

    // Multi-core, no caches: FC oscillates across the scenario grid.
    for (const Scenario& sc : grid) {
      auto tests = build_scenario_tests(*routine, WrapperKind::kPlain, sc, graded,
                                        /*use_pcs=*/false);
      const auto cc = table_campaign_config(
          fault::Module::kFwd, graded, fault_stride, false,
          std::string("t2-nocache-") + row.core + "-" + sc.label, opts);
      fault::Campaign campaign(cc, scenario_factory(std::move(tests), sc, graded));
      const auto res = campaign.run();
      throw_if_interrupted(res);
      row.faults = res.simulated_faults;
      row.fc_min = std::min(row.fc_min, res.coverage_percent());
      row.fc_max = std::max(row.fc_max, res.coverage_percent());
      if (opts.log) opts.log(fc_log_line(row.core, sc, res.coverage_percent()));
    }

    // Cache-based strategy: stable FC, checked across two distinct scenarios.
    std::set<long> cached_fcs;
    for (const Scenario& sc :
         {Scenario{3, {0, 3, 7}, 0, 0, "cached/a"}, Scenario{3, {9, 1, 4}, kPosMid, 8, "cached/b"}}) {
      auto tests = build_scenario_tests(*routine, WrapperKind::kCacheBased, sc, graded,
                                        /*use_pcs=*/false);
      // Cache-based: the loading loop's signatures are unchecked.
      const auto cc = table_campaign_config(
          fault::Module::kFwd, graded, fault_stride, true,
          std::string("t2-cached-") + row.core + "-" + sc.label, opts);
      fault::Campaign campaign(cc, scenario_factory(std::move(tests), sc, graded));
      const auto res = campaign.run();
      throw_if_interrupted(res);
      row.fc_cached = res.coverage_percent();
      cached_fcs.insert(std::lround(res.coverage_percent() * 1000));
      if (opts.log) opts.log(fc_log_line(row.core, sc, res.coverage_percent()));
    }
    row.cached_stable = cached_fcs.size() == 1;
    rows.push_back(row);
  }
  return rows;
}

// -----------------------------------------------------------------------------
// Table III
// -----------------------------------------------------------------------------

namespace {

double campaign_fc(const core::SelfTestRoutine& r, WrapperKind w, const Scenario& sc,
                   unsigned graded, bool use_pcs, fault::Module module,
                   u32 fault_stride, u64& faults_out, const ExecOptions& opts) {
  auto tests = build_scenario_tests(r, w, sc, graded, use_pcs);
  const auto cc = table_campaign_config(
      module, graded, fault_stride, w == WrapperKind::kCacheBased,
      std::string("t3-") + fault::module_name(module) + "-" +
          static_cast<char>('A' + graded) + "-" + sc.label,
      opts);
  fault::Campaign campaign(cc, scenario_factory(std::move(tests), sc, graded));
  const auto res = campaign.run();
  throw_if_interrupted(res);
  faults_out = res.simulated_faults;
  if (opts.log)
    opts.log(fc_log_line(static_cast<char>('A' + graded), sc,
                         res.coverage_percent()) +
             " | " + fault::module_name(module));
  return res.coverage_percent();
}

/// Fault-free plain-wrapper multi-core runs: how many scenarios FAIL against
/// the single-core golden (Sec. IV-D: "inevitably failed").
unsigned stability_failures(const core::SelfTestRoutine& r, unsigned graded,
                            bool use_pcs, unsigned& runs_out) {
  const std::array<u32, 3> staggers[] = {{0, 3, 7}, {5, 0, 2}, {1, 9, 4}};
  unsigned failures = 0;
  runs_out = 0;
  for (const auto& st : staggers) {
    Scenario sc{3, st, 0, 0, "stab"};
    auto tests = build_scenario_tests(r, WrapperKind::kPlain, sc, graded, use_pcs);
    soc::Soc s = scenario_factory(tests, sc, graded)();
    s.reset();
    const auto res = s.run(20'000'000);
    if (res.timed_out) throw std::runtime_error("stability run timed out");
    const auto v = core::read_verdict(s, soc::mailbox_addr(graded));
    ++runs_out;
    if (v.status == soc::kStatusFail) ++failures;
  }
  return failures;
}

}  // namespace

std::vector<Table3Row> run_table3(u32 fault_stride, const ExecOptions& opts) {
  std::vector<Table3Row> rows;
  const auto icu_routine = core::make_icu_test();
  const auto hdcu_routine = core::make_fwd_test(/*with_perf_counters=*/true);

  const Scenario single{1, {0, 0, 0}, 0, 0, "single"};
  const Scenario multi{3, {0, 3, 7}, 0, 0, "multi"};

  for (unsigned graded = 0; graded < 3; ++graded) {
    for (bool is_icu : {true, false}) {
      const core::SelfTestRoutine& r = is_icu ? *icu_routine : *hdcu_routine;
      const bool use_pcs = !is_icu;  // the HDCU routine uses the PCs (Table III)
      const auto module = is_icu ? fault::Module::kIcu : fault::Module::kHdcu;

      Table3Row row;
      row.core = static_cast<char>('A' + graded);
      row.module = is_icu ? "ICU" : "HDCU";
      // The ICU netlists are small: grade them exhaustively regardless of the
      // sampling stride (stride sampling would add noise comparable to the
      // A/B-vs-C cause-masking effect under study).
      const u32 stride = is_icu ? 1 : fault_stride;
      row.fc_single_nocache = campaign_fc(r, WrapperKind::kPlain, single, graded,
                                          use_pcs, module, stride, row.faults, opts);
      row.fc_multi_cached = campaign_fc(r, WrapperKind::kCacheBased, multi, graded,
                                        use_pcs, module, stride, row.faults, opts);
      row.plain_multicore_failures =
          stability_failures(r, graded, use_pcs, row.stability_runs);
      rows.push_back(row);
    }
  }
  return rows;
}

// -----------------------------------------------------------------------------
// Table IV
// -----------------------------------------------------------------------------

std::vector<Table4Row> run_table4(const ExecOptions& opts) {
  const auto routine = core::make_icu_test();
  std::vector<Table4Row> rows;

  for (WrapperKind w : {WrapperKind::kTcmBased, WrapperKind::kCacheBased}) {
    Table4Row row;
    row.approach = w == WrapperKind::kTcmBased ? "TCM-based" : "Cache-based";

    for (unsigned active : {1u, 3u}) {
      const Scenario sc{active, {0, 3, 7}, 0, 0, "t4"};
      std::vector<BuiltTest> tests;
      for (unsigned c = 0; c < active; ++c) {
        BuildEnv env = scenario_env(sc, c, false);
        // The TCM strategy keeps the routine's data in the data TCM (part of
        // the reserved-space cost the paper charges it for); the cache
        // strategy caches shared SRAM.
        if (w == WrapperKind::kTcmBased) env.data_base = mem::kDtcmBase + 0x400;
        tests.push_back(core::build_wrapped(*routine, w, env));
      }
      soc::Soc s = scenario_factory(tests, sc, 0)();
      s.reset();
      const auto res = s.run(20'000'000);
      if (res.timed_out) throw std::runtime_error("table4 run timed out");
      const auto v = core::read_verdict(s, soc::mailbox_addr(0));
      if (v.status != soc::kStatusPass) throw std::runtime_error("table4 test failed");

      row.memory_overhead_bytes =
          tests[0].tcm_bytes + (w == WrapperKind::kTcmBased ? routine->data_bytes() : 0);
      if (active == 1) {
        row.execution_cycles = s.core(0).perf().cycles;
        row.usec_at_180mhz = static_cast<double>(row.execution_cycles) / 180.0;
      } else {
        row.contended_cycles = s.core(0).perf().cycles;
      }
      if (opts.log)
        opts.log(row.approach + " | " + std::to_string(active) +
                 " active core(s) | " +
                 std::to_string(s.core(0).perf().cycles) + " cycles");
    }
    rows.push_back(row);
  }
  return rows;
}

}  // namespace detstl::exp
