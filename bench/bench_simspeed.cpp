// Simulator micro-benchmarks (google-benchmark): SoC cycle throughput in the
// regimes the experiments exercise, netlist evaluation, and the end-to-end
// wrapped-routine build. Not a paper exhibit; tracks the harness itself.
//
// The sim-MHz probe (--probe-only / --metrics-out) is the CI perf-gate KPI
// workload: a FIXED amount of simulated work — the cache-based routine to
// halt on one core, then the plain routines to halt on all three contended
// cores, `--probe-reps` times — so the "sim" subtree of BENCH_simspeed.json
// is byte-identical run to run and only the host timings move. The gbench
// timings stay for interactive use; the gate compares probe runs only.
//
//   bench_simspeed --probe-only --metrics-out BENCH_simspeed.json
//   stlperf check BENCH_simspeed.json --baseline bench/baselines/BENCH_simspeed.json

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "core/routines.h"
#include "core/wrapper.h"
#include "exp/experiments.h"
#include "netlist/adapters.h"

namespace {

using namespace detstl;

core::BuiltTest build_test(unsigned core_id, core::WrapperKind w) {
  core::BuildEnv env;
  env.core_id = core_id;
  env.kind = static_cast<isa::CoreKind>(core_id);
  env.code_base = mem::kFlashBase + 0x2000 + core_id * 0x40000;
  env.data_base = core::default_data_base(core_id);
  const auto routine = core::make_fwd_test(false);
  return core::build_wrapped(*routine, w, env);
}

u64 run_single_core_cached(const core::BuiltTest& bt) {
  soc::Soc s;
  s.load_program(bt.prog);
  s.set_boot(0, bt.prog.entry());
  s.reset();
  return s.run(10'000'000).cycles;
}

u64 run_triple_core_contended(const std::vector<core::BuiltTest>& tests) {
  soc::Soc s;
  for (const auto& t : tests) {
    s.load_program(t.prog);
    s.set_boot(t.env.core_id, t.prog.entry());
  }
  s.reset();
  return s.run(20'000'000).cycles;
}

/// Fixed-work KPI probe; returns the bench exit code.
int run_probe(const bench::BenchOptions& opts, unsigned reps) {
  // Build the routines BEFORE the session starts: the KPI measures the
  // simulator's cycle throughput, not the assembler/wrapper builder.
  const auto cached = build_test(0, core::WrapperKind::kCacheBased);
  std::vector<core::BuiltTest> plain;
  for (unsigned c = 0; c < 3; ++c)
    plain.push_back(build_test(c, core::WrapperKind::kPlain));

  perf::Session session("simspeed", opts.profile);
  session.hash_knob("probe_reps", reps);
  u64 single = 0, triple = 0;
  for (unsigned r = 0; r < reps; ++r) single = run_single_core_cached(cached);
  session.mark_phase("single_core_cached");
  for (unsigned r = 0; r < reps; ++r) triple = run_triple_core_contended(plain);
  session.mark_phase("triple_core_contended");
  std::printf("probe: single-core cached %llu cycles, triple-core contended "
              "%llu cycles, %u rep(s)\n",
              static_cast<unsigned long long>(single),
              static_cast<unsigned long long>(triple), reps);
  // The probe runs to halt; a timeout means the workload itself broke.
  const bool ok = single > 0 && single < 10'000'000 && triple > 0 &&
                  triple < 20'000'000;
  if (!ok) std::printf("probe: FAILED (a workload hit its watchdog)\n");
  return session.finish(opts.metrics_out, ok ? 0 : 1);
}

void BM_SocCycles_SingleCoreCached(benchmark::State& state) {
  const auto bt = build_test(0, core::WrapperKind::kCacheBased);
  for (auto _ : state) {
    soc::Soc s;
    s.load_program(bt.prog);
    s.set_boot(0, bt.prog.entry());
    s.reset();
    const auto res = s.run(10'000'000);
    state.SetItemsProcessed(state.items_processed() + static_cast<long>(res.cycles));
  }
}
BENCHMARK(BM_SocCycles_SingleCoreCached)->Unit(benchmark::kMillisecond);

void BM_SocCycles_TripleCoreContended(benchmark::State& state) {
  std::vector<core::BuiltTest> tests;
  for (unsigned c = 0; c < 3; ++c) tests.push_back(build_test(c, core::WrapperKind::kPlain));
  for (auto _ : state) {
    soc::Soc s;
    for (const auto& t : tests) {
      s.load_program(t.prog);
      s.set_boot(t.env.core_id, t.prog.entry());
    }
    s.reset();
    const auto res = s.run(20'000'000);
    state.SetItemsProcessed(state.items_processed() + static_cast<long>(res.cycles));
  }
}
BENCHMARK(BM_SocCycles_TripleCoreContended)->Unit(benchmark::kMillisecond);

void BM_NetlistEval_Fwd64Lane(benchmark::State& state) {
  const netlist::FwdNetlist mod(isa::CoreKind::kC);
  auto st = mod.nl().make_state();
  cpu::FwdIn in;
  in.port[0].rf = 0x1234'5678'9abc'def0ull;
  in.port[0].sel = cpu::FwdSel::kExMem0;
  mod.encode(in, st);
  for (auto _ : state) {
    mod.nl().eval(st);
    benchmark::DoNotOptimize(st.value.data());
    state.SetItemsProcessed(state.items_processed() + 1);
  }
}
BENCHMARK(BM_NetlistEval_Fwd64Lane);

void BM_NetlistEval_Hdcu(benchmark::State& state) {
  const netlist::HdcuNetlist mod(isa::CoreKind::kA);
  auto st = mod.nl().make_state();
  cpu::HdcuIn in;
  in.cons[0] = {.rs = 5, .used = true};
  in.prod[0] = {.rd = 5, .writes = true};
  mod.encode(in, st);
  for (auto _ : state) {
    mod.nl().eval(st);
    benchmark::DoNotOptimize(st.value.data());
    state.SetItemsProcessed(state.items_processed() + 1);
  }
}
BENCHMARK(BM_NetlistEval_Hdcu);

void BM_BuildWrappedRoutine(benchmark::State& state) {
  for (auto _ : state) {
    auto bt = build_test(0, core::WrapperKind::kCacheBased);
    benchmark::DoNotOptimize(bt.golden);
  }
}
BENCHMARK(BM_BuildWrappedRoutine)->Unit(benchmark::kMillisecond);

void BM_SocCheckpointCopy(benchmark::State& state) {
  const auto bt = build_test(0, core::WrapperKind::kCacheBased);
  soc::Soc s;
  s.load_program(bt.prog);
  s.set_boot(0, bt.prog.entry());
  s.reset();
  for (int i = 0; i < 1000; ++i) s.tick();
  for (auto _ : state) {
    soc::Soc copy = s;
    benchmark::DoNotOptimize(copy.now());
  }
}
BENCHMARK(BM_SocCheckpointCopy)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Peel the probe options off before google-benchmark sees the argv (it
  // rejects flags it doesn't know).
  bench::BenchOptions opts;
  bool probe_only = false;
  unsigned reps = 1;
  std::vector<std::string> gbench_args = {argv[0]};
  cli::Args args("bench_simspeed", argc - 1, argv + 1);
  while (args.next()) {
    if (args.is("--metrics-out")) {
      opts.metrics_out = args.value();
    } else if (args.is("--profile")) {
      opts.profile = true;
    } else if (args.is("--probe-only")) {
      probe_only = true;
    } else if (args.is("--probe-reps")) {
      reps = args.unsigned_in(1, ~0u);
    } else {
      gbench_args.push_back(args.flag());
    }
  }

  if (probe_only || !opts.metrics_out.empty()) {
    const int rc = run_probe(opts, reps);
    if (probe_only || rc != 0) return rc;
  }

  std::vector<char*> fwd;
  for (std::string& a : gbench_args) fwd.push_back(a.data());
  int fwd_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&fwd_argc, fwd.data());
  if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
