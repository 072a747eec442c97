// Sim-MHz probe, the CI perf-gate KPI workload: a FIXED amount of simulated
// work — the cache-based routine to halt on one core, then the plain
// routines to halt on all three contended cores, `--probe-reps` times — so
// the "sim" subtree of BENCH_simspeed.json is byte-identical run to run and
// only the host timings move. Per-layer microbenchmarks (ns per simulated
// cycle, netlist eval, build time, SoC copy) live in perfbench.
//
//   bench_simspeed --metrics-out BENCH_simspeed.json
//   stlperf check BENCH_simspeed.json --baseline bench/baselines/BENCH_simspeed.json

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/routines.h"
#include "core/stl.h"

namespace {

using namespace detstl;

core::BuiltTest build_test(unsigned core_id, core::WrapperKind w) {
  const auto routine = core::make_fwd_test(false);
  return core::build_wrapped(*routine, w, core::quickstart_env(core_id, true));
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
int run_probe(const std::string& metrics_out, unsigned reps) {
  // Build the routines BEFORE the session starts: the KPI measures the
  // simulator's cycle throughput, not the assembler/wrapper builder.
  const auto cached = build_test(0, core::WrapperKind::kCacheBased);
  std::vector<core::BuiltTest> plain;
  for (unsigned c = 0; c < 3; ++c)
    plain.push_back(build_test(c, core::WrapperKind::kPlain));

  perf::Session session("simspeed");
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
  return session.finish(metrics_out, ok ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  unsigned reps = 1;
  cli::Args args("bench_simspeed", argc - 1, argv + 1);
  while (args.next()) {
    if (args.is("--metrics-out")) {
      metrics_out = args.value();
    } else if (args.is("--probe-reps")) {
      reps = args.unsigned_in(1, ~0u);
    } else {
      std::fprintf(stderr,
                   "bench_simspeed: unknown option '%s'\n"
                   "usage: bench_simspeed [--probe-reps N] [--metrics-out FILE]\n",
                   args.flag().c_str());
      return cli::kExitUsage;
    }
  }
  if (!cli::output_writable(metrics_out)) return cli::kExitUsage;
  return run_probe(metrics_out, reps);
}
