// Table I reproduction: memory-subsystem stall cycles of the parallel STL
// execution as the number of active cores grows. Each active core runs the
// full boot STL (ALU, register-file march, shifter, branch, MUL/DIV) without
// caches; stall counters are summed over the active cores and averaged over
// reset staggers ("the actual number of stall cycles varies depending on the
// initial SoC configuration"). Knob: DETSTL_STAGGERS, how many of the four
// staggers the multi-core rows average over (default 3; 1-4, else exit 2).

#include "bench_util.h"
#include "exp/experiments.h"

int main(int argc, char** argv) {
  using namespace detstl;
  const auto opts =
      bench::parse_options(argc, argv, bench::kProgress | bench::kMetrics);
  const unsigned samples = bench::env_unsigned(opts, "DETSTL_STAGGERS", 3, /*lo=*/1,
                                               /*hi=*/exp::kTable1Staggers);
  bench::print_header("Table I (multi-core STL execution: stalls)",
                      "1 core: 200,679 IF / 117,965 MEM; 2: 717,538 / 305,801; "
                      "3: 1,878,336 / 663,386");

  perf::Session session("table1");
  session.hash_knob("staggers", samples);
  const auto rows = exp::run_table1(samples, bench::exec_options(opts));
  session.mark_phase("stagger_sweep");

  TextTable t("Multi-core STL execution: stalls due to the memory subsystem");
  t.header({"# Active Cores", "IF Stalls [clock cycles]", "MEM Stalls [clock cycles]"});
  for (const auto& r : rows) {
    t.row({std::to_string(r.active_cores),
           TextTable::fmt_int(static_cast<long long>(r.if_stalls)),
           TextTable::fmt_int(static_cast<long long>(r.mem_stalls))});
  }
  t.print();

  // Shape: super-linear growth of IF stalls with the core count (the paper's
  // 1->3 cores growth is ~9.4x; per-core work triples, so anything clearly
  // above 3x demonstrates the contention blow-up).
  const bool shape_ok = rows.size() == 3 &&
                        rows[1].if_stalls > 2.5 * rows[0].if_stalls &&
                        rows[2].if_stalls > 1.5 * rows[1].if_stalls &&
                        rows[2].if_stalls > 4.0 * rows[0].if_stalls;
  std::printf("\nshape check (super-linear IF-stall growth, IF >> MEM): %s\n",
              shape_ok ? "OK" : "MISMATCH");
  return session.finish(opts.metrics_out, shape_ok ? 0 : 1);
}
