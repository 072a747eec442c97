// Table IV reproduction: TCM-based vs cache-based execution of the
// imprecise-interrupt routine. The reproduced claims: the TCM strategy
// permanently reserves scratchpad memory for the test, the cache strategy
// reserves none; both are deterministic. Execution time is reported for the
// deterministic single-core setting (paper's fixed cycle counts) and for the
// contended triple-core setting.
//
// Documented deviation (EXPERIMENTS.md): on this SoC model the cache-based
// strategy is also *faster* — the paper's flash pays its full latency on
// every instruction fetch of the loading loop, while our flash controller's
// instruction-side line buffer and burst refills amortise it; the paper
// itself calls its ~1,500-cycle penalty negligible.

#include "bench_util.h"
#include "exp/experiments.h"

int main(int argc, char** argv) {
  using namespace detstl;
  const auto opts =
      bench::parse_options(argc, argv, bench::kProgress | bench::kMetrics);
  bench::print_header(
      "Table IV (TCM-based vs cache-based, imprecise-interrupt routine)",
      "TCM-based: 2,874 B overhead, 16,463 cycles; cache-based: 0 B, 18,043 "
      "cycles (8.25us @180MHz difference)");

  perf::Session session("table4");
  const auto rows = exp::run_table4(bench::exec_options(opts));
  session.mark_phase("strategy_runs");

  TextTable t("TCM-based versus cache-based approaches");
  t.header({"Approach", "Overall Memory Overhead [bytes]",
            "Execution Time single-core [cycles]", "[us @180MHz]",
            "Execution Time 3 cores [cycles]"});
  for (const auto& r : rows) {
    t.row({r.approach, TextTable::fmt_int(r.memory_overhead_bytes),
           TextTable::fmt_int(static_cast<long long>(r.execution_cycles)),
           TextTable::fmt_fixed(r.usec_at_180mhz, 2),
           TextTable::fmt_int(static_cast<long long>(r.contended_cycles))});
  }
  t.print();

  const bool shape_ok = rows.size() == 2 && rows[0].memory_overhead_bytes > 0 &&
                        rows[1].memory_overhead_bytes == 0;
  std::printf("\nshape check (TCM reserves memory, cache-based reserves none): %s\n",
              shape_ok ? "OK" : "MISMATCH");
  return session.finish(opts.metrics_out, shape_ok ? 0 : 1);
}
