// Table III reproduction: ICU and HDCU fault coverage.
//   * column "FC Single-Core no caches": the routines executed alone, legacy
//     structure — stable but unable to excite everything (flash latency);
//   * column "FC Multi-Core with caches": the proposed strategy with all
//     three cores active — stable and higher;
//   * multi-core WITHOUT caches: the fault-free signature mismatches the
//     single-core golden ("the test procedures inevitably failed in any
//     configuration") — shown as the failure count across staggers.
//
// Exhaustive by default. Knobs: DETSTL_FAULT_STRIDE (default 1),
// DETSTL_THREADS / --threads N (0 = hardware concurrency), --progress.

#include <chrono>

#include "bench_util.h"
#include "exp/experiments.h"

int main(int argc, char** argv) {
  using namespace detstl;
  const auto opts = bench::parse_options(
      argc, argv,
      bench::kProgress | bench::kTrace | bench::kMetrics | bench::kCampaign);
  const unsigned stride =
      bench::env_unsigned(opts, "DETSTL_FAULT_STRIDE", 1, /*lo=*/1);
  const auto tracer = bench::make_trace_writer(opts);
  bench::print_header(
      "Table III (ICU and HDCU fault simulation)",
      "A: ICU 46.57->51.36%, HDCU 62.53->70.37%; B: ICU 46.39->50.97%, "
      "HDCU 63.84->70.12%; C: ICU 54.94->60.91%, HDCU 65.66->68.09%");

  perf::Session session("table3");
  session.hash_knob("fault_stride", stride);
  const auto t0 = std::chrono::steady_clock::now();
  const auto rows = bench::run_resumable([&] {
    return exp::run_table3(stride, bench::exec_options(opts, tracer.get()));
  });
  session.mark_phase("campaigns");
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  TextTable t("ICU and HDCU fault simulation results (stride " +
              std::to_string(stride) + ")");
  t.header({"Core", "Module", "# of Faults", "FC Single-Core no caches [%]",
            "FC Multi-Core with caches [%]", "plain multi-core verdict"});
  for (const auto& r : rows) {
    t.row({std::string(1, r.core), r.module,
           TextTable::fmt_int(static_cast<long long>(r.faults)),
           TextTable::fmt_fixed(r.fc_single_nocache, 2),
           TextTable::fmt_fixed(r.fc_multi_cached, 2),
           "FAILED " + std::to_string(r.plain_multicore_failures) + "/" +
               std::to_string(r.stability_runs)});
  }
  t.print();
  const unsigned threads = opts.campaign.threads;
  // Host time goes to stderr, so stdout is the same bytes on every run.
  std::printf("\n");
  std::fprintf(stderr, "wall-clock: %.1f s (threads=%u%s)\n", wall, threads,
               threads == 0 ? " = all hardware threads" : "");

  bool shape_ok = true;
  double icu_ab_cached = 0, icu_c_cached = 0;
  for (const auto& r : rows) {
    shape_ok &= r.fc_multi_cached >= r.fc_single_nocache;  // cached >= single
    shape_ok &= r.plain_multicore_failures == r.stability_runs;  // inevitably fails
    if (r.module == "ICU") {
      if (r.core == 'C') icu_c_cached = r.fc_multi_cached;
      else icu_ab_cached = std::max(icu_ab_cached, r.fc_multi_cached);
    }
  }
  // Core C's distinct cause bits -> ICU coverage at least as high as A/B
  // (shared cause bits mask fault effects). Our scaled ICU netlists saturate
  // in the high 90s, so the masking gap is small — allow one fault of
  // tolerance (see EXPERIMENTS.md).
  shape_ok &= icu_c_cached >= icu_ab_cached - 1.5;
  std::printf("\nshape check (cached >= single, plain multi-core always fails, "
              "core C ICU >= A/B): %s\n",
              shape_ok ? "OK" : "MISMATCH");
  bench::finish_trace(opts, tracer);
  return session.finish(opts.metrics_out, shape_ok ? 0 : 1);
}
