// Rate-based SEU soak campaign at bench scale (docs/runtime.md "SEU soak"):
// seeded Poisson-style upsets against RAM, the L1 arrays and the pipeline
// latches of a full 3-core mission schedule, with differential bisection
// isolating the responsible upset on every diverged run. The knobs that
// matter for the trajectory:
//
//   DETSTL_SOAK_RUNS    independent soak runs (default 24)
//   DETSTL_SOAK_SEED    campaign master seed (default 0x5EA5BEAC)
//   --threads N         executor worker threads (byte-identical result)
//   --checkpoint-dir D [--resume] [--interrupt-after N] [--timeout SEC]
//                       crash-safe journaling drills, exit-code contract of
//                       tools/cli_util.h (3 = interrupted but resumable)
//
// The campaign result is a deterministic function of (spec, seed) at every
// thread count, so the sim subtree of the emitted BENCH_soak.json is a valid
// stlperf regression subject.

#include "bench_util.h"
#include "runtime/soak.h"

int main(int argc, char** argv) {
  using namespace detstl;
  const bench::BenchOptions opts =
      bench::parse_options(argc, argv, bench::kMetrics | bench::kCampaign);
  perf::Session session("soak");

  runtime::SoakCampaignSpec spec;
  spec.runs = bench::env_unsigned(opts, "DETSTL_SOAK_RUNS", 24);
  spec.seed = bench::env_unsigned(opts, "DETSTL_SOAK_SEED", 0x5EA5BEAC);
  opts.campaign.apply(spec);

  session.hash_knob("runs", spec.runs);
  session.hash_knob("seed", spec.seed);
  session.hash_knob("rate_ram", spec.soak.rates.ram);
  session.hash_knob("rate_l1i", spec.soak.rates.l1i);
  session.hash_knob("rate_l1d", spec.soak.rates.l1d);
  session.hash_knob("rate_pipeline", spec.soak.rates.pipeline);

  const runtime::SoakCampaignResult res =
      bench::run_resumable([&] { return runtime::run_soak_campaign(spec); });
  session.mark_phase("soak-campaign");
  if (res.ckpt.interrupted) {
    cli::report_interrupted(opts.tool.c_str(), res.completed(), res.runs,
                            spec.checkpoint);
    return session.finish(opts.metrics_out, cli::kExitInterrupted);
  }

  std::fputs(runtime::render_soak_report(res).c_str(), stdout);
  std::printf("wall: %.2fs across %u thread(s)\n", res.wall_seconds,
              res.threads_used);
  return session.finish(opts.metrics_out, 0);
}
