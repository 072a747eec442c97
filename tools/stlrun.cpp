// stlrun — fault-tolerant on-line STL supervisor driver.
//
// Runs seeded disturbance campaigns against the cache-wrapped self-test
// routines and prints the per-core recovery report. The report and the
// campaign outcome vector are deterministic for a fixed seed at any thread
// count; --verify-threads re-runs the campaign at several thread counts and
// fails (exit 1) unless the outcome vectors are byte-identical.
//
// With --checkpoint-dir the campaign journals completed runs into checksummed
// shards; SIGINT/SIGTERM drain cooperatively (finish in-flight runs, flush a
// final shard) and exit 3 = interrupted-but-resumable. --resume continues
// from the verified shards; the completed result is byte-identical to an
// uninterrupted run.
//
// Exit codes (tools/cli_util.h): 0 success, 1 determinism mismatch,
// 2 usage / setup error, 3 interrupted but resumable.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_util.h"
#include "common/bytes.h"
#include "common/table.h"
#include "core/stl.h"
#include "perf/collect.h"
#include "perf/perf_report.h"
#include "perf/sampler.h"
#include "perf/simstats.h"
#include "runtime/campaign.h"
#include "runtime/mission.h"
#include "runtime/soak.h"

namespace {

using namespace detstl;
using namespace detstl::runtime;

constexpr const char* kTool = "stlrun";

void usage(std::FILE* to) {
  std::fprintf(to,
      "usage: stlrun <command> [options]\n"
      "\n"
      "commands:\n"
      "  campaign     run a seeded disturbance campaign, print the recovery report\n"
      "  soak         run a rate-based SEU soak campaign with differential isolation\n"
      "  mission      interleave STL slices with mission workloads, check the\n"
      "               signatures and the stlint interference bound\n"
      "  list-kinds   list disturbance kinds and registered routines\n"
      "\n"
      "campaign options:\n"
      "  --seed N               master seed; REQUIRED and non-zero (exit 2 otherwise)\n"
      "  --runs N               supervised runs, 1..100000 (default 16)\n"
      "  --threads N            worker threads, 0 = hardware threads (default 0)\n"
      "  --verify-threads LIST  run at each thread count in LIST (e.g. 1,2,8);\n"
      "                         exit 1 unless outcome vectors are byte-identical\n"
      "  --cores N              active cores, 1..3 (default 3)\n"
      "  --routine NAME         registry routine, repeatable (default built-in mix)\n"
      "  --events N             disturbances per run, 0..1000 (default 6)\n"
      "  --permanent PCT        chance of a permanent flash fault per run, 0..100\n"
      "  --stall N              bus-stall burst cycles, 1..100000 (default 150)\n"
      "  --margin PCT           watchdog interference margin, 0..10000 (default 250)\n"
      "  --attempts N           cached-rung attempts, 1..16 (default 3)\n"
      "  --fallback-attempts N  fallback-rung attempts, 0..16 (default 2)\n"
      "  --digest-only          print only the outcome digest line\n"
      "  --metrics-out FILE     write an stlperf JSON report of the campaign\n"
      "                         (src/perf/perf_report.h; host timings on stderr\n"
      "                         so stdout stays byte-stable across thread counts)\n"
      "\n"
      "soak options (plus --seed/--runs/--threads/--verify-threads/--cores/\n"
      "--routine/--margin/--digest-only and the checkpoint/resume group):\n"
      "  --duration N           upset-arrival horizon in cycles, 0 = derived from\n"
      "                         the schedule calibration (default 0)\n"
      "  --rate-ram N           RAM upsets per million cycles (default 60)\n"
      "  --rate-l1i N           L1 I-cache upsets per million cycles (default 30)\n"
      "  --rate-l1d N           L1 D-cache upsets per million cycles (default 30)\n"
      "  --rate-pipe N          pipeline-latch upsets per million cycles (default 15)\n"
      "  --no-isolate           skip the differential bisection on diverged runs\n"
      "\n"
      "mission options:\n"
      "  --seed N               master seed; REQUIRED and non-zero (exit 2 otherwise)\n"
      "  --slices N             STL slices, 1..10000 (default 12)\n"
      "  --gap N                mission-only cycles between slices (default 2000)\n"
      "  --cores N              active cores, 1..3 (default 3)\n"
      "  --routine NAME         registry routine, repeatable (default built-in mix)\n"
      "  --margin PCT           per-slice watchdog margin (default 250)\n"
      "  exit 1 when any slice diverges from the golden signature or any\n"
      "  measured per-access bus wait exceeds the predicted d_max\n"
      "\n"
      "checkpoint/resume (exit 3 = interrupted but resumable):\n"
      "  --checkpoint-dir DIR     journal completed runs into DIR; SIGINT/SIGTERM\n"
      "                           drain cooperatively and flush a final shard\n"
      "  --checkpoint-interval N  completed runs per shard, 1..1000000 (default 256)\n"
      "  --resume                 load DIR's verified shards, run the remainder\n"
      "  --no-fsync               skip fsync on shard writes (faster, less durable)\n"
      "  --interrupt-after N      drill: request the drain after N completed runs\n"
      "  --timeout SEC            wall-clock budget: drain cooperatively after SEC\n"
      "                           seconds, same contract as SIGTERM (exit 3)\n"
      "\n"
      "  --version                print suite + checkpoint schema version\n");
}

int cmd_list_kinds() {
  std::printf("disturbance kinds:\n");
  for (unsigned k = 0; k < kNumDisturbanceKinds; ++k)
    std::printf("  %s%s\n", disturbance_name(static_cast<DisturbanceKind>(k)),
                static_cast<DisturbanceKind>(k) == DisturbanceKind::kFlashCorrupt
                    ? " (permanent; drawn via --permanent)"
                    : "");
  std::printf("routines:\n");
  for (const core::RoutineEntry& e : core::routine_registry())
    std::printf("  %s\n", e.name);
  return 0;
}

/// Seeded campaigns refuse to run without an explicit non-zero master seed:
/// a zero/defaulted seed silently degrades every derived per-run seed into
/// the same splitmix stream, and "which seed produced this divergence?" is
/// the one question an in-field soak log must always answer.
bool require_seed(const char* cmd, bool seed_set, u64 seed) {
  if (seed_set && seed != 0) return true;
  std::fprintf(stderr, "%s: %s requires an explicit non-zero --seed\n", kTool, cmd);
  return false;
}

int cmd_campaign(int argc, char** argv) {
  CampaignSpec spec;
  std::vector<unsigned> verify_threads;
  bool digest_only = false;
  bool seed_set = false;
  u64 interrupt_after = 0;
  unsigned timeout_s = 0;
  std::string metrics_out;

  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", kTool, a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seed") {
      spec.seed = cli::require_u64(kTool, "--seed", need(), 0, ~0ull);
      seed_set = true;
    } else if (a == "--runs") {
      spec.runs = cli::require_unsigned(kTool, "--runs", need(), 1, 100'000);
    } else if (a == "--threads") {
      spec.threads = cli::require_unsigned(kTool, "--threads", need(), 0, 256);
    } else if (a == "--verify-threads") {
      verify_threads =
          cli::require_unsigned_list(kTool, "--verify-threads", need(), 1, 256);
    } else if (a == "--cores") {
      spec.cores = cli::require_unsigned(kTool, "--cores", need(), 1, 3);
    } else if (a == "--routine") {
      spec.routines.push_back(need());
    } else if (a == "--events") {
      spec.disturb.count = cli::require_unsigned(kTool, "--events", need(), 0, 1'000);
    } else if (a == "--permanent") {
      spec.disturb.permanent_chance =
          cli::require_unsigned(kTool, "--permanent", need(), 0, 100) / 100.0;
    } else if (a == "--stall") {
      spec.disturb.stall_cycles =
          cli::require_unsigned(kTool, "--stall", need(), 1, 100'000);
    } else if (a == "--margin") {
      spec.supervisor.margin_percent =
          cli::require_unsigned(kTool, "--margin", need(), 0, 10'000);
    } else if (a == "--attempts") {
      spec.supervisor.max_attempts =
          cli::require_unsigned(kTool, "--attempts", need(), 1, 16);
    } else if (a == "--fallback-attempts") {
      spec.supervisor.fallback_attempts =
          cli::require_unsigned(kTool, "--fallback-attempts", need(), 0, 16);
    } else if (a == "--digest-only") {
      digest_only = true;
    } else if (a == "--metrics-out") {
      metrics_out = need();
    } else if (a == "--checkpoint-dir") {
      spec.checkpoint.dir = need();
    } else if (a == "--checkpoint-interval") {
      spec.checkpoint.interval = static_cast<u32>(
          cli::require_u64(kTool, "--checkpoint-interval", need(), 1, 1'000'000));
    } else if (a == "--resume") {
      spec.checkpoint.resume = true;
    } else if (a == "--no-fsync") {
      spec.checkpoint.fsync = fault::FsyncPolicy::kNone;
    } else if (a == "--interrupt-after") {
      interrupt_after =
          cli::require_u64(kTool, "--interrupt-after", need(), 1, ~0ull);
    } else if (a == "--timeout") {
      timeout_s = cli::require_unsigned(kTool, "--timeout", need(), 1, 86'400);
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", kTool, a.c_str());
      usage(stderr);
      return cli::kExitUsage;
    }
  }

  if (!require_seed("campaign", seed_set, spec.seed)) return cli::kExitUsage;
  if (spec.checkpoint.resume && !spec.checkpoint.enabled()) {
    std::fprintf(stderr, "%s: --resume requires --checkpoint-dir\n", kTool);
    return cli::kExitUsage;
  }
  if (spec.checkpoint.enabled() && !verify_threads.empty()) {
    // The verify loop runs the same campaign several times; sharing one
    // journal across them would make every pass after the first a no-op.
    std::fprintf(stderr,
                 "%s: --checkpoint-dir cannot be combined with "
                 "--verify-threads\n", kTool);
    return cli::kExitUsage;
  }

  if (spec.checkpoint.enabled() || interrupt_after != 0 || timeout_s != 0) {
    spec.interrupt = &fault::global_interrupt();
    spec.interrupt->clear();
    if (interrupt_after != 0) spec.interrupt->arm_after(interrupt_after);
    fault::install_drain_handlers();
    if (timeout_s != 0) fault::arm_wallclock_timeout(timeout_s);
  }

  if (!verify_threads.empty() && !metrics_out.empty()) {
    // The verify loop runs the campaign several times; one report could not
    // say which pass it measured.
    std::fprintf(stderr,
                 "%s: --metrics-out cannot be combined with --verify-threads\n",
                 kTool);
    return cli::kExitUsage;
  }

  if (verify_threads.empty()) {
    const perf::SimSnapshot sim_before = perf::sim_totals().snapshot();
    perf::HostTimer host_timer;
    const CampaignResult res = run_disturbance_campaign(spec);
    if (res.ckpt.enabled)
      std::fprintf(stderr,
                   "%s: checkpoint: %u shard(s) loaded, %llu run(s) resumed, "
                   "%u corrupt shard(s) quarantined, %u shard(s) flushed\n",
                   kTool, res.ckpt.shards_loaded,
                   static_cast<unsigned long long>(res.ckpt.records_resumed),
                   res.ckpt.shards_corrupt, res.ckpt.shards_flushed);
    if (res.ckpt.interrupted) {
      std::size_t completed = 0;  // resumed + finished this session
      for (const RunRecord& r : res.records) completed += r.seed != 0 ? 1 : 0;
      if (spec.checkpoint.enabled())
        std::fprintf(stderr,
                     "%s: interrupted after %zu/%u run(s); resume with "
                     "--checkpoint-dir %s --resume\n",
                     kTool, completed, res.runs, spec.checkpoint.dir.c_str());
      else
        std::fprintf(stderr,
                     "%s: interrupted after %zu/%u run(s); add "
                     "--checkpoint-dir to make such runs resumable\n",
                     kTool, completed, res.runs);
      return cli::kExitInterrupted;
    }
    if (digest_only)
      std::printf("outcome digest: %s\n", TextTable::fmt_hex(res.digest()).c_str());
    else
      std::fputs(render_recovery_report(res).c_str(), stdout);
    // Host timings go to stderr only: the stdout report is diffed across
    // thread counts and straight-vs-resumed runs by the CI drills.
    const perf::SimSnapshot sim_delta =
        perf::sim_totals().snapshot().since(sim_before);
    const perf::HostUsage host = host_timer.sample();
    const double sim_mhz = host.wall_s > 0.0
                               ? static_cast<double>(sim_delta.sim_cycles()) /
                                     host.wall_s / 1e6
                               : 0.0;
    std::fprintf(stderr,
                 "%s: %u runs on %u thread(s) in %.2fs | %.1f Mcycles simulated, "
                 "%.2f sim-MHz, peak RSS %ld KiB\n",
                 kTool, res.runs, res.threads_used, res.wall_seconds,
                 static_cast<double>(sim_delta.sim_cycles()) / 1e6, sim_mhz,
                 perf::peak_rss_kb());
    if (!metrics_out.empty()) {
      perf::PerfReport rep;
      rep.name = "stlrun-campaign";
      rep.detstl_version = kDetstlVersion;
      fault::ConfigHasher hash;
      hash.str("stlrun-campaign").u64v(spec.seed).u32v(spec.runs).u32v(spec.cores);
      for (const auto& r : spec.routines) hash.str(r);
      hash.u32v(spec.disturb.count);
      hash.f64v(spec.disturb.permanent_chance);
      hash.u32v(spec.disturb.stall_cycles);
      hash.u32v(spec.supervisor.margin_percent);
      hash.u32v(spec.supervisor.max_attempts);
      hash.u32v(spec.supervisor.fallback_attempts);
      rep.config_hash = hash.digest();
      rep.sim_cycles = sim_delta.sim_cycles();
      rep.sim_units = sim_delta.units();
      rep.phases.push_back(
          {"campaign", sim_delta.sim_cycles(), sim_delta.units(), host.wall_s});
      rep.wall_s = host.wall_s;
      rep.cpu_s = host.cpu_s;
      rep.peak_rss_kb = host.peak_rss_kb;
      perf::collect_disturbance_result(rep.metrics, res, "");
      perf::collect_sim_totals(rep.metrics, sim_delta);
      perf::collect_host_usage(rep.metrics, host);
      if (!perf::write_report_file(metrics_out, rep)) {
        std::fprintf(stderr, "%s: cannot write %s\n", kTool, metrics_out.c_str());
        return cli::kExitFailure;
      }
      std::fprintf(stderr, "%s: stlperf report written to %s\n", kTool,
                   metrics_out.c_str());
    }
    return cli::kExitSuccess;
  }

  // Determinism self-check: same spec at each requested thread count must
  // produce byte-identical outcome vectors (and therefore reports).
  std::vector<u8> reference;
  std::string reference_report;
  for (std::size_t t = 0; t < verify_threads.size(); ++t) {
    CampaignSpec s = spec;
    s.threads = verify_threads[t];
    const CampaignResult res = run_disturbance_campaign(s);
    std::fprintf(stderr, "%s: threads=%u digest=%s (%.2fs)\n", kTool,
                 res.threads_used, TextTable::fmt_hex(res.digest()).c_str(),
                 res.wall_seconds);
    if (t == 0) {
      reference = res.outcome_vector();
      reference_report = render_recovery_report(res);
      continue;
    }
    if (res.outcome_vector() != reference ||
        render_recovery_report(res) != reference_report) {
      std::fprintf(stderr,
                   "%s: DETERMINISM VIOLATION: threads=%u diverges from "
                   "threads=%u\n",
                   kTool, verify_threads[t], verify_threads[0]);
      return 1;
    }
  }
  if (digest_only) {
    // Digest of the verified reference vector.
    std::printf("outcome digest: %s\n",
                TextTable::fmt_hex(fnv1a(reference)).c_str());
  } else {
    std::fputs(reference_report.c_str(), stdout);
  }
  std::string counts;
  for (std::size_t t = 0; t < verify_threads.size(); ++t)
    counts += (t == 0 ? "" : ",") + std::to_string(verify_threads[t]);
  std::printf("determinism: outcome vector byte-identical across threads {%s}\n",
              counts.c_str());
  return 0;
}

int cmd_soak(int argc, char** argv) {
  SoakCampaignSpec spec;
  std::vector<unsigned> verify_threads;
  bool digest_only = false;
  bool seed_set = false;
  u64 interrupt_after = 0;
  unsigned timeout_s = 0;

  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", kTool, a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seed") {
      spec.seed = cli::require_u64(kTool, "--seed", need(), 0, ~0ull);
      seed_set = true;
    } else if (a == "--runs") {
      spec.runs = cli::require_unsigned(kTool, "--runs", need(), 1, 100'000);
    } else if (a == "--threads") {
      spec.threads = cli::require_unsigned(kTool, "--threads", need(), 0, 256);
    } else if (a == "--verify-threads") {
      verify_threads =
          cli::require_unsigned_list(kTool, "--verify-threads", need(), 1, 256);
    } else if (a == "--cores") {
      spec.cores = cli::require_unsigned(kTool, "--cores", need(), 1, 3);
    } else if (a == "--routine") {
      spec.routines.push_back(need());
    } else if (a == "--duration") {
      spec.soak.duration = cli::require_u64(kTool, "--duration", need(), 0, 1'000'000'000);
    } else if (a == "--rate-ram") {
      spec.soak.rates.ram = cli::require_unsigned(kTool, "--rate-ram", need(), 0, 1'000'000);
    } else if (a == "--rate-l1i") {
      spec.soak.rates.l1i = cli::require_unsigned(kTool, "--rate-l1i", need(), 0, 1'000'000);
    } else if (a == "--rate-l1d") {
      spec.soak.rates.l1d = cli::require_unsigned(kTool, "--rate-l1d", need(), 0, 1'000'000);
    } else if (a == "--rate-pipe") {
      spec.soak.rates.pipeline =
          cli::require_unsigned(kTool, "--rate-pipe", need(), 0, 1'000'000);
    } else if (a == "--no-isolate") {
      spec.isolate = false;
    } else if (a == "--margin") {
      spec.supervisor.margin_percent =
          cli::require_unsigned(kTool, "--margin", need(), 0, 10'000);
    } else if (a == "--digest-only") {
      digest_only = true;
    } else if (a == "--checkpoint-dir") {
      spec.checkpoint.dir = need();
    } else if (a == "--checkpoint-interval") {
      spec.checkpoint.interval = static_cast<u32>(
          cli::require_u64(kTool, "--checkpoint-interval", need(), 1, 1'000'000));
    } else if (a == "--resume") {
      spec.checkpoint.resume = true;
    } else if (a == "--no-fsync") {
      spec.checkpoint.fsync = fault::FsyncPolicy::kNone;
    } else if (a == "--interrupt-after") {
      interrupt_after = cli::require_u64(kTool, "--interrupt-after", need(), 1, ~0ull);
    } else if (a == "--timeout") {
      timeout_s = cli::require_unsigned(kTool, "--timeout", need(), 1, 86'400);
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", kTool, a.c_str());
      usage(stderr);
      return cli::kExitUsage;
    }
  }

  if (!require_seed("soak", seed_set, spec.seed)) return cli::kExitUsage;
  if (spec.checkpoint.resume && !spec.checkpoint.enabled()) {
    std::fprintf(stderr, "%s: --resume requires --checkpoint-dir\n", kTool);
    return cli::kExitUsage;
  }
  if (spec.checkpoint.enabled() && !verify_threads.empty()) {
    std::fprintf(stderr,
                 "%s: --checkpoint-dir cannot be combined with --verify-threads\n",
                 kTool);
    return cli::kExitUsage;
  }

  if (spec.checkpoint.enabled() || interrupt_after != 0 || timeout_s != 0) {
    spec.interrupt = &fault::global_interrupt();
    spec.interrupt->clear();
    if (interrupt_after != 0) spec.interrupt->arm_after(interrupt_after);
    fault::install_drain_handlers();
    if (timeout_s != 0) fault::arm_wallclock_timeout(timeout_s);
  }

  if (verify_threads.empty()) {
    const SoakCampaignResult res = run_soak_campaign(spec);
    if (res.ckpt.enabled)
      std::fprintf(stderr,
                   "%s: checkpoint: %u shard(s) loaded, %llu run(s) resumed, "
                   "%u corrupt shard(s) quarantined, %u shard(s) flushed\n",
                   kTool, res.ckpt.shards_loaded,
                   static_cast<unsigned long long>(res.ckpt.records_resumed),
                   res.ckpt.shards_corrupt, res.ckpt.shards_flushed);
    if (res.ckpt.interrupted) {
      std::size_t completed = 0;
      for (const SoakRunRecord& r : res.records) completed += r.seed != 0 ? 1 : 0;
      if (spec.checkpoint.enabled())
        std::fprintf(stderr,
                     "%s: interrupted after %zu/%u run(s); resume with "
                     "--checkpoint-dir %s --resume\n",
                     kTool, completed, res.runs, spec.checkpoint.dir.c_str());
      else
        std::fprintf(stderr,
                     "%s: interrupted after %zu/%u run(s); add "
                     "--checkpoint-dir to make such runs resumable\n",
                     kTool, completed, res.runs);
      return cli::kExitInterrupted;
    }
    if (digest_only)
      std::printf("outcome digest: %s\n", TextTable::fmt_hex(res.digest()).c_str());
    else
      std::fputs(render_soak_report(res).c_str(), stdout);
    std::fprintf(stderr, "%s: %u soak run(s) on %u thread(s) in %.2fs\n", kTool,
                 res.runs, res.threads_used, res.wall_seconds);
    return cli::kExitSuccess;
  }

  std::vector<u8> reference;
  std::string reference_report;
  for (std::size_t t = 0; t < verify_threads.size(); ++t) {
    SoakCampaignSpec s = spec;
    s.threads = verify_threads[t];
    const SoakCampaignResult res = run_soak_campaign(s);
    std::fprintf(stderr, "%s: threads=%u digest=%s (%.2fs)\n", kTool,
                 res.threads_used, TextTable::fmt_hex(res.digest()).c_str(),
                 res.wall_seconds);
    if (t == 0) {
      reference = res.outcome_vector();
      reference_report = render_soak_report(res);
      continue;
    }
    if (res.outcome_vector() != reference ||
        render_soak_report(res) != reference_report) {
      std::fprintf(stderr,
                   "%s: DETERMINISM VIOLATION: threads=%u diverges from threads=%u\n",
                   kTool, verify_threads[t], verify_threads[0]);
      return 1;
    }
  }
  if (digest_only) {
    std::printf("outcome digest: %s\n",
                TextTable::fmt_hex(fnv1a(reference)).c_str());
  } else {
    std::fputs(reference_report.c_str(), stdout);
  }
  std::string counts;
  for (std::size_t t = 0; t < verify_threads.size(); ++t)
    counts += (t == 0 ? "" : ",") + std::to_string(verify_threads[t]);
  std::printf("determinism: outcome vector byte-identical across threads {%s}\n",
              counts.c_str());
  return 0;
}

int cmd_mission(int argc, char** argv) {
  MissionSpec spec;
  bool seed_set = false;

  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", kTool, a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seed") {
      spec.seed = cli::require_u64(kTool, "--seed", need(), 0, ~0ull);
      seed_set = true;
    } else if (a == "--slices") {
      spec.slices = cli::require_unsigned(kTool, "--slices", need(), 1, 10'000);
    } else if (a == "--gap") {
      spec.gap_cycles = cli::require_u64(kTool, "--gap", need(), 0, 10'000'000);
    } else if (a == "--cores") {
      spec.cores = cli::require_unsigned(kTool, "--cores", need(), 1, 3);
    } else if (a == "--routine") {
      spec.routines.push_back(need());
    } else if (a == "--margin") {
      spec.supervisor.margin_percent =
          cli::require_unsigned(kTool, "--margin", need(), 0, 10'000);
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", kTool, a.c_str());
      usage(stderr);
      return cli::kExitUsage;
    }
  }

  if (!require_seed("mission", seed_set, spec.seed)) return cli::kExitUsage;
  const MissionResult res = run_mission(spec);
  std::fputs(render_mission_report(res).c_str(), stdout);
  // Mission mode is a pass/fail check of the paper's two in-field claims:
  // any divergence or bound violation fails the invocation.
  return res.divergences() == 0 && res.bound_violations() == 0 ? cli::kExitSuccess
                                                               : cli::kExitFailure;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "campaign") return cmd_campaign(argc - 2, argv + 2);
    if (cmd == "soak") return cmd_soak(argc - 2, argv + 2);
    if (cmd == "mission") return cmd_mission(argc - 2, argv + 2);
    if (cmd == "list-kinds") return cmd_list_kinds();
    if (cmd == "--version") {
      cli::print_version(kTool);
      return 0;
    }
    if (cmd == "--help" || cmd == "-h") {
      usage(stdout);
      return 0;
    }
  } catch (const fault::CheckpointMismatch& e) {
    std::fprintf(stderr, "%s: checkpoint rejected: %s\n", kTool, e.what());
    return cli::kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", kTool, e.what());
    return cli::kExitUsage;
  }
  std::fprintf(stderr, "%s: unknown command '%s'\n", kTool, cmd.c_str());
  usage(stderr);
  return 2;
}
