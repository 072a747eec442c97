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
#include <functional>
#include <string>
#include <vector>

#include "cli_util.h"
#include "common/bytes.h"
#include "common/table.h"
#include "core/stl.h"
#include "perf/session.h"
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
      "  --metrics-out FILE     write an stlperf JSON report of the run\n"
      "                         (src/perf/perf_report.h; host timings on stderr\n"
      "                         so stdout stays byte-stable across thread counts)\n"
      "\n"
      "soak options (plus --seed/--runs/--threads/--verify-threads/--cores/\n"
      "--routine/--margin/--digest-only/--metrics-out and the checkpoint/resume\n"
      "group):\n"
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

/// Flags of every seeded command (campaign, soak, mission): --seed, --cores,
/// --routine and --margin. Consumes the current flag if it is one of them.
template <class Spec>
bool parse_seeded_flag(cli::Args& a, Spec& spec, bool& seed_set) {
  if (a.is("--seed")) {
    spec.seed = a.u64_in(0, ~0ull);
    seed_set = true;
  } else if (a.is("--cores")) {
    spec.cores = a.unsigned_in(1, 3);
  } else if (a.is("--routine")) {
    spec.routines.push_back(a.value());
  } else if (a.is("--margin")) {
    spec.supervisor.margin_percent = a.unsigned_in(0, 10'000);
  } else {
    return false;
  }
  return true;
}

/// What the supervised-run commands (campaign, soak) differ in. Everything
/// else — the shared flags, validation, drain wiring, interrupt report, the
/// stlperf report and the --verify-threads loop — is run_units.
template <class Spec, class Record>
struct UnitKind {
  using Result = RunCampaignResult<Record>;
  const char* cmd;
  Result (*run)(const Spec&);
  std::string (*render)(const Result&);
  /// Consume one kind-only flag; false = unknown option.
  std::function<bool(cli::Args&)> flag;
  /// Mix the kind's outcome-relevant knobs into the config hash of the
  /// stlperf session that bracketed a completed straight run, and add the
  /// kind's own series.
  std::function<void(const Result&, perf::Session&)> collect;
};

template <class Spec, class Record>
int run_units(const UnitKind<Spec, Record>& kind, Spec& spec, int argc,
              char** argv) {
  cli::Args args(kTool, argc, argv);
  cli::CampaignFlags flags;
  std::vector<unsigned> verify_threads;
  std::string metrics_out;
  bool digest_only = false;
  bool seed_set = false;
  while (args.next()) {
    if (args.is("--runs")) {
      spec.runs = args.unsigned_in(1, 100'000);
    } else if (args.is("--verify-threads")) {
      verify_threads = args.unsigned_list(1, 256);
    } else if (args.is("--digest-only")) {
      digest_only = true;
    } else if (args.is("--metrics-out")) {
      metrics_out = args.value();
    } else if (args.is("--help") || args.is("-h")) {
      return args.help(usage);
    } else if (!parse_seeded_flag(args, spec, seed_set) && !flags.parse(args) &&
               !kind.flag(args)) {
      std::fprintf(stderr, "%s: unknown option '%s'\n", kTool,
                   args.flag().c_str());
      usage(stderr);
      return cli::kExitUsage;
    }
  }

  if (!require_seed(kind.cmd, seed_set, spec.seed) || !flags.valid(kTool))
    return cli::kExitUsage;
  // The verify loop runs the campaign several times: a shared journal would
  // make every pass after the first a no-op, and one report could not say
  // which pass it measured.
  const char* straight_only = flags.checkpoint.enabled() ? "--checkpoint-dir"
                              : !metrics_out.empty()     ? "--metrics-out"
                                                         : nullptr;
  if (!verify_threads.empty() && straight_only != nullptr) {
    std::fprintf(stderr, "%s: %s cannot be combined with --verify-threads\n",
                 kTool, straight_only);
    return cli::kExitUsage;
  }
  if (!cli::output_writable(metrics_out)) return cli::kExitUsage;
  flags.apply(spec);

  if (verify_threads.empty()) {
    perf::Session session(std::string(kTool) + "-" + kind.cmd);
    const auto res = kind.run(spec);
    if (res.ckpt.enabled)
      std::fprintf(stderr,
                   "%s: checkpoint: %u shard(s) loaded, %llu run(s) resumed, "
                   "%u corrupt shard(s) quarantined, %u shard(s) flushed\n",
                   kTool, res.ckpt.shards_loaded,
                   static_cast<unsigned long long>(res.ckpt.records_resumed),
                   res.ckpt.shards_corrupt, res.ckpt.shards_flushed);
    if (res.ckpt.interrupted) {
      cli::report_interrupted(kTool, res.completed(), res.runs,
                              spec.checkpoint);
      return cli::kExitInterrupted;
    }
    std::fputs(
        (digest_only ? digest_line(res.digest()) : kind.render(res)).c_str(),
        stdout);
    session.mark_phase(kind.cmd);
    kind.collect(res, session);
    // Host timings go to stderr only: the stdout report is diffed across
    // thread counts and straight-vs-resumed runs by the CI drills.
    const perf::PerfReport& rep = session.close();
    std::fprintf(stderr,
                 "%s: %u runs on %u thread(s) in %.2fs | %.1f Mcycles simulated, "
                 "%.2f sim-MHz, peak RSS %ld KiB\n",
                 kTool, res.runs, res.threads_used, res.wall_seconds,
                 static_cast<double>(rep.sim_cycles) / 1e6, rep.sim_mhz(),
                 rep.peak_rss_kb);
    return session.finish(metrics_out, cli::kExitSuccess);
  }

  // Determinism self-check: same spec at each requested thread count must
  // produce byte-identical outcome vectors (and therefore reports).
  std::vector<u8> reference;
  std::string reference_report;
  for (std::size_t t = 0; t < verify_threads.size(); ++t) {
    Spec s = spec;
    s.threads = verify_threads[t];
    const auto res = kind.run(s);
    std::fprintf(stderr, "%s: threads=%u digest=%s (%.2fs)\n", kTool,
                 res.threads_used, TextTable::fmt_hex(res.digest()).c_str(),
                 res.wall_seconds);
    if (t == 0) {
      reference = res.outcome_vector();
      reference_report = kind.render(res);
      continue;
    }
    if (res.outcome_vector() != reference ||
        kind.render(res) != reference_report) {
      std::fprintf(stderr,
                   "%s: DETERMINISM VIOLATION: threads=%u diverges from "
                   "threads=%u\n",
                   kTool, verify_threads[t], verify_threads[0]);
      return cli::kExitFailure;
    }
  }
  // --digest-only: the digest of the verified reference vector.
  std::fputs(
      (digest_only ? digest_line(fnv1a(reference)) : reference_report).c_str(),
      stdout);
  std::string counts;
  for (std::size_t t = 0; t < verify_threads.size(); ++t)
    counts += (t == 0 ? "" : ",") + std::to_string(verify_threads[t]);
  std::printf("determinism: outcome vector byte-identical across threads {%s}\n",
              counts.c_str());
  return cli::kExitSuccess;
}

int cmd_campaign(int argc, char** argv) {
  CampaignSpec spec;
  UnitKind<CampaignSpec, RunRecord> kind{
      "campaign", run_disturbance_campaign, render_recovery_report, {}, {}};
  kind.flag = [&](cli::Args& a) {
    if (a.is("--events")) {
      spec.disturb.count = a.unsigned_in(0, 1'000);
    } else if (a.is("--permanent")) {
      spec.disturb.permanent_chance = a.unsigned_in(0, 100) / 100.0;
    } else if (a.is("--stall")) {
      spec.disturb.stall_cycles = a.unsigned_in(1, 100'000);
    } else if (a.is("--attempts")) {
      spec.supervisor.max_attempts = a.unsigned_in(1, 16);
    } else if (a.is("--fallback-attempts")) {
      spec.supervisor.fallback_attempts = a.unsigned_in(0, 16);
    } else {
      return false;
    }
    return true;
  };
  kind.collect = [&](const CampaignResult& res, perf::Session& session) {
    fault::ConfigHasher& hash = session.hash();
    hash.u64v(spec.seed).u32v(spec.runs).u32v(spec.cores);
    for (const auto& r : spec.routines) hash.str(r);
    hash.u32v(spec.disturb.count);
    hash.f64v(spec.disturb.permanent_chance);
    hash.u32v(spec.disturb.stall_cycles);
    hash.u32v(spec.supervisor.margin_percent);
    hash.u32v(spec.supervisor.max_attempts);
    hash.u32v(spec.supervisor.fallback_attempts);
    perf::collect_disturbance_result(session.metrics(), res, "");
  };
  return run_units(kind, spec, argc, argv);
}

int cmd_soak(int argc, char** argv) {
  SoakCampaignSpec spec;
  UnitKind<SoakCampaignSpec, SoakRunRecord> kind{
      "soak", run_soak_campaign, render_soak_report, {}, {}};
  kind.flag = [&](cli::Args& a) {
    if (a.is("--duration")) {
      spec.soak.duration = a.u64_in(0, 1'000'000'000);
    } else if (a.is("--rate-ram")) {
      spec.soak.rates.ram = a.unsigned_in(0, 1'000'000);
    } else if (a.is("--rate-l1i")) {
      spec.soak.rates.l1i = a.unsigned_in(0, 1'000'000);
    } else if (a.is("--rate-l1d")) {
      spec.soak.rates.l1d = a.unsigned_in(0, 1'000'000);
    } else if (a.is("--rate-pipe")) {
      spec.soak.rates.pipeline = a.unsigned_in(0, 1'000'000);
    } else if (a.is("--no-isolate")) {
      spec.isolate = false;
    } else {
      return false;
    }
    return true;
  };
  kind.collect = [&](const SoakCampaignResult& res, perf::Session& session) {
    fault::ConfigHasher& hash = session.hash();
    hash.u64v(spec.seed).u32v(spec.runs).u32v(spec.cores);
    for (const auto& r : spec.routines) hash.str(r);
    hash.u32v(spec.supervisor.margin_percent);
    hash.u64v(spec.soak.duration);
    hash.u32v(spec.soak.rates.ram).u32v(spec.soak.rates.l1i);
    hash.u32v(spec.soak.rates.l1d).u32v(spec.soak.rates.pipeline);
    hash.u32v(spec.isolate ? 1 : 0);
    perf::collect_campaign_host(session.metrics(), res.runs, res.wall_seconds,
                                res.threads_used, res.ckpt, "");
  };
  return run_units(kind, spec, argc, argv);
}

int cmd_mission(int argc, char** argv) {
  MissionSpec spec;
  bool seed_set = false;
  cli::Args args(kTool, argc, argv);
  while (args.next()) {
    if (args.is("--slices")) {
      spec.slices = args.unsigned_in(1, 10'000);
    } else if (args.is("--gap")) {
      spec.gap_cycles = args.u64_in(0, 10'000'000);
    } else if (args.is("--help") || args.is("-h")) {
      return args.help(usage);
    } else if (!parse_seeded_flag(args, spec, seed_set)) {
      std::fprintf(stderr, "%s: unknown option '%s'\n", kTool, args.flag().c_str());
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
  if ((cmd == "list-kinds" || cmd == "--version" || cmd == "--help" ||
       cmd == "-h") &&
      !cli::no_arguments(kTool, argc, argv)) {
    usage(stderr);
    return cli::kExitUsage;
  }
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
