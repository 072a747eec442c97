// stlserve — supervised multi-process campaign orchestrator (src/serve/,
// docs/runtime.md "stlserve"). Accepts a JSON campaign spec, partitions the
// runs into one shard per worker process, forks one worker per shard, each
// journaling into its own checkpoint subdir, supervises them (heartbeat
// staleness, PID liveness), heals failures (respawn with backoff, subdir
// quarantine) and merges the journals, re-executing in-process whatever no
// journal covers, into a report byte-identical to `stlrun campaign` with
// the same parameters.
//
// Exit codes follow tools/cli_util.h: 0 done, 1 failure, 2 usage error,
// 3 interrupted but resumable (`stlserve run --dir D --resume`).

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "cli_util.h"
#include "serve/serve.h"

namespace {

using namespace detstl;

constexpr const char* kTool = "stlserve";

void usage(std::FILE* out) {
  std::fputs(
      "usage: stlserve <command> [options]\n"
      "\n"
      "commands:\n"
      "  run          orchestrate a campaign across worker processes\n"
      "  print-spec   print an example JSON campaign spec\n"
      "  --version    print version and checkpoint schema\n"
      "\n"
      "run options:\n"
      "  --spec FILE            JSON campaign spec (see print-spec)\n"
      "  --dir DIR              work directory (per-shard checkpoint subdirs)\n"
      "  --workers N            override the spec's worker-process count\n"
      "  --resume               resume an interrupted campaign in --dir\n"
      "                         (reads DIR/campaign-spec.json; --spec optional)\n"
      "  --backoff-base-ms N    respawn backoff base (default 100)\n"
      "  --hang-timeout-ms N    kill a worker whose heartbeat is this stale\n"
      "                         (default 10000)\n"
      "  --no-fsync             workers skip per-shard fsync\n"
      "  --chaos K:ACTION:N     chaos drill: shard K (below the shard count)\n"
      "                         applies ACTION (kill-after | hang-after |\n"
      "                         kill-every) after N runs\n"
      "  --digest-only          print only the outcome digest\n"
      "  --quiet                suppress supervision notes on stderr\n",
      out);
}

serve::ChaosRule parse_chaos(const std::string& text) {
  // K:ACTION:N
  const std::size_t first = text.find(':');
  const std::size_t last = text.rfind(':');
  serve::ChaosRule rule;
  if (first == std::string::npos || last == first)
    rule.action = "?";
  else {
    rule.shard = cli::require_unsigned(kTool, "--chaos shard",
                                       text.substr(0, first), 0, 63);
    rule.action = text.substr(first + 1, last - first - 1);
    rule.after =
        cli::require_u64(kTool, "--chaos count", text.substr(last + 1), 1, ~0ull);
  }
  if (rule.action != "kill-after" && rule.action != "hang-after" &&
      rule.action != "kill-every") {
    std::fprintf(stderr,
                 "%s: --chaos expects K:ACTION:N with ACTION one of "
                 "kill-after|hang-after|kill-every, got '%s'\n",
                 kTool, text.c_str());
    std::exit(cli::kExitUsage);
  }
  return rule;
}

serve::ServeSpec load_spec(const std::string& path) {
  serve::ServeSpec spec;
  std::string err;
  if (!serve::load_spec_file(path, spec, &err)) {
    std::fprintf(stderr, "%s: %s: %s\n", kTool, path.c_str(), err.c_str());
    std::exit(cli::kExitUsage);
  }
  return spec;
}

int cmd_run(int argc, char** argv) {
  std::string spec_path;
  serve::ServeConfig cfg;
  bool digest_only = false;

  cli::Args args(kTool, argc, argv);
  while (args.next()) {
    if (args.is("--spec")) {
      spec_path = args.value();
    } else if (args.is("--dir")) {
      cfg.work_dir = args.value();
    } else if (args.is("--workers")) {
      cfg.workers = args.unsigned_in(1, 64);
    } else if (args.is("--resume")) {
      cfg.resume = true;
    } else if (args.is("--backoff-base-ms")) {
      cfg.backoff_base_ms = args.unsigned_in(1, 60'000);
    } else if (args.is("--hang-timeout-ms")) {
      cfg.hang_timeout_ms = args.unsigned_in(50, 600'000);
    } else if (args.is("--no-fsync")) {
      cfg.no_fsync = true;
    } else if (args.is("--chaos")) {
      cfg.chaos.push_back(parse_chaos(args.value()));
    } else if (args.is("--digest-only")) {
      digest_only = true;
    } else if (args.is("--quiet")) {
      cfg.quiet = true;
    } else if (args.is("--help") || args.is("-h")) {
      return args.help(usage);
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", kTool,
                   args.flag().c_str());
      usage(stderr);
      return cli::kExitUsage;
    }
  }

  if (cfg.work_dir.empty()) {
    std::fprintf(stderr, "%s: run requires --dir\n", kTool);
    return cli::kExitUsage;
  }
  if (spec_path.empty()) {
    if (!cfg.resume) {
      std::fprintf(stderr, "%s: run requires --spec (or --resume)\n", kTool);
      return cli::kExitUsage;
    }
    spec_path = cfg.work_dir + "/campaign-spec.json";
  }
  const serve::ServeSpec spec = load_spec(spec_path);
  if (!cfg.chaos.empty()) {
    const std::size_t shards =
        serve::plan_shards(serve::spec_unit_count(spec),
                           cfg.workers != 0 ? cfg.workers : spec.workers,
                           cfg.work_dir)
            .size();
    for (const serve::ChaosRule& r : cfg.chaos)
      if (r.shard >= shards) {
        std::fprintf(stderr,
                     "%s: --chaos names shard %u, but the campaign has %zu "
                     "shard(s)\n",
                     kTool, r.shard, shards);
        return cli::kExitUsage;
      }
  }

  const serve::ServeResult sr = serve::run_campaign(spec, cfg);
  std::fprintf(stderr,
               "%s: %u shard(s): %u respawn(s), %u hung kill(s), %u subdir(s) "
               "quarantined; merge: %llu record(s) resumed, %u corrupt shard "
               "file(s), %llu run(s) re-executed\n",
               kTool, sr.stats.shards, sr.stats.respawns, sr.stats.hung_killed,
               sr.stats.dirs_quarantined,
               static_cast<unsigned long long>(sr.stats.records_resumed),
               sr.stats.shards_corrupt,
               static_cast<unsigned long long>(sr.stats.merge_reexecuted));
  if (sr.interrupted) {
    std::fprintf(stderr, "%s: interrupted; resume with: stlserve run --dir %s "
                 "--resume\n", kTool, cfg.work_dir.c_str());
    return cli::kExitInterrupted;
  }
  std::fputs(serve::render_result(spec, sr, digest_only).c_str(), stdout);
  return cli::kExitSuccess;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if ((cmd == "print-spec" || cmd == "--version" || cmd == "--help" ||
       cmd == "-h") &&
      !cli::no_arguments(kTool, argc, argv)) {
    usage(stderr);
    return cli::kExitUsage;
  }
  try {
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "print-spec") {
      std::fputs(serve::example_spec_json().c_str(), stdout);
      return 0;
    }
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
    return cli::kExitFailure;
  }
  std::fprintf(stderr, "%s: unknown command '%s'\n", kTool, cmd.c_str());
  usage(stderr);
  return 2;
}
