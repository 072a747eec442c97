// stlperf — the performance-observability CLI over the BENCH_<name>.json
// trajectory format (src/perf/perf_report.h, docs/observability.md).
//
//   stlperf report FILE                     render one report as tables
//   stlperf diff BASELINE CURRENT           compare two reports
//   stlperf check CURRENT --baseline FILE   gate CURRENT against a baseline
//
// diff and check share the regression semantics: exit 0 when the current
// sim-MHz is within --threshold percent (default 15) of the baseline, exit 1
// on a regression, on a sim subtree that diverged under an unchanged config
// hash (a determinism break) or when the reports are not comparable
// (different bench name or schema), exit 2 on usage errors and
// unreadable/malformed files (tools/cli_util.h exit-code contract). A
// config-hash mismatch is reported as a note — the workload changed, so a
// slowdown or a different sim subtree may be intentional — but still gates
// on the threshold.

#include <cstdio>
#include <string>
#include <vector>

#include "cli_util.h"
#include "perf/perf_report.h"

namespace {

using namespace detstl;
using cli::kExitFailure;
using cli::kExitSuccess;
using cli::kExitUsage;

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: stlperf report FILE\n"
               "       stlperf diff BASELINE CURRENT [--threshold PCT]\n"
               "       stlperf check CURRENT --baseline FILE [--threshold PCT]\n"
               "       stlperf --version\n"
               "\n"
               "  report   validate a BENCH_<name>.json and render it as tables\n"
               "  diff     compare two reports; exit 1 when CURRENT's sim-MHz\n"
               "           dropped more than PCT%% (default 15) below\n"
               "           BASELINE, or its sim subtree diverged under the\n"
               "           same config hash\n"
               "  check    diff against a committed baseline (the CI perf gate)\n");
}

/// Load or exit(2): an unreadable or malformed report is a setup error, not
/// a regression verdict.
perf::PerfReport load_or_die(const std::string& path) {
  perf::PerfReport rep;
  std::string err;
  if (!perf::load_report_file(path, rep, &err)) {
    std::fprintf(stderr, "stlperf: %s: %s\n", path.c_str(), err.c_str());
    std::exit(kExitUsage);
  }
  return rep;
}

int cmd_report(cli::Args& args) {
  std::vector<std::string> files;
  while (args.next()) files.push_back(args.flag());
  if (files.size() != 1) {
    usage(stderr);
    return kExitUsage;
  }
  const perf::PerfReport rep = load_or_die(files[0]);
  std::fputs(perf::render_report(rep).c_str(), stdout);
  return kExitSuccess;
}

/// diff and check: BASELINE CURRENT as positionals (diff) or CURRENT plus
/// --baseline FILE (check), and --threshold PCT.
int cmd_compare(cli::Args& args, bool check) {
  std::vector<std::string> files;
  std::string baseline;
  double threshold = 15.0;
  while (args.next()) {
    if (args.is("--threshold")) {
      threshold = static_cast<double>(args.u64_in(0, 1000));
    } else if (check && args.is("--baseline")) {
      baseline = args.value();
    } else if (args.flag().rfind("--", 0) == 0) {
      std::fprintf(stderr, "stlperf: unknown option '%s'\n",
                   args.flag().c_str());
      return kExitUsage;
    } else {
      files.push_back(args.flag());
    }
  }
  if (check ? baseline.empty() || files.size() != 1 : files.size() != 2) {
    usage(stderr);
    return kExitUsage;
  }
  if (check) files.insert(files.begin(), baseline);
  const perf::PerfReport base = load_or_die(files[0]);
  const perf::PerfReport current = load_or_die(files[1]);
  const perf::CompareOutcome cmp = perf::compare_reports(base, current);
  std::fputs(perf::render_diff(base, current, cmp, threshold).c_str(), stdout);
  const bool ok = cmp.comparable && !cmp.determinism_break() &&
                  !cmp.regressed(threshold);
  return ok ? kExitSuccess : kExitFailure;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return kExitUsage;
  }
  const std::string cmd = argv[1];
  if ((cmd == "--version" || cmd == "--help" || cmd == "-h") &&
      !cli::no_arguments("stlperf", argc, argv)) {
    usage(stderr);
    return kExitUsage;
  }
  if (cmd == "--version") {
    cli::print_version("stlperf");
    std::printf("stlperf schema %u\n", perf::kPerfSchemaVersion);
    return kExitSuccess;
  }
  if (cmd == "--help" || cmd == "-h") {
    usage(stdout);
    return kExitSuccess;
  }
  cli::Args args("stlperf", argc - 2, argv + 2);
  if (cmd == "report") return cmd_report(args);
  if (cmd == "diff") return cmd_compare(args, /*check=*/false);
  if (cmd == "check") return cmd_compare(args, /*check=*/true);
  std::fprintf(stderr, "stlperf: unknown command '%s'\n", cmd.c_str());
  usage(stderr);
  return kExitUsage;
}
