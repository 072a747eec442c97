// perfbench: detstl's benchmark runner. One invocation runs one workload in
// this process and prints, as the last line of stdout, one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (metrics.cpp); with
// --trace 1 they are the per-layer ones, measured in a separate traced run
// that also writes its spans to --spans-out. perfbench/run.py builds this
// binary and is the documented entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workers N] [--spans-out FILE] [--work-dir DIR]
//   perfbench --list-metrics

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>

#include "metrics.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Setup is repeated at least kSetupMinReps times and until kSetupMinSeconds
/// have passed (at most kSetupMaxReps); setup_s is the median. Tiny set-ups
/// (lint_matrix) need many repetitions for a steady median.
constexpr unsigned kSetupMinReps = 3;
constexpr unsigned kSetupMaxReps = 200;
constexpr double kSetupMinSeconds = 1.0;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 10;
  bool trace = false;
  unsigned workers = 0;
  std::string spans_out;
  std::string work_dir = ".bench_build/perfbench/work";
  bool list_metrics = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workers N] [--spans-out FILE] [--work-dir DIR]\n"
               "       perfbench --list-metrics\n",
               why.c_str());
  std::exit(2);
}

u64 parse_u64(const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 0);
  if (errno != 0 || end == v || *end != '\0' || v[0] == '-')
    usage(std::string("bad value for ") + flag + ": " + v);
  return x;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + f);
    const char* v = argv[++i];
    if (f == "--workload") a.workload = v;
    else if (f == "--seed") a.seed = parse_u64("--seed", v);
    else if (f == "--seconds") a.seconds = static_cast<double>(parse_u64("--seconds", v));
    else if (f == "--trace") a.trace = parse_u64("--trace", v) != 0;
    else if (f == "--workers") a.workers = static_cast<unsigned>(parse_u64("--workers", v));
    else if (f == "--spans-out") a.spans_out = v;
    else if (f == "--work-dir") a.work_dir = v;
    else usage("unknown flag " + f);
  }
  if (!a.list_metrics && a.workload.empty()) usage("--workload is required");
  if (a.seconds < 1) usage("--seconds must be >= 1");
  return a;
}

void list_metrics() {
  for (const auto* group : {&end_to_end_specs(), &per_layer_specs()}) {
    const char* kind = group == &end_to_end_specs() ? "end_to_end" : "per_layer";
    for (const MetricSpec& s : *group)
      std::printf("%s %s %s %s\n", kind, s.name, s.unit, s.exact ? "exact" : "timed");
  }
}

struct Timed {
  double wall = 0, cpu = 0;
  PassResult r;
};

Timed timed_pass(Workload& w, Tracer& tracer, MetricValues* layers) {
  Timed t;
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  t.r = w.pass(tracer, layers);
  t.wall = seconds_since(t0);
  t.cpu = cpu_seconds() - c0;
  std::printf("%s pass%s: %.4f s wall, %.4f s cpu, %.0f %s, checks %u/%u ok\n", w.name(),
              layers != nullptr ? " (traced)" : "", t.wall, t.cpu, t.r.units, w.unit_name(),
              t.r.checks.attempted - t.r.checks.failed, t.r.checks.attempted);
  std::fflush(stdout);
  return t;
}

int run(const Args& a) {
  RunOptions opts;
  opts.seed = a.seed;
  opts.workers = a.workers;
  opts.work_dir = a.work_dir + "/" + a.workload + "-" + std::to_string(a.seed);
  std::unique_ptr<Workload> w = make_workload(a.workload, opts);
  if (!w) usage("unknown workload '" + a.workload + "'");
  std::filesystem::create_directories(opts.work_dir);

  const std::string run_id = a.workload + "/seed" + std::to_string(a.seed);
  Tracer off(false, run_id);
  Tracer tracer(a.trace, run_id);

  // Set-up: build the workload's inputs; the last build is the one used.
  std::vector<double> setup;
  double setup_total = 0;
  while (setup.size() < kSetupMaxReps &&
         (setup.size() < kSetupMinReps || setup_total < kSetupMinSeconds)) {
    Scope s(tracer, "setup");
    w->setup();
    setup.push_back(s.close());
    setup_total += setup.back();
  }

  unsigned attempted = 0, failed = 0;
  const auto tally = [&](const Checks& c) {
    attempted += c.attempted;
    failed += c.failed;
  };

  // Closed loop of fixed-work passes until the next one would overrun the
  // time budget (always at least one; the traced run alternates untraced
  // and traced passes so the tracing overhead is measured in-process).
  std::vector<double> walls, cpus, traced_walls;
  double units = 0, timed = 0;
  MetricValues layers;
  for (;;) {
    const Timed t = timed_pass(*w, off, nullptr);
    walls.push_back(t.wall);
    cpus.push_back(t.cpu);
    units += t.r.units;
    timed += t.wall;
    tally(t.r.checks);
    double next = median(walls);
    if (a.trace) {
      Scope s(tracer, std::string("pass.") + w->name());
      const Timed tt = timed_pass(*w, tracer, &layers);
      traced_walls.push_back(tt.wall);
      timed += tt.wall;
      tally(tt.r.checks);
      next += median(traced_walls);
    }
    if (timed + next > a.seconds) break;
  }
  tally(w->verify());

  MetricValues out;
  const std::vector<MetricSpec>* specs = &end_to_end_specs();
  if (a.trace) {
    tally(measure_layers(tracer, layers, a.workload == "lint_matrix"));
    layers.set("trace.overhead_ratio", median(traced_walls) / median(walls));
    out = layers;
    specs = &per_layer_specs();
    std::fputs(tracer.summary().c_str(), stdout);
    if (!a.spans_out.empty()) tracer.write_json(a.spans_out);
  } else {
    out.set("setup_s", median(setup));
    out.set("wall_s", median(walls));
    out.set("cpu_s", median(cpus));
    out.set("peak_rss_mb", peak_rss_mib());
    out.set("units_per_s", units / std::accumulate(walls.begin(), walls.end(), 0.0));
  }
  std::printf("%s: %zu untraced pass(es), fail_ratio %u/%u\n", w->name(), walls.size(),
              failed, attempted);
  for (const MetricSpec& s : *specs)
    std::printf("  %-36s %18s %s\n", s.name, fmt_number(out.get(s.name)).c_str(), s.unit);
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              out.json(*specs, !a.trace).c_str());
  std::filesystem::remove_all(opts.work_dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.list_metrics) {
    list_metrics();
    return 0;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
