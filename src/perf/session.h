#pragma once
// The one writer of stlperf reports. A Session brackets a run: sim-work
// deltas (perf/simstats.h) and wall-clock per phase, host usage, the
// workload config hash and the caller's own series, emitted as one
// BENCH_<name>.json. The benches, `stlrun campaign --metrics-out` and
// `detscope metrics` all write through it. Header-only for collect.h's
// reason: fault::ConfigHasher lives in detstl_fault, which links
// detstl_perf.
//
// Construct right before the workload, add series to metrics(), call
// mark_phase() after each section and return finish(path, exit_code).

#include <cstdio>
#include <string>

#include "common/version.h"
#include "fault/checkpoint.h"
#include "perf/collect.h"
#include "perf/perf_report.h"
#include "perf/sampler.h"
#include "perf/simstats.h"

namespace detstl::perf {

class Session {
 public:
  explicit Session(const std::string& name) {
    rep_.name = name;
    rep_.detstl_version = kDetstlVersion;
    hash_.str(name);
    start_ = phase_start_ = sim_totals().snapshot();
  }

  /// The workload config hash, seeded with the report name. Mix in only
  /// outcome-relevant knobs (seeds, strides, scenario counts), never threads
  /// or observability settings, mirroring the checkpoint config-hash
  /// exclusions.
  fault::ConfigHasher& hash() { return hash_; }
  void hash_knob(const char* key, u64 value) { hash_.str(key).u64v(value); }

  /// The report's registry, for the caller's own series.
  Registry& metrics() { return rep_.metrics; }

  /// The work since the previous mark (or the start) was phase `label`.
  void mark_phase(const std::string& label) {
    const SimSnapshot now = sim_totals().snapshot();
    const double wall_s = timer_.sample().wall_s;
    const SimSnapshot d = now.since(phase_start_);
    rep_.phases.push_back(
        {label, d.sim_cycles(), d.units(), wall_s - phase_wall_s_});
    phase_start_ = now;
    phase_wall_s_ = wall_s;
  }

  /// Close the trailing phase and fill in the totals; later calls return the
  /// same report.
  const PerfReport& close() {
    if (closed_) return rep_;
    closed_ = true;
    const SimSnapshot end = sim_totals().snapshot();
    if (end.since(phase_start_).sim_cycles() != 0)
      mark_phase(rep_.phases.empty() ? "all" : "tail");
    const SimSnapshot delta = end.since(start_);
    const HostUsage u = timer_.sample();
    rep_.config_hash = hash_.digest();
    rep_.sim_cycles = delta.sim_cycles();
    rep_.sim_units = delta.units();
    rep_.wall_s = u.wall_s;
    rep_.cpu_s = u.cpu_s;
    rep_.peak_rss_kb = u.peak_rss_kb;
    collect_sim_totals(rep_.metrics, delta);
    collect_host_usage(rep_.metrics, u);
    return rep_;
  }

  /// close(), write the report to `path` (nothing when empty) and pass
  /// `exit_code` through — 1 instead when the write fails.
  int finish(const std::string& path, int exit_code) {
    const PerfReport& rep = close();
    if (path.empty()) return exit_code;
    if (!write_report_file(path, rep)) {
      std::fprintf(stderr, "error: cannot write metrics file %s\n",
                   path.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "stlperf: wrote %s (%.1f Mcycles in %.2fs, %.2f sim-MHz)\n",
                 path.c_str(), static_cast<double>(rep.sim_cycles) / 1e6,
                 rep.wall_s, rep.sim_mhz());
    return exit_code;
  }

 private:
  PerfReport rep_;
  fault::ConfigHasher hash_;
  HostTimer timer_;
  bool closed_ = false;
  SimSnapshot start_{};
  SimSnapshot phase_start_{};
  double phase_wall_s_ = 0.0;
};

}  // namespace detstl::perf
