#pragma once
// stlperf machine-readable performance report (the BENCH_<name>.json
// trajectory format) and the comparison logic behind `stlperf diff/check`.
//
// Schema contract (kPerfSchemaVersion):
//  * the top-level "sim" object holds ONLY simulation-derived values —
//    cycles, units, per-phase cycle counts, kSim-tagged metrics and their
//    fingerprint. For a fixed seed/config it is byte-identical across runs,
//    machines and thread counts (sim_canonical() extracts exactly these
//    bytes; tests/test_perf.cpp enforces the invariance at 1/2/8 threads).
//  * the top-level "host" object holds everything timing-dependent:
//    wall-clock, CPU time, peak RSS, sim-MHz, per-phase wall times and
//    kHost-tagged metrics. It may vary freely between runs and is ignored
//    by the determinism checks.
// Reports are written by perf::Session (perf/session.h).
// Consumers must reject reports whose "stlperf_schema" they don't know.

#include <string>
#include <vector>

#include "perf/metrics.h"

namespace detstl::perf {

inline constexpr u32 kPerfSchemaVersion = 1;

/// One campaign phase (or bench sub-step): sim share and host share are
/// recorded separately so the sim subtree stays host-free.
struct PhaseStats {
  std::string name;
  u64 sim_cycles = 0;  // SoC cycles simulated during the phase
  u64 units = 0;       // campaign work units completed during the phase
  double wall_s = 0.0; // host wall-clock of the phase
};

struct PerfReport {
  u32 schema = kPerfSchemaVersion;
  std::string name;             // bench identity, e.g. "table2", "simspeed"
  std::string detstl_version;   // producer (informational; not compared)
  u64 config_hash = 0;          // ConfigHasher digest of the workload identity

  // --- sim: deterministic ---------------------------------------------------
  u64 sim_cycles = 0;
  u64 sim_units = 0;
  std::vector<PhaseStats> phases;
  Registry metrics;             // kSim and kHost series, routed by tag

  // --- host: timing-dependent -----------------------------------------------
  double wall_s = 0.0;
  double cpu_s = 0.0;
  long peak_rss_kb = 0;

  /// The KPI: simulated cycles per host second, in MHz.
  double sim_mhz() const {
    return wall_s > 0.0 ? static_cast<double>(sim_cycles) / wall_s / 1e6 : 0.0;
  }
};

/// Full JSON document (both subtrees), newline-terminated.
std::string to_json(const PerfReport& rep);

/// The serialized "sim" subtree alone — the unit of the byte-identity
/// contract. Equal sim_canonical() ⟺ same simulated work.
std::string sim_canonical(const PerfReport& rep);

/// Parse a full document. Returns false (reason in *err) on malformed JSON,
/// missing members or an unknown schema version.
bool from_json(const std::string& text, PerfReport& out, std::string* err = nullptr);

bool write_report_file(const std::string& path, const PerfReport& rep);
bool load_report_file(const std::string& path, PerfReport& out,
                      std::string* err = nullptr);

/// Human rendering: summary table, phase table and metric table.
std::string render_report(const PerfReport& rep);

/// stlperf diff/check semantics.
struct CompareOutcome {
  bool comparable = false;        // same schema and bench name
  bool config_changed = false;    // config_hash mismatch (noted, not fatal)
  bool sim_identical = false;     // sim_canonical() bytes equal
  double baseline_mhz = 0.0;
  double current_mhz = 0.0;
  /// Positive = current is slower than baseline by this many percent.
  double regression_pct = 0.0;
  std::vector<std::string> notes;

  bool regressed(double threshold_pct) const {
    return regression_pct > threshold_pct;
  }
  /// The sim subtree diverged under an unchanged config hash: the same
  /// workload simulated differently. Fails diff and check like a regression.
  bool determinism_break() const {
    return comparable && !config_changed && !sim_identical;
  }
};

CompareOutcome compare_reports(const PerfReport& baseline,
                               const PerfReport& current);

/// Human rendering of a comparison, threshold verdict included.
std::string render_diff(const PerfReport& baseline, const PerfReport& current,
                        const CompareOutcome& cmp, double threshold_pct);

}  // namespace detstl::perf
