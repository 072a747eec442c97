#pragma once
// stlperf metrics core: a standalone, label-aware registry of counters,
// gauges and fixed-bucket histograms — the one store every reported counter
// lives in. Instrumentation in cpu/, mem/, fault/, runtime/ and the trace
// layer's per-phase sink (trace/phase_metrics.h) publish into it, and every
// consumer (bench JSON, detscope metrics, stlrun --metrics-out) renders the
// same data.
//
// Determinism contract: every metric carries a MetricSource tag. kSim values
// derive only from simulation state (cycles, hits, misses, units) and must
// be byte-identical for a fixed seed/config at ANY thread count; kHost
// values (wall-clock, throughput, RSS) may vary freely. sim_fingerprint()
// and the JSON emitter honour the split: only kSim entries enter the
// fingerprint and the "sim" subtree. Iteration order is the lexicographic
// (name, labels) order of a std::map — insertion order can never leak into
// the output.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bitutil.h"

namespace detstl::perf {

enum class MetricKind : u8 { kCounter, kGauge, kHistogram };
enum class MetricSource : u8 { kSim, kHost };

const char* metric_kind_name(MetricKind k);
const char* metric_source_name(MetricSource s);

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds,
/// plus an implicit overflow bucket, so counts.size() == bounds.size() + 1.
struct HistogramData {
  std::vector<u64> bounds;
  std::vector<u64> counts;
  u64 total = 0;  // number of recorded values
  u64 sum = 0;    // sum of recorded values

  void record(u64 value);
};

struct Metric {
  MetricKind kind = MetricKind::kCounter;
  MetricSource source = MetricSource::kSim;
  u64 counter = 0;
  double gauge = 0.0;
  HistogramData hist;
};

/// Canonical label key: "k1=v1,k2=v2". Free-form, but keep keys sorted so
/// the same series never splits over two map entries.
class Registry {
 public:
  /// Counter: monotonically accumulated u64 (add) or overwritten (set).
  void add_counter(const std::string& name, const std::string& labels, u64 delta,
                   MetricSource source = MetricSource::kSim);
  void set_counter(const std::string& name, const std::string& labels, u64 value,
                   MetricSource source = MetricSource::kSim);

  /// Gauge: a point-in-time double (throughput, occupancy, RSS).
  void set_gauge(const std::string& name, const std::string& labels, double value,
                 MetricSource source = MetricSource::kHost);

  /// Histogram sample. `bounds` fixes the bucket layout on first use;
  /// subsequent records must pass the same bounds (checked by assert).
  void record_hist(const std::string& name, const std::string& labels,
                   const std::vector<u64>& bounds, u64 value,
                   MetricSource source = MetricSource::kSim);

  /// Install a fully-populated histogram (JSON deserialisation).
  void set_histogram(const std::string& name, const std::string& labels,
                     HistogramData hist, MetricSource source = MetricSource::kSim);

  std::size_t size() const { return series_.size(); }
  bool empty() const { return series_.empty(); }

  /// Deterministic (name, labels)-ordered visit over every series.
  void visit(const std::function<void(const std::string& name,
                                      const std::string& labels,
                                      const Metric& m)>& fn) const;

  /// Lookup for tests/assertions; nullptr when the series does not exist.
  const Metric* find(const std::string& name, const std::string& labels) const;

  /// FNV-1a 64 over every kSim series (name, labels, kind, values) in
  /// deterministic order. kHost series never enter the fingerprint, so two
  /// runs of the same simulation match even across machines.
  u64 sim_fingerprint() const;

  /// Human-readable table of every series.
  std::string render(const std::string& title = "metrics") const;

  void clear() { series_.clear(); }

 private:
  using Key = std::pair<std::string, std::string>;  // (name, labels)
  std::map<Key, Metric> series_;
};

}  // namespace detstl::perf
