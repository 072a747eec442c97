#pragma once
// The benchmark's metric catalogue. End-to-end metrics are printed by every
// untraced run, per-layer metrics by every traced run; a workload that does
// not exercise a layer reports that layer's metrics as 0. Metrics marked
// `exact` are simulated-design or work counts: they repeat byte for byte
// across runs and worker counts, and a speed-only change must leave them
// unchanged.

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool exact;
};

const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

/// Values by name; emitted in catalogue order.
class MetricValues {
 public:
  void set(const std::string& name, double v) { v_[name] = v; }
  double get(const std::string& name) const;

  /// `{"name": {"value": v, "unit": u}, ...}` over `specs`. Every end-to-end
  /// metric must have been set; a missing per-layer metric reads 0.
  std::string json(const std::vector<MetricSpec>& specs, bool require_all) const;

 private:
  std::map<std::string, double> v_;
};

/// Shortest decimal text that reads back as exactly `v`.
std::string fmt_number(double v);

/// Median of a non-empty sample.
double median(std::vector<double> v);

}  // namespace perfbench
