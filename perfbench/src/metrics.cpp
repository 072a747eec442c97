#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", false},
      {"wall_s", "s", false},
      {"cpu_s", "s", false},
      {"peak_rss_mb", "MiB", false},
      {"units_per_s", "1/s", false},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      // fault: the table3 campaigns (0 on other workloads).
      {"fault.goodrun_s", "s", false},
      {"fault.screen_s", "s", false},
      {"fault.detect_s", "s", false},
      {"fault.good_run_cycles", "cycles", true},
      {"fault.screen_calls", "count", true},
      {"fault.detect_cycles", "cycles", true},
      {"fault.outcome.signature", "count", true},
      {"fault.outcome.verdict", "count", true},
      {"fault.outcome.watchdog", "count", true},
      {"fault.outcome.undetected", "count", true},
      {"fault.outcome.not_excited", "count", true},
      {"fault.excited_ratio", "ratio", true},
      {"fault.detect_cycles_per_excited", "cycles", true},
      {"fault.worker_balance", "ratio", false},
      // netlist: gate-level module evaluation.
      {"netlist.eval_ns.hdcu", "ns", false},
      {"netlist.eval_ns.icu", "ns", false},
      {"netlist.eval_ns.fwd_a", "ns", false},
      {"netlist.eval_ns.fwd_c", "ns", false},
      {"netlist.screen_ns", "ns", false},
      {"netlist.calls", "count", true},
      {"netlist.share", "ratio", false},
      // soc: the whole-SoC tick and the checkpoint copy.
      {"soc.ns_per_cycle.single_cached", "ns", false},
      {"soc.ns_per_cycle.triple_contended", "ns", false},
      {"soc.ns_per_cycle.hooked", "ns", false},
      {"soc.copy_us", "us", false},
      // cpu / isa: the pipeline model in the contended probe run.
      {"cpu.ipc.a", "ratio", true},
      {"cpu.ipc.b", "ratio", true},
      {"cpu.ipc.c", "ratio", true},
      {"cpu.if_stalls", "cycles", true},
      {"cpu.mem_stalls", "cycles", true},
      {"cpu.decodes_per_instret", "ratio", true},
      {"isa.decode_ns", "ns", false},
      // mem: caches and the shared bus in the probe runs.
      {"mem.icache.hit_ratio", "ratio", true},
      {"mem.dcache.hit_ratio", "ratio", true},
      {"mem.bus.wait_cycles", "cycles", true},
      {"mem.bus.max_wait_cycles", "cycles", true},
      {"mem.bus.occupancy_ratio", "ratio", true},
      {"mem.cache_lookup_ns", "ns", false},
      // runtime: the soak campaign (0 on other workloads).
      {"runtime.disturb_cycles", "cycles", true},
      {"runtime.bisect_reruns", "count", true},
      {"runtime.diverged_runs", "count", true},
      {"runtime.upsets_applied", "count", true},
      {"runtime.useful_ratio", "ratio", true},
      {"runtime.worker_tail_s", "s", false},
      // fault/checkpoint: soak journal shards (0 on other workloads).
      {"checkpoint.shards_flushed", "count", true},
      {"checkpoint.flush_s", "s", false},
      // core / analysis: routine wrapping and the static verifier.
      {"core.build_ms", "ms", false},
      {"analysis.lint_ms", "ms", false},
      {"analysis.matrix_cell_ms.p50", "ms", false},
      {"analysis.matrix_cell_ms.p90", "ms", false},
      // trace: what the traced run itself costs.
      {"trace.overhead_ratio", "ratio", false},
  };
  return specs;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("perfbench: median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double MetricValues::get(const std::string& name) const {
  const auto it = v_.find(name);
  return it == v_.end() ? 0.0 : it->second;
}

std::string fmt_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("perfbench: non-finite metric value");
  char buf[40];
  if (v == std::trunc(v) && std::fabs(v) < 9007199254740992.0) {  // exact integer
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string MetricValues::json(const std::vector<MetricSpec>& specs,
                               bool require_all) const {
  std::string out = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MetricSpec& s = specs[i];
    if (require_all && v_.count(s.name) == 0)
      throw std::logic_error(std::string("perfbench: metric not measured: ") + s.name);
    out += (i == 0 ? "\"" : ", \"") + std::string(s.name) + "\": {\"value\": " +
           fmt_number(get(s.name)) + ", \"unit\": \"" + s.unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
