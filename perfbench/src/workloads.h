#pragma once
// The four benchmark workloads. Each is a closed-loop batch job in one
// process: setup() builds its inputs (wrapped routines, images, netlists),
// pass() runs one fixed unit of work to completion and checks its outputs
// against the values pinned from the seed commit. The runner (main.cpp)
// repeats pass() for the run's time budget.

#include <memory>
#include <string>
#include <vector>

#include "common/bitutil.h"
#include "metrics.h"
#include "spans.h"

namespace perfbench {

using detstl::u32;
using detstl::u64;
using detstl::u8;

struct Checks {
  unsigned attempted = 0;
  unsigned failed = 0;
  /// Records one output check; prints the mismatch when it fails.
  void expect(bool ok, const std::string& what);
};

struct PassResult {
  double units = 0;  // work completed: faults, runs, cycles or configurations
  Checks checks;
};

struct RunOptions {
  u64 seed = 0;
  unsigned workers = 0;  // 0 = the workload's default
  std::string work_dir;  // scratch space inside the checkout (soak journals)
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Unit of PassResult::units, for the human-readable summary.
  virtual const char* unit_name() const = 0;
  virtual void setup() = 0;
  /// One fixed-work pass. With `layers` non-null the pass is traced: it
  /// records its own per-layer counters there (replacing earlier ones).
  virtual PassResult pass(Tracer& tracer, MetricValues* layers) = 0;
  /// Output checks too costly for every pass; run once, untimed, after the
  /// last one.
  virtual Checks verify() { return {}; }
};

/// The workload called `name`, or null when there is none.
std::unique_ptr<Workload> make_workload(const std::string& name, const RunOptions& opts);

/// Per-layer microbenchmarks and probe-run counters that do not depend on
/// the workload (layers.cpp). `matrix_cells` adds the 144 one-point
/// run_matrix samples (lint_matrix only: they take as long as a pass).
Checks measure_layers(Tracer& tracer, MetricValues& layers, bool matrix_cells);

}  // namespace perfbench
