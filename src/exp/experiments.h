#pragma once
// Reproduction drivers for every table and figure of the paper's evaluation
// (DESIGN.md Sec. 4). Each run_* function regenerates one exhibit and is
// shared between the benchmark binaries (bench/) and the regression tests.

#include <array>
#include <string>
#include <vector>

#include "core/routines.h"
#include "core/stl.h"
#include "fault/campaign.h"

namespace detstl::exp {

// -----------------------------------------------------------------------------
// Scenario plumbing
// -----------------------------------------------------------------------------

/// One multi-core execution scenario (paper Sec. IV-C): how many cores are
/// active, their reset stagger ("initial SoC configuration"), and the flash
/// placement of the code (position low/mid/high + line-phase alignment).
/// Alignment is issue-packet (8-byte) granular: the STL ships packet-aligned,
/// and the knob sweeps the flash-line phase (offset mod 32).
struct Scenario {
  unsigned active_cores = 3;
  std::array<u32, 3> stagger = {0, 0, 0};
  u32 position = 0;   // 0 = low, +0x80000 = mid, +0x100000 = high
  u32 alignment = 0;  // multiple of 8, < 32
  std::string label;
};

/// The no-cache multi-core grid fault-simulated for Table II's min-max
/// columns: {2,3} active cores x {low,mid,high} position x {0,8} alignment.
std::vector<Scenario> nocache_scenario_grid();

/// Build one wrapped routine per active core at the scenario's placement
/// (core `graded` is always active; with 2 active cores the neighbour core
/// joins it).
std::vector<core::BuiltTest> build_scenario_tests(const core::SelfTestRoutine& r,
                                                  core::WrapperKind wrapper,
                                                  const Scenario& sc,
                                                  unsigned graded,
                                                  bool use_perf_counters);

/// SoC factory over prebuilt tests (for fault campaigns).
fault::SocFactory scenario_factory(std::vector<core::BuiltTest> tests,
                                   const Scenario& sc, unsigned graded);

/// Execution knobs shared by every table driver. The defaults reproduce the
/// exhibits silently on all available cores; the benches map `--progress`
/// and DETSTL_THREADS onto this.
struct ExecOptions {
  /// Campaign worker threads (fault::CampaignConfig::threads): 0 = hardware
  /// concurrency, 1 = serial. The table rows are identical for any value.
  unsigned threads = 0;
  /// Forwarded to every fault campaign (in-campaign progress/ETA).
  fault::ProgressFn progress;
  /// One line per completed scenario/configuration step ("narration").
  std::function<void(const std::string&)> log;
  /// detscope event sink forwarded to every fault campaign (the benches wire
  /// `--trace FILE` onto this; null = tracing off).
  trace::EventSink* sink = nullptr;
  /// Crash-safe checkpoint root (fault/checkpoint.h): every fault campaign a
  /// table driver launches journals into its own subdirectory
  /// `<dir>/<campaign-label>`, so one bench invocation can hold many
  /// independent campaign checkpoints. Empty dir = off.
  fault::CheckpointConfig checkpoint;
  /// Cooperative drain request forwarded to every fault campaign. A drained
  /// campaign makes the table driver throw fault::Interrupted, so the bench
  /// stops at the first interrupted campaign and exits resumable (exit 3).
  fault::InterruptToken* interrupt = nullptr;
};

// -----------------------------------------------------------------------------
// Figure 1: forwarding path excited vs broken by fetch stalls
// -----------------------------------------------------------------------------

struct Fig1Result {
  std::string trace_cached;       // cache-resident: back-to-back, path excited
  std::string trace_single_core;  // no caches, single core: flash gaps
  std::string trace_triple_core;  // no caches, 3 cores: contention gaps
  u64 ex_distance_cached = 0;     // EX-stage distance producer->consumer
  u64 ex_distance_single = 0;
  u64 ex_distance_triple = 0;
};
Fig1Result run_fig1();

// -----------------------------------------------------------------------------
// Table I: memory-subsystem stalls of the parallel STL vs active cores
// -----------------------------------------------------------------------------

struct Table1Row {
  unsigned active_cores = 0;
  double if_stalls = 0;   // summed over active cores, averaged over staggers
  double mem_stalls = 0;
};
/// Reset staggers Table I can average over; run_table1 takes the first
/// `stagger_samples` of them and throws std::invalid_argument outside
/// [1, kTable1Staggers].
inline constexpr unsigned kTable1Staggers = 4;
std::vector<Table1Row> run_table1(unsigned stagger_samples = 3,
                                  const ExecOptions& opts = {});

// -----------------------------------------------------------------------------
// Table II: forwarding-logic fault coverage, no-PC routine
// -----------------------------------------------------------------------------

struct Table2Row {
  char core = 'A';
  u64 faults = 0;          // simulated stuck-at faults
  double fc_min = 0;       // multi-core, no caches, over the scenario grid
  double fc_max = 0;
  double fc_cached = 0;    // cache-based strategy (stable single value)
  bool cached_stable = false;  // FC identical across re-checked scenarios
};
std::vector<Table2Row> run_table2(u32 fault_stride = 1, unsigned max_scenarios = 0,
                                  const ExecOptions& opts = {});

// -----------------------------------------------------------------------------
// Table III: ICU and HDCU fault coverage + signature stability
// -----------------------------------------------------------------------------

struct Table3Row {
  char core = 'A';
  std::string module;
  u64 faults = 0;
  double fc_single_nocache = 0;  // plain wrapper, other cores off
  double fc_multi_cached = 0;    // cache-based wrapper, 3 cores active
  unsigned plain_multicore_failures = 0;  // out of `stability_runs`
  unsigned stability_runs = 0;
};
std::vector<Table3Row> run_table3(u32 fault_stride = 1,
                                  const ExecOptions& opts = {});

// -----------------------------------------------------------------------------
// Table IV: TCM-based vs cache-based strategy
// -----------------------------------------------------------------------------

struct Table4Row {
  std::string approach;
  u32 memory_overhead_bytes = 0;   // permanently reserved TCM space
  u64 execution_cycles = 0;        // reset -> halt, single-core (deterministic)
  double usec_at_180mhz = 0;
  u64 contended_cycles = 0;        // same, with all three cores active
};
std::vector<Table4Row> run_table4(const ExecOptions& opts = {});

}  // namespace detstl::exp
