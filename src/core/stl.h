#pragma once
// Software Test Library assembly: combine wrapped routines into one per-core
// boot-test program, optionally synchronised across cores with shared-memory
// barriers (the decentralised scheduling structure of [13], which the paper's
// Table I experiments follow: "a software structure similar to the one
// presented by the authors of [13]").
//
// Layout per core:
//   main: for each routine: jal <routine entry>; [barrier k]; ... ; halt
//   each routine is a wrapped subroutine writing (status, signature) to its
//   own 8-byte result slot.
// Barrier counters live in shared SRAM and are accessed uncached via
// amoadd/loads (the private caches are not coherent).

#include <array>
#include <memory>
#include <vector>

#include "core/wrapper.h"

namespace detstl::core {

/// A suite writes its results at default_results_base(env.core_id), 8 bytes
/// per routine (status, signature), and keeps its barrier counters at
/// kDefaultBarrierBase, one word per phase.
struct SuiteSpec {
  std::vector<const SelfTestRoutine*> routines;
  WrapperKind wrapper = WrapperKind::kPlain;
  BuildEnv env;                 // code_base / data_base / core / policy knobs
  bool barriers = false;        // phase barrier after every routine
  unsigned barrier_cores = 1;   // expected arrivals per phase
};

struct BuiltSuite {
  isa::Program prog;
  std::vector<u32> goldens;     // calibrated per routine
  std::vector<std::string> names;
  u32 results_base = 0;         // default_results_base(env.core_id)
  u32 code_bytes = 0;
  u64 calib_cycles = 0;         // fault-free single-core suite time
};

/// Assemble + calibrate a full suite (two-pass, like build_wrapped; the
/// calibration runs single-core with barrier_cores forced to 1 arrival).
BuiltSuite build_suite(const SuiteSpec& spec);

/// Per-routine verdicts from the results area.
std::vector<TestVerdict> read_suite_verdicts(const soc::Soc& soc,
                                             const BuiltSuite& suite);

/// Default shared addresses for the triple-core experiments.
inline u32 default_results_base(unsigned core_id) {
  return mem::kSramBase + 0x100 + core_id * 0x100;
}
inline constexpr u32 kDefaultBarrierBase = mem::kSramBase + 0x80;
inline u32 default_data_base(unsigned core_id) {
  return mem::kSramBase + 0x8000 + core_id * 0x1000;
}

/// Per-core build environment of the tools' quickstart scenario (detscope
/// run, stlint --xval, the scenario matrix's placement 0): each core's
/// cache-wrapped copy of the routine at a disjoint flash/SRAM placement.
/// Both sides of the static<->dynamic cross-validation must assemble from
/// the same environment for the prediction to be about the observed program.
inline BuildEnv quickstart_env(unsigned core_id, bool write_allocate) {
  BuildEnv env;
  env.core_id = core_id;
  env.kind = static_cast<isa::CoreKind>(core_id);
  env.code_base = mem::kFlashBase + 0x2000 + core_id * 0x40000;
  env.data_base = default_data_base(core_id);
  env.write_allocate = write_allocate;
  return env;
}

/// Reset stagger of the quickstart scenario (SocConfig::start_delay): cores
/// A-C leave reset 0, 3 and 7 cycles after reset(), the "initial SoC
/// configuration" that skews their bus activity. detscope run and metrics
/// start from it, and the determinism audit's contended run uses it.
inline constexpr std::array<u32, soc::kMaxCores> kQuickstartStagger = {0, 3, 7};

/// Catalogue of the built-in self-test routines (core/routines.h), shared by
/// the tools (stlint, detscope) so routine names stay consistent.
struct RoutineEntry {
  const char* name;
  std::unique_ptr<SelfTestRoutine> (*make)();
};

/// All built-in routines, in a stable order.
const std::vector<RoutineEntry>& routine_registry();

/// Lookup by name; nullptr when unknown.
const RoutineEntry* find_routine(const std::string& name);

}  // namespace detstl::core
