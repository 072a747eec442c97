#pragma once
// Inputs shared by the workloads and the per-layer measurements: the Table
// III campaign scenarios (same configurations as exp::run_table3) and the
// sim-MHz probe's routines (same builds as bench_simspeed's probe).

#include <memory>
#include <string>
#include <vector>

#include "core/routines.h"
#include "exp/experiments.h"
#include "fault/campaign.h"

namespace perfbench {

using namespace detstl;

struct Table3Routines {
  std::unique_ptr<core::SelfTestRoutine> icu;   // make_icu_test()
  std::unique_ptr<core::SelfTestRoutine> hdcu;  // make_fwd_test(with perf counters)
  static Table3Routines make();
};

/// One Table III fault campaign: graded module of one core, either
/// single-core with the plain wrapper or three cores with the cache wrapper.
struct Table3Case {
  std::string label;
  fault::Module module = fault::Module::kHdcu;
  unsigned graded = 0;
  bool cached = false;
  exp::Scenario scenario;
  std::vector<core::BuiltTest> tests;

  char core() const { return static_cast<char>('A' + graded); }
  const char* module_name() const { return module == fault::Module::kIcu ? "ICU" : "HDCU"; }
  /// Exhaustive (stride 1) campaign config, as exp::run_table3 builds it.
  fault::CampaignConfig config() const;
  fault::SocFactory factory() const;
};

/// The 12 campaigns in table order: rows (core A..C) x (ICU, HDCU), each
/// row as (single-core plain, multi-core cached).
std::vector<Table3Case> build_table3_cases(const Table3Routines& r);

/// One fault-free plain-wrapper multi-core stability run of a table row.
struct StabilityCase {
  unsigned graded = 0;
  fault::SocFactory factory;
};
/// Per table row, the three staggered scenarios of exp::run_table3.
std::vector<std::vector<StabilityCase>> build_stability_cases(const Table3Routines& r);

// --- sim-MHz probe -------------------------------------------------------------

inline constexpr unsigned kProbeRepsPerPass = 100;

struct ProbeTests {
  core::BuiltTest cached;               // core 0, cache-based wrapper
  std::vector<core::BuiltTest> plain;   // cores 0..2, plain wrapper
};
ProbeTests build_probe_tests();

struct ProbeRun {
  soc::Soc soc;
  u64 cycles = 0;
  std::vector<u32> verdicts;  // (status, signature) per active core
};
/// The cache-based routine run to halt on core 0 alone.
ProbeRun run_probe_single(const ProbeTests& t);
/// The plain routines run to halt on all three contended cores.
ProbeRun run_probe_triple(const ProbeTests& t);

}  // namespace perfbench
