// Small fault-grading campaign, end to end: grade the Interrupt Control Unit
// of core A under (a) the legacy single-core structure and (b) the
// cache-based strategy with all cores active, using the gate-level ICU
// netlist and the two-phase stuck-at engine. Prints the per-phase statistics
// the larger Table II/III benches summarise.
//
//   $ ./examples/fault_grading                 # all hardware threads
//   $ DETSTL_THREADS=1 ./examples/fault_grading  # serial (same result)

#include <cstdio>
#include <cstdlib>

#include "core/routines.h"
#include "exp/experiments.h"
#include "fault/report.h"

namespace {

using namespace detstl;

/// True when the fault-free run passed and the routine detected faults.
bool grade(const char* title, core::WrapperKind w, unsigned active_cores) {
  const auto routine = core::make_icu_test();
  exp::Scenario sc{active_cores, {0, 3, 7}, 0, 0, "demo"};
  auto tests = exp::build_scenario_tests(*routine, w, sc, /*graded=*/0,
                                         /*use_pcs=*/false);

  fault::CampaignConfig cc;
  cc.module = fault::Module::kIcu;
  cc.core_id = 0;
  cc.kind = isa::CoreKind::kA;
  cc.signature_from_marker = w == core::WrapperKind::kCacheBased;
  if (const char* t = std::getenv("DETSTL_THREADS"))
    cc.threads = static_cast<unsigned>(std::strtoul(t, nullptr, 10));
  fault::Campaign campaign(cc, exp::scenario_factory(std::move(tests), sc, 0));
  const auto res = campaign.run();

  // Full dictionary: outcomes plus per-gate-class coverage.
  const netlist::IcuNetlist icu(isa::CoreKind::kA);
  const auto report = fault::make_report(res, icu.nl(), cc.fault_stride);
  std::printf("\n%s", fault::render_report(report, title).c_str());
  return res.good_verdict.status == soc::kStatusPass && res.detected > 0;
}

}  // namespace

int main() {
  std::printf("stuck-at fault grading of core A's Interrupt Control Unit\n");
  const bool plain = grade("single core, no caches (legacy)", core::WrapperKind::kPlain, 1);
  const bool cached =
      grade("three cores, cache-based strategy", core::WrapperKind::kCacheBased, 3);
  return plain && cached ? 0 : 1;
}
