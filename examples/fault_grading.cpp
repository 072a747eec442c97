// Small fault-grading campaign, end to end: grade the Interrupt Control Unit
// of core A under (a) the legacy single-core structure and (b) the
// cache-based strategy with all cores active, using the gate-level ICU
// netlist and the two-phase stuck-at engine. Prints each campaign's outcome
// summary and per-gate-class coverage, the figures the larger Table II/III
// benches summarise; the output is the same bytes at any thread count.
//
//   $ ./examples/fault_grading                 # all hardware threads
//   $ DETSTL_THREADS=1 ./examples/fault_grading  # serial (same result)
//
// DETSTL_THREADS takes an integer in [0, 256] (0 = all hardware threads);
// anything else exits 2 before any campaign starts.

#include <cstdio>
#include <cstdlib>

#include "common/parse.h"
#include "core/routines.h"
#include "exp/experiments.h"
#include "fault/report.h"

namespace {

using namespace detstl;

/// DETSTL_THREADS, parsed as strictly as the tools' --threads: unset or
/// empty means all hardware threads.
unsigned threads_from_env() {
  const char* t = std::getenv("DETSTL_THREADS");
  if (t == nullptr || *t == '\0') return 0;
  u64 v = 0;
  if (!parse_u64(t, 0, v) || v > 256) {
    std::fprintf(stderr,
                 "fault_grading: DETSTL_THREADS expects an integer in [0, 256], "
                 "got '%s'\n",
                 t);
    std::exit(2);
  }
  return static_cast<unsigned>(v);
}

/// True when the fault-free run passed and the routine detected faults.
bool grade(const char* title, core::WrapperKind w, unsigned active_cores,
           unsigned threads) {
  const auto routine = core::make_icu_test();
  exp::Scenario sc{active_cores, {0, 3, 7}, 0, 0, "demo"};
  auto tests = exp::build_scenario_tests(*routine, w, sc, /*graded=*/0,
                                         /*use_pcs=*/false);

  fault::CampaignConfig cc;
  cc.module = fault::Module::kIcu;
  cc.core_id = 0;
  cc.kind = isa::CoreKind::kA;
  cc.signature_from_marker = w == core::WrapperKind::kCacheBased;
  cc.threads = threads;
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
  const unsigned threads = threads_from_env();
  std::printf("stuck-at fault grading of core A's Interrupt Control Unit\n");
  const bool plain = grade("single core, no caches (legacy)",
                           core::WrapperKind::kPlain, 1, threads);
  const bool cached = grade("three cores, cache-based strategy",
                            core::WrapperKind::kCacheBased, 3, threads);
  return plain && cached ? 0 : 1;
}
