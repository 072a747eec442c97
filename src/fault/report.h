#pragma once
// Campaign reporting: outcome breakdowns and an undetected-fault dictionary
// grouped by gate type — the view a test engineer uses to decide where a
// routine needs more patterns.

#include <string>

#include "fault/campaign.h"
#include "netlist/modules.h"

namespace detstl::fault {

/// Per-gate-type coverage line of the dictionary.
struct GateClassCoverage {
  netlist::GateOp op;
  u64 faults = 0;
  u64 detected = 0;
  double coverage_percent() const {
    return faults == 0 ? 0.0 : 100.0 * static_cast<double>(detected) /
                                   static_cast<double>(faults);
  }
};

struct CampaignReport {
  CampaignResult result;
  std::vector<GateClassCoverage> by_gate_class;  // sorted by fault count desc
};

const char* gate_op_name(netlist::GateOp op);
const char* outcome_name(FaultOutcome o);

/// Classify the campaign's sampled faults against the module netlist the
/// campaign graded (must be constructed with the same kind). Throws
/// std::invalid_argument when `nl` or `fault_stride` do not reproduce the
/// campaign's fault list and sampled population.
CampaignReport make_report(const CampaignResult& result, const netlist::Netlist& nl,
                           u32 fault_stride);

/// Human-readable rendering (outcome summary + gate-class dictionary). It
/// prints outcomes only, so the text is the same bytes at any thread or
/// worker count and across kill/resume; simulated work is perf::sim_totals()'s
/// and host time the caller's (stderr, stlperf).
std::string render_report(const CampaignReport& report, const std::string& title);

}  // namespace detstl::fault
