#include "fault/report.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "common/table.h"

namespace detstl::fault {

const char* gate_op_name(netlist::GateOp op) {
  using netlist::GateOp;
  switch (op) {
    case GateOp::kInput: return "input";
    case GateOp::kConst0: return "const0";
    case GateOp::kConst1: return "const1";
    case GateOp::kBuf: return "buf";
    case GateOp::kNot: return "not";
    case GateOp::kAnd: return "and";
    case GateOp::kOr: return "or";
    case GateOp::kNand: return "nand";
    case GateOp::kNor: return "nor";
    case GateOp::kXor: return "xor";
    case GateOp::kXnor: return "xnor";
    case GateOp::kDff: return "dff";
  }
  return "?";
}

const char* outcome_name(FaultOutcome o) {
  switch (o) {
    case FaultOutcome::kNotExcited: return "not excited";
    case FaultOutcome::kDetectedSignature: return "detected: signature";
    case FaultOutcome::kDetectedVerdict: return "detected: verdict";
    case FaultOutcome::kDetectedWatchdog: return "detected: watchdog";
    case FaultOutcome::kUndetected: return "excited, undetected";
  }
  return "?";
}

CampaignReport make_report(const CampaignResult& result, const netlist::Netlist& nl,
                           u32 fault_stride) {
  CampaignReport rep;
  rep.result = result;

  // Reconstruct the sampled fault list the campaign used. A netlist or
  // stride other than the campaign's would give a table that does not sum
  // to the campaign.
  const std::vector<netlist::Fault> sampled = sample_faults(nl, fault_stride);
  if (nl.fault_list().size() != result.total_faults)
    throw std::invalid_argument("make_report: not the netlist the campaign graded");
  if (sampled.size() != result.outcomes.size())
    throw std::invalid_argument("make_report: not the stride the campaign sampled with");

  std::map<netlist::GateOp, GateClassCoverage> classes;
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    const netlist::GateOp op = nl.gate(sampled[i].net).op;
    auto& entry = classes[op];
    entry.op = op;
    ++entry.faults;
    const FaultOutcome o = result.outcomes[i];
    if (o != FaultOutcome::kNotExcited && o != FaultOutcome::kUndetected)
      ++entry.detected;
  }
  for (const auto& [op, cov] : classes) rep.by_gate_class.push_back(cov);
  std::sort(rep.by_gate_class.begin(), rep.by_gate_class.end(),
            [](const auto& a, const auto& b) { return a.faults > b.faults; });
  return rep;
}

std::string render_report(const CampaignReport& rep, const std::string& title) {
  const CampaignResult& r = rep.result;
  TextTable summary(title + " — campaign summary");
  summary.header({"metric", "value"});
  summary.row({"collapsed faults (total)", TextTable::fmt_int(static_cast<long long>(r.total_faults))});
  summary.row({"faults simulated", TextTable::fmt_int(static_cast<long long>(r.simulated_faults))});
  summary.row({"excited (phase 1)", TextTable::fmt_int(static_cast<long long>(r.excited))});
  summary.row({"detected", TextTable::fmt_int(static_cast<long long>(r.detected))});
  summary.row({"  via signature divergence", TextTable::fmt_int(static_cast<long long>(r.detected_signature))});
  summary.row({"  via final verdict", TextTable::fmt_int(static_cast<long long>(r.detected_verdict))});
  summary.row({"  via watchdog", TextTable::fmt_int(static_cast<long long>(r.detected_watchdog))});
  summary.row({"fault coverage, sampled population [%]",
               TextTable::fmt_fixed(r.coverage_percent(), 2)});
  summary.row({"fault coverage, full collapsed list [%]",
               TextTable::fmt_fixed(r.coverage_percent_of_total(), 2) +
                   (r.simulated_faults == r.total_faults ? "" : " (lower bound)")});
  summary.row({"fault-free run [cycles]", TextTable::fmt_int(static_cast<long long>(r.good_cycles))});

  TextTable dict(title + " — coverage by gate class");
  dict.header({"gate class", "faults", "detected", "FC [%]"});
  for (const auto& c : rep.by_gate_class) {
    dict.row({gate_op_name(c.op), TextTable::fmt_int(static_cast<long long>(c.faults)),
              TextTable::fmt_int(static_cast<long long>(c.detected)),
              TextTable::fmt_fixed(c.coverage_percent(), 2)});
  }
  return summary.str() + dict.str();
}

}  // namespace detstl::fault
