#pragma once
// Structured diagnostics for the static determinism verifier. Every finding
// carries a machine-readable rule id, a severity, the PC it anchors to and a
// fix hint, so the CLI (tools/stlint.cpp), the build_wrapped() verification
// hook and the tests can all consume the same report. Report::annotate()
// additionally resolves each PC against the program's symbol table
// ("t0_loop+0x14") so diagnostics stay readable without a disassembly.

#include <string>
#include <vector>

#include "common/bitutil.h"

namespace detstl::isa {
class Program;
}

namespace detstl::analysis {

enum class Severity : u8 { kInfo, kWarning, kError };

/// Rule catalogue (documented with paper references in docs/static_analysis.md).
/// Layer 1 (syntactic rules) and layer 2 (abstract-interpretation obligations,
/// the `ai-` prefix) share one id space so --fixtures and SARIF enumerate both.
enum class Rule : u8 {
  // --- layer 1: syntactic / structural rules ---------------------------------
  kIcacheConflict,       // loop code maps >ways lines onto one I$ set
  kDcacheConflict,       // loop data maps >ways lines onto one D$ set
  kCodeFootprint,        // reachable code exceeds the I$ capacity
  kNoncacheableAccess,   // bus-coupled access inside the execution loop
  kNwaMissingDummyLoad,  // store without the no-write-allocate fix-up
  kSelfModifyingCode,    // store targets the reachable code image
  kHaltFallthrough,      // reachable path runs past the code into data
  kSignatureDiscipline,  // r29 written outside the MISR idiom
  kPerfCounterRead,      // counter CSR read with use_perf_counters=false
  kUnresolvedAddress,    // memory access the interval analysis cannot bound
  kUnreachableEntry,     // entry point outside the program image
  // --- layer 2: abstract-interpretation obligations (absint.h) ---------------
  kAiExecUnproven,       // exec-loop access not provably a repeat of loading
  kAiLoadingFootprint,   // loading-loop access outside the reserved regions
  kAiCrossCoreOverlap,   // this core's reserved regions overlap a peer's
  kAiInterferenceBound,  // info: computed per-access bus-interference bound
};

const char* rule_id(Rule r);
const char* severity_name(Severity s);

/// "0x" followed by `v` in lower-case hex, as every message prints addresses.
std::string hex(u32 v);

/// All rules, in catalogue order (fixture-coverage self-check, SARIF driver).
const std::vector<Rule>& rule_catalogue();

struct Diagnostic {
  Severity severity = Severity::kError;
  Rule rule = Rule::kHaltFallthrough;
  u32 pc = 0;  // instruction the finding anchors to (0 = program-level)
  std::string message;
  std::string hint;   // how to fix (may be empty)
  std::string where;  // nearest symbol + offset, filled by Report::annotate()
};

class Report {
 public:
  void add(Severity sev, Rule rule, u32 pc, std::string message,
           std::string hint = {});

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  unsigned errors() const { return errors_; }
  unsigned warnings() const { return warnings_; }
  bool clean() const { return errors_ == 0; }

  /// True when at least one diagnostic carries `rule`.
  bool has(Rule rule) const;

  /// True when an *error*-severity diagnostic anchors to `pc` (used by the
  /// abstract-interpretation layer to avoid double-reporting).
  bool has_error_at(u32 pc) const;

  /// Resolve every diagnostic PC against the program's symbol table,
  /// filling Diagnostic::where with "symbol+0xoff".
  void annotate(const isa::Program& prog);

  /// Multi-line human-readable rendering ("error[icache-conflict] pc=0x...").
  std::string format() const;

 private:
  std::vector<Diagnostic> diags_;
  unsigned errors_ = 0;
  unsigned warnings_ = 0;
};

}  // namespace detstl::analysis
