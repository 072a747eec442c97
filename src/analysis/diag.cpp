#include "analysis/diag.h"

#include <algorithm>
#include <sstream>

#include "isa/program.h"

namespace detstl::analysis {

const char* rule_id(Rule r) {
  switch (r) {
    case Rule::kIcacheConflict: return "icache-conflict";
    case Rule::kDcacheConflict: return "dcache-conflict";
    case Rule::kCodeFootprint: return "code-footprint";
    case Rule::kNoncacheableAccess: return "noncacheable-access";
    case Rule::kNwaMissingDummyLoad: return "nwa-missing-dummy-load";
    case Rule::kSelfModifyingCode: return "self-modifying-code";
    case Rule::kHaltFallthrough: return "halt-fallthrough";
    case Rule::kSignatureDiscipline: return "signature-discipline";
    case Rule::kPerfCounterRead: return "perf-counter-read";
    case Rule::kUnresolvedAddress: return "unresolved-address";
    case Rule::kUnreachableEntry: return "unreachable-entry";
    case Rule::kAiExecUnproven: return "ai-exec-unproven";
    case Rule::kAiLoadingFootprint: return "ai-loading-footprint";
    case Rule::kAiCrossCoreOverlap: return "ai-cross-core-overlap";
    case Rule::kAiInterferenceBound: return "ai-interference-bound";
  }
  return "?";
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string hex(u32 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

const std::vector<Rule>& rule_catalogue() {
  static const std::vector<Rule> kRules = {
      Rule::kIcacheConflict,      Rule::kDcacheConflict,
      Rule::kCodeFootprint,       Rule::kNoncacheableAccess,
      Rule::kNwaMissingDummyLoad, Rule::kSelfModifyingCode,
      Rule::kHaltFallthrough,     Rule::kSignatureDiscipline,
      Rule::kPerfCounterRead,     Rule::kUnresolvedAddress,
      Rule::kUnreachableEntry,    Rule::kAiExecUnproven,
      Rule::kAiLoadingFootprint,  Rule::kAiCrossCoreOverlap,
      Rule::kAiInterferenceBound,
  };
  return kRules;
}

void Report::add(Severity sev, Rule rule, u32 pc, std::string message,
                 std::string hint) {
  if (sev == Severity::kError) ++errors_;
  if (sev == Severity::kWarning) ++warnings_;
  diags_.push_back(
      Diagnostic{sev, rule, pc, std::move(message), std::move(hint), {}});
}

bool Report::has(Rule rule) const {
  for (const auto& d : diags_)
    if (d.rule == rule) return true;
  return false;
}

bool Report::has_error_at(u32 pc) const {
  for (const auto& d : diags_)
    if (d.severity == Severity::kError && d.pc == pc) return true;
  return false;
}

void Report::annotate(const isa::Program& prog) {
  // Sorted (address, symbol) pairs; a diagnostic resolves to the greatest
  // symbol at or below its PC, provided it is within a plausible distance
  // (one routine image, not a stray label megabytes away).
  constexpr u32 kMaxSymbolDistance = 64 * 1024;
  std::vector<std::pair<u32, const std::string*>> syms;
  syms.reserve(prog.symbols().size());
  for (const auto& [name, addr] : prog.symbols()) syms.emplace_back(addr, &name);
  std::sort(syms.begin(), syms.end());
  for (auto& d : diags_) {
    if (d.pc == 0 || syms.empty()) continue;
    auto it = std::upper_bound(
        syms.begin(), syms.end(), std::make_pair(d.pc, (const std::string*)nullptr),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it == syms.begin()) continue;
    --it;
    const u32 off = d.pc - it->first;
    if (off > kMaxSymbolDistance) continue;
    std::ostringstream os;
    os << *it->second;
    if (off != 0) os << "+0x" << std::hex << off;
    d.where = os.str();
  }
}

std::string Report::format() const {
  std::ostringstream os;
  for (const auto& d : diags_) {
    os << severity_name(d.severity) << '[' << rule_id(d.rule) << ']';
    if (d.pc != 0) os << " pc=0x" << std::hex << d.pc << std::dec;
    if (!d.where.empty()) os << " (" << d.where << ')';
    os << ": " << d.message << '\n';
    if (!d.hint.empty()) os << "  hint: " << d.hint << '\n';
  }
  os << errors_ << " error(s), " << warnings_ << " warning(s)\n";
  return os.str();
}

}  // namespace detstl::analysis
