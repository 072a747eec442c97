#include "analysis/sarif.h"

#include <cstdio>
#include <sstream>

#include "common/json_escape.h"
#include "common/version.h"

namespace detstl::analysis {

namespace {

const char* sarif_level(Severity s) {
  switch (s) {
    case Severity::kInfo: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "none";
}

}  // namespace

std::string to_sarif(const std::vector<SarifTarget>& targets) {
  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n    {\n"
     << "      \"tool\": {\n        \"driver\": {\n"
     << "          \"name\": \"stlint\",\n"
     << "          \"version\": \"" << kDetstlVersion << "\",\n"
     << "          \"informationUri\": "
        "\"https://example.invalid/detstl/docs/static_analysis.md\",\n"
     << "          \"rules\": [\n";
  bool first = true;
  for (const Rule r : rule_catalogue()) {
    if (!first) os << ",\n";
    first = false;
    os << "            {\"id\": \"" << rule_id(r)
       << "\", \"shortDescription\": {\"text\": \"" << rule_id(r)
       << " (see docs/static_analysis.md)\"}}";
  }
  os << "\n          ]\n        }\n      },\n"
     << "      \"results\": [\n";
  first = true;
  for (const auto& t : targets) {
    if (!t.report) continue;
    for (const auto& d : t.report->diagnostics()) {
      if (!first) os << ",\n";
      first = false;
      char pc[16];
      std::snprintf(pc, sizeof pc, "0x%08x", d.pc);
      std::string text = "[" + t.name + "] " + d.message;
      if (!d.hint.empty()) text += " — hint: " + d.hint;
      os << "        {\n"
         << "          \"ruleId\": \"" << rule_id(d.rule) << "\",\n"
         << "          \"level\": \"" << sarif_level(d.severity) << "\",\n"
         << "          \"message\": {\"text\": \"" << json_escape(text)
         << "\"},\n"
         << "          \"locations\": [\n            {\n"
         << "              \"physicalLocation\": {\n"
         << "                \"artifactLocation\": {\"uri\": "
            "\"src/core/routines.h\"},\n"
         << "                \"region\": {\"startLine\": 1}\n"
         << "              },\n"
         << "              \"logicalLocations\": [\n"
         << "                {\"name\": \""
         << json_escape(d.where.empty() ? pc : d.where)
         << "\", \"fullyQualifiedName\": \"" << json_escape(t.name) << "@"
         << pc
         << "\"}\n"
         << "              ]\n            }\n          ]\n        }";
    }
  }
  os << (first ? "" : "\n") << "      ]\n    }\n  ]\n}\n";
  return os.str();
}

}  // namespace detstl::analysis
