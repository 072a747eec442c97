#pragma once
// JSON string escaping shared by every emitter (stlperf reports, stlserve
// specs, stlint --json and SARIF logs): quote, backslash, newline, tab and
// carriage return get their short escapes, other control bytes \u00XX.

#include <cstdio>
#include <string>

namespace detstl {

/// Escape `s` for embedding into a JSON string literal (quotes not included).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace detstl
