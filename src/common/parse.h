#pragma once
// Strict unsigned-integer parsing, shared by the command-line front ends
// (tools/cli_util.h) and the stlserve JSON spec (serve/spec.cpp).

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

#include "common/bitutil.h"

namespace detstl {

/// Parse all of `text` as an unsigned 64-bit integer in `base` (0 = C
/// prefixes: 0x hex, leading-0 octal). False when `text` does not start
/// with a digit (empty, a sign, a space), has trailing characters such as a
/// fraction or an exponent, or overflows: a value is never truncated,
/// wrapped or saturated.
inline bool parse_u64(const std::string& text, int base, u64& out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
    return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, base);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace detstl
