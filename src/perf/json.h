#pragma once
// Minimal JSON value model + recursive-descent parser, enough to read back
// the stlperf reports this library emits (objects, arrays, strings with the
// escapes the emitter produces, numbers, booleans, null). Numbers keep their
// raw text so u64 counters round-trip exactly — a double would truncate
// above 2^53.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitutil.h"

namespace detstl::perf::json {

struct Value {
  enum class Type : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string raw;  // exact number text (Type::kNumber only)
  std::string str;
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;  // insertion order preserved

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Exact u64 from the raw number text: only a plain non-negative decimal
  /// integer that fits in 64 bits, else nullopt (a sign, a fraction or an
  /// exponent is never read as a count).
  std::optional<u64> as_u64() const;
  double as_double() const { return number; }
};

/// Parse `text` into `out`. On failure returns false and, when `err` is
/// non-null, stores a one-line reason with the byte offset.
bool parse(const std::string& text, Value& out, std::string* err = nullptr);

}  // namespace detstl::perf::json
