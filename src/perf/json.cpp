#include "perf/json.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace detstl::perf::json {

const Value* Value::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj)
    if (k == key) return &v;
  return nullptr;
}

std::optional<u64> Value::as_u64() const {
  if (type != Type::kNumber) return std::nullopt;
  u64 v = 0;
  const char* end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string* err;
  int depth = 0;

  bool fail(const char* what) {
    if (err != nullptr && err->empty())
      *err = std::string(what) + " at byte " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r'))
      ++pos;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text.compare(pos, n, lit) != 0) return fail("bad literal");
    pos += n;
    return true;
  }

  bool parse_string(std::string& out) {
    if (pos >= text.size() || text[pos] != '"') return fail("expected string");
    ++pos;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        if (pos + 1 >= text.size()) return fail("truncated escape");
        const char e = text[pos + 1];
        pos += 2;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            // Exactly four hex digits: from_chars takes no sign, space or
            // 0x prefix, and a short read is an error, not a stop.
            unsigned cp = 0;
            const char* hex = text.data() + pos;
            const auto [end, ec] = std::from_chars(hex, hex + 4, cp, 16);
            if (ec != std::errc{} || end != hex + 4)
              return fail("\\u escape needs four hex digits");
            pos += 4;
            // Emitter only produces \u00XX control escapes; anything in the
            // BMP is decoded to UTF-8 for robustness.
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default: return fail("unknown escape");
        }
        continue;
      }
      out += c;
      ++pos;
    }
    return fail("unterminated string");
  }

  bool parse_value(Value& out) {
    if (++depth > 64) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    bool ok = false;
    if (c == '{') {
      ok = parse_object(out);
    } else if (c == '[') {
      ok = parse_array(out);
    } else if (c == '"') {
      out.type = Value::Type::kString;
      ok = parse_string(out.str);
    } else if (c == 't') {
      out.type = Value::Type::kBool;
      out.boolean = true;
      ok = literal("true");
    } else if (c == 'f') {
      out.type = Value::Type::kBool;
      out.boolean = false;
      ok = literal("false");
    } else if (c == 'n') {
      out.type = Value::Type::kNull;
      ok = literal("null");
    } else {
      ok = parse_number(out);
    }
    --depth;
    return ok;
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-'))
      ++pos;
    if (pos == start) return fail("expected value");
    out.type = Value::Type::kNumber;
    out.raw = text.substr(start, pos - start);
    char* end = nullptr;
    out.number = std::strtod(out.raw.c_str(), &end);
    if (end != out.raw.c_str() + out.raw.size()) return fail("bad number");
    return true;
  }

  bool parse_array(Value& out) {
    out.type = Value::Type::kArray;
    ++pos;  // '['
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      Value v;
      if (!parse_value(v)) return false;
      out.arr.push_back(std::move(v));
      skip_ws();
      if (pos >= text.size()) return fail("unterminated array");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == ']') {
        ++pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Value& out) {
    out.type = Value::Type::kObject;
    ++pos;  // '{'
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') return fail("expected ':'");
      ++pos;
      Value v;
      if (!parse_value(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos >= text.size()) return fail("unterminated object");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == '}') {
        ++pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

}  // namespace

bool parse(const std::string& text, Value& out, std::string* err) {
  if (err != nullptr) err->clear();
  Parser p{text, 0, err};
  if (!p.parse_value(out)) return false;
  p.skip_ws();
  if (p.pos != text.size()) return p.fail("trailing garbage");
  return true;
}

}  // namespace detstl::perf::json
