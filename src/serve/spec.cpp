#include "serve/spec.h"

#include <cstdio>
#include <stdexcept>

#include "common/json_escape.h"
#include "common/parse.h"
#include "perf/json.h"

namespace detstl::serve {

namespace {

using perf::json::Value;

/// Range-checked unsigned field; mirrors the bounds of stlrun's flags. The
/// number is read from its exact JSON text, so a fraction, an exponent, a
/// sign or a value past 64 bits is an error, never truncated or wrapped.
bool take_unsigned(const Value& v, const char* key, u64 lo, u64 hi, u64& out,
                   std::string* err) {
  if (!v.is_number() || !parse_u64(v.raw, 10, out)) {
    if (err)
      *err = std::string("spec: \"") + key + "\" must be an unsigned integer";
    return false;
  }
  if (out < lo || out > hi) {
    if (err)
      *err = std::string("spec: \"") + key + "\" out of range [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return false;
  }
  return true;
}

}  // namespace

bool parse_spec(const std::string& json_text, ServeSpec& out, std::string* err) {
  Value root;
  if (!perf::json::parse(json_text, root, err)) return false;
  if (!root.is_object()) {
    if (err) *err = "spec: top level must be an object";
    return false;
  }
  ServeSpec s;
  for (const auto& [key, v] : root.obj) {
    u64 n = 0;
    if (key == "kind") {
      if (!v.is_string() || (v.str != "disturbance" && v.str != "fault")) {
        if (err) *err = "spec: \"kind\" must be \"disturbance\" or \"fault\"";
        return false;
      }
      s.kind = v.str;
    } else if (key == "module") {
      if (!v.is_string() ||
          (v.str != "fwd" && v.str != "hdcu" && v.str != "icu")) {
        if (err) *err = "spec: \"module\" must be \"fwd\", \"hdcu\" or \"icu\"";
        return false;
      }
      s.module = v.str;
    } else if (key == "stride") {
      if (!take_unsigned(v, "stride", 1, 1024, n, err)) return false;
      s.stride = static_cast<unsigned>(n);
    } else if (key == "seed") {
      // A JSON number or a hex/decimal string ("0xd171" survives tooling
      // that would round a 64-bit number through a double). Non-zero, as
      // stlrun requires: every run seed derives from it.
      if (!(v.is_number() ? parse_u64(v.raw, 10, s.seed)
                          : v.is_string() && parse_u64(v.str, 0, s.seed))) {
        if (err)
          *err = "spec: \"seed\" must be an unsigned 64-bit integer, as a "
                 "number or a string";
        return false;
      }
      if (s.seed == 0) {
        if (err) *err = "spec: \"seed\" must be non-zero";
        return false;
      }
    } else if (key == "runs") {
      if (!take_unsigned(v, "runs", 1, 100'000, n, err)) return false;
      s.runs = static_cast<unsigned>(n);
    } else if (key == "cores") {
      if (!take_unsigned(v, "cores", 1, 3, n, err)) return false;
      s.cores = static_cast<unsigned>(n);
    } else if (key == "routines") {
      if (!v.is_array()) {
        if (err) *err = "spec: \"routines\" must be an array of strings";
        return false;
      }
      s.routines.clear();
      for (const Value& r : v.arr) {
        if (!r.is_string()) {
          if (err) *err = "spec: \"routines\" must be an array of strings";
          return false;
        }
        s.routines.push_back(r.str);
      }
    } else if (key == "events") {
      if (!take_unsigned(v, "events", 0, 1'000, n, err)) return false;
      s.events = static_cast<unsigned>(n);
    } else if (key == "permanent") {
      if (!take_unsigned(v, "permanent", 0, 100, n, err)) return false;
      s.permanent = static_cast<unsigned>(n);
    } else if (key == "stall") {
      if (!take_unsigned(v, "stall", 1, 100'000, n, err)) return false;
      s.stall = static_cast<unsigned>(n);
    } else if (key == "margin") {
      if (!take_unsigned(v, "margin", 0, 10'000, n, err)) return false;
      s.margin = static_cast<unsigned>(n);
    } else if (key == "attempts") {
      if (!take_unsigned(v, "attempts", 1, 16, n, err)) return false;
      s.attempts = static_cast<unsigned>(n);
    } else if (key == "fallback_attempts") {
      if (!take_unsigned(v, "fallback_attempts", 0, 16, n, err)) return false;
      s.fallback_attempts = static_cast<unsigned>(n);
    } else if (key == "workers") {
      if (!take_unsigned(v, "workers", 1, 64, n, err)) return false;
      s.workers = static_cast<unsigned>(n);
    } else if (key == "checkpoint_interval") {
      if (!take_unsigned(v, "checkpoint_interval", 1, 1'000'000, n, err))
        return false;
      s.checkpoint_interval = static_cast<u32>(n);
    } else {
      if (err) *err = "spec: unknown key \"" + key + "\"";
      return false;
    }
  }
  out = std::move(s);
  return true;
}

bool load_spec_file(const std::string& path, ServeSpec& out, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot read '" + path + "'");
  std::string text;
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_spec(text, out, err);
}

std::string spec_to_json(const ServeSpec& spec) {
  char seed[32];
  std::snprintf(seed, sizeof seed, "0x%llx",
                static_cast<unsigned long long>(spec.seed));
  std::string routines;
  for (std::size_t i = 0; i < spec.routines.size(); ++i)
    routines += (i == 0 ? "\"" : ", \"") +
                json_escape(spec.routines[i]) + "\"";
  std::string out = "{\n";
  out += "  \"kind\": \"" + json_escape(spec.kind) + "\",\n";
  out += "  \"seed\": \"" + std::string(seed) + "\",\n";
  out += "  \"runs\": " + std::to_string(spec.runs) + ",\n";
  out += "  \"cores\": " + std::to_string(spec.cores) + ",\n";
  out += "  \"routines\": [" + routines + "],\n";
  out += "  \"events\": " + std::to_string(spec.events) + ",\n";
  out += "  \"permanent\": " + std::to_string(spec.permanent) + ",\n";
  out += "  \"stall\": " + std::to_string(spec.stall) + ",\n";
  out += "  \"margin\": " + std::to_string(spec.margin) + ",\n";
  out += "  \"attempts\": " + std::to_string(spec.attempts) + ",\n";
  out += "  \"fallback_attempts\": " + std::to_string(spec.fallback_attempts) +
         ",\n";
  out += "  \"workers\": " + std::to_string(spec.workers) + ",\n";
  out += "  \"checkpoint_interval\": " + std::to_string(spec.checkpoint_interval) +
         ",\n";
  out += "  \"module\": \"" + json_escape(spec.module) + "\",\n";
  out += "  \"stride\": " + std::to_string(spec.stride) + "\n";
  out += "}\n";
  return out;
}

std::string example_spec_json() {
  ServeSpec s;
  s.seed = 0xD171;
  s.runs = 200;
  s.cores = 3;
  s.routines = {"alu", "shifter", "branch"};
  s.events = 8;
  s.permanent = 30;
  s.workers = 4;
  return spec_to_json(s);
}

runtime::CampaignSpec to_campaign_spec(const ServeSpec& spec) {
  runtime::CampaignSpec cs;
  cs.seed = spec.seed;
  cs.runs = spec.runs;
  cs.cores = spec.cores;
  cs.routines = spec.routines;
  cs.disturb.count = spec.events;
  cs.disturb.permanent_chance = spec.permanent / 100.0;
  cs.disturb.stall_cycles = spec.stall;
  cs.supervisor.margin_percent = spec.margin;
  cs.supervisor.max_attempts = spec.attempts;
  cs.supervisor.fallback_attempts = spec.fallback_attempts;
  return cs;
}

}  // namespace detstl::serve
