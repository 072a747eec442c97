#pragma once
// JSON campaign spec for the stlserve orchestrator (docs/runtime.md
// "stlserve"). A spec names WHAT to run — the campaign parameters the
// single-process tools take on their command lines — plus the default
// worker count; HOW it is supervised (respawns, hang timeout, chaos
// injection) lives in serve::ServeConfig and never enters the spec, so one
// spec file describes the same campaign on a laptop and on a fan-out host.
//
// Two campaign kinds are served:
//   "disturbance" — runtime::run_disturbance_campaign over [0, runs);
//                   unit space = run indices.
//   "fault"       — a stuck-at fault-grading campaign (fault::Campaign)
//                   over one module of core 0; unit space = the sampled
//                   fault list, partitioned by fault index exactly like
//                   tests/test_serve.cpp's range-partition contract.
//
// Example (serve::example_spec_json()):
//
//   {
//     "kind": "disturbance",
//     "seed": "0xd171",
//     "runs": 200,
//     "cores": 3,
//     "routines": ["alu", "shifter"],
//     "events": 8,
//     "permanent": 30,
//     "workers": 4
//   }
//
// Parsing is strict: unknown keys are rejected (a typo must not silently
// run a different campaign), numbers must be unsigned integers written out
// in full (no fraction, exponent, sign or overflow) and are range-checked
// with the same bounds as stlrun's flags, and `seed` accepts a non-zero
// JSON number or a hex string. The parsed spec maps 1:1 onto
// runtime::CampaignSpec via to_campaign_spec(), so `stlserve run` and
// `stlrun campaign` produce byte-identical reports for the same parameters.

#include <string>
#include <vector>

#include "runtime/campaign.h"

namespace detstl::serve {

struct ServeSpec {
  std::string kind = "disturbance";  // "disturbance" | "fault"
  u64 seed = 0xD15B0001;
  unsigned runs = 16;
  unsigned cores = 3;
  std::vector<std::string> routines;  // empty = stlrun's default mix
  unsigned events = 6;                // disturbances drawn per run
  unsigned permanent = 0;             // kFlashCorrupt chance, percent
  unsigned stall = 150;               // kBusStall burst length, cycles
  unsigned margin = 250;              // watchdog margin, percent
  unsigned attempts = 3;              // cached-rung attempts
  unsigned fallback_attempts = 2;     // uncacheable-rung attempts
  unsigned workers = 2;               // default worker-process count
  u32 checkpoint_interval = 16;       // runs between shard flushes
  /// Fault kind only (ignored by "disturbance"): the graded module and the
  /// deterministic sampling stride over the module's fault list
  /// (fault::CampaignConfig::fault_stride; 1 = exhaustive).
  std::string module = "fwd";  // fwd | hdcu | icu
  unsigned stride = 8;
};

/// Parse a JSON spec. Returns false with a one-line reason in `err`
/// (when non-null) on syntax errors, unknown keys, wrong types or
/// out-of-range values.
bool parse_spec(const std::string& json_text, ServeSpec& out, std::string* err);

/// parse_spec over the contents of the file at `path`. Throws
/// std::runtime_error when the file cannot be read.
bool load_spec_file(const std::string& path, ServeSpec& out, std::string* err);

/// Canonical JSON serialisation of a spec (round-trips through
/// parse_spec). Persisted into the work dir as campaign-spec.json so
/// `stlserve run --resume` needs no --spec.
std::string spec_to_json(const ServeSpec& spec);

/// A commented-free, runnable example spec for `stlserve print-spec`.
std::string example_spec_json();

/// The runtime::CampaignSpec this spec describes. threads, checkpoint,
/// shard range and hooks are left at their defaults — the orchestrator
/// and its workers fill those in per shard.
runtime::CampaignSpec to_campaign_spec(const ServeSpec& spec);

}  // namespace detstl::serve
