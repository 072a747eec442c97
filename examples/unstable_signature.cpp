// The problem the paper solves, made visible: the same self-test routine,
// executed the legacy way (no caches) in a multi-core SoC, produces a
// different signature on every SoC configuration — so the in-field check
// against the golden value fails even though the hardware is fault-free.
// The cache-based wrapper produces one bit-identical signature everywhere.
//
//   $ ./examples/unstable_signature

#include <cstdio>
#include <set>

#include "core/routines.h"
#include "core/stl.h"

namespace {

using namespace detstl;

core::BuiltTest build(const core::SelfTestRoutine& r, core::WrapperKind w, unsigned c) {
  core::BuildEnv env;
  env.core_id = c;
  env.kind = static_cast<isa::CoreKind>(c);
  env.code_base = mem::kFlashBase + 0x2000 + c * 0x40000;
  env.data_base = core::default_data_base(c);
  env.use_perf_counters = true;
  return core::build_wrapped(r, w, env);
}

/// True when every stagger ran to completion, passed and produced one
/// signature.
bool sweep(const char* title, core::WrapperKind w) {
  const auto routine = core::make_fwd_test(true);
  std::vector<core::BuiltTest> tests;
  for (unsigned c = 0; c < 3; ++c) tests.push_back(build(*routine, w, c));

  std::printf("\n--- %s (golden 0x%08x) ---\n", title, tests[0].golden);
  std::set<u32> sigs;
  unsigned passes = 0, runs = 0, timeouts = 0;
  for (const auto& stagger : {std::array<u32, 3>{0, 0, 0}, {0, 3, 7}, {5, 0, 2},
                              {1, 9, 4}, {12, 2, 6}}) {
    soc::SocConfig cfg;
    cfg.start_delay = stagger;
    soc::Soc soc(cfg);
    for (const auto& t : tests) {
      soc.load_program(t.prog);
      soc.set_boot(t.env.core_id, t.prog.entry());
    }
    soc.reset();
    if (soc.run(20'000'000).timed_out) {
      ++timeouts;
      continue;
    }
    const auto v = core::read_verdict(soc, soc::mailbox_addr(0));
    sigs.insert(v.signature);
    ++runs;
    if (v.status == soc::kStatusPass) ++passes;
    std::printf("  stagger {%2u,%2u,%2u}: signature 0x%08x -> %s\n", stagger[0],
                stagger[1], stagger[2], v.signature,
                v.status == soc::kStatusPass ? "PASS" : "FAIL (mismatch!)");
  }
  std::printf("  %u distinct signature(s) across %u runs, %u/%u passed\n",
              static_cast<unsigned>(sigs.size()), runs, passes, runs);
  return timeouts == 0 && passes == runs && sigs.size() == 1;
}

}  // namespace

int main() {
  std::printf("core A runs the HDCU self-test [19] while cores B and C run\n"
              "their own copies — the paper's multi-core boot-test scenario.\n");
  sweep("legacy structure, no caches (paper Sec. II)", core::WrapperKind::kPlain);
  const bool stable =
      sweep("cache-based strategy (paper Sec. III)", core::WrapperKind::kCacheBased);
  std::printf("\nThe legacy structure cannot tell these mismatches from real"
              "\nhardware faults; the cache-based strategy can.\n");
  if (!stable) std::printf("unexpected failure: the cache-based signature varied\n");
  return stable ? 0 : 1;
}
