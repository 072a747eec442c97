// Quickstart: build the triple-core SoC, wrap a self-test routine with the
// paper's cache-based strategy, run it on all three cores in parallel, and
// show that every core reports a PASS with the expected (golden) signature —
// the determinism that plain multi-core execution cannot deliver.
//
//   $ ./examples/quickstart [--trace FILE]
//
// With --trace, every bus/cache/phase event of the run is captured and
// written as Chrome-trace JSON (load it in Perfetto; docs/observability.md).

#include <cstdio>
#include <cstring>

#include "core/routines.h"
#include "core/stl.h"
#include "trace/chrome_trace.h"

int main(int argc, char** argv) {
  using namespace detstl;

  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--trace FILE]\n", argv[0]);
      return 2;
    }
  }

  // 1. A self-test routine targeting the hazard detection unit (the
  //    algorithm of [19], with performance counters in the signature).
  const auto routine = core::make_fwd_test(/*with_perf_counters=*/true);

  // 2. Wrap it per core with the cache-based strategy (Fig. 2b): invalidate
  //    the private caches, run the body twice — the loading loop pulls the
  //    code/data into the caches, the execution loop computes the checked
  //    signature fully decoupled from the shared bus. build_wrapped also
  //    calibrates the golden signature on an isolated fault-free run.
  std::vector<core::BuiltTest> tests;
  for (unsigned c = 0; c < 3; ++c) {
    core::BuildEnv env;
    env.core_id = c;
    env.kind = static_cast<isa::CoreKind>(c);  // cores A, B and the 64-bit C
    env.code_base = mem::kFlashBase + 0x2000 + c * 0x40000;
    env.data_base = core::default_data_base(c);
    env.use_perf_counters = true;
    tests.push_back(core::build_wrapped(*routine, core::WrapperKind::kCacheBased, env));
    std::printf("core %c: routine '%s' wrapped, %u bytes of code, golden 0x%08x\n",
                'A' + c, tests[c].name.c_str(), tests[c].code_bytes, tests[c].golden);
  }

  // 3. Run all three cores in parallel with skewed resets (worst-case bus
  //    contention during the loading loops).
  soc::SocConfig cfg;
  cfg.start_delay = {0, 3, 7};
  soc::Soc soc(cfg);
  for (const auto& t : tests) {
    soc.load_program(t.prog);
    soc.set_boot(t.env.core_id, t.prog.entry());
  }
  trace::ChromeTraceWriter writer;
  if (trace_path != nullptr) soc.set_trace_sink(&writer);
  soc.reset();
  const auto res = soc.run(10'000'000);
  if (res.timed_out) {
    std::printf("watchdog expired!\n");
    return 1;
  }

  // 4. Collect the verdicts from the shared-SRAM mailboxes.
  bool all_pass = true;
  for (unsigned c = 0; c < 3; ++c) {
    const auto v = core::read_verdict(soc, soc::mailbox_addr(c));
    const bool pass = v.status == soc::kStatusPass && v.signature == tests[c].golden;
    all_pass &= pass;
    std::printf("core %c: %s  signature 0x%08x (expected 0x%08x)  [%llu cycles]\n",
                'A' + c, pass ? "PASS" : "FAIL", v.signature, tests[c].golden,
                static_cast<unsigned long long>(soc.core(c).perf().cycles));
  }
  std::printf("%s\n", all_pass
                          ? "deterministic multi-core self-test: all cores PASS"
                          : "unexpected failure");

  if (trace_path != nullptr) {
    if (!writer.write_file(trace_path)) {
      std::fprintf(stderr, "error: cannot write trace file %s\n", trace_path);
      return 1;
    }
    std::printf("trace written to %s (%zu events)\n", trace_path, writer.size());
  }
  return all_pass ? 0 : 1;
}
