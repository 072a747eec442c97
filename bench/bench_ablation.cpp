// Ablations of the methodology's design rules (DESIGN.md experiment index):
//
//  A. Loading-loop count (paper Sec. III step 1): 1 iteration (no loading
//     loop) leaves the measured pass exposed to refill timing -> the
//     PC-based signature destabilises across scenarios; 2 iterations are
//     sufficient; 3 add nothing.
//  B. No-write-allocate dummy-load rule (Sec. III step 1): with the rule the
//     signature is stable; without it, execution-loop stores keep missing
//     and the signature destabilises.
//  C. Cache-fitting rule (Sec. III step 2.2): a routine larger than the
//     I-cache is rejected and must be split; the two halves each pass with
//     stable signatures.

#include <set>

#include "bench_util.h"
#include "core/routines.h"
#include "exp/experiments.h"

namespace {

using namespace detstl;
using core::BuildEnv;
using core::BuiltTest;
using core::WrapperKind;

struct StabilityResult {
  unsigned distinct_signatures = 0;
  unsigned passes = 0;
  unsigned runs = 0;
};

/// Run the HDCU routine (with PCs — the determinism-sensitive variant) under
/// the cache wrapper with `mutate` applied to every core's BuildEnv, across
/// contended scenarios; count distinct signatures and passes. With
/// `busy_noise`, cores 1 and 2 run the plain (uncached) routine and keep the
/// bus saturated — the regime where a residual execution-loop bus access
/// (e.g. a store miss) picks up variable latency.
template <typename Mutate>
StabilityResult stability(const core::SelfTestRoutine& r, Mutate mutate,
                          bool busy_noise = false) {
  StabilityResult res;
  std::set<u32> sigs;
  for (const auto& stagger :
       {std::array<u32, 3>{0, 3, 7}, {5, 0, 2}, {1, 9, 4}, {11, 6, 0}}) {
    exp::Scenario sc{3, stagger, 0, 0, "abl"};
    std::vector<BuiltTest> tests;
    bool built = true;
    for (unsigned c = 0; c < 3; ++c) {
      BuildEnv env;
      env.core_id = c;
      env.kind = static_cast<isa::CoreKind>(c);
      env.code_base = mem::kFlashBase + 0x2000 + c * 0x40000;
      env.data_base = core::default_data_base(c);
      env.use_perf_counters = true;
      mutate(env);
      const WrapperKind w =
          busy_noise && c != 0 ? WrapperKind::kPlain : WrapperKind::kCacheBased;
      try {
        tests.push_back(core::build_wrapped(r, w, env));
      } catch (const std::exception&) {
        built = false;
        break;
      }
    }
    if (!built) continue;
    soc::Soc s = exp::scenario_factory(tests, sc, 0)();
    s.reset();
    const auto run = s.run(20'000'000);
    if (run.timed_out) continue;
    const auto v = core::read_verdict(s, soc::mailbox_addr(0));
    ++res.runs;
    if (v.status == soc::kStatusPass) ++res.passes;
    sigs.insert(v.signature);
  }
  res.distinct_signatures = static_cast<unsigned>(sigs.size());
  return res;
}

void print_row(TextTable& t, const char* variant, const StabilityResult& r) {
  t.row({variant, std::to_string(r.distinct_signatures),
         std::to_string(r.passes) + "/" + std::to_string(r.runs)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace detstl;
  const auto opts = bench::parse_options(argc, argv, bench::kMetrics);
  bench::print_header("Methodology ablations (design rules of Sec. III)",
                      "not a paper exhibit: validates each rule's necessity");
  const auto routine = core::make_fwd_test(/*with_perf_counters=*/true);
  perf::Session session("ablation");
  bool ok = true;

  {
    TextTable t("A. Loading-loop iterations (cache-based wrapper, PC signature, "
                "4 contended scenarios)");
    t.header({"variant", "distinct signatures", "self-test verdicts PASS"});
    const auto one = stability(*routine, [](BuildEnv& e) { e.cache_loop_iterations = 1; });
    const auto two = stability(*routine, [](BuildEnv&) {});
    const auto three =
        stability(*routine, [](BuildEnv& e) { e.cache_loop_iterations = 3; });
    print_row(t, "1 iteration (no loading loop)", one);
    print_row(t, "2 iterations (paper)", two);
    print_row(t, "3 iterations", three);
    t.print();
    ok &= one.distinct_signatures > 1 || one.passes < one.runs;
    ok &= two.distinct_signatures == 1 && two.passes == two.runs;
    ok &= three.distinct_signatures == 1 && three.passes == three.runs;
  }
  session.mark_phase("loading_loop");

  {
    TextTable t("B. No-write-allocate dummy-load rule");
    t.header({"variant", "distinct signatures", "self-test verdicts PASS"});
    const auto wa = stability(*routine, [](BuildEnv&) {}, /*busy_noise=*/true);
    const auto nwa_fix = stability(
        *routine, [](BuildEnv& e) { e.write_allocate = false; }, /*busy_noise=*/true);
    const auto nwa_broken = stability(
        *routine,
        [](BuildEnv& e) {
          e.write_allocate = false;
          e.omit_nwa_dummy_loads = true;
        },
        /*busy_noise=*/true);
    print_row(t, "write-allocate", wa);
    print_row(t, "no-write-allocate + dummy loads (paper)", nwa_fix);
    print_row(t, "no-write-allocate, rule omitted", nwa_broken);
    t.print();
    ok &= wa.distinct_signatures == 1 && wa.passes == wa.runs;
    ok &= nwa_fix.distinct_signatures == 1 && nwa_fix.passes == nwa_fix.runs;
    ok &= nwa_broken.distinct_signatures > 1 || nwa_broken.passes < nwa_broken.runs;
  }
  session.mark_phase("nwa_rule");

  {
    TextTable t("C. Cache-fitting rule (Sec. III step 2.2)");
    t.header({"variant", "outcome", ""});
    // Oversize the routine far beyond the 8 KiB I-cache.
    BuildEnv env;
    env.core_id = 2;
    env.kind = isa::CoreKind::kC;
    env.patterns = 6;
    bool rejected = false;
    std::string msg;
    try {
      // Shrink the modelled I-cache? No: use the real limit — core C with all
      // six patterns overflows 8 KiB.
      core::build_wrapped(*core::make_fwd_test(true), WrapperKind::kCacheBased, env);
    } catch (const isa::AsmError& e) {
      rejected = true;
      msg = e.what();
    }
    t.row({"6-pattern core-C routine", rejected ? "rejected (must be split)" : "fit",
           ""});
    // The split halves: 3 patterns each, both fit and pass.
    BuildEnv half = env;
    half.patterns = 3;
    bool halves_ok = true;
    try {
      const auto bt = core::build_wrapped(*core::make_fwd_test(true),
                                          WrapperKind::kCacheBased, half);
      soc::Soc s;
      s.load_program(bt.prog);
      s.set_boot(2, bt.prog.entry());
      s.reset();
      s.run(10'000'000);
      halves_ok = core::read_verdict(s, soc::mailbox_addr(2)).status == soc::kStatusPass;
    } catch (const std::exception&) {
      halves_ok = false;
    }
    t.row({"3-pattern halves", halves_ok ? "fit and PASS" : "FAILED", ""});
    t.print();
    if (rejected) std::printf("rejection message: %s\n", msg.c_str());
    ok &= rejected && halves_ok;
  }
  session.mark_phase("cache_fitting");

  std::printf("\nablation checks: %s\n", ok ? "OK" : "MISMATCH");
  return session.finish(opts.metrics_out, ok ? 0 : 1);
}
