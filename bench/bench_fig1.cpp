// Figure 1 reproduction: the forwarding path between two dependent adds,
// excited in cache-resident execution, degraded by flash latency in
// single-core no-cache execution, and broken entirely under triple-core
// contention. Prints the pipeline diagrams (I=issue E=EX M=MEM W=WB,
// '-' = stall bubble).

#include "bench_util.h"
#include "exp/experiments.h"

int main(int argc, char** argv) {
  using namespace detstl;
  bench::parse_options(argc, argv, /*groups=*/0);
  bench::print_header(
      "Figure 1 (forwarding path vs broken forwarding path)",
      "Fig 1a: consumer enters EX 1 cycle after producer (EX->EX path); "
      "Fig 1b: multi-core stalls delay it past the forwarding window");

  const exp::Fig1Result r = exp::run_fig1();

  std::printf("\n--- cache-resident execution (proposed strategy) ---\n%s",
              r.trace_cached.c_str());
  std::printf("producer->consumer EX distance: %llu cycle(s)%s\n",
              static_cast<unsigned long long>(r.ex_distance_cached),
              r.ex_distance_cached == 1 ? "  [EX->EX path excited]" : "");

  std::printf("\n--- single core, no caches (flash latency) ---\n%s",
              r.trace_single_core.c_str());
  std::printf("producer->consumer EX distance: %llu cycle(s)%s\n",
              static_cast<unsigned long long>(r.ex_distance_single),
              r.ex_distance_single == 2 ? "  [only the MEM-level path excited]" : "");

  std::printf("\n--- three cores, no caches (bus contention, Fig 1b) ---\n%s",
              r.trace_triple_core.c_str());
  std::printf("producer->consumer EX distance: %llu cycle(s)  [forwarding broken,\n"
              " consumer reads the register file]\n",
              static_cast<unsigned long long>(r.ex_distance_triple));

  // Fig 1a (path excited): both the cache-resident run and the quiet
  // single-core run deliver the consumer right behind the producer (the
  // flash controller's line buffer keeps an undisturbed stream fast).
  // Fig 1b (path broken): triple-core contention pushes the consumer far
  // past every forwarding window.
  const bool shape_ok = r.ex_distance_cached == 1 && r.ex_distance_single <= 2 &&
                        r.ex_distance_triple > 4;
  std::printf("\nshape check (path excited alone, broken by contention): %s\n",
              shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
