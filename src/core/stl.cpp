#include "core/stl.h"

#include <stdexcept>

#include "core/routines.h"

namespace detstl::core {

using namespace isa;

namespace {

/// Phase barrier: atomically announce arrival, then spin (uncached) until
/// every core of the phase has arrived. Counters are monotonic, one per
/// phase, so no reset/reuse races exist.
void emit_barrier(Assembler& a, unsigned barrier_cores, unsigned phase,
                  const std::string& lbl) {
  a.csrw(Csr::kCacheCfg, R0);  // spin uncached; L1s are not coherent
  a.li(R1, kDefaultBarrierBase + 4 * phase);
  a.addi(R2, R0, 1);
  a.amoadd(R3, R1, R2);
  a.li(R4, static_cast<u32>(barrier_cores));
  a.label(lbl);
  a.lw(R3, R1, 0);
  a.bltu(R3, R4, lbl);
}

Program assemble_suite(const SuiteSpec& spec, const std::vector<u32>& goldens,
                       unsigned barrier_cores) {
  Assembler a(spec.env.code_base);
  a.label("main");
  a.set_entry("main");

  // Calls first, bodies after: `jal` has a ±1 MiB range, sufficient here.
  for (unsigned i = 0; i < spec.routines.size(); ++i) {
    a.jal(R31, "routine" + std::to_string(i));
    if (spec.barriers) emit_barrier(a, barrier_cores, i, "barwait" + std::to_string(i));
  }
  a.halt();

  for (unsigned i = 0; i < spec.routines.size(); ++i) {
    BuildEnv env = spec.env;
    env.as_subroutine = true;
    env.mailbox = default_results_base(spec.env.core_id) + 8 * i;
    a.align(8);
    a.label("routine" + std::to_string(i));
    emit_wrapped(a, *spec.routines[i], spec.wrapper, env, goldens[i],
                 "r" + std::to_string(i));
  }
  return a.assemble();
}

}  // namespace

BuiltSuite build_suite(const SuiteSpec& spec) {
  // Pass 1: placeholder goldens, fault-free isolated run (barriers pass with
  // a single arrival).
  std::vector<u32> goldens(spec.routines.size(), 0);
  const Program p0 = assemble_suite(spec, goldens, 1);

  soc::Soc soc;
  soc.load_program(p0);
  soc.set_boot(spec.env.core_id, p0.entry());
  soc.reset();
  const auto res = soc.run(20'000'000);
  if (res.timed_out) throw std::runtime_error("suite calibration timed out");

  BuiltSuite out;
  out.results_base = default_results_base(spec.env.core_id);
  out.calib_cycles = res.cycles;
  for (unsigned i = 0; i < spec.routines.size(); ++i) {
    goldens[i] = soc.debug_read32(out.results_base + 8 * i + 4);
    out.goldens.push_back(goldens[i]);
    out.names.push_back(spec.routines[i]->name());
  }

  out.prog = assemble_suite(spec, goldens, spec.barrier_cores);
  u32 hi = spec.env.code_base;
  for (const auto& seg : out.prog.segments()) hi = std::max(hi, seg.end());
  out.code_bytes = hi - spec.env.code_base;
  return out;
}

std::vector<TestVerdict> read_suite_verdicts(const soc::Soc& soc,
                                             const BuiltSuite& suite) {
  std::vector<TestVerdict> v;
  for (unsigned i = 0; i < suite.goldens.size(); ++i)
    v.push_back(read_verdict(soc, suite.results_base + 8 * i));
  return v;
}

const std::vector<RoutineEntry>& routine_registry() {
  static const std::vector<RoutineEntry> kRoutines = {
      {"alu", [] { return make_alu_test(); }},
      {"rf-march", [] { return make_rf_march_test(); }},
      {"shifter", [] { return make_shifter_test(); }},
      {"branch", [] { return make_branch_test(); }},
      {"muldiv", [] { return make_muldiv_test(); }},
      {"fwd", [] { return make_fwd_test(false); }},
      {"fwd-pc", [] { return make_fwd_test(true); }},
      {"icu", [] { return make_icu_test(); }},
  };
  return kRoutines;
}

const RoutineEntry* find_routine(const std::string& name) {
  for (const auto& e : routine_registry())
    if (name == e.name) return &e;
  return nullptr;
}

}  // namespace detstl::core
