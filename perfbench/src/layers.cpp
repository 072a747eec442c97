// Per-layer measurements of the traced run. Each one calls only public
// functions of one detstl layer, inside a span named after the call, and
// reports time per operation (median of several batches) or the exact
// counters the layer keeps.

#include <algorithm>
#include <cstdio>

#include "analysis/analyzer.h"
#include "common/rng.h"
#include "core/scenario_matrix.h"
#include "isa/encoding.h"
#include "mem/cache.h"
#include "netlist/adapters.h"
#include "netlist/screening.h"
#include "scenarios.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Keeps results observable so the timed work cannot be optimised away.
volatile u64 g_sink = 0;

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Median nanoseconds per call of `op` over 5 batches of at least ~10 ms.
template <class Op>
double ns_per_op(Tracer& tracer, const char* span, Op&& op) {
  Scope s(tracer, span);
  u64 batch = 1;
  for (;;) {  // calibrate the batch size
    const auto t0 = Clock::now();
    for (u64 i = 0; i < batch; ++i) op(i);
    if (seconds_since(t0) >= 0.01 || batch >= (u64{1} << 30)) break;
    batch *= 2;
  }
  std::vector<double> ns;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (u64 i = 0; i < batch; ++i) op(i);
    ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(batch));
  }
  return median(ns);
}

/// Median milliseconds of `op` over `reps` calls.
template <class Op>
double ms_per_call(Tracer& tracer, const char* span, unsigned reps, Op&& op) {
  std::vector<double> ms;
  for (unsigned r = 0; r < reps; ++r) {
    Scope s(tracer, span);
    op();
    ms.push_back(s.close() * 1e3);
  }
  return median(ms);
}

// --- netlist hooks ----------------------------------------------------------------

/// Decorators around the fault campaign's netlist-backed module models:
/// count and time every call, and optionally record the HDCU inputs.
class TimedHazard final : public cpu::HazardModel {
 public:
  TimedHazard(const netlist::HdcuNetlist& m, std::vector<cpu::HdcuIn>* record)
      : inner_(m), record_(record) {}
  cpu::HdcuOut eval(const cpu::HdcuIn& in) override {
    if (record_ != nullptr) record_->push_back(in);
    const auto t0 = Clock::now();
    const cpu::HdcuOut out = inner_.eval(in);
    ns += (Clock::now() - t0).count();
    ++calls;
    return out;
  }
  u64 calls = 0;
  std::int64_t ns = 0;

 private:
  netlist::NetlistHazard inner_;
  std::vector<cpu::HdcuIn>* record_;
};

class TimedIcu final : public cpu::IcuModel {
 public:
  explicit TimedIcu(const netlist::IcuNetlist& m) : inner_(m) {}
  cpu::IcuOut eval(const cpu::IcuIn& in) override {
    const auto t0 = Clock::now();
    const cpu::IcuOut out = inner_.eval(in);
    ns += (Clock::now() - t0).count();
    ++calls;
    return out;
  }
  void clock(const cpu::IcuIn& in) override {
    const auto t0 = Clock::now();
    inner_.clock(in);
    ns += (Clock::now() - t0).count();
    ++calls;
  }
  void load_state(u16 state) override { inner_.load_state(state); }
  u64 calls = 0;
  std::int64_t ns = 0;

 private:
  netlist::NetlistIcu inner_;
};

/// Fault-free good runs of the 12 Table III scenarios with the graded
/// module evaluated by its gate-level netlist, as a campaign's detection
/// replicas do. Returns the HDCU inputs of core A's cached run.
std::vector<cpu::HdcuIn> hooked_good_runs(Tracer& tracer, MetricValues& m, Checks& checks) {
  const Table3Routines routines = Table3Routines::make();
  const std::vector<Table3Case> cases = build_table3_cases(routines);
  std::vector<cpu::HdcuIn> trace;
  u64 calls = 0, cycles = 0;
  std::int64_t netlist_ns = 0;
  double wall = 0;
  for (const Table3Case& c : cases) {
    soc::Soc s = c.factory()();
    s.reset();
    const auto kind = static_cast<isa::CoreKind>(c.graded);
    const netlist::HdcuNetlist hdcu(kind);
    const netlist::IcuNetlist icu(kind);
    const bool record = c.graded == 0 && c.cached && c.module == fault::Module::kHdcu;
    TimedHazard hz(hdcu, record ? &trace : nullptr);
    TimedIcu ic(icu);
    if (c.module == fault::Module::kIcu)
      s.core(c.graded).hooks().icu = &ic;
    else
      s.core(c.graded).hooks().hazard = &hz;
    {
      Scope sc(tracer, "soc.Soc.tick.hooked");
      while (!s.core(c.graded).halted() && s.now() < 20'000'000) s.tick();
      wall += sc.close();
    }
    const core::TestVerdict v = core::read_verdict(s, soc::mailbox_addr(c.graded));
    checks.expect(v.status == soc::kStatusPass,
                  "layers: netlist-hooked good run of " + c.label + " did not pass");
    calls += hz.calls + ic.calls;
    netlist_ns += hz.ns + ic.ns;
    cycles += s.now();
  }
  m.set("netlist.calls", static_cast<double>(calls));
  m.set("netlist.share", static_cast<double>(netlist_ns) * 1e-9 / wall);
  m.set("soc.ns_per_cycle.hooked", wall * 1e9 / static_cast<double>(cycles));
  return trace;
}

// --- netlist micro-benchmarks -------------------------------------------------------

template <class Module, class In>
double eval_ns(Tracer& tracer, const char* span, const Module& mod, const In& in) {
  netlist::EvalState st = mod.nl().make_state();
  mod.encode(in, st);
  return ns_per_op(tracer, span, [&](u64) {
    mod.nl().eval(st);
    g_sink = g_sink + st.value.back();
  });
}

void netlist_micro(Tracer& tracer, MetricValues& m, const std::vector<cpu::HdcuIn>& trace) {
  const netlist::HdcuNetlist hdcu(isa::CoreKind::kA);
  const netlist::IcuNetlist icu(isa::CoreKind::kA);
  const netlist::FwdNetlist fwd_a(isa::CoreKind::kA);
  const netlist::FwdNetlist fwd_c(isa::CoreKind::kC);

  cpu::HdcuIn hin;
  hin.cons[0] = {.rs = 5, .used = true};
  hin.prod[0] = {.rd = 5, .writes = true};
  cpu::IcuIn iin;
  iin.events = 0x3;
  iin.mie = 0xf;
  cpu::FwdIn fin;
  fin.port[0].rf = 0x1234'5678'9abc'def0ull;
  fin.port[0].sel = cpu::FwdSel::kExMem0;
  m.set("netlist.eval_ns.hdcu", eval_ns(tracer, "netlist.Netlist.eval.hdcu", hdcu, hin));
  m.set("netlist.eval_ns.icu", eval_ns(tracer, "netlist.Netlist.eval.icu", icu, iin));
  m.set("netlist.eval_ns.fwd_a", eval_ns(tracer, "netlist.Netlist.eval.fwd_a", fwd_a, fin));
  m.set("netlist.eval_ns.fwd_c", eval_ns(tracer, "netlist.Netlist.eval.fwd_c", fwd_c, fin));

  // Phase-1 screen: 63 faults of core A's HDCU against its recorded inputs.
  const std::vector<netlist::Fault> all = hdcu.nl().fault_list();
  const std::size_t n = std::min<std::size_t>(all.size(),
                                              netlist::LaneGroupScreen::kLanesPerGroup);
  if (trace.empty()) throw std::runtime_error("perfbench: no HDCU trace recorded");
  netlist::LaneGroupScreen screen(hdcu.nl(), hdcu.outputs(), {all.data(), n});
  m.set("netlist.screen_ns",
        ns_per_op(tracer, "netlist.LaneGroupScreen.observe", [&](u64 i) {
          hdcu.encode(trace[i % trace.size()], screen.state());
          screen.observe(static_cast<std::size_t>(i));
        }));
}

// --- SoC / CPU / memory ----------------------------------------------------------------

void soc_and_cpu(Tracer& tracer, MetricValues& m, Checks& checks) {
  const ProbeTests tests = build_probe_tests();
  std::vector<double> single_ns, triple_ns;
  ProbeRun single, triple;
  for (unsigned r = 0; r < 20; ++r) {
    {
      Scope s(tracer, "soc.Soc.run.single_cached");
      single = run_probe_single(tests);
      single_ns.push_back(s.close() * 1e9 / static_cast<double>(single.cycles));
    }
    {
      Scope s(tracer, "soc.Soc.run.triple_contended");
      triple = run_probe_triple(tests);
      triple_ns.push_back(s.close() * 1e9 / static_cast<double>(triple.cycles));
    }
  }
  checks.expect(single.verdicts.size() == 2 && single.verdicts[0] == soc::kStatusPass,
                "layers: probe single-core run did not pass");
  m.set("soc.ns_per_cycle.single_cached", median(single_ns));
  m.set("soc.ns_per_cycle.triple_contended", median(triple_ns));

  // Counters of the contended run: pipeline, caches and the shared bus.
  u64 instret = 0, decodes = 0, if_stalls = 0, mem_stalls = 0;
  const char* ipc_names[3] = {"cpu.ipc.a", "cpu.ipc.b", "cpu.ipc.c"};
  for (unsigned c = 0; c < 3; ++c) {
    const cpu::PerfCounters& p = triple.soc.core(c).perf();
    m.set(ipc_names[c], static_cast<double>(p.instret) / static_cast<double>(p.cycles));
    instret += p.instret;
    decodes += p.decodes;
    if_stalls += p.if_stalls;
    mem_stalls += p.mem_stalls;
  }
  m.set("cpu.if_stalls", static_cast<double>(if_stalls));
  m.set("cpu.mem_stalls", static_cast<double>(mem_stalls));
  m.set("cpu.decodes_per_instret", static_cast<double>(decodes) / static_cast<double>(instret));

  // Cache hit ratios over both probe runs (the contended run's plain
  // routines leave the caches off, so the cached run dominates).
  u64 ih = 0, im = 0, dh = 0, dm = 0;
  for (const soc::Soc* s : {&single.soc, &triple.soc}) {
    for (unsigned c = 0; c < s->num_cores(); ++c) {
      ih += s->core(c).memsys().icache().stats().hits;
      im += s->core(c).memsys().icache().stats().misses;
      dh += s->core(c).memsys().dcache().stats().hits;
      dm += s->core(c).memsys().dcache().stats().misses;
    }
  }
  m.set("mem.icache.hit_ratio", static_cast<double>(ih) / static_cast<double>(std::max<u64>(1, ih + im)));
  m.set("mem.dcache.hit_ratio", static_cast<double>(dh) / static_cast<double>(std::max<u64>(1, dh + dm)));
  u64 wait = 0, max_wait = 0, occupancy = 0;
  for (unsigned id = 0; id < mem::kMaxBusRequesters; ++id) {
    const mem::BusStats& b = triple.soc.bus().stats(id);
    wait += b.wait_cycles;
    max_wait = std::max(max_wait, b.max_wait_cycles);
    occupancy += b.occupancy_cycles;
  }
  m.set("mem.bus.wait_cycles", static_cast<double>(wait));
  m.set("mem.bus.max_wait_cycles", static_cast<double>(max_wait));
  m.set("mem.bus.occupancy_ratio",
        static_cast<double>(occupancy) / static_cast<double>(triple.soc.bus().now()));

  // Checkpoint restore: one Soc value copy mid-run.
  soc::Soc mid;
  mid.load_program(tests.cached.prog);
  mid.set_boot(0, tests.cached.prog.entry());
  mid.reset();
  for (int i = 0; i < 1000; ++i) mid.tick();
  m.set("soc.copy_us", 1e-3 * ns_per_op(tracer, "soc.Soc.copy", [&](u64) {
                         const soc::Soc copy = mid;
                         g_sink = g_sink + copy.now();
                       }));

  // Decoder over the cached routine's image, word by word.
  std::vector<u32> words;
  for (const isa::Segment& seg : tests.cached.prog.segments())
    for (std::size_t i = 0; i + 4 <= seg.bytes.size(); i += 4)
      words.push_back(static_cast<u32>(seg.bytes[i]) | static_cast<u32>(seg.bytes[i + 1]) << 8 |
                      static_cast<u32>(seg.bytes[i + 2]) << 16 |
                      static_cast<u32>(seg.bytes[i + 3]) << 24);
  m.set("isa.decode_ns", ns_per_op(tracer, "isa.decode", [&](u64 i) {
          g_sink = g_sink + isa::decode(words[i % words.size()]).raw;
        }));

  // Cache lookup: an 8 KiB resident footprint probed over 12 KiB, so about
  // two thirds of the lookups hit.
  mem::Cache cache(mem::CacheConfig{.size_bytes = 8192, .ways = 2, .line_bytes = 32});
  const std::vector<u32> beats(8, 0);
  for (u32 a = 0; a < 8192; a += 32) cache.fill(mem::kFlashBase + a, beats);
  Rng rng(7);
  std::vector<u32> addrs(4096);
  for (u32& a : addrs) a = mem::kFlashBase + static_cast<u32>(rng.below(12288 / 4) * 4);
  m.set("mem.cache_lookup_ns", ns_per_op(tracer, "mem.Cache.lookup", [&](u64 i) {
          g_sink = g_sink + cache.lookup(addrs[i % addrs.size()]);
        }));
}

// --- core / analysis -------------------------------------------------------------------

void core_and_analysis(Tracer& tracer, MetricValues& m, bool matrix_cells) {
  const auto routine = core::make_fwd_test(false);
  core::BuildEnv env = core::quickstart_env(0, true);
  env.lint = core::LintMode::kOff;
  core::BuiltTest bt;
  m.set("core.build_ms", ms_per_call(tracer, "core.build_wrapped", 5, [&] {
          bt = core::build_wrapped(*routine, core::WrapperKind::kCacheBased, env);
        }));
  const analysis::AnalysisConfig acfg =
      core::lint_config(*routine, core::WrapperKind::kCacheBased, env);
  m.set("analysis.lint_ms", ms_per_call(tracer, "analysis.analyze", 5, [&] {
          g_sink = g_sink + analysis::analyze(bt.prog, acfg).diagnostics().size();
        }));
  if (!matrix_cells) return;
  std::vector<double> cell_ms;
  for (const core::MatrixPoint& p : core::default_matrix_grid()) {
    Scope s(tracer, "core.run_matrix.cell");
    g_sink = g_sink + core::run_matrix({p}, {}).proven_configurations();
    cell_ms.push_back(s.close() * 1e3);
  }
  m.set("analysis.matrix_cell_ms.p50", percentile(cell_ms, 0.5));
  m.set("analysis.matrix_cell_ms.p90", percentile(cell_ms, 0.9));
}

}  // namespace

Checks measure_layers(Tracer& tracer, MetricValues& layers, bool matrix_cells) {
  Checks checks;
  Scope s(tracer, "layers");
  const std::vector<cpu::HdcuIn> trace = hooked_good_runs(tracer, layers, checks);
  netlist_micro(tracer, layers, trace);
  soc_and_cpu(tracer, layers, checks);
  core_and_analysis(tracer, layers, matrix_cells);
  return checks;
}

}  // namespace perfbench
