// detscope — unified observability CLI for the deterministic-STL simulator.
//
// Commands:
//   run            execute the quickstart scenario (cache-wrapped routine on
//                  up to 3 cores) with tracing on; print per-phase metrics,
//                  per-requester bus statistics and the determinism
//                  invariant verdict; optionally write a Chrome-trace JSON
//                  (--trace FILE, loadable in Perfetto / chrome://tracing).
//   audit          dynamic determinism audit: the graded core's
//                  execution-loop event stream must be byte-identical solo
//                  and under full bus contention (trace/audit.h).
//   campaign-audit fault-campaign determinism: event stream and outcome
//                  vector must be byte-identical for every worker-thread
//                  count.
//   metrics        execute the quickstart scenario and dump the full stlperf
//                  metrics registry (per-phase event counters, per-core
//                  pipeline counters, cache and bus statistics, sim totals,
//                  host usage) as one stlperf-schema JSON document
//                  (src/perf/perf_report.h).
//
// Exit codes: 0 = pass, 1 = a check failed, 2 = usage/build error.

#include <cstdio>
#include <string>
#include <vector>

#include "cli_util.h"
#include "common/table.h"
#include "core/routines.h"
#include "core/stl.h"
#include "exp/experiments.h"
#include "perf/session.h"
#include "trace/audit.h"
#include "trace/chrome_trace.h"
#include "trace/phase_metrics.h"
#include "trace/trace_io.h"

namespace {

using namespace detstl;

void usage(std::FILE* os) {
  std::fprintf(
      os,
      "detscope — event tracing, per-phase metrics and determinism audits\n"
      "\n"
      "usage:\n"
      "  detscope run [--routine NAME] [--cores N] [--wa on|off]\n"
      "               [--trace FILE] [--events FILE] [--hits] [--beats]\n"
      "  detscope audit [--routine NAME|all] [--wa on|off]\n"
      "  detscope campaign-audit [--module fwd|hdcu|icu] [--threads A,B,C]\n"
      "               [--stride N]\n"
      "  detscope metrics [--routine NAME] [--cores N] [--wa on|off]\n"
      "               [--out FILE]\n"
      "\n"
      "run options:\n"
      "  --routine NAME   built-in routine (default: fwd-pc; see stlint --list)\n"
      "  --cores N        active cores, 1-3 (default: 3)\n"
      "  --wa on|off      D$ write-allocate policy (default: on)\n"
      "  --trace FILE     write the run as Chrome-trace JSON\n"
      "  --events FILE    write the raw event stream (DSEV) for stlint --xval\n"
      "  --hits           include per-access cache hits in the JSON\n"
      "  --beats          include per-word bus data beats in the JSON\n"
      "\n"
      "  --version        print suite + checkpoint schema version\n");
}

bool require_on_off(cli::Args& a) {
  const std::string v = a.value();
  if (v == "on") return true;
  if (v == "off") return false;
  std::fprintf(stderr, "detscope: %s expects 'on' or 'off', got '%s'\n",
               a.flag().c_str(), v.c_str());
  std::exit(2);
}

int unknown_option(const cli::Args& a) {
  std::fprintf(stderr, "detscope: unknown option '%s'\n", a.flag().c_str());
  usage(stderr);
  return 2;
}

const core::RoutineEntry* routine_or_die(const std::string& name) {
  const core::RoutineEntry* e = core::find_routine(name);
  if (e == nullptr) {
    std::fprintf(stderr, "detscope: unknown routine '%s' (see stlint --list)\n",
                 name.c_str());
    std::exit(2);
  }
  return e;
}

std::string requester_name(unsigned id) {
  const char* port[] = {"ifetch0", "data", "ifetch1"};
  return "core " + std::string(1, static_cast<char>('A' + id / 3)) + " " +
         port[id % 3];
}

/// The quickstart scenario `run` and `metrics` execute: one routine,
/// cache-wrapped on the first `cores` cores, resets skewed by
/// core::kQuickstartStagger.
struct Quickstart {
  std::string routine = "fwd-pc";
  unsigned cores = 3;
  bool wa = true;
  std::vector<core::BuiltTest> tests;  // per active core, golden calibrated

  /// Consume the current flag if it is --routine, --cores or --wa.
  bool parse(cli::Args& a) {
    if (a.is("--routine")) routine = a.value();
    else if (a.is("--cores")) cores = a.unsigned_in(1, 3);
    else if (a.is("--wa")) wa = require_on_off(a);
    else return false;
    return true;
  }

  /// Wrap the routine per core and return the loaded SoC (not yet reset).
  soc::Soc build() {
    const auto r = routine_or_die(routine)->make();
    for (unsigned c = 0; c < cores; ++c)
      tests.push_back(core::build_wrapped(*r, core::WrapperKind::kCacheBased,
                                          core::quickstart_env(c, wa)));
    soc::SocConfig cfg;
    cfg.start_delay = core::kQuickstartStagger;
    soc::Soc soc(cfg);
    for (const auto& t : tests) {
      soc.load_program(t.prog);
      soc.set_boot(t.env.core_id, t.prog.entry());
    }
    for (unsigned c = cores; c < 3; ++c) soc.set_active(c, false);
    return soc;
  }
};

int cmd_run(cli::Args& args) {
  Quickstart q;
  std::string trace_path;
  std::string events_path;
  bool hits = false, beats = false;
  while (args.next()) {
    if (q.parse(args)) continue;
    if (args.is("--trace")) trace_path = args.value();
    else if (args.is("--events")) events_path = args.value();
    else if (args.is("--hits")) hits = true;
    else if (args.is("--beats")) beats = true;
    else return unknown_option(args);
  }
  soc::Soc soc = q.build();

  perf::Registry registry;
  trace::PhaseMetrics metrics(registry);
  trace::FanoutSink fan;
  // The writer's buffer is the one copy of the stream: --trace renders it,
  // --events writes it as a DSEV file.
  trace::ChromeTraceWriter writer;
  writer.set_include_hits(hits);
  writer.set_include_beats(beats);
  fan.add(&metrics);
  if (!trace_path.empty() || !events_path.empty()) fan.add(&writer);
  soc.set_trace_sink(&fan);

  soc.reset();
  const auto res = soc.run(10'000'000);
  if (res.timed_out) {
    std::fprintf(stderr, "detscope: watchdog expired\n");
    return 1;
  }

  bool all_pass = true;
  for (unsigned c = 0; c < q.cores; ++c) {
    const auto v = core::read_verdict(soc, soc::mailbox_addr(c));
    const u32 golden = q.tests[c].golden;
    const bool pass = v.status == soc::kStatusPass && v.signature == golden;
    all_pass &= pass;
    std::printf("core %c: %s  signature 0x%08x (golden 0x%08x)\n", 'A' + c,
                pass ? "PASS" : "FAIL", v.signature, golden);
  }

  std::printf("\n%s", metrics.render().c_str());

  TextTable bus("shared bus, per requester");
  bus.header({"requester", "submits", "grants", "wait cyc", "occupancy cyc"});
  for (unsigned id = 0; id < q.cores * 3; ++id) {
    const auto& st = soc.bus().stats(id);
    if (st.submits == 0) continue;
    bus.row({requester_name(id),
             TextTable::fmt_int(static_cast<long long>(st.submits)),
             TextTable::fmt_int(static_cast<long long>(st.grants)),
             TextTable::fmt_int(static_cast<long long>(st.wait_cycles)),
             TextTable::fmt_int(static_cast<long long>(st.occupancy_cycles))});
  }
  bus.print();

  const auto violations = metrics.violations();
  if (violations.empty()) {
    std::printf("\ninvariant: execution loops ran bus-silent on every core — OK\n");
  } else {
    std::printf("\ninvariant VIOLATED:\n");
    for (const auto& v : violations) std::printf("  %s\n", v.c_str());
  }

  if (!trace_path.empty()) {
    if (!writer.write_file(trace_path)) {
      std::fprintf(stderr, "detscope: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu events)\n", trace_path.c_str(),
                writer.size());
  }
  if (!events_path.empty()) {
    if (!trace::write_events_file(events_path, writer.events())) {
      std::fprintf(stderr, "detscope: cannot write %s\n", events_path.c_str());
      return 1;
    }
    std::printf("event stream written to %s (%zu events)\n",
                events_path.c_str(), writer.size());
  }
  return all_pass && violations.empty() ? 0 : 1;
}

int cmd_audit(cli::Args& args) {
  std::string routine_name = "all";
  bool wa = true;
  while (args.next()) {
    if (args.is("--routine")) routine_name = args.value();
    else if (args.is("--wa")) wa = require_on_off(args);
    else return unknown_option(args);
  }

  std::vector<const core::RoutineEntry*> targets;
  if (routine_name == "all") {
    for (const auto& e : core::routine_registry()) targets.push_back(&e);
  } else {
    targets.push_back(routine_or_die(routine_name));
  }

  bool all_pass = true;
  for (const auto* t : targets) {
    const auto routine = t->make();
    const auto r = trace::audit_determinism(*routine, wa);
    all_pass &= r.passed();
    std::printf(
        "%-10s %s  window %zu events, solo %llu cyc vs contended %llu cyc "
        "(%llu neighbour grants)\n",
        t->name, r.passed() ? "DETERMINISTIC " : "NON-DETERMINISTIC",
        r.window_events_solo, static_cast<unsigned long long>(r.solo_cycles),
        static_cast<unsigned long long>(r.contended_cycles),
        static_cast<unsigned long long>(r.contended_neighbor_grants));
    if (!r.detail.empty()) std::printf("  %s\n", r.detail.c_str());
  }
  std::printf("%s\n", all_pass ? "audit: PASS" : "audit: FAIL");
  return all_pass ? 0 : 1;
}

int cmd_campaign_audit(cli::Args& args) {
  fault::Module module = fault::Module::kFwd;
  std::vector<unsigned> threads = {1, 2, 8};
  u32 stride = 8;
  while (args.next()) {
    if (args.is("--module")) {
      const std::string m = args.value();
      if (m == "fwd") module = fault::Module::kFwd;
      else if (m == "hdcu") module = fault::Module::kHdcu;
      else if (m == "icu") module = fault::Module::kIcu;
      else {
        std::fprintf(stderr,
                     "detscope: --module expects fwd|hdcu|icu, got '%s'\n",
                     m.c_str());
        usage(stderr);
        return 2;
      }
    } else if (args.is("--threads")) {
      threads = args.unsigned_list(1, 256);
    } else if (args.is("--stride")) {
      stride = args.unsigned_in(1, 1u << 20);
    } else {
      return unknown_option(args);
    }
  }

  // The graded scenario of the parallel-campaign regression tests: one core,
  // plain wrapper, value-only fwd routine (fast, deterministic).
  const auto routine = module == fault::Module::kIcu ? core::make_icu_test()
                                                     : core::make_fwd_test(false);
  exp::Scenario sc;
  sc.active_cores = 1;
  sc.stagger = {0, 0, 0};
  sc.label = "campaign-audit";
  auto tests = exp::build_scenario_tests(*routine, core::WrapperKind::kPlain, sc,
                                         /*graded=*/0, /*use_perf_counters=*/false);
  fault::CampaignConfig cc;
  cc.module = module;
  cc.core_id = 0;
  cc.kind = isa::CoreKind::kA;
  cc.fault_stride = stride;
  const auto factory = exp::scenario_factory(std::move(tests), sc, 0);

  const auto r = trace::audit_campaign_determinism(cc, factory, threads);
  std::printf("campaign-audit [%s, stride %u, threads", fault::module_name(module),
              stride);
  for (std::size_t i = 0; i < r.thread_counts.size(); ++i)
    std::printf("%s%u", i == 0 ? " " : ",", r.thread_counts[i]);
  std::printf("]: %s (%zu events per run)\n",
              r.passed() ? "DETERMINISTIC" : "NON-DETERMINISTIC", r.events);
  if (!r.detail.empty()) std::printf("  %s\n", r.detail.c_str());
  return r.passed() ? 0 : 1;
}

int cmd_metrics(cli::Args& args) {
  Quickstart q;
  std::string out_path;
  while (args.next()) {
    if (q.parse(args)) continue;
    if (args.is("--out")) out_path = args.value();
    else return unknown_option(args);
  }
  soc::Soc soc = q.build();

  perf::Session session("detscope-metrics");
  session.hash().str(q.routine).u32v(q.cores).u8v(q.wa ? 1 : 0);
  trace::PhaseMetrics phases(session.metrics());
  soc.set_trace_sink(&phases);
  soc.reset();
  if (soc.run(10'000'000).timed_out) {
    std::fprintf(stderr, "detscope: watchdog expired\n");
    return 1;
  }
  session.mark_phase("quickstart");
  perf::collect_soc(session.metrics(), soc);
  if (out_path.empty()) {
    std::fputs(perf::to_json(session.close()).c_str(), stdout);
    return 0;
  }
  return session.finish(out_path, 0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  cli::Args args("detscope", argc - 2, argv + 2);
  if ((cmd == "-h" || cmd == "--help" || cmd == "--version") &&
      !cli::no_arguments("detscope", argc, argv)) {
    usage(stderr);
    return 2;
  }
  if (cmd == "-h" || cmd == "--help") {
    usage(stdout);
    return 0;
  }
  if (cmd == "--version") {
    cli::print_version("detscope");
    return 0;
  }
  try {
    if (cmd == "run") return cmd_run(args);
    if (cmd == "audit") return cmd_audit(args);
    if (cmd == "campaign-audit") return cmd_campaign_audit(args);
    if (cmd == "metrics") return cmd_metrics(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "detscope: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "detscope: unknown command '%s'\n", cmd.c_str());
  usage(stderr);
  return 2;
}
