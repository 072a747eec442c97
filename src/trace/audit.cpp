#include "trace/audit.h"

#include <array>

#include "core/stl.h"
#include "mem/bus.h"
#include "trace/phase_metrics.h"

namespace detstl::trace {

namespace {

/// The audited core and the cycle bound of each audit run.
constexpr unsigned kGradedCore = 0;
constexpr u64 kMaxCycles = 10'000'000;
static_assert(core::kQuickstartStagger[kGradedCore] == 0,
              "the graded core leaves reset first in both runs");

struct RunOutcome {
  std::vector<Event> window;  // [exec-loop begin .. signature-check begin]
  std::vector<std::string> violations;
  bool window_found = false;
  bool pass = false;
  u64 graded_cycles = 0;
  u64 neighbor_grants = 0;
  unsigned window_bus_submits = 0;  // transactions originated inside the window
  bool timed_out = false;
};

RunOutcome run_once(const core::BuiltTest& graded,
                    const std::vector<core::BuiltTest>& neighbors,
                    bool contended) {
  soc::SocConfig cfg;
  cfg.start_delay = core::kQuickstartStagger;
  soc::Soc soc(cfg);
  soc.load_program(graded.prog);
  soc.set_boot(kGradedCore, graded.prog.entry());
  if (contended) {
    for (const auto& t : neighbors) {
      soc.load_program(t.prog);
      soc.set_boot(t.env.core_id, t.prog.entry());
    }
  }

  StreamCapture cap(static_cast<u8>(kGradedCore));
  perf::Registry registry;
  PhaseMetrics metrics(registry);
  FanoutSink fan;
  fan.add(&cap);
  fan.add(&metrics);
  soc.set_trace_sink(&fan);

  soc.reset();
  const auto res = soc.run(kMaxCycles);

  RunOutcome out;
  out.timed_out = res.timed_out;
  out.graded_cycles = soc.core(kGradedCore).perf().cycles;
  for (unsigned c = 0; c < soc.num_cores(); ++c) {
    if (c == kGradedCore) continue;
    for (unsigned port = 0; port < 3; ++port)
      out.neighbor_grants += soc.bus().stats(c * 3 + port).grants;
  }
  const auto v = core::read_verdict(soc, soc::mailbox_addr(kGradedCore));
  out.pass = v.status == soc::kStatusPass && v.signature == graded.golden;
  out.violations = metrics.violations();

  // Extract the execution-loop window, inclusive of both boundary events.
  const auto& ev = cap.events();
  std::size_t begin = ev.size(), end = ev.size();
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind != EventKind::kPhaseBegin) continue;
    const Phase p = static_cast<Phase>(ev[i].unit);
    if (p == Phase::kExecutionLoop && begin == ev.size()) begin = i;
    if (p == Phase::kSignatureCheck && begin != ev.size()) {
      end = i;
      break;
    }
  }
  if (begin == ev.size() || end == ev.size()) return out;
  out.window_found = true;

  // A transaction the loading pass initiated can still be in flight when the
  // execution loop begins (the fetch-ahead of the check epilogue at the final
  // loop branch is the canonical case). Its grant/beats/retire and the refill
  // completion drain into the window at contention-dependent cycles without
  // ever touching the core — the paper's claim is that the loop *originates*
  // no traffic, so the drain of pre-window transactions is excluded from the
  // byte comparison. A kBusSubmit inside the window is never excused.
  std::array<bool, mem::kMaxBusRequesters> open_txn{};
  std::array<bool, 2> pending_refill{};
  for (std::size_t i = 0; i < begin; ++i) {
    switch (ev[i].kind) {
      case EventKind::kBusSubmit: open_txn[ev[i].unit] = true; break;
      case EventKind::kBusRetire: open_txn[ev[i].unit] = false; break;
      case EventKind::kCacheMiss: pending_refill[ev[i].unit] = true; break;
      case EventKind::kCacheRefill: pending_refill[ev[i].unit] = false; break;
      default: break;
    }
  }
  for (std::size_t i = begin; i <= end; ++i) {
    const Event& e = ev[i];
    switch (e.kind) {
      case EventKind::kBusSubmit:
        ++out.window_bus_submits;  // loop-originated traffic: hard failure
        break;
      case EventKind::kBusGrant:
      case EventKind::kBusBeat:
        if (open_txn[e.unit]) continue;
        break;
      case EventKind::kBusRetire:
        if (open_txn[e.unit]) {
          open_txn[e.unit] = false;
          continue;
        }
        break;
      case EventKind::kCacheRefill:
        if (pending_refill[e.unit]) {
          pending_refill[e.unit] = false;
          continue;
        }
        break;
      default: break;
    }
    out.window.push_back(e);
  }
  // Rebase: subtract the window's first cycle stamp so solo and contended
  // streams align (see the header comment on the shared-delta argument).
  const u64 base = out.window.front().cycle;
  for (Event& e : out.window) e.cycle -= base;
  return out;
}

}  // namespace

AuditResult audit_determinism(const core::SelfTestRoutine& routine,
                              bool write_allocate) {
  AuditResult r;

  core::BuiltTest graded =
      core::build_wrapped(routine, core::WrapperKind::kCacheBased,
                          core::quickstart_env(kGradedCore, write_allocate));
  // Neighbours run plain-wrapped (uncached) copies: every fetch crosses the
  // shared bus, so the graded core's whole run executes under contention.
  std::vector<core::BuiltTest> neighbors;
  for (unsigned c = 0; c < soc::kMaxCores; ++c) {
    if (c == kGradedCore) continue;
    neighbors.push_back(core::build_wrapped(routine, core::WrapperKind::kPlain,
                                            core::quickstart_env(c, write_allocate)));
  }

  const RunOutcome solo = run_once(graded, neighbors, /*contended=*/false);
  const RunOutcome cont = run_once(graded, neighbors, /*contended=*/true);

  r.solo_cycles = solo.graded_cycles;
  r.contended_cycles = cont.graded_cycles;
  r.contended_neighbor_grants = cont.neighbor_grants;
  r.window_events_solo = solo.window.size();
  r.window_events_contended = cont.window.size();
  r.verdicts_pass = solo.pass && cont.pass;

  if (solo.timed_out || cont.timed_out) {
    r.detail = "watchdog expired during the audit run";
    return r;
  }
  if (!solo.window_found || !cont.window_found) {
    r.detail = "execution-loop window not found (routine not cache-wrapped?)";
    return r;
  }

  r.invariant_clean = solo.violations.empty() && cont.violations.empty() &&
                      solo.window_bus_submits == 0 && cont.window_bus_submits == 0;
  if (!r.invariant_clean) {
    for (const auto& v : solo.violations) r.detail += "solo: " + v + "\n";
    for (const auto& v : cont.violations) r.detail += "contended: " + v + "\n";
    if (solo.window_bus_submits || cont.window_bus_submits)
      r.detail += "bus transactions originated inside the execution-loop window\n";
  }

  const std::string a = serialize(solo.window);
  const std::string b = serialize(cont.window);
  r.streams_identical = a == b;
  if (!r.streams_identical) {
    if (a.size() != b.size()) {
      r.detail += "window sizes differ: " + std::to_string(solo.window.size()) +
                  " vs " + std::to_string(cont.window.size()) + " events\n";
    } else {
      for (std::size_t i = 0; i < solo.window.size(); ++i) {
        std::string ea, eb;
        append_bytes(solo.window[i], ea);
        append_bytes(cont.window[i], eb);
        if (ea != eb) {
          r.detail += "first divergence at window event " + std::to_string(i) +
                      ": " + kind_name(solo.window[i].kind) + " vs " +
                      kind_name(cont.window[i].kind) + "\n";
          break;
        }
      }
    }
  }
  if (!r.verdicts_pass) r.detail += "graded core did not PASS in both runs\n";
  return r;
}

CampaignAuditResult audit_campaign_determinism(
    const fault::CampaignConfig& cfg, const fault::SocFactory& factory,
    const std::vector<unsigned>& threads) {
  CampaignAuditResult r;
  r.thread_counts = threads;

  std::vector<std::string> streams;
  std::vector<std::vector<fault::FaultOutcome>> outcomes;
  for (unsigned t : threads) {
    StreamCapture cap;
    fault::CampaignConfig c = cfg;
    c.threads = t;
    c.sink = &cap;
    fault::Campaign campaign(c, factory);
    const fault::CampaignResult res = campaign.run();
    streams.push_back(serialize(cap.events()));
    outcomes.push_back(res.outcomes);
    if (streams.size() == 1) r.events = cap.events().size();
  }

  r.streams_identical = true;
  r.outcomes_identical = true;
  for (std::size_t i = 1; i < streams.size(); ++i) {
    if (streams[i] != streams[0]) {
      r.streams_identical = false;
      r.detail += "event stream at threads=" + std::to_string(threads[i]) +
                  " differs from threads=" + std::to_string(threads[0]) + "\n";
    }
    if (outcomes[i] != outcomes[0]) {
      r.outcomes_identical = false;
      r.detail += "outcomes at threads=" + std::to_string(threads[i]) +
                  " differ from threads=" + std::to_string(threads[0]) + "\n";
    }
  }
  return r;
}

}  // namespace detstl::trace
