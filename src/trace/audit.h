#pragma once
// Determinism audit: turns the paper's claim into an executable check.
//
//  * audit_determinism() — run a cache-wrapped routine solo and under full
//    bus contention (the other two cores execute plain-wrapped copies of the
//    same routine, i.e. continuous uncached flash traffic) and compare the
//    graded core's execution-loop event streams byte for byte. The streams
//    are rebased to the first window event before comparison: every emitter
//    clock (CPU perf cycles, memory-system cycles, bus cycles) advances 1:1
//    with SoC ticks, so a contention-induced start-time shift moves all
//    window events by the same delta and determinism == byte equality.
//    Transactions the loading pass initiated may still drain into the window
//    (fetch-ahead of the check epilogue at the final loop branch); their
//    completion events are excluded from the comparison — the claim is that
//    the loop *originates* no traffic (any in-window kBusSubmit still fails
//    the audit) and that the core-side stream is unperturbed.
//
//  * audit_campaign_determinism() — run the same fault campaign at several
//    worker-thread counts and require byte-identical event streams and
//    outcome vectors (the campaign emits only from serial phases and from
//    the deterministic post-join merge, so thread count must not show).
//
// Both are exposed through the tools/detscope CLI and run in the tier-1
// test suite (tests/test_trace.cpp).

#include <string>
#include <vector>

#include "core/wrapper.h"
#include "fault/campaign.h"
#include "trace/capture.h"
#include "trace/event.h"

namespace detstl::trace {

/// Forwards every event to each registered sink (capture + metrics in one run).
class FanoutSink final : public EventSink {
 public:
  void add(EventSink* s) { sinks_.push_back(s); }
  void on_event(const Event& e) override {
    for (EventSink* s : sinks_) s->on_event(e);
  }

 private:
  std::vector<EventSink*> sinks_;
};

struct AuditResult {
  bool streams_identical = false;  // rebased execution-loop streams match
  bool invariant_clean = false;    // no exec-loop bus submits / misses, both runs
  bool verdicts_pass = false;      // graded core PASSed in both runs
  std::size_t window_events_solo = 0;
  std::size_t window_events_contended = 0;
  u64 solo_cycles = 0;       // graded-core cycles, reset -> halt
  u64 contended_cycles = 0;
  /// Bus grants issued to the neighbour cores' requesters in the contended
  /// run — proof the execution loop was actually under contention.
  u64 contended_neighbor_grants = 0;
  std::string detail;  // human-readable failure explanation (empty on pass)

  bool passed() const { return streams_identical && invariant_clean && verdicts_pass; }
};

/// Audit one routine under the cache-based wrapper on core A, every core
/// built from core::quickstart_env(core, write_allocate) without
/// performance counters. The contended run resets the cores with
/// core::kQuickstartStagger (core A's own delay is 0); each run stops
/// after 10 M cycles. The routine must be cache-wrappable (every built-in
/// routine is; see core::routine_registry).
AuditResult audit_determinism(const core::SelfTestRoutine& routine,
                              bool write_allocate = true);

struct CampaignAuditResult {
  bool streams_identical = false;
  bool outcomes_identical = false;
  std::vector<unsigned> thread_counts;
  std::size_t events = 0;  // events per run (identical across runs on pass)
  std::string detail;

  bool passed() const { return streams_identical && outcomes_identical; }
};

/// Run the campaign described by (cfg, factory) once per entry of `threads`
/// (cfg.threads and cfg.sink are overridden) and compare event streams and
/// outcome vectors across all runs.
CampaignAuditResult audit_campaign_determinism(
    const fault::CampaignConfig& cfg, const fault::SocFactory& factory,
    const std::vector<unsigned>& threads = {1, 2, 8});

}  // namespace detstl::trace
