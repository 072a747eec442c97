#pragma once
// detscope event model: one flat structured event type emitted by the bus,
// the per-core memory systems, the CPUs and the fault-campaign engine, and a
// minimal sink interface the emitters hold as a non-owning pointer (null =
// tracing off; the emit sites cost one pointer compare).
//
// Components carry the sink exactly like the CPU hook pointers: a SoC value
// copy (checkpoint) copies the pointer verbatim, and whoever restores a
// checkpoint is responsible for re-installing or clearing it
// (soc::Soc::set_trace_sink). The fault campaign clears it on every restored
// faulty replica so worker threads never emit concurrently.
//
// The DETSTL_TRACE macro is the only emission idiom.

#include "common/bitutil.h"

namespace detstl::trace {

enum class EventKind : u8 {
  // Shared-bus lifecycle (unit = requester id, core = requester / 3).
  kBusSubmit,     // addr, a = bytes, flags bit0 = write, bit1 = amo
  kBusGrant,      // addr, a = wait cycles since submit, b = occupancy cycles
  kBusBeat,       // addr = beat address, a = beat index, b = data word
  kBusRetire,     // requester consumed the completed transaction
  // Private-cache actions (unit = 0 for I$, 1 for D$).
  kCacheHit,        // addr, a = set, b = way
  kCacheMiss,       // addr, a = set
  kCacheRefill,     // addr = line base, a = set, b = way filled
  kCacheWriteback,  // addr = victim line base, a = set, b = victim way
  kCacheInvalidate, // a = valid lines discarded
  // Wrapper phase transitions (unit = Phase, addr = pc of the transition).
  kPhaseBegin,
  // Interrupt recognition (paper Sec. II-C: synchronous imprecise events).
  kIrqWindow,  // pipeline drain for a pending IRQ begins; a = cause
  kIrqTaken,   // trap taken; a = cause, addr = mepc
  // Fault-campaign lifecycle (unit = fault::CampaignPhase; cycle = emission
  // sequence number, deterministic for every thread count).
  kCampaignPhaseBegin,  // a/b = total work units (lo/hi)
  kCampaignPhaseEnd,    // a = excited so far, b = detected so far
  kCampaignFault,       // cycle = fault index, unit = FaultOutcome, addr = net
  kCampaignDone,        // a = detected, b = simulated faults
  // On-line supervisor + disturbance injection (src/runtime/; cycle = SoC
  // tick). The unit field carries the runtime-layer enums by value so this
  // header stays below src/runtime/ in the layering.
  kDisturbance,  // unit = runtime::DisturbanceKind, addr = target,
                 // a = kind detail (bit / stall cycles / irq sources),
                 // flags bit0 = applied (0 = skipped: no resident target)
  kSupAttempt,   // unit = rung (0 cached, 1 fallback), addr = entry pc,
                 // a = routine index, b = attempt number (1-based)
  kSupOutcome,   // unit = runtime::AttemptStatus, a = routine index,
                 // b = observed signature (0 on timeout)
  kSupDecision,  // unit = runtime::Decision, a = routine index,
                 // b = backoff cycles (retry) / 0
  // Checkpoint/journal subsystem (fault/checkpoint.h). Load/reject events
  // fire on the serial resume path (cycle = emission sequence number);
  // flush events fire from whichever worker filled the shard (cycle = the
  // writer's own flush sequence) and are operational telemetry, excluded
  // from the cross-thread-count stream-determinism contract.
  kCkptFlush,   // unit = PayloadKind, a = records in shard, b = shard index
  kCkptLoad,    // unit = PayloadKind, a = records loaded, b = shard index
  kCkptReject,  // unit = PayloadKind, a = RejectReason, b = shard index
  // In-field mission mode + SEU soak (src/runtime/mission.h, soak.h; cycle =
  // SoC tick). Unit carries runtime-layer enums by value, same layering rule
  // as the supervisor events above.
  kMissionSlice,  // STL slice launched: core = tested core, addr = entry pc,
                  // a = routine index, b = slice index
  kMissionCheck,  // STL slice verdict: core = tested core, a = signature,
                  // b = worst mission-port bus wait this slice,
                  // flags bit0 = signature ok, bit1 = wait <= d_max
  kSoakUpset,     // unit = runtime::SoakSite, addr = resolved target,
                  // a = flipped bit, b = plan upset index,
                  // flags bit0 = applied (0 = skipped: no live target)
};

const char* kind_name(EventKind k);

/// The cache-based wrapper's phase structure (Fig. 2b), recognised from
/// architectural actions by the CPU's phase tracker (see PhaseTracker).
enum class Phase : u8 {
  kInvalidate,      // CacheOp invalidate observed
  kLoadingLoop,     // wrapper loop counter (r30) seeded >= 2
  kExecutionLoop,   // loop counter reached 1: the checked iteration
  kSignatureCheck,  // loop counter reached 0 (or caches disabled)
};

inline constexpr unsigned kNumPhases = 4;

const char* phase_name(Phase p);

inline constexpr u8 kNoCore = 0xff;

struct Event {
  u64 cycle = 0;   // emitting component's clock (docs/observability.md)
  EventKind kind = EventKind::kBusSubmit;
  u8 core = kNoCore;  // owning core (bus events: requester / 3)
  u8 unit = 0;        // kind-specific selector (see EventKind comments)
  u8 flags = 0;
  u32 addr = 0;
  u32 a = 0;
  u32 b = 0;
};

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& e) = 0;
};

/// Recognises the cache-based wrapper's phases from the architectural
/// actions the wrapper emits (core/wrapper.cpp): a CacheOp invalidate, the
/// r30 loop-counter writes (the same marker convention the fault campaign's
/// signature_from_marker uses), and the CacheCfg=0 that precedes the
/// signature check. Plain/TCM wrappers never trip the tracker. Pure value
/// state — checkpoint copies carry it.
class PhaseTracker {
 public:
  /// Each observe_* returns true when a new phase begins (callers emit).
  bool observe_cache_op(u32 op_bits) {
    if ((op_bits & 0x3) == 0) return false;  // no invalidate bit set
    return enter(Phase::kInvalidate);
  }
  bool observe_loop_counter(u32 v) {
    if (!in_wrapper_) return false;
    if (v >= 2 && phase_ == Phase::kInvalidate) return enter(Phase::kLoadingLoop);
    if (v == 1 && (phase_ == Phase::kInvalidate || phase_ == Phase::kLoadingLoop))
      return enter(Phase::kExecutionLoop);
    if (v == 0 && phase_ == Phase::kExecutionLoop)
      return enter(Phase::kSignatureCheck);
    return false;
  }
  bool observe_cache_cfg(u32 cfg_bits) {
    // Disabling the caches inside the execution loop is the check epilogue
    // (fallback for ablation builds whose counter never reaches 0).
    if (in_wrapper_ && cfg_bits == 0 && phase_ == Phase::kExecutionLoop)
      return enter(Phase::kSignatureCheck);
    return false;
  }

  void reset() { in_wrapper_ = false; }
  bool active() const { return in_wrapper_; }
  Phase current() const { return phase_; }

 private:
  bool enter(Phase p) {
    if (in_wrapper_ && phase_ == p) return false;
    in_wrapper_ = true;
    phase_ = p;
    return true;
  }

  bool in_wrapper_ = false;
  Phase phase_ = Phase::kInvalidate;
};

}  // namespace detstl::trace

/// Emit an event iff a sink is installed. The event expression is evaluated
/// only when the sink is non-null.
#define DETSTL_TRACE(sink, ...)                            \
  do {                                                     \
    if ((sink) != nullptr) (sink)->on_event(__VA_ARGS__);  \
  } while (0)
