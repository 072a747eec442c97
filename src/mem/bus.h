#pragma once
// Shared system bus with round-robin arbitration. One transaction occupies
// the bus for its full device-access duration; queued requesters wait. This
// is the contention point that makes multi-core execution of self-test
// routines non-deterministic (paper Sec. II, Table I).
//
// The bus owns no device pointers (the SoC passes Flash/Sram into tick()) so
// that a SoC checkpoint is a plain value copy. The trace sink is a non-owning
// pointer with the same checkpoint contract as the CPU hook pointers
// (trace/event.h): copies carry it verbatim, restorers re-install or clear.

#include <array>
#include <cstdint>

#include "common/bitutil.h"
#include "mem/flash.h"
#include "mem/sram.h"
#include "trace/event.h"

namespace detstl::mem {

/// 3 cores x (instruction port slot 0, data port, instruction port slot 1).
/// The instruction side keeps up to two fetches in flight (pipelined flash
/// access); requester id layout: core*3 + {0: ifetch0, 1: data, 2: ifetch1}.
inline constexpr unsigned kMaxBusRequesters = 9;
inline constexpr u32 kBusMaxBurstBytes = 32;

/// One burst's data, beat i in word i. This is the single line-data format
/// from the bus to the caches: write data, a slot's read data and every
/// cache line's words. Words past the transfer or line size stay unused.
using Beats = std::array<u32, kBusMaxBurstBytes / 4>;

struct BusReq {
  u32 addr = 0;
  u32 bytes = 0;        // 1..32; bursts are naturally aligned
  bool write = false;
  bool amo_add = false; // atomic fetch-and-add of wdata[0]; rdata = old value
  Beats wdata{};

  bool operator==(const BusReq&) const = default;
};

/// Per-requester arbitration counters (diagnostics / contention evidence).
/// wait_cycles sums submit->grant latencies; occupancy_cycles sums the ticks
/// each granted transaction held the bus (arbitration tick + device access).
struct BusStats {
  u64 submits = 0;
  u64 grants = 0;
  u64 wait_cycles = 0;
  u64 occupancy_cycles = 0;
  /// Worst single submit->grant latency observed since construction or the
  /// last reset_wait_marks(). This is the measured per-access interference
  /// the mission-mode report checks against the stlint-predicted d_max
  /// (analysis::interference_bound).
  u64 max_wait_cycles = 0;
};

/// One requester slot: submit -> (arbitration, device access) -> complete ->
/// retire. A requester may have at most one outstanding request.
class SharedBus {
 public:
  void submit(unsigned id, const BusReq& req);
  bool complete(unsigned id) const { return slots_[id].state == SlotState::kComplete; }
  /// Read data of a completed request: the whole burst.
  const Beats& rdata(unsigned id) const { return slots_[id].rdata; }
  void retire(unsigned id) {
    DETSTL_TRACE(sink_, trace::Event{.cycle = now_,
                                     .kind = trace::EventKind::kBusRetire,
                                     .core = static_cast<u8>(id / 3),
                                     .unit = static_cast<u8>(id)});
    slots_[id].state = SlotState::kIdle;
  }

  /// Advance one cycle: continue the in-flight transaction or grant a new one.
  void tick(Flash& flash, Sram& sram);

  /// Total transactions granted (diagnostics).
  u64 transactions() const { return transactions_; }
  /// Bus cycles elapsed (ticks 1:1 with SoC ticks once the SoC runs).
  u64 now() const { return now_; }

  const BusStats& stats(unsigned id) const { return stats_[id]; }

  /// Zero every requester's max_wait_cycles high-water mark so a caller can
  /// measure the worst per-access wait of a bounded window (one mission
  /// slice) without disturbing the cumulative counters.
  void reset_wait_marks() {
    for (BusStats& s : stats_) s.max_wait_cycles = 0;
  }

  // --- disturbance / supervisor hooks -----------------------------------------
  /// Freeze arbitration and the in-flight device access for `cycles` ticks
  /// (error-retry burst on the interconnect). Cumulative if called again
  /// before an earlier stall drains.
  void inject_stall(u32 cycles) { stall_cycles_ += cycles; }
  /// Total ticks the bus has spent frozen by inject_stall (diagnostics).
  u64 stall_ticks() const { return stall_ticks_; }

  /// Drop a requester's outstanding request in any state. Safe mid-flight:
  /// the device access only happens at completion (perform()), so a
  /// cancelled write never partially commits. Used when a core is aborted
  /// (watchdog timeout) or quarantined.
  void cancel_requester(unsigned id);

  void set_trace_sink(trace::EventSink* sink) { sink_ = sink; }
  trace::EventSink* trace_sink() const { return sink_; }

  /// Clock-blind state equality (soc::same_state): the slots, the grant and
  /// arbitration state and any injected stall still to run. Not compared:
  /// the bus clock, the transaction and stall-tick counts, the per-requester
  /// stats, each slot's submit_cycle (it feeds only the wait stats) and the
  /// sink.
  bool same_state(const SharedBus& o) const;

 private:
  enum class SlotState : u8 { kIdle, kWaiting, kInService, kComplete };

  struct Slot {
    SlotState state = SlotState::kIdle;
    BusReq req;
    Beats rdata{};
    u64 submit_cycle = 0;
  };

  void perform(Slot& slot, Flash& flash, Sram& sram);

  std::array<Slot, kMaxBusRequesters> slots_{};
  bool grant_valid_ = false;
  unsigned grant_id_ = 0;
  u32 cycles_left_ = 0;
  unsigned rr_next_ = 0;  // round-robin scan start
  u64 transactions_ = 0;
  u64 now_ = 0;
  u32 stall_cycles_ = 0;  // remaining injected-stall ticks
  u64 stall_ticks_ = 0;
  std::array<BusStats, kMaxBusRequesters> stats_{};
  trace::EventSink* sink_ = nullptr;  // non-owning; see header comment
};

}  // namespace detstl::mem
