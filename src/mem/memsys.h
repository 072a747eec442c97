#pragma once
// Per-core memory system: routes the CPU's instruction and data ports to the
// private TCMs (same-cycle), the private L1 caches (same-cycle on hit, bus
// refill on miss) or directly to the shared bus (caches disabled / uncached
// accesses). Implements the miss sequencing: victim writeback, line refill,
// no-write-allocate store-around, and cache-flushing atomics.

#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/tcm.h"

namespace detstl::mem {

struct MemSystemConfig {
  CacheConfig icache{.size_bytes = 8192, .ways = 2, .line_bytes = 32};
  CacheConfig dcache{.size_bytes = 4096, .ways = 2, .line_bytes = 32};
};

class MemSystem {
 public:
  MemSystem(unsigned core_id, const MemSystemConfig& cfg = {});

  unsigned core_id() const { return core_id_; }
  unsigned iport_id(unsigned slot = 0) const { return core_id_ * 3 + (slot == 0 ? 0 : 2); }
  unsigned dport_id() const { return core_id_ * 3 + 1; }

  // --- CSR-visible cache control ---------------------------------------------
  void cache_op(u32 op_bits);       // kCacheOpInvI / kCacheOpInvD
  void set_cache_cfg(u32 cfg_bits); // kCacheCfgIEn / kCacheCfgDEn / kCacheCfgWriteAllocate
  u32 cache_cfg() const { return cache_cfg_; }
  bool icache_enabled() const { return cache_cfg_ & 0x1; }
  bool dcache_enabled() const { return cache_cfg_ & 0x2; }
  bool write_allocate() const { return cache_cfg_ & 0x4; }

  const Cache& icache() const { return icache_; }
  const Cache& dcache() const { return dcache_; }
  /// Mutable cache access for the disturbance-injection hooks (cache.h);
  /// simulation code goes through cache_op / the port state machines.
  Cache& icache() { return icache_; }
  Cache& dcache() { return dcache_; }
  Tcm& itcm() { return itcm_; }
  Tcm& dtcm() { return dtcm_; }
  const Tcm& itcm() const { return itcm_; }
  const Tcm& dtcm() const { return dtcm_; }

  // --- address-space predicates (the CPU gates accesses; faulty runs can
  // compute wild addresses, which raise access-error events instead) ----------
  bool data_readable(u32 addr) const {
    return itcm_.contains(addr) || dtcm_.contains(addr) || is_bus(addr);
  }
  bool data_writable(u32 addr) const {
    return itcm_.contains(addr) || dtcm_.contains(addr) || is_sram(addr);
  }
  bool amo_ok(u32 addr) const { return is_sram(addr); }
  bool fetchable(u32 addr) const { return itcm_.contains(addr) || is_bus(addr); }

  // --- instruction port: 8-byte aligned packet fetch ---------------------------
  // Up to two fetches may be in flight (pipelined flash/bus access); requests
  // complete in order. TCM and cache hits complete in the same cycle.
  /// True when a new fetch may be started this cycle.
  bool ifetch_can_request() const;
  void ifetch_request(u32 addr, SharedBus& bus);
  /// True when the oldest fetch has completed.
  bool ifetch_done() const { return islot_[ihead_].state == IState::kDone; }
  u32 ifetch_addr() const { return islot_[ihead_].addr; }
  u64 ifetch_data() const { return islot_[ihead_].data; }
  /// Consume the oldest completed fetch.
  void ifetch_ack();
  /// Redirect: drop all fetches. In-flight bus transactions complete and are
  /// discarded; the port refuses new requests until drained.
  void ifetch_cancel();
  /// Fetches currently in flight or completed-unconsumed (diagnostics).
  unsigned ifetch_inflight() const { return iactive_count(); }

  // --- data port -----------------------------------------------------------------
  struct DataOp {
    u32 addr = 0;
    u8 size = 4;
    bool write = false;
    bool amo_add = false;
    u32 wdata = 0;

    bool operator==(const DataOp&) const = default;
  };
  void data_request(const DataOp& op, SharedBus& bus);
  bool data_busy() const { return dstate_ != DState::kIdle; }
  bool data_done() const { return dstate_ == DState::kDone; }
  u32 data_rdata() const { return drdata_; }
  void data_ack() { dstate_ = DState::kIdle; }

  /// Advance the port state machines; call once per cycle after the bus tick.
  void tick(SharedBus& bus);

  /// Abort both port state machines, dropping any in-flight request. The
  /// caller must also cancel this core's bus slots
  /// (SharedBus::cancel_requester) — soc::Soc::restart_core does both.
  void abort_ports();

  /// Per-core hardware reset view: abort the ports, disable the caches and
  /// discard their content (reset-invalidated arrays). TCM contents survive,
  /// as on the real device. Used by Soc::restart_core / park_core; plain
  /// Cpu::reset deliberately leaves the memory system alone.
  void hard_reset();

  /// Trace sink (non-owning, checkpoint contract of trace/event.h). The CPU
  /// installs it via Cpu::set_trace_sink; null = tracing off.
  void set_trace_sink(trace::EventSink* sink) { sink_ = sink; }
  trace::EventSink* trace_sink() const { return sink_; }

  /// Clock-blind state equality (soc::same_state): caches, TCMs, cache
  /// configuration and both port state machines; not the trace clock or
  /// the sink.
  bool same_state(const MemSystem& o) const;

 private:
  enum class IState : u8 { kIdle, kBusDirect, kRefill, kDone };
  enum class DState : u8 {
    kIdle, kBusDirect, kWriteback, kRefill, kAmoFlush, kAmoBus, kDone
  };

  void dcache_apply();
  void start_dwriteback(u32 line, SharedBus& bus);
  void start_drefill(SharedBus& bus);
  bool ibus_inflight() const;
  bool idraining() const;
  unsigned iactive_count() const;
  void emit_cache(trace::EventKind kind, unsigned unit, u32 addr, u32 a, u32 b,
                  bool request_path) const;

  unsigned core_id_;
  Cache icache_;
  Cache dcache_;
  Tcm itcm_;
  Tcm dtcm_;
  u32 cache_cfg_ = 0;  // everything off at reset

  // I-port state: a two-slot in-order queue; slot index selects the bus
  // requester id (iport_id(slot)).
  struct IFetchSlot {
    IState state = IState::kIdle;
    u32 addr = 0;
    u64 data = 0;
    bool discard = false;

    bool operator==(const IFetchSlot&) const = default;
  };
  std::array<IFetchSlot, 2> islot_{};
  unsigned ihead_ = 0;  // oldest active/completed slot

  // D-port state
  DState dstate_ = DState::kIdle;
  DataOp dop_;
  u32 drdata_ = 0;

  // Tracing: own cycle counter (ticks 1:1 with SoC ticks) + non-owning sink.
  u64 now_ = 0;
  trace::EventSink* sink_ = nullptr;
};

}  // namespace detstl::mem
