#include "mem/memsys.h"

#include <cassert>

#include "common/bitutil.h"
#include "isa/isa.h"

namespace detstl::mem {

MemSystem::MemSystem(unsigned core_id, const MemSystemConfig& cfg)
    : core_id_(core_id),
      icache_(cfg.icache),
      dcache_(cfg.dcache),
      itcm_(kItcmBase, kItcmSize),
      dtcm_(kDtcmBase, kDtcmSize) {}

// Request-path emissions are stamped now_ + 1 (the cycle being evaluated:
// the CPU issues requests before this MemSystem's tick increments now_),
// completion-path emissions with now_; both equal the SoC tick index.
void MemSystem::emit_cache(trace::EventKind kind, unsigned unit, u32 addr,
                           u32 a, u32 b, bool request_path) const {
  DETSTL_TRACE(sink_, trace::Event{.cycle = request_path ? now_ + 1 : now_,
                                   .kind = kind,
                                   .core = static_cast<u8>(core_id_),
                                   .unit = static_cast<u8>(unit),
                                   .addr = addr,
                                   .a = a,
                                   .b = b});
}

// emit_cache sits on the hit paths, which run once per fetch packet / data
// access; its arguments (set/way lookups) must not be evaluated when tracing
// is off, so every call goes through this guard — same laziness contract as
// DETSTL_TRACE itself.
#define EMIT_CACHE(...)                        \
  do {                                         \
    if (sink_ != nullptr) emit_cache(__VA_ARGS__); \
  } while (0)

void MemSystem::cache_op(u32 op_bits) {
  if (op_bits & isa::kCacheOpInvI) {
    EMIT_CACHE(trace::EventKind::kCacheInvalidate, 0, 0, icache_.valid_lines(),
               0, true);
    icache_.invalidate_all();
  }
  if (op_bits & isa::kCacheOpInvD) {
    EMIT_CACHE(trace::EventKind::kCacheInvalidate, 1, 0, dcache_.valid_lines(),
               0, true);
    dcache_.invalidate_all();
  }
}

void MemSystem::set_cache_cfg(u32 cfg_bits) { cache_cfg_ = cfg_bits & 0x7; }

bool MemSystem::same_state(const MemSystem& o) const {
  return core_id_ == o.core_id_ && cache_cfg_ == o.cache_cfg_ &&
         islot_ == o.islot_ && ihead_ == o.ihead_ && dstate_ == o.dstate_ &&
         dop_ == o.dop_ && drdata_ == o.drdata_ && icache_.same_state(o.icache_) &&
         dcache_.same_state(o.dcache_) && itcm_ == o.itcm_ && dtcm_ == o.dtcm_;
}

// ----------------------------------------------------------------------------
// Instruction port
// ----------------------------------------------------------------------------

unsigned MemSystem::iactive_count() const {
  unsigned n = 0;
  for (const auto& s : islot_)
    if (s.state != IState::kIdle) ++n;
  return n;
}

bool MemSystem::ibus_inflight() const {
  for (const auto& s : islot_)
    if (s.state == IState::kBusDirect || s.state == IState::kRefill) return true;
  return false;
}

bool MemSystem::idraining() const {
  for (const auto& s : islot_)
    if (s.discard) return true;
  return false;
}

bool MemSystem::ifetch_can_request() const {
  if (idraining()) return false;
  if (iactive_count() >= 2) return false;
  // With the I-cache enabled, at most one refill may be outstanding (a hit
  // completes in the same cycle, so the second slot is never needed).
  if (icache_enabled() && ibus_inflight()) return false;
  return true;
}

void MemSystem::ifetch_request(u32 addr, SharedBus& bus) {
  assert(ifetch_can_request());
  assert(addr % 8 == 0);
  const unsigned idx = (ihead_ + iactive_count()) % 2;
  IFetchSlot& slot = islot_[idx];
  assert(slot.state == IState::kIdle);
  slot.addr = addr;
  slot.discard = false;

  if (itcm_.contains(addr)) {
    slot.data = itcm_.read64(addr);
    slot.state = IState::kDone;
    return;
  }
  assert(is_bus(addr) && "ifetch outside ITCM/flash/SRAM");

  if (icache_enabled()) {
    if (icache_.lookup(addr)) {
      EMIT_CACHE(trace::EventKind::kCacheHit, 0, addr, icache_.set_of(addr),
                 static_cast<u32>(icache_.way_of(addr)), true);
      slot.data = static_cast<u64>(icache_.read(addr, 4)) |
                  (static_cast<u64>(icache_.read(addr + 4, 4)) << 32);
      slot.state = IState::kDone;
      return;
    }
    EMIT_CACHE(trace::EventKind::kCacheMiss, 0, addr, icache_.set_of(addr), 0,
               true);
    // Line refill. The I-cache is read-only: victims are never dirty.
    bus.submit(iport_id(idx), BusReq{.addr = align_down(addr, icache_.config().line_bytes),
                                     .bytes = icache_.config().line_bytes});
    slot.state = IState::kRefill;
    return;
  }

  bus.submit(iport_id(idx), BusReq{.addr = addr, .bytes = 8});
  slot.state = IState::kBusDirect;
}

void MemSystem::ifetch_ack() {
  assert(islot_[ihead_].state == IState::kDone);
  islot_[ihead_].state = IState::kIdle;
  ihead_ = (ihead_ + 1) % 2;
  if (iactive_count() == 0) ihead_ = 0;
}

void MemSystem::ifetch_cancel() {
  for (auto& s : islot_) {
    if (s.state == IState::kDone) {
      s.state = IState::kIdle;
    } else if (s.state != IState::kIdle) {
      s.discard = true;
    }
  }
  if (iactive_count() == 0) ihead_ = 0;
}

void MemSystem::abort_ports() {
  for (auto& s : islot_) {
    s.state = IState::kIdle;
    s.discard = false;
  }
  ihead_ = 0;
  dstate_ = DState::kIdle;
}

void MemSystem::hard_reset() {
  abort_ports();
  cache_cfg_ = 0;
  icache_.invalidate_all();
  dcache_.invalidate_all();
}

// ----------------------------------------------------------------------------
// Data port
// ----------------------------------------------------------------------------

void MemSystem::data_request(const DataOp& op, SharedBus& bus) {
  assert(dstate_ == DState::kIdle);
  assert(op.addr % op.size == 0 && "misalignment is resolved in the CPU");
  dop_ = op;

  // TCMs: same-cycle, both instruction and data TCM reachable from the D port
  // (the TCM-based strategy copies code into the ITCM through here).
  Tcm* tcm = itcm_.contains(op.addr) ? &itcm_ : dtcm_.contains(op.addr) ? &dtcm_ : nullptr;
  if (tcm != nullptr) {
    assert(!op.amo_add && "atomics are only supported on shared SRAM");
    if (op.write) {
      tcm->write(op.addr, op.wdata, op.size);
    } else {
      drdata_ = tcm->read(op.addr, op.size);
    }
    dstate_ = DState::kDone;
    return;
  }
  assert(is_bus(op.addr) && "data access to unmapped address");

  if (op.amo_add) {
    assert(is_sram(op.addr) && op.size == 4);
    // Atomicity lives on the bus. A dirty cached copy must be written back
    // first so the bus-side read-modify-write sees current data; a clean
    // resident copy is updated in place after the AMO completes.
    if (dcache_enabled() && dcache_.line_dirty(op.addr)) {
      const u32 line = align_down(op.addr, dcache_.config().line_bytes);
      EMIT_CACHE(trace::EventKind::kCacheWriteback, 1, line,
                 dcache_.set_of(line),
                 static_cast<u32>(dcache_.way_of(line)), true);
      start_dwriteback(line, bus);
      dstate_ = DState::kAmoFlush;
      return;
    }
    bus.submit(dport_id(), BusReq{.addr = op.addr, .bytes = 4, .amo_add = true,
                                  .wdata = {op.wdata}});
    dstate_ = DState::kAmoBus;
    return;
  }

  const bool cacheable = dcache_enabled();
  if (!cacheable) {
    BusReq req{.addr = op.addr, .bytes = op.size, .write = op.write,
               .wdata = {op.wdata}};
    bus.submit(dport_id(), req);
    dstate_ = DState::kBusDirect;
    return;
  }

  if (dcache_.lookup(op.addr)) {
    EMIT_CACHE(trace::EventKind::kCacheHit, 1, op.addr, dcache_.set_of(op.addr),
               static_cast<u32>(dcache_.way_of(op.addr)), true);
    dcache_apply();
    dstate_ = DState::kDone;
    return;
  }
  EMIT_CACHE(trace::EventKind::kCacheMiss, 1, op.addr, dcache_.set_of(op.addr),
             op.write ? 1u : 0u, true);

  // Miss. Store miss with no-write-allocate: write around the cache.
  if (op.write && !write_allocate()) {
    assert(is_sram(op.addr) && "stores must target SRAM");
    bus.submit(dport_id(), BusReq{.addr = op.addr, .bytes = op.size, .write = true,
                                  .wdata = {op.wdata}});
    dstate_ = DState::kBusDirect;
    return;
  }

  // Allocate: writeback the victim if dirty, then refill.
  if (const std::optional<u32> victim = dcache_.dirty_victim(op.addr)) {
    EMIT_CACHE(trace::EventKind::kCacheWriteback, 1, *victim,
               dcache_.set_of(*victim), dcache_.victim_way(op.addr), true);
    start_dwriteback(*victim, bus);
    dstate_ = DState::kWriteback;
    return;
  }
  start_drefill(bus);
}

// Write a resident D-cache line back to memory as one burst.
void MemSystem::start_dwriteback(u32 line, SharedBus& bus) {
  bus.submit(dport_id(), BusReq{.addr = line,
                                .bytes = dcache_.config().line_bytes,
                                .write = true,
                                .wdata = dcache_.line(line)});
}

void MemSystem::start_drefill(SharedBus& bus) {
  bus.submit(dport_id(), BusReq{.addr = align_down(dop_.addr, dcache_.config().line_bytes),
                                .bytes = dcache_.config().line_bytes});
  dstate_ = DState::kRefill;
}

void MemSystem::dcache_apply() {
  if (dop_.write) {
    assert(is_sram(dop_.addr) && "stores must target SRAM");
    dcache_.write(dop_.addr, dop_.wdata, dop_.size);
  } else {
    drdata_ = dcache_.read(dop_.addr, dop_.size);
  }
}

// ----------------------------------------------------------------------------
// Cycle advance
// ----------------------------------------------------------------------------

void MemSystem::tick(SharedBus& bus) {
  ++now_;
  // Instruction port completions (either slot; CPU consumes in order).
  for (unsigned idx = 0; idx < 2; ++idx) {
    IFetchSlot& slot = islot_[idx];
    if (slot.state != IState::kBusDirect && slot.state != IState::kRefill) continue;
    const unsigned id = iport_id(idx);
    if (!bus.complete(id)) continue;
    if (slot.state == IState::kRefill) {
      const u32 line = align_down(slot.addr, icache_.config().line_bytes);
      icache_.fill(line, bus.rdata(id));
      EMIT_CACHE(trace::EventKind::kCacheRefill, 0, line, icache_.set_of(line),
                 static_cast<u32>(icache_.way_of(line)), false);
      slot.data = static_cast<u64>(icache_.read(slot.addr, 4)) |
                  (static_cast<u64>(icache_.read(slot.addr + 4, 4)) << 32);
    } else {
      const Beats& packet = bus.rdata(id);
      slot.data = static_cast<u64>(packet[0]) | (static_cast<u64>(packet[1]) << 32);
    }
    bus.retire(id);
    if (slot.discard) {
      slot.state = IState::kIdle;
      slot.discard = false;
    } else {
      slot.state = IState::kDone;
    }
  }
  if (iactive_count() == 0) ihead_ = 0;

  // Data port completions.
  if (dstate_ == DState::kIdle || dstate_ == DState::kDone) return;
  if (!bus.complete(dport_id())) return;

  switch (dstate_) {
    case DState::kBusDirect:
      if (!dop_.write) {
        u32 v = bus.rdata(dport_id())[0];
        if (dop_.size < 4) v &= (1u << (8 * dop_.size)) - 1u;
        drdata_ = v;
      }
      bus.retire(dport_id());
      dstate_ = DState::kDone;
      break;
    case DState::kWriteback:
      bus.retire(dport_id());
      start_drefill(bus);
      break;
    case DState::kRefill: {
      const u32 line = align_down(dop_.addr, dcache_.config().line_bytes);
      dcache_.fill(line, bus.rdata(dport_id()));
      EMIT_CACHE(trace::EventKind::kCacheRefill, 1, line, dcache_.set_of(line),
                 static_cast<u32>(dcache_.way_of(line)), false);
      bus.retire(dport_id());
      dcache_apply();
      dstate_ = DState::kDone;
      break;
    }
    case DState::kAmoFlush:
      // Memory is now current; run the atomic on the bus.
      bus.retire(dport_id());
      bus.submit(dport_id(), BusReq{.addr = dop_.addr, .bytes = 4, .amo_add = true,
                                    .wdata = {dop_.wdata}});
      dstate_ = DState::kAmoBus;
      break;
    case DState::kAmoBus:
      drdata_ = bus.rdata(dport_id())[0];
      bus.retire(dport_id());
      // Keep a resident cached copy coherent with the AMO result.
      if (dcache_enabled() && dcache_.probe(dop_.addr)) {
        dcache_.write(dop_.addr, drdata_ + dop_.wdata, 4);
      }
      dstate_ = DState::kDone;
      break;
    default:
      break;
  }
}

}  // namespace detstl::mem
