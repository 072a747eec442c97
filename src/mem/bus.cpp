#include "mem/bus.h"

#include <cassert>

namespace detstl::mem {

void SharedBus::submit(unsigned id, const BusReq& req) {
  assert(id < kMaxBusRequesters);
  assert(slots_[id].state == SlotState::kIdle && "one outstanding request per port");
  assert(req.bytes >= 1 && req.bytes <= kBusMaxBurstBytes);
  assert(is_bus(req.addr));
  slots_[id].state = SlotState::kWaiting;
  slots_[id].req = req;
  // Requests arrive while the current cycle is being evaluated (the cores
  // run before the bus tick), so they are stamped with the cycle the bus
  // will arbitrate next: a same-cycle grant has wait == 0.
  slots_[id].submit_cycle = now_ + 1;
  ++stats_[id].submits;
  DETSTL_TRACE(sink_, trace::Event{.cycle = now_ + 1,
                                   .kind = trace::EventKind::kBusSubmit,
                                   .core = static_cast<u8>(id / 3),
                                   .unit = static_cast<u8>(id),
                                   .flags = static_cast<u8>((req.write ? 1 : 0) |
                                                            (req.amo_add ? 2 : 0)),
                                   .addr = req.addr,
                                   .a = req.bytes});
}

void SharedBus::perform(Slot& slot, Flash& flash, Sram& sram) {
  const BusReq& req = slot.req;
  const u32 base = req.addr;
  const auto beat = [&](u32 i, u32 data) {
    DETSTL_TRACE(sink_, trace::Event{.cycle = now_,
                                     .kind = trace::EventKind::kBusBeat,
                                     .core = static_cast<u8>(grant_id_ / 3),
                                     .unit = static_cast<u8>(grant_id_),
                                     .addr = base + 4 * i,
                                     .a = i,
                                     .b = data});
  };
  if (is_flash(base)) {
    assert(!req.write && !req.amo_add && "flash is read-only at run time");
    for (u32 i = 0; i < (req.bytes + 3) / 4; ++i) {
      slot.rdata[i] = flash.read32(base + 4 * i);
      beat(i, slot.rdata[i]);
    }
    return;
  }
  assert(is_sram(base));
  if (req.amo_add) {
    const u32 old = sram.read32(base);
    sram.write32(base, old + req.wdata[0]);
    slot.rdata[0] = old;
    beat(0, old);
    return;
  }
  if (req.write) {
    // Sub-word writes carry the byte count; bytes are taken from wdata LSBs.
    if (req.bytes < 4) {
      for (u32 i = 0; i < req.bytes; ++i)
        sram.write8(base + i, static_cast<u8>(req.wdata[0] >> (8 * i)));
      beat(0, req.wdata[0]);
    } else {
      for (u32 i = 0; i < req.bytes / 4; ++i) {
        sram.write32(base + 4 * i, req.wdata[i]);
        beat(i, req.wdata[i]);
      }
    }
    return;
  }
  for (u32 i = 0; i < (req.bytes + 3) / 4; ++i) {
    slot.rdata[i] = sram.read32(base + 4 * i);
    beat(i, slot.rdata[i]);
  }
}

void SharedBus::cancel_requester(unsigned id) {
  assert(id < kMaxBusRequesters);
  if (grant_valid_ && grant_id_ == id) {
    grant_valid_ = false;
    cycles_left_ = 0;
  }
  slots_[id].state = SlotState::kIdle;
}

bool SharedBus::same_state(const SharedBus& o) const {
  for (unsigned id = 0; id < kMaxBusRequesters; ++id) {
    const Slot& a = slots_[id];
    const Slot& b = o.slots_[id];
    if (a.state != b.state || a.req != b.req || a.rdata != b.rdata) return false;
  }
  return grant_valid_ == o.grant_valid_ && grant_id_ == o.grant_id_ &&
         cycles_left_ == o.cycles_left_ && rr_next_ == o.rr_next_ &&
         stall_cycles_ == o.stall_cycles_;
}

void SharedBus::tick(Flash& flash, Sram& sram) {
  ++now_;
  if (stall_cycles_ > 0) {
    --stall_cycles_;
    ++stall_ticks_;
    return;  // interconnect frozen: no device progress, no arbitration
  }
  if (grant_valid_) {
    if (cycles_left_ > 0) --cycles_left_;
    if (cycles_left_ == 0) {
      Slot& slot = slots_[grant_id_];
      perform(slot, flash, sram);
      slot.state = SlotState::kComplete;
      grant_valid_ = false;
    } else {
      return;  // bus occupied, nothing else happens this cycle
    }
  }

  // Round-robin grant among waiting requesters.
  for (unsigned i = 0; i < kMaxBusRequesters; ++i) {
    const unsigned id = (rr_next_ + i) % kMaxBusRequesters;
    Slot& slot = slots_[id];
    if (slot.state != SlotState::kWaiting) continue;
    grant_valid_ = true;
    grant_id_ = id;
    rr_next_ = (id + 1) % kMaxBusRequesters;
    slot.state = SlotState::kInService;
    ++transactions_;
    // Flash prefetch buffers are per core-side stream: both instruction-port
    // slots of a core (ids core*3 and core*3+2) share the instruction
    // buffer; the data port (core*3+1) has its own.
    const unsigned flash_buf = (id / 3) * 2 + (id % 3 == 1 ? 1 : 0);
    const u32 device_cycles =
        is_flash(slot.req.addr)
            ? flash.access_cycles(slot.req.addr, slot.req.bytes, flash_buf)
            : Sram::access_cycles(slot.req.bytes) +
                  (slot.req.amo_add ? kSramFirstCycles : 0);
    // The grant tick itself is the arbitration/address phase; the device
    // access occupies the following `device_cycles` ticks.
    cycles_left_ = device_cycles;
    const u64 wait = now_ - slot.submit_cycle;
    ++stats_[id].grants;
    stats_[id].wait_cycles += wait;
    if (wait > stats_[id].max_wait_cycles) stats_[id].max_wait_cycles = wait;
    stats_[id].occupancy_cycles += 1 + device_cycles;
    DETSTL_TRACE(sink_, trace::Event{.cycle = now_,
                                     .kind = trace::EventKind::kBusGrant,
                                     .core = static_cast<u8>(id / 3),
                                     .unit = static_cast<u8>(id),
                                     .addr = slot.req.addr,
                                     .a = static_cast<u32>(wait),
                                     .b = 1 + device_cycles});
    break;
  }
}

}  // namespace detstl::mem
