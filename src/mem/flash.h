#pragma once
// Embedded Flash with one 32-byte line buffer per bus master, as in
// automotive flash controllers with per-master prefetch buffers. A beat that
// hits the master's buffered line costs 1 cycle; any other beat costs the
// full array access (8 cycles) and replaces that buffer. Sequential
// single-master streams are fast (refill only at line boundaries); with
// several cores active the *bus* serialises the accesses — 8-cycle refills
// block the queue, so each core's fetch stream picks up phase-dependent
// queuing jitter. That jitter, not buffer thrash, is the source of the
// unpredictable fetch stalls of Sec. II (and of the fault-coverage
// oscillation of Table II: instruction adjacency varies with it).

#include <array>
#include <cassert>
#include <memory>
#include <vector>

#include "common/bitutil.h"
#include "mem/memmap.h"

namespace detstl::mem {

inline constexpr u32 kFlashLineBytes = 32;
inline constexpr u32 kFlashMissCycles = 8;
// A buffered beat still takes two array-interface cycles: an undisturbed
// single-core fetch stream sustains one packet every ~2-3 cycles — enough to
// keep the MEM-level forwarding paths alive but NOT the EX->EX paths, which
// need back-to-back issue (cache-resident execution, or a lucky multi-core
// burst when queued fetches drain together after a bus-blocking period).
inline constexpr u32 kFlashHitCycles = 2;

class Flash {
 public:
  Flash() : rom_(std::make_shared<std::vector<u8>>(kFlashSize, 0)) {}

  /// Program the ROM image (before simulation; not reachable from the cores).
  void write_image(u32 addr, const std::vector<u8>& bytes) {
    assert(is_flash(addr) && is_flash(addr + static_cast<u32>(bytes.size()) - 1));
    // Copy-on-write so that checkpointed SoC copies sharing the old image
    // stay valid.
    auto fresh = std::make_shared<std::vector<u8>>(*rom_);
    std::copy(bytes.begin(), bytes.end(), fresh->begin() + (addr - kFlashBase));
    rom_ = std::move(fresh);
  }

  u8 read8(u32 addr) const {
    assert(is_flash(addr));
    return (*rom_)[addr - kFlashBase];
  }

  u32 read32(u32 addr) const {
    u32 v = 0;
    for (unsigned i = 0; i < 4; ++i) v |= static_cast<u32>(read8(addr + i)) << (8 * i);
    return v;
  }

  static constexpr unsigned kNumBuffers = 9;  // one per bus requester id

  /// Cycle cost of an aligned burst of `bytes` starting at `addr`, updating
  /// the requesting master's line-buffer state. Called by the bus at grant
  /// time with the requester id.
  u32 access_cycles(u32 addr, u32 bytes, unsigned master) {
    assert(master < kNumBuffers);
    u32& buffered = buf_line_[master];
    u32 cycles = 0;
    // Burst in 8-byte beats; a beat outside the buffered line reloads the buffer.
    for (u32 a = align_down(addr, 8); a < addr + bytes; a += 8) {
      const u32 line = align_down(a, kFlashLineBytes);
      if (line == buffered) {
        cycles += kFlashHitCycles;
      } else {
        cycles += kFlashMissCycles;
        buffered = line;
      }
    }
    return cycles;
  }

  void invalidate_buffer() { buf_line_.fill(kInvalidLine); }

 private:
  static constexpr u32 kInvalidLine = 0xffffffffu;
  std::shared_ptr<std::vector<u8>> rom_;  // shared across SoC checkpoints
  std::array<u32, kNumBuffers> buf_line_ = {
      kInvalidLine, kInvalidLine, kInvalidLine, kInvalidLine, kInvalidLine,
      kInvalidLine, kInvalidLine, kInvalidLine, kInvalidLine};
};

}  // namespace detstl::mem
