#pragma once
// Shared on-chip SRAM behind the system bus. Fixed 2-cycle first access,
// 1 cycle per additional beat of a burst.

#include <cassert>
#include <vector>

#include "common/bitutil.h"
#include "mem/memmap.h"

namespace detstl::mem {

inline constexpr u32 kSramFirstCycles = 2;
inline constexpr u32 kSramBeatCycles = 1;

class Sram {
 public:
  Sram() : bytes_(kSramSize, 0) {}

  u8 read8(u32 addr) const {
    assert(is_sram(addr));
    return bytes_[addr - kSramBase];
  }
  void write8(u32 addr, u8 v) {
    assert(is_sram(addr));
    bytes_[addr - kSramBase] = v;
  }

  u32 read32(u32 addr) const {
    u32 v = 0;
    for (unsigned i = 0; i < 4; ++i) v |= static_cast<u32>(read8(addr + i)) << (8 * i);
    return v;
  }
  void write32(u32 addr, u32 v) {
    for (unsigned i = 0; i < 4; ++i) write8(addr + i, static_cast<u8>(v >> (8 * i)));
  }

  static u32 access_cycles(u32 bytes) {
    const u32 beats = (bytes + 3) / 4;
    return kSramFirstCycles + (beats - 1) * kSramBeatCycles;
  }

  bool operator==(const Sram&) const = default;

 private:
  std::vector<u8> bytes_;
};

}  // namespace detstl::mem
