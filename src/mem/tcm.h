#pragma once
// Tightly-Coupled Memory: core-private SRAM with single-cycle (same-cycle)
// access and no bus involvement. Used by the TCM-based comparison strategy of
// Table IV; part of the TCM is then permanently reserved for the test code.

#include <cassert>
#include <vector>

#include "common/bitutil.h"

namespace detstl::mem {

class Tcm {
 public:
  Tcm(u32 base, u32 size) : base_(base), bytes_(size, 0) {}

  bool contains(u32 addr) const { return addr >= base_ && addr < base_ + size(); }
  u32 base() const { return base_; }
  u32 size() const { return static_cast<u32>(bytes_.size()); }

  u8 read8(u32 addr) const {
    assert(contains(addr));
    return bytes_[addr - base_];
  }
  void write8(u32 addr, u8 v) {
    assert(contains(addr));
    bytes_[addr - base_] = v;
  }

  u32 read(u32 addr, unsigned size) const {
    u32 v = 0;
    for (unsigned i = 0; i < size; ++i) v |= static_cast<u32>(read8(addr + i)) << (8 * i);
    return v;
  }
  void write(u32 addr, u32 v, unsigned size) {
    for (unsigned i = 0; i < size; ++i) write8(addr + i, static_cast<u8>(v >> (8 * i)));
  }
  u64 read64(u32 addr) const {
    return static_cast<u64>(read(addr, 4)) | (static_cast<u64>(read(addr + 4, 4)) << 32);
  }

  bool operator==(const Tcm&) const = default;

 private:
  u32 base_;
  std::vector<u8> bytes_;
};

}  // namespace detstl::mem
