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

#include <algorithm>
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

// The ROM image is one immutable table of 4 KiB pages behind a shared_ptr,
// so a SoC copy (a checkpoint, a worker's copy of a plan SoC) shares it for
// the cost of a reference count. A page exists only where write_image wrote;
// an absent page reads as zeros. write_image never writes an image in place:
// it builds a new table that shares every untouched page and holds fresh
// copies of the pages it writes, so every older copy keeps its bytes.
class Flash {
 public:
  static constexpr u32 kPageBytes = 4096;
  static constexpr u32 kNumPages = kFlashSize / kPageBytes;
  using Page = std::array<u8, kPageBytes>;

  Flash() : image_(std::make_shared<const Image>()) {}

  /// Program the ROM image (before simulation; not reachable from the cores).
  void write_image(u32 addr, const std::vector<u8>& bytes) {
    assert(is_flash(addr) && is_flash(addr + static_cast<u32>(bytes.size()) - 1));
    auto next = std::make_shared<Image>(*image_);
    u32 off = addr - kFlashBase;
    for (std::size_t done = 0; done < bytes.size();) {
      const u32 at = off % kPageBytes;
      const u32 n = static_cast<u32>(
          std::min<std::size_t>(kPageBytes - at, bytes.size() - done));
      std::shared_ptr<const Page>& slot = (*next)[off / kPageBytes];
      auto fresh = slot ? std::make_shared<Page>(*slot) : std::make_shared<Page>();
      std::copy_n(bytes.data() + done, n, fresh->begin() + at);
      slot = std::move(fresh);
      off += n;
      done += n;
    }
    image_ = std::move(next);
  }

  /// Page `index` of the image (flash offsets index * kPageBytes onwards),
  /// or null where nothing was written: those bytes read as zeros.
  const Page* page(u32 index) const { return (*image_)[index].get(); }

  u8 read8(u32 addr) const {
    assert(is_flash(addr));
    const u32 off = addr - kFlashBase;
    const Page* p = page(off / kPageBytes);
    return p ? (*p)[off % kPageBytes] : 0;
  }

  u32 read32(u32 addr) const {
    assert(is_flash(addr));
    const u32 off = addr - kFlashBase;
    const u32 at = off % kPageBytes;
    if (at > kPageBytes - 4) {
      // A byte or halfword load near a page's end: the bus still reads a
      // whole word, whose upper bytes lie in the next page (or past the
      // flash window, where they read as zeros).
      u32 v = 0;
      for (u32 i = 0; i < 4 && is_flash(addr + i); ++i)
        v |= static_cast<u32>(read8(addr + i)) << (8 * i);
      return v;
    }
    const Page* p = page(off / kPageBytes);
    if (p == nullptr) return 0;
    const u8* w = p->data() + at;
    return static_cast<u32>(w[0]) | (static_cast<u32>(w[1]) << 8) |
           (static_cast<u32>(w[2]) << 16) | (static_cast<u32>(w[3]) << 24);
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

  /// State equality (soc::same_state): the line buffers and the image. The
  /// image compares by pointer: copies share one table and every load builds
  /// a new one, so one pointer means one content, and two tables that hold
  /// the same bytes read as different, which errs on the safe side.
  bool same_state(const Flash& o) const {
    return image_ == o.image_ && buf_line_ == o.buf_line_;
  }

 private:
  using Image = std::array<std::shared_ptr<const Page>, kNumPages>;
  static constexpr u32 kInvalidLine = 0xffffffffu;
  std::shared_ptr<const Image> image_;  // shared across SoC copies
  std::array<u32, kNumBuffers> buf_line_ = {
      kInvalidLine, kInvalidLine, kInvalidLine, kInvalidLine, kInvalidLine,
      kInvalidLine, kInvalidLine, kInvalidLine, kInvalidLine};
};

}  // namespace detstl::mem
