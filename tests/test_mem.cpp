// Memory subsystem: flash line-buffer timing and the page-shared flash image,
// bus arbitration, cache behaviour (hit/miss, LRU, write-back, allocate
// policies, invalidate), TCM.

#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/memsys.h"
#include "mem/tcm.h"
#include "isa/isa.h"

namespace detstl::mem {
namespace {

// ----------------------------------------------------------------------------
// Flash timing
// ----------------------------------------------------------------------------

TEST(Flash, LineBufferTiming) {
  Flash f;
  // First beat of a line: full access; following beats of the same line: fast.
  EXPECT_EQ(f.access_cycles(kFlashBase, 8, 0), kFlashMissCycles);
  EXPECT_EQ(f.access_cycles(kFlashBase + 8, 8, 0), kFlashHitCycles);
  EXPECT_EQ(f.access_cycles(kFlashBase + 24, 8, 0), kFlashHitCycles);
  // Next line: miss again.
  EXPECT_EQ(f.access_cycles(kFlashBase + 32, 8, 0), kFlashMissCycles);
  // Jumping back: the buffer was replaced.
  EXPECT_EQ(f.access_cycles(kFlashBase, 8, 0), kFlashMissCycles);
}

TEST(Flash, BurstSpanningLines) {
  Flash f;
  // 32-byte refill starting at a line boundary: 1 miss + 3 hits.
  EXPECT_EQ(f.access_cycles(kFlashBase + 64, 32, 1),
            kFlashMissCycles + 3 * kFlashHitCycles);
  // Re-reading the now-buffered line: all hits.
  EXPECT_EQ(f.access_cycles(kFlashBase + 64, 32, 1), 4 * kFlashHitCycles);
}

TEST(Flash, BuffersArePerMaster) {
  Flash f;
  // Two masters streaming different lines keep their own buffers: after one
  // miss each, both stream at hit speed (bus serialisation, not buffer
  // thrash, is the multi-core contention mechanism).
  u32 total = 0;
  for (int i = 0; i < 4; ++i) {
    total += f.access_cycles(kFlashBase + 8 * i, 8, 0);          // master 0
    total += f.access_cycles(kFlashBase + 4096 + 8 * i, 8, 2);   // master 2
  }
  EXPECT_EQ(total, 2 * kFlashMissCycles + 6 * kFlashHitCycles);
  // The same interleaving through ONE master's buffer thrashes.
  f.invalidate_buffer();
  total = 0;
  for (int i = 0; i < 4; ++i) {
    total += f.access_cycles(kFlashBase + 8 * i, 8, 4);
    total += f.access_cycles(kFlashBase + 4096 + 8 * i, 8, 4);
  }
  EXPECT_EQ(total, 8 * kFlashMissCycles);
}

TEST(Flash, ImageReadback) {
  Flash f;
  f.write_image(kFlashBase + 16, {0xde, 0xad, 0xbe, 0xef});
  EXPECT_EQ(f.read32(kFlashBase + 16), 0xefbeaddeu);
}

// ----------------------------------------------------------------------------
// Page-shared flash image
// ----------------------------------------------------------------------------

constexpr u32 kPage = Flash::kPageBytes;

/// `n` bytes counting up from `first`, wrapping at 256.
std::vector<u8> ramp(std::size_t n, u8 first) {
  std::vector<u8> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<u8>(first + i);
  return out;
}

TEST(FlashImage, UnwrittenBytesReadZero) {
  Flash f;
  const u32 last = kFlashBase + kFlashSize - 1;
  EXPECT_EQ(f.read8(kFlashBase), 0u);
  EXPECT_EQ(f.read8(last), 0u);
  EXPECT_EQ(f.read32(kFlashBase), 0u);
  EXPECT_EQ(f.read32(last - 3), 0u);
  // A sub-word load at the window's last byte still reads a whole word.
  EXPECT_EQ(f.read32(last), 0u);

  // One written page leaves both neighbours absent and zero.
  const u32 page5 = kFlashBase + 5 * kPage;
  f.write_image(page5, std::vector<u8>(kPage, 0xa5));
  EXPECT_EQ(f.page(4), nullptr);
  EXPECT_NE(f.page(5), nullptr);
  EXPECT_EQ(f.page(6), nullptr);
  EXPECT_EQ(f.read8(page5 - 1), 0u);
  EXPECT_EQ(f.read32(page5 - 4), 0u);
  EXPECT_EQ(f.read8(page5), 0xa5u);
  EXPECT_EQ(f.read32(page5 + kPage - 4), 0xa5a5a5a5u);
  EXPECT_EQ(f.read8(page5 + kPage), 0u);
  EXPECT_EQ(f.read32(page5 + kPage), 0u);
  // Words that straddle the written page's edges.
  EXPECT_EQ(f.read32(page5 - 2), 0xa5a50000u);
  EXPECT_EQ(f.read32(page5 + kPage - 2), 0x0000a5a5u);
  EXPECT_EQ(f.read8(last), 0u);
}

TEST(FlashImage, WriteAcrossAPageBoundaryReadsBackWhole) {
  Flash f;
  const u32 boundary = kFlashBase + 9 * kPage;
  const std::vector<u8> bytes = ramp(100, 0x30);
  const u32 at = boundary - 37;
  f.write_image(at, bytes);
  EXPECT_NE(f.page(8), nullptr);
  EXPECT_NE(f.page(9), nullptr);
  for (u32 i = 0; i < bytes.size(); ++i)
    ASSERT_EQ(f.read8(at + i), bytes[i]) << "byte " << i;
  for (u32 i = 0; i + 4 <= bytes.size(); ++i) {
    const u32 want = bytes[i] | (bytes[i + 1] << 8) | (bytes[i + 2] << 16) |
                     (static_cast<u32>(bytes[i + 3]) << 24);
    ASSERT_EQ(f.read32(at + i), want) << "word at byte " << i;
  }
  EXPECT_EQ(f.read8(at - 1), 0u);
  EXPECT_EQ(f.read8(at + 100), 0u);
  // A second write over part of the range keeps the rest of both pages.
  f.write_image(boundary - 2, {0xee, 0xee, 0xee, 0xee});
  EXPECT_EQ(f.read32(boundary - 4), 0xeeee0000u | bytes[33] | (bytes[34] << 8));
  EXPECT_EQ(f.read32(boundary), 0xeeeeu | (bytes[39] << 16) |
                                    (static_cast<u32>(bytes[40]) << 24));
  EXPECT_EQ(f.read8(at), bytes[0]);
  EXPECT_EQ(f.read8(at + 99), bytes[99]);
}

TEST(FlashImage, CopiesKeepTheirBytes) {
  Flash original;
  const u32 a = kFlashBase + 2 * kPage + 8;
  const u32 b = kFlashBase + 40 * kPage;
  original.write_image(a, {1, 2, 3, 4});
  original.write_image(b, {5, 6, 7, 8});

  // A copy taken before a write keeps the old bytes.
  const Flash before = original;
  original.write_image(a, {9, 9, 9, 9});
  EXPECT_EQ(before.read32(a), 0x04030201u);
  EXPECT_EQ(original.read32(a), 0x09090909u);
  // The untouched page is shared, not copied.
  EXPECT_EQ(before.page(40), original.page(40));
  EXPECT_NE(before.page(2), original.page(2));

  // A write into a copy never reaches the original (the flash-corruption
  // disturbance on a worker's copy of one plan SoC).
  Flash corrupted = original;
  corrupted.write_image(b, {0xff, 0xff, 0xff, 0xff});
  EXPECT_EQ(corrupted.read32(b), 0xffffffffu);
  EXPECT_EQ(original.read32(b), 0x08070605u);
  EXPECT_EQ(before.read32(b), 0x08070605u);
  EXPECT_EQ(corrupted.page(2), original.page(2));
}

TEST(FlashImage, ConcurrentWritesIntoCopiesOfOneImage) {
  // Workers copy one plan image and write into their copies at the same
  // time; each sees only its own write, the untouched page stays shared and
  // the plan image never changes.
  Flash plan;
  const u32 word = kFlashBase + 3 * kPage + 12;
  plan.write_image(word, {0x11, 0x22, 0x33, 0x44});
  plan.write_image(kFlashBase + 100 * kPage, ramp(kPage, 0));
  constexpr unsigned kWorkers = 4;
  std::array<u32, kWorkers> seen{};
  std::array<bool, kWorkers> shared{};
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&, w] {
      for (unsigned rep = 0; rep < 50; ++rep) {
        Flash copy = plan;
        const u32 corrupted = copy.read32(word) ^ (1u << w);
        std::vector<u8> bytes(4);
        for (unsigned i = 0; i < 4; ++i) bytes[i] = static_cast<u8>(corrupted >> (8 * i));
        copy.write_image(word, bytes);
        seen[w] = copy.read32(word);
        shared[w] = copy.page(100) == plan.page(100);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (unsigned w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(seen[w], 0x44332211u ^ (1u << w)) << "worker " << w;
    EXPECT_TRUE(shared[w]) << "worker " << w;
  }
  EXPECT_EQ(plan.read32(word), 0x44332211u);
}

// ----------------------------------------------------------------------------
// Bus
// ----------------------------------------------------------------------------

struct BusFixture : ::testing::Test {
  Flash flash;
  Sram sram;
  SharedBus bus;

  u32 run_until_complete(unsigned id, u32 limit = 100) {
    u32 cycles = 0;
    while (!bus.complete(id)) {
      bus.tick(flash, sram);
      ++cycles;
      if (cycles > limit) ADD_FAILURE() << "bus transaction did not complete";
      if (cycles > limit) break;
    }
    return cycles;
  }
};

TEST_F(BusFixture, SingleReadLatency) {
  bus.submit(0, BusReq{.addr = kSramBase + 64, .bytes = 4});
  // SRAM word: 2 device cycles + 1 arbitration.
  EXPECT_EQ(run_until_complete(0), kSramFirstCycles + 1);
  // Per-requester accounting: one submit, one uncontended grant (wait == 0)
  // occupying arbitration + device cycles.
  EXPECT_EQ(bus.stats(0).submits, 1u);
  EXPECT_EQ(bus.stats(0).grants, 1u);
  EXPECT_EQ(bus.stats(0).wait_cycles, 0u);
  EXPECT_EQ(bus.stats(0).occupancy_cycles, u64{kSramFirstCycles} + 1);
}

TEST_F(BusFixture, WriteThenReadBack) {
  bus.submit(0, BusReq{.addr = kSramBase, .bytes = 4, .write = true, .wdata = {0x12345678}});
  run_until_complete(0);
  bus.retire(0);
  bus.submit(1, BusReq{.addr = kSramBase, .bytes = 4});
  run_until_complete(1);
  EXPECT_EQ(bus.rdata(1)[0], 0x12345678u);
}

TEST_F(BusFixture, AmoAddReturnsOldValue) {
  sram.write32(kSramBase + 8, 100);
  bus.submit(2, BusReq{.addr = kSramBase + 8, .bytes = 4, .amo_add = true, .wdata = {5}});
  run_until_complete(2);
  EXPECT_EQ(bus.rdata(2)[0], 100u);
  EXPECT_EQ(sram.read32(kSramBase + 8), 105u);
}

TEST_F(BusFixture, ContentionSerialisesRequesters) {
  // Two simultaneous SRAM reads: the second waits for the first.
  bus.submit(0, BusReq{.addr = kSramBase, .bytes = 4});
  bus.submit(1, BusReq{.addr = kSramBase + 4, .bytes = 4});
  u32 t0 = 0, t1 = 0, cycles = 0;
  while (!bus.complete(0) || !bus.complete(1)) {
    bus.tick(flash, sram);
    ++cycles;
    if (bus.complete(0) && t0 == 0) t0 = cycles;
    if (bus.complete(1) && t1 == 0) t1 = cycles;
    ASSERT_LT(cycles, 100u);
  }
  EXPECT_GT(t1, t0);
  EXPECT_GE(t1 - t0, kSramFirstCycles);
  // The winner of the simultaneous submit never waited; the loser waited out
  // the winner's device access (its grant lands on the completion tick).
  EXPECT_EQ(bus.stats(0).wait_cycles, 0u);
  EXPECT_EQ(bus.stats(1).wait_cycles, u64{kSramFirstCycles});
  EXPECT_EQ(bus.stats(0).grants + bus.stats(1).grants, 2u);
}

TEST_F(BusFixture, RoundRobinFairness) {
  // After requester 0 is served, a simultaneous pair (0,1) grants 1 first.
  bus.submit(0, BusReq{.addr = kSramBase, .bytes = 4});
  run_until_complete(0);
  bus.retire(0);
  bus.submit(0, BusReq{.addr = kSramBase, .bytes = 4});
  bus.submit(1, BusReq{.addr = kSramBase + 4, .bytes = 4});
  u32 cycles = 0;
  while (!bus.complete(1)) {
    bus.tick(flash, sram);
    ASSERT_LT(++cycles, 100u);
  }
  // 1 completed while 0 still pending -> 1 was granted first.
  EXPECT_FALSE(bus.complete(0));
}

// ----------------------------------------------------------------------------
// Cache
// ----------------------------------------------------------------------------

CacheConfig small_cfg() { return CacheConfig{.size_bytes = 256, .ways = 2, .line_bytes = 32}; }

std::vector<u32> make_beats(u32 seed) {
  std::vector<u32> b(8);
  for (u32 i = 0; i < 8; ++i) b[i] = seed + i;
  return b;
}

TEST(Cache, MissThenHit) {
  Cache c(small_cfg());
  EXPECT_FALSE(c.lookup(0x1000));
  c.fill(0x1000, make_beats(10));
  EXPECT_TRUE(c.lookup(0x1000));
  EXPECT_TRUE(c.lookup(0x101c));  // same line
  EXPECT_EQ(c.read(0x1004, 4), 11u);
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SubWordReadWrite) {
  Cache c(small_cfg());
  c.fill(0, make_beats(0));
  c.write(2, 0xab, 1);
  EXPECT_EQ(c.read(2, 1), 0xabu);
  EXPECT_EQ(c.read(0, 4) & 0x00ff0000u, 0x00ab0000u);
  EXPECT_TRUE(c.line_dirty(0));
}

TEST(Cache, LruEviction) {
  Cache c(small_cfg());  // 4 sets, 2 ways; set stride = 4*32 = 128
  // Three lines mapping to set 0: 0x0, 0x80, 0x100.
  c.fill(0x000, make_beats(1));
  c.fill(0x080, make_beats(2));
  EXPECT_TRUE(c.probe(0x000));
  c.lookup(0x000);  // touch 0x000 -> 0x080 becomes LRU
  c.fill(0x100, make_beats(3));
  EXPECT_TRUE(c.probe(0x000));
  EXPECT_FALSE(c.probe(0x080));
  EXPECT_TRUE(c.probe(0x100));
}

TEST(Cache, VictimDirtyReportsWritebackData) {
  Cache c(small_cfg());
  c.fill(0x000, make_beats(1));
  c.fill(0x080, make_beats(2));
  c.write(0x004, 0xdeadbeef, 4);  // dirty line 0x000 (LRU after fill of 0x080? no: 0x000 touched by write)
  c.lookup(0x080);                // make 0x080 MRU -> victim is 0x000
  const std::optional<u32> victim = c.dirty_victim(0x100);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0x000u);
  EXPECT_EQ(c.line(*victim)[1], 0xdeadbeefu);
}


TEST(Cache, InvalidateAllDiscardsDirtyData) {
  Cache c(small_cfg());
  c.fill(0, make_beats(7));
  c.write(0, 0x55, 1);
  c.invalidate_all();
  EXPECT_EQ(c.valid_lines(), 0u);
  EXPECT_FALSE(c.probe(0));
}

// ----------------------------------------------------------------------------
// MemSystem port state machines
// ----------------------------------------------------------------------------

struct MemSysFixture : ::testing::Test {
  Flash flash;
  Sram sram;
  SharedBus bus;
  MemSystem ms{0};

  void spin(u32 n = 1) {
    for (u32 i = 0; i < n; ++i) {
      bus.tick(flash, sram);
      ms.tick(bus);
    }
  }

  u32 wait_ifetch(u32 limit = 100) {
    u32 cycles = 0;
    while (!ms.ifetch_done()) {
      spin();
      if (++cycles > limit) {
        ADD_FAILURE() << "ifetch did not complete";
        break;
      }
    }
    return cycles;
  }

  u32 wait_data(u32 limit = 100) {
    u32 cycles = 0;
    while (!ms.data_done()) {
      spin();
      if (++cycles > limit) {
        ADD_FAILURE() << "data op did not complete";
        break;
      }
    }
    return cycles;
  }
};

TEST_F(MemSysFixture, ItcmFetchSameCycle) {
  ms.itcm().write(0x100, 0x11111111, 4);
  ms.itcm().write(0x104, 0x22222222, 4);
  ms.ifetch_request(0x100, bus);
  ASSERT_TRUE(ms.ifetch_done());
  EXPECT_EQ(ms.ifetch_data(), 0x2222222211111111ull);
}

TEST_F(MemSysFixture, UncachedFlashFetchTakesFlashLatency) {
  flash.write_image(kFlashBase, {1, 0, 0, 0, 2, 0, 0, 0});
  ms.ifetch_request(kFlashBase, bus);
  EXPECT_FALSE(ms.ifetch_done());
  const u32 cycles = wait_ifetch();
  EXPECT_GE(cycles, kFlashMissCycles);
  EXPECT_EQ(static_cast<u32>(ms.ifetch_data()), 1u);
}

TEST_F(MemSysFixture, CachedFetchMissThenSameCycleHit) {
  flash.write_image(kFlashBase, std::vector<u8>(64, 0x90));
  ms.set_cache_cfg(isa::kCacheCfgIEn);
  ms.ifetch_request(kFlashBase, bus);
  EXPECT_FALSE(ms.ifetch_done());  // refill in progress
  wait_ifetch();
  ms.ifetch_ack();
  // Same line now hits combinationally.
  ms.ifetch_request(kFlashBase + 8, bus);
  EXPECT_TRUE(ms.ifetch_done());
  EXPECT_EQ(ms.icache().stats().hits, 1u);
  EXPECT_EQ(ms.icache().stats().misses, 1u);
}

TEST_F(MemSysFixture, IfetchCancelDiscardsInFlight) {
  ms.ifetch_request(kFlashBase, bus);
  ms.ifetch_cancel();
  u32 cycles = 0;
  while (ms.ifetch_inflight() != 0) {
    spin();
    ASSERT_LT(++cycles, 100u);
  }
  EXPECT_FALSE(ms.ifetch_done());  // response dropped
}

TEST_F(MemSysFixture, DtcmDataSameCycle) {
  ms.data_request({.addr = kDtcmBase + 8, .size = 4, .write = true, .wdata = 0xcafe}, bus);
  ASSERT_TRUE(ms.data_done());
  ms.data_ack();
  ms.data_request({.addr = kDtcmBase + 8, .size = 4}, bus);
  ASSERT_TRUE(ms.data_done());
  EXPECT_EQ(ms.data_rdata(), 0xcafeu);
}

TEST_F(MemSysFixture, WriteAllocateStoreMissFillsLine) {
  ms.set_cache_cfg(isa::kCacheCfgDEn | isa::kCacheCfgWriteAllocate);
  ms.data_request({.addr = kSramBase + 0x40, .size = 4, .write = true, .wdata = 7}, bus);
  wait_data();
  ms.data_ack();
  EXPECT_TRUE(ms.dcache().probe(kSramBase + 0x40));
  EXPECT_TRUE(ms.dcache().line_dirty(kSramBase + 0x40));
  // SRAM not yet updated (write-back).
  EXPECT_EQ(sram.read32(kSramBase + 0x40), 0u);
  // Subsequent store to the same line: same-cycle hit.
  ms.data_request({.addr = kSramBase + 0x44, .size = 4, .write = true, .wdata = 8}, bus);
  EXPECT_TRUE(ms.data_done());
}

TEST_F(MemSysFixture, NoWriteAllocateStoreMissWritesAround) {
  ms.set_cache_cfg(isa::kCacheCfgDEn);  // no write-allocate
  ms.data_request({.addr = kSramBase + 0x40, .size = 4, .write = true, .wdata = 7}, bus);
  wait_data();
  ms.data_ack();
  EXPECT_FALSE(ms.dcache().probe(kSramBase + 0x40));
  EXPECT_EQ(sram.read32(kSramBase + 0x40), 7u);
}

TEST_F(MemSysFixture, LoadMissAllocatesEitherPolicy) {
  sram.write32(kSramBase + 0x80, 123);
  ms.set_cache_cfg(isa::kCacheCfgDEn);
  ms.data_request({.addr = kSramBase + 0x80, .size = 4}, bus);
  wait_data();
  EXPECT_EQ(ms.data_rdata(), 123u);
  ms.data_ack();
  EXPECT_TRUE(ms.dcache().probe(kSramBase + 0x80));
}

TEST_F(MemSysFixture, DirtyVictimWrittenBack) {
  ms.set_cache_cfg(isa::kCacheCfgDEn | isa::kCacheCfgWriteAllocate);
  const u32 sets = ms.dcache().config().num_sets();
  const u32 stride = sets * 32;
  // Fill both ways of set 0 with dirty lines, then force an eviction.
  for (u32 i = 0; i < 3; ++i) {
    ms.data_request({.addr = kSramBase + i * stride, .size = 4, .write = true,
                     .wdata = 0x100 + i},
                    bus);
    wait_data();
    ms.data_ack();
  }
  // The first line must have been written back to SRAM.
  EXPECT_EQ(sram.read32(kSramBase), 0x100u);
}

TEST_F(MemSysFixture, AmoBypassesAndUpdatesCache) {
  ms.set_cache_cfg(isa::kCacheCfgDEn | isa::kCacheCfgWriteAllocate);
  sram.write32(kSramBase + 0x200, 10);
  // Cache the line first (clean).
  ms.data_request({.addr = kSramBase + 0x200, .size = 4}, bus);
  wait_data();
  ms.data_ack();
  // AMO: returns old value, memory and cached copy updated.
  ms.data_request({.addr = kSramBase + 0x200, .size = 4, .amo_add = true, .wdata = 5}, bus);
  wait_data();
  EXPECT_EQ(ms.data_rdata(), 10u);
  ms.data_ack();
  EXPECT_EQ(sram.read32(kSramBase + 0x200), 15u);
  EXPECT_EQ(ms.dcache().read(kSramBase + 0x200, 4), 15u);
}

TEST_F(MemSysFixture, AmoFlushesDirtyLineFirst) {
  ms.set_cache_cfg(isa::kCacheCfgDEn | isa::kCacheCfgWriteAllocate);
  ms.data_request({.addr = kSramBase + 0x300, .size = 4, .write = true, .wdata = 50}, bus);
  wait_data();
  ms.data_ack();
  ms.data_request({.addr = kSramBase + 0x300, .size = 4, .amo_add = true, .wdata = 1}, bus);
  wait_data();
  EXPECT_EQ(ms.data_rdata(), 50u);  // saw the dirty data, not stale SRAM
  ms.data_ack();
  EXPECT_EQ(sram.read32(kSramBase + 0x300), 51u);
}

TEST_F(MemSysFixture, CacheOpInvalidates) {
  ms.set_cache_cfg(isa::kCacheCfgDEn | isa::kCacheCfgWriteAllocate);
  ms.data_request({.addr = kSramBase + 0x80, .size = 4, .write = true, .wdata = 1}, bus);
  wait_data();
  ms.data_ack();
  ms.cache_op(isa::kCacheOpInvD);
  EXPECT_EQ(ms.dcache().valid_lines(), 0u);
}

TEST(MemSysSmallLines, SixteenByteLinesWriteBackAndFlushWholeLines) {
  // A 16-byte D-cache line travels as a 4-beat burst. Both writeback paths,
  // evicting a dirty victim and flushing a dirty line before an amoadd, must
  // put exactly the line's four words into SRAM and leave the next line alone.
  Flash flash;
  Sram sram;
  SharedBus bus;
  MemSystem ms(0, MemSystemConfig{.dcache = {.size_bytes = 256, .ways = 2,
                                             .line_bytes = 16}});
  ms.set_cache_cfg(isa::kCacheCfgDEn | isa::kCacheCfgWriteAllocate);
  const auto access = [&](const MemSystem::DataOp& op) {
    ms.data_request(op, bus);
    for (u32 cycles = 0; !ms.data_done(); ++cycles) {
      if (cycles > 100) {
        ADD_FAILURE() << "data op did not complete";
        break;
      }
      bus.tick(flash, sram);
      ms.tick(bus);
    }
    const u32 v = ms.data_rdata();
    ms.data_ack();
    return v;
  };
  const auto store_line = [&](u32 base, u32 seed) {
    for (u32 i = 0; i < 4; ++i)
      access({.addr = base + 4 * i, .size = 4, .write = true, .wdata = seed + i});
  };
  constexpr u32 kSentinel = 0x5a5a5a5a;
  const u32 stride = ms.dcache().config().num_sets() * 16;  // same set
  const u32 a = kSramBase + 0x400;
  sram.write32(a + 16, kSentinel);
  store_line(a, 0xa0);
  store_line(a + stride, 0xb0);
  store_line(a + 2 * stride, 0xc0);  // evicts the LRU line, a
  EXPECT_FALSE(ms.dcache().probe(a));
  for (u32 i = 0; i < 4; ++i) EXPECT_EQ(sram.read32(a + 4 * i), 0xa0 + i) << i;
  EXPECT_EQ(sram.read32(a + 16), kSentinel);

  const u32 d = kSramBase + 0x800;
  sram.write32(d + 16, kSentinel);
  store_line(d, 0xd0);
  EXPECT_EQ(access({.addr = d + 8, .size = 4, .amo_add = true, .wdata = 5}), 0xd2u);
  EXPECT_EQ(sram.read32(d + 8), 0xd2u + 5);
  for (u32 i : {0u, 1u, 3u}) EXPECT_EQ(sram.read32(d + 4 * i), 0xd0 + i) << i;
  EXPECT_EQ(sram.read32(d + 16), kSentinel);
  EXPECT_EQ(ms.dcache().read(d + 8, 4), 0xd2u + 5);
}

// ----------------------------------------------------------------------------
// TCM
// ----------------------------------------------------------------------------

TEST(Tcm, ReadWriteRoundTrip) {
  Tcm t(0x1000, 256);
  t.write(0x1010, 0xa5a5a5a5, 4);
  EXPECT_EQ(t.read(0x1010, 4), 0xa5a5a5a5u);
  t.write(0x1014, 0x77, 1);
  EXPECT_EQ(t.read(0x1014, 1), 0x77u);
  EXPECT_TRUE(t.contains(0x10ff));
  EXPECT_FALSE(t.contains(0x1100));
}

}  // namespace
}  // namespace detstl::mem
