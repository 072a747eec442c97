// SoC-level properties: value-semantic checkpointing (the fault engine's
// foundation), flat SoC state (heap allocations per copy, per run and per
// fresh SoC), the pinned image fingerprint, start staggers, activity
// isolation, loaders and debug access.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/routines.h"
#include "core/stl.h"
#include "fault/checkpoint.h"
#include "testutil.h"

namespace detstl {
namespace {

// Every heap allocation this test binary makes, and the bytes it asked for;
// the replaceable global allocation functions at the bottom of the file
// count into them.
std::atomic<u64> g_allocations{0};
std::atomic<u64> g_allocated_bytes{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

using namespace isa;
using isa::Assembler;

isa::Program counting_program(u32 base, u32 sram_slot) {
  Assembler a(base);
  a.li(R10, sram_slot);
  a.addi(R1, R0, 0);
  a.li(R2, 500);
  a.label("loop");
  a.addi(R1, R1, 3);
  a.sw(R1, R10, 0);
  a.addi(R2, R2, -1);
  a.bne(R2, R0, "loop");
  a.halt();
  return a.assemble();
}

// ----------------------------------------------------------------------------
// Checkpoint copy semantics
// ----------------------------------------------------------------------------

/// Three uncached cores running counting_program.
soc::Soc counting_soc() {
  soc::Soc s;
  for (unsigned c = 0; c < 3; ++c) {
    const auto p = counting_program(mem::kFlashBase + 0x2000 + c * 0x10000,
                                    mem::kSramBase + 0x6000 + c * 64);
    s.load_program(p);
    s.set_boot(c, p.entry());
  }
  return s;
}

/// The tools' quickstart scenario: the cache-wrapped `fwd` routine on cores
/// A-C at their core::quickstart_env placements, loaded but not yet reset.
soc::Soc quickstart_soc() {
  const auto routine = core::make_fwd_test(false);
  soc::Soc s;
  for (unsigned c = 0; c < 3; ++c) {
    const auto bt = core::build_wrapped(*routine, core::WrapperKind::kCacheBased,
                                        core::quickstart_env(c, true));
    s.load_program(bt.prog);
    s.set_boot(c, bt.prog.entry());
  }
  return s;
}

/// Tick until `ready` holds; false if the run halts or times out first.
template <typename Pred>
bool run_until(soc::Soc& s, Pred ready) {
  while (!ready(s)) {
    if (s.all_halted() || s.now() > 1'000'000) return false;
    s.tick();
  }
  return true;
}

bool refill_in_flight(const soc::Soc& s) {
  for (unsigned c = 0; c < s.num_cores(); ++c) {
    const mem::MemSystem& ms = s.core(c).memsys();
    if (ms.icache().stats().misses > ms.icache().stats().refills) return true;
  }
  return false;
}

bool dirty_dline_resident(const soc::Soc& s) {
  for (unsigned c = 0; c < s.num_cores(); ++c) {
    const mem::Cache& d = s.core(c).memsys().dcache();
    for (const u32 line : d.resident_lines())
      if (d.line_dirty(line)) return true;
  }
  return false;
}

void expect_same_cache(const mem::Cache& a, const mem::Cache& b, unsigned core) {
  ASSERT_EQ(a.resident_lines(), b.resident_lines()) << "core " << core;
  for (const u32 line : a.resident_lines()) {
    EXPECT_EQ(a.line(line), b.line(line)) << "core " << core << " line " << line;
    EXPECT_EQ(a.line_dirty(line), b.line_dirty(line)) << "core " << core;
  }
  EXPECT_EQ(a.stats().hits, b.stats().hits) << "core " << core;
  EXPECT_EQ(a.stats().refills, b.stats().refills) << "core " << core;
  EXPECT_EQ(a.stats().writebacks, b.stats().writebacks) << "core " << core;
}

/// Copy `s`, then tick the original and the copy `ticks` more times (0 = to
/// halt): registers, counters, cache residency and line words, bus stats,
/// the mailboxes and all of SRAM must match.
void expect_copy_continues(soc::Soc& s, u64 ticks) {
  soc::Soc copy = s;
  if (ticks == 0) {
    ASSERT_FALSE(s.run(1'000'000).timed_out);
    ASSERT_FALSE(copy.run(1'000'000).timed_out);
  }
  for (u64 i = 0; i < ticks; ++i) {
    s.tick();
    copy.tick();
  }
  EXPECT_EQ(copy.now(), s.now());
  for (unsigned c = 0; c < 3; ++c) {
    for (unsigned r = 0; r < isa::kNumRegs; ++r)
      ASSERT_EQ(copy.core(c).reg(r), s.core(c).reg(r)) << "core " << c << " r" << r;
    EXPECT_EQ(copy.core(c).perf().cycles, s.core(c).perf().cycles);
    EXPECT_EQ(copy.core(c).perf().instret, s.core(c).perf().instret);
    EXPECT_EQ(copy.core(c).perf().if_stalls, s.core(c).perf().if_stalls);
    EXPECT_EQ(copy.core(c).perf().mem_stalls, s.core(c).perf().mem_stalls);
    EXPECT_EQ(copy.core(c).halted(), s.core(c).halted());
    expect_same_cache(copy.core(c).memsys().icache(), s.core(c).memsys().icache(), c);
    expect_same_cache(copy.core(c).memsys().dcache(), s.core(c).memsys().dcache(), c);
    for (u32 w = 0; w < soc::kMailboxStride; w += 4)
      EXPECT_EQ(copy.debug_read32(soc::mailbox_addr(c) + w),
                s.debug_read32(soc::mailbox_addr(c) + w)) << "core " << c;
  }
  EXPECT_EQ(copy.bus().transactions(), s.bus().transactions());
  for (unsigned id = 0; id < mem::kMaxBusRequesters; ++id) {
    const mem::BusStats& a = copy.bus().stats(id);
    const mem::BusStats& b = s.bus().stats(id);
    EXPECT_EQ(a.grants, b.grants) << "requester " << id;
    EXPECT_EQ(a.wait_cycles, b.wait_cycles) << "requester " << id;
    EXPECT_EQ(a.occupancy_cycles, b.occupancy_cycles) << "requester " << id;
    EXPECT_EQ(a.max_wait_cycles, b.max_wait_cycles) << "requester " << id;
  }
  for (u32 a = mem::kSramBase; a < mem::kSramBase + mem::kSramSize; a += 4)
    ASSERT_EQ(copy.sram().read32(a), s.sram().read32(a)) << std::hex << a;
}

TEST(SocCheckpoint, CopyIsBitExactContinuation) {
  // Snapshot mid-run, then run the original and the copy on: every piece of
  // state must match. This is the invariant the fault campaign's checkpoint
  // restore rests on. Inputs: three uncached counting cores at cycle 700,
  // and the cached three-core quickstart run while a line refill is in
  // flight and while a dirty D-cache line is resident.
  soc::Soc counting = counting_soc();
  counting.reset();
  for (int i = 0; i < 700; ++i) counting.tick();
  expect_copy_continues(counting, 900);

  for (bool (*ready)(const soc::Soc&) : {refill_in_flight, dirty_dline_resident}) {
    soc::Soc s = quickstart_soc();
    s.reset();
    ASSERT_TRUE(run_until(s, ready));
    expect_copy_continues(s, 0);
    for (unsigned c = 0; c < 3; ++c)
      EXPECT_EQ(s.debug_read32(soc::mailbox_addr(c)), soc::kStatusPass) << "core " << c;
  }
}

TEST(SocFlatState, CopyAndCachedRunStayOffTheHeap) {
  // A SoC copy allocates only its fixed-size arrays (the core vector, two
  // cache line arrays and two TCMs per core, SRAM), never one object per
  // cache line; a cached three-core run allocates nothing from reset to halt.
  soc::Soc s = quickstart_soc();
  u64 before = g_allocations.load();
  s.reset();
  const soc::Soc::RunResult r = s.run(1'000'000);
  EXPECT_EQ(g_allocations.load() - before, 0u) << "reset to halt";
  ASSERT_FALSE(r.timed_out);

  before = g_allocations.load();
  const soc::Soc copy = s;
  EXPECT_LE(g_allocations.load() - before, 32u) << "one copy";
  EXPECT_EQ(copy.now(), s.now());
}

TEST(SocFlatState, FreshSocAndOneLoadCostTheirImage) {
  // The flash ROM holds only the pages a load wrote: a fresh SoC plus one
  // single-segment load allocates its SRAM, TCMs and caches and one small
  // page table, never a 2 MiB ROM or a copy of one.
  const isa::Program p =
      counting_program(mem::kFlashBase + 0x2000, mem::kSramBase + 0x6000);
  ASSERT_EQ(p.segments().size(), 1u);
  const u64 before = g_allocated_bytes.load();
  soc::Soc s;
  s.load_program(p);
  EXPECT_LT(g_allocated_bytes.load() - before, 1u << 20);
  const isa::Segment& seg = p.segments().front();
  for (u32 i = 0; i < seg.bytes.size(); ++i)
    ASSERT_EQ(s.flash().read8(seg.base + i), seg.bytes[i]) << "byte " << i;
}

TEST(SocImage, FingerprintIsPinned) {
  // The manifests of every supervised campaign hash this fingerprint, so it
  // must not move: an empty SoC, and the sim-MHz probe's three-core image
  // (the plain-wrapped `fwd` routine on cores A-C).
  EXPECT_EQ(fault::soc_image_fingerprint(soc::Soc{}), 0xea92525c10ed77e4ull);
  const auto routine = core::make_fwd_test(false);
  soc::Soc s;
  for (unsigned c = 0; c < 3; ++c) {
    const auto bt = core::build_wrapped(*routine, core::WrapperKind::kPlain,
                                        core::quickstart_env(c, true));
    s.load_program(bt.prog);
    s.set_boot(c, bt.prog.entry());
  }
  EXPECT_EQ(fault::soc_image_fingerprint(s), 0xe287c249f9f72200ull);
}

TEST(SocCheckpoint, CopyDivergesIndependently) {
  soc::Soc s;
  const auto p = counting_program(mem::kFlashBase + 0x2000, mem::kSramBase + 0x6000);
  s.load_program(p);
  s.set_boot(0, p.entry());
  s.reset();
  for (int i = 0; i < 300; ++i) s.tick();
  soc::Soc copy = s;
  for (int i = 0; i < 400; ++i) s.tick();  // only the original advances
  EXPECT_GT(s.core(0).perf().cycles, copy.core(0).perf().cycles);
  // The copy continues from exactly where it was snapshot.
  const u64 before = copy.core(0).perf().cycles;
  copy.tick();
  EXPECT_EQ(copy.core(0).perf().cycles, before + 1);
}

// ----------------------------------------------------------------------------
// Clock-blind state equality (soc::same_state)
// ----------------------------------------------------------------------------

/// The cached quickstart run once a dirty D-cache line is resident and
/// core A holds a valid pipeline latch: caches, latches and bus all busy.
soc::Soc busy_soc() {
  soc::Soc s = quickstart_soc();
  s.reset();
  EXPECT_TRUE(run_until(s, dirty_dline_resident));
  EXPECT_TRUE(run_until(s, [](const soc::Soc& now) {
    soc::Soc probe = now;
    return probe.core(0).inject_pipeline_upset(0);
  }));
  return s;
}

/// The quickstart run to halt and then on until every in-flight bus
/// transaction has landed: from here on only the clocks move.
soc::Soc drained_soc() {
  soc::Soc s = quickstart_soc();
  s.reset();
  EXPECT_FALSE(s.run(1'000'000).timed_out);
  for (int i = 0; i < 64; ++i) s.tick();
  return s;
}

TEST(SameState, ACopyEqualsItsOriginal) {
  const soc::Soc s = busy_soc();
  const soc::Soc copy = s;
  EXPECT_TRUE(soc::same_state(copy, s));
  EXPECT_TRUE(soc::same_state(s, s));
}

TEST(SameState, AHaltedSocTickedOnStaysEqual) {
  const soc::Soc s = drained_soc();
  soc::Soc later = s;
  for (int i = 0; i < 100; ++i) later.tick();
  later.core(0).perf().cycles += 7;
  later.core(1).memsys().dcache().stats().hits += 3;
  EXPECT_EQ(later.now(), s.now() + 100);
  EXPECT_EQ(later.bus().now(), s.bus().now() + 100);
  EXPECT_TRUE(soc::same_state(later, s));
}

TEST(SameState, CachesCompareTagsDirtyBitsDataAndLruOrder) {
  // 64 sets of two 32-byte ways: x and y share a set.
  const mem::CacheConfig cfg{.size_bytes = 4096, .ways = 2, .line_bytes = 32};
  const u32 x = mem::kSramBase + 0x100, y = x + 64 * 32;
  const mem::Beats words{1, 2, 3, 4, 5, 6, 7, 8};
  mem::Cache a(cfg);
  a.fill(x, words);
  a.fill(y, words);
  // Stamps x=2, y=3 against x=1, y=2 and another hit count: same order.
  mem::Cache b(cfg);
  b.fill(x, words);
  ASSERT_TRUE(b.lookup(x));
  b.fill(y, words);
  EXPECT_TRUE(a.same_state(b));
  EXPECT_TRUE(b.same_state(a));

  const auto differs = [&](const char* what, auto&& change) {
    mem::Cache c = a;
    change(c);
    EXPECT_FALSE(a.same_state(c)) << what;
    EXPECT_FALSE(c.same_state(a)) << what;
  };
  differs("LRU order", [&](mem::Cache& c) { ASSERT_TRUE(c.lookup(x)); });
  differs("line data", [&](mem::Cache& c) { ASSERT_TRUE(c.flip_bit(y, 40)); });
  // y is the most recent line, so the write's touch keeps the order.
  differs("dirty bit", [&](mem::Cache& c) { c.write(y, c.read(y, 4), 4); });
  differs("tag", [&](mem::Cache& c) {
    // x's way holds another line of the set, with the same words and stamp.
    c = mem::Cache(cfg);
    c.fill(x + 2 * 64 * 32, words);
    c.fill(y, words);
  });
}

TEST(SameState, EachSingleChangeIsADifference) {
  const auto differs = [](const soc::Soc& base, const char* what, auto&& change) {
    soc::Soc s = base;
    change(s);
    EXPECT_FALSE(soc::same_state(s, base)) << what;
    EXPECT_FALSE(soc::same_state(base, s)) << what;
  };
  const soc::Soc busy = busy_soc();
  differs(busy, "register", [](soc::Soc& s) { s.core(1).set_reg(7, s.core(1).reg(7) ^ 1); });
  differs(busy, "latch result",
          [](soc::Soc& s) { ASSERT_TRUE(s.core(0).inject_pipeline_upset(0)); });
  differs(busy, "SRAM byte", [](soc::Soc& s) { s.flip_ram_bit(mem::kSramBase + 0x7000, 3); });
  differs(busy, "TCM byte", [](soc::Soc& s) {
    mem::Tcm& t = s.core(2).memsys().dtcm();
    t.write8(mem::kDtcmBase + 9, t.read8(mem::kDtcmBase + 9) ^ 0x10);
  });
  differs(busy, "cache line data", [](soc::Soc& s) {
    for (unsigned c = 0; c < s.num_cores(); ++c) {
      mem::Cache& d = s.core(c).memsys().dcache();
      if (!d.resident_lines().empty()) {
        ASSERT_TRUE(d.flip_bit(d.resident_lines().front(), 5));
        return;
      }
    }
    FAIL() << "no resident D-cache line";
  });

  const soc::Soc drained = drained_soc();
  differs(drained, "bus slot", [](soc::Soc& s) {
    s.bus().submit(4, mem::BusReq{.addr = mem::kSramBase, .bytes = 4});
  });
  differs(drained, "flash line buffer", [](soc::Soc& s) {
    (void)s.flash().access_cycles(mem::kFlashBase + 0x40000, 8, 3);
  });
}

TEST(SameState, AnIcuFlopIsADifference) {
  // Core A enables every interrupt source but leaves mstatus.IE clear, so
  // an event sets the pending bits and runs the two-stage synchroniser
  // without ever trapping. The same event one cycle apart leaves the two
  // SoCs differing only in the synchroniser's second flop: the pending
  // bits and the ICU's latched output agree.
  Assembler a(mem::kFlashBase + 0x2000);
  a.li(R1, (1u << isa::kNumIcuSources) - 1);
  a.csrw(Csr::kMie, R1);
  a.label("spin");
  a.addi(R2, R2, 1);
  a.jal(R0, "spin");
  const isa::Program p = a.assemble();
  soc::Soc early;
  early.load_program(p);
  early.set_boot(0, p.entry());
  early.reset();
  for (int i = 0; i < 200; ++i) early.tick();
  ASSERT_EQ(early.core(0).csr_read(Csr::kMie), (1u << isa::kNumIcuSources) - 1);
  soc::Soc late = early;

  early.core(0).inject_icu_event(1);
  early.tick();
  late.tick();
  late.core(0).inject_icu_event(1);
  early.tick();
  late.tick();
  ASSERT_NE(early.core(0).icu_state().state(), late.core(0).icu_state().state());
  ASSERT_EQ(early.core(0).icu_state().pending(), late.core(0).icu_state().pending());
  ASSERT_EQ(early.core(0).csr_read(Csr::kMip), late.core(0).csr_read(Csr::kMip));
  EXPECT_FALSE(soc::same_state(early, late));
}

// ----------------------------------------------------------------------------
// Determinism across identical runs
// ----------------------------------------------------------------------------

TEST(SocDeterminism, IdenticalRunsProduceIdenticalCycleCounts) {
  auto once = [] {
    soc::Soc s(soc::SocConfig{.start_delay = {0, 4, 9}});
    for (unsigned c = 0; c < 3; ++c) {
      const auto p = counting_program(mem::kFlashBase + 0x2000 + c * 0x10000,
                                      mem::kSramBase + 0x6000 + c * 64);
      s.load_program(p);
      s.set_boot(c, p.entry());
    }
    s.reset();
    s.run(1'000'000);
    return std::array<u64, 3>{s.core(0).perf().cycles, s.core(1).perf().cycles,
                              s.core(2).perf().cycles};
  };
  EXPECT_EQ(once(), once());
}

TEST(SocDeterminism, StaggerChangesTimingNotResults) {
  auto run_with = [](std::array<u32, 3> stagger) {
    soc::Soc s(soc::SocConfig{.start_delay = stagger});
    for (unsigned c = 0; c < 3; ++c) {
      const auto p = counting_program(mem::kFlashBase + 0x2000 + c * 0x10000,
                                      mem::kSramBase + 0x6000 + c * 64);
      s.load_program(p);
      s.set_boot(c, p.entry());
    }
    s.reset();
    s.run(1'000'000);
    return s;
  };
  auto s1 = run_with({0, 0, 0});
  auto s2 = run_with({3, 11, 6});
  for (unsigned c = 0; c < 3; ++c) {
    // Architectural results identical...
    EXPECT_EQ(s1.core(c).reg(1), s2.core(c).reg(1));
    EXPECT_EQ(s1.debug_read32(mem::kSramBase + 0x6000 + c * 64),
              s2.debug_read32(mem::kSramBase + 0x6000 + c * 64));
  }
  // ...but the contention timing differs for at least one core.
  bool timing_differs = false;
  for (unsigned c = 0; c < 3; ++c)
    timing_differs |= s1.core(c).perf().if_stalls != s2.core(c).perf().if_stalls;
  EXPECT_TRUE(timing_differs);
}

// ----------------------------------------------------------------------------
// Activity isolation
// ----------------------------------------------------------------------------

TEST(SocIsolation, InactiveCoresGenerateNoTraffic) {
  auto cycles_with = [](unsigned actives) {
    soc::Soc s;
    for (unsigned c = 0; c < actives; ++c) {
      const auto p = counting_program(mem::kFlashBase + 0x2000 + c * 0x10000,
                                      mem::kSramBase + 0x6000 + c * 64);
      s.load_program(p);
      s.set_boot(c, p.entry());
    }
    s.reset();
    s.run(1'000'000);
    return s.core(0).perf().cycles;
  };
  const u64 solo = cycles_with(1);
  const u64 trio = cycles_with(3);
  EXPECT_GT(trio, solo);  // contention slows core 0 down
}

TEST(SocIsolation, PrivateTcmsArePerCore) {
  soc::Soc s;
  for (unsigned c = 0; c < 2; ++c) {
    Assembler a(mem::kFlashBase + 0x2000 + c * 0x10000);
    a.li(R1, mem::kDtcmBase + 0x20);
    a.li(R2, 0x1000 + c);
    a.sw(R2, R1, 0);
    a.halt();
    const auto p = a.assemble();
    s.load_program(p);
    s.set_boot(c, p.entry());
  }
  s.reset();
  s.run(100000);
  EXPECT_EQ(s.debug_read32(0, mem::kDtcmBase + 0x20), 0x1000u);
  EXPECT_EQ(s.debug_read32(1, mem::kDtcmBase + 0x20), 0x1001u);
}

// ----------------------------------------------------------------------------
// Loader + debug access
// ----------------------------------------------------------------------------

TEST(SocLoader, SegmentsReachFlashAndSram) {
  Assembler a(mem::kFlashBase + 0x3000);
  a.word(0x11223344);
  a.org(mem::kSramBase + 0x500);
  a.word(0x55667788);
  soc::Soc s;
  s.load_program(a.assemble());
  EXPECT_EQ(s.debug_read32(mem::kFlashBase + 0x3000), 0x11223344u);
  EXPECT_EQ(s.debug_read32(mem::kSramBase + 0x500), 0x55667788u);
}

TEST(SocLoader, DebugReadSeesDirtyCacheLines) {
  // A store sitting dirty in a write-back D$ must be visible to the debug
  // view (the harness reads verdicts this way when caches stay enabled).
  Assembler a(mem::kFlashBase);
  a.li(R1, isa::kCacheOpInvD);
  a.csrw(Csr::kCacheOp, R1);
  a.li(R1, isa::kCacheCfgDEn | isa::kCacheCfgWriteAllocate);
  a.csrw(Csr::kCacheCfg, R1);
  a.li(R10, mem::kSramBase + 0x5000);
  a.li(R2, 0xfeedface);
  a.sw(R2, R10, 0);
  a.halt();
  auto s = test::run_single_core(a.assemble());
  EXPECT_EQ(s.sram().read32(mem::kSramBase + 0x5000), 0u);  // still dirty
  EXPECT_EQ(s.debug_read32(mem::kSramBase + 0x5000), 0xfeedfaceu);
}

}  // namespace
}  // namespace detstl

// Replaceable global allocation functions: count, then allocate with malloc
// (every form, so new/delete pairs stay matched under the sanitizers). The
// deletes stay out of line: inlined, gcc pairs their free() with the
// caller's `new` and warns of a mismatch.
void* operator new(std::size_t n) {
  if (void* p = detstl::counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return detstl::counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return detstl::counted_alloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
