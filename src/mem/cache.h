#pragma once
// Core-private L1 cache: set-associative, LRU, write-back, configurable
// write-allocate / no-write-allocate (the paper's method prescribes a dummy
// load after each store when the cache is no-write-allocate, Sec. III
// step 1). Invalidate-all discards content including dirty lines — this is
// the initialisation step of the wrapper (Fig. 2b block b).
//
// The cache is a passive tag/data structure; the per-core MemSystem drives
// the miss/refill/writeback sequencing.

#include <cassert>
#include <optional>
#include <span>
#include <vector>

#include "common/bitutil.h"
#include "mem/bus.h"

namespace detstl::mem {

struct CacheConfig {
  u32 size_bytes = 4096;
  u32 ways = 2;
  u32 line_bytes = 32;

  u32 num_sets() const { return size_bytes / (ways * line_bytes); }

  bool operator==(const CacheConfig&) const = default;
};

struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 refills = 0;  // lines installed via fill()
  u64 writebacks = 0;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  const CacheConfig& config() const { return cfg_; }
  CacheStats& stats() { return stats_; }
  const CacheStats& stats() const { return stats_; }

  /// Probe for `addr`; on hit updates LRU and returns true. Counts stats.
  bool lookup(u32 addr);

  /// Probe without side effects (tests/diagnostics).
  bool probe(u32 addr) const;

  /// True if `addr`'s line is resident and dirty.
  bool line_dirty(u32 addr) const;

  /// A resident line's words (the first line_bytes/4 are the line; the
  /// rest stay zero), ready to travel as a writeback's BusReq::wdata.
  const Beats& line(u32 addr) const;

  /// Read `size` bytes (naturally aligned) from a resident line.
  u32 read(u32 addr, unsigned size) const;

  /// Write `size` bytes (naturally aligned) into a resident line, marking
  /// it dirty.
  void write(u32 addr, u32 value, unsigned size);

  /// Choose the victim way for `addr`'s set (LRU). Returns way index.
  u32 victim_way(u32 addr) const;

  /// Base address of the line a fill of `addr` would evict, when that line
  /// is dirty and so needs a writeback first; its data is line(*result).
  std::optional<u32> dirty_victim(u32 addr) const;

  /// Install the line containing `addr` from the first line_bytes/4 words
  /// of `beats`, evicting the LRU victim.
  void fill(u32 addr, std::span<const u32> beats);

  void invalidate_all();

  /// Number of valid lines (diagnostics).
  u32 valid_lines() const;

  /// Clock-blind state equality (soc::same_state): the valid lines' tags,
  /// dirty bits and data, and each set's LRU order among its valid lines.
  /// The LRU stamps themselves grow forever and the stats only count, so
  /// neither is compared; an invalid line's stale fields are never read.
  bool same_state(const Cache& o) const;

  /// Set index `addr` maps to (diagnostics / tracing).
  u32 set_of(u32 addr) const { return set_index(addr); }

  /// Resident way of `addr`'s line, or -1 (diagnostics / tracing; no LRU
  /// side effects).
  int way_of(u32 addr) const;

  // --- disturbance-injection points (runtime::DisturbanceInjector) -------------
  // These model external perturbations — snoop-style invalidations and
  // particle-strike soft errors — so none of them touch the LRU state or the
  // dirty flag: the cache cannot tell a corrupted line from a clean one,
  // which is exactly why the wrapper's signature check exists.

  /// Drop `addr`'s line if resident. Returns true when a line was discarded
  /// (dirty content is lost, like invalidate_all).
  bool invalidate_line(u32 addr);

  /// Toggle one bit of `addr`'s resident line (single-event upset).
  /// `bit` counts from the line base, modulo line_bytes*8. Returns false when
  /// the line is not resident.
  bool flip_bit(u32 addr, u32 bit);

  /// Force one bit of `addr`'s resident line to `value` (stuck-at defect in
  /// the data array). Returns false when the line is not resident.
  bool force_bit(u32 addr, u32 bit, bool value);

  /// Base addresses of every valid line, set-major then way order — a
  /// deterministic enumeration for seeded disturbance targeting.
  std::vector<u32> resident_lines() const;

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    u32 tag = 0;
    u32 lru = 0;  // higher = more recently used
    Beats data{};
  };

  u32 set_index(u32 addr) const { return (addr / cfg_.line_bytes) % cfg_.num_sets(); }
  u32 tag_of(u32 addr) const { return addr / cfg_.line_bytes / cfg_.num_sets(); }
  u32 base_of(const Line& l, u32 set) const {
    return (l.tag * cfg_.num_sets() + set) * cfg_.line_bytes;
  }
  const Line* find(u32 addr) const;
  Line* find(u32 addr);
  void touch(Line& line);

  CacheConfig cfg_;
  std::vector<Line> lines_;  // [set * ways + way]; the cache's one allocation
  CacheStats stats_;
  u32 lru_clock_ = 0;
};

}  // namespace detstl::mem
