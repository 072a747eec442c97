#include "mem/cache.h"

#include <algorithm>
#include <compare>

namespace detstl::mem {

namespace {

// Mask and shift of a naturally aligned `size`-byte access at line offset
// `off` within its little-endian word.
u32 lane_shift(u32 off, unsigned size) {
  assert((size == 1 || size == 2 || size == 4) && off % size == 0);
  return 8 * (off % 4);
}
u32 lane_mask(unsigned size) { return size == 4 ? ~0u : (1u << (8 * size)) - 1u; }

}  // namespace

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  assert(is_pow2(cfg.size_bytes) && is_pow2(cfg.ways) && is_pow2(cfg.line_bytes));
  // A line holds one 8-byte fetch packet and travels as one bus burst.
  assert(cfg.line_bytes >= 8 && cfg.line_bytes <= kBusMaxBurstBytes);
  assert(cfg.num_sets() >= 1);
  lines_.resize(cfg.num_sets() * cfg.ways);
}

const Cache::Line* Cache::find(u32 addr) const {
  const u32 set = set_index(addr);
  const u32 tag = tag_of(addr);
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const Line& l = lines_[set * cfg_.ways + w];
    if (l.valid && l.tag == tag) return &l;
  }
  return nullptr;
}

Cache::Line* Cache::find(u32 addr) {
  return const_cast<Line*>(static_cast<const Cache*>(this)->find(addr));
}

void Cache::touch(Line& line) { line.lru = ++lru_clock_; }

bool Cache::lookup(u32 addr) {
  Line* l = find(addr);
  if (l != nullptr) {
    touch(*l);
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  return false;
}

bool Cache::probe(u32 addr) const { return find(addr) != nullptr; }

bool Cache::line_dirty(u32 addr) const {
  const Line* l = find(addr);
  return l != nullptr && l->dirty;
}

const Beats& Cache::line(u32 addr) const {
  const Line* l = find(addr);
  assert(l != nullptr && "non-resident line");
  return l->data;
}

u32 Cache::read(u32 addr, unsigned size) const {
  const Line* l = find(addr);
  assert(l != nullptr && "read from non-resident line");
  const u32 off = addr % cfg_.line_bytes;
  return (l->data[off / 4] >> lane_shift(off, size)) & lane_mask(size);
}

void Cache::write(u32 addr, u32 value, unsigned size) {
  Line* l = find(addr);
  assert(l != nullptr && "write to non-resident line");
  const u32 off = addr % cfg_.line_bytes;
  const u32 shift = lane_shift(off, size);
  const u32 mask = lane_mask(size) << shift;
  u32& word = l->data[off / 4];
  word = (word & ~mask) | ((value << shift) & mask);
  l->dirty = true;
  touch(*l);
}

u32 Cache::victim_way(u32 addr) const {
  const u32 set = set_index(addr);
  u32 best = 0;
  u32 best_lru = ~0u;
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const Line& l = lines_[set * cfg_.ways + w];
    if (!l.valid) return w;  // free way first
    if (l.lru < best_lru) {
      best_lru = l.lru;
      best = w;
    }
  }
  return best;
}

std::optional<u32> Cache::dirty_victim(u32 addr) const {
  const u32 set = set_index(addr);
  const Line& victim = lines_[set * cfg_.ways + victim_way(addr)];
  if (!victim.valid || !victim.dirty) return std::nullopt;
  return base_of(victim, set);
}

void Cache::fill(u32 addr, std::span<const u32> beats) {
  const u32 words = cfg_.line_bytes / 4;
  assert(beats.size() >= words);
  const u32 set = set_index(addr);
  Line& l = lines_[set * cfg_.ways + victim_way(addr)];
  if (l.valid && l.dirty) ++stats_.writebacks;
  ++stats_.refills;
  l.valid = true;
  l.dirty = false;
  l.tag = tag_of(addr);
  std::copy_n(beats.begin(), words, l.data.begin());
  touch(l);
}

void Cache::invalidate_all() {
  for (auto& l : lines_) {
    l.valid = false;
    l.dirty = false;
    l.lru = 0;
  }
  lru_clock_ = 0;
}

bool Cache::same_state(const Cache& o) const {
  if (cfg_ != o.cfg_) return false;
  for (u32 set = 0; set < cfg_.num_sets(); ++set) {
    const Line* a = &lines_[set * cfg_.ways];
    const Line* b = &o.lines_[set * cfg_.ways];
    for (u32 w = 0; w < cfg_.ways; ++w) {
      if (a[w].valid != b[w].valid) return false;
      if (!a[w].valid) continue;
      if (a[w].dirty != b[w].dirty || a[w].tag != b[w].tag || a[w].data != b[w].data)
        return false;
      // victim_way picks the valid line with the lowest stamp, so only the
      // stamps' order among valid lines steers the cache.
      for (u32 v = 0; v < w; ++v)
        if (a[v].valid && (a[v].lru <=> a[w].lru) != (b[v].lru <=> b[w].lru))
          return false;
    }
  }
  return true;
}

u32 Cache::valid_lines() const {
  u32 n = 0;
  for (const auto& l : lines_)
    if (l.valid) ++n;
  return n;
}

bool Cache::invalidate_line(u32 addr) {
  Line* l = find(addr);
  if (l == nullptr) return false;
  l->valid = false;
  l->dirty = false;
  l->lru = 0;
  return true;
}

bool Cache::flip_bit(u32 addr, u32 bit) {
  Line* l = find(addr);
  if (l == nullptr) return false;
  bit %= cfg_.line_bytes * 8;
  l->data[bit / 32] ^= 1u << (bit % 32);
  return true;
}

bool Cache::force_bit(u32 addr, u32 bit, bool value) {
  Line* l = find(addr);
  if (l == nullptr) return false;
  bit %= cfg_.line_bytes * 8;
  const u32 mask = 1u << (bit % 32);
  if (value)
    l->data[bit / 32] |= mask;
  else
    l->data[bit / 32] &= ~mask;
  return true;
}

std::vector<u32> Cache::resident_lines() const {
  std::vector<u32> out;
  out.reserve(lines_.size());
  for (u32 set = 0; set < cfg_.num_sets(); ++set) {
    for (u32 w = 0; w < cfg_.ways; ++w) {
      const Line& l = lines_[set * cfg_.ways + w];
      if (l.valid) out.push_back(base_of(l, set));
    }
  }
  return out;
}

int Cache::way_of(u32 addr) const {
  const u32 set = set_index(addr);
  const u32 tag = tag_of(addr);
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const Line& l = lines_[set * cfg_.ways + w];
    if (l.valid && l.tag == tag) return static_cast<int>(w);
  }
  return -1;
}

}  // namespace detstl::mem
