#include "netlist/adapters.h"

#include <algorithm>

namespace detstl::netlist {
namespace {

u64 hash_key(const u64* key, std::size_t words) {
  u64 h = words;
  for (std::size_t i = 0; i < words; ++i) {
    // MurmurHash3's 64-bit finaliser per word: every key bit reaches the
    // low bits that pick the slot.
    h ^= key[i];
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
  }
  return h;
}

}  // namespace

u32 KeyTable::find_or_add(const u64* key) {
  if (2 * (static_cast<std::size_t>(size_) + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash_key(key, words_) & mask;; i = (i + 1) & mask) {
    const u32 s = slots_[i];
    if (s == 0) {
      keys_.insert(keys_.end(), key, key + words_);
      slots_[i] = ++size_;
      return size_ - 1;
    }
    if (std::equal(key, key + words_, keys_.data() + (s - 1) * words_))
      return s - 1;
  }
}

void KeyTable::clear() {
  size_ = 0;
  keys_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
}

void KeyTable::grow() {
  slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0);
  const std::size_t mask = slots_.size() - 1;
  for (u32 e = 0; e < size_; ++e) {
    std::size_t i = hash_key(keys_.data() + e * words_, words_) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = e + 1;
  }
}

}  // namespace detstl::netlist
