#pragma once
// The byte codec and hash behind every on-disk and digest format: checkpoint
// manifests and shards, journalled run records, outcome vectors, canonical
// campaign bytes and their FNV-1a 64 digests. All integers little-endian.

#include <cstddef>
#include <string>
#include <vector>

#include "common/bitutil.h"

namespace detstl {

inline constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr u64 kFnvPrime = 0x100000001b3ull;

/// FNV-1a 64 over a byte range, chainable via `h`.
inline u64 fnv1a(const void* data, std::size_t n, u64 h = kFnvOffset) {
  const u8* p = static_cast<const u8*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline u64 fnv1a(const std::vector<u8>& bytes, u64 h = kFnvOffset) {
  return fnv1a(bytes.data(), bytes.size(), h);
}

/// Store the low `n` bytes of `v` at `p`, least significant first.
inline void store_le(u8* p, u64 v, unsigned n) {
  for (unsigned i = 0; i < n; ++i) p[i] = static_cast<u8>(v >> (8 * i));
}

/// Load `n` little-endian bytes from `p` (the caller checks the bounds).
inline u64 load_le(const u8* p, unsigned n) {
  u64 v = 0;
  for (unsigned i = 0; i < n; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  return v;
}

inline u32 load32(const u8* p) { return static_cast<u32>(load_le(p, 4)); }
inline u64 load64(const u8* p) { return load_le(p, 8); }

inline void put8(std::vector<u8>& out, u8 v) { out.push_back(v); }
inline void put32(std::vector<u8>& out, u32 v) {
  out.resize(out.size() + 4);
  store_le(out.data() + out.size() - 4, v, 4);
}
inline void put64(std::vector<u8>& out, u64 v) {
  out.resize(out.size() + 8);
  store_le(out.data() + out.size() - 8, v, 8);
}
/// u32 length prefix, then the characters.
inline void put_str(std::vector<u8>& out, const std::string& s) {
  put32(out, static_cast<u32>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked little-endian reader. Failure is sticky: once a read runs
/// past the end, ok() stays false and every later read returns zero/empty.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<u8>& b)
      : ByteReader(b.data(), b.size()) {}
  ByteReader(const u8* p, std::size_t n) : p_(p), n_(n) {}

  bool ok() const { return ok_; }
  /// Every byte consumed and no read failed.
  bool at_end() const { return ok_ && pos_ == n_; }

  /// Claim the next `n` bytes: a pointer to them, or null on failure.
  const u8* take(std::size_t n) {
    if (!ok_ || n_ - pos_ < n) {
      ok_ = false;
      return nullptr;
    }
    pos_ += n;
    return p_ + pos_ - n;
  }
  u8 get8() {
    const u8* p = take(1);
    return p != nullptr ? *p : 0;
  }
  /// A 0/1 flag byte. Any other value fails the reader: a loss-less codec
  /// must not accept a flag it would write back differently.
  bool get_flag() {
    const u8 v = get8();
    if (v > 1) ok_ = false;
    return v == 1;
  }
  u32 get32() {
    const u8* p = take(4);
    return p != nullptr ? load32(p) : 0;
  }
  u64 get64() {
    const u8* p = take(8);
    return p != nullptr ? load64(p) : 0;
  }
  /// Inverse of put_str.
  std::string get_str() {
    const u32 n = get32();
    const u8* p = take(n);
    if (p == nullptr) return {};
    return std::string(reinterpret_cast<const char*>(p), n);
  }

 private:
  const u8* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace detstl
