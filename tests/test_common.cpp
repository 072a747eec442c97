// Common utilities: bit helpers, the byte codec and FNV-1a, deterministic
// RNG, table rendering.

#include <gtest/gtest.h>

#include "common/bitutil.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/table.h"

namespace detstl {
namespace {

TEST(BitUtil, BitsAndSext) {
  EXPECT_EQ(bits(0xdeadbeef, 31, 28), 0xdu);
  EXPECT_EQ(bits(0xdeadbeef, 7, 0), 0xefu);
  EXPECT_EQ(bits(0xffffffff, 31, 0), 0xffffffffu);
  EXPECT_EQ(bit(0x80000000u, 31), 1u);
  EXPECT_EQ(sext(0x8000, 16), -32768);
  EXPECT_EQ(sext(0x7fff, 16), 32767);
  EXPECT_EQ(sext(0xff, 8), -1);
  EXPECT_EQ(zext(0xffff1234, 16), 0x1234u);
}

TEST(BitUtil, FitsRanges) {
  EXPECT_TRUE(fits_signed(32767, 16));
  EXPECT_FALSE(fits_signed(32768, 16));
  EXPECT_TRUE(fits_signed(-32768, 16));
  EXPECT_FALSE(fits_signed(-32769, 16));
  EXPECT_TRUE(fits_unsigned(65535, 16));
  EXPECT_FALSE(fits_unsigned(65536, 16));
}

TEST(BitUtil, Alignment) {
  EXPECT_EQ(align_down(0x1234, 16), 0x1230u);
  EXPECT_EQ(align_up(0x1234, 16), 0x1240u);
  EXPECT_EQ(align_up(0x1240, 16), 0x1240u);
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(96));
  EXPECT_EQ(log2u(4096), 12u);
}

TEST(Bytes, Fnv1aKnownAnswers) {
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a(std::vector<u8>{'a'}), 0xaf63dc4c8601ec8cull);
  // Chaining over a split buffer equals one pass over the whole.
  EXPECT_EQ(fnv1a("b", 1, fnv1a("a", 1)), fnv1a("ab", 2));
}

TEST(Bytes, LittleEndianRoundTrip) {
  std::vector<u8> out;
  put8(out, 0xa5);
  put32(out, 0x01020304u);
  put64(out, 0x1122334455667788ull);
  put_str(out, "hi");
  const std::vector<u8> want{0xa5, 0x04, 0x03, 0x02, 0x01, 0x88, 0x77, 0x66, 0x55,
                             0x44, 0x33, 0x22, 0x11, 2,    0,    0,    0,    'h', 'i'};
  EXPECT_EQ(out, want);
  EXPECT_EQ(load32(out.data() + 1), 0x01020304u);
  EXPECT_EQ(load64(out.data() + 5), 0x1122334455667788ull);

  ByteReader rd(out);
  EXPECT_EQ(rd.get8(), 0xa5u);
  EXPECT_EQ(rd.get32(), 0x01020304u);
  EXPECT_EQ(rd.get64(), 0x1122334455667788ull);
  EXPECT_EQ(rd.get_str(), "hi");
  EXPECT_TRUE(rd.at_end());
}

TEST(Bytes, ReaderFailsStickyOnTruncation) {
  const std::vector<u8> three{1, 2, 3};
  ByteReader rd(three);
  EXPECT_EQ(rd.get32(), 0u);  // needs 4 bytes, only 3 left
  EXPECT_FALSE(rd.ok());
  EXPECT_EQ(rd.get8(), 0u);  // sticky: even a read that would fit fails now
  EXPECT_FALSE(rd.ok());
  EXPECT_FALSE(rd.at_end());

  // A length prefix promising more bytes than remain.
  std::vector<u8> str;
  put_str(str, "abc");
  str.pop_back();
  ByteReader rs(str);
  EXPECT_EQ(rs.get_str(), "");
  EXPECT_FALSE(rs.ok());

  ByteReader partial(three);
  EXPECT_EQ(partial.get8(), 1u);
  EXPECT_TRUE(partial.ok());
  EXPECT_FALSE(partial.at_end());  // bytes left over
}

TEST(Rng, DeterministicStreams) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const u64 va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const u64 v = r.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
  // chance(): rough sanity on the acceptance rate.
  unsigned hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(hits, 2500u, 300u);
}

TEST(TextTable, FormatsAndAligns) {
  TextTable t("Title");
  t.header({"name", "value"});
  t.row({"alpha", TextTable::fmt_int(1234567)});
  t.separator();
  t.row({"beta", TextTable::fmt_fixed(3.14159, 2)});
  t.row({"gamma", TextTable::fmt_hex(0xbeef)});
  const std::string s = t.str();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("1,234,567"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("0x0000beef"), std::string::npos);
  // All rendered lines of the box have the same width.
  std::size_t width = 0;
  std::size_t pos = s.find('\n') + 1;  // skip the title line
  while (pos < s.size()) {
    const std::size_t nl = s.find('\n', pos);
    const std::size_t len = nl - pos;
    if (width == 0) width = len;
    EXPECT_EQ(len, width);
    pos = nl + 1;
  }
}

TEST(TextTable, NegativeAndShortRows) {
  EXPECT_EQ(TextTable::fmt_int(-1234567), "-1,234,567");
  EXPECT_EQ(TextTable::fmt_int(0), "0");
  TextTable t("");
  t.header({"a", "b", "c"});
  t.row({"only-one"});  // short rows pad with empty cells
  EXPECT_NE(t.str().find("only-one"), std::string::npos);
}

}  // namespace
}  // namespace detstl
