// ISA layer: encoding round-trips, operand classification, assembler fixups,
// disassembler smoke checks, ALU semantics.

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "isa/alu.h"
#include "isa/assembler.h"
#include "isa/disasm.h"
#include "isa/encoding.h"

namespace detstl::isa {
namespace {

// ----------------------------------------------------------------------------
// Encode/decode round-trip over every opcode (parameterised sweep)
// ----------------------------------------------------------------------------

class RoundTrip : public ::testing::TestWithParam<unsigned> {};

Instr sample_for(Op op) {
  Instr in;
  in.op = op;
  switch (op_class(op)) {
    case OpClass::kAlu:
    case OpClass::kMulDiv:
      if (is_r64(op)) {
        in.rd = 4; in.rs1 = 6; in.rs2 = 8;
      } else {
        in.rd = 3; in.rs1 = 7; in.rs2 = 12;
      }
      if (!reads_rs2(in)) {
        in.rs2 = 0;
        switch (op) {
          case Op::kSlli: case Op::kSrli: case Op::kSrai: in.imm = 13; break;
          case Op::kAndi: case Op::kOri: case Op::kXori: case Op::kLui:
          case Op::kSltiu: in.imm = 0xabcd; break;
          default: in.imm = -1234; break;
        }
      }
      break;
    case OpClass::kMem:
      in.rd = 5; in.rs1 = 9; in.imm = -64;
      if (is_store(op)) { in.rs2 = 11; in.rd = 0; }
      if (op == Op::kAmoAdd) { in.rd = 5; in.rs2 = 11; in.imm = 0; }
      break;
    case OpClass::kBranch:
      if (op == Op::kJal) { in.rd = 31; in.imm = -2048; }
      else if (op == Op::kJalr) { in.rd = 31; in.rs1 = 4; in.imm = 16; }
      else { in.rs1 = 2; in.rs2 = 14; in.imm = 256; }
      break;
    case OpClass::kSys:
      if (op == Op::kCsrr) { in.rd = 6; in.csr = 0x123; }
      if (op == Op::kCsrw) { in.rs1 = 6; in.csr = 0x123; }
      break;
    case OpClass::kInvalid:
      break;
  }
  return in;
}

TEST_P(RoundTrip, EncodeDecode) {
  const Op op = static_cast<Op>(GetParam());
  if (op == Op::kInvalid) GTEST_SKIP();
  const Instr in = sample_for(op);
  const u32 word = encode(in);
  const Instr out = decode(word);
  EXPECT_EQ(out.op, in.op) << mnemonic(op);
  EXPECT_EQ(out.rd, writes_rd(in) || op == Op::kAmoAdd || op == Op::kJal ||
                            op == Op::kJalr || op == Op::kCsrr
                        ? in.rd
                        : out.rd);
  if (reads_rs1(in)) {
    EXPECT_EQ(out.rs1, in.rs1) << mnemonic(op);
  }
  if (reads_rs2(in)) {
    EXPECT_EQ(out.rs2, in.rs2) << mnemonic(op);
  }
  if (op != Op::kCsrr && op != Op::kCsrw && op_class(op) != OpClass::kSys) {
    EXPECT_EQ(out.imm, in.imm) << mnemonic(op);
  }
  EXPECT_EQ(out.csr, in.csr) << mnemonic(op);
}

INSTANTIATE_TEST_SUITE_P(AllOps, RoundTrip,
                         ::testing::Range(0u, static_cast<unsigned>(Op::kInvalid)));

TEST(Decode, UnknownMajorIsInvalid) {
  EXPECT_EQ(decode(0xffffffffu).op, Op::kInvalid);
  EXPECT_EQ(decode(0x00000000u).op, Op::kInvalid);  // major 0 is reserved
}

TEST(Decode, TotalOverRandomWordsAndFixpoint) {
  // The decoder must be total (random words never crash, worst case
  // kInvalid), and for any word that decodes to a valid instruction,
  // re-encoding the decoded form reproduces an equivalent decode
  // (ignore dead bits the encoding does not capture).
  Rng rng(0xD15A);
  unsigned valid = 0;
  for (int i = 0; i < 200000; ++i) {
    const u32 w = rng.next_u32();
    const Instr d = decode(w);
    if (d.op == Op::kInvalid) continue;
    ++valid;
    const Instr d2 = decode(encode(d));
    EXPECT_EQ(d2.op, d.op);
    EXPECT_EQ(d2.rd, d.rd);
    EXPECT_EQ(d2.rs1, d.rs1);
    EXPECT_EQ(d2.rs2, d.rs2);
    EXPECT_EQ(d2.imm, d.imm);
    EXPECT_EQ(d2.csr, d.csr);
  }
  EXPECT_GT(valid, 1000u);  // the opcode space is reasonably populated
}

// ----------------------------------------------------------------------------
// Classification
// ----------------------------------------------------------------------------

TEST(Classify, LoadsStores) {
  EXPECT_TRUE(is_load(Op::kLw));
  EXPECT_TRUE(is_load(Op::kAmoAdd));
  EXPECT_TRUE(is_store(Op::kSb));
  EXPECT_TRUE(is_store(Op::kAmoAdd));
  EXPECT_FALSE(is_load(Op::kSw));
  EXPECT_FALSE(is_store(Op::kLw));
}

TEST(Classify, StoreDoesNotWriteRd) {
  Instr sw{.op = Op::kSw, .rs1 = 1, .rs2 = 2};
  EXPECT_FALSE(writes_rd(sw));
  EXPECT_TRUE(reads_rs1(sw));
  EXPECT_TRUE(reads_rs2(sw));
}

TEST(Classify, ImmediateOpsDontReadRs2) {
  Instr addi{.op = Op::kAddi, .rd = 1, .rs1 = 2, .imm = 5};
  EXPECT_FALSE(reads_rs2(addi));
  Instr lui{.op = Op::kLui, .rd = 1, .imm = 5};
  EXPECT_FALSE(reads_rs1(lui));
}

TEST(Classify, R64Group) {
  EXPECT_TRUE(is_r64(Op::kAdd64));
  EXPECT_TRUE(is_r64(Op::kAddv64));
  EXPECT_FALSE(is_r64(Op::kAdd));
}

// ----------------------------------------------------------------------------
// ALU semantics
// ----------------------------------------------------------------------------

TEST(Alu, AddvOverflow) {
  auto r = alu32(Op::kAddv, 0x7fffffffu, 1);
  EXPECT_TRUE(r.overflow);
  EXPECT_EQ(r.value, 0x80000000u);
  r = alu32(Op::kAddv, 5, 7);
  EXPECT_FALSE(r.overflow);
}

TEST(Alu, SubvOverflow) {
  auto r = alu32(Op::kSubv, 0x80000000u, 1);
  EXPECT_TRUE(r.overflow);
  r = alu32(Op::kSubv, 10, 3);
  EXPECT_FALSE(r.overflow);
  EXPECT_EQ(r.value, 7u);
}

TEST(Alu, DivByZero) {
  auto r = alu32(Op::kDiv, 42, 0);
  EXPECT_TRUE(r.div_by_zero);
  EXPECT_EQ(r.value, 0xffffffffu);
  r = alu32(Op::kRem, 42, 0);
  EXPECT_TRUE(r.div_by_zero);
  EXPECT_EQ(r.value, 42u);
}

TEST(Alu, DivOverflowSaturates) {
  auto r = alu32(Op::kDiv, 0x80000000u, 0xffffffffu);
  EXPECT_FALSE(r.div_by_zero);
  EXPECT_EQ(r.value, 0x80000000u);
  r = alu32(Op::kRem, 0x80000000u, 0xffffffffu);
  EXPECT_EQ(r.value, 0u);
}

TEST(Alu, ShiftsMaskAmount) {
  EXPECT_EQ(alu32(Op::kSll, 1, 33).value, 2u);
  EXPECT_EQ(alu32(Op::kSra, 0x80000000u, 31).value, 0xffffffffu);
  EXPECT_EQ(alu32(Op::kSrl, 0x80000000u, 31).value, 1u);
}

TEST(Alu, MulhSigned) {
  EXPECT_EQ(alu32(Op::kMulh, 0xffffffffu, 2).value, 0xffffffffu);  // -1*2 hi
  EXPECT_EQ(alu32(Op::kMulh, 0x40000000u, 4).value, 1u);
}

TEST(Alu, Lui) { EXPECT_EQ(alu32(Op::kLui, 0, 0xabcd).value, 0xabcd0000u); }

TEST(Alu, Alu64AddvOverflow) {
  auto r = alu64(Op::kAddv64, 0x7fffffffffffffffull, 1);
  EXPECT_TRUE(r.overflow);
  r = alu64(Op::kAddv64, 1, 2);
  EXPECT_FALSE(r.overflow);
  EXPECT_EQ(r.value, 3u);
}

TEST(Alu, BranchPredicates) {
  EXPECT_TRUE(branch_taken(Op::kBeq, 5, 5));
  EXPECT_TRUE(branch_taken(Op::kBne, 5, 6));
  EXPECT_TRUE(branch_taken(Op::kBlt, 0xffffffffu, 0));   // -1 < 0 signed
  EXPECT_FALSE(branch_taken(Op::kBltu, 0xffffffffu, 0)); // unsigned
  EXPECT_TRUE(branch_taken(Op::kBge, 0, 0));
  EXPECT_TRUE(branch_taken(Op::kBgeu, 0xffffffffu, 1));
}

// ----------------------------------------------------------------------------
// Assembler
// ----------------------------------------------------------------------------

TEST(Assembler, ForwardAndBackwardBranches) {
  Assembler a(0x1000);
  a.label("top");
  a.addi(R1, R1, 1);
  a.bne(R1, R2, "top");
  a.beq(R1, R2, "end");
  a.nop();
  a.label("end");
  a.halt();
  const Program p = a.assemble();
  ASSERT_EQ(p.segments().size(), 1u);
  // bne at 0x1004 targets 0x1000 -> imm = -4
  const Instr bne = decode(p.segments()[0].bytes[4] |
                           (p.segments()[0].bytes[5] << 8) |
                           (p.segments()[0].bytes[6] << 16) |
                           (p.segments()[0].bytes[7] << 24));
  EXPECT_EQ(bne.op, Op::kBne);
  EXPECT_EQ(bne.imm, -4);
}

TEST(Assembler, LiExpandsToTwoInstructions) {
  Assembler a(0);
  a.li(R5, 0xdeadbeef);
  const Program p = a.assemble();
  EXPECT_EQ(p.size_bytes(), 8u);
  const auto& b = p.segments()[0].bytes;
  const Instr lui = decode(b[0] | (b[1] << 8) | (b[2] << 16) | (b[3] << 24));
  const Instr ori = decode(b[4] | (b[5] << 8) | (b[6] << 16) | (b[7] << 24));
  EXPECT_EQ(lui.op, Op::kLui);
  EXPECT_EQ(static_cast<u32>(lui.imm), 0xdeadu);
  EXPECT_EQ(ori.op, Op::kOri);
  EXPECT_EQ(static_cast<u32>(ori.imm), 0xbeefu);
}

TEST(Assembler, LaResolvesAbsoluteAddress) {
  Assembler a(0x10000000);
  a.la(R4, "data");
  a.halt();
  a.org(0x10000100);
  a.label("data");
  a.word(42);
  const Program p = a.assemble();
  EXPECT_EQ(p.symbol("data"), 0x10000100u);
}

TEST(Assembler, UndefinedLabelThrows) {
  Assembler a(0);
  a.beq(R1, R2, "nowhere");
  EXPECT_THROW(a.assemble(), AsmError);
}

TEST(Assembler, DuplicateLabelThrows) {
  Assembler a(0);
  a.label("x");
  EXPECT_THROW(a.label("x"), AsmError);
}

TEST(Assembler, OverlappingEmissionThrows) {
  Assembler a(0);
  a.nop();
  a.org(0);
  EXPECT_THROW(a.nop(), AsmError);
}

TEST(Assembler, ImmediateRangeChecks) {
  Assembler a(0);
  EXPECT_THROW(a.addi(R1, R0, 40000), AsmError);
  EXPECT_THROW(a.slli(R1, R1, 32), AsmError);
  EXPECT_THROW(a.andi(R1, R1, 0x10000), AsmError);
}

TEST(Assembler, R64RequiresEvenRegisters) {
  Assembler a(0);
  EXPECT_THROW(a.add64(R3, R2, R4), AsmError);
  a.add64(R2, R4, R6);  // fine
}

TEST(Assembler, AlignPadsWithNops) {
  Assembler a(4);
  a.align(16);
  a.label("here");
  const Program p = a.assemble();
  EXPECT_EQ(p.symbol("here"), 16u);
  EXPECT_EQ(p.size_bytes(), 12u);  // three NOPs
}

TEST(Assembler, EntryLabel) {
  Assembler a(0x1000);
  a.nop();
  a.label("main");
  a.halt();
  a.set_entry("main");
  EXPECT_EQ(a.assemble().entry(), 0x1004u);
}

// ----------------------------------------------------------------------------
// Disassembler
// ----------------------------------------------------------------------------

TEST(Disasm, Formats) {
  EXPECT_EQ(disasm(Instr{.op = Op::kAdd, .rd = 3, .rs1 = 1, .rs2 = 2}),
            "add    r3, r1, r2");
  EXPECT_EQ(disasm(Instr{.op = Op::kLw, .rd = 5, .rs1 = 9, .imm = -4}),
            "lw     r5, -4(r9)");
  EXPECT_EQ(disasm(Instr{.op = Op::kHalt}), "halt");
}

// ----------------------------------------------------------------------------
// Pinned ISA facts: the exact decode, disassembly, re-encoding and per-op
// metadata over a structured sweep of the encoding space: every major
// opcode x every 11-bit low field (the funct) x 8 patterns for bits [25:11]
// that set and clear both the imm16 sign bit (15) and the imm21 sign bit
// (20). The expected digests are the encoding's spec, captured before the
// opcode table existed: never edit them to make a change pass.
// ----------------------------------------------------------------------------

constexpr u32 kMidPatterns[] = {0x0000, 0x7fff, 0x0010, 0x0200,
                                0x5555, 0x2aaa, 0x4321, 0x1bcd};

struct Digest {
  u64 h = kFnvOffset;
  void add(u64 v) { h = fnv1a(&v, sizeof v, h); }
  void add(std::string_view s) {
    add(s.size());
    h = fnv1a(s.data(), s.size(), h);
  }
};

template <class F>
void sweep(F&& f) {
  for (u32 major = 0; major < 64; ++major)
    for (const u32 mid : kMidPatterns)
      for (u32 low = 0; low < 2048; ++low) f(major << 26 | mid << 11 | low);
}

TEST(IsaPin, DecodeFieldsOfEveryWordShape) {
  Digest d;
  u64 words = 0, valid = 0;
  sweep([&](u32 w) {
    const Instr in = decode(w);
    ++words;
    valid += in.valid();
    d.add(static_cast<u64>(in.op));
    d.add(in.rd);
    d.add(in.rs1);
    d.add(in.rs2);
    d.add(static_cast<u32>(in.imm));
    d.add(in.csr);
    d.add(in.raw);
  });
  EXPECT_EQ(words, 1048576u);
  EXPECT_EQ(valid, 491752u);
  EXPECT_EQ(d.h, 0xa70b68022b49cb19ull);
}

TEST(IsaPin, DisassemblyOfEveryWordShape) {
  Digest d;
  sweep([&](u32 w) { d.add(disasm_word(w)); });
  EXPECT_EQ(d.h, 0xe21a77aa657bd616ull);
}

TEST(IsaPin, ReEncodingOfEveryValidWord) {
  Digest d;
  sweep([&](u32 w) {
    const Instr in = decode(w);
    if (in.valid()) d.add(encode(in));
  });
  EXPECT_EQ(d.h, 0xcbc97491e2c8c79cull);
}

TEST(IsaPin, MetadataOfEveryOp) {
  Digest d;
  for (unsigned i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    const Instr in{.op = op, .rd = 3, .rs1 = 5, .rs2 = 7, .imm = -8};
    d.add(static_cast<u64>(op_class(op)));
    d.add(mnemonic(op));
    d.add(is_r64(op));
    d.add(is_load(op));
    d.add(is_store(op));
    d.add(is_branch(op));
    d.add(is_jump(op));
    d.add(is_muldiv(op));
    d.add(mem_size(op));
    d.add(writes_rd(in));
    d.add(reads_rs1(in));
    d.add(reads_rs2(in));
    d.add(falls_through(in));
    d.add(direct_target(in, 0x1000).value_or(0xffffffffu));
  }
  EXPECT_EQ(d.h, 0x436cf8ea8d5a2658ull);
}

}  // namespace
}  // namespace detstl::isa
