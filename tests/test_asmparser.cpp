// Textual assembler: syntax coverage, error reporting, equivalence with the
// builder API, and an executable end-to-end program.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "isa/asmparser.h"
#include "isa/assembler.h"
#include "isa/disasm.h"
#include "testutil.h"

namespace detstl::isa {
namespace {

u32 word_at(const Program& p, u32 addr) {
  for (const auto& seg : p.segments()) {
    if (addr >= seg.base && addr + 4 <= seg.end()) {
      u32 v = 0;
      for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<u32>(seg.bytes[addr - seg.base + i]) << (8 * i);
      return v;
    }
  }
  ADD_FAILURE() << "address not in program";
  return 0;
}

TEST(AsmParser, MatchesBuilderOutput) {
  const char* src = R"(
    ; a small function
    .org 0x10002000
    main:
      li    r10, 0x20001000
      addi  r1, r0, 5
      add   r2, r1, r1
      sw    r2, 4(r10)
      lw    r3, 4(r10)
      beq   r3, r2, ok
      nop
    ok:
      jal   r31, leaf
      halt
    leaf:
      slli  r4, r1, 3
      ret
    table:
      .word 0xcafef00d
      .word main
  )";
  const Program parsed = assemble_text(src);

  Assembler a(0x10002000);
  a.label("main");
  a.li(R10, 0x20001000);
  a.addi(R1, R0, 5);
  a.add(R2, R1, R1);
  a.sw(R2, R10, 4);
  a.lw(R3, R10, 4);
  a.beq(R3, R2, "ok");
  a.nop();
  a.label("ok");
  a.jal(R31, "leaf");
  a.halt();
  a.label("leaf");
  a.slli(R4, R1, 3);
  a.ret();
  a.label("table");
  a.word(0xcafef00d);
  a.word_label("main");
  const Program built = a.assemble();

  ASSERT_EQ(parsed.segments().size(), built.segments().size());
  for (std::size_t i = 0; i < parsed.segments().size(); ++i) {
    EXPECT_EQ(parsed.segments()[i].base, built.segments()[i].base);
    EXPECT_EQ(parsed.segments()[i].bytes, built.segments()[i].bytes);
  }
}

TEST(AsmParser, ParsedProgramExecutes) {
  const char* src = R"(
    .org 0x10002000
    .entry main
    main:
      addi r1, r0, 0
      addi r2, r0, 10
    loop:
      add  r1, r1, r2
      addi r2, r2, -1
      bne  r2, r0, loop
      halt
  )";
  auto s = test::run_single_core(assemble_text(src));
  EXPECT_TRUE(s.core(0).halted());
  EXPECT_EQ(s.core(0).reg(1), 55u);  // 10+9+...+1
}

TEST(AsmParser, CsrAndSystemOps) {
  const char* src = R"(
    .org 0x10002000
      csrr r4, 0x030     ; core id
      csrw 0x021, r0     ; cache cfg
      eret
      halt
  )";
  const Program p = assemble_text(src);
  const Instr csrr = decode(word_at(p, 0x10002000));
  EXPECT_EQ(csrr.op, Op::kCsrr);
  EXPECT_EQ(csrr.csr, 0x030);
  EXPECT_EQ(decode(word_at(p, 0x10002008)).op, Op::kEret);
}

TEST(AsmParser, AmoAndNegativeOffsets) {
  const char* src = R"(
    .org 0x10002000
      amoadd r5, (r10), r2
      sw     r5, -8(r10)
      lb     r6, -1(r10)
  )";
  const Program p = assemble_text(src);
  const Instr amo = decode(word_at(p, 0x10002000));
  EXPECT_EQ(amo.op, Op::kAmoAdd);
  EXPECT_EQ(amo.rd, 5);
  EXPECT_EQ(amo.rs1, 10);
  EXPECT_EQ(amo.rs2, 2);
  const Instr sw = decode(word_at(p, 0x10002004));
  EXPECT_EQ(sw.imm, -8);
}

TEST(AsmParser, AlignAndSpace) {
  const char* src = R"(
    .org 0x1000
      nop
    .align 16
    here:
      .space 8
    after:
      .word 1
  )";
  const Program p = assemble_text(src);
  EXPECT_EQ(p.symbol("here"), 0x1010u);
  EXPECT_EQ(p.symbol("after"), 0x1018u);
}

TEST(AsmParser, ErrorsCarryLineNumbers) {
  try {
    assemble_text("  nop\n  bogus r1, r2\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(AsmParser, BadRegisterRejected) {
  EXPECT_THROW(assemble_text("add r1, r2, r32\n"), ParseError);
  EXPECT_THROW(assemble_text("add r1, r2, x3\n"), ParseError);
}

TEST(AsmParser, WrongOperandCountRejected) {
  EXPECT_THROW(assemble_text("add r1, r2\n"), ParseError);
  EXPECT_THROW(assemble_text("lw r1, r2, 4\n"), ParseError);
}

TEST(AsmParser, UndefinedLabelRejected) {
  EXPECT_THROW(assemble_text("beq r0, r0, nowhere\n"), ParseError);
}

TEST(AsmParser, UnknownDirectiveRejected) {
  EXPECT_THROW(assemble_text(".bogus 1\n"), ParseError);
}

TEST(AsmParser, OperandsThatDoNotFitAreRejected) {
  // Each line is a one-line ParseError on its own line number, never a
  // silently narrowed or dropped operand.
  for (const char* line :
       {"addi r1, r0, 0x100000001", "addi r1, r0, -0x80000001",
        "lw r1, 0x100000004(r2)", "li r1, 0x100000000", "csrr r4, 0x10002",
        "csrw -1, r4", ".org 0x100001000", ".org -4", ".word 0x1ffffffff",
        ".space -1", ".align -8", "halt r1", "nop r3, r4", "eret 5",
        "ret r31", "lui r1", "jal", "jalr r1, r2"}) {
    SCOPED_TRACE(line);
    try {
      assemble_text(std::string("  nop\n  ") + line + "\n");
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 2u) << e.what();
    }
  }
  // The bounds themselves assemble.
  const Program p = assemble_text(
      ".org 0x1000\n"
      "  .word -0x80000000\n"
      "  .word 0xffffffff\n"
      "  csrr r4, 0xffff\n"
      "  lui r1, 0xffff\n"
      "  addi r1, r0, 0xffffffff\n");
  EXPECT_EQ(word_at(p, 0x1000), 0x80000000u);
  EXPECT_EQ(word_at(p, 0x1004), 0xffffffffu);
  EXPECT_EQ(decode(word_at(p, 0x1008)).csr, 0xffff);
  EXPECT_EQ(decode(word_at(p, 0x100c)).imm, 0xffff);
  EXPECT_EQ(decode(word_at(p, 0x1010)).imm, -1);
}

TEST(AsmParser, EveryTableMnemonicIsAccepted) {
  // The parser reads kOpTable: a row's mnemonic assembles to that op.
  const std::map<Format, std::string> operands = {
      {Format::kR, "r2, r4, r6"},  {Format::kR64, "r2, r4, r6"},
      {Format::kAmo, "r2, (r4), r6"}, {Format::kI, "r2, r4, 3"},
      {Format::kLui, "r2, 3"},     {Format::kLoad, "r2, 4(r4)"},
      {Format::kStore, "r2, 4(r4)"}, {Format::kBranch, "r2, r4, here"},
      {Format::kJal, "r2, here"},  {Format::kCsrr, "r2, 3"},
      {Format::kCsrw, "3, r2"},    {Format::kNone, ""}};
  for (const OpRow& row : kOpTable) {
    if (row.op == Op::kInvalid) continue;
    const std::string src =
        "here:\n  " + std::string(row.mnemonic) + " " + operands.at(row.fmt) + "\n";
    EXPECT_EQ(decode(word_at(assemble_text(src), 0)).op, row.op) << src;
  }
}

TEST(AsmParser, RoundTripThroughDisassembler) {
  // Disassemble a builder program and re-assemble the text: encodings match.
  // `li` comes back as the `lui` + `ori` it expands to.
  Assembler a(0x2000);
  a.add(R3, R1, R2);
  a.addi(R4, R3, -100);
  a.lw(R5, R4, 12);
  a.sw(R5, R4, 16);
  a.mul(R6, R5, R5);
  a.li(R7, 0xdeadbeef);
  a.srai(R8, R7, 31);
  a.add64(R10, R12, R14);
  a.amoadd(R9, R4, R3);
  a.jalr(R31, R9, -8);
  a.eret();
  a.halt();
  const Program orig = a.assemble();

  std::string text = ".org 0x2000\n";
  for (u32 addr = 0x2000; addr < 0x2000 + orig.size_bytes(); addr += 4)
    text += disasm_word(word_at(orig, addr)) + "\n";
  const Program round = assemble_text(text);
  ASSERT_EQ(round.segments().size(), 1u);
  EXPECT_EQ(round.segments()[0].bytes, orig.segments()[0].bytes);
}

}  // namespace
}  // namespace detstl::isa
