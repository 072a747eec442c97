#pragma once
// In-memory assembler with a builder-style API. The STL routine generators in
// src/core emit code through this interface; labels are resolved at
// assemble() time. All pseudo-instructions expand to a *fixed* number of
// machine instructions so that routine sizes are predictable (required for
// the cache-fitting rule of the paper's methodology, Sec. III step 2.2).

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/encoding.h"
#include "isa/program.h"

namespace detstl::isa {

/// Error thrown for undefined/duplicate labels and out-of-range operands.
class AsmError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Assembler {
 public:
  explicit Assembler(u32 origin = 0) : pc_(origin) {}

  // --- location control -----------------------------------------------------
  void org(u32 addr) { pc_ = addr; }
  u32 here() const { return pc_; }
  /// Pad with NOPs to an `alignment`-byte boundary (code).
  void align(u32 alignment);
  /// Pad with zero bytes to an `alignment`-byte boundary (data).
  void align_data(u32 alignment);

  void label(const std::string& name);
  void set_entry(const std::string& name) { entry_label_ = name; }

  // --- data ------------------------------------------------------------------
  void word(u32 value);
  void word_label(const std::string& name);  // 32-bit absolute address of label
  void space(u32 nbytes);

  // --- R-type ALU -------------------------------------------------------------
  void add(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kAdd, rd, rs1, rs2); }
  void sub(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSub, rd, rs1, rs2); }
  void and_(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kAnd, rd, rs1, rs2); }
  void or_(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kOr, rd, rs1, rs2); }
  void xor_(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kXor, rd, rs1, rs2); }
  void nor_(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kNor, rd, rs1, rs2); }
  void slt(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSlt, rd, rs1, rs2); }
  void sltu(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSltu, rd, rs1, rs2); }
  void sll(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSll, rd, rs1, rs2); }
  void srl(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSrl, rd, rs1, rs2); }
  void sra(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSra, rd, rs1, rs2); }
  void mul(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kMul, rd, rs1, rs2); }
  void mulh(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kMulh, rd, rs1, rs2); }
  void div(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kDiv, rd, rs1, rs2); }
  void divu(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kDivu, rd, rs1, rs2); }
  void rem(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kRem, rd, rs1, rs2); }
  void addv(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kAddv, rd, rs1, rs2); }
  void subv(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSubv, rd, rs1, rs2); }
  void amoadd(Reg rd, Reg rs1_addr, Reg rs2) { emit_r(Op::kAmoAdd, rd, rs1_addr, rs2); }

  // --- R64 group (core C) ------------------------------------------------------
  void add64(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kAdd64, rd, rs1, rs2); }
  void sub64(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSub64, rd, rs1, rs2); }
  void and64(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kAnd64, rd, rs1, rs2); }
  void or64(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kOr64, rd, rs1, rs2); }
  void xor64(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kXor64, rd, rs1, rs2); }
  void slt64(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSlt64, rd, rs1, rs2); }
  void sll64(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSll64, rd, rs1, rs2); }
  void srl64(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSrl64, rd, rs1, rs2); }
  void sra64(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kSra64, rd, rs1, rs2); }
  void addv64(Reg rd, Reg rs1, Reg rs2) { emit_r(Op::kAddv64, rd, rs1, rs2); }

  // --- I-type ALU ---------------------------------------------------------------
  void addi(Reg rd, Reg rs1, i32 imm) { emit_i(Op::kAddi, rd, rs1, imm); }
  void andi(Reg rd, Reg rs1, u32 imm) { emit_i(Op::kAndi, rd, rs1, static_cast<i32>(imm)); }
  void ori(Reg rd, Reg rs1, u32 imm) { emit_i(Op::kOri, rd, rs1, static_cast<i32>(imm)); }
  void xori(Reg rd, Reg rs1, u32 imm) { emit_i(Op::kXori, rd, rs1, static_cast<i32>(imm)); }
  void slti(Reg rd, Reg rs1, i32 imm) { emit_i(Op::kSlti, rd, rs1, imm); }
  void sltiu(Reg rd, Reg rs1, u32 imm) { emit_i(Op::kSltiu, rd, rs1, static_cast<i32>(imm)); }
  void slli(Reg rd, Reg rs1, u32 sh) { emit_i(Op::kSlli, rd, rs1, static_cast<i32>(sh)); }
  void srli(Reg rd, Reg rs1, u32 sh) { emit_i(Op::kSrli, rd, rs1, static_cast<i32>(sh)); }
  void srai(Reg rd, Reg rs1, u32 sh) { emit_i(Op::kSrai, rd, rs1, static_cast<i32>(sh)); }
  void lui(Reg rd, u32 imm16) { emit_i(Op::kLui, rd, R0, static_cast<i32>(imm16)); }
  void nop() { addi(R0, R0, 0); }

  // --- memory ----------------------------------------------------------------
  void lw(Reg rd, Reg base, i32 off) { emit_i(Op::kLw, rd, base, off); }
  void lh(Reg rd, Reg base, i32 off) { emit_i(Op::kLh, rd, base, off); }
  void lhu(Reg rd, Reg base, i32 off) { emit_i(Op::kLhu, rd, base, off); }
  void lb(Reg rd, Reg base, i32 off) { emit_i(Op::kLb, rd, base, off); }
  void lbu(Reg rd, Reg base, i32 off) { emit_i(Op::kLbu, rd, base, off); }
  void sw(Reg data, Reg base, i32 off) { emit_s(Op::kSw, data, base, off); }
  void sh(Reg data, Reg base, i32 off) { emit_s(Op::kSh, data, base, off); }
  void sb(Reg data, Reg base, i32 off) { emit_s(Op::kSb, data, base, off); }

  // --- control flow -------------------------------------------------------------
  void beq(Reg rs1, Reg rs2, const std::string& target) { emit_b(Op::kBeq, rs1, rs2, target); }
  void bne(Reg rs1, Reg rs2, const std::string& target) { emit_b(Op::kBne, rs1, rs2, target); }
  void blt(Reg rs1, Reg rs2, const std::string& target) { emit_b(Op::kBlt, rs1, rs2, target); }
  void bge(Reg rs1, Reg rs2, const std::string& target) { emit_b(Op::kBge, rs1, rs2, target); }
  void bltu(Reg rs1, Reg rs2, const std::string& target) { emit_b(Op::kBltu, rs1, rs2, target); }
  void bgeu(Reg rs1, Reg rs2, const std::string& target) { emit_b(Op::kBgeu, rs1, rs2, target); }
  void jal(Reg rd, const std::string& target);
  void jal(const std::string& target) { jal(R31, target); }
  void jalr(Reg rd, Reg rs1, i32 off = 0) { emit_i(Op::kJalr, rd, rs1, off); }
  void ret() { jalr(R0, R31, 0); }

  // --- system ----------------------------------------------------------------
  void csrr(Reg rd, Csr csr) {
    emit(Instr{.op = Op::kCsrr, .rd = rd, .csr = static_cast<u16>(csr)});
  }
  void csrw(Csr csr, Reg rs1) {
    emit(Instr{.op = Op::kCsrw, .rs1 = rs1, .csr = static_cast<u16>(csr)});
  }
  void eret() { emit(Instr{.op = Op::kEret}); }
  void halt() { emit(Instr{.op = Op::kHalt}); }

  // --- pseudo-instructions (fixed expansion size) --------------------------------
  /// Load a full 32-bit constant: LUI + ORI (always 2 instructions).
  void li(Reg rd, u32 value);
  /// Load the absolute address of a label: LUI + ORI (always 2 instructions).
  void la(Reg rd, const std::string& name);

  /// Resolve labels and produce the final image.
  Program assemble();

  // --- generic emitters, by operand format (isa.h) -----------------------------
  // Every op-named method above is one of these; the text assembler calls
  // them with the op it looked up in kOpTable.
  void emit(const Instr& in);
  /// R, R64 and AMO formats; R64 registers must be even.
  void emit_r(Op op, Reg rd, Reg rs1, Reg rs2);
  /// I, LUI and load formats; `imm` is range-checked by the op's ImmKind.
  void emit_i(Op op, Reg rd, Reg rs1, i32 imm);
  void emit_s(Op op, Reg data, Reg base, i32 off);
  void emit_b(Op op, Reg rs1, Reg rs2, const std::string& target);

 private:
  enum class FixKind { kBranch16, kJal21, kAbsHi, kAbsLo, kWord32 };
  struct Fixup {
    u32 addr;
    FixKind kind;
    std::string label;
  };

  void put_word(u32 addr, u32 w);
  void put_byte(u32 addr, u8 b);
  u32 get_word(u32 addr) const;

  u32 pc_;
  std::map<u32, u8> bytes_;
  std::map<std::string, u32> labels_;
  std::vector<Fixup> fixups_;
  std::string entry_label_;
};

}  // namespace detstl::isa
