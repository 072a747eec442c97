#include "isa/encoding.h"

#include <cassert>

namespace detstl::isa {

namespace {

/// decode's lookup, built from kOpTable at compile time: per major, the op
/// of a single-op major with its layout and immediate kind, or the funct
/// table of a funct major (whose unknown functs still decode as kR layout).
constexpr unsigned kMajors = 64;
constexpr unsigned kFunctSlots = 32;
constexpr unsigned kFunctMajors = 2;

struct MajorEntry {
  Op op = Op::kInvalid;
  Format fmt = Format::kNone;
  ImmKind imm = ImmKind::kNone;
  u8 funct_set = 0;  // 1 + index into DecodeIndex::funct_op; 0 = single op
};

struct DecodeIndex {
  std::array<MajorEntry, kMajors> major{};
  std::array<std::array<Op, kFunctSlots>, kFunctMajors> funct_op{};
};

constexpr DecodeIndex kIndex = [] {
  DecodeIndex ix;
  for (auto& ops : ix.funct_op) ops.fill(Op::kInvalid);
  unsigned sets = 0;
  for (const OpRow& r : kOpTable) {
    if (r.op == Op::kInvalid) continue;
    MajorEntry& e = ix.major.at(r.major);
    if (!has_funct(r.fmt)) {
      e = {r.op, r.fmt, r.imm, 0};
      continue;
    }
    if (e.funct_set == 0) e = {Op::kInvalid, Format::kR, ImmKind::kNone, static_cast<u8>(++sets)};
    ix.funct_op.at(e.funct_set - 1u).at(r.funct) = r.op;
  }
  return ix;
}();

u32 reg_at(u8 r, unsigned lsb) {
  assert(r < kNumRegs);
  return static_cast<u32>(r & 31u) << lsb;
}

u32 field_imm16(ImmKind kind, i32 imm) {
  assert(kind == ImmKind::kSigned ? fits_signed(imm, 16)
                                  : fits_unsigned(static_cast<u32>(imm), 16));
  (void)kind;
  return static_cast<u32>(imm) & 0xffffu;
}

}  // namespace

u32 encode(const Instr& in) {
  const OpRow& row = op_row(in.op);
  const u32 major = static_cast<u32>(row.major) << 26;
  switch (row.fmt) {
    case Format::kR: case Format::kR64: case Format::kAmo:
      return major | reg_at(in.rd, 21) | reg_at(in.rs1, 16) | reg_at(in.rs2, 11) |
             row.funct;
    case Format::kI: case Format::kLui: case Format::kLoad:
      return major | reg_at(in.rd, 21) | reg_at(in.rs1, 16) |
             field_imm16(row.imm, in.imm);
    case Format::kStore:
      return major | reg_at(in.rs2, 21) | reg_at(in.rs1, 16) |
             field_imm16(row.imm, in.imm);
    case Format::kBranch:
      return major | reg_at(in.rs1, 21) | reg_at(in.rs2, 16) |
             field_imm16(row.imm, in.imm);
    case Format::kJal:
      assert(fits_signed(in.imm, 21));
      return major | reg_at(in.rd, 21) | (static_cast<u32>(in.imm) & 0x1fffffu);
    case Format::kCsrr:
      return major | reg_at(in.rd, 21) | in.csr;
    case Format::kCsrw:
      return major | reg_at(in.rs1, 16) | in.csr;
    case Format::kNone:
      break;
  }
  assert(in.op != Op::kInvalid && "unencodable instruction");
  return major;
}

Instr decode(u32 word) {
  Instr in;
  in.raw = word;
  const MajorEntry& e = kIndex.major[bits(word, 31, 26)];
  const u32 funct = bits(word, 10, 0);
  in.op = e.funct_set == 0         ? e.op
          : funct < kFunctSlots ? kIndex.funct_op[e.funct_set - 1u][funct]
                                : Op::kInvalid;
  const u8 f_rd = static_cast<u8>(bits(word, 25, 21));
  const u8 f_rs1 = static_cast<u8>(bits(word, 20, 16));
  const u32 imm16 = bits(word, 15, 0);

  switch (e.fmt) {
    case Format::kR: case Format::kR64: case Format::kAmo:
      in.rd = f_rd;
      in.rs1 = f_rs1;
      in.rs2 = static_cast<u8>(bits(word, 15, 11));
      break;
    case Format::kI: case Format::kLui: case Format::kLoad:
      in.rd = f_rd;
      in.rs1 = f_rs1;
      break;
    case Format::kStore:
      in.rs2 = f_rd;  // the data register occupies the rd field slot
      in.rs1 = f_rs1;
      break;
    case Format::kBranch:
      in.rs1 = f_rd;  // rs1 occupies the rd field slot
      in.rs2 = f_rs1;
      break;
    case Format::kJal:
      in.rd = f_rd;
      in.imm = sext(bits(word, 20, 0), 21);
      break;
    case Format::kCsrr:
      in.rd = f_rd;
      in.csr = static_cast<u16>(imm16);
      break;
    case Format::kCsrw:
      in.rs1 = f_rs1;
      in.csr = static_cast<u16>(imm16);
      break;
    case Format::kNone:
      break;
  }
  if (e.imm != ImmKind::kNone)
    in.imm = e.imm == ImmKind::kSigned ? sext(imm16, 16) : static_cast<i32>(imm16);
  return in;
}

}  // namespace detstl::isa
