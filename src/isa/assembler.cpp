#include "isa/assembler.h"

namespace detstl::isa {

void Assembler::align(u32 alignment) {
  if (!is_pow2(alignment)) throw AsmError("alignment must be a power of two");
  while (pc_ % alignment != 0) nop();
}

void Assembler::align_data(u32 alignment) {
  if (!is_pow2(alignment)) throw AsmError("alignment must be a power of two");
  while (pc_ % alignment != 0) put_byte(pc_++, 0);
}

void Assembler::label(const std::string& name) {
  if (labels_.count(name)) throw AsmError("duplicate label: " + name);
  labels_[name] = pc_;
}

void Assembler::word(u32 value) {
  put_word(pc_, value);
  pc_ += 4;
}

void Assembler::word_label(const std::string& name) {
  fixups_.push_back({pc_, FixKind::kWord32, name});
  word(0);
}

void Assembler::space(u32 nbytes) {
  for (u32 i = 0; i < nbytes; ++i) put_byte(pc_ + i, 0);
  pc_ += nbytes;
}

void Assembler::jal(Reg rd, const std::string& target) {
  fixups_.push_back({pc_, FixKind::kJal21, target});
  emit(Instr{.op = Op::kJal, .rd = rd, .imm = 0});
}

void Assembler::li(Reg rd, u32 value) {
  lui(rd, value >> 16);
  ori(rd, rd, value & 0xffffu);
}

void Assembler::la(Reg rd, const std::string& name) {
  fixups_.push_back({pc_, FixKind::kAbsHi, name});
  lui(rd, 0);
  fixups_.push_back({pc_, FixKind::kAbsLo, name});
  ori(rd, rd, 0);
}

void Assembler::emit(const Instr& in) {
  put_word(pc_, encode(in));
  pc_ += 4;
}

void Assembler::emit_r(Op op, Reg rd, Reg rs1, Reg rs2) {
  if (is_r64(op) && ((rd | rs1 | rs2) & 1))
    throw AsmError("R64 instructions require even register pairs");
  emit(Instr{.op = op, .rd = rd, .rs1 = rs1, .rs2 = rs2});
}

namespace {

void check_imm(Op op, i32 imm) {
  switch (op_row(op).imm) {
    case ImmKind::kShamt:
      if (imm < 0 || imm > 31) throw AsmError("shift amount out of range");
      break;
    case ImmKind::kUnsigned:
      if (!fits_unsigned(static_cast<u32>(imm), 16))
        throw AsmError("unsigned immediate out of range");
      break;
    case ImmKind::kSigned:
    case ImmKind::kNone:
      if (!fits_signed(imm, 16)) throw AsmError("signed immediate out of range");
      break;
  }
}

}  // namespace

void Assembler::emit_i(Op op, Reg rd, Reg rs1, i32 imm) {
  check_imm(op, imm);
  emit(Instr{.op = op, .rd = rd, .rs1 = rs1, .imm = imm});
}

void Assembler::emit_s(Op op, Reg data, Reg base, i32 off) {
  check_imm(op, off);
  emit(Instr{.op = op, .rs1 = base, .rs2 = data, .imm = off});
}

void Assembler::emit_b(Op op, Reg rs1, Reg rs2, const std::string& target) {
  fixups_.push_back({pc_, FixKind::kBranch16, target});
  emit(Instr{.op = op, .rs1 = rs1, .rs2 = rs2, .imm = 0});
}

void Assembler::put_word(u32 addr, u32 w) {
  for (unsigned i = 0; i < 4; ++i) put_byte(addr + i, static_cast<u8>(w >> (8 * i)));
}

void Assembler::put_byte(u32 addr, u8 b) {
  auto [it, inserted] = bytes_.insert({addr, b});
  if (!inserted) throw AsmError("overlapping emission at address " + std::to_string(addr));
}

u32 Assembler::get_word(u32 addr) const {
  u32 w = 0;
  for (unsigned i = 0; i < 4; ++i) {
    auto it = bytes_.find(addr + i);
    if (it == bytes_.end()) throw AsmError("fixup reads unwritten byte");
    w |= static_cast<u32>(it->second) << (8 * i);
  }
  return w;
}

Program Assembler::assemble() {
  for (const auto& fix : fixups_) {
    auto it = labels_.find(fix.label);
    if (it == labels_.end()) throw AsmError("undefined label: " + fix.label);
    const u32 target = it->second;
    u32 w = get_word(fix.addr);
    switch (fix.kind) {
      case FixKind::kBranch16: {
        const i64 off = static_cast<i64>(target) - static_cast<i64>(fix.addr);
        if (!fits_signed(off, 16)) throw AsmError("branch target out of range: " + fix.label);
        w = (w & ~0xffffu) | (static_cast<u32>(off) & 0xffffu);
        break;
      }
      case FixKind::kJal21: {
        const i64 off = static_cast<i64>(target) - static_cast<i64>(fix.addr);
        if (!fits_signed(off, 21)) throw AsmError("jal target out of range: " + fix.label);
        w = (w & ~0x1fffffu) | (static_cast<u32>(off) & 0x1fffffu);
        break;
      }
      case FixKind::kAbsHi:
        w = (w & ~0xffffu) | (target >> 16);
        break;
      case FixKind::kAbsLo:
        w = (w & ~0xffffu) | (target & 0xffffu);
        break;
      case FixKind::kWord32:
        w = target;
        break;
    }
    // Re-write all four bytes of the patched word.
    for (unsigned i = 0; i < 4; ++i) bytes_[fix.addr + i] = static_cast<u8>(w >> (8 * i));
  }

  // Coalesce the byte map into contiguous segments.
  std::vector<Segment> segments;
  for (const auto& [addr, byte] : bytes_) {
    if (!segments.empty() && segments.back().end() == addr) {
      segments.back().bytes.push_back(byte);
    } else {
      segments.push_back(Segment{addr, {byte}});
    }
  }

  u32 entry = segments.empty() ? 0 : segments.front().base;
  if (!entry_label_.empty()) {
    auto it = labels_.find(entry_label_);
    if (it == labels_.end()) throw AsmError("undefined entry label: " + entry_label_);
    entry = it->second;
  }
  return Program(std::move(segments), labels_, entry);
}

}  // namespace detstl::isa
