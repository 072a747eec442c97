#include "isa/disasm.h"

#include <cstdio>

#include "isa/encoding.h"

namespace detstl::isa {

std::string disasm(const Instr& in) {
  char buf[96];
  const std::string m(mnemonic(in.op));
  const char* op = m.c_str();
  const unsigned rd = in.rd, rs1 = in.rs1, rs2 = in.rs2;
  switch (op_row(in.op).fmt) {
    case Format::kR: case Format::kR64:
      std::snprintf(buf, sizeof buf, "%-6s r%u, r%u, r%u", op, rd, rs1, rs2);
      break;
    case Format::kAmo:
      std::snprintf(buf, sizeof buf, "%-6s r%u, (r%u), r%u", op, rd, rs1, rs2);
      break;
    case Format::kI:
      std::snprintf(buf, sizeof buf, "%-6s r%u, r%u, %d", op, rd, rs1, in.imm);
      break;
    case Format::kLui:
      std::snprintf(buf, sizeof buf, "%-6s r%u, 0x%x", op, rd, static_cast<u32>(in.imm));
      break;
    case Format::kLoad:
      std::snprintf(buf, sizeof buf, "%-6s r%u, %d(r%u)", op, rd, in.imm, rs1);
      break;
    case Format::kStore:
      std::snprintf(buf, sizeof buf, "%-6s r%u, %d(r%u)", op, rs2, in.imm, rs1);
      break;
    case Format::kBranch:
      std::snprintf(buf, sizeof buf, "%-6s r%u, r%u, %+d", op, rs1, rs2, in.imm);
      break;
    case Format::kJal:
      std::snprintf(buf, sizeof buf, "%-6s r%u, %+d", op, rd, in.imm);
      break;
    case Format::kCsrr:
      std::snprintf(buf, sizeof buf, "%-6s r%u, csr[0x%x]", op, rd, in.csr);
      break;
    case Format::kCsrw:
      std::snprintf(buf, sizeof buf, "%-6s csr[0x%x], r%u", op, in.csr, rs1);
      break;
    case Format::kNone:
      if (in.valid()) return m;
      std::snprintf(buf, sizeof buf, ".word 0x%08x", in.raw);
      break;
  }
  return buf;
}

std::string disasm_word(u32 word) { return disasm(decode(word)); }

}  // namespace detstl::isa
