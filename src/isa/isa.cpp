#include "isa/isa.h"

namespace detstl::isa {

namespace {

constexpr bool rows_in_op_order() {
  for (unsigned i = 0; i < kNumOps; ++i)
    if (kOpTable[i].op != static_cast<Op>(i)) return false;
  return true;
}

/// Two rows collide when they share a major, unless both are funct formats
/// with different functs. The kInvalid row holds the reserved major 0.
constexpr bool encodings_unique() {
  for (unsigned i = 0; i < kNumOps; ++i)
    for (unsigned j = 0; j < i; ++j) {
      const OpRow& a = kOpTable[i];
      const OpRow& b = kOpTable[j];
      if (a.major == b.major &&
          !(has_funct(a.fmt) && has_funct(b.fmt) && a.funct != b.funct))
        return false;
    }
  return true;
}

static_assert(rows_in_op_order(), "kOpTable row i must describe Op(i)");
static_assert(encodings_unique(), "two kOpTable rows share an encoding");

}  // namespace

std::optional<u32> direct_target(const Instr& in, u32 pc) {
  if (is_branch(in.op) || in.op == Op::kJal)
    return pc + static_cast<u32>(in.imm);
  return std::nullopt;
}

bool falls_through(const Instr& in) {
  switch (in.op) {
    case Op::kJal: case Op::kJalr: case Op::kHalt: case Op::kEret:
      return false;
    default:
      return in.valid();
  }
}

bool is_counter_csr(u16 csr) {
  return csr >= static_cast<u16>(Csr::kCycle) &&
         csr <= static_cast<u16>(Csr::kSplit);
}

}  // namespace detstl::isa
