#pragma once
// Instruction-set definition for the reproduced SoC's cores.
//
// The ISA is a compact 32-bit dual-issue RISC, stand-in for the proprietary
// automotive cores of the paper (see DESIGN.md, substitution table). Cores A/B
// implement the base 32-bit set; core C additionally implements the R64 group,
// which operates on even/odd register *pairs* holding 64-bit operands
// ("extended instruction set able to deal with 64-bit operands").
//
// kOpTable below is the single source of every instruction's facts: its
// mnemonic, issue class, operand format, major/funct numbers, immediate kind
// and access size, one constexpr row per Op. The predicates below,
// encode/decode (encoding.h), disasm (disasm.h) and the text assembler
// (asmparser.h) all read it; adding an instruction is one row plus its
// semantics (docs/architecture.md, "Adding an instruction").
//
// Encoding (fixed 32-bit words, little-endian in memory). The format fixes
// the field layout:
//   R, R64, AMO   : [31:26]=major [25:21]=rd [20:16]=rs1 [15:11]=rs2 [10:0]=funct
//   I, LUI, load  : [31:26]=major [25:21]=rd [20:16]=rs1 [15:0]=imm16
//   store         : [31:26]=major [25:21]=rs2(data) [20:16]=rs1(base) [15:0]=imm16
//   branch        : [31:26]=major [25:21]=rs1 [20:16]=rs2 [15:0]=imm16 (byte
//                   offset relative to the branch's own PC)
//   JAL           : [31:26]=major [25:21]=rd [20:0]=imm21 (byte offset, signed)
//   CSRR          : [31:26]=major [25:21]=rd [15:0]=CSR number
//   CSRW          : [31:26]=major [20:16]=rs1 [15:0]=CSR number
//   none          : [31:26]=major; every other bit is ignored
// A funct major (R, R64, AMO) with an unknown funct decodes its register
// fields with op = kInvalid. LUI encodes its rs1 field but never reads it.
// Major 0 is reserved, so the all-zero word is invalid.

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/bitutil.h"

namespace detstl::isa {

// ----------------------------------------------------------------------------
// Registers
// ----------------------------------------------------------------------------

enum Reg : u8 {
  R0 = 0,  // hardwired zero
  R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12, R13, R14, R15,
  R16, R17, R18, R19, R20, R21, R22, R23, R24, R25,
  R26,  // ISR scratch (STL convention)
  R27,  // ISR scratch (STL convention)
  R28,  // ISR accumulation (STL convention)
  R29,  // test signature (STL convention)
  R30,  // wrapper loop counter (STL convention)
  R31,  // link register
};

inline constexpr unsigned kNumRegs = 32;

// ----------------------------------------------------------------------------
// Operations
// ----------------------------------------------------------------------------

enum class Op : u8 {
  // R-type ALU (32-bit)
  kAdd, kSub, kAnd, kOr, kXor, kNor, kSlt, kSltu, kSll, kSrl, kSra,
  kMul, kMulh, kDiv, kDivu, kRem,
  kAddv,  // add, raises imprecise overflow event on signed overflow
  kSubv,  // sub, raises imprecise overflow event on signed overflow
  kAmoAdd,  // atomic fetch-and-add: rd = M[rs1]; M[rs1] += rs2

  // R64 group (core C only; even/odd register pairs)
  kAdd64, kSub64, kAnd64, kOr64, kXor64, kSlt64, kSll64, kSrl64, kSra64,
  kAddv64,  // 64-bit add, imprecise overflow event on signed-64 overflow

  // I-type ALU
  kAddi, kAndi, kOri, kXori, kSlti, kSltiu, kSlli, kSrli, kSrai, kLui,

  // Loads / stores
  kLw, kLh, kLhu, kLb, kLbu, kSw, kSh, kSb,

  // Branches (PC-relative, resolved in EX)
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,

  // Jumps
  kJal, kJalr,

  // System
  kCsrr, kCsrw, kEret, kHalt,

  kInvalid,
};

inline constexpr unsigned kNumOps = static_cast<unsigned>(Op::kInvalid) + 1;

/// Functional-unit / issue class of an operation.
enum class OpClass : u8 {
  kAlu,     // single-cycle integer
  kMulDiv,  // multi-cycle integer (DIV/REM family)
  kMem,     // load/store/amo — pipe 0 only
  kBranch,  // branch/jump — pipe 0 only
  kSys,     // CSR access, ERET, HALT — pipe 0 only, issues alone
  kInvalid,
};

// ----------------------------------------------------------------------------
// CSRs
// ----------------------------------------------------------------------------

enum class Csr : u16 {
  // Performance counters (read-only from software; cleared by writing 0)
  kCycle = 0x000,
  kInstret = 0x001,
  kIfStall = 0x002,    // cycles the issue stage starved for instructions
  kMemStall = 0x003,   // cycles the MEM stage waited on the memory subsystem
  kHdcuStall = 0x004,  // stall cycles inserted by the hazard detection unit
  kIcMiss = 0x005,
  kDcMiss = 0x006,
  kSplit = 0x007,      // issue packets serialised by the HDCU

  // Trap handling
  kMstatus = 0x010,  // bit0 = global interrupt enable
  kMtvec = 0x011,    // trap vector address
  kMepc = 0x012,     // PC of the first un-issued instruction at recognition
  kMcause = 0x013,   // ICU cause bits (core-dependent mapping, see icu.h)
  kMip = 0x014,      // raw pending bits (diagnostic view)
  kMie = 0x015,      // per-source interrupt enable mask
  kMfpc = 0x016,     // PC of the interrupting (faulting) instruction
  kMswi = 0x017,     // write any value: raise the software imprecise event

  // Cache control
  kCacheOp = 0x020,   // write: bit0 = invalidate I$, bit1 = invalidate D$
  kCacheCfg = 0x021,  // bit0 = I$ enable, bit1 = D$ enable, bit2 = write-allocate

  // Identity
  kCoreId = 0x030,
};

inline constexpr u32 kMstatusIe = 1u << 0;
inline constexpr u32 kCacheOpInvI = 1u << 0;
inline constexpr u32 kCacheOpInvD = 1u << 1;
inline constexpr u32 kCacheCfgIEn = 1u << 0;
inline constexpr u32 kCacheCfgDEn = 1u << 1;
inline constexpr u32 kCacheCfgWriteAllocate = 1u << 2;

// ----------------------------------------------------------------------------
// Decoded instruction
// ----------------------------------------------------------------------------

struct Instr {
  Op op = Op::kInvalid;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  i32 imm = 0;   // sign- or zero-extended per op
  u16 csr = 0;   // CSR number for kCsrr/kCsrw
  u32 raw = 0;   // original encoding

  bool valid() const { return op != Op::kInvalid; }
  bool operator==(const Instr&) const = default;
};

// ----------------------------------------------------------------------------
// The opcode table
// ----------------------------------------------------------------------------

/// Operand format: the assembly operand syntax and the field layout above.
enum class Format : u8 {
  kR,       // rd, rs1, rs2
  kR64,     // rd, rs1, rs2 -- even register pairs (core C)
  kAmo,     // rd, (rs1), rs2
  kI,       // rd, rs1, imm
  kLui,     // rd, imm
  kLoad,    // rd, imm(rs1)
  kStore,   // rs2, imm(rs1)
  kBranch,  // rs1, rs2, target
  kJal,     // [rd,] target
  kCsrr,    // rd, csr
  kCsrw,    // csr, rs1
  kNone,    // no operands
};

/// True for the formats that share a major and tell ops apart by funct.
constexpr bool has_funct(Format f) {
  return f == Format::kR || f == Format::kR64 || f == Format::kAmo;
}

/// How the 16-bit immediate field extends, and which values it accepts.
enum class ImmKind : u8 {
  kNone,      // no imm16 field
  kSigned,    // sign-extended, [-32768, 32767]
  kUnsigned,  // zero-extended, [0, 65535]
  kShamt,     // zero-extended, shift amount [0, 31]
};

struct OpRow {
  Op op;
  std::string_view mnemonic;
  OpClass cls;
  Format fmt;
  u8 major;                      // [31:26]
  u16 funct = 0;                 // [10:0] of the funct formats
  ImmKind imm = ImmKind::kNone;
  u8 mem_bytes = 0;              // bytes a load/store/AMO accesses
};

// clang-format off
inline constexpr std::array<OpRow, kNumOps> kOpTable = [] {
  using O = Op; using C = OpClass; using F = Format; using I = ImmKind;
  return std::array<OpRow, kNumOps>{{
    // op         mnemonic   class        format      major funct imm           bytes
    {O::kAdd,     "add",     C::kAlu,     F::kR,      0x01, 0x00},
    {O::kSub,     "sub",     C::kAlu,     F::kR,      0x01, 0x01},
    {O::kAnd,     "and",     C::kAlu,     F::kR,      0x01, 0x02},
    {O::kOr,      "or",      C::kAlu,     F::kR,      0x01, 0x03},
    {O::kXor,     "xor",     C::kAlu,     F::kR,      0x01, 0x04},
    {O::kNor,     "nor",     C::kAlu,     F::kR,      0x01, 0x05},
    {O::kSlt,     "slt",     C::kAlu,     F::kR,      0x01, 0x06},
    {O::kSltu,    "sltu",    C::kAlu,     F::kR,      0x01, 0x07},
    {O::kSll,     "sll",     C::kAlu,     F::kR,      0x01, 0x08},
    {O::kSrl,     "srl",     C::kAlu,     F::kR,      0x01, 0x09},
    {O::kSra,     "sra",     C::kAlu,     F::kR,      0x01, 0x0a},
    {O::kMul,     "mul",     C::kAlu,     F::kR,      0x01, 0x0b},
    {O::kMulh,    "mulh",    C::kAlu,     F::kR,      0x01, 0x0c},
    {O::kDiv,     "div",     C::kMulDiv,  F::kR,      0x01, 0x0d},
    {O::kDivu,    "divu",    C::kMulDiv,  F::kR,      0x01, 0x0e},
    {O::kRem,     "rem",     C::kMulDiv,  F::kR,      0x01, 0x0f},
    {O::kAddv,    "addv",    C::kAlu,     F::kR,      0x01, 0x10},
    {O::kSubv,    "subv",    C::kAlu,     F::kR,      0x01, 0x11},
    {O::kAmoAdd,  "amoadd",  C::kMem,     F::kAmo,    0x01, 0x12, I::kNone,     4},
    {O::kAdd64,   "add64",   C::kAlu,     F::kR64,    0x02, 0x00},
    {O::kSub64,   "sub64",   C::kAlu,     F::kR64,    0x02, 0x01},
    {O::kAnd64,   "and64",   C::kAlu,     F::kR64,    0x02, 0x02},
    {O::kOr64,    "or64",    C::kAlu,     F::kR64,    0x02, 0x03},
    {O::kXor64,   "xor64",   C::kAlu,     F::kR64,    0x02, 0x04},
    {O::kSlt64,   "slt64",   C::kAlu,     F::kR64,    0x02, 0x05},
    {O::kSll64,   "sll64",   C::kAlu,     F::kR64,    0x02, 0x06},
    {O::kSrl64,   "srl64",   C::kAlu,     F::kR64,    0x02, 0x07},
    {O::kSra64,   "sra64",   C::kAlu,     F::kR64,    0x02, 0x08},
    {O::kAddv64,  "addv64",  C::kAlu,     F::kR64,    0x02, 0x09},
    {O::kAddi,    "addi",    C::kAlu,     F::kI,      0x04, 0,    I::kSigned},
    {O::kAndi,    "andi",    C::kAlu,     F::kI,      0x05, 0,    I::kUnsigned},
    {O::kOri,     "ori",     C::kAlu,     F::kI,      0x06, 0,    I::kUnsigned},
    {O::kXori,    "xori",    C::kAlu,     F::kI,      0x07, 0,    I::kUnsigned},
    {O::kSlti,    "slti",    C::kAlu,     F::kI,      0x08, 0,    I::kSigned},
    {O::kSltiu,   "sltiu",   C::kAlu,     F::kI,      0x09, 0,    I::kUnsigned},
    {O::kSlli,    "slli",    C::kAlu,     F::kI,      0x0a, 0,    I::kShamt},
    {O::kSrli,    "srli",    C::kAlu,     F::kI,      0x0b, 0,    I::kShamt},
    {O::kSrai,    "srai",    C::kAlu,     F::kI,      0x0c, 0,    I::kShamt},
    {O::kLui,     "lui",     C::kAlu,     F::kLui,    0x0d, 0,    I::kUnsigned},
    {O::kLw,      "lw",      C::kMem,     F::kLoad,   0x10, 0,    I::kSigned,   4},
    {O::kLh,      "lh",      C::kMem,     F::kLoad,   0x11, 0,    I::kSigned,   2},
    {O::kLhu,     "lhu",     C::kMem,     F::kLoad,   0x12, 0,    I::kSigned,   2},
    {O::kLb,      "lb",      C::kMem,     F::kLoad,   0x13, 0,    I::kSigned,   1},
    {O::kLbu,     "lbu",     C::kMem,     F::kLoad,   0x14, 0,    I::kSigned,   1},
    {O::kSw,      "sw",      C::kMem,     F::kStore,  0x15, 0,    I::kSigned,   4},
    {O::kSh,      "sh",      C::kMem,     F::kStore,  0x16, 0,    I::kSigned,   2},
    {O::kSb,      "sb",      C::kMem,     F::kStore,  0x17, 0,    I::kSigned,   1},
    {O::kBeq,     "beq",     C::kBranch,  F::kBranch, 0x18, 0,    I::kSigned},
    {O::kBne,     "bne",     C::kBranch,  F::kBranch, 0x19, 0,    I::kSigned},
    {O::kBlt,     "blt",     C::kBranch,  F::kBranch, 0x1a, 0,    I::kSigned},
    {O::kBge,     "bge",     C::kBranch,  F::kBranch, 0x1b, 0,    I::kSigned},
    {O::kBltu,    "bltu",    C::kBranch,  F::kBranch, 0x1c, 0,    I::kSigned},
    {O::kBgeu,    "bgeu",    C::kBranch,  F::kBranch, 0x1d, 0,    I::kSigned},
    {O::kJal,     "jal",     C::kBranch,  F::kJal,    0x1e},
    {O::kJalr,    "jalr",    C::kBranch,  F::kI,      0x1f, 0,    I::kSigned},
    {O::kCsrr,    "csrr",    C::kSys,     F::kCsrr,   0x20},
    {O::kCsrw,    "csrw",    C::kSys,     F::kCsrw,   0x21},
    {O::kEret,    "eret",    C::kSys,     F::kNone,   0x22},
    {O::kHalt,    "halt",    C::kSys,     F::kNone,   0x23},
    {O::kInvalid, "invalid", C::kInvalid, F::kNone,   0x00},
  }};
}();
// clang-format on

// ----------------------------------------------------------------------------
// Operation metadata: reads of the op's row
// ----------------------------------------------------------------------------

constexpr const OpRow& op_row(Op op) { return kOpTable[static_cast<unsigned>(op)]; }

constexpr OpClass op_class(Op op) { return op_row(op).cls; }
constexpr std::string_view mnemonic(Op op) { return op_row(op).mnemonic; }

constexpr bool is_r64(Op op) { return op_row(op).fmt == Format::kR64; }
constexpr bool is_load(Op op) {
  return op_row(op).fmt == Format::kLoad || op_row(op).fmt == Format::kAmo;
}
constexpr bool is_store(Op op) {
  return op_row(op).fmt == Format::kStore || op_row(op).fmt == Format::kAmo;
}
/// Conditional branches only.
constexpr bool is_branch(Op op) { return op_row(op).fmt == Format::kBranch; }
/// JAL/JALR.
constexpr bool is_jump(Op op) { return op == Op::kJal || op == Op::kJalr; }
/// Multi-cycle EX ops.
constexpr bool is_muldiv(Op op) { return op_row(op).cls == OpClass::kMulDiv; }

/// True when the instruction architecturally writes `rd` (and rd may be R0,
/// which discards the write).
constexpr bool writes_rd(const Instr& in) {
  const Format f = op_row(in.op).fmt;
  return f != Format::kStore && f != Format::kBranch && f != Format::kCsrw &&
         f != Format::kNone;
}
/// True when the instruction reads `rs1` / `rs2` as a register operand.
constexpr bool reads_rs1(const Instr& in) {
  const Format f = op_row(in.op).fmt;
  return f != Format::kLui && f != Format::kJal && f != Format::kCsrr &&
         f != Format::kNone;
}
constexpr bool reads_rs2(const Instr& in) {
  const Format f = op_row(in.op).fmt;
  return has_funct(f) || f == Format::kStore || f == Format::kBranch;
}

/// Number of bytes accessed by a load/store op (1, 2, 4), 0 otherwise.
constexpr unsigned mem_size(Op op) { return op_row(op).mem_bytes; }

// --- static control-flow metadata (used by the analysis passes) --------------

/// Statically-known control-transfer target of a branch or JAL at `pc`
/// (both encode byte offsets relative to their own PC). Empty for every
/// other op, including JALR whose target is register-indirect.
std::optional<u32> direct_target(const Instr& in, u32 pc);

/// True when execution can continue at pc+4 after this instruction:
/// false for unconditional transfers (JAL/JALR), HALT and ERET; true for
/// conditional branches (not-taken path) and everything else.
bool falls_through(const Instr& in);

/// True when `csr` is one of the free-running performance counters
/// (kCycle..kSplit) whose values re-couple a signature to timing.
bool is_counter_csr(u16 csr);

}  // namespace detstl::isa
