#pragma once
// Functional (untimed) reference executor. Serves as the architectural oracle
// for differential testing of the pipeline model: same ISA semantics, no
// timing, precise (immediate) interrupt recognition. Differential tests run
// with interrupts disabled so the imprecise/precise distinction does not
// matter; dedicated pipeline tests cover the ICU.

#include <array>
#include <cstdint>
#include <unordered_map>

#include "isa/alu.h"
#include "isa/events.h"
#include "isa/program.h"

namespace detstl::isa {

/// Byte-addressable memory interface used by the reference executor.
class MemView {
 public:
  virtual ~MemView() = default;
  virtual u8 load8(u32 addr) = 0;
  virtual void store8(u32 addr, u8 v) = 0;

  u32 load(u32 addr, unsigned size);
  void store(u32 addr, u32 v, unsigned size);
};

/// Sparse flat memory for standalone use (tests, oracle runs).
class FlatMemory : public MemView {
 public:
  u8 load8(u32 addr) override {
    auto it = bytes_.find(addr);
    return it == bytes_.end() ? 0 : it->second;
  }
  void store8(u32 addr, u8 v) override { bytes_[addr] = v; }

  void load_program(const Program& prog);

 private:
  std::unordered_map<u32, u8> bytes_;
};

class RefExec {
 public:
  RefExec(CoreKind kind, MemView& mem) : kind_(kind), mem_(&mem) { reset(0); }

  void reset(u32 entry);

  /// Execute one instruction. Returns false once halted.
  bool step();

  /// Run up to `max_steps` instructions; returns the number executed.
  u64 run(u64 max_steps);

  bool halted() const { return halted_; }
  u32 pc() const { return pc_; }

  u32 reg(unsigned idx) const { return regs_[idx]; }
  void set_reg(unsigned idx, u32 v) {
    if (idx != 0) regs_[idx] = v;
  }
  u64 reg_pair(unsigned even_idx) const {
    return (static_cast<u64>(regs_[even_idx + 1]) << 32) | regs_[even_idx];
  }

  u32 csr(Csr c) const;
  void set_csr(Csr c, u32 v);

  u64 instret() const { return instret_; }
  /// Count of raised events per source (diagnostics).
  u64 event_count(IcuSource s) const { return event_counts_[static_cast<unsigned>(s)]; }

  CoreKind kind() const { return kind_; }

 private:
  void write_rd(const Instr& in, u32 v);
  void write_rd_pair(const Instr& in, u64 v);
  void raise(IcuSource src, u32 faulting_pc);

  CoreKind kind_;
  MemView* mem_;
  std::array<u32, kNumRegs> regs_{};
  u32 pc_ = 0;
  bool halted_ = false;
  u64 instret_ = 0;

  // Trap state
  u32 mstatus_ = 0;
  u32 mtvec_ = 0;
  u32 mepc_ = 0;
  u32 mcause_ = 0;
  u32 mip_ = 0;
  u32 mie_ = 0;
  u32 mfpc_ = 0;
  std::array<u64, kNumIcuSources> event_counts_{};
};

}  // namespace detstl::isa
