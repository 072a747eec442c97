#include "cpu/cpu.h"

#include <algorithm>
#include <cassert>

#include "isa/disasm.h"

namespace detstl::cpu {

using isa::Csr;
using isa::Instr;
using isa::Op;
using isa::OpClass;

Cpu::Cpu(const CpuConfig& cfg)
    : cfg_(cfg), memsys_(cfg.core_id, cfg.mem), icu_(cfg.kind) {}

void Cpu::reset(u32 boot_pc) {
  for (auto& r : regs_) r = 0;
  perf_.clear();
  icu_ = IcuState(cfg_.kind);
  mstatus_ = mtvec_ = mepc_ = mcause_ = mie_ = mfpc_ = 0;
  ex_[0] = ex_[1] = SlotInstr{};
  exmem_[0] = exmem_[1] = SlotInstr{};
  memwb_[0] = memwb_[1] = SlotInstr{};
  fq_len_ = 0;
  halted_ = halting_ = false;
  flush_ = redirect_pending_ = false;
  next_fetch_ = align_down(boot_pc, 8);
  skip_before_ = boot_pc;
  next_issue_pc_ = boot_pc;
  div_busy_ = 0;
  drain_for_irq_ = false;
  icu_events_ = icu_clear_ = 0;
  icu_ack_ = false;
  icu_out_ = IcuOut{};
  phase_.reset();
}

// -----------------------------------------------------------------------------
// Cycle top level
// -----------------------------------------------------------------------------

void Cpu::cycle(mem::SharedBus& bus) {
  if (halted_) return;
  ++perf_.cycles;

  // Producer snapshots: what the packet in EX sees at distance 1 and 2.
  const SlotInstr snap_exmem[2] = {exmem_[0], exmem_[1]};
  const SlotInstr snap_memwb[2] = {memwb_[0], memwb_[1]};

  stage_wb();
  const bool mem_advanced = stage_mem(bus);
  stage_ex(mem_advanced, snap_exmem, snap_memwb);
  stage_issue();
  stage_fetch(bus);
  icu_endofcycle();
  flush_ = false;

  if (halting_ && pipeline_empty()) halted_ = true;
}

void Cpu::post_tick(mem::SharedBus& bus) {
  memsys_.tick(bus);
}

bool Cpu::pipeline_empty() const {
  return !ex_[0].valid && !ex_[1].valid && !exmem_[0].valid && !exmem_[1].valid &&
         !memwb_[0].valid && !memwb_[1].valid && div_busy_ == 0;
}

bool Cpu::same_pcs_and_regs(const Cpu& o) const {
  return next_fetch_ == o.next_fetch_ && next_issue_pc_ == o.next_issue_pc_ &&
         std::equal(std::begin(regs_), std::end(regs_), std::begin(o.regs_));
}

bool Cpu::same_state(const Cpu& o) const {
  const auto same_latches = [](const SlotInstr (&a)[2], const SlotInstr (&b)[2]) {
    return a[0].same_state(b[0]) && a[1].same_state(b[1]);
  };
  return same_pcs_and_regs(o) && icu_.state() == o.icu_.state() &&
         mstatus_ == o.mstatus_ && mtvec_ == o.mtvec_ && mepc_ == o.mepc_ &&
         mcause_ == o.mcause_ && mie_ == o.mie_ && mfpc_ == o.mfpc_ &&
         same_latches(ex_, o.ex_) && same_latches(exmem_, o.exmem_) &&
         same_latches(memwb_, o.memwb_) && fq_len_ == o.fq_len_ &&
         std::equal(fq_.begin(), fq_.begin() + fq_len_, o.fq_.begin()) &&
         halted_ == o.halted_ && halting_ == o.halting_ && flush_ == o.flush_ &&
         redirect_pc_ == o.redirect_pc_ && redirect_pending_ == o.redirect_pending_ &&
         skip_before_ == o.skip_before_ && div_busy_ == o.div_busy_ &&
         drain_for_irq_ == o.drain_for_irq_ && icu_events_ == o.icu_events_ &&
         icu_clear_ == o.icu_clear_ && icu_ack_ == o.icu_ack_ &&
         icu_out_ == o.icu_out_ && memsys_.same_state(o.memsys_);
}

bool Cpu::inject_pipeline_upset(u64 pick) {
  SlotInstr* latches[] = {&ex_[0], &ex_[1], &exmem_[0], &exmem_[1], &memwb_[0], &memwb_[1]};
  SlotInstr* valid[6];
  unsigned n = 0;
  for (SlotInstr* s : latches)
    if (s->valid) valid[n++] = s;
  if (n == 0) return false;
  SlotInstr& s = *valid[pick % n];
  const unsigned bit = (pick >> 8) % (s.is64 ? 64 : 32);
  s.result ^= u64{1} << bit;
  return true;
}

// -----------------------------------------------------------------------------
// WB
// -----------------------------------------------------------------------------

void Cpu::stage_wb() {
  for (auto& s : memwb_) {
    if (!s.valid) continue;
    if (s.writes) {
      if (s.is64) {
        regs_[s.in.rd] = static_cast<u32>(s.result);
        regs_[s.in.rd + 1] = static_cast<u32>(s.result >> 32);
      } else {
        regs_[s.in.rd] = static_cast<u32>(s.result);
      }
      if (hooks_.tap != nullptr)
        hooks_.tap->on_wb(perf_.cycles, s.in.rd, static_cast<u32>(s.result));
    }
    if (s.events != 0) {
      icu_events_ |= s.events;
      mfpc_ = s.pc;
    }
    ++perf_.instret;
    if (trace_.enabled()) trace_.on_stage(s.trace_id, Stage::kWb, perf_.cycles);
    s.valid = false;
  }
}

// -----------------------------------------------------------------------------
// MEM
// -----------------------------------------------------------------------------

bool Cpu::stage_mem(mem::SharedBus& bus) {
  SlotInstr& m = exmem_[0];
  bool block = false;

  if (m.valid && isa::op_class(m.in.op) == OpClass::kMem) {
    if (!m.mem_done) {
      if (!m.mem_requested) {
        mem::MemSystem::DataOp op;
        op.addr = m.mem_addr;
        op.size = static_cast<u8>(isa::mem_size(m.in.op));
        op.write = isa::is_store(m.in.op) && m.in.op != Op::kAmoAdd;
        op.amo_add = m.in.op == Op::kAmoAdd;
        op.wdata = m.store_data;
        memsys_.data_request(op, bus);
        m.mem_requested = true;
      }
      if (memsys_.data_done()) {
        if (isa::is_load(m.in.op)) {
          u32 v = memsys_.data_rdata();
          if (m.in.op == Op::kLh) v = static_cast<u32>(detstl::sext(v, 16));
          if (m.in.op == Op::kLb) v = static_cast<u32>(detstl::sext(v, 8));
          m.result = v;
        }
        memsys_.data_ack();
        m.mem_done = true;
      } else {
        block = true;
        ++perf_.mem_stalls;
      }
    }
  }

  if (trace_.enabled()) {
    for (const auto& s : exmem_)
      if (s.valid) trace_.on_stage(s.trace_id, Stage::kMem, perf_.cycles);
  }

  if (block) {
    // WB receives bubbles (stage_wb already consumed the old contents).
    return false;
  }
  memwb_[0] = exmem_[0];
  memwb_[1] = exmem_[1];
  exmem_[0] = SlotInstr{};
  exmem_[1] = SlotInstr{};
  return true;
}

// -----------------------------------------------------------------------------
// EX
// -----------------------------------------------------------------------------

HdcuIn Cpu::build_hdcu_in(const SlotInstr (&ex)[2], const SlotInstr (&em)[2],
                          const SlotInstr (&mw)[2]) const {
  HdcuIn in;
  for (unsigned s = 0; s < 2; ++s) {
    const SlotInstr& slot = ex[s];
    const bool v = slot.valid;
    const bool r64 = v && isa::is_r64(slot.in.op);
    in.cons[2 * s] = HdcuConsumer{.rs = slot.in.rs1,
                                  .used = v && isa::reads_rs1(slot.in),
                                  .is64 = r64};
    in.cons[2 * s + 1] = HdcuConsumer{.rs = slot.in.rs2,
                                      .used = v && isa::reads_rs2(slot.in),
                                      .is64 = r64};
  }
  const SlotInstr* prods[4] = {&em[0], &em[1], &mw[0], &mw[1]};
  for (unsigned p = 0; p < 4; ++p) {
    const SlotInstr& slot = *prods[p];
    in.prod[p] = HdcuProducer{.rd = slot.in.rd,
                              .writes = slot.valid && slot.writes,
                              .is64 = slot.is64,
                              .is_load = slot.is_load && !slot.mem_done};
  }
  return in;
}

FwdIn Cpu::build_fwd_in(const SlotInstr (&ex)[2], const HdcuOut& hz,
                        const SlotInstr (&em)[2], const SlotInstr (&mw)[2]) const {
  FwdIn fin;
  const SlotInstr* prods[4] = {&em[0], &em[1], &mw[0], &mw[1]};
  for (unsigned c = 0; c < 4; ++c) {
    FwdPortIn& port = fin.port[c];
    const SlotInstr& slot = ex[c / 2];
    const u8 rs = (c % 2 == 0) ? slot.in.rs1 : slot.in.rs2;
    const bool is64 = slot.valid && isa::is_r64(slot.in.op);
    if (is64) {
      port.rf = static_cast<u64>(regs_[rs]) |
                (static_cast<u64>(regs_[(rs + 1) % isa::kNumRegs]) << 32);
    } else {
      port.rf = regs_[rs];
    }
    for (unsigned p = 0; p < 4; ++p) port.cand[p] = prods[p]->result;
    port.sel = hz.sel[c];
    port.high_half = hz.high_half[c];
  }
  return fin;
}

void Cpu::stage_ex(bool mem_advanced, const SlotInstr (&snap_exmem)[2],
                   const SlotInstr (&snap_memwb)[2]) {
  if (!ex_[0].valid && !ex_[1].valid) return;

  // Hazard + forwarding logic evaluate every cycle the packet sits in EX,
  // exactly like the hardware they model (and like the fault-injected
  // netlists must).
  const HdcuIn hin = build_hdcu_in(ex_, snap_exmem, snap_memwb);
  const HdcuOut hout = hooks_.hazard != nullptr ? hooks_.hazard->eval(hin)
                                                : hdcu_behavioral(cfg_.kind, hin);
  if (hooks_.tap != nullptr) hooks_.tap->on_hdcu(perf_.cycles, hin, hout);

  const FwdIn fin = build_fwd_in(ex_, hout, snap_exmem, snap_memwb);
  const FwdOut fout =
      hooks_.fwd != nullptr ? hooks_.fwd->eval(fin) : fwd_behavioral(fin);
  if (hooks_.tap != nullptr) hooks_.tap->on_fwd(perf_.cycles, fin, fout);

  if (!mem_advanced) return;  // MEM is blocked; hold the packet in EX

  // Multi-cycle divide occupies EX; operands were captured on its first cycle.
  if (div_busy_ > 0) {
    --div_busy_;
    if (div_busy_ > 0) return;
    // Divide complete: move it through.
    if (trace_.enabled() && ex_[0].valid)
      trace_.on_stage(ex_[0].trace_id, Stage::kEx, perf_.cycles);
    exmem_[0] = ex_[0];
    exmem_[1] = ex_[1];
    ex_[0] = SlotInstr{};
    ex_[1] = SlotInstr{};
    return;
  }

  if (hout.stall) {
    ++perf_.hdcu_stalls;
    return;  // bubbles already flowed into MEM
  }

  for (unsigned s = 0; s < 2; ++s) {
    SlotInstr& slot = ex_[s];
    if (!slot.valid) continue;
    const u64 op_a = fout.operand[2 * s];
    const u64 op_b = isa::reads_rs2(slot.in)
                         ? fout.operand[2 * s + 1]
                         : static_cast<u64>(static_cast<u32>(slot.in.imm));
    execute_slot(slot, op_a, op_b);
    // r30 is the cache-based wrapper's loop counter (core/wrapper.h); its
    // transitions delimit the loading/execution/check phases. The marker is
    // emitted at EX — where the value is computed and this in-order,
    // trap-draining pipeline can no longer squash the instruction — because
    // EX runs before the fetch stage within a cycle: a WB-time marker lags
    // the front end by two cycles and misattributes the fetch of the check
    // epilogue's first cold line to the execution loop. The CSR-driven
    // transitions below (csr_write) fire at EX for the same reason.
    if (slot.writes && !slot.is_load && slot.in.rd == 30 && sink_ != nullptr &&
        phase_.observe_loop_counter(static_cast<u32>(slot.result))) {
      DETSTL_TRACE(sink_,
                   trace::Event{.cycle = perf_.cycles,
                                .kind = trace::EventKind::kPhaseBegin,
                                .core = static_cast<u8>(cfg_.core_id),
                                .unit = static_cast<u8>(phase_.current()),
                                .addr = slot.pc});
    }
    if (trace_.enabled()) trace_.on_stage(slot.trace_id, Stage::kEx, perf_.cycles);
  }

  // A freshly started divide stays in EX.
  if (ex_[0].valid && isa::is_muldiv(ex_[0].in.op)) {
    div_busy_ = kDivCycles - 1;
    return;
  }

  exmem_[0] = ex_[0];
  exmem_[1] = ex_[1];
  ex_[0] = SlotInstr{};
  ex_[1] = SlotInstr{};
}

void Cpu::execute_slot(SlotInstr& slot, u64 op_a, u64 op_b) {
  const Instr& in = slot.in;
  switch (isa::op_class(in.op)) {
    case OpClass::kAlu:
    case OpClass::kMulDiv: {
      if (isa::is_r64(in.op)) {
        const auto res = isa::alu64(in.op, op_a, op_b);
        slot.result = res.value;
        if (res.overflow)
          slot.events |= 1u << static_cast<unsigned>(isa::IcuSource::kOverflow);
      } else {
        const auto res =
            isa::alu32(in.op, static_cast<u32>(op_a), static_cast<u32>(op_b));
        slot.result = res.value;
        if (res.overflow)
          slot.events |= 1u << static_cast<unsigned>(isa::IcuSource::kOverflow);
        if (res.div_by_zero)
          slot.events |= 1u << static_cast<unsigned>(isa::IcuSource::kDivZero);
      }
      break;
    }
    case OpClass::kMem: {
      const unsigned size = isa::mem_size(in.op);
      u32 addr = static_cast<u32>(op_a) + static_cast<u32>(in.imm);
      if (addr % size != 0) {
        slot.events |= 1u << static_cast<unsigned>(isa::IcuSource::kUnaligned);
        addr = align_down(addr, size);
      }
      slot.mem_addr = addr;
      slot.store_data = static_cast<u32>(op_b);
      // Until the MEM stage provides load data, the EX output (the address)
      // is what a faulty forwarding select would pick up.
      slot.result = addr;
      // Access-error gating: a wild address (reachable only under fault or
      // software bug) raises the access-error event and the access is
      // squashed — loads return a poison value, stores are dropped.
      const bool ok = in.op == Op::kAmoAdd ? memsys_.amo_ok(addr)
                      : isa::is_store(in.op)
                          ? memsys_.data_writable(addr)
                          : memsys_.data_readable(addr);
      if (!ok) {
        slot.events |= 1u << static_cast<unsigned>(isa::IcuSource::kUnaligned);
        slot.mem_done = true;
        slot.result = 0xdeadbeefu;
      }
      break;
    }
    case OpClass::kBranch: {
      if (in.op == Op::kJal) {
        slot.result = slot.pc + 4;
        do_redirect(slot.pc + static_cast<u32>(in.imm));
      } else if (in.op == Op::kJalr) {
        slot.result = slot.pc + 4;
        do_redirect((static_cast<u32>(op_a) + static_cast<u32>(in.imm)) & ~3u);
      } else if (isa::branch_taken(in.op, static_cast<u32>(op_a),
                                   static_cast<u32>(op_b))) {
        do_redirect(slot.pc + static_cast<u32>(in.imm));
      }
      break;
    }
    case OpClass::kSys:
      exec_system(slot, static_cast<u32>(op_a));
      break;
    case OpClass::kInvalid:
      halting_ = true;
      break;
  }
}

void Cpu::exec_system(SlotInstr& slot, u32 rs1_val) {
  switch (slot.in.op) {
    case Op::kCsrr:
      if (isa::is_counter_csr(slot.in.csr)) ++counter_reads_;
      slot.result = csr_read_internal(static_cast<Csr>(slot.in.csr));
      break;
    case Op::kCsrw:
      csr_write(static_cast<Csr>(slot.in.csr), rs1_val, slot);
      break;
    case Op::kEret:
      mstatus_ |= isa::kMstatusIe;
      do_redirect(mepc_);
      break;
    case Op::kHalt:
      halting_ = true;
      flush_ = true;  // stop issue; nothing younger may run
      break;
    default:
      break;
  }
}

void Cpu::do_redirect(u32 target) {
  flush_ = true;
  redirect_pc_ = target;
  redirect_pending_ = true;
}

// -----------------------------------------------------------------------------
// Issue
// -----------------------------------------------------------------------------

namespace {

/// Registers written by an instruction (as a bitmask), empty for r0.
u32 write_set(const Instr& in) {
  if (!isa::writes_rd(in) || in.rd == 0) return 0;
  u32 m = 1u << in.rd;
  if (isa::is_r64(in.op)) m |= 1u << ((in.rd + 1) % isa::kNumRegs);
  return m;
}

u32 read_set(const Instr& in) {
  u32 m = 0;
  const bool r64 = isa::is_r64(in.op);
  if (isa::reads_rs1(in) && in.rs1 != 0) {
    m |= 1u << in.rs1;
    if (r64) m |= 1u << ((in.rs1 + 1) % isa::kNumRegs);
  }
  if (isa::reads_rs2(in) && in.rs2 != 0) {
    m |= 1u << in.rs2;
    if (r64) m |= 1u << ((in.rs2 + 1) % isa::kNumRegs);
  }
  return m;
}

bool issues_alone(const Instr& in) {
  switch (isa::op_class(in.op)) {
    case OpClass::kBranch:
    case OpClass::kSys:
    case OpClass::kMulDiv:
      return true;
    default:
      return false;
  }
}

}  // namespace

void Cpu::stage_issue() {
  if (flush_) {
    fq_len_ = 0;
    next_issue_pc_ = redirect_pc_;
    return;
  }
  if (halting_ || halted_) return;

  if (drain_for_irq_) {
    if (pipeline_empty() && !memsys_.data_busy()) take_trap();
    return;
  }

  if (ex_[0].valid || ex_[1].valid) return;  // EX occupied (stall/divide)

  if (icu_out_.irq && (mstatus_ & isa::kMstatusIe)) {
    drain_for_irq_ = true;
    DETSTL_TRACE(sink_, trace::Event{.cycle = perf_.cycles,
                                     .kind = trace::EventKind::kIrqWindow,
                                     .core = static_cast<u8>(cfg_.core_id),
                                     .a = icu_out_.cause});
    return;
  }

  if (fq_len_ == 0) {
    ++perf_.if_stalls;
    return;
  }

  auto make_slot = [&](const FetchEntry& e, const Instr& in, unsigned pipe) {
    SlotInstr s;
    s.valid = true;
    s.in = in;
    s.pc = e.pc;
    s.is64 = isa::is_r64(in.op);
    s.writes = isa::writes_rd(in) && in.rd != 0;
    s.is_load = isa::is_load(in.op);
    if (trace_.enabled())
      s.trace_id = trace_.on_issue(perf_.cycles, e.pc, pipe, isa::disasm(in));
    return s;
  };

  const FetchEntry e0 = fq_[0];
  ++perf_.decodes;
  const Instr i0 = isa::decode(e0.word);
  fq_pop_front();
  ex_[0] = make_slot(e0, i0, 0);
  next_issue_pc_ = e0.pc + 4;

  if (issues_alone(i0)) return;

  if (fq_len_ == 0) return;
  const FetchEntry e1 = fq_[0];
  if (e1.pc != e0.pc + 4) return;
  ++perf_.decodes;
  const Instr i1 = isa::decode(e1.word);
  // Slot 1 accepts only single-cycle ALU ops (no memory port, no branch).
  if (isa::op_class(i1.op) != OpClass::kAlu) return;

  // Same-packet dependencies: the HDCU serialises the packet ("split").
  const u32 w0 = write_set(i0);
  const bool raw = (w0 & read_set(i1)) != 0;
  const bool waw = (w0 & write_set(i1)) != 0;
  if (raw || waw) {
    ++perf_.splits;
    return;
  }

  fq_pop_front();
  ex_[1] = make_slot(e1, i1, 1);
  next_issue_pc_ = e1.pc + 4;
}

void Cpu::fq_push(u32 pc, u32 word) {
  assert(fq_len_ < kFqCapacity);
  fq_[fq_len_++] = FetchEntry{pc, word};
}

void Cpu::fq_pop_front() {
  std::copy(fq_.begin() + 1, fq_.begin() + fq_len_, fq_.begin());
  --fq_len_;
}

void Cpu::take_trap() {
  mepc_ = next_issue_pc_;
  mcause_ = icu_out_.cause;
  DETSTL_TRACE(sink_, trace::Event{.cycle = perf_.cycles,
                                   .kind = trace::EventKind::kIrqTaken,
                                   .core = static_cast<u8>(cfg_.core_id),
                                   .addr = mepc_,
                                   .a = mcause_});
  mstatus_ &= ~isa::kMstatusIe;
  icu_ack_ = true;
  drain_for_irq_ = false;
  fq_len_ = 0;
  redirect_pc_ = mtvec_;
  redirect_pending_ = true;
  next_issue_pc_ = mtvec_;
}

// -----------------------------------------------------------------------------
// Fetch
// -----------------------------------------------------------------------------

void Cpu::stage_fetch(mem::SharedBus& bus) {
  if (redirect_pending_) {
    memsys_.ifetch_cancel();
    next_fetch_ = align_down(redirect_pc_, 8);
    skip_before_ = redirect_pc_;
    redirect_pending_ = false;
  }

  auto collect = [&] {
    while (memsys_.ifetch_done()) {
      const u32 addr = memsys_.ifetch_addr();
      const u64 data = memsys_.ifetch_data();
      for (unsigned k = 0; k < 2; ++k) {
        const u32 pc = addr + 4 * k;
        if (pc >= skip_before_) fq_push(pc, static_cast<u32>(data >> (32 * k)));
      }
      memsys_.ifetch_ack();
    }
  };

  collect();  // responses that completed during the previous bus tick

  // Start at most one new fetch per cycle; a second may stay in flight
  // (pipelined flash/bus access).
  if (memsys_.ifetch_can_request() && !halting_ && fq_len_ + 4 <= kFqCapacity) {
    if (!memsys_.fetchable(next_fetch_)) {
      // Runaway fetch (faulty redirect): supply invalid encodings, which
      // halt the core at issue — the watchdog/verdict catches it.
      for (unsigned k = 0; k < 2; ++k) {
        const u32 pc = next_fetch_ + 4 * k;
        if (pc >= skip_before_) fq_push(pc, 0);
      }
      next_fetch_ += 8;
      return;
    }
    memsys_.ifetch_request(next_fetch_, bus);
    next_fetch_ += 8;
    collect();  // TCM / cache hits complete in the same cycle
  }
}

// -----------------------------------------------------------------------------
// ICU / CSRs
// -----------------------------------------------------------------------------

void Cpu::icu_endofcycle() {
  IcuIn in;
  in.events = icu_events_;
  in.mie = static_cast<u8>(mie_);
  in.ack = icu_ack_;
  in.clear = icu_clear_;

  IcuOut out;
  if (hooks_.icu != nullptr) {
    out = hooks_.icu->eval(in);
    hooks_.icu->clock(in);
  } else {
    out = icu_.eval(in);
  }
  // The behavioural state always tracks the golden function of the inputs so
  // checkpoints of good runs can seed netlist models.
  icu_.clock(in);
  if (hooks_.tap != nullptr) hooks_.tap->on_icu(perf_.cycles, in, out);

  icu_out_ = out;
  icu_events_ = 0;
  icu_clear_ = 0;
  icu_ack_ = false;
}

u32 Cpu::csr_read(Csr c) const { return csr_read_internal(c); }

u32 Cpu::csr_read_internal(Csr c) const {
  switch (c) {
    case Csr::kCycle: return static_cast<u32>(perf_.cycles);
    case Csr::kInstret: return static_cast<u32>(perf_.instret);
    case Csr::kIfStall: return static_cast<u32>(perf_.if_stalls);
    case Csr::kMemStall: return static_cast<u32>(perf_.mem_stalls);
    case Csr::kHdcuStall: return static_cast<u32>(perf_.hdcu_stalls);
    case Csr::kSplit: return static_cast<u32>(perf_.splits);
    case Csr::kIcMiss: return static_cast<u32>(memsys_.icache().stats().misses);
    case Csr::kDcMiss: return static_cast<u32>(memsys_.dcache().stats().misses);
    case Csr::kMstatus: return mstatus_;
    case Csr::kMtvec: return mtvec_;
    case Csr::kMepc: return mepc_;
    case Csr::kMcause: return mcause_;
    case Csr::kMip: return icu_out_.pending;
    case Csr::kMie: return mie_;
    case Csr::kMfpc: return mfpc_;
    case Csr::kCacheCfg: return memsys_.cache_cfg();
    case Csr::kCoreId: return static_cast<u32>(cfg_.core_id);
    default: return 0;
  }
}

void Cpu::csr_write(Csr c, u32 v, SlotInstr& slot) {
  switch (c) {
    case Csr::kMstatus: mstatus_ = v & isa::kMstatusIe; break;
    case Csr::kMtvec: mtvec_ = v; break;
    case Csr::kMepc: mepc_ = v; break;
    case Csr::kMie: mie_ = v & ((1u << isa::kNumIcuSources) - 1); break;
    case Csr::kMip: icu_clear_ |= static_cast<u8>(v); break;
    case Csr::kMswi:
      slot.events |= 1u << static_cast<unsigned>(isa::IcuSource::kSoftware);
      break;
    case Csr::kCacheOp:
      memsys_.cache_op(v);
      if (sink_ != nullptr && phase_.observe_cache_op(v)) {
        DETSTL_TRACE(sink_,
                     trace::Event{.cycle = perf_.cycles,
                                  .kind = trace::EventKind::kPhaseBegin,
                                  .core = static_cast<u8>(cfg_.core_id),
                                  .unit = static_cast<u8>(phase_.current()),
                                  .addr = slot.pc});
      }
      break;
    case Csr::kCacheCfg:
      memsys_.set_cache_cfg(v);
      if (sink_ != nullptr && phase_.observe_cache_cfg(v)) {
        DETSTL_TRACE(sink_,
                     trace::Event{.cycle = perf_.cycles,
                                  .kind = trace::EventKind::kPhaseBegin,
                                  .core = static_cast<u8>(cfg_.core_id),
                                  .unit = static_cast<u8>(phase_.current()),
                                  .addr = slot.pc});
      }
      break;
    default: break;  // counters are read-only
  }
}

}  // namespace detstl::cpu
