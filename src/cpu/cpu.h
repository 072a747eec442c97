#pragma once
// Dual-issue, 5-stage, in-order pipeline (IF, IS, EX, MEM, WB) modelling the
// paper's automotive cores:
//   * 8-byte fetch packets through the per-core memory system (TCM / L1
//     caches / shared bus) — fetch starvation is the multi-core disturbance
//     the paper studies;
//   * two execution pipes; memory ops, branches, multi-cycle divides and
//     system ops issue in slot 0 only; same-packet RAW/WAW splits the packet;
//   * forwarding into both EX operand pairs from EXMEM/MEMWB of both pipes,
//     driven by the HDCU; load-use and mixed-width hazards stall one cycle;
//   * synchronous imprecise interrupts: events flagged at WB, recognised at
//     the next issue boundary after the pipeline drains;
//   * performance counters (CSRs) for cycles/retired/IF stalls/MEM stalls/
//     HDCU stalls/splits.
//
// The HDCU, Forwarding Logic and ICU are pluggable (behavioural by default,
// netlist-backed in fault campaigns) via non-owning hook pointers.

#include <array>
#include <string>

#include "cpu/forward.h"
#include "cpu/hazard.h"
#include "cpu/icu.h"
#include "cpu/perf.h"
#include "cpu/tap.h"
#include "cpu/trace.h"
#include "isa/alu.h"
#include "isa/encoding.h"
#include "mem/memsys.h"

namespace detstl::cpu {

struct CpuConfig {
  CoreKind kind = CoreKind::kA;
  unsigned core_id = 0;
  mem::MemSystemConfig mem{};
};

/// Non-owning implementation overrides; all null => behavioural models.
/// Owned by the installer (fault campaign); must be re-installed after
/// copying the CPU (checkpoint restore).
struct CpuHooks {
  HazardModel* hazard = nullptr;
  ForwardModel* fwd = nullptr;
  IcuModel* icu = nullptr;
  ModuleTap* tap = nullptr;
};

class Cpu {
 public:
  explicit Cpu(const CpuConfig& cfg);

  void reset(u32 boot_pc);

  /// Evaluate one clock cycle: commits WB, advances MEM/EX/IS/IF, and may
  /// submit memory-port requests to the shared bus.
  void cycle(mem::SharedBus& bus);

  /// Completes memory-port transactions; call after the bus tick.
  void post_tick(mem::SharedBus& bus);

  bool halted() const { return halted_; }
  CoreKind kind() const { return cfg_.kind; }
  unsigned core_id() const { return cfg_.core_id; }

  // --- architectural state access (debug / harness) ---------------------------
  u32 reg(unsigned idx) const { return regs_[idx]; }
  void set_reg(unsigned idx, u32 v) {
    if (idx != 0) regs_[idx] = v;
  }
  u32 csr_read(isa::Csr c) const;
  const PerfCounters& perf() const { return perf_; }
  PerfCounters& perf() { return perf_; }

  mem::MemSystem& memsys() { return memsys_; }
  const mem::MemSystem& memsys() const { return memsys_; }

  CpuHooks& hooks() { return hooks_; }
  TraceRecorder& trace() { return trace_; }

  /// Install the detscope event sink into this core and its memory system
  /// (non-owning; null = tracing off). Carried by value copies like the hook
  /// pointers — re-install or clear after checkpoint restore (trace/event.h).
  void set_trace_sink(trace::EventSink* sink) {
    sink_ = sink;
    memsys_.set_trace_sink(sink);
  }
  trace::EventSink* trace_sink() const { return sink_; }

  /// Behavioural ICU state (for checkpoint restore into netlist models).
  const IcuState& icu_state() const { return icu_; }

  /// Counter-CSR reads (isa::is_counter_csr) this core has executed since
  /// construction. Those reads are the only way the free-running counters
  /// that same_state skips reach architectural state.
  u64 counter_reads() const { return counter_reads_; }

  /// Clock-blind state equality (soc::same_state): registers, CSRs, the ICU,
  /// the pipeline latches, the fetch queue, the control state and the memory
  /// system. Not compared: the performance counters, counter_reads(), the
  /// hook and sink pointers, the trace recorder and the phase tracker (it
  /// moves only while a sink is installed and feeds only trace events).
  bool same_state(const Cpu& o) const;

  /// The cheap part of same_state: the fetch and issue PCs and the
  /// register file.
  bool same_pcs_and_regs(const Cpu& o) const;

  /// OR external event strobes into this cycle's ICU inputs — an
  /// asynchronous interrupt arriving mid-run (runtime::DisturbanceInjector).
  /// Travels the same synchroniser/recognition path as pipeline-raised
  /// events; ignored architecturally while mstatus.IE is clear.
  void inject_icu_event(u8 sources) { icu_events_ |= sources; }

  /// SEU flip point for the rate-based soak model (runtime/soak.h): flip one
  /// bit of one currently-valid pipeline latch, chosen deterministically from
  /// `pick`. Candidates are the EX/MEM/WB result latches; a flip in a latch
  /// whose packet does not write a register is architecturally masked but
  /// still counts as applied (it landed in real state). Returns false when no
  /// latch is valid this cycle (the upset missed the pipeline).
  bool inject_pipeline_upset(u64 pick);

 private:
  struct SlotInstr {
    bool valid = false;
    isa::Instr in;
    u32 pc = 0;
    u64 trace_id = 0;
    // EX results
    u64 result = 0;   // rd value (zero-extended for 32-bit ops; pair for R64)
    bool is64 = false;
    bool writes = false;
    bool is_load = false;
    u8 events = 0;    // ICU event strobes raised at WB
    // memory op bookkeeping (slot 0 only)
    u32 mem_addr = 0;
    u32 store_data = 0;
    bool mem_requested = false;
    bool mem_done = false;

    bool operator==(const SlotInstr&) const = default;
    /// Every field but trace_id, a trace-recorder handle. An invalid
    /// latch's stale fields still count: the hazard and forwarding inputs
    /// read them.
    bool same_state(SlotInstr o) const {
      o.trace_id = trace_id;
      return *this == o;
    }
  };

  struct FetchEntry {
    u32 pc = 0;
    u32 word = 0;

    bool operator==(const FetchEntry&) const = default;
  };

  // Stage evaluation helpers (called from cycle() in order).
  void stage_wb();
  bool stage_mem(mem::SharedBus& bus);  // returns true if MEM advanced
  void stage_ex(bool mem_advanced, const SlotInstr (&snap_exmem)[2],
                const SlotInstr (&snap_memwb)[2]);
  void stage_issue();
  void stage_fetch(mem::SharedBus& bus);
  void icu_endofcycle();

  void execute_slot(SlotInstr& slot, u64 op_a, u64 op_b);
  void exec_system(SlotInstr& slot, u32 rs1_val);
  void do_redirect(u32 target);
  void fq_push(u32 pc, u32 word);
  void fq_pop_front();
  void take_trap();
  bool pipeline_empty() const;

  HdcuIn build_hdcu_in(const SlotInstr (&ex)[2], const SlotInstr (&em)[2],
                       const SlotInstr (&mw)[2]) const;
  FwdIn build_fwd_in(const SlotInstr (&ex)[2], const HdcuOut& hz,
                     const SlotInstr (&em)[2], const SlotInstr (&mw)[2]) const;

  u32 csr_read_internal(isa::Csr c) const;
  void csr_write(isa::Csr c, u32 v, SlotInstr& slot);

  CpuConfig cfg_;
  mem::MemSystem memsys_;
  CpuHooks hooks_;
  TraceRecorder trace_;

  // Architectural state
  u32 regs_[isa::kNumRegs] = {};
  PerfCounters perf_;
  IcuState icu_;
  u32 mstatus_ = 0;
  u32 mtvec_ = 0;
  u32 mepc_ = 0;
  u32 mcause_ = 0;
  u32 mie_ = 0;
  u32 mfpc_ = 0;
  u64 counter_reads_ = 0;  // never reset, so equal counts mean no read between

  // Pipeline latches
  SlotInstr ex_[2];      // packet in EX this cycle
  SlotInstr exmem_[2];   // packet in MEM this cycle
  SlotInstr memwb_[2];   // packet in WB this cycle
  // Fetch queue, oldest first. At most two 8-byte packets are in flight and
  // a fetch starts only while 4 slots are free, so 8 entries never overflow.
  static constexpr unsigned kFqCapacity = 8;
  std::array<FetchEntry, kFqCapacity> fq_{};
  unsigned fq_len_ = 0;

  // Control state
  bool halted_ = false;
  bool halting_ = false;
  bool flush_ = false;        // set by EX (taken branch / eret / trap)
  u32 redirect_pc_ = 0;       // valid when flush_
  bool redirect_pending_ = false;  // IF must re-steer
  u32 next_fetch_ = 0;
  u32 skip_before_ = 0;       // discard fetched slots below this PC
  u32 next_issue_pc_ = 0;     // PC of the next instruction to issue (MEPC source)
  u32 div_busy_ = 0;          // remaining EX cycles of an in-flight divide
  bool drain_for_irq_ = false;
  static constexpr u32 kDivCycles = 8;

  // ICU cycle interface
  u8 icu_events_ = 0;  // raised at WB this cycle
  u8 icu_clear_ = 0;   // CSR kMip write strobes this cycle
  bool icu_ack_ = false;
  IcuOut icu_out_;     // latched output visible to IS/CSRs next cycle

  // detscope: non-owning event sink + wrapper-phase recognition (value state;
  // the tracker travels with checkpoints, the sink is re-installed/cleared).
  trace::EventSink* sink_ = nullptr;
  trace::PhaseTracker phase_;
};

}  // namespace detstl::cpu
