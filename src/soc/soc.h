#pragma once
// Triple-core SoC: cores A and B (32-bit) and core C (64-bit extension),
// each with private TCMs and L1 caches, sharing one bus to Flash and SRAM —
// the topology of the paper's industrial device.
//
// The whole SoC is a value type: copying it snapshots the complete
// architectural and micro-architectural state (the fault-simulation engine
// uses this for mid-run checkpoints). The only shared state is the Flash ROM
// image, an immutable page table held by shared_ptr (mem/flash.h): loading
// a program builds a new table, so earlier copies keep theirs. CPU hook
// pointers are copied verbatim; campaigns re-install their own hooks after
// restore.

#include <array>
#include <vector>

#include "cpu/cpu.h"
#include "isa/program.h"
#include "mem/bus.h"

namespace detstl::soc {

inline constexpr unsigned kMaxCores = 3;

/// Every SoC has all kMaxCores cores; core i is always of kind i: A and B
/// (32-bit), then C (64-bit). Unused cores stay inactive (set_active).
struct SocConfig {
  mem::MemSystemConfig mem{};
  /// Cycles each core is held in reset after reset() — the "initial SoC
  /// configuration" that staggers the cores' bus activity.
  std::array<u32, kMaxCores> start_delay = {0, 0, 0};
};

/// Per-core result mailbox in shared SRAM (software convention; see
/// core/wrappers). Word 0: status, word 1: signature, word 2: aux.
inline constexpr u32 kMailboxBase = mem::kSramBase;
inline constexpr u32 kMailboxStride = 32;
inline constexpr u32 kStatusRunning = 0;
inline constexpr u32 kStatusPass = 1;
inline constexpr u32 kStatusFail = 2;

inline u32 mailbox_addr(unsigned core_id) { return kMailboxBase + core_id * kMailboxStride; }

class Soc {
 public:
  explicit Soc(const SocConfig& cfg = {});

  const SocConfig& config() const { return cfg_; }
  unsigned num_cores() const { return kMaxCores; }

  cpu::Cpu& core(unsigned i) { return cores_[i]; }
  const cpu::Cpu& core(unsigned i) const { return cores_[i]; }
  mem::Flash& flash() { return flash_; }
  const mem::Flash& flash() const { return flash_; }
  mem::Sram& sram() { return sram_; }
  mem::SharedBus& bus() { return bus_; }
  const mem::SharedBus& bus() const { return bus_; }

  /// Load a program image into Flash/SRAM (before reset; not timed).
  void load_program(const isa::Program& prog);

  /// Set a core's boot address and mark it active. Inactive cores are
  /// "switched off" (paper Sec. IV-B) and generate no bus traffic.
  void set_boot(unsigned core_id, u32 pc);
  void set_active(unsigned core_id, bool active);
  bool is_active(unsigned core_id) const { return active_[core_id]; }

  /// Reset all cores (active ones boot after their start_delay).
  void reset();

  // --- per-core supervisor hooks (src/runtime/) -------------------------------
  /// Reset one core mid-run and point it at `pc`, leaving the other cores
  /// and the SoC clock untouched: cancels the core's bus slots (safe — the
  /// device access happens at completion, so an in-flight write never
  /// partially commits), aborts its memory-system ports, hard-resets its
  /// cache view and marks it active. The supervisor uses this for watchdog
  /// aborts, retry-with-reload and the uncacheable fallback rung.
  void restart_core(unsigned core_id, u32 pc);

  /// Quarantine a core: cancel its bus traffic, reset its memory-system
  /// view and deactivate it. The remaining cores keep running.
  void park_core(unsigned core_id);

  /// Install a detscope event sink into the bus and every core (non-owning;
  /// null = tracing off). Survives reset(); a SoC value copy (checkpoint)
  /// carries the pointer verbatim like the CPU hook pointers — the restorer
  /// re-installs or clears it (fault campaigns clear it on faulty replicas).
  void set_trace_sink(trace::EventSink* sink);
  trace::EventSink* trace_sink() const { return trace_sink_; }

  /// One SoC clock.
  void tick();

  u64 now() const { return now_; }

  /// True when every active core has halted.
  bool all_halted() const;

  struct RunResult {
    bool timed_out = false;
    u64 cycles = 0;
  };
  /// Run until all active cores halt or the watchdog expires.
  RunResult run(u64 max_cycles);

  // --- debug (zero-time) memory access ------------------------------------------
  u32 debug_read32(u32 addr) const;            // Flash/SRAM, cache-coherent view
  u32 debug_read32(unsigned core_id, u32 addr) const;  // adds TCM visibility
  void debug_write32(u32 addr, u32 value);     // SRAM only

  /// SEU flip point for the soak model (runtime/soak.h): invert one bit of
  /// an SRAM word in place, underneath any cached copies (an upset in the
  /// RAM array itself — a core holding the line in D$ keeps its clean view,
  /// exactly like real silicon).
  void flip_ram_bit(u32 addr, unsigned bit);

  friend bool same_state(const Soc& a, const Soc& b);

 private:
  SocConfig cfg_;
  std::vector<cpu::Cpu> cores_;
  std::array<bool, kMaxCores> active_{};
  std::array<u32, kMaxCores> boot_pc_{};
  mem::Flash flash_;
  mem::Sram sram_;
  mem::SharedBus bus_;
  u64 now_ = 0;
  trace::EventSink* trace_sink_ = nullptr;
};

/// Clock-blind state equality: true when `a` and `b` differ at most in
/// their free-running clocks and counters. Two such SoCs tick through equal
/// states as long as no core reads a counter CSR (cpu::Cpu::counter_reads)
/// and every start delay has run out (Soc::tick compares the clock with
/// them). Compared: every core (Cpu::same_state), the active flags and boot
/// PCs, the flash line buffers and image pointer, SRAM, and the bus slots
/// and grant state. Skipped: the clocks of the SoC, the bus and the memory
/// systems, every counter and statistic, the hook and sink pointers and the
/// trace recorders.
bool same_state(const Soc& a, const Soc& b);

}  // namespace detstl::soc
