#pragma once
// Stuck-at fault-simulation campaign over one graded module of one core
// (DESIGN.md Sec. 6, docs/fault_simulation.md):
//
//  1. Good run. The scenario executes with behavioural models; a tap records
//     the graded module's per-call input trace, the signature-register (r29)
//     write sequence, the final mailbox verdict, and periodic full-SoC
//     checkpoints (the SoC is a value type).
//  2. Excitation screening. The input trace is replayed through the gate-level
//     netlist with 64 lanes per word: 63 faulty machines + 1 fault-free
//     reference lane. A fault whose outputs never diverge is undetected
//     (never excited). Sound because a stuck-at inside the module cannot
//     influence the module's own inputs before its outputs first diverge.
//  3. Detection. Each excited fault is re-simulated from the last checkpoint
//     preceding its first divergence, with the faulty netlist installed as
//     the module implementation. Early exit on the first r29 write that
//     differs from the good sequence; otherwise the final mailbox verdict is
//     compared; a watchdog timeout counts as detected (in-field behaviour).
//
// Phases 2 and 3 simulate one representative per structural equivalence
// class (netlist/equivalence.h) and copy its first divergence and outcome to
// every member; units, journal records and all counts stay per fault.
// Both phases are embarrassingly parallel (lane groups / classes are
// independent) and run on a worker pool when CampaignConfig::threads != 1.
// The result is bit-identical for every thread count: workers write outcomes
// into a pre-sized vector by fault index and all aggregate counters are
// recomputed from that vector after the pool joins.

#include <functional>
#include <vector>

#include "core/wrapper.h"
#include "fault/checkpoint.h"
#include "fault/progress.h"
#include "fault/unit_driver.h"
#include "netlist/adapters.h"
#include "soc/soc.h"

namespace detstl::fault {

enum class Module : u8 { kFwd, kHdcu, kIcu };

const char* module_name(Module m);

/// The good run's cycle bound: a campaign whose fault-free run has not
/// halted the graded core by then throws instead of grading.
inline constexpr u64 kGoodRunMaxCycles = 20'000'000;

/// Executor plumbing (checkpoint, merge_dirs, shard range, interrupt, sink)
/// comes from UnitPlumbing. Fault-specific readings: the shard range is over
/// the *simulated* fault list, and out-of-range faults hold a kNotExcited
/// placeholder. The good run traces live into `sink`; faulty replicas never
/// emit (the campaign clears the sink on every restored checkpoint copy),
/// and per-fault events are emitted after the worker pool joins, in
/// fault-index order with a sequence-number clock, so the stream is
/// byte-identical for every `threads` value.
struct CampaignConfig : UnitPlumbing {
  Module module = Module::kFwd;
  unsigned core_id = 0;  // core under grade
  isa::CoreKind kind = isa::CoreKind::kA;
  u32 checkpoint_every = 4096;  // cycles between checkpoints
  /// Simulate every Nth net of the fault list (deterministic sampling speed
  /// knob for the benches; 1 = exhaustive; 0 is rejected, see sample_faults).
  u32 fault_stride = 1;
  /// Cache-based wrapper: signature writes before the execution loop (the
  /// loading loop) are architecturally discarded by the re-seed and must not
  /// count as detections. The iteration boundary is identified by the loop
  /// counter (r30) reaching 1.
  bool signature_from_marker = false;
  /// Worker threads for the screening and detection phases. 0 = hardware
  /// concurrency, 1 = fully serial (no threads are spawned). Any value
  /// yields the same CampaignResult, byte for byte.
  unsigned threads = 0;
  /// Optional observability callback (never affects the result). Invoked
  /// under an internal mutex at phase boundaries and roughly every 64
  /// completed work units.
  ProgressFn progress;
};

/// The scenario under grade: builds a fresh SoC with all programs loaded and
/// boot addresses set (reset() not yet called). Must be deterministic.
using SocFactory = std::function<soc::Soc()>;

enum class FaultOutcome : u8 {
  kNotExcited,         // outputs never diverged
  kDetectedSignature,  // r29 write sequence diverged
  kDetectedVerdict,    // final mailbox (status, signature) mismatch
  kDetectedWatchdog,   // faulty run exceeded the watchdog
  kUndetected,         // excited, but signature and verdict unchanged
};

struct CampaignResult {
  u64 total_faults = 0;     // fault list size (before sampling)
  u64 simulated_faults = 0; // after sampling
  u64 excited = 0;
  u64 detected = 0;
  u64 detected_signature = 0;
  u64 detected_verdict = 0;
  u64 detected_watchdog = 0;
  u64 good_cycles = 0;      // graded core cycles, reset -> halt
  core::TestVerdict good_verdict;
  std::vector<FaultOutcome> outcomes;  // per simulated fault
  /// Equivalence classes among the sampled faults: how many faults phases 1
  /// and 2 actually simulate (netlist/equivalence.h). A work count,
  /// excluded from canonical_bytes(). The simulated work itself (good-run,
  /// screen and detection counts) goes to perf::sim_totals() only.
  u64 fault_classes = 0;
  double wall_seconds = 0;  // host wall-clock of the whole campaign
  unsigned threads_used = 0;  // resolved worker count (cfg.threads == 0 case)
  /// Checkpoint/resume bookkeeping; like wall_seconds, excluded from the
  /// determinism contract (canonical_bytes).
  CheckpointStats ckpt;

  /// Fault coverage over the sampled fault population, in percent. With
  /// fault_stride > 1 this is an *estimate* of the exhaustive coverage.
  double coverage_percent() const {
    return simulated_faults == 0
               ? 0.0
               : 100.0 * static_cast<double>(detected) /
                     static_cast<double>(simulated_faults);
  }

  /// Detected faults over the *full* fault list, in percent. Equal to
  /// coverage_percent() for exhaustive campaigns; with sampling it is only
  /// a lower bound (unsampled faults count as undetected), so sampled and
  /// exhaustive runs are never conflated.
  double coverage_percent_of_total() const {
    return total_faults == 0 ? 0.0
                             : 100.0 * static_cast<double>(detected) /
                                   static_cast<double>(total_faults);
  }

  /// Canonical little-endian serialisation of the deterministic portion of
  /// the result — everything except wall_seconds, threads_used and ckpt.
  /// The unit of the byte-identity contract: equal for any thread count and
  /// for straight vs killed-and-resumed vs multi-resume executions.
  std::vector<u8> canonical_bytes() const;
};

/// The campaign's fault-sampling rule. The fault list interleaves SA0/SA1
/// per net; every `stride`-th NET is kept with both polarities, so there is
/// no polarity bias. Throws std::invalid_argument on stride 0.
std::vector<netlist::Fault> sample_faults(const netlist::Netlist& nl,
                                          u32 stride);

/// The gate-level netlist of `m` for core kind `kind`, as graded by a
/// campaign with that module.
netlist::Netlist module_netlist(Module m, isa::CoreKind kind);

/// The hash a checkpoint manifest binds this campaign to: every
/// outcome-relevant CampaignConfig field (module, graded core, bounds,
/// fault_stride, marker mode) plus the netlist fingerprint and the
/// routine-image fingerprint of the factory's SoC. Deliberately EXCLUDES
/// threads, progress, sink, checkpoint and interrupt — resuming on a
/// different worker count or with different observability is legal and
/// changes nothing.
u64 checkpoint_config_hash(const CampaignConfig& cfg, const netlist::Netlist& nl,
                           const soc::Soc& soc);

class Campaign {
 public:
  Campaign(const CampaignConfig& cfg, SocFactory factory);

  /// Run the full two-phase campaign.
  CampaignResult run();

 private:
  CampaignConfig cfg_;
  SocFactory factory_;
};

}  // namespace detstl::fault
