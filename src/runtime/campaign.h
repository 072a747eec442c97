#pragma once
// Disturbance campaign: many seeded supervisor runs, sharded over worker
// threads by the unit-campaign driver (fault/unit_driver.h). Determinism
// contract (same as the fault campaign's): the outcome vector — the
// concatenation of every run's SupervisorResult::outcome_vector() — is
// byte-identical for a fixed seed at ANY thread count. Per-run results are
// written by run index into a pre-sized vector and every aggregate is
// derived from that vector after the join, so scheduling order can never
// leak into the output.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/unit_driver.h"
#include "runtime/supervisor.h"

namespace detstl::runtime {

/// Executor plumbing (checkpoint, merge_dirs, shard range over run indices,
/// interrupt, sink) comes from fault::UnitPlumbing. The sink receives only
/// the driver's checkpoint telemetry: supervised runs never trace there.
struct CampaignSpec : fault::UnitPlumbing {
  u64 seed = 0xD15B0001;
  unsigned runs = 16;
  unsigned threads = 0;   // 0 = one per hardware thread, 1 = serial
  unsigned cores = 3;
  /// Registry routine names (core/stl.h); empty = a default mix of the
  /// built-in routines. The overload taking routine pointers ignores this.
  std::vector<std::string> routines;
  SupervisorConfig supervisor{};
  DisturbanceSpec disturb{};  // window_hi 0 = derived from the calibration
  /// Observability hook invoked once per run completed by THIS process (not
  /// for resumed records), with the run index. May be called concurrently
  /// from worker threads; must never affect the result. Not hashed. The
  /// stlserve workers bump their heartbeat file here.
  std::function<void(u64)> on_run_complete;
};

struct RunRecord {
  u64 seed = 0;
  SupervisorResult result;
};

struct CampaignResult {
  unsigned runs = 0;
  unsigned cores = 0;
  unsigned threads_used = 0;
  u64 seed = 0;
  std::vector<std::string> routine_names;
  std::vector<RunRecord> records;  // indexed by run
  double wall_seconds = 0.0;       // excluded from the determinism contract
  /// Checkpoint/resume bookkeeping; excluded from the determinism contract.
  fault::CheckpointStats ckpt;

  /// Concatenated canonical run results (byte-identical across thread counts).
  std::vector<u8> outcome_vector() const;
  /// FNV-1a 64 of outcome_vector().
  u64 digest() const;
};

/// Full round-trip serialisation of one run record (seed + every
/// SupervisorResult field, including routine names) — the shard payload of a
/// disturbance-campaign checkpoint. Unlike outcome_vector() this is
/// loss-less: deserialising reproduces the record exactly.
std::vector<u8> serialize_run_record(const RunRecord& rec);

/// Inverse of serialize_run_record. Returns false (leaving `out`
/// unspecified) on any framing error — the campaign then re-executes that
/// run instead of trusting a half-parsed record.
bool deserialize_run_record(const std::vector<u8>& bytes, RunRecord& out);

/// The hash a disturbance-campaign checkpoint manifest binds to: seed, run
/// count, cores, routine names, the full supervisor and disturbance configs,
/// and the schedule plan's SoC image fingerprint. Deliberately EXCLUDES
/// threads, checkpoint, interrupt and sink.
u64 checkpoint_config_hash(const CampaignSpec& spec, const SchedulePlan& plan);

/// Per-run seed: splitmix64-style mix of the master seed and the run index,
/// so runs are decorrelated but reproducible individually.
u64 derive_run_seed(u64 master, unsigned run);

// --- Setup shared by the runtime campaigns (disturbance, soak, mission) ----

struct ResolvedRoutines {
  std::vector<std::string> names;
  std::vector<std::unique_ptr<core::SelfTestRoutine>> owned;
  std::vector<const core::SelfTestRoutine*> ptrs;  // into `owned`
};

/// Resolve registry routine names (core/stl.h); empty = the default mix
/// alu, rf-march, shifter, branch, muldiv. Throws std::runtime_error
/// "<what>: unknown routine '<name>' ..." on an unknown name.
ResolvedRoutines resolve_routines(const std::vector<std::string>& names,
                                  const char* what);

/// Default arrival horizon for disturbances and upsets: twice the slowest
/// core's fault-free cached schedule time plus 1,000 cycles of slack, so
/// arrivals land across the whole run including retries.
u64 calibrated_horizon(const SchedulePlan& plan, unsigned cores);

/// The manifest-hash prefix both runtime campaign kinds share, in on-disk
/// order: schema, payload kind, seed, runs, cores, the resolved schedule and
/// the supervisor config. Each kind appends its own knobs and the SoC image.
fault::ConfigHasher schedule_hasher(fault::PayloadKind kind, u64 seed,
                                    unsigned runs, unsigned cores,
                                    const SchedulePlan& plan,
                                    const SupervisorConfig& sup);

CampaignResult run_disturbance_campaign(
    const CampaignSpec& spec,
    const std::vector<const core::SelfTestRoutine*>& routines);

/// Convenience overload resolving spec.routines from the registry; throws
/// std::runtime_error on an unknown name.
CampaignResult run_disturbance_campaign(const CampaignSpec& spec);

/// Deterministic per-core recovery report (no wall-clock, no thread count —
/// safe to diff across thread counts).
std::string render_recovery_report(const CampaignResult& r);

}  // namespace detstl::runtime
