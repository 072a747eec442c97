#pragma once
// The supervised-run campaign: many seeded StlSupervisor runs over one
// planned schedule, sharded over worker threads by the unit-campaign driver
// (fault/unit_driver.h). Two kinds run through it — count-based disturbance
// campaigns (below) and rate-based SEU soak campaigns (runtime/soak.h). They
// share the spec base, the result type, the driver body
// (run_supervised_campaign) and the report frame; a kind supplies only its
// payload kind, config hash, per-run function, record codec and report body.
//
// Determinism contract (same as the fault campaign's): the outcome vector —
// the concatenation of every run's canonical record — is byte-identical for
// a fixed seed at ANY thread count. Per-run results are written by run index
// into a pre-sized vector and every aggregate is derived from that vector
// after the join, so scheduling order can never leak into the output.

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "fault/unit_driver.h"
#include "perf/simstats.h"
#include "runtime/supervisor.h"

namespace detstl::runtime {

/// What every supervised-run campaign is configured by. Executor plumbing
/// (checkpoint, merge_dirs, shard range over run indices, interrupt, sink,
/// the per-run completion hook) comes from fault::UnitPlumbing and enters
/// no config hash. The sink receives only the driver's checkpoint
/// telemetry: supervised runs never trace there.
struct RunCampaignSpec : fault::UnitPlumbing {
  u64 seed;
  unsigned runs;
  unsigned threads = 0;  // 0 = one per hardware thread, 1 = serial
  unsigned cores = 3;
  /// Registry routine names (core/stl.h); empty = a default mix of the
  /// built-in routines.
  std::vector<std::string> routines;
  SupervisorConfig supervisor{};

 protected:
  /// Each kind has its own default master seed and run count.
  RunCampaignSpec(u64 default_seed, unsigned default_runs)
      : seed(default_seed), runs(default_runs) {}
};

struct CampaignSpec : RunCampaignSpec {
  CampaignSpec() : RunCampaignSpec(0xD15B0001, 16) {}
  DisturbanceSpec disturb{};  // arrival horizon: calibrated_horizon(plan, cores)
};

struct RunRecord {
  u64 seed = 0;
  SupervisorResult result;

  /// This run's slice of the campaign outcome vector: the seed, then the
  /// canonical supervisor result.
  void put_outcome(std::vector<u8>& out) const;
};

/// The result of a supervised-run campaign: one Record per run.
template <class Record>
struct RunCampaignResult {
  unsigned runs = 0;
  unsigned cores = 0;
  unsigned threads_used = 0;
  u64 seed = 0;
  std::vector<std::string> routine_names;
  std::vector<Record> records;  // indexed by run
  double wall_seconds = 0.0;    // excluded from the determinism contract
  /// Checkpoint/resume bookkeeping; excluded from the determinism contract.
  fault::CheckpointStats ckpt;

  /// Concatenated canonical run records (byte-identical across thread counts).
  std::vector<u8> outcome_vector() const {
    std::vector<u8> out;
    for (const Record& r : records) r.put_outcome(out);
    return out;
  }
  /// FNV-1a 64 of outcome_vector().
  u64 digest() const { return fnv1a(outcome_vector()); }
  /// Runs holding a record, resumed or finished by this process; fewer than
  /// `runs` only after a drain.
  std::size_t completed() const {
    std::size_t n = 0;
    for (const Record& r : records) n += r.seed != 0 ? 1 : 0;
    return n;
  }
};

using CampaignResult = RunCampaignResult<RunRecord>;

/// Full round-trip serialisation of one run record (seed + every
/// SupervisorResult field, including routine names) — the shard payload of a
/// disturbance-campaign checkpoint. Unlike outcome_vector() this is
/// loss-less: deserialising reproduces the record exactly.
std::vector<u8> serialize_run_record(const RunRecord& rec);

/// Inverse of serialize_run_record. Returns false (leaving `out`
/// unspecified) on any framing error, a flag byte other than 0 or 1
/// included — the campaign then re-executes that run instead of trusting a
/// half-parsed record.
bool deserialize_run_record(const std::vector<u8>& bytes, RunRecord& out);

/// The hash a disturbance-campaign checkpoint manifest binds to: seed, run
/// count, cores, routine names, the supervisor and disturbance configs with
/// the fixed plan constants (the calibrated window bound hashed as 0), and
/// the schedule plan's SoC image fingerprint. Deliberately EXCLUDES threads,
/// checkpoint, interrupt and sink.
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

/// The frame of every runtime report (recovery, soak, mission): the title
/// line "stlrun <title>, seed S, N cores", the routine list, `body`, then
/// the outcome digest line.
std::string frame_report(const std::string& title, u64 seed, unsigned cores,
                         const std::vector<std::string>& routines,
                         const std::string& body, u64 digest);

/// "outcome digest: 0x…\n" — the last line of every report, and the whole
/// output of --digest-only.
std::string digest_line(u64 digest);

// --- The one driver body ---------------------------------------------------

/// What a supervised-run campaign kind supplies to run_supervised_campaign.
template <class Record>
struct RunCampaignKind {
  const char* what;  // error prefix and journal label: "campaign", "soak"
  fault::PayloadKind payload;
  /// The checkpoint manifest hash, given the planned schedule.
  std::function<u64(const SchedulePlan&)> config_hash;
  /// One supervised run under its derived seed; called from worker threads.
  std::function<Record(const SchedulePlan&, u64 run_seed)> run;
  /// Loss-less journal codec; decode returns false on any framing error.
  std::vector<u8> (*encode)(const Record&);
  bool (*decode)(const std::vector<u8>&, Record&);
};

/// Check the core count, resolve the routines, plan the schedule, size the
/// result and execute every pending run through fault::UnitDriver. A
/// journalled record is taken only when it decodes and carries its run's
/// derived seed; anything else re-executes the run. Throws
/// std::runtime_error "<what>: ..." on a bad core count or routine name.
template <class Record>
RunCampaignResult<Record> run_supervised_campaign(
    const RunCampaignSpec& spec, const RunCampaignKind<Record>& kind) {
  if (spec.cores < 1 || spec.cores > soc::kMaxCores)
    throw std::runtime_error(std::string(kind.what) + ": cores must be 1..3");

  const auto t0 = std::chrono::steady_clock::now();
  const ResolvedRoutines routines = resolve_routines(spec.routines, kind.what);
  const SchedulePlan plan = plan_schedule(routines.ptrs, spec.cores);

  RunCampaignResult<Record> res;
  res.runs = spec.runs;
  res.cores = spec.cores;
  res.seed = spec.seed;
  res.routine_names = routines.names;
  res.records.resize(spec.runs);
  res.threads_used =
      std::min(fault::resolve_threads(spec.threads), std::max(1u, spec.runs));

  const auto run_seed = [&](u64 i) {
    return derive_run_seed(spec.seed, static_cast<unsigned>(i));
  };
  fault::UnitDriver driver(
      kind.what, spec.runs, spec,
      {.kind = kind.payload,
       .config_hash = [&] { return kind.config_hash(plan); },
       .accept = [&](u64 i, const std::vector<u8>& payload) {
         Record rec;
         if (!kind.decode(payload, rec) || rec.seed != run_seed(i))
           return false;
         res.records[i] = std::move(rec);
         return true;
       }});
  driver.run(
      res.threads_used, 1,
      {.run = [&](u64 i) {
         res.records[i] = kind.run(plan, run_seed(i));
         perf::sim_totals().add(perf::SimStat::kDisturbRuns, 1);
         perf::sim_totals().add(perf::SimStat::kDisturbCycles,
                                res.records[i].result.total_cycles);
       },
       .encode = [&](u64 i) { return kind.encode(res.records[i]); }});
  res.ckpt = driver.finish();
  res.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return res;
}

/// The disturbance kind: each run replays make_plan(disturb, run seed,
/// cores, calibrated_horizon) through a DisturbanceInjector. Throws
/// std::runtime_error on an unknown routine name or a bad core count.
CampaignResult run_disturbance_campaign(const CampaignSpec& spec);

/// Deterministic per-core recovery report (no wall-clock, no thread count —
/// safe to diff across thread counts).
std::string render_recovery_report(const CampaignResult& r);

}  // namespace detstl::runtime
