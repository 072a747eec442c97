#pragma once
// stlserve orchestration layer (docs/runtime.md "stlserve"): supervised
// multi-process execution of a disturbance or fault-grading campaign.
//
// The unit space — run indices [0, runs) for kind "disturbance", the
// sampled fault list for kind "fault" — is partitioned into one contiguous
// shard per worker. Each shard runs in its own PROCESS — a forked child of
// the supervisor — journaling into its own per-shard checkpoint subdir
// (`<work_dir>/shard-NN/`) in the checksummed-shard format of
// fault/checkpoint.h. The shard range is deliberately excluded from the
// checkpoint config hash, so every subdir carries the SAME manifest
// identity as the single-process campaign: any worker can resume any
// subdir, and all subdirs merge back into one result.
//
// Supervision ladder (mirrors runtime::StlSupervisor's degradation ladder,
// applied to processes instead of cores):
//
//   spawn ──▶ RUNNING ──exit 0──▶ DONE
//               │
//               ├─ death (crash / nonzero exit / signal)
//               ├─ hang  (heartbeat stale past hang_timeout_ms)
//               │         → SIGKILL the worker first
//               └─ corrupt journal (worker exits with the mismatch code)
//                         → quarantine the subdir (*.corrupt-N), run fresh
//               then: attempts <= max_respawns → respawn with exponential
//                     backoff, RESUMING the shard's own journal;
//                     attempts exhausted → FAILED: the merge re-executes
//                     every unit the shard's journal does not cover.
//
// The journal IS the IPC: workers print nothing and share nothing but their
// subdir. Post-hoc the supervisor merges every subdir
// (fault::UnitPlumbing::merge_dirs) and re-executes in-process, on all
// hardware threads, any unit no journal covers, so the final result is
// byte-identical to the single-process run no matter what was killed, hung
// or corrupted along the way.
//
// A SIGTERM/SIGINT to the supervisor is forwarded to the workers; everyone
// drains cooperatively and `stlserve run --resume` continues the campaign
// (tools/cli_util.h exit-code contract, code 3).

#include <string>
#include <vector>

#include "fault/campaign.h"
#include "serve/spec.h"

namespace detstl::serve {

/// Deterministic failure injection for the chaos drill, applied by the
/// worker itself after `after` completed runs. Actions: "kill-after"
/// (raise SIGKILL; first spawn of the shard only), "hang-after" (spin
/// forever; first spawn only), "kill-every" (SIGKILL on EVERY spawn —
/// drives the respawn-exhaustion → merge re-execution path). A rule whose
/// `shard` is not one of the planned shards never fires; stlserve rejects
/// it as a usage error.
struct ChaosRule {
  unsigned shard = 0;
  std::string action;  // kill-after | hang-after | kill-every
  u64 after = 0;
};

struct ServeConfig {
  std::string work_dir;      // per-campaign checkpoint root (required)
  unsigned workers = 0;      // worker processes; 0 = spec.workers
  bool resume = false;       // resume an interrupted campaign in work_dir
  unsigned max_respawns = 3;      // respawns per shard before it is FAILED
  unsigned backoff_base_ms = 100; // respawn k waits base << (k-1), capped
  /// A worker whose heartbeat has not advanced for this long is declared
  /// hung and SIGKILLed. Also the grace period after spawn. The only hang
  /// detector: a worker that keeps completing units is never killed.
  unsigned hang_timeout_ms = 10'000;
  unsigned poll_ms = 25;     // supervisor poll period
  bool quiet = false;        // suppress supervision notes on stderr
  bool no_fsync = false;     // workers skip per-shard fsync (tests/CI)
  std::vector<ChaosRule> chaos;
};

/// One shard of the partition: the half-open run range [begin, end), its
/// checkpoint subdir and its heartbeat file.
struct ShardPlan {
  u64 begin = 0;
  u64 end = 0;
  std::string dir;
  std::string heartbeat;
};

/// Contiguous partition of [0, runs) into at most `workers` non-empty
/// shards (fewer when runs < workers). Pure; deterministic.
std::vector<ShardPlan> plan_shards(u64 runs, unsigned workers,
                                   const std::string& work_dir);

/// Supervision outcome counters (host-side observability; never part of
/// the campaign's determinism contract).
struct ServeStats {
  unsigned shards = 0;
  unsigned respawns = 0;        // worker deaths answered with a respawn
  unsigned hung_killed = 0;     // workers SIGKILLed by a watchdog
  unsigned dirs_quarantined = 0;  // whole subdirs set aside (*.corrupt-N)
  u64 merge_reexecuted = 0;     // runs no journal covered, re-run at merge
  u32 shards_corrupt = 0;       // corrupt journal files quarantined
  u64 records_resumed = 0;      // records accepted at the final merge
};

struct ServeResult {
  /// Valid iff !interrupted and the spec's kind is "disturbance".
  runtime::CampaignResult result;
  /// Valid iff !interrupted and the spec's kind is "fault".
  fault::CampaignResult fault_result;
  ServeStats stats;
  bool interrupted = false;  // supervisor drained; resume with --resume
};

/// The campaign's unit count for the spec's kind: spec.runs for
/// "disturbance"; the sampled fault-list size (netlist construction only,
/// nothing simulated) for "fault". What plan_shards partitions.
u64 spec_unit_count(const ServeSpec& spec);

/// The merged result's stdout bytes for the spec's kind: the recovery
/// report (byte-identical to `stlrun campaign`) or the fault-campaign
/// report, or with `digest_only` just its "outcome digest:" line.
std::string render_result(const ServeSpec& spec, const ServeResult& result,
                          bool digest_only);

/// Orchestrate the whole campaign: partition, spawn, supervise, heal,
/// merge. Throws std::runtime_error / fault::CheckpointMismatch on
/// unrecoverable setup errors (bad work dir, unknown routine, foreign
/// checkpoint, a resume whose spec differs from the work dir's in any key
/// but `workers` and `checkpoint_interval`), all before any worker spawns.
ServeResult run_campaign(const ServeSpec& spec, const ServeConfig& cfg);

}  // namespace detstl::serve
