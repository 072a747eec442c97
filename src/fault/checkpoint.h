#pragma once
// Crash-safe checkpoint/journal subsystem for long-running campaigns
// (docs/fault_simulation.md "Checkpoint/resume"). Completed per-unit
// outcomes — fault outcomes for fault::Campaign, serialised run records for
// runtime::run_disturbance_campaign — are periodically persisted into
// checksummed, versioned *shard* files written via write-temp-then-atomic-
// rename, under a *manifest* that binds the checkpoint directory to a hash
// of the campaign configuration, the netlist identity and the routine image.
// A resumed campaign loads the verified shards, skips the recorded units and
// recomputes every aggregate post-join, so straight, killed-and-resumed and
// multi-resume executions produce byte-identical results at any thread
// count.
//
// Failure handling is first-class, not best-effort:
//  * a stale or mismatched *manifest* (different schema, payload kind or
//    config hash) rejects the whole checkpoint with CheckpointMismatch —
//    never a silent merge;
//  * a truncated, bit-flipped or version-skewed *shard* fails its header or
//    payload checksum validation, is quarantined to `<shard>.corrupt`, and
//    its unit range is transparently re-executed (kCkptReject trace event).
//
// On-disk layout (all integers little-endian; FNV-1a 64 checksums):
//
//   manifest.ckpt   "DSTLMANI" | u32 schema | u32 payload kind | u64 config
//                   hash | char producer[24] | u64 header checksum
//   shard-NNNNNN.ckpt
//                   "DSTLSHRD" | u32 schema | u32 payload kind | u64 config
//                   hash | u64 record count | u64 payload bytes | u64
//                   payload checksum | u64 header checksum | payload
//   payload         per record: u64 unit index | u32 byte length | bytes

#include <atomic>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace detstl::trace {
class EventSink;
}

namespace detstl::netlist {
class Netlist;
}

namespace detstl::soc {
class Soc;
}

namespace detstl::fault {

/// On-disk schema version; bumped on any layout change. Printed by every
/// tool's --version next to the suite version (common/version.h).
inline constexpr u32 kCheckpointSchemaVersion = 1;

/// What a checkpoint's records are (bound by manifest and shard headers, so
/// a fault-campaign checkpoint can never resume a disturbance campaign).
enum class PayloadKind : u32 {
  kFaultOutcomes = 1,     // record payload: one FaultOutcome byte
  kDisturbanceRuns = 2,   // record payload: serialised runtime::RunRecord
  kSoakRuns = 3,          // record payload: serialised runtime::SoakRunRecord
};

/// Why a shard was quarantined (kCkptReject event `a` field).
enum class RejectReason : u8 {
  kTruncated = 1,        // shorter than its header or declared payload
  kBadMagic = 2,
  kBadHeaderChecksum = 3,  // bit-flip anywhere in the header
  kVersionSkew = 4,        // produced by a different schema version
  kKindMismatch = 5,       // fault shard in a disturbance checkpoint etc.
  kHashMismatch = 6,       // shard from a different campaign configuration
  kBadPayloadChecksum = 7,  // bit-flip anywhere in the payload
  kMalformedRecords = 8,    // framing does not add up to the payload size
};

enum class FsyncPolicy : u8 {
  kNone,        // rely on the OS; fastest, loses the tail on power cut
  kEveryShard,  // fsync shard before rename + directory after (default)
};

struct CheckpointConfig {
  std::string dir;       // empty = checkpointing off
  u32 interval = 256;    // completed records between shard flushes
  bool resume = false;   // load verified shards before running
  FsyncPolicy fsync = FsyncPolicy::kEveryShard;

  bool enabled() const { return !dir.empty(); }
};

/// Resume/corruption bookkeeping carried in campaign results. Excluded from
/// the byte-identical determinism contract (like wall_seconds): a straight
/// run and a resumed run agree on everything else.
struct CheckpointStats {
  bool enabled = false;
  bool interrupted = false;  // cooperative drain cut the run short (resumable)
  u32 shards_loaded = 0;
  u32 shards_flushed = 0;
  u32 shards_corrupt = 0;    // quarantined to *.corrupt and re-executed
  u64 records_resumed = 0;   // units skipped because a shard recorded them
  /// Cumulative host time spent writing shards (serialise + write + fsync).
  /// A host timing like wall_seconds — never enters any determinism check.
  u64 flush_ns = 0;
};

/// A checkpoint exists but belongs to a different campaign (config hash,
/// schema or payload kind mismatch), or --resume found no manifest. Never
/// silently merged; surfaces as a usage/setup error in the tools.
class CheckpointMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by the table drivers (src/exp/) when a campaign reports a
/// cooperative drain, so multi-campaign benches stop at the first
/// interrupted campaign and exit with the resumable exit code (see
/// tools/cli_util.h exit-code contract).
class Interrupted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cooperative drain request shared between a signal handler (or a test)
/// and the campaign worker pools. Workers finish their in-flight chunk,
/// stop claiming new work, flush a final shard and return a partial result
/// with CheckpointStats::interrupted set. All operations are async-signal-
/// safe relaxed atomics.
class InterruptToken {
 public:
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

  /// Deterministic kill point: request the stop once `units` more work units
  /// complete. Drives the ctest/CI kill-and-resume drills (a real SIGTERM
  /// lands at an arbitrary unit; the contract must hold for every one).
  void arm_after(u64 units) { countdown_.store(units, std::memory_order_relaxed); }

  /// Campaigns call this once per completed unit (fault / supervised run).
  void on_unit_complete() {
    if (countdown_.load(std::memory_order_relaxed) == 0) return;
    if (countdown_.fetch_sub(1, std::memory_order_relaxed) == 1) request_stop();
  }

  void clear() {
    stop_.store(false, std::memory_order_relaxed);
    countdown_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<u64> countdown_{0};
};

/// Process-wide token the drain signal handlers set.
InterruptToken& global_interrupt();

/// Install SIGINT/SIGTERM handlers that request a cooperative drain on
/// global_interrupt() instead of killing the process. Idempotent: repeated
/// calls (from a tool AND a library layer, or across campaigns) install the
/// handlers exactly once per process image.
void install_drain_handlers();

/// Reset the drain machinery in a freshly forked worker process: clears any
/// inherited stop request / armed countdown on global_interrupt() and
/// re-installs the handlers under this process's identity (a fork inherits
/// the parent's handler table AND the parent's already-installed flag, so a
/// plain install_drain_handlers() call would be a no-op there). Workers of
/// the stlserve orchestrator call this first thing (src/serve/).
void reset_for_child();

/// Arm a wall-clock budget for the whole process: after `seconds`, SIGALRM
/// requests a cooperative drain on global_interrupt() — exactly the SIGTERM
/// contract (finish in-flight units, flush a final shard, exit resumable).
/// 0 cancels a pending budget. Drives `--timeout` in stlrun and the table
/// benches (tools/cli_util.h exit-code contract, code 3).
void arm_wallclock_timeout(unsigned seconds);

// -----------------------------------------------------------------------------
// Hashing
// -----------------------------------------------------------------------------

using detstl::fnv1a;  // common/bytes.h
using detstl::kFnvOffset;

/// Order-sensitive accumulator for the campaign config hashes. Every field
/// is framed with its width so adjacent fields can never alias.
class ConfigHasher {
 public:
  ConfigHasher& u8v(u8 v) { return bytes(&v, 1); }
  ConfigHasher& u32v(u32 v) { return le(v, 4); }
  ConfigHasher& u64v(u64 v) { return le(v, 8); }
  ConfigHasher& f64v(double v);  // hashed by bit pattern
  ConfigHasher& str(const std::string& s);
  u64 digest() const { return h_; }

 private:
  ConfigHasher& le(u64 v, unsigned n) {
    u8 b[8];
    store_le(b, v, n);
    return bytes(b, n);
  }
  ConfigHasher& bytes(const void* data, std::size_t n) {
    h_ = fnv1a(data, n, h_);
    return *this;
  }
  u64 h_ = kFnvOffset;
};

/// Structural identity of a graded netlist: every gate's op and operands,
/// plus the input/flop counts. Two netlists with the same fingerprint have
/// the same fault list and evaluation behaviour.
u64 netlist_fingerprint(const netlist::Netlist& nl);

/// Identity of the routine image under test: the full flash ROM plus the
/// core-activation mask and kinds. Any rebuilt/relinked routine changes it.
u64 soc_image_fingerprint(const soc::Soc& soc);

// -----------------------------------------------------------------------------
// Shard I/O
// -----------------------------------------------------------------------------

struct ShardRecord {
  u64 index = 0;           // unit index (fault index / run index)
  std::vector<u8> payload;
};

struct LoadedCheckpoint {
  std::vector<ShardRecord> records;  // from verified shards, file order
  u32 shards_loaded = 0;
  u32 shards_corrupt = 0;  // quarantined
  u32 next_shard = 0;      // continue numbering after the highest seen
};

/// True when `cfg.dir` holds a manifest file (cheap existence probe, no
/// validation). Multi-campaign drivers use it to decide per campaign whether
/// --resume means "load this one" or "this one never started, run fresh".
bool checkpoint_present(const CheckpointConfig& cfg);

/// Verify the manifest and load every intact shard of `cfg.dir`. Corrupt
/// shards are renamed to `<shard>.corrupt`, counted, reported as kCkptReject
/// and their records dropped (the campaign re-executes those units). Throws
/// CheckpointMismatch when the manifest is absent, unreadable or bound to a
/// different (schema, payload kind, config hash).
LoadedCheckpoint load_checkpoint(const CheckpointConfig& cfg, PayloadKind kind,
                                 u64 config_hash, trace::EventSink* sink);

/// Multi-shard merge primitive (src/serve/): verify and load the journals of
/// several per-shard checkpoint directories — all bound to the SAME config
/// hash, since a shard range is deliberately excluded from it — as one
/// record stream, directories in the given order, shards by number within
/// each. A directory that never got far enough to hold a manifest is
/// skipped (its units are simply missing, to be re-executed by the
/// caller); a directory bound to a DIFFERENT campaign
/// still throws CheckpointMismatch — silent cross-campaign merges stay
/// impossible.
struct MultiLoadedCheckpoint {
  std::vector<ShardRecord> records;
  u32 shards_loaded = 0;
  u32 shards_corrupt = 0;
};
MultiLoadedCheckpoint load_checkpoint_dirs(const std::vector<std::string>& dirs,
                                           PayloadKind kind, u64 config_hash,
                                           trace::EventSink* sink);

/// Accumulates completed records and flushes a shard every
/// `cfg.interval` records (plus a final explicit flush). Thread-safe: the
/// campaign workers call add() concurrently; whichever worker fills the
/// interval writes the shard under the internal mutex. Inert when
/// cfg.dir is empty.
///
/// Single-writer discipline is enforced with an advisory lockfile
/// (`manifest.lock`, owner PID + start time): a second process journaling
/// into the same directory fails fast with CheckpointMismatch instead of
/// interleaving shard writes; a lock whose owner is dead (crashed or
/// SIGKILLed worker) is broken and taken over. The lock is released on
/// destruction.
class CheckpointWriter {
 public:
  /// A fresh (non-resume) writer refuses a directory that already holds a
  /// manifest or shards (CheckpointMismatch) — restarting over an existing
  /// checkpoint must be an explicit decision (--resume or a clean dir). A
  /// resume writer expects the manifest load_checkpoint just verified and
  /// continues shard numbering at `first_shard`.
  CheckpointWriter(const CheckpointConfig& cfg, PayloadKind kind, u64 config_hash,
                   u32 first_shard, trace::EventSink* sink);
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  bool enabled() const { return enabled_; }
  void add(u64 index, std::vector<u8> payload);
  void flush();  // write pending records as one shard (no-op when none)
  u32 shards_flushed() const { return flushed_.load(std::memory_order_relaxed); }
  /// Cumulative shard-flush latency in nanoseconds (CheckpointStats::flush_ns).
  u64 flush_ns() const { return flush_ns_.load(std::memory_order_relaxed); }

 private:
  void flush_locked();
  void acquire_lock();

  CheckpointConfig cfg_;
  PayloadKind kind_ = PayloadKind::kFaultOutcomes;
  u64 hash_ = 0;
  bool enabled_ = false;
  trace::EventSink* sink_ = nullptr;
  std::mutex mu_;
  std::vector<ShardRecord> pending_;
  u32 next_shard_ = 0;
  std::atomic<u32> flushed_{0};
  std::atomic<u64> flush_ns_{0};
  u64 flush_seq_ = 0;
  std::string lock_path_;  // owned manifest.lock (empty = none held)
};

}  // namespace detstl::fault
