#pragma once
// The one executor behind every unit campaign: fault-campaign detection
// (unit = sampled fault), disturbance campaigns and SEU soak campaigns
// (unit = seeded supervised run). A campaign kind supplies a unit count, a
// per-unit function that stores its result by unit index, a journal codec
// and a config hash; the driver owns everything the determinism contracts
// hang on:
//
//  * checkpoint resume and the post-hoc `merge_dirs` load, both feeding a
//    per-kind "accept this journalled payload" callback (fault/checkpoint.h);
//  * the done mask: journalled units plus everything outside the shard range
//    [unit_begin, unit_end);
//  * the exception-safe worker pool pulling pending units from a WorkQueue
//    (fault/work_queue.h), journal writes, the per-unit completion hooks
//    (the kind's and UnitPlumbing::on_run_complete) and the InterruptToken
//    tick;
//  * the cooperative drain, the final shard flush and CheckpointStats.
//
// Aggregates are the caller's: it derives them from its by-index result
// vector after run() joins, which is what makes straight, resumed, merged
// and any-thread-count executions byte-identical.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/checkpoint.h"

namespace detstl::fault {

/// Worker count for a campaign's `threads` knob: 0 = one per hardware thread.
unsigned resolve_threads(unsigned threads);

/// Run `body(worker_id)` on `threads` workers and join. With one thread the
/// body runs on the calling thread — exactly the serial path, no spawn. The
/// first exception a worker throws is rethrown after the join.
void run_pool(unsigned threads, const std::function<void(unsigned)>& body);

/// The executor plumbing every campaign spec inherits (fault::CampaignConfig,
/// runtime::RunCampaignSpec). None of it enters a config hash: resuming,
/// sharding or merging never re-keys a campaign.
struct UnitPlumbing {
  /// Crash-safe journal (fault/checkpoint.h): completed units persist into
  /// checksummed shards every `checkpoint.interval` units; with
  /// `checkpoint.resume` the verified shards load first and only the
  /// remainder runs. Straight and resumed runs are byte-identical.
  CheckpointConfig checkpoint;
  /// Post-hoc merge: additionally load these per-shard checkpoint
  /// directories and treat their records as resumed. Units no journal covers
  /// re-execute in-process, so the merged result is byte-identical to the
  /// single-process run by the same contract as resume.
  std::vector<std::string> merge_dirs;
  /// Half-open shard range [unit_begin, unit_end) this process executes;
  /// (0, 0) = every unit. Out-of-range units are pre-marked done (never
  /// executed, never journalled). Because the range is not hashed, every
  /// shard of a partitioned campaign shares one manifest identity, which is
  /// what lets src/serve/ reassign a dead worker's subdir and merge them all.
  u64 unit_begin = 0;
  u64 unit_end = 0;
  /// Cooperative drain request: workers stop claiming units once it fires,
  /// finish in-flight ones and flush a final shard; the campaign returns a
  /// partial result with ckpt.interrupted set. Null = never interrupted.
  InterruptToken* interrupt = nullptr;
  /// detscope sink (non-owning; null = off) for the driver's
  /// kCkptFlush/kCkptLoad/kCkptReject telemetry; a kind may trace more.
  trace::EventSink* sink = nullptr;
  /// Observability hook invoked once per unit completed by THIS process
  /// (not for resumed or merged records), with the unit index: the fault
  /// index or the run index. May be called concurrently from worker threads;
  /// must never affect the result. The stlserve workers append their
  /// heartbeat record here.
  std::function<void(u64)> on_run_complete;
};

/// What one campaign kind journals.
struct UnitJournal {
  PayloadKind kind = PayloadKind::kFaultOutcomes;
  /// The manifest identity; evaluated at most once, and only when the
  /// campaign journals or merges.
  std::function<u64()> config_hash;
  /// Decode the journalled payload of unit `index` (< units) into the
  /// campaign's result slot. False drops the record: the unit re-executes.
  std::function<bool(u64 index, const std::vector<u8>& payload)> accept;
};

/// Per-unit work for UnitDriver::run, called from worker threads for each
/// pending unit exactly once, in no particular order.
struct UnitWork {
  /// Execute the unit and store its result by index.
  std::function<void(u64 unit)> run;
  /// The unit's journal payload; called only when the campaign journals.
  std::function<std::vector<u8>(u64 unit)> encode;
  /// Optional completion hook, called after the journal write and before
  /// UnitPlumbing::on_run_complete.
  std::function<void(u64 unit, unsigned worker)> on_done = nullptr;
};

class UnitDriver {
 public:
  /// Load the journal (resume) and the merge dirs, open the journal writer
  /// and mark the done units. Throws CheckpointMismatch for a foreign
  /// checkpoint and std::runtime_error("<what>: empty shard range").
  UnitDriver(const char* what, u64 units, const UnitPlumbing& plumbing,
             const UnitJournal& journal);

  /// done()[i] != 0: unit i needs no work (journalled, or another shard's).
  const std::vector<u8>& done() const { return done_; }
  bool stop_requested() const {
    return interrupt_ != nullptr && interrupt_->stop_requested();
  }

  /// Execute every pending unit on up to `threads` workers, `chunk` units
  /// per queue claim, until done or drained. A throwing unit halts the queue
  /// and the exception is rethrown after the join.
  void run(unsigned threads, std::size_t chunk, const UnitWork& work);

  /// Flush the final shard; returns the campaign's checkpoint bookkeeping.
  const CheckpointStats& finish();

 private:
  std::vector<u8> done_;
  InterruptToken* interrupt_;
  std::function<void(u64)> on_run_complete_;
  std::optional<CheckpointWriter> writer_;
  CheckpointStats stats_;
};

}  // namespace detstl::fault
