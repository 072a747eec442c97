#include "fault/unit_driver.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "fault/work_queue.h"

namespace detstl::fault {

unsigned resolve_threads(unsigned threads) {
  return threads != 0 ? threads
                      : std::max(1u, std::thread::hardware_concurrency());
}

void run_pool(unsigned threads, const std::function<void(unsigned)>& body) {
  if (threads <= 1) {
    body(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  std::mutex err_mu;
  std::exception_ptr err;
  for (unsigned w = 0; w < threads; ++w) {
    pool.emplace_back([&body, &err_mu, &err, w] {
      try {
        body(w);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!err) err = std::current_exception();
      }
    });
  }
  for (auto& t : pool) t.join();
  if (err) std::rethrow_exception(err);
}

UnitDriver::UnitDriver(const char* what, u64 units, const UnitPlumbing& p,
                       const UnitJournal& journal)
    : done_(units, 0), interrupt_(p.interrupt), on_run_complete_(p.on_run_complete) {
  std::optional<u64> hash;
  const auto config_hash = [&] {
    if (!hash) hash = journal.config_hash();
    return *hash;
  };
  // A unit several records cover takes the last accepted one; it counts as
  // resumed once.
  const auto apply = [&](const std::vector<ShardRecord>& records) {
    for (const ShardRecord& r : records) {
      if (r.index >= units || !journal.accept(r.index, r.payload)) continue;
      if (done_[r.index] == 0) {
        done_[r.index] = 1;
        ++stats_.records_resumed;
      }
    }
  };
  if (p.checkpoint.enabled()) {
    LoadedCheckpoint loaded;
    if (p.checkpoint.resume)
      loaded =
          load_checkpoint(p.checkpoint, journal.kind, config_hash(), p.sink);
    writer_.emplace(p.checkpoint, journal.kind, config_hash(),
                    loaded.next_shard, p.sink);
    stats_.enabled = true;
    stats_.shards_loaded = loaded.shards_loaded;
    stats_.shards_corrupt = loaded.shards_corrupt;
    apply(loaded.records);
  }
  if (!p.merge_dirs.empty()) {
    // Post-hoc shard merge (src/serve/): every shard's journal shares this
    // campaign's manifest identity because the shard range is not hashed.
    const MultiLoadedCheckpoint merged =
        load_checkpoint_dirs(p.merge_dirs, journal.kind, config_hash(), p.sink);
    stats_.enabled = true;
    stats_.shards_loaded += merged.shards_loaded;
    stats_.shards_corrupt += merged.shards_corrupt;
    apply(merged.records);
  }
  // Units outside the shard range are some other worker's: pre-marked done,
  // never executed, never journalled, not counted as resumed.
  if (p.unit_begin != 0 || p.unit_end != 0) {
    if (p.unit_begin >= p.unit_end)
      throw std::runtime_error(std::string(what) + ": empty shard range");
    for (u64 i = 0; i < units; ++i)
      if (i < p.unit_begin || i >= p.unit_end) done_[i] = 1;
  }
}

void UnitDriver::run(unsigned threads, std::size_t chunk,
                     const UnitWork& work) {
  WorkQueue queue(done_.size(), chunk, &done_);
  const u64 units = std::max<u64>(1, done_.size());
  run_pool(static_cast<unsigned>(std::min<u64>(threads, units)),
           [&](unsigned w) {
    // Whichever way a worker leaves (exhausted, drained or a throwing unit),
    // its siblings stop claiming new units.
    struct HaltOnExit {
      WorkQueue& q;
      ~HaltOnExit() { q.halt(); }
    } halt{queue};
    while (!stop_requested()) {
      const auto c = queue.next();
      if (!c) return;
      for (u64 i = c->begin; i < c->end; ++i) {
        if (done_[i] != 0) continue;
        work.run(i);
        if (writer_) writer_->add(i, work.encode(i));
        if (work.on_done) work.on_done(i, w);
        if (on_run_complete_) on_run_complete_(i);
        if (interrupt_ != nullptr) interrupt_->on_unit_complete();
      }
    }
  });
}

const CheckpointStats& UnitDriver::finish() {
  if (writer_) {
    writer_->flush();
    stats_.shards_flushed = writer_->shards_flushed();
    stats_.flush_ns = writer_->flush_ns();
  }
  stats_.interrupted = stop_requested();
  return stats_;
}

}  // namespace detstl::fault
