#include "serve/serve.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <thread>

#ifndef _WIN32
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/bytes.h"
#include "core/routines.h"
#include "exp/experiments.h"
#include "fault/checkpoint.h"
#include "fault/report.h"

namespace fs = std::filesystem;

namespace detstl::serve {

namespace {

constexpr const char* kSpecFileName = "campaign-spec.json";

using Clock = std::chrono::steady_clock;

u64 ms_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count());
}

std::uintmax_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

void touch(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr)
    throw std::runtime_error("cannot create " + path);
  std::fclose(f);
}

/// One heartbeat record = one completed unit, 8 bytes little-endian
/// carrying the unit's index. The hang watchdog watches the file grow;
/// size/8 is the beat count and the last record names the current run.
constexpr std::uintmax_t kHeartbeatRecordBytes = 8;

void append_run_index(const std::string& path, u64 unit) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return;  // a lost beat reads as a hang, as a stall would
  u8 rec[kHeartbeatRecordBytes];
  store_le(rec, unit, sizeof rec);
  std::fwrite(rec, 1, sizeof rec, f);
  std::fclose(f);
}

/// Unit index of the last fully-written heartbeat record; false when the
/// file is missing or holds no complete record yet. A trailing partial
/// record (worker killed mid-write) is simply ignored.
bool last_run_index(const std::string& path, u64& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  bool ok = false;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long sz = std::ftell(f);
    const long rec = static_cast<long>(kHeartbeatRecordBytes);
    const long whole = sz > 0 ? sz - sz % rec : 0;
    u8 buf[kHeartbeatRecordBytes];
    if (whole >= rec && std::fseek(f, whole - rec, SEEK_SET) == 0 &&
        std::fread(buf, 1, sizeof buf, f) == sizeof buf) {
      out = load64(buf);
      ok = true;
    }
  }
  std::fclose(f);
  return ok;
}

fault::Module module_of(const ServeSpec& spec) {
  if (spec.module == "hdcu") return fault::Module::kHdcu;
  if (spec.module == "icu") return fault::Module::kIcu;
  return fault::Module::kFwd;
}

std::unique_ptr<core::SelfTestRoutine> routine_for(fault::Module m) {
  switch (m) {
    case fault::Module::kIcu: return core::make_icu_test();
    // The hazard unit is graded under the forwarding routine's
    // perf-counter variant, whose stalls exercise it (tests/test_fault.cpp).
    case fault::Module::kHdcu: return core::make_fwd_test(true);
    case fault::Module::kFwd: break;
  }
  return core::make_fwd_test(false);
}

// ---------------------------------------------------------------------------
// The served campaign kinds. A kind supplies its unit space, one run of the
// campaign under given executor plumbing (a worker's shard range and journal,
// or the post-hoc merge of every shard journal) and its stdout report;
// worker_main, run_campaign and render_result never look at the kind again.
// ---------------------------------------------------------------------------

struct ServedKind {
  /// The units plan_shards partitions.
  u64 (*units)(const ServeSpec&);
  /// Run the campaign under `plumbing` (its on_run_complete hook included)
  /// on `threads` workers; the result lands in `out`.
  fault::CheckpointStats (*run)(const ServeSpec&, const fault::UnitPlumbing&,
                                unsigned threads, ServeResult& out);
  /// The stdout report of a merged result, or its digest line.
  std::string (*render)(const ServeSpec&, const ServeResult&, bool digest_only);
  const char* merge_gap_note;  // units the merge had to re-execute
};

/// "disturbance": runtime::run_disturbance_campaign over run indices.
const ServedKind kDisturbance{
    [](const ServeSpec& spec) -> u64 { return spec.runs; },
    [](const ServeSpec& spec, const fault::UnitPlumbing& plumbing,
       unsigned threads, ServeResult& out) {
      runtime::CampaignSpec cs = to_campaign_spec(spec);
      static_cast<fault::UnitPlumbing&>(cs) = plumbing;
      cs.threads = threads;
      out.result = runtime::run_disturbance_campaign(cs);
      return out.result.ckpt;
    },
    [](const ServeSpec&, const ServeResult& r, bool digest_only) {
      return digest_only ? runtime::digest_line(r.result.digest())
                         : runtime::render_recovery_report(r.result);
    },
    "run(s) had no journal record — re-executed"};

/// "fault": a stuck-at campaign over one module of core 0 in a single-core
/// plain-wrapper scenario; units = the sampled fault list (the recipe
/// tests/test_serve.cpp's ServeFaultShards unit-tests).
const ServedKind kFault{
    [](const ServeSpec& spec) -> u64 {
      return fault::sample_faults(
                 fault::module_netlist(module_of(spec), isa::CoreKind::kA),
                 spec.stride)
          .size();
    },
    [](const ServeSpec& spec, const fault::UnitPlumbing& plumbing,
       unsigned threads, ServeResult& out) {
      fault::CampaignConfig cc;
      static_cast<fault::UnitPlumbing&>(cc) = plumbing;
      cc.module = module_of(spec);
      cc.core_id = 0;
      cc.kind = isa::CoreKind::kA;
      cc.fault_stride = spec.stride;
      cc.threads = threads;
      const auto routine = routine_for(cc.module);
      exp::Scenario sc{1, {0, 0, 0}, 0, 0, "serve"};
      auto tests =
          exp::build_scenario_tests(*routine, core::WrapperKind::kPlain, sc, 0,
                                    /*use_perf_counters=*/false);
      const fault::SocFactory factory =
          exp::scenario_factory(std::move(tests), sc, 0);
      out.fault_result = fault::Campaign(cc, factory).run();
      return out.fault_result.ckpt;
    },
    [](const ServeSpec& spec, const ServeResult& r, bool digest_only) {
      if (digest_only)
        return runtime::digest_line(fnv1a(r.fault_result.canonical_bytes()));
      // Classified against the graded module's netlist (same core kind).
      return fault::render_report(
          fault::make_report(
              r.fault_result,
              fault::module_netlist(module_of(spec), isa::CoreKind::kA),
              spec.stride),
          "stlserve fault campaign (" + spec.module + ")");
    },
    "fault(s) had no journal record — re-simulated"};

const ServedKind& served_kind(const ServeSpec& spec) {
  return spec.kind == "fault" ? kFault : kDisturbance;
}

}  // namespace

u64 spec_unit_count(const ServeSpec& spec) {
  return served_kind(spec).units(spec);
}

std::string render_result(const ServeSpec& spec, const ServeResult& r,
                          bool digest_only) {
  return served_kind(spec).render(spec, r, digest_only);
}

std::vector<ShardPlan> plan_shards(u64 runs, unsigned workers,
                                   const std::string& work_dir) {
  std::vector<ShardPlan> out;
  const u64 n = std::min<u64>(std::max(1u, workers), std::max<u64>(1, runs));
  u64 begin = 0;
  for (u64 k = 0; k < n; ++k) {
    const u64 size = runs / n + (k < runs % n ? 1 : 0);
    if (size == 0) continue;
    char name[32];
    std::snprintf(name, sizeof name, "shard-%02u", static_cast<unsigned>(k));
    ShardPlan p;
    p.begin = begin;
    p.end = begin + size;
    p.dir = work_dir + "/" + name;
    p.heartbeat = p.dir + "/heartbeat";
    begin = p.end;
    out.push_back(std::move(p));
  }
  return out;
}

namespace {

/// What a forked worker runs: the supervisor's own spec and shard plan,
/// which the child sees in its copy of the supervisor's memory.
struct WorkerArgs {
  const ServeSpec& spec;
  /// The shard's range and subdir. Its heartbeat is touched at startup and
  /// gains one 8-byte little-endian record per completed unit, carrying
  /// the unit's index (the run index for "disturbance", the fault index for
  /// "fault"), written by UnitPlumbing::on_run_complete. The supervisor
  /// reads the file size for liveness and the last record for its progress
  /// and hang notes.
  const ShardPlan& plan;
  bool no_fsync;
  const ChaosRule* chaos;  // nullptr = none
};

/// Run one shard to completion: resume the subdir's journal when present,
/// execute the remaining runs single-threaded, heartbeat per run. Returns
/// a tools/cli_util.h exit code: 0 done, 1 error, 2 journal mismatch
/// (supervisor quarantines the subdir), 3 drained (resumable).
int worker_main(const WorkerArgs& a) {
  try {
    fs::create_directories(a.plan.dir);
    touch(a.plan.heartbeat);

    // Heartbeat + chaos, shared by both kinds: one run-index record per
    // completed unit, then the chaos self-destruct when its count is due.
    std::atomic<u64> completed{0};
    const auto beat = [&a, &completed](u64 unit) {
      append_run_index(a.plan.heartbeat, unit);
      const u64 c = completed.fetch_add(1, std::memory_order_relaxed) + 1;
      if (a.chaos == nullptr || c != a.chaos->after) return;
      if (a.chaos->action == "hang-after")
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(10));
#ifndef _WIN32
      ::kill(::getpid(), SIGKILL);  // a real crash: no drain, no final flush
#endif
    };

    fault::UnitPlumbing p;
    p.unit_begin = a.plan.begin;
    p.unit_end = a.plan.end;
    p.checkpoint.dir = a.plan.dir;
    p.checkpoint.interval = a.spec.checkpoint_interval;
    p.checkpoint.fsync =
        a.no_fsync ? fault::FsyncPolicy::kNone : fault::FsyncPolicy::kEveryShard;
    p.checkpoint.resume = fault::checkpoint_present(p.checkpoint);
    p.interrupt = &fault::global_interrupt();
    p.on_run_complete = beat;
    // One thread: process-level parallelism only; keeps workers preemptible.
    ServeResult out;
    return served_kind(a.spec).run(a.spec, p, 1, out).interrupted ? 3 : 0;
  } catch (const fault::CheckpointMismatch& e) {
    std::fprintf(stderr, "stlserve worker: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stlserve worker: %s\n", e.what());
    return 1;
  }
}

}  // namespace

#ifdef _WIN32

ServeResult run_campaign(const ServeSpec&, const ServeConfig&) {
  throw std::runtime_error("multi-process supervision requires POSIX");
}

#else

namespace {

enum class ShardState : u8 { kPending, kRunning, kDone, kFailed };

struct Shard {
  ShardPlan plan;
  ShardState state = ShardState::kPending;
  unsigned spawns = 0;  // 1 initial + respawns
  pid_t pid = -1;
  Clock::time_point next_spawn;  // backoff deadline (kPending)
  std::uintmax_t hb_size = 0;
  Clock::time_point hb_change;  // last heartbeat growth, or the spawn
  Clock::time_point last_progress_note;  // throttles the per-shard note
  bool chaos_spent = false;  // one-shot chaos rules already delivered
};

/// Minimum spacing of a shard's "at run N" progress notes.
constexpr u64 kProgressNoteMs = 2'000;

/// Respawn backoff ceiling: respawn k waits min(base << (k-1), this).
constexpr u64 kBackoffCapMs = 2'000;

struct Supervisor {
  Supervisor(const ServeSpec& s, const ServeConfig& c) : spec(s), cfg(c) {}

  const ServeSpec& spec;
  const ServeConfig& cfg;
  std::vector<Shard> shards;
  ServeStats stats;

  void note(const char* fmt, ...) const
      __attribute__((format(printf, 2, 3))) {
    if (cfg.quiet) return;
    va_list ap;
    va_start(ap, fmt);
    std::fputs("stlserve: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
  }

  const ChaosRule* chaos_for(unsigned shard_idx, const Shard& s) const {
    for (const ChaosRule& r : cfg.chaos) {
      if (r.shard != shard_idx) continue;
      if (r.action == "kill-every") return &r;
      if (!s.chaos_spent) return &r;  // kill-after / hang-after: first spawn only
    }
    return nullptr;
  }

  void spawn(unsigned shard_idx) {
    Shard& s = shards[shard_idx];
    const WorkerArgs wa{spec, s.plan, cfg.no_fsync, chaos_for(shard_idx, s)};
    if (wa.chaos != nullptr) s.chaos_spent = true;

    // A plain fork is safe here: no thread exists while supervise() runs.
    // Threads start only in the merge, after it, so the child inherits no
    // lock another thread held. It does inherit the parent's stop request
    // and drain-handler flag, which reset_for_child() clears.
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      fault::reset_for_child();
      ::_exit(worker_main(wa));
    }
    s.pid = pid;
    s.state = ShardState::kRunning;
    ++s.spawns;
    s.hb_change = s.last_progress_note = Clock::now();
    s.hb_size = file_size_or_zero(s.plan.heartbeat);
    note("shard %u [%llu, %llu) -> pid %ld (spawn %u)", shard_idx,
         static_cast<unsigned long long>(s.plan.begin),
         static_cast<unsigned long long>(s.plan.end), static_cast<long>(pid),
         s.spawns);
  }

  /// A running worker ended (or was ended): decide Done / respawn /
  /// quarantine+respawn / Failed. `code` >= 0 is an exit code, < 0 the
  /// negated terminating signal.
  void conclude(unsigned shard_idx, int code) {
    Shard& s = shards[shard_idx];
    s.pid = -1;
    if (code == 0) {
      s.state = ShardState::kDone;
      note("shard %u done", shard_idx);
      return;
    }
    if (code == 2) {
      // The worker refused its own journal (corrupt manifest, foreign
      // campaign). Set the whole subdir aside as evidence and start the
      // shard over on a clean one.
      std::error_code ec;
      fs::rename(s.plan.dir,
                 s.plan.dir + ".corrupt-" + std::to_string(s.spawns), ec);
      ++stats.dirs_quarantined;
      note("shard %u: journal rejected — subdir quarantined", shard_idx);
    }
    if (s.spawns > cfg.max_respawns) {
      s.state = ShardState::kFailed;
      note("shard %u: %u spawns exhausted (last %s %d) — the merge "
           "re-executes its unjournalled units",
           shard_idx, s.spawns, code < 0 ? "signal" : "exit",
           code < 0 ? -code : code);
      return;
    }
    const u64 shift = std::min<unsigned>(s.spawns - 1, 16);
    const u64 backoff = std::min<u64>(
        static_cast<u64>(cfg.backoff_base_ms) << shift, kBackoffCapMs);
    s.state = ShardState::kPending;
    s.next_spawn = Clock::now() + std::chrono::milliseconds(backoff);
    ++stats.respawns;
    note("shard %u: worker %s %d — respawn %u in %llu ms", shard_idx,
         code < 0 ? "died on signal" : "exited", code < 0 ? -code : code,
         s.spawns, static_cast<unsigned long long>(backoff));
  }

  void reap() {
    for (unsigned k = 0; k < shards.size(); ++k) {
      Shard& s = shards[k];
      if (s.state != ShardState::kRunning) continue;
      int st = 0;
      const pid_t r = ::waitpid(s.pid, &st, WNOHANG);
      if (r != s.pid) continue;
      conclude(k, WIFEXITED(st) ? WEXITSTATUS(st)
                                : -(WIFSIGNALED(st) ? WTERMSIG(st) : SIGKILL));
    }
  }

  /// SIGKILL every worker whose heartbeat has not grown for
  /// hang_timeout_ms: a worker that keeps completing units is never killed.
  void watchdogs() {
    const Clock::time_point now = Clock::now();
    for (unsigned k = 0; k < shards.size(); ++k) {
      Shard& s = shards[k];
      if (s.state != ShardState::kRunning) continue;
      const std::uintmax_t sz = file_size_or_zero(s.plan.heartbeat);
      const u64 total = s.plan.end - s.plan.begin;
      if (sz != s.hb_size) {
        s.hb_size = sz;
        s.hb_change = now;
        // Surface where the shard is. Throttled: run-per-second shards
        // must not turn the supervision log into a heartbeat mirror.
        u64 at = 0;
        if (!cfg.quiet &&
            ms_between(s.last_progress_note, now) >= kProgressNoteMs &&
            last_run_index(s.plan.heartbeat, at)) {
          s.last_progress_note = now;
          note("shard %u: at run %llu (%llu/%llu beats)", k,
               static_cast<unsigned long long>(at),
               static_cast<unsigned long long>(
                   std::min<u64>(sz / kHeartbeatRecordBytes, total)),
               static_cast<unsigned long long>(total));
        }
      }
      const u64 stale_ms = ms_between(s.hb_change, now);
      if (stale_ms <= cfg.hang_timeout_ms) continue;
      // SIGKILL first: a wedged simulator loop never sees SIGTERM's
      // cooperative drain, and the journal is crash-safe by construction.
      ::kill(s.pid, SIGKILL);
      int st = 0;
      ::waitpid(s.pid, &st, 0);
      ++stats.hung_killed;
      u64 last = 0;
      const bool have_last = last_run_index(s.plan.heartbeat, last);
      note("shard %u: hung (no heartbeat for %llu ms, last run %s) — killed "
           "pid %ld",
           k, static_cast<unsigned long long>(stale_ms),
           have_last ? std::to_string(last).c_str() : "none",
           static_cast<long>(s.pid));
      conclude(k, -SIGKILL);
    }
  }

  /// Forward the drain to every worker, reap them all, leave the campaign
  /// resumable.
  void drain_children() {
    for (Shard& s : shards) {
      if (s.state != ShardState::kRunning) continue;
      ::kill(s.pid, SIGTERM);
    }
    for (Shard& s : shards) {
      if (s.state != ShardState::kRunning) continue;
      int st = 0;
      ::waitpid(s.pid, &st, 0);
      s.pid = -1;
      s.state = ShardState::kPending;
    }
    note("interrupted — campaign is resumable with --resume");
  }

  bool supervise() {  // false = interrupted
    while (true) {
      if (fault::global_interrupt().stop_requested()) {
        drain_children();
        return false;
      }
      reap();
      watchdogs();
      const Clock::time_point now = Clock::now();
      unsigned running = 0;
      for (const Shard& s : shards)
        running += s.state == ShardState::kRunning ? 1 : 0;
      const unsigned cap =
          cfg.workers != 0 ? cfg.workers : std::max(1u, spec.workers);
      bool pending = false;
      for (unsigned k = 0; k < shards.size(); ++k) {
        Shard& s = shards[k];
        if (s.state != ShardState::kPending) continue;
        pending = true;
        if (running >= cap || now < s.next_spawn) continue;
        spawn(k);
        ++running;
      }
      if (!pending && running == 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(cfg.poll_ms));
    }
  }
};

}  // namespace

ServeResult run_campaign(const ServeSpec& spec, const ServeConfig& cfg) {
  if (cfg.work_dir.empty())
    throw std::runtime_error("a work directory is required");
  fs::create_directories(cfg.work_dir);
  const std::string spec_path = cfg.work_dir + "/" + kSpecFileName;
  if (fs::exists(spec_path)) {
    if (!cfg.resume)
      throw std::runtime_error("'" + cfg.work_dir +
                               "' already holds a campaign — resume it or "
                               "point at a clean directory");
    // Only the worker count and the flush interval may change on resume:
    // any other key names a different campaign, whose journals the workers
    // would refuse and quarantine one subdir at a time.
    ServeSpec held;
    std::string err;
    if (!load_spec_file(spec_path, held, &err))
      throw fault::CheckpointMismatch(spec_path + ": " + err);
    held.workers = spec.workers;
    held.checkpoint_interval = spec.checkpoint_interval;
    if (spec_to_json(held) != spec_to_json(spec))
      throw fault::CheckpointMismatch(
          "'" + cfg.work_dir + "' holds a different campaign (" + spec_path +
          "); resume it without --spec or point at a clean directory");
  } else {
    std::FILE* f = std::fopen(spec_path.c_str(), "wb");
    if (f == nullptr)
      throw std::runtime_error("cannot write " + spec_path);
    const std::string json = spec_to_json(spec);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }

  fault::install_drain_handlers();

  Supervisor sup{spec, cfg};
  const u64 total_units = spec_unit_count(spec);
  for (ShardPlan& p : plan_shards(total_units, cfg.workers != 0 ? cfg.workers
                                                                : spec.workers,
                                  cfg.work_dir)) {
    Shard sh;
    sh.plan = std::move(p);
    sup.shards.push_back(std::move(sh));
  }
  sup.stats.shards = static_cast<unsigned>(sup.shards.size());

  ServeResult out;
  if (!sup.supervise()) {
    out.stats = sup.stats;
    out.interrupted = true;
    return out;
  }

  // Post-hoc merge, and the degradation floor: load every shard journal and
  // re-execute right here, on all hardware threads, every unit no journal
  // covers (the merge_dirs contract), a FAILED shard's included. The result
  // is byte-identical to the single-process campaign as long as the
  // supervisor itself survives. The merge journals nothing: after a drain
  // here, `--resume` respawns the FAILED shard's worker, which re-runs
  // every unit its own journal lacks.
  fault::UnitPlumbing merge;
  for (const Shard& s : sup.shards) merge.merge_dirs.push_back(s.plan.dir);
  merge.interrupt = &fault::global_interrupt();
  const ServedKind& kind = served_kind(spec);
  const fault::CheckpointStats ckpt = kind.run(spec, merge, 0, out);
  if (ckpt.interrupted) {
    out.stats = sup.stats;
    out.interrupted = true;
    return out;
  }
  sup.stats.records_resumed = ckpt.records_resumed;
  sup.stats.shards_corrupt = ckpt.shards_corrupt;
  sup.stats.merge_reexecuted = total_units >= ckpt.records_resumed
                                   ? total_units - ckpt.records_resumed
                                   : 0;
  if (sup.stats.merge_reexecuted != 0)
    sup.note("merge: %llu %s",
             static_cast<unsigned long long>(sup.stats.merge_reexecuted),
             kind.merge_gap_note);
  out.stats = sup.stats;
  return out;
}

#endif  // _WIN32

}  // namespace detstl::serve
