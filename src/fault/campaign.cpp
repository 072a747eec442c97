#include "fault/campaign.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <type_traits>

#include "fault/livelock.h"
#include "fault/unit_driver.h"
#include "fault/work_queue.h"
#include "netlist/equivalence.h"
#include "netlist/screening.h"
#include "perf/simstats.h"

namespace detstl::fault {

const char* module_name(Module m) {
  switch (m) {
    case Module::kFwd: return "forwarding-logic";
    case Module::kHdcu: return "hdcu";
    case Module::kIcu: return "icu";
  }
  return "?";
}

namespace {

/// Records the graded module's input trace (one `In` per module call) and
/// the r29 write sequence.
template <class In>
class RecorderTap final : public cpu::ModuleTap {
 public:
  void on_hdcu(u64, const cpu::HdcuIn& in, const cpu::HdcuOut&) override { record(in); }
  void on_fwd(u64, const cpu::FwdIn& in, const cpu::FwdOut&) override { record(in); }
  void on_icu(u64, const cpu::IcuIn& in, const cpu::IcuOut&) override { record(in); }
  void on_wb(u64, unsigned rd, u32 v) override {
    if (rd == core::kSignatureReg) r29_.push_back(v);
    // Execution-loop marker: the wrapper's loop counter reaching 1 ends the
    // loading loop (see CampaignConfig::signature_from_marker).
    if (rd == core::kLoopCounterReg && v == 1 && marker_idx_ == SIZE_MAX)
      marker_idx_ = r29_.size();
  }

  const std::vector<In>& calls() const { return calls_; }
  const std::vector<u32>& r29() const { return r29_; }
  /// Index into r29() where the execution loop's writes start (SIZE_MAX if
  /// the marker never appeared — plain/TCM wrappers have no loading loop).
  std::size_t marker_idx() const { return marker_idx_; }

 private:
  template <class T>
  void record(const T& in) {
    if constexpr (std::is_same_v<T, In>) calls_.push_back(in);
  }

  std::vector<In> calls_;
  std::vector<u32> r29_;
  std::size_t marker_idx_ = SIZE_MAX;
};

/// Counts what RecorderTap records, the positions a checkpoint stores: the
/// graded module's calls and the r29 writes.
template <class In>
class CountingTap final : public cpu::ModuleTap {
 public:
  void on_hdcu(u64, const cpu::HdcuIn&, const cpu::HdcuOut&) override {
    calls_ += std::is_same_v<In, cpu::HdcuIn>;
  }
  void on_fwd(u64, const cpu::FwdIn&, const cpu::FwdOut&) override {
    calls_ += std::is_same_v<In, cpu::FwdIn>;
  }
  void on_icu(u64, const cpu::IcuIn&, const cpu::IcuOut&) override {
    calls_ += std::is_same_v<In, cpu::IcuIn>;
  }
  void on_wb(u64, unsigned rd, u32) override { r29_ += rd == core::kSignatureReg; }

  std::size_t calls() const { return calls_; }
  std::size_t r29() const { return r29_; }

 private:
  std::size_t calls_ = 0;
  std::size_t r29_ = 0;
};

/// Compares the faulty run's checked signature writes against the good
/// sequence. Two soundness rules:
///  * in marker mode, comparison is armed only once the execution loop starts
///    (loading-loop signatures are architecturally discarded);
///  * a divergence must persist for kPersist consecutive writes before the
///    run is cut short — a MISR stream can transiently diverge and
///    reconverge (aligned double errors), in which case the final verdict
///    decides.
class CompareTap final : public cpu::ModuleTap {
 public:
  static constexpr unsigned kPersist = 8;

  /// `start` is the resume position in the good trace (checkpoint), `arm_at`
  /// the index where checked writes begin (0 for plain/TCM wrappers).
  CompareTap(const std::vector<u32>& good, std::size_t start, std::size_t arm_at)
      : good_(&good), idx_(start), arm_at_(arm_at), armed_(start >= arm_at) {}

  void on_wb(u64, unsigned rd, u32 v) override {
    if (!armed_) {
      // Waiting for the execution-loop marker; the good-trace index realigns
      // to the execution loop's start regardless of loading-loop drift.
      if (rd == core::kLoopCounterReg && v == 1) {
        idx_ = arm_at_;
        armed_ = true;
      }
      return;
    }
    if (rd != core::kSignatureReg) return;
    const bool match = idx_ < good_->size() && (*good_)[idx_] == v;
    ++idx_;
    diverged_run_ = match ? 0 : diverged_run_ + 1;
  }

  /// Persistent signature divergence observed.
  bool detected() const { return diverged_run_ >= kPersist; }

  /// What steers the tap's later verdicts: its position in the good trace,
  /// whether it is armed, and the current mismatch run.
  std::array<u64, 3> state() const { return {idx_, armed_, diverged_run_}; }

 private:
  const std::vector<u32>* good_;
  std::size_t idx_;
  std::size_t arm_at_;
  bool armed_;
  unsigned diverged_run_ = 0;
};

struct Checkpoint {
  soc::Soc soc;
  std::size_t call_idx;
  std::size_t r29_idx;
};

/// The good run is cut into this many equal stretches, and phase 2 gets a
/// checkpoint at the start of each (docs/fault_simulation.md, "Phase 2").
constexpr u64 kEvenCheckpoints = 16;

/// Completed work units between two progress emissions within a phase.
constexpr u64 kProgressEvery = 64;

/// Aggregates worker progress and throttles callback invocations. All
/// methods are no-ops when no callback is installed; otherwise every
/// emission happens under one mutex, so the callback never sees torn state
/// and never runs concurrently with itself.
class ProgressTracker {
 public:
  ProgressTracker(const ProgressFn& fn, unsigned workers)
      : fn_(fn), worker_done_(workers, 0) {}

  void begin_phase(CampaignPhase phase, u64 total) {
    if (!fn_) return;
    std::lock_guard<std::mutex> lk(mu_);
    phase_ = phase;
    total_ = total;
    done_ = excited_ = detected_ = since_emit_ = 0;
    std::fill(worker_done_.begin(), worker_done_.end(), u64{0});
    start_ = std::chrono::steady_clock::now();
    emit_locked();
  }

  /// Record `units` finished work units from `worker`, plus the excited /
  /// detected faults they contributed.
  void add(unsigned worker, u64 units, u64 excited = 0, u64 detected = 0) {
    if (!fn_) return;
    std::lock_guard<std::mutex> lk(mu_);
    done_ += units;
    excited_ += excited;
    detected_ += detected;
    worker_done_[worker] += units;
    since_emit_ += units;
    if (since_emit_ >= kProgressEvery) {
      since_emit_ = 0;
      emit_locked();
    }
  }

  void end_phase() {
    if (!fn_) return;
    std::lock_guard<std::mutex> lk(mu_);
    emit_locked();
  }

 private:
  void emit_locked() {
    CampaignProgress p;
    p.phase = phase_;
    p.done = done_;
    p.total = total_;
    p.excited = excited_;
    p.detected = detected_;
    p.elapsed_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                start_)
                      .count();
    if (done_ > 0 && total_ > done_)
      p.eta_s = p.elapsed_s * static_cast<double>(total_ - done_) /
                static_cast<double>(done_);
    p.worker_done = worker_done_;
    fn_(p);
  }

  ProgressFn fn_;
  std::mutex mu_;
  CampaignPhase phase_ = CampaignPhase::kGoodRun;
  u64 total_ = 0, done_ = 0, excited_ = 0, detected_ = 0, since_emit_ = 0;
  std::vector<u64> worker_done_;
  std::chrono::steady_clock::time_point start_;
};

/// Hooks a faulty module model into the graded core, in its module's slot.
/// The sequential ICU resumes from the restored core's flop state.
void install(cpu::Cpu& core, cpu::ForwardModel& m) { core.hooks().fwd = &m; }
void install(cpu::Cpu& core, cpu::HazardModel& m) { core.hooks().hazard = &m; }
void install(cpu::Cpu& core, cpu::IcuModel& m) {
  m.load_state(core.icu_state().state());
  core.hooks().icu = &m;
}

/// Calls `f` with the netlist of module `m` for core kind `kind` — the one
/// place a Module selects a netlist type.
template <class F>
auto with_module(Module m, isa::CoreKind kind, F&& f) {
  switch (m) {
    case Module::kHdcu: return f(netlist::HdcuNetlist(kind));
    case Module::kIcu: return f(netlist::IcuNetlist(kind));
    case Module::kFwd: break;
  }
  return f(netlist::FwdNetlist(kind));
}

}  // namespace

std::vector<u8> CampaignResult::canonical_bytes() const {
  std::vector<u8> out;
  out.reserve(10 * 8 + outcomes.size());
  for (const u64 v : {total_faults, simulated_faults, excited, detected,
                      detected_signature, detected_verdict, detected_watchdog,
                      good_cycles})
    put64(out, v);
  put32(out, good_verdict.status);
  put32(out, good_verdict.signature);
  put64(out, outcomes.size());
  for (const FaultOutcome o : outcomes) out.push_back(static_cast<u8>(o));
  return out;
}

u64 checkpoint_config_hash(const CampaignConfig& cfg, const netlist::Netlist& nl,
                           const soc::Soc& soc) {
  ConfigHasher h;
  h.u32v(kCheckpointSchemaVersion)
      .u32v(static_cast<u32>(PayloadKind::kFaultOutcomes))
      .u8v(static_cast<u8>(cfg.module))
      .u32v(cfg.core_id)
      .u8v(static_cast<u8>(cfg.kind))
      .u32v(soc::mailbox_addr(cfg.core_id))  // existing manifests hash it
      .u64v(kGoodRunMaxCycles)
      .u32v(cfg.checkpoint_every)
      .u32v(cfg.fault_stride)
      .u8v(cfg.signature_from_marker ? 1 : 0)
      .u64v(netlist_fingerprint(nl))
      .u64v(soc_image_fingerprint(soc));
  return h.digest();
}

std::vector<netlist::Fault> sample_faults(const netlist::Netlist& nl,
                                          u32 stride) {
  if (stride == 0)
    throw std::invalid_argument("fault campaign: fault_stride must be >= 1");
  const std::vector<netlist::Fault> all = nl.fault_list();
  std::vector<netlist::Fault> sampled;
  for (std::size_t i = 0; i < all.size(); ++i)
    if ((i / 2) % stride == 0) sampled.push_back(all[i]);
  return sampled;
}

netlist::Netlist module_netlist(Module m, isa::CoreKind kind) {
  return with_module(m, kind, [](const auto& mod) { return mod.nl(); });
}

namespace {

/// The whole campaign over the graded module's netlist `mod`: one body for
/// every module, written against Mod's In/Model types and its codec.
template <class Mod>
CampaignResult run_campaign(const CampaignConfig& cfg, const SocFactory& factory,
                            const Mod& mod) {
  const u32 mailbox = soc::mailbox_addr(cfg.core_id);
  const unsigned threads = resolve_threads(cfg.threads);
  CampaignResult res;
  res.threads_used = threads;
  const auto wall_start = std::chrono::steady_clock::now();
  ProgressTracker tracker(cfg.progress, threads);

  // Campaign events use an emission sequence number as their clock: all
  // emissions happen on the serial control path (phase boundaries + the
  // post-join per-fault sweep), so the stream is identical for any thread
  // count. kCampaignFault carries the fault index instead (event.h).
  u64 seq = 0;
  const auto emit_phase = [&](trace::EventKind kind, CampaignPhase phase, u32 a,
                              u32 b) {
    DETSTL_TRACE(cfg.sink, trace::Event{.cycle = seq++,
                                        .kind = kind,
                                        .unit = static_cast<u8>(phase),
                                        .a = a,
                                        .b = b});
  };

  // --- Fault list (deterministically sampled) ------------------------------
  // It depends only on the netlist, so the journal below loads (and emits its
  // kCkptLoad/kCkptReject events) before the good run starts tracing.
  const netlist::Netlist& nl = mod.nl();
  res.total_faults = nl.fault_list().size();
  const std::vector<netlist::Fault> faults = sample_faults(nl, cfg.fault_stride);
  res.simulated_faults = faults.size();
  res.outcomes.assign(faults.size(), FaultOutcome::kNotExcited);
  // Equivalent faults make the same faulty circuit, so every member of a
  // class has its representative's first divergence and outcome: phases 1
  // and 2 simulate representatives only. Units, journal records and every
  // aggregate stay per fault.
  const netlist::FaultClasses classes =
      netlist::equivalence_classes(nl, mod.outputs(), faults);
  const std::size_t nclasses = classes.size();
  res.fault_classes = nclasses;
  // A class's outcome once a journalled member or its detection decides it.
  std::vector<FaultOutcome> class_outcome(nclasses, FaultOutcome::kNotExcited);
  std::vector<u8> class_decided(nclasses, 0);

  // --- Crash-safe checkpoint/resume (fault/unit_driver.h) ------------------
  // The manifest hash binds the on-disk checkpoint to this exact campaign:
  // netlist identity + routine image + every outcome-relevant config field.
  // The factory's SoC serves both the fingerprint and the good run below.
  // Each record holds one FaultOutcome byte; a malformed one is dropped and
  // its fault re-executes. A journalled (resumed or merged) record decides
  // its whole class. Faults outside the shard range are done with the
  // kNotExcited placeholder, which decides nothing: screening skips a lane
  // group only once every member of its classes is done.
  soc::Soc good = factory();
  UnitDriver driver(
      "fault campaign", faults.size(), cfg,
      {.kind = PayloadKind::kFaultOutcomes,
       .config_hash = [&] { return checkpoint_config_hash(cfg, nl, good); },
       .accept = [&](u64 i, const std::vector<u8>& payload) {
         if (payload.size() != 1 ||
             payload[0] > static_cast<u8>(FaultOutcome::kUndetected))
           return false;
         res.outcomes[i] = static_cast<FaultOutcome>(payload[0]);
         class_outcome[classes.class_of[i]] = res.outcomes[i];
         class_decided[classes.class_of[i]] = 1;
         return true;
       }});
  const std::vector<u8>& done = driver.done();

  // --- Phase 0: good run with trace recording + checkpoints ---------------------
  tracker.begin_phase(CampaignPhase::kGoodRun, 0);
  emit_phase(trace::EventKind::kCampaignPhaseBegin, CampaignPhase::kGoodRun, 0, 0);
  RecorderTap<typename Mod::In> rec;
  // The good run traces live (it is serial); checkpoints copy the sink
  // pointer, so detect_one clears it on every restored replica.
  good.set_trace_sink(cfg.sink);
  good.reset();
  good.core(cfg.core_id).hooks().tap = &rec;

  std::vector<Checkpoint> cps;
  cps.push_back(Checkpoint{good, 0, 0});
  while (!good.core(cfg.core_id).halted()) {
    if (good.now() >= kGoodRunMaxCycles)
      throw std::runtime_error("fault campaign: good run exceeded " +
                               std::to_string(kGoodRunMaxCycles) + " cycles");
    good.tick();
    if (good.now() % cfg.checkpoint_every == 0) {
      cps.push_back(Checkpoint{good, rec.calls().size(), rec.r29().size()});
      tracker.add(0, cfg.checkpoint_every);
    }
  }
  tracker.end_phase();
  emit_phase(trace::EventKind::kCampaignPhaseEnd, CampaignPhase::kGoodRun, 0, 0);
  res.good_cycles = good.now();
  perf::sim_totals().add(perf::SimStat::kGoodRunCycles, good.now());
  res.good_verdict = core::read_verdict(good, mailbox);
  if (res.good_verdict.status != soc::kStatusPass)
    throw std::runtime_error("fault campaign: fault-free run did not pass");

  const std::size_t ncalls = rec.calls().size();

  // --- Phase 1: 64-lane excitation screening, sharded by lane group ---------------
  // Each lane group (<= 63 class representatives + the golden lane) replays
  // the trace in its own EvalState and writes a disjoint slice of class_div,
  // so workers share nothing but the immutable netlist, the trace, and the
  // work queue. Every member then takes its class's first divergence.
  using netlist::LaneGroupScreen;
  const std::size_t ngroups = LaneGroupScreen::num_groups(nclasses);
  std::vector<netlist::Fault> rep_faults(nclasses);
  std::vector<u32> class_size(nclasses, 0);
  std::vector<u8> class_pending(nclasses, 0);  // some member is not done
  for (std::size_t c = 0; c < nclasses; ++c)
    rep_faults[c] = faults[classes.representative[c]];
  for (std::size_t i = 0; i < faults.size(); ++i) {
    ++class_size[classes.class_of[i]];
    class_pending[classes.class_of[i]] |= done[i] == 0;
  }
  std::vector<std::size_t> class_div(nclasses, SIZE_MAX);
  const auto first_div = [&](std::size_t i) { return class_div[classes.class_of[i]]; };

  // Every aggregate derives from the merged outcomes vector (plus the
  // screening verdict for faults detection has not reached), so the result
  // is identical for any thread count, straight or resumed. A resumed fault
  // (done) is excited iff its recorded outcome says so — detection never
  // records kNotExcited for an excited fault, so the derivation is exact.
  const auto merge_aggregates = [&] {
    res.excited = 0;
    res.detected_signature = res.detected_verdict = res.detected_watchdog = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      res.excited += done[i] != 0
                         ? res.outcomes[i] != FaultOutcome::kNotExcited
                         : first_div(i) != SIZE_MAX;
      switch (res.outcomes[i]) {
        case FaultOutcome::kNotExcited:
        case FaultOutcome::kUndetected:
          break;
        case FaultOutcome::kDetectedSignature: ++res.detected_signature; break;
        case FaultOutcome::kDetectedVerdict: ++res.detected_verdict; break;
        case FaultOutcome::kDetectedWatchdog: ++res.detected_watchdog; break;
      }
    }
    res.detected =
        res.detected_signature + res.detected_verdict + res.detected_watchdog;
  };

  // Common tail of the complete and the drained (interrupted) exit paths:
  // journal everything completed so far and stamp the wall clock.
  const auto finish = [&] {
    res.ckpt = driver.finish();
    res.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();
  };

  tracker.begin_phase(CampaignPhase::kScreening, ngroups);
  emit_phase(trace::EventKind::kCampaignPhaseBegin, CampaignPhase::kScreening,
             static_cast<u32>(ngroups), static_cast<u32>(ngroups >> 32));
  WorkQueue group_queue(ngroups, 1);
  run_pool(std::min<std::size_t>(threads, std::max<std::size_t>(1, ngroups)),
           [&](unsigned w) {
    while (!driver.stop_requested()) {
      const auto chunk = group_queue.next();
      if (!chunk) return;
      for (std::size_t g = chunk->begin; g < chunk->end; ++g) {
        const std::size_t base = g * LaneGroupScreen::kLanesPerGroup;
        const std::size_t n = std::min<std::size_t>(
            LaneGroupScreen::kLanesPerGroup, nclasses - base);
        // Every member of every class in this group is already done; its
        // screening verdicts could change nothing, skip the replay.
        if (std::none_of(class_pending.begin() + static_cast<std::ptrdiff_t>(base),
                         class_pending.begin() + static_cast<std::ptrdiff_t>(base + n),
                         [](u8 p) { return p != 0; })) {
          tracker.add(w, 1);
          continue;
        }
        LaneGroupScreen screen(nl, mod.outputs(), {rep_faults.data() + base, n});
        std::size_t replayed = 0;
        for (; replayed < ncalls && !screen.done(); ++replayed) {
          mod.encode(rec.calls()[replayed], screen.state());
          screen.observe(replayed);
          screen.clock();  // a no-op for the flop-free modules
        }
        perf::sim_totals().add(perf::SimStat::kScreenCalls, replayed);
        u64 excited_here = 0;
        for (std::size_t j = 0; j < n; ++j) {
          class_div[base + j] = screen.first_divergence()[j];
          if (class_div[base + j] != SIZE_MAX) excited_here += class_size[base + j];
        }
        tracker.add(w, 1, excited_here);
      }
    }
    group_queue.halt();
  });
  tracker.end_phase();

  merge_aggregates();
  if (driver.stop_requested()) {
    // Drained during screening: nothing new completed, but the resumed
    // outcomes (and their aggregates) are preserved in the partial result.
    finish();
    return res;
  }
  emit_phase(trace::EventKind::kCampaignPhaseEnd, CampaignPhase::kScreening,
             static_cast<u32>(res.excited), 0);

  // --- Evenly spaced checkpoints for phase 2 ---------------------------------------
  // Most good runs are shorter than checkpoint_every, so all their replicas
  // would restart at cycle 0. A second good run, silent (no sink), adds one
  // checkpoint every ceil(good_cycles / kEvenCheckpoints) cycles. The
  // positions depend on the good run alone, so every class restarts from
  // the same checkpoint in a straight, a resumed or a sharded run.
  CountingTap<typename Mod::In> counter;
  {
    const u64 every = (res.good_cycles + kEvenCheckpoints - 1) / kEvenCheckpoints;
    soc::Soc s = cps.front().soc;
    s.set_trace_sink(nullptr);
    s.core(cfg.core_id).hooks().tap = &counter;
    while (!s.core(cfg.core_id).halted()) {
      s.tick();
      if (s.now() % every == 0 && s.now() % cfg.checkpoint_every != 0 &&
          s.now() < res.good_cycles)
        cps.push_back(Checkpoint{s, counter.calls(), counter.r29()});
    }
    assert(s.now() == res.good_cycles && "the good run is deterministic");
    perf::sim_totals().add(perf::SimStat::kGoodRunCycles, s.now());
    std::sort(cps.begin(), cps.end(), [](const Checkpoint& a, const Checkpoint& b) {
      return a.soc.now() < b.soc.now();
    });
  }

  // --- Phase 2: detection of excited faults, sharded by fault index ---------------
  const u64 watchdog = res.good_cycles * 2 + 10'000;

  // Re-simulate fault i from its checkpoint; pure function of immutable
  // campaign state, safe to call from any worker.
  const auto detect_one = [&](std::size_t i) -> FaultOutcome {
    // Latest checkpoint at or before the first divergent module call.
    const auto it = std::upper_bound(
        cps.begin(), cps.end(), first_div(i),
        [](std::size_t call, const Checkpoint& c) { return call < c.call_idx; });
    const Checkpoint& cp = *std::prev(it);  // cps[0].call_idx == 0 <= any call

    soc::Soc s = cp.soc;
    const u64 resume_cycle = s.now();
    // The checkpoint copy carries the good run's sink; faulty replicas run on
    // worker threads and must never emit (trace/event.h checkpoint contract).
    s.set_trace_sink(nullptr);
    const std::size_t arm_at = cfg.signature_from_marker ? rec.marker_idx() : 0;
    CompareTap cmp(rec.r29(), cp.r29_idx, arm_at);
    cpu::Cpu& graded = s.core(cfg.core_id);
    graded.hooks() = cpu::CpuHooks{.tap = &cmp};
    netlist::NetlistModelFor<Mod> model(mod);
    model.set_fault(faults[i]);
    install(graded, model);

    // A replica still running past the good run's length may be hung: from
    // there on, a repeating state ends it at once (fault/livelock.h).
    LivelockDetector livelock(cfg.core_id);
    const auto side = [&](std::vector<u64>& out) {
      const auto tap = cmp.state();
      out.insert(out.end(), tap.begin(), tap.end());
      const auto flops = model.flops();
      out.insert(out.end(), flops.begin(), flops.end());
    };
    while (!graded.halted() && !cmp.detected() && s.now() < watchdog) {
      if (s.now() > res.good_cycles && livelock.repeats(s, side)) {
        perf::sim_totals().add(perf::SimStat::kLivelockExits, 1);
        perf::sim_totals().add(perf::SimStat::kLivelockSkippedCycles,
                               watchdog - s.now());
        break;  // neither halted nor detected: a watchdog outcome below
      }
      s.tick();
    }
    perf::sim_totals().add(perf::SimStat::kDetectionCycles, s.now() - resume_cycle);
    perf::sim_totals().add(perf::SimStat::kDetectionModuleCalls, model.calls());
    perf::sim_totals().add(perf::SimStat::kDetectionModuleEvals, model.evals());

    if (cmp.detected()) return FaultOutcome::kDetectedSignature;
    if (!graded.halted()) return FaultOutcome::kDetectedWatchdog;
    const core::TestVerdict v = core::read_verdict(s, mailbox);
    if (v.status != res.good_verdict.status || v.signature != res.good_verdict.signature)
      return FaultOutcome::kDetectedVerdict;
    return FaultOutcome::kUndetected;
  };

  // One detection per class and process. A journalled member decided its
  // class before the pool starts; otherwise the first worker to reach a
  // member detects the representative, and a worker reaching another member
  // meanwhile waits in call_once for that outcome.
  const auto class_once = std::make_unique<std::once_flag[]>(nclasses);
  const auto detect_class = [&](std::size_t i) {
    const u32 c = classes.class_of[i];
    if (class_decided[c] == 0)
      std::call_once(class_once[c], [&] {
        class_outcome[c] = detect_one(classes.representative[c]);
      });
    return class_outcome[c];
  };

  tracker.begin_phase(CampaignPhase::kDetection, faults.size());
  emit_phase(trace::EventKind::kCampaignPhaseBegin, CampaignPhase::kDetection,
             static_cast<u32>(faults.size()),
             static_cast<u32>(static_cast<u64>(faults.size()) >> 32));
  // Small chunks: per-fault cost is wildly uneven (a watchdog fault costs
  // 2x the good run; a non-excited one is a single branch), and the queue's
  // fetch_add is nanoseconds against milliseconds of simulation. Workers
  // write disjoint outcomes; counters are recomputed from the outcomes
  // vector after the join so the result is order-independent. Non-excited
  // faults are journalled too (a 1-byte kNotExcited record): a resumed run
  // must know they are complete.
  driver.run(
      threads, 4,
      {.run = [&](u64 i) {
         res.outcomes[i] = first_div(i) == SIZE_MAX ? FaultOutcome::kNotExcited
                                                    : detect_class(i);
         perf::sim_totals().add(perf::SimStat::kFaultUnits, 1);
       },
       .encode = [&](u64 i) {
         return std::vector<u8>{static_cast<u8>(res.outcomes[i])};
       },
       .on_done = [&](u64 i, unsigned w) {
         const FaultOutcome o = res.outcomes[i];
         tracker.add(w, 1, o != FaultOutcome::kNotExcited,
                     o != FaultOutcome::kNotExcited &&
                         o != FaultOutcome::kUndetected);
       }});
  tracker.end_phase();

  // --- Deterministic merge: every aggregate derives from outcomes ----------------
  merge_aggregates();
  if (driver.stop_requested()) {
    // Cooperative drain: in-flight chunks finished and everything completed
    // is journalled. No phase-end / per-fault events — a partial stream is
    // outside the determinism contract by definition.
    finish();
    return res;
  }
  emit_phase(trace::EventKind::kCampaignPhaseEnd, CampaignPhase::kDetection,
             static_cast<u32>(res.excited), static_cast<u32>(res.detected));

  // Per-fault events, post-join in fault-index order: identical for every
  // thread count because they derive only from the merged outcomes vector.
  if (cfg.sink != nullptr) {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      DETSTL_TRACE(cfg.sink,
                   trace::Event{.cycle = i,
                                .kind = trace::EventKind::kCampaignFault,
                                .unit = static_cast<u8>(res.outcomes[i]),
                                .flags = static_cast<u8>(faults[i].stuck1 ? 1 : 0),
                                .addr = static_cast<u32>(faults[i].net)});
    }
  }
  DETSTL_TRACE(cfg.sink,
               trace::Event{.cycle = seq++,
                            .kind = trace::EventKind::kCampaignDone,
                            .a = static_cast<u32>(res.detected),
                            .b = static_cast<u32>(res.simulated_faults)});
  finish();
  return res;
}

}  // namespace

Campaign::Campaign(const CampaignConfig& cfg, SocFactory factory)
    : cfg_(cfg), factory_(std::move(factory)) {}

CampaignResult Campaign::run() {
  return with_module(cfg_.module, cfg_.kind, [this](const auto& mod) {
    return run_campaign(cfg_, factory_, mod);
  });
}

}  // namespace detstl::fault
