// Supervisor + disturbance-injection tests: the recovery ladder must turn
// transient faults into retries (re-entering the wrapper's loading loop),
// permanent cache-layer faults into uncacheable-fallback runs, and permanent
// routine faults into core quarantine — and the whole campaign must stay
// byte-identical across worker-thread counts.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "runtime/campaign.h"
#include "runtime/soak.h"
#include "trace/capture.h"

namespace detstl::runtime {
namespace {

std::vector<std::unique_ptr<core::SelfTestRoutine>> g_keep;

std::vector<const core::SelfTestRoutine*> routines(
    std::initializer_list<const char*> names) {
  std::vector<const core::SelfTestRoutine*> out;
  for (const char* n : names) {
    const core::RoutineEntry* e = core::find_routine(n);
    EXPECT_NE(e, nullptr) << n;
    g_keep.push_back(e->make());
    out.push_back(g_keep.back().get());
  }
  return out;
}

u64 first_phase_cycle(const std::vector<trace::Event>& ev, unsigned core,
                      trace::Phase p) {
  for (const trace::Event& e : ev)
    if (e.kind == trace::EventKind::kPhaseBegin && e.core == core &&
        static_cast<trace::Phase>(e.unit) == p)
      return e.cycle;
  return 0;
}

u32 first_phase_pc(const std::vector<trace::Event>& ev, unsigned core,
                   trace::Phase p) {
  for (const trace::Event& e : ev)
    if (e.kind == trace::EventKind::kPhaseBegin && e.core == core &&
        static_cast<trace::Phase>(e.unit) == p)
      return e.addr;
  return 0;
}

unsigned count_phase(const std::vector<trace::Event>& ev, unsigned core,
                     trace::Phase p) {
  unsigned n = 0;
  for (const trace::Event& e : ev)
    n += e.kind == trace::EventKind::kPhaseBegin && e.core == core &&
         static_cast<trace::Phase>(e.unit) == p;
  return n;
}

unsigned count_kind(const std::vector<trace::Event>& ev,
                    trace::EventKind kind, unsigned core) {
  unsigned n = 0;
  for (const trace::Event& e : ev) n += e.kind == kind && e.core == core;
  return n;
}

DisturbancePlan single(Disturbance d) {
  DisturbancePlan plan;
  plan.items.push_back(d);
  return plan;
}

void corrupt_flash_word(soc::Soc& soc, u32 addr, u32 mask) {
  const u32 corrupted = soc.flash().read32(addr) ^ mask;
  std::vector<u8> bytes(4);
  for (unsigned i = 0; i < 4; ++i) bytes[i] = static_cast<u8>(corrupted >> (8 * i));
  soc.flash().write_image(addr, bytes);
}

// --- Schedule planning ------------------------------------------------------

TEST(PlanSchedule, FallbackSignatureMatchesCachedGolden) {
  // The uncacheable fallback rung must produce the same signature as the
  // cached golden, otherwise degradation would flag healthy hardware. The
  // exception is `branch`, which folds a jal return address (an absolute PC)
  // into its MISR: its golden is layout-dependent by construction, the two
  // rungs live at different code bases, and signature_stable records that so
  // the supervisor checks the fallback rung against its own golden.
  const SchedulePlan plan = plan_schedule(
      routines({"alu", "rf-march", "shifter", "branch", "muldiv"}), 1);
  ASSERT_EQ(plan.schedule[0].size(), 5u);
  for (const PlannedRoutine& r : plan.schedule[0]) {
    if (r.name == "branch") {
      EXPECT_FALSE(r.signature_stable);
      EXPECT_NE(r.cached_golden, r.fallback_golden);
    } else {
      EXPECT_TRUE(r.signature_stable) << r.name;
      EXPECT_EQ(r.cached_golden, r.fallback_golden) << r.name;
    }
    EXPECT_NE(r.cached_entry, 0u);
    EXPECT_NE(r.fallback_entry, 0u);
    EXPECT_NE(r.cached_entry, r.fallback_entry);
    EXPECT_NE(r.cached_golden_addr, 0u);
    EXPECT_NE(r.fallback_golden_addr, 0u);
    EXPECT_GT(r.cached_calib, 0u);
    EXPECT_GT(r.fallback_calib, 0u);
  }
}

TEST(PlanSchedule, UndisturbedRunPassesCleanOnAllCores) {
  SchedulePlan plan = plan_schedule(routines({"alu", "shifter"}), 3);
  StlSupervisor sup(plan.soc, plan.schedule);
  const SupervisorResult res = sup.run();
  EXPECT_FALSE(res.budget_exhausted);
  for (unsigned c = 0; c < 3; ++c) {
    EXPECT_FALSE(res.cores[c].quarantined);
    ASSERT_EQ(res.cores[c].records.size(), 2u);
    for (const RoutineRecord& r : res.cores[c].records) {
      EXPECT_EQ(r.outcome, RecoveryOutcome::kPassClean) << outcome_name(r.outcome);
      EXPECT_EQ(r.classification, Classification::kNone);
      EXPECT_EQ(r.cached_attempts, 1u);
      EXPECT_EQ(r.fallback_attempts, 0u);
      EXPECT_GT(r.cycles, 0u);
    }
  }
  // Cross-core interference must stay inside the default watchdog margin.
  EXPECT_EQ(res.cores[0].records[0].final_signature,
            plan.schedule[0][0].cached_golden);
}

// --- Transient disturbances -------------------------------------------------

// Locate the execution-loop window of the first attempt on core 0 from an
// undisturbed supervised run (deterministic, so a disturbed replay sees the
// identical timeline up to the injection point).
struct ExecWindow {
  u64 begin = 0;
  u64 check = 0;
  u32 pc = 0;
};

ExecWindow exec_window(SchedulePlan& plan) {
  trace::StreamCapture cap;
  plan.soc.set_trace_sink(&cap);
  StlSupervisor sup(plan.soc, plan.schedule);
  sup.run();
  plan.soc.set_trace_sink(nullptr);
  ExecWindow w;
  w.begin = first_phase_cycle(cap.events(), 0, trace::Phase::kExecutionLoop);
  w.check = first_phase_cycle(cap.events(), 0, trace::Phase::kSignatureCheck);
  w.pc = first_phase_pc(cap.events(), 0, trace::Phase::kExecutionLoop);
  EXPECT_GT(w.begin, 0u);
  EXPECT_GT(w.check, w.begin + 2);
  return w;
}

TEST(Disturbance, MidExecutionLoopInterruptIsTolerated) {
  SchedulePlan plan = plan_schedule(routines({"alu"}), 1);
  const ExecWindow w = exec_window(plan);

  Disturbance d;
  d.kind = DisturbanceKind::kIrq;
  d.core = 0;
  d.cycle = w.begin + 2;  // strictly inside the execution loop
  d.param = 1u << static_cast<unsigned>(isa::IcuSource::kSoftware);
  DisturbanceInjector inj(single(d));

  trace::StreamCapture cap;
  plan.soc.set_trace_sink(&cap);
  StlSupervisor sup(plan.soc, plan.schedule);
  const SupervisorResult res = sup.run(&inj);
  plan.soc.set_trace_sink(nullptr);

  EXPECT_EQ(inj.stats().applied[static_cast<unsigned>(DisturbanceKind::kIrq)], 1u);
  // The event was delivered mid-loop (deterministic replay: same timeline).
  const u64 exec = first_phase_cycle(cap.events(), 0, trace::Phase::kExecutionLoop);
  const u64 check = first_phase_cycle(cap.events(), 0, trace::Phase::kSignatureCheck);
  EXPECT_GE(d.cycle, exec);
  EXPECT_LT(d.cycle, check);
  // The wrapper runs with interrupt recognition masked, so a mid-loop event
  // must neither crash the attempt nor perturb the signature.
  const RoutineRecord& r = res.cores[0].records[0];
  EXPECT_EQ(r.outcome, RecoveryOutcome::kPassClean) << outcome_name(r.outcome);
  EXPECT_EQ(r.final_signature, plan.schedule[0][0].cached_golden);
}

TEST(Disturbance, MidExecutionLoopInvalidateIsTolerated) {
  // Dropping a resident I-line mid-loop forces a refetch from immutable
  // flash: timing changes, architectural results must not.
  SchedulePlan plan = plan_schedule(routines({"alu"}), 1);
  const ExecWindow w = exec_window(plan);

  Disturbance d;
  d.kind = DisturbanceKind::kICacheInvalidate;
  d.core = 0;
  d.cycle = w.begin + 2;
  d.pick = 0;  // first resident line
  DisturbanceInjector inj(single(d));
  StlSupervisor sup(plan.soc, plan.schedule);
  const SupervisorResult res = sup.run(&inj);

  EXPECT_EQ(inj.stats().applied[static_cast<unsigned>(
                DisturbanceKind::kICacheInvalidate)], 1u);
  const RoutineRecord& r = res.cores[0].records[0];
  EXPECT_EQ(r.outcome, RecoveryOutcome::kPassClean) << outcome_name(r.outcome);
}

TEST(Disturbance, ICacheFlipRecoveredByRetryThroughLoadingLoop) {
  SchedulePlan plan = plan_schedule(routines({"alu"}), 1);
  const ExecWindow w = exec_window(plan);
  const u32 line_bytes = plan.soc.core(0).memsys().icache().config().line_bytes;

  // Flip a bit of an instruction shortly after the loop head — it is about
  // to be refetched inside the checked iteration. Some encodings are
  // don't-care bits, so probe a few candidates; at least one must corrupt
  // the attempt and the retry must recover it.
  bool recovered = false;
  for (const u32 offset : {4u, 8u, 12u, 16u, 20u}) {
    for (const u32 bit_in_word : {1u, 5u, 13u}) {
      const u32 addr = w.pc + offset;
      Disturbance d;
      d.kind = DisturbanceKind::kICacheFlip;
      d.core = 0;
      d.cycle = w.begin + 2;
      d.addr = addr;
      d.pick = static_cast<u64>((addr % line_bytes) * 8 + bit_in_word) << 32;
      DisturbanceInjector inj(single(d));

      trace::StreamCapture cap;
      plan.soc.set_trace_sink(&cap);
      StlSupervisor sup(plan.soc, plan.schedule);
      const SupervisorResult res = sup.run(&inj);
      plan.soc.set_trace_sink(nullptr);

      const RoutineRecord& r = res.cores[0].records[0];
      if (r.outcome != RecoveryOutcome::kPassRecovered) continue;
      recovered = true;
      EXPECT_EQ(r.classification, Classification::kTransient);
      EXPECT_EQ(r.cached_attempts, 2u);
      EXPECT_EQ(r.fallback_attempts, 0u);
      EXPECT_EQ(r.final_signature, plan.schedule[0][0].cached_golden);
      // The retry re-enters the wrapper from the top: a second invalidate
      // phase and a second pass through the loading loop must be visible.
      EXPECT_GE(count_phase(cap.events(), 0, trace::Phase::kInvalidate), 2u);
      EXPECT_GE(count_phase(cap.events(), 0, trace::Phase::kLoadingLoop), 2u);
      EXPECT_EQ(count_kind(cap.events(), trace::EventKind::kSupAttempt, 0), 2u);
      break;
    }
    if (recovered) break;
  }
  EXPECT_TRUE(recovered)
      << "no candidate I$ bit flip failed the attempt and recovered on retry";
}

TEST(Disturbance, BusStallTimeoutRecoveredByRetry) {
  SchedulePlan plan = plan_schedule(routines({"alu"}), 1);
  const u64 calib = plan.schedule[0][0].cached_calib;

  SupervisorConfig cfg;
  cfg.margin_percent = 0;  // tight watchdog: calib + floor
  cfg.watchdog_floor = 200;

  // Freeze the bus for a full calibration length early in the attempt: the
  // watchdog must fire, and the retry (after the stall drains) must pass.
  Disturbance d;
  d.kind = DisturbanceKind::kBusStall;
  d.cycle = 100;
  d.param = static_cast<u32>(calib);
  DisturbanceInjector inj(single(d));
  StlSupervisor sup(plan.soc, plan.schedule, cfg);
  const SupervisorResult res = sup.run(&inj);

  const RoutineRecord& r = res.cores[0].records[0];
  EXPECT_EQ(r.outcome, RecoveryOutcome::kPassRecovered) << outcome_name(r.outcome);
  EXPECT_EQ(r.classification, Classification::kTransient);
  EXPECT_EQ(r.last_failure, AttemptStatus::kTimeout);
  EXPECT_EQ(r.cached_attempts, 2u);
  EXPECT_FALSE(res.cores[0].quarantined);
}

// --- Permanent faults: fallback and quarantine ------------------------------

TEST(Degradation, CachedRungPermanentFaultFallsBackUncached) {
  // Corrupt only the CACHED program's golden constant: every cached attempt
  // mismatches, the uncacheable fallback still passes — the supervisor must
  // keep coverage at degraded service and classify the fault permanent.
  SchedulePlan plan = plan_schedule(routines({"alu", "shifter"}), 1);
  corrupt_flash_word(plan.soc, plan.schedule[0][0].cached_golden_addr, 1u << 7);

  StlSupervisor sup(plan.soc, plan.schedule);
  const SupervisorResult res = sup.run();

  const RoutineRecord& r = res.cores[0].records[0];
  EXPECT_EQ(r.outcome, RecoveryOutcome::kPassDegraded) << outcome_name(r.outcome);
  EXPECT_EQ(r.classification, Classification::kPermanent);
  EXPECT_EQ(r.cached_attempts, SupervisorConfig{}.max_attempts);
  EXPECT_EQ(r.fallback_attempts, 1u);
  EXPECT_EQ(r.last_failure, AttemptStatus::kMismatch);
  EXPECT_EQ(r.final_signature, plan.schedule[0][0].fallback_golden);
  // The fault is local to routine 0's flash window; the rest of the
  // schedule must be unaffected.
  EXPECT_FALSE(res.cores[0].quarantined);
  EXPECT_EQ(res.cores[0].records[1].outcome, RecoveryOutcome::kPassClean);
}

TEST(Degradation, FlashCorruptQuarantinesCoreOthersContinue) {
  // A kFlashCorrupt disturbance flips the golden constant on BOTH rungs:
  // retry and fallback keep failing, the core must be quarantined with its
  // remaining routines skipped — while the other core finishes clean.
  SchedulePlan plan = plan_schedule(routines({"alu", "shifter"}), 2);

  Disturbance d;
  d.kind = DisturbanceKind::kFlashCorrupt;
  d.core = 0;
  d.cycle = 50;  // while routine 0 is the core's active target
  d.pick = 3;    // bit 3 of the golden word
  DisturbanceInjector inj(single(d));
  StlSupervisor sup(plan.soc, plan.schedule);
  const SupervisorResult res = sup.run(&inj);

  EXPECT_EQ(inj.stats().applied[static_cast<unsigned>(
                DisturbanceKind::kFlashCorrupt)], 1u);
  EXPECT_TRUE(res.cores[0].quarantined);
  const RoutineRecord& r0 = res.cores[0].records[0];
  EXPECT_EQ(r0.outcome, RecoveryOutcome::kQuarantined) << outcome_name(r0.outcome);
  EXPECT_EQ(r0.classification, Classification::kPermanent);
  EXPECT_EQ(r0.cached_attempts, SupervisorConfig{}.max_attempts);
  EXPECT_EQ(r0.fallback_attempts, SupervisorConfig{}.fallback_attempts);
  EXPECT_EQ(res.cores[0].records[1].outcome, RecoveryOutcome::kSkipped);
  // Graceful degradation: the sibling core keeps testing.
  EXPECT_FALSE(res.cores[1].quarantined);
  for (const RoutineRecord& r : res.cores[1].records)
    EXPECT_EQ(r.outcome, RecoveryOutcome::kPassClean) << outcome_name(r.outcome);
}

TEST(Supervisor, GlobalBudgetExhaustionIsReported) {
  SchedulePlan plan = plan_schedule(routines({"alu"}), 1);
  SupervisorConfig cfg;
  cfg.global_budget = 500;  // far below one calibration length
  StlSupervisor sup(plan.soc, plan.schedule, cfg);
  const SupervisorResult res = sup.run();
  EXPECT_TRUE(res.budget_exhausted);
  EXPECT_EQ(res.cores[0].records[0].outcome, RecoveryOutcome::kBudgetExhausted);
  EXPECT_LE(res.total_cycles, cfg.global_budget);
}

/// Everything a finished supervised soak run leaves behind.
struct FinishedRun {
  std::vector<u8> outcome;
  u64 total_cycles = 0;
  u64 first_failure = 0;
  SoakStats stats;
  std::vector<AppliedUpset> log;
};

FinishedRun finish(StlSupervisor& sup, SoakInjector& inj) {
  while (sup.step(&inj)) continue;
  return {sup.result().outcome_vector(), sup.result().total_cycles, sup.first_failure(),
          inj.stats(), inj.applied_log()};
}

/// A straight run() under the first `limit` upsets of `splan`.
FinishedRun run_straight(const SchedulePlan& plan, const SoakPlan& splan, std::size_t limit) {
  SoakInjector inj(splan, limit);
  StlSupervisor sup(plan.soc, plan.schedule);
  const SupervisorResult r = sup.run(&inj);
  return {r.outcome_vector(), r.total_cycles, sup.first_failure(), inj.stats(),
          inj.applied_log()};
}

void expect_same_run(const FinishedRun& a, const FinishedRun& b, const std::string& what) {
  EXPECT_EQ(a.outcome, b.outcome) << what;
  EXPECT_EQ(a.total_cycles, b.total_cycles) << what;
  EXPECT_EQ(a.first_failure, b.first_failure) << what;
  EXPECT_EQ(a.stats.applied, b.stats.applied) << what;
  EXPECT_EQ(a.stats.skipped, b.stats.skipped) << what;
  ASSERT_EQ(a.log.size(), b.log.size()) << what;
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log[i].index, b.log[i].index) << what << " upset " << i;
    EXPECT_EQ(a.log[i].site, b.log[i].site) << what << " upset " << i;
    EXPECT_EQ(a.log[i].core, b.log[i].core) << what << " upset " << i;
    EXPECT_EQ(a.log[i].cycle, b.log[i].cycle) << what << " upset " << i;
    EXPECT_EQ(a.log[i].addr, b.log[i].addr) << what << " upset " << i;
    EXPECT_EQ(a.log[i].bit, b.log[i].bit) << what << " upset " << i;
  }
}

TEST(Supervisor, CopyBetweenStepsIsBitExactContinuation) {
  // The supervisor's twin of SocCheckpoint.CopyIsBitExactContinuation: the
  // soak bisection resumes probes from a supervisor and injector copied
  // between steps. Under upset rates high enough to fail attempts, a copy
  // must finish exactly like the original, and a copy whose injector is cut
  // to k upsets exactly like a straight run that never sees upset k.
  const SchedulePlan plan = plan_schedule(routines({"alu", "shifter"}), 2);
  SoakSpec sspec;
  sspec.duration = calibrated_horizon(plan, 2);
  sspec.rates = {200, 400, 300, 120};
  const SoakPlan splan = make_soak_plan(sspec, 0x50AF0BAD, 2);
  ASSERT_GE(splan.upsets.size(), 4u);

  const FinishedRun straight = run_straight(plan, splan, splan.upsets.size());
  EXPECT_NE(straight.first_failure, 0u) << "rates chosen to force a failed attempt";
  ASSERT_FALSE(straight.log.empty());

  // run() is start() plus a step() loop.
  {
    SoakInjector inj(splan);
    StlSupervisor sup(plan.soc, plan.schedule);
    sup.start();
    expect_same_run(finish(sup, inj), straight, "start/step loop");
  }

  // A copy taken between steps continues bit-exactly, and so does the
  // original it was copied from.
  const u64 end = straight.total_cycles;
  for (const u64 at : {u64{0}, u64{1}, end / 4, end / 2, 3 * end / 4, end - 1}) {
    SoakInjector inj(splan);
    StlSupervisor sup(plan.soc, plan.schedule);
    sup.start();
    while (sup.now() < at && sup.step(&inj)) continue;
    ASSERT_EQ(sup.now(), at);
    StlSupervisor copy = sup;
    SoakInjector copy_inj = inj;
    const std::string what = "copy at cycle " + std::to_string(at);
    expect_same_run(finish(copy, copy_inj), straight, what);
    expect_same_run(finish(sup, inj), straight, what + " (original)");
  }

  // A copy cut with limit_to(k) just before upset k is polled equals a
  // straight run under the first k upsets.
  unsigned differs = 0;
  for (const std::size_t k : {std::size_t{1}, splan.upsets.size() / 2,
                              splan.upsets.size() - 1}) {
    const FinishedRun cut = run_straight(plan, splan, k);
    differs += cut.log.size() != straight.log.size() ? 1 : 0;

    SoakInjector inj(splan);
    StlSupervisor sup(plan.soc, plan.schedule);
    sup.start();
    while (sup.now() + 1 < splan.upsets[k].cycle && sup.step(&inj)) continue;
    StlSupervisor copy = sup;
    SoakInjector copy_inj = inj;
    copy_inj.limit_to(k);
    expect_same_run(finish(copy, copy_inj), cut, "limit_to(" + std::to_string(k) + ")");
  }
  EXPECT_GT(differs, 0u) << "some cut must drop an applied upset";
}

// --- Plan generation --------------------------------------------------------

struct PlanCase {
  u64 seed;
  unsigned count;
  u32 stall;
  double permanent;
  u64 horizon;  // calibrated arrival horizon past the window's start
  unsigned cores;
  u64 digest;
};

/// FNV-1a 64 over every field of every item of make_plan's output.
u64 plan_digest(const PlanCase& c) {
  DisturbanceSpec spec;
  spec.count = c.count;
  spec.stall_cycles = c.stall;
  spec.permanent_chance = c.permanent;
  const DisturbancePlan plan = make_plan(spec, c.seed, c.cores, c.horizon);
  std::vector<u8> out;
  put32(out, static_cast<u32>(plan.items.size()));
  for (const Disturbance& d : plan.items) {
    put8(out, static_cast<u8>(d.kind));
    put8(out, d.core);
    put64(out, d.cycle);
    put64(out, d.pick);
    put32(out, d.addr);
    put32(out, d.param);
    put32(out, d.repeats);
  }
  return fnv1a(out);
}

// Absolute digests: every disturbance campaign replays these plans, so a
// moved digest changes every campaign report and resumed journal.
TEST(Disturbance, MakePlanIsPinned) {
  const PlanCase cases[] = {
      {0xD15B0001, 6, 150, 0.0, 5'000, 3, 0x3922'0a20'7077'ee25ull},
      {0xC0FFEE11, 5, 150, 0.5, 12'345, 2, 0xd58f'7d8c'7f3c'2703ull},
      {0x1, 0, 150, 1.0, 1'000, 1, 0x78e8'd30c'11d5'bc86ull},
      {0xABCDEF, 64, 777, 0.25, 100'000, 3, 0xec14'73b6'6c0b'ae9aull},
      {0x5EED, 3, 1, 1.0, 0, 3, 0xb627'6c99'94bc'8bb9ull},
  };
  for (const PlanCase& c : cases)
    EXPECT_EQ(plan_digest(c), c.digest) << std::hex << "seed 0x" << c.seed;
}

// --- Campaign determinism ---------------------------------------------------

TEST(Campaign, OutcomeVectorByteIdenticalAcrossThreadCounts) {
  CampaignSpec spec;
  spec.seed = 0xC0FFEE11;
  spec.runs = 4;
  spec.cores = 2;
  spec.routines = {"alu", "shifter"};
  spec.disturb.count = 5;
  spec.disturb.permanent_chance = 0.5;

  spec.threads = 1;
  const CampaignResult serial = run_disturbance_campaign(spec);
  for (const unsigned threads : {2u, 8u}) {
    spec.threads = threads;
    const CampaignResult par = run_disturbance_campaign(spec);
    EXPECT_EQ(par.outcome_vector(), serial.outcome_vector()) << threads;
    EXPECT_EQ(par.digest(), serial.digest()) << threads;
    EXPECT_EQ(render_recovery_report(par), render_recovery_report(serial))
        << threads;
  }
  // The injected disturbances must actually have landed, a flash corruption
  // among them: the 2- and 8-thread runs then have workers building new
  // flash images from one shared plan image at the same time (a TSan target).
  InjectionStats total;
  for (const RunRecord& rec : serial.records)
    for (unsigned k = 0; k < kNumDisturbanceKinds; ++k)
      total.applied[k] += rec.result.injections.applied[k];
  EXPECT_GT(total.total_applied(), 0u);
  EXPECT_GE(total.applied[static_cast<unsigned>(DisturbanceKind::kFlashCorrupt)], 1u);
}

TEST(Campaign, CheckpointConfigHashExcludesExecutionKnobs) {
  const auto r = routines({"alu", "shifter"});
  const SchedulePlan plan = plan_schedule(r, 2);
  CampaignSpec spec;
  spec.seed = 0xAB;
  spec.runs = 4;
  spec.cores = 2;
  const u64 base = checkpoint_config_hash(spec, plan);
  EXPECT_EQ(checkpoint_config_hash(spec, plan), base);  // stable

  // Threads and checkpoint/interrupt/sink wiring are excluded: resuming on a
  // different worker count or with different observability is legal.
  CampaignSpec knobs = spec;
  knobs.threads = 8;
  knobs.checkpoint.dir = "elsewhere";
  knobs.checkpoint.resume = true;
  EXPECT_EQ(checkpoint_config_hash(knobs, plan), base);

  CampaignSpec seed = spec;
  seed.seed = 0xAC;
  EXPECT_NE(checkpoint_config_hash(seed, plan), base);

  CampaignSpec runs = spec;
  runs.runs = 5;
  EXPECT_NE(checkpoint_config_hash(runs, plan), base);

  CampaignSpec disturb = spec;
  disturb.disturb.permanent_chance = 0.25;
  EXPECT_NE(checkpoint_config_hash(disturb, plan), base);

  CampaignSpec sup = spec;
  sup.supervisor.max_attempts = 7;
  EXPECT_NE(checkpoint_config_hash(sup, plan), base);

  // A different schedule plan (different routine image) must re-key.
  const SchedulePlan plan2 = plan_schedule(routines({"alu"}), 2);
  EXPECT_NE(checkpoint_config_hash(spec, plan2), base);
}

TEST(Campaign, RunSeedsAreDecorrelatedAndStable) {
  EXPECT_NE(derive_run_seed(1, 0), derive_run_seed(1, 1));
  EXPECT_NE(derive_run_seed(1, 0), derive_run_seed(2, 0));
  EXPECT_EQ(derive_run_seed(42, 7), derive_run_seed(42, 7));
}

}  // namespace
}  // namespace detstl::runtime
