#include "runtime/supervisor.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/bytes.h"

namespace detstl::runtime {

const char* outcome_name(RecoveryOutcome o) {
  switch (o) {
    case RecoveryOutcome::kPassClean: return "pass";
    case RecoveryOutcome::kPassRecovered: return "recovered";
    case RecoveryOutcome::kPassDegraded: return "degraded";
    case RecoveryOutcome::kQuarantined: return "quarantined";
    case RecoveryOutcome::kSkipped: return "skipped";
    case RecoveryOutcome::kBudgetExhausted: return "budget-exhausted";
  }
  return "?";
}

SchedulePlan plan_schedule(const std::vector<const core::SelfTestRoutine*>& routines,
                           unsigned cores) {
  assert(cores >= 1 && cores <= soc::kMaxCores);
  SchedulePlan plan;
  // One private 32 KiB flash window per program (two programs per scheduled
  // routine: cached + uncacheable fallback) so retry-with-reload always
  // restores from immutable, routine-owned flash.
  constexpr u32 kWindow = 0x8000;
  u32 next_base = mem::kFlashBase + 0x4000;
  for (unsigned c = 0; c < cores; ++c) {
    for (std::size_t r = 0; r < routines.size(); ++r) {
      if (next_base + 2 * kWindow > mem::kFlashBase + mem::kFlashSize)
        throw std::runtime_error("plan_schedule: schedule exceeds the flash");
      core::BuildEnv env;
      env.core_id = c;
      env.kind = plan.soc.core(c).kind();
      env.code_base = next_base;
      // Private scratch per (core, routine): routines must not inherit a
      // predecessor's dirtied data area.
      env.data_base = mem::kSramBase + 0x8000 +
                      static_cast<u32>(c * routines.size() + r) * 0x400;
      env.lint = core::LintMode::kOff;  // scheduling, not verification
      const u32 fallback_base = next_base + kWindow;
      next_base += 2 * kWindow;

      const core::FallbackPair pair =
          core::build_with_fallback(*routines[r], env, fallback_base);
      PlannedRoutine pr;
      pr.name = pair.cached.name;
      pr.cached_entry = pair.cached.prog.entry();
      pr.fallback_entry = pair.fallback.prog.entry();
      pr.cached_golden_addr = pair.cached.prog.symbol("t0_golden");
      pr.fallback_golden_addr = pair.fallback.prog.symbol("t0_golden");
      pr.cached_golden = pair.cached.golden;
      pr.fallback_golden = pair.fallback.golden;
      pr.mailbox = soc::mailbox_addr(c);
      pr.cached_calib = pair.cached.calib_cycles;
      pr.fallback_calib = pair.fallback.calib_cycles;
      pr.signature_stable = pair.signature_stable;
      plan.soc.load_program(pair.cached.prog);
      plan.soc.load_program(pair.fallback.prog);
      plan.schedule[c].push_back(std::move(pr));
    }
  }
  return plan;
}

std::vector<u8> SupervisorResult::outcome_vector() const {
  std::vector<u8> out;
  for (const CoreReport& cr : cores) {
    put8(out, cr.quarantined ? 1 : 0);
    put32(out, static_cast<u32>(cr.records.size()));
    for (const RoutineRecord& r : cr.records) {
      put8(out, static_cast<u8>(r.outcome));
      put8(out, static_cast<u8>(r.classification));
      put8(out, static_cast<u8>(r.last_failure));
      put8(out, static_cast<u8>(std::min(r.cached_attempts, 255u)));
      put8(out, static_cast<u8>(std::min(r.fallback_attempts, 255u)));
      put32(out, r.final_signature);
      put64(out, r.cycles);
    }
  }
  put64(out, total_cycles);
  put8(out, budget_exhausted ? 1 : 0);
  for (u64 v : injections.applied) put64(out, v);
  for (u64 v : injections.skipped) put64(out, v);
  return out;
}

StlSupervisor::StlSupervisor(soc::Soc soc, Schedule schedule,
                             const SupervisorConfig& cfg)
    : soc_(std::move(soc)), schedule_(std::move(schedule)), cfg_(cfg) {}

u64 watchdog_budget(u64 calib, const SupervisorConfig& cfg) {
  return calib + calib * cfg.margin_percent / 100 + cfg.watchdog_floor;
}

void StlSupervisor::update_targets(unsigned c) {
  const PlannedRoutine& r = schedule_[c][ctx_[c].routine];
  targets_.cached_golden_addr[c] = r.cached_golden_addr;
  targets_.fallback_golden_addr[c] = r.fallback_golden_addr;
  targets_.core_live[c] = true;
}

void StlSupervisor::emit_decision(unsigned c, Decision d, u32 b) {
  DETSTL_TRACE(soc_.trace_sink(),
               trace::Event{.cycle = soc_.now(),
                            .kind = trace::EventKind::kSupDecision,
                            .core = static_cast<u8>(c),
                            .unit = static_cast<u8>(d),
                            .a = static_cast<u32>(ctx_[c].routine),
                            .b = b});
}

void StlSupervisor::launch(unsigned c) {
  CoreCtx& x = ctx_[c];
  const PlannedRoutine& r = schedule_[c][x.routine];
  ++x.attempt;
  if (x.rung == 0 && x.attempt == 1) x.routine_start = soc_.now();
  const u32 entry = x.rung == 0 ? r.cached_entry : r.fallback_entry;
  soc_.restart_core(c, entry);
  x.state = CoreState::kRunning;
  const u64 calib = x.rung == 0 ? r.cached_calib : r.fallback_calib;
  x.deadline = soc_.now() + watchdog_budget(calib, cfg_);
  update_targets(c);
  DETSTL_TRACE(soc_.trace_sink(),
               trace::Event{.cycle = soc_.now(),
                            .kind = trace::EventKind::kSupAttempt,
                            .core = static_cast<u8>(c),
                            .unit = static_cast<u8>(x.rung),
                            .addr = entry,
                            .a = static_cast<u32>(x.routine),
                            .b = x.attempt});
}

void StlSupervisor::advance(unsigned c) {
  CoreCtx& x = ctx_[c];
  ++x.routine;
  if (x.routine >= schedule_[c].size()) {
    x.state = CoreState::kDone;
    soc_.park_core(c);
    targets_.core_live[c] = false;  // nothing left to perturb on this core
    return;
  }
  x.rung = 0;
  x.attempt = 0;
  launch(c);
}

void StlSupervisor::quarantine(unsigned c) {
  CoreCtx& x = ctx_[c];
  emit_decision(c, Decision::kQuarantine, 0);
  soc_.park_core(c);
  x.state = CoreState::kQuarantined;
  result_.cores[c].quarantined = true;
  targets_.core_live[c] = false;
  for (std::size_t r = x.routine + 1; r < schedule_[c].size(); ++r) {
    result_.cores[c].records[r].outcome = RecoveryOutcome::kSkipped;
    DETSTL_TRACE(soc_.trace_sink(),
                 trace::Event{.cycle = soc_.now(),
                              .kind = trace::EventKind::kSupDecision,
                              .core = static_cast<u8>(c),
                              .unit = static_cast<u8>(Decision::kSkip),
                              .a = static_cast<u32>(r)});
  }
}

void StlSupervisor::finish_attempt(unsigned c, AttemptStatus status, u32 signature) {
  CoreCtx& x = ctx_[c];
  RoutineRecord& rec = result_.cores[c].records[x.routine];
  if (x.rung == 0)
    rec.cached_attempts = x.attempt;
  else
    rec.fallback_attempts = x.attempt;
  rec.final_signature = signature;
  DETSTL_TRACE(soc_.trace_sink(),
               trace::Event{.cycle = soc_.now(),
                            .kind = trace::EventKind::kSupOutcome,
                            .core = static_cast<u8>(c),
                            .unit = static_cast<u8>(status),
                            .a = static_cast<u32>(x.routine),
                            .b = signature});

  if (status == AttemptStatus::kPass) {
    if (x.rung == 1) {
      // The cached rung failed permanently but the routine itself is sound:
      // the core keeps coverage at the cost of the paper's cache decoupling.
      rec.outcome = RecoveryOutcome::kPassDegraded;
      rec.classification = Classification::kPermanent;
    } else if (x.attempt == 1) {
      rec.outcome = RecoveryOutcome::kPassClean;
    } else {
      rec.outcome = RecoveryOutcome::kPassRecovered;
      rec.classification = Classification::kTransient;
    }
    rec.cycles = soc_.now() - x.routine_start;
    emit_decision(c, Decision::kAccept, 0);
    advance(c);
    return;
  }

  rec.last_failure = status;
  if (first_failure_ == 0) first_failure_ = soc_.now();
  const unsigned limit = x.rung == 0 ? cfg_.max_attempts : cfg_.fallback_attempts;
  if (x.attempt < limit) {
    // Retry with reload: the relaunch re-enters the wrapper from the top,
    // so cache invalidation + the loading loop rebuild the whole context.
    const u64 backoff =
        std::min(kBackoffBase << (x.attempt - 1), kBackoffCap);
    emit_decision(c, Decision::kRetry, static_cast<u32>(backoff));
    soc_.park_core(c);  // also stops a still-spinning core after a timeout
    x.state = CoreState::kBackoff;
    x.resume_at = soc_.now() + backoff;
    return;
  }
  if (x.rung == 0 && cfg_.fallback_attempts > 0) {
    emit_decision(c, Decision::kFallback, 0);
    soc_.park_core(c);
    x.rung = 1;
    x.attempt = 0;
    x.state = CoreState::kBackoff;
    x.resume_at = soc_.now() + kBackoffBase;
    return;
  }
  // Ladder exhausted: the routine cannot be made to pass on this core.
  rec.outcome = RecoveryOutcome::kQuarantined;
  rec.classification = Classification::kPermanent;
  rec.cycles = soc_.now() - x.routine_start;
  quarantine(c);
}

SupervisorResult StlSupervisor::run(InjectorHook* hook) {
  start();
  while (step(hook)) continue;
  return result_;
}

void StlSupervisor::start() {
  soc_.reset();
  result_ = SupervisorResult{};
  targets_ = InjectTargets{};
  first_failure_ = 0;
  for (unsigned c = 0; c < soc_.num_cores(); ++c) {
    ctx_[c] = CoreCtx{};
    auto& records = result_.cores[c].records;
    records.resize(schedule_[c].size());
    for (std::size_t r = 0; r < schedule_[c].size(); ++r)
      records[r].name = schedule_[c][r].name;
    if (!schedule_[c].empty()) launch(c);
  }
}

bool StlSupervisor::step(InjectorHook* hook) {
  const bool live = std::any_of(ctx_.begin(), ctx_.end(), [](const CoreCtx& x) {
    return x.state == CoreState::kRunning || x.state == CoreState::kBackoff;
  });
  if (live && soc_.now() >= cfg_.global_budget) {
    result_.budget_exhausted = true;
    for (unsigned c = 0; c < soc_.num_cores(); ++c) {
      CoreCtx& x = ctx_[c];
      if (x.state != CoreState::kRunning && x.state != CoreState::kBackoff)
        continue;
      for (std::size_t r = x.routine; r < schedule_[c].size(); ++r)
        result_.cores[c].records[r].outcome = RecoveryOutcome::kBudgetExhausted;
      emit_decision(c, Decision::kGiveUp, 0);
      soc_.park_core(c);
      x.state = CoreState::kDone;
    }
  }
  if (!live || result_.budget_exhausted) {
    result_.total_cycles = soc_.now();
    return false;
  }

  soc_.tick();
  if (hook != nullptr) hook->poll(soc_, targets_);

  for (unsigned c = 0; c < soc_.num_cores(); ++c) {
    CoreCtx& x = ctx_[c];
    if (x.state == CoreState::kRunning) {
      const PlannedRoutine& r = schedule_[c][x.routine];
      if (soc_.core(c).halted()) {
        const core::TestVerdict v = core::read_verdict(soc_, r.mailbox);
        const u32 golden = x.rung == 0 ? r.cached_golden : r.fallback_golden;
        AttemptStatus st;
        if (v.status == soc::kStatusPass && v.signature == golden)
          st = AttemptStatus::kPass;
        else if (v.status == soc::kStatusPass || v.status == soc::kStatusFail)
          st = AttemptStatus::kMismatch;
        else
          st = AttemptStatus::kCrash;  // halted without reporting
        finish_attempt(c, st, v.signature);
      } else if (soc_.now() >= x.deadline) {
        finish_attempt(c, AttemptStatus::kTimeout, 0);
      }
    } else if (x.state == CoreState::kBackoff && soc_.now() >= x.resume_at) {
      launch(c);
    }
  }
  return true;
}

}  // namespace detstl::runtime
