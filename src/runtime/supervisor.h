#pragma once
// On-line STL supervisor: runs a per-core schedule of cache-wrapped self-test
// routines under watchdog budgets with bounded retry-with-reload and a
// graceful degradation ladder — the test-manager layer an ASIL-D device
// wraps around the paper's routines in the field.
//
// Per routine, per core:
//
//        launch (cached rung)
//          |  pass first try               -> kPassClean
//          |  mismatch/crash/timeout
//          v
//        retry with reload (exponential backoff, <= max_attempts)
//          |  pass                         -> kPassRecovered   [transient]
//          |  still failing
//          v
//        uncacheable fallback rung (plain wrapper, <= fallback_attempts)
//          |  pass                         -> kPassDegraded    [permanent]
//          |  still failing
//          v
//        quarantine the core              -> kQuarantined      [permanent]
//        (remaining routines kSkipped; other cores continue)
//
// A retry re-enters the wrapper from the top — cache invalidation and the
// loading loop reload everything — which is exactly the paper's recovery
// property: the cached execution context is rebuilt from immutable flash.
//
// Every attempt, outcome and decision is emitted on the trace bus
// (kSupAttempt / kSupOutcome / kSupDecision), and the whole result is
// canonically serialisable (outcome_vector) for byte-exact determinism
// comparisons across worker-thread counts.

#include <string>
#include <vector>

#include "core/stl.h"
#include "runtime/disturb.h"

namespace detstl::runtime {

/// Idle ticks before retry k of a rung: kBackoffBase << (k-1), at most
/// kBackoffCap. Entering the fallback rung waits kBackoffBase.
inline constexpr u64 kBackoffBase = 64;
inline constexpr u64 kBackoffCap = 4'096;

struct SupervisorConfig {
  /// Watchdog budget per attempt (watchdog_budget below). The margin
  /// absorbs bus interference the calibration run never saw (calibration is
  /// single-core isolated; three contending cores can stretch the bus-bound
  /// loading loop towards 3x).
  unsigned margin_percent = 250;
  u64 watchdog_floor = 2'000;
  unsigned max_attempts = 3;        // attempts on the cached rung
  unsigned fallback_attempts = 2;   // attempts on the uncacheable rung
  u64 global_budget = 30'000'000;   // SoC-tick ceiling for the whole schedule
};

/// The watchdog budget of one attempt of a routine whose fault-free run
/// takes `calib` cycles: calib + calib * margin_percent/100 + watchdog_floor.
/// The supervisor's attempts and mission mode's slices both use it.
u64 watchdog_budget(u64 calib, const SupervisorConfig& cfg);

enum class AttemptStatus : u8 { kPass, kMismatch, kCrash, kTimeout };
enum class Classification : u8 { kNone, kTransient, kPermanent };
enum class RecoveryOutcome : u8 {
  kPassClean,      // cached rung, first attempt
  kPassRecovered,  // cached rung after >= 1 retry           [transient]
  kPassDegraded,   // uncacheable fallback rung passed       [permanent]
  kQuarantined,    // both rungs exhausted; core parked      [permanent]
  kSkipped,        // not run: core quarantined earlier
  kBudgetExhausted,  // not finished: global budget ran out
};
/// Decisions emitted as kSupDecision events.
enum class Decision : u8 { kAccept, kRetry, kFallback, kQuarantine, kSkip, kGiveUp };

const char* outcome_name(RecoveryOutcome o);

/// One scheduled routine on one core, with both ladder rungs already built
/// and loaded into the SoC template (plan_schedule).
struct PlannedRoutine {
  std::string name;
  u32 cached_entry = 0;
  u32 fallback_entry = 0;
  u32 cached_golden_addr = 0;    // flash address of the expected-value constant
  u32 fallback_golden_addr = 0;
  u32 cached_golden = 0;
  u32 fallback_golden = 0;
  u32 mailbox = 0;
  u64 cached_calib = 0;          // fault-free cycles (watchdog calibration)
  u64 fallback_calib = 0;
  bool signature_stable = false; // cached and fallback goldens coincide
};

using Schedule = std::array<std::vector<PlannedRoutine>, soc::kMaxCores>;

/// Build every (routine x core x rung) program, load them into a fresh SoC
/// and return the template + schedule. The template is a value: copy it per
/// run for checkpoint-style replay. Each program gets a private 32 KiB flash
/// window; throws std::runtime_error when the schedule outgrows the flash.
struct SchedulePlan {
  soc::Soc soc;
  Schedule schedule;
};
SchedulePlan plan_schedule(const std::vector<const core::SelfTestRoutine*>& routines,
                           unsigned cores);

struct RoutineRecord {
  std::string name;
  RecoveryOutcome outcome = RecoveryOutcome::kSkipped;
  Classification classification = Classification::kNone;
  unsigned cached_attempts = 0;
  unsigned fallback_attempts = 0;
  AttemptStatus last_failure = AttemptStatus::kPass;  // of the last failing attempt
  u64 cycles = 0;        // SoC ticks spent on this routine (retries + backoff)
  u32 final_signature = 0;
};

struct CoreReport {
  std::vector<RoutineRecord> records;
  bool quarantined = false;
};

struct SupervisorResult {
  std::array<CoreReport, soc::kMaxCores> cores;
  u64 total_cycles = 0;
  bool budget_exhausted = false;
  InjectionStats injections{};  // filled by run_disturbance_campaign

  /// Canonical byte serialisation of everything above except wall-clock —
  /// the unit of the campaign's byte-identical determinism contract.
  std::vector<u8> outcome_vector() const;
};

class StlSupervisor {
 public:
  StlSupervisor(soc::Soc soc, Schedule schedule, const SupervisorConfig& cfg = {});

  /// Run the whole schedule to completion (or budget exhaustion). `hook` is
  /// the per-tick perturbation source polled after every SoC tick — a
  /// DisturbanceInjector or the SEU soak's injector (runtime/soak.h) — and
  /// may be null for an undisturbed run. The result's `injections` stay
  /// zero; a caller that wants them copies its injector's stats.
  /// Equivalent to start() followed by step(hook) until it returns false.
  SupervisorResult run(InjectorHook* hook = nullptr);

  /// Reset the SoC and launch every core's first routine.
  void start();
  /// One SoC tick: the budget check, the tick, `hook`'s poll and every
  /// core's watchdog/verdict check. Returns false, without ticking, once the
  /// run is over (no core left running or backing off, or the budget is
  /// spent); result() is then final. A copy of the supervisor taken between
  /// steps continues bit-exactly like the original (the checkpoint idiom).
  bool step(InjectorHook* hook);

  /// SoC tick of the first attempt that did not pass (0 = none yet). Any
  /// such attempt makes its routine's outcome something other than
  /// kPassClean.
  u64 first_failure() const { return first_failure_; }
  u64 now() const { return soc_.now(); }
  const SupervisorResult& result() const { return result_; }

 private:
  enum class CoreState : u8 { kIdle, kRunning, kBackoff, kDone, kQuarantined };

  struct CoreCtx {
    CoreState state = CoreState::kDone;
    std::size_t routine = 0;   // index into schedule_[core]
    unsigned rung = 0;         // 0 = cached, 1 = fallback
    unsigned attempt = 0;      // 1-based within the rung
    u64 deadline = 0;          // watchdog expiry (SoC tick)
    u64 resume_at = 0;         // backoff end (SoC tick)
    u64 routine_start = 0;     // first launch of the current routine
  };

  void launch(unsigned c);
  void finish_attempt(unsigned c, AttemptStatus status, u32 signature);
  void advance(unsigned c);       // record outcome written; next routine or done
  void quarantine(unsigned c);
  void emit_decision(unsigned c, Decision d, u32 b);
  void update_targets(unsigned c);

  soc::Soc soc_;
  Schedule schedule_;
  SupervisorConfig cfg_;
  std::array<CoreCtx, soc::kMaxCores> ctx_{};
  SupervisorResult result_;
  InjectTargets targets_{};
  u64 first_failure_ = 0;
};

}  // namespace detstl::runtime
