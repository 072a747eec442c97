#include "runtime/campaign.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/bytes.h"
#include "common/table.h"
#include "fault/unit_driver.h"
#include "perf/simstats.h"

namespace detstl::runtime {

u64 derive_run_seed(u64 master, unsigned run) {
  u64 z = master + 0x9e3779b97f4a7c15ull * (run + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<u8> CampaignResult::outcome_vector() const {
  std::vector<u8> out;
  for (const RunRecord& r : records) {
    put64(out, r.seed);
    const std::vector<u8> v = r.result.outcome_vector();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

u64 CampaignResult::digest() const { return fnv1a(outcome_vector()); }

ResolvedRoutines resolve_routines(const std::vector<std::string>& names,
                                  const char* what) {
  ResolvedRoutines r;
  r.names = names;
  if (r.names.empty())
    r.names = {"alu", "rf-march", "shifter", "branch", "muldiv"};
  for (const std::string& n : r.names) {
    const core::RoutineEntry* e = core::find_routine(n);
    if (e == nullptr)
      throw std::runtime_error(std::string(what) + ": unknown routine '" + n +
                               "' (see stlint --list)");
    r.owned.push_back(e->make());
    r.ptrs.push_back(r.owned.back().get());
  }
  return r;
}

u64 calibrated_horizon(const SchedulePlan& plan, unsigned cores) {
  u64 longest = 0;
  for (unsigned c = 0; c < cores; ++c) {
    u64 sum = 0;
    for (const PlannedRoutine& r : plan.schedule[c]) sum += r.cached_calib;
    longest = std::max(longest, sum);
  }
  return 2 * longest + 1'000;
}

fault::ConfigHasher schedule_hasher(fault::PayloadKind kind, u64 seed,
                                    unsigned runs, unsigned cores,
                                    const SchedulePlan& plan,
                                    const SupervisorConfig& sup) {
  fault::ConfigHasher h;
  h.u32v(fault::kCheckpointSchemaVersion)
      .u32v(static_cast<u32>(kind))
      .u64v(seed)
      .u32v(runs)
      .u32v(cores);
  // The resolved schedule, not the routine names: the routine-pointer
  // overload ignores the name list, and the calibrations feed the watchdog
  // budgets.
  for (unsigned c = 0; c < cores; ++c) {
    h.u32v(static_cast<u32>(plan.schedule[c].size()));
    for (const PlannedRoutine& r : plan.schedule[c]) {
      h.str(r.name)
          .u32v(r.cached_golden)
          .u32v(r.fallback_golden)
          .u64v(r.cached_calib)
          .u64v(r.fallback_calib);
    }
  }
  h.u32v(sup.margin_percent)
      .u64v(sup.watchdog_floor)
      .u32v(sup.max_attempts)
      .u32v(sup.fallback_attempts)
      .u64v(sup.backoff_base)
      .u64v(sup.backoff_cap)
      .u64v(sup.global_budget);
  return h;
}

std::vector<u8> serialize_run_record(const RunRecord& rec) {
  std::vector<u8> out;
  put64(out, rec.seed);
  put8(out, soc::kMaxCores);
  for (const CoreReport& cr : rec.result.cores) {
    put8(out, cr.quarantined ? 1 : 0);
    put32(out, static_cast<u32>(cr.records.size()));
    for (const RoutineRecord& rr : cr.records) {
      put_str(out, rr.name);
      put8(out, static_cast<u8>(rr.outcome));
      put8(out, static_cast<u8>(rr.classification));
      put32(out, rr.cached_attempts);
      put32(out, rr.fallback_attempts);
      put8(out, static_cast<u8>(rr.last_failure));
      put64(out, rr.cycles);
      put32(out, rr.final_signature);
    }
  }
  put64(out, rec.result.total_cycles);
  put8(out, rec.result.budget_exhausted ? 1 : 0);
  for (unsigned k = 0; k < kNumDisturbanceKinds; ++k) {
    put64(out, rec.result.injections.applied[k]);
    put64(out, rec.result.injections.skipped[k]);
  }
  return out;
}

bool deserialize_run_record(const std::vector<u8>& bytes, RunRecord& out) {
  ByteReader c(bytes);
  RunRecord rec;
  rec.seed = c.get64();
  if (c.get8() != soc::kMaxCores) return false;
  for (CoreReport& cr : rec.result.cores) {
    cr.quarantined = c.get8() != 0;
    const u32 n = c.get32();
    if (!c.ok() || n > bytes.size()) return false;  // cheap amplification guard
    cr.records.resize(n);
    for (RoutineRecord& rr : cr.records) {
      rr.name = c.get_str();
      rr.outcome = static_cast<RecoveryOutcome>(c.get8());
      rr.classification = static_cast<Classification>(c.get8());
      rr.cached_attempts = c.get32();
      rr.fallback_attempts = c.get32();
      rr.last_failure = static_cast<AttemptStatus>(c.get8());
      rr.cycles = c.get64();
      rr.final_signature = c.get32();
      if (rr.outcome > RecoveryOutcome::kBudgetExhausted ||
          rr.classification > Classification::kPermanent ||
          rr.last_failure > AttemptStatus::kTimeout)
        return false;
    }
  }
  rec.result.total_cycles = c.get64();
  rec.result.budget_exhausted = c.get8() != 0;
  for (unsigned k = 0; k < kNumDisturbanceKinds; ++k) {
    rec.result.injections.applied[k] = c.get64();
    rec.result.injections.skipped[k] = c.get64();
  }
  if (!c.at_end()) return false;  // truncated, or trailing garbage
  out = std::move(rec);
  return true;
}

u64 checkpoint_config_hash(const CampaignSpec& spec, const SchedulePlan& plan) {
  fault::ConfigHasher h =
      schedule_hasher(fault::PayloadKind::kDisturbanceRuns, spec.seed,
                      spec.runs, spec.cores, plan, spec.supervisor);
  const DisturbanceSpec& d = spec.disturb;
  h.u32v(d.count)
      .u64v(d.window_lo)
      .u64v(d.window_hi)
      .u32v(d.stall_cycles)
      .u32v(d.stuck_period)
      .u32v(d.stuck_repeats)
      .u32v(d.irq_sources)
      .u32v(static_cast<u32>(d.kinds.size()))
      .f64v(d.permanent_chance);
  for (const DisturbanceKind k : d.kinds) h.u8v(static_cast<u8>(k));
  h.u64v(fault::soc_image_fingerprint(plan.soc));
  return h.digest();
}

CampaignResult run_disturbance_campaign(
    const CampaignSpec& spec,
    const std::vector<const core::SelfTestRoutine*>& routines) {
  if (spec.cores < 1 || spec.cores > soc::kMaxCores)
    throw std::runtime_error("campaign: cores must be 1..3");
  if (routines.empty()) throw std::runtime_error("campaign: no routines");

  const auto t0 = std::chrono::steady_clock::now();
  const SchedulePlan plan = plan_schedule(routines, spec.cores);

  DisturbanceSpec dspec = spec.disturb;
  if (dspec.window_hi == 0)
    dspec.window_hi = dspec.window_lo + calibrated_horizon(plan, spec.cores);

  CampaignResult res;
  res.runs = spec.runs;
  res.cores = spec.cores;
  res.seed = spec.seed;
  for (const auto* r : routines) res.routine_names.push_back(r->name());
  res.records.resize(spec.runs);

  res.threads_used =
      std::min(fault::resolve_threads(spec.threads), std::max(1u, spec.runs));

  // Crash-safe checkpoint/resume (fault/unit_driver.h). Journal payloads are
  // loss-less serialised RunRecords; a record that fails deserialisation or
  // carries the wrong derived seed is dropped and its run re-executed.
  // Outcomes are written by run index; aggregates (report, digest) are
  // derived from the merged vector after the join — byte-identical results
  // at any thread count, straight or resumed.
  fault::UnitDriver driver(
      "campaign", spec.runs, spec,
      {.kind = fault::PayloadKind::kDisturbanceRuns,
       .config_hash = [&] { return checkpoint_config_hash(spec, plan); },
       .accept = [&](u64 i, const std::vector<u8>& payload) {
         RunRecord rec;
         if (!deserialize_run_record(payload, rec) ||
             rec.seed != derive_run_seed(spec.seed, static_cast<unsigned>(i)))
           return false;
         res.records[i] = std::move(rec);
         return true;
       }});
  driver.run(
      res.threads_used, 1,
      {.run = [&](u64 i) {
         const u64 run_seed =
             derive_run_seed(spec.seed, static_cast<unsigned>(i));
         DisturbanceInjector injector(make_plan(dspec, run_seed, spec.cores));
         StlSupervisor sup(plan.soc, plan.schedule, spec.supervisor);
         res.records[i] = RunRecord{run_seed, sup.run(&injector)};
         res.records[i].result.injections = injector.stats();
         perf::sim_totals().add(perf::SimStat::kDisturbRuns, 1);
         perf::sim_totals().add(perf::SimStat::kDisturbCycles,
                                res.records[i].result.total_cycles);
       },
       .encode = [&](u64 i) { return serialize_run_record(res.records[i]); },
       .on_done = [&](u64 i, unsigned) {
         if (spec.on_run_complete) spec.on_run_complete(i);
       }});
  res.ckpt = driver.finish();
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return res;
}

CampaignResult run_disturbance_campaign(const CampaignSpec& spec) {
  return run_disturbance_campaign(
      spec, resolve_routines(spec.routines, "campaign").ptrs);
}

std::string render_recovery_report(const CampaignResult& r) {
  std::string routines;
  for (std::size_t i = 0; i < r.routine_names.size(); ++i)
    routines += (i == 0 ? "" : ", ") + r.routine_names[i];

  std::string out = "stlrun disturbance campaign: " + std::to_string(r.runs) +
                    " runs, seed " + TextTable::fmt_hex(r.seed) + ", " +
                    std::to_string(r.cores) + " cores\nroutines: " + routines +
                    "\n\n";

  // Injection totals per disturbance kind.
  InjectionStats inj;
  for (const RunRecord& rec : r.records) {
    for (unsigned k = 0; k < kNumDisturbanceKinds; ++k) {
      inj.applied[k] += rec.result.injections.applied[k];
      inj.skipped[k] += rec.result.injections.skipped[k];
    }
  }
  TextTable dist("disturbances injected (all runs)");
  dist.header({"kind", "applied", "skipped"});
  for (unsigned k = 0; k < kNumDisturbanceKinds; ++k) {
    if (inj.applied[k] == 0 && inj.skipped[k] == 0) continue;
    dist.row({disturbance_name(static_cast<DisturbanceKind>(k)),
              TextTable::fmt_int(static_cast<long long>(inj.applied[k])),
              TextTable::fmt_int(static_cast<long long>(inj.skipped[k]))});
  }
  out += dist.str() + "\n";

  // Per-core recovery ladder outcomes, aggregated over runs.
  TextTable tab("per-core recovery report");
  tab.header({"core", "ran", "pass", "recovered", "degraded", "quarantined",
              "skipped", "retries", "quarantine runs"});
  u64 transient = 0, permanent = 0, budget = 0;
  for (unsigned c = 0; c < r.cores; ++c) {
    u64 ran = 0, clean = 0, recovered = 0, degraded = 0, quarantined = 0,
        skipped = 0, retries = 0, qruns = 0;
    for (const RunRecord& rec : r.records) {
      const CoreReport& cr = rec.result.cores[c];
      qruns += cr.quarantined ? 1 : 0;
      for (const RoutineRecord& rr : cr.records) {
        switch (rr.outcome) {
          case RecoveryOutcome::kPassClean: ++clean; ++ran; break;
          case RecoveryOutcome::kPassRecovered: ++recovered; ++ran; break;
          case RecoveryOutcome::kPassDegraded: ++degraded; ++ran; break;
          case RecoveryOutcome::kQuarantined: ++quarantined; ++ran; break;
          case RecoveryOutcome::kSkipped: ++skipped; break;
          case RecoveryOutcome::kBudgetExhausted: ++budget; break;
        }
        if (rr.cached_attempts > 1) retries += rr.cached_attempts - 1;
        if (rr.classification == Classification::kTransient) ++transient;
        if (rr.classification == Classification::kPermanent) ++permanent;
      }
    }
    tab.row({std::string(1, static_cast<char>('A' + c)),
             TextTable::fmt_int(static_cast<long long>(ran)),
             TextTable::fmt_int(static_cast<long long>(clean)),
             TextTable::fmt_int(static_cast<long long>(recovered)),
             TextTable::fmt_int(static_cast<long long>(degraded)),
             TextTable::fmt_int(static_cast<long long>(quarantined)),
             TextTable::fmt_int(static_cast<long long>(skipped)),
             TextTable::fmt_int(static_cast<long long>(retries)),
             TextTable::fmt_int(static_cast<long long>(qruns))});
  }
  out += tab.str() + "\n";

  out += "classification: " + std::to_string(transient) + " transient, " +
         std::to_string(permanent) + " permanent";
  if (budget != 0)
    out += ", " + std::to_string(budget) + " budget-exhausted routine slots";
  out += "\noutcome digest: " + TextTable::fmt_hex(r.digest()) + "\n";
  return out;
}

}  // namespace detstl::runtime
