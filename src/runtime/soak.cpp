#include "runtime/soak.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/bytes.h"
#include "common/table.h"
#include "fault/unit_driver.h"
#include "perf/simstats.h"

namespace detstl::runtime {

const char* soak_site_name(SoakSite s) {
  switch (s) {
    case SoakSite::kRam: return "ram";
    case SoakSite::kL1I: return "l1-icache";
    case SoakSite::kL1D: return "l1-dcache";
    case SoakSite::kPipeline: return "pipeline";
  }
  return "?";
}

namespace {

/// SRAM words eligible for RAM upsets: everything above the first page
/// (mailboxes + barrier words live at the bottom of SRAM; an upset there is
/// indistinguishable from a reporting-protocol bug rather than a data SEU).
constexpr u32 kRamTargetLo = mem::kSramBase + 0x1000;
constexpr u32 kRamTargetHi = mem::kSramBase + mem::kSramSize;

u32 site_rate(const SoakRates& r, SoakSite s) {
  switch (s) {
    case SoakSite::kRam: return r.ram;
    case SoakSite::kL1I: return r.l1i;
    case SoakSite::kL1D: return r.l1d;
    case SoakSite::kPipeline: return r.pipeline;
  }
  return 0;
}

}  // namespace

SoakPlan make_soak_plan(const SoakSpec& spec, u64 seed, unsigned num_cores) {
  SoakPlan plan;
  // One independent Bernoulli-per-cycle stream per site (the discrete
  // Poisson process), sub-seeded so per-site rates can be tuned without
  // perturbing the other sites' arrivals.
  for (unsigned si = 0; si < kNumSoakSites; ++si) {
    const SoakSite site = static_cast<SoakSite>(si);
    const u32 rate = site_rate(spec.rates, site);  // upsets per Mcycle
    if (rate == 0) continue;
    Rng rng(derive_run_seed(seed, 0x50A0 + si));
    for (u64 t = 0; t < spec.duration; ++t) {
      if (rng.below(1'000'000) >= rate) continue;
      SoakUpset u;
      u.site = site;
      u.core = static_cast<u8>(rng.below(std::max(1u, num_cores)));
      u.cycle = t;
      u.pick = rng.next_u64();
      plan.upsets.push_back(u);
    }
  }
  std::stable_sort(plan.upsets.begin(), plan.upsets.end(),
                   [](const SoakUpset& a, const SoakUpset& b) { return a.cycle < b.cycle; });
  return plan;
}

SoakInjector::SoakInjector(const SoakPlan& plan, std::size_t limit)
    : plan_(&plan), limit_(std::min(limit, plan.upsets.size())) {}

void SoakInjector::poll(soc::Soc& soc, const InjectTargets& targets) {
  const u64 now = soc.now();
  while (next_ < limit_ && plan_->upsets[next_].cycle <= now) {
    const std::size_t i = next_++;
    apply(plan_->upsets[i], static_cast<u32>(i), soc, targets);
  }
}

void SoakInjector::apply(const SoakUpset& u, u32 index, soc::Soc& soc,
                         const InjectTargets& targets) {
  const unsigned site_idx = static_cast<unsigned>(u.site);
  const unsigned c = u.core % std::max(1u, soc.num_cores());
  bool applied = false;
  u32 addr = 0;
  u32 bit = 0;

  switch (u.site) {
    case SoakSite::kRam: {
      const u32 words = (kRamTargetHi - kRamTargetLo) / 4;
      addr = kRamTargetLo + static_cast<u32>(u.pick % words) * 4;
      bit = static_cast<u32>(u.pick >> 32) % 32;
      soc.flip_ram_bit(addr, bit);
      applied = true;
      break;
    }
    case SoakSite::kL1I:
    case SoakSite::kL1D: {
      if (!targets.core_live[c]) break;
      mem::MemSystem& ms = soc.core(c).memsys();
      mem::Cache& cache = u.site == SoakSite::kL1I ? ms.icache() : ms.dcache();
      const auto lines = cache.resident_lines();
      if (lines.empty()) break;
      addr = lines[u.pick % lines.size()];
      bit = static_cast<u32>(u.pick >> 32) % (cache.config().line_bytes * 8);
      applied = cache.flip_bit(addr, bit);
      break;
    }
    case SoakSite::kPipeline: {
      if (!targets.core_live[c]) break;
      applied = soc.core(c).inject_pipeline_upset(u.pick);
      bit = static_cast<u32>((u.pick >> 8) % 64);
      break;
    }
  }

  stats_.applied[site_idx] += applied ? 1 : 0;
  stats_.skipped[site_idx] += applied ? 0 : 1;
  if (applied)
    applied_.push_back(AppliedUpset{index, u.site, static_cast<u8>(c), u.cycle, addr, bit});
  DETSTL_TRACE(soc.trace_sink(),
               trace::Event{.cycle = soc.now(),
                            .kind = trace::EventKind::kSoakUpset,
                            .core = static_cast<u8>(c),
                            .unit = static_cast<u8>(u.site),
                            .flags = static_cast<u8>(applied ? 1 : 0),
                            .addr = addr,
                            .a = bit,
                            .b = index});
}

bool soak_run_diverged(const SupervisorResult& r) {
  if (r.budget_exhausted) return true;
  for (const CoreReport& cr : r.cores) {
    if (cr.quarantined) return true;
    for (const RoutineRecord& rr : cr.records)
      if (rr.outcome != RecoveryOutcome::kPassClean) return true;
  }
  return false;
}

namespace {

/// One supervised run under the first `limit` upsets of `plan`. The SoC and
/// schedule come fresh from the plan every time, so a bisection probe is
/// exactly as deterministic as the original run.
SupervisorResult run_prefix(const SchedulePlan& sp, const SupervisorConfig& cfg,
                            const SoakPlan& plan, std::size_t limit, SoakStats* stats,
                            std::vector<AppliedUpset>* log) {
  SoakInjector inj(plan, limit);
  StlSupervisor sup(sp.soc, sp.schedule, cfg);
  SupervisorResult r = sup.run(&inj);
  if (stats != nullptr) *stats = inj.stats();
  if (log != nullptr) *log = inj.applied_log();
  return r;
}

SoakRunRecord run_soak_once(const SchedulePlan& sp, const SoakCampaignSpec& spec,
                            u64 run_seed) {
  SoakRunRecord rec;
  rec.seed = run_seed;
  const SoakPlan plan = make_soak_plan(spec.soak, run_seed, spec.cores);
  std::vector<AppliedUpset> log;
  rec.result = run_prefix(sp, spec.supervisor, plan, plan.upsets.size(), &rec.stats, &log);
  perf::sim_totals().add(perf::SimStat::kDisturbRuns, 1);
  perf::sim_totals().add(perf::SimStat::kDisturbCycles, rec.result.total_cycles);

  IsolationResult& iso = rec.isolation;
  iso.diverged = soak_run_diverged(rec.result) ? 1 : 0;
  if (iso.diverged == 0 || !spec.isolate || plan.upsets.empty()) return rec;

  // Prefix bisection (delta debugging specialised to a single culprit): the
  // invariant is "prefix hi diverges, prefix lo is clean"; the culprit is
  // the last upset of the minimal failing prefix. The zero-upset probe
  // guards the invariant — if even an undisturbed run diverges, the
  // schedule itself is unstable and no upset can be blamed.
  std::size_t lo = 0, hi = plan.upsets.size();
  u32 reruns = 1;
  std::vector<AppliedUpset> culprit_log = log;
  const SupervisorResult clean =
      run_prefix(sp, spec.supervisor, plan, 0, nullptr, nullptr);
  perf::sim_totals().add(perf::SimStat::kDisturbCycles, clean.total_cycles);
  if (soak_run_diverged(clean)) {
    iso.reruns = reruns;
    return rec;
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    std::vector<AppliedUpset> probe_log;
    const SupervisorResult probe =
        run_prefix(sp, spec.supervisor, plan, mid, nullptr, &probe_log);
    perf::sim_totals().add(perf::SimStat::kDisturbCycles, probe.total_cycles);
    ++reruns;
    if (soak_run_diverged(probe)) {
      hi = mid;
      culprit_log = std::move(probe_log);
    } else {
      lo = mid;
    }
  }
  const u32 culprit = static_cast<u32>(hi - 1);
  const SoakUpset& u = plan.upsets[culprit];
  iso.isolated = 1;
  iso.upset_index = culprit;
  iso.site = u.site;
  iso.core = u.core;
  iso.cycle = u.cycle;
  iso.reruns = reruns;
  for (const AppliedUpset& a : culprit_log) {
    if (a.index != culprit) continue;
    iso.core = a.core;
    iso.addr = a.addr;
    iso.bit = a.bit;
    break;
  }
  return rec;
}

/// The soak-specific tail shared by the journal record and the outcome
/// vector: per-site upset stats, then the isolation verdict.
void put_soak_tail(std::vector<u8>& out, const SoakRunRecord& r) {
  for (unsigned s = 0; s < kNumSoakSites; ++s) {
    put64(out, r.stats.applied[s]);
    put64(out, r.stats.skipped[s]);
  }
  const IsolationResult& iso = r.isolation;
  put8(out, iso.diverged);
  put8(out, iso.isolated);
  put32(out, iso.upset_index);
  put8(out, static_cast<u8>(iso.site));
  put8(out, iso.core);
  put64(out, iso.cycle);
  put32(out, iso.addr);
  put32(out, iso.bit);
  put32(out, iso.reruns);
}

}  // namespace

std::vector<u8> serialize_soak_record(const SoakRunRecord& rec) {
  const std::vector<u8> inner =
      serialize_run_record(RunRecord{rec.seed, rec.result});
  std::vector<u8> out;
  put32(out, static_cast<u32>(inner.size()));
  out.insert(out.end(), inner.begin(), inner.end());
  put_soak_tail(out, rec);
  return out;
}

bool deserialize_soak_record(const std::vector<u8>& bytes, SoakRunRecord& out) {
  ByteReader c(bytes);
  SoakRunRecord rec;
  const u32 inner_len = c.get32();
  const u8* inner = c.take(inner_len);
  RunRecord rr;
  if (!c.ok() ||
      !deserialize_run_record(std::vector<u8>(inner, inner + inner_len), rr))
    return false;
  rec.seed = rr.seed;
  rec.result = std::move(rr.result);
  for (unsigned s = 0; s < kNumSoakSites; ++s) {
    rec.stats.applied[s] = c.get64();
    rec.stats.skipped[s] = c.get64();
  }
  IsolationResult& iso = rec.isolation;
  iso.diverged = c.get8();
  iso.isolated = c.get8();
  iso.upset_index = c.get32();
  const u8 site = c.get8();
  iso.core = c.get8();
  iso.cycle = c.get64();
  iso.addr = c.get32();
  iso.bit = c.get32();
  iso.reruns = c.get32();
  if (iso.diverged > 1 || iso.isolated > 1 || site >= kNumSoakSites) return false;
  iso.site = static_cast<SoakSite>(site);
  if (!c.at_end()) return false;  // truncated, or trailing garbage
  out = std::move(rec);
  return true;
}

u64 soak_checkpoint_config_hash(const SoakCampaignSpec& spec, const SchedulePlan& plan) {
  fault::ConfigHasher h =
      schedule_hasher(fault::PayloadKind::kSoakRuns, spec.seed, spec.runs,
                      spec.cores, plan, spec.supervisor);
  h.u64v(spec.soak.duration)
      .u32v(spec.soak.rates.ram)
      .u32v(spec.soak.rates.l1i)
      .u32v(spec.soak.rates.l1d)
      .u32v(spec.soak.rates.pipeline)
      .u8v(spec.isolate ? 1 : 0);
  h.u64v(fault::soc_image_fingerprint(plan.soc));
  return h.digest();
}

std::vector<u8> SoakCampaignResult::outcome_vector() const {
  std::vector<u8> out;
  for (const SoakRunRecord& r : records) {
    put64(out, r.seed);
    const std::vector<u8> v = r.result.outcome_vector();
    out.insert(out.end(), v.begin(), v.end());
    put_soak_tail(out, r);
  }
  return out;
}

u64 SoakCampaignResult::digest() const { return fnv1a(outcome_vector()); }

SoakCampaignResult run_soak_campaign(const SoakCampaignSpec& spec_in) {
  SoakCampaignSpec spec = spec_in;
  if (spec.cores < 1 || spec.cores > soc::kMaxCores)
    throw std::runtime_error("soak: cores must be 1..3");

  const auto t0 = std::chrono::steady_clock::now();
  const ResolvedRoutines routines = resolve_routines(spec.routines, "soak");
  const SchedulePlan plan = plan_schedule(routines.ptrs, spec.cores);
  if (spec.soak.duration == 0)
    spec.soak.duration = calibrated_horizon(plan, spec.cores);

  SoakCampaignResult res;
  res.runs = spec.runs;
  res.cores = spec.cores;
  res.seed = spec.seed;
  res.routine_names = routines.names;
  res.records.resize(spec.runs);
  res.threads_used =
      std::min(fault::resolve_threads(spec.threads), std::max(1u, spec.runs));

  // Same journal contract as the disturbance campaign: loss-less records,
  // dropped (and re-executed) unless they parse and carry their run's seed.
  fault::UnitDriver driver(
      "soak", spec.runs, spec,
      {.kind = fault::PayloadKind::kSoakRuns,
       .config_hash = [&] { return soak_checkpoint_config_hash(spec, plan); },
       .accept = [&](u64 i, const std::vector<u8>& payload) {
         SoakRunRecord rec;
         if (!deserialize_soak_record(payload, rec) ||
             rec.seed != derive_run_seed(spec.seed, static_cast<unsigned>(i)))
           return false;
         res.records[i] = std::move(rec);
         return true;
       }});
  driver.run(
      res.threads_used, 1,
      {.run = [&](u64 i) {
         res.records[i] = run_soak_once(
             plan, spec, derive_run_seed(spec.seed, static_cast<unsigned>(i)));
       },
       .encode = [&](u64 i) { return serialize_soak_record(res.records[i]); },
       .on_done = [&](u64 i, unsigned) {
         if (spec.on_run_complete) spec.on_run_complete(i);
       }});
  res.ckpt = driver.finish();
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return res;
}

std::string render_soak_report(const SoakCampaignResult& r) {
  std::string routines;
  for (std::size_t i = 0; i < r.routine_names.size(); ++i)
    routines += (i == 0 ? "" : ", ") + r.routine_names[i];

  std::string out = "stlrun SEU soak campaign: " + std::to_string(r.runs) + " runs, seed " +
                    TextTable::fmt_hex(r.seed) + ", " + std::to_string(r.cores) +
                    " cores\nroutines: " + routines + "\n\n";

  SoakStats totals;
  u64 diverged = 0, isolated = 0;
  for (const SoakRunRecord& rec : r.records) {
    for (unsigned s = 0; s < kNumSoakSites; ++s) {
      totals.applied[s] += rec.stats.applied[s];
      totals.skipped[s] += rec.stats.skipped[s];
    }
    diverged += rec.isolation.diverged;
    isolated += rec.isolation.isolated;
  }

  TextTable sites("upsets injected (all runs)");
  sites.header({"site", "applied", "skipped"});
  for (unsigned s = 0; s < kNumSoakSites; ++s) {
    sites.row({soak_site_name(static_cast<SoakSite>(s)),
               TextTable::fmt_int(static_cast<long long>(totals.applied[s])),
               TextTable::fmt_int(static_cast<long long>(totals.skipped[s]))});
  }
  out += sites.str() + "\n";

  TextTable iso("differential isolation (diverged runs)");
  iso.header({"run", "upsets", "culprit", "site", "core", "cycle", "addr", "bit", "reruns"});
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    const SoakRunRecord& rec = r.records[i];
    if (rec.isolation.diverged == 0) continue;
    const IsolationResult& v = rec.isolation;
    iso.row({TextTable::fmt_int(static_cast<long long>(i)),
             TextTable::fmt_int(static_cast<long long>(rec.stats.total_applied())),
             v.isolated != 0 ? "#" + std::to_string(v.upset_index) : "(unattributed)",
             v.isolated != 0 ? soak_site_name(v.site) : "-",
             v.isolated != 0 ? std::string(1, static_cast<char>('A' + v.core)) : "-",
             v.isolated != 0 ? TextTable::fmt_int(static_cast<long long>(v.cycle)) : "-",
             v.isolated != 0 && v.addr != 0 ? TextTable::fmt_hex(v.addr) : "-",
             v.isolated != 0 ? TextTable::fmt_int(static_cast<long long>(v.bit)) : "-",
             TextTable::fmt_int(static_cast<long long>(v.reruns))});
  }
  out += iso.str() + "\n";

  out += "divergence: " + std::to_string(diverged) + " of " + std::to_string(r.runs) +
         " runs diverged, " + std::to_string(isolated) + " isolated to a single upset";
  out += "\noutcome digest: " + TextTable::fmt_hex(r.digest()) + "\n";
  return out;
}

}  // namespace detstl::runtime
