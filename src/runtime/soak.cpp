#include "runtime/soak.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <optional>

#include "common/bytes.h"
#include "common/table.h"
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

void SoakInjector::limit_to(std::size_t k) {
  assert(next_ <= k && "the cursor has passed the new limit");
  limit_ = std::min(k, plan_->upsets.size());
}

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
  const unsigned c = u.core % soc.num_cores();
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

/// Runs a started (or resumed) probe until its first failed attempt or its
/// end and returns whether it diverged from a clean pass. A failed attempt
/// fixes that verdict, so the rest of the run is not simulated. Counts the
/// ticks it simulates.
bool probe_diverges(StlSupervisor& sup, SoakInjector* inj) {
  const u64 from = sup.now();
  while (sup.first_failure() == 0 && sup.step(inj)) continue;
  perf::sim_totals().add(perf::SimStat::kDisturbCycles, sup.now() - from);
  return sup.first_failure() != 0 || soak_run_diverged(sup.result());
}

/// The zero-upset probe that guards every bisection. It depends only on the
/// schedule and the supervisor config, so a campaign simulates it once, on
/// whichever worker needs it first, and keeps only its verdict.
class CleanBaseline {
 public:
  bool diverged(const SchedulePlan& sp, const SupervisorConfig& cfg) {
    std::call_once(once_, [&] {
      StlSupervisor sup(sp.soc, sp.schedule, cfg);
      sup.start();
      diverged_ = probe_diverges(sup, nullptr);
    });
    return diverged_;
  }

 private:
  std::once_flag once_;
  bool diverged_ = false;
};

/// A first pass's state just before a given upset is polled.
struct Snapshot {
  StlSupervisor sup;
  SoakInjector inj;
};

/// What the bisection keeps of a run's first pass: its result, the tick of
/// its first failed attempt and at most one snapshot. The pass's own
/// supervisor is gone before the first probe starts.
struct FirstPass {
  SupervisorResult result;
  u64 first_failure = 0;
  std::optional<Snapshot> snapshot;
};

/// The run under `inj`'s whole plan, snapshotted just before upset
/// `snapshot_at` is polled unless an attempt has failed by then (past the
/// plan's end: no snapshot).
FirstPass run_first_pass(const SchedulePlan& sp, const SupervisorConfig& cfg,
                         const SoakPlan& plan, SoakInjector& inj,
                         std::size_t snapshot_at) {
  FirstPass out;
  StlSupervisor sup(sp.soc, sp.schedule, cfg);
  sup.start();
  do {
    // The next step ticks to now() + 1, then polls every upset due by then.
    if (snapshot_at < plan.upsets.size() && !out.snapshot && sup.first_failure() == 0 &&
        sup.now() + 1 >= plan.upsets[snapshot_at].cycle)
      out.snapshot.emplace(Snapshot{sup, inj});
  } while (sup.step(&inj));
  out.result = sup.result();
  out.first_failure = sup.first_failure();
  return out;
}

/// The soak kind's per-run function: the run under its whole upset plan
/// (`soak` carries the calibrated duration), then bisection if it diverged.
SoakRunRecord run_soak_once(const SchedulePlan& sp, const SoakCampaignSpec& spec,
                            const SoakSpec& soak, u64 run_seed, CleanBaseline& clean) {
  SoakRunRecord rec;
  rec.seed = run_seed;
  const SoakPlan plan = make_soak_plan(soak, run_seed, spec.cores);
  const std::vector<SoakUpset>& ups = plan.upsets;

  // A probe cut at upset p is the first pass, tick for tick, until upset p
  // is polled, so the first pass keeps a snapshot from just before the
  // bisection's first cut p1 = n/2. Once an attempt has failed, every probe
  // from p1 on is answered without simulation (below), so none is needed.
  const std::size_t p1 = ups.size() / 2;
  SoakInjector inj(plan);
  FirstPass first = run_first_pass(sp, spec.supervisor, plan, inj,
                                   spec.isolate && ups.size() >= 2 ? p1 : SIZE_MAX);
  rec.result = std::move(first.result);
  rec.stats = inj.stats();

  IsolationResult& iso = rec.isolation;
  iso.diverged = soak_run_diverged(rec.result) ? 1 : 0;
  if (iso.diverged == 0 || !spec.isolate || ups.empty()) return rec;

  // Prefix bisection (delta debugging specialised to a single culprit): the
  // invariant is "prefix hi diverges, prefix lo is clean"; the culprit is
  // the last upset of the minimal failing prefix. The zero-upset probe
  // guards the invariant — if even an undisturbed run diverges, the
  // schedule itself is unstable and no upset can be blamed. `reruns` counts
  // logical probes, whether simulated or not.
  iso.reruns = 1;
  if (clean.diverged(sp, spec.supervisor)) return rec;
  std::size_t lo = 0, hi = ups.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++iso.reruns;
    bool diverged;
    if (first.first_failure != 0 && ups[mid].cycle > first.first_failure) {
      // Upset `mid` is polled after the tick of the first pass's first
      // failed attempt, so the probe replays that failure.
      diverged = true;
    } else if (first.snapshot && mid >= p1) {
      Snapshot probe = *first.snapshot;
      probe.inj.limit_to(mid);
      diverged = probe_diverges(probe.sup, &probe.inj);
    } else {
      SoakInjector probe_inj(plan, mid);
      StlSupervisor probe(sp.soc, sp.schedule, spec.supervisor);
      probe.start();
      diverged = probe_diverges(probe, &probe_inj);
    }
    if (diverged)
      hi = mid;
    else
      lo = mid;
  }
  const u32 culprit = static_cast<u32>(hi - 1);
  const SoakUpset& u = ups[culprit];
  iso.isolated = 1;
  iso.upset_index = culprit;
  iso.site = u.site;
  iso.core = u.core;
  iso.cycle = u.cycle;
  // The culprit lands in the same state in the first pass as in the failing
  // prefix hi: both runs agree until upset hi is polled, and upsets due in
  // one tick are applied in index order.
  for (const AppliedUpset& a : inj.applied_log()) {
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

void SoakRunRecord::put_outcome(std::vector<u8>& out) const {
  RunRecord::put_outcome(out);
  put_soak_tail(out, *this);
}

std::vector<u8> serialize_soak_record(const SoakRunRecord& rec) {
  const std::vector<u8> inner = serialize_run_record(rec);
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
  if (!c.ok() ||
      !deserialize_run_record(std::vector<u8>(inner, inner + inner_len), rec))
    return false;
  for (unsigned s = 0; s < kNumSoakSites; ++s) {
    rec.stats.applied[s] = c.get64();
    rec.stats.skipped[s] = c.get64();
  }
  IsolationResult& iso = rec.isolation;
  iso.diverged = c.get_flag();
  iso.isolated = c.get_flag();
  iso.upset_index = c.get32();
  const u8 site = c.get8();
  iso.core = c.get8();
  iso.cycle = c.get64();
  iso.addr = c.get32();
  iso.bit = c.get32();
  iso.reruns = c.get32();
  if (site >= kNumSoakSites || !c.at_end())
    return false;  // bad flag or site, truncated, or trailing garbage
  iso.site = static_cast<SoakSite>(site);
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

SoakCampaignResult run_soak_campaign(const SoakCampaignSpec& spec) {
  // A zero duration is calibrated against the planned schedule; the
  // manifest hash covers the calibrated value.
  const auto calibrated = [&](const SchedulePlan& plan) {
    SoakSpec soak = spec.soak;
    if (soak.duration == 0)
      soak.duration = calibrated_horizon(plan, spec.cores);
    return soak;
  };
  CleanBaseline clean;
  return run_supervised_campaign<SoakRunRecord>(
      spec,
      {.what = "soak",
       .payload = fault::PayloadKind::kSoakRuns,
       .config_hash = [&](const SchedulePlan& plan) {
         SoakCampaignSpec hashed = spec;
         hashed.soak = calibrated(plan);
         return soak_checkpoint_config_hash(hashed, plan);
       },
       .run = [&](const SchedulePlan& plan, u64 run_seed) {
         return run_soak_once(plan, spec, calibrated(plan), run_seed, clean);
       },
       .encode = serialize_soak_record,
       .decode = deserialize_soak_record});
}

std::string render_soak_report(const SoakCampaignResult& r) {
  std::string out = "\n";

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
         " runs diverged, " + std::to_string(isolated) + " isolated to a single upset\n";
  return frame_report("SEU soak campaign: " + std::to_string(r.runs) + " runs",
                      r.seed, r.cores, r.routine_names, out, r.digest());
}

}  // namespace detstl::runtime
