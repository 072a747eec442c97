#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "core/routines.h"
#include "core/scenario_matrix.h"
#include "fault/checkpoint.h"
#include "netlist/modules.h"
#include "perf/simstats.h"
#include "pins.h"
#include "runtime/campaign.h"
#include "runtime/soak.h"
#include "scenarios.h"

namespace perfbench {

using namespace detstl;

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

namespace {

/// FNV-1a 64 over a byte vector (the repo's checkpoint hash).
u64 digest_bytes(const std::vector<u8>& bytes) {
  return fault::fnv1a(bytes.data(), bytes.size());
}

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string words(const std::vector<u32>& v) {
  std::string out;
  for (const u32 x : v) out += (out.empty() ? "" : " ") + hex(x);
  return out;
}

std::string fc2(double v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

// -----------------------------------------------------------------------------
// table3: the 12 Table III campaigns and their 18 stability runs (3 per row)
// -----------------------------------------------------------------------------

class Table3 final : public Workload {
 public:
  explicit Table3(const RunOptions& o) : workers_(o.workers != 0 ? o.workers : 2) {}
  const char* name() const override { return "table3"; }
  const char* unit_name() const override { return "faults"; }

  void setup() override {
    routines_ = Table3Routines::make();
    cases_ = build_table3_cases(routines_);
    // The campaigns build their own module netlists; building them here
    // too makes netlist construction visible in setup_s.
    for (unsigned k = 0; k < 3; ++k) {
      netlist::HdcuNetlist(static_cast<isa::CoreKind>(k));
      netlist::IcuNetlist(static_cast<isa::CoreKind>(k));
    }
    stability_ = build_stability_cases(routines_);
  }

  PassResult pass(Tracer& tracer, MetricValues* layers) override {
    PassResult out;
    const perf::SimSnapshot before = perf::sim_totals().snapshot();
    PhaseTimes phases;
    std::array<u64, 5> outcomes{};
    u64 excited = 0, simulated = 0;
    for (std::size_t row = 0; row < 6; ++row) {
      const Table3Pin& pin = kTable3Pins[row];
      double fc[2] = {0, 0};
      u64 faults = 0;
      for (unsigned w = 0; w < 2; ++w) {
        const Table3Case& c = cases_[2 * row + w];
        fault::CampaignConfig cfg = c.config();
        cfg.threads = workers_;
        CampaignProgressLog log;
        if (layers != nullptr) cfg.progress = log.callback();
        fault::CampaignResult res;
        {
          Scope s(tracer, "fault.Campaign.run");
          res = fault::Campaign(cfg, c.factory()).run();
        }
        if (layers != nullptr) phases.add(log);
        fc[w] = res.coverage_percent();
        faults = res.simulated_faults;
        out.units += static_cast<double>(res.simulated_faults);
        simulated += res.simulated_faults;
        excited += res.excited;
        for (const fault::FaultOutcome o : res.outcomes) ++outcomes[static_cast<u8>(o)];
        const u64 d = digest_bytes(res.canonical_bytes());
        out.checks.expect(d == pin.digest[w], "table3 " + c.label + " digest " + hex(d) +
                                                  " != pinned " + hex(pin.digest[w]));
      }
      unsigned failures = 0;
      for (const StabilityCase& sc : stability_[row]) {
        Scope s(tracer, "soc.Soc.run.stability");
        soc::Soc soc = sc.factory();
        soc.reset();
        const auto r = soc.run(20'000'000);
        const core::TestVerdict v = core::read_verdict(soc, soc::mailbox_addr(sc.graded));
        out.checks.expect(!r.timed_out, "table3 stability run timed out");
        failures += v.status == soc::kStatusFail;
      }
      const std::string got = std::string(1, cases_[2 * row].core()) + " " +
                              cases_[2 * row].module_name() + " " + std::to_string(faults) +
                              " " + fc2(fc[0]) + " " + fc2(fc[1]) + " FAILED " +
                              std::to_string(failures) + "/" +
                              std::to_string(stability_[row].size());
      out.checks.expect(got == pin.row, "table3 row '" + got + "' != pinned '" + pin.row + "'");
    }

    if (layers != nullptr) {
      const perf::SimSnapshot d = perf::sim_totals().snapshot().since(before);
      MetricValues& m = *layers;
      m.set("fault.goodrun_s", phases.seconds[0]);
      m.set("fault.screen_s", phases.seconds[1]);
      m.set("fault.detect_s", phases.seconds[2]);
      m.set("fault.good_run_cycles", static_cast<double>(d[perf::SimStat::kGoodRunCycles]));
      m.set("fault.screen_calls", static_cast<double>(d[perf::SimStat::kScreenCalls]));
      const double det = static_cast<double>(d[perf::SimStat::kDetectionCycles]);
      m.set("fault.detect_cycles", det);
      using O = fault::FaultOutcome;
      m.set("fault.outcome.signature", outcomes[static_cast<u8>(O::kDetectedSignature)]);
      m.set("fault.outcome.verdict", outcomes[static_cast<u8>(O::kDetectedVerdict)]);
      m.set("fault.outcome.watchdog", outcomes[static_cast<u8>(O::kDetectedWatchdog)]);
      m.set("fault.outcome.undetected", outcomes[static_cast<u8>(O::kUndetected)]);
      m.set("fault.outcome.not_excited", outcomes[static_cast<u8>(O::kNotExcited)]);
      m.set("fault.excited_ratio",
            static_cast<double>(excited) / static_cast<double>(std::max<u64>(1, simulated)));
      m.set("fault.detect_cycles_per_excited",
            det / static_cast<double>(std::max<u64>(1, excited)));
      m.set("fault.worker_balance",
            phases.worker_max == 0 ? 0.0
                                   : static_cast<double>(phases.worker_min) /
                                         static_cast<double>(phases.worker_max));
    }
    return out;
  }

 private:
  /// Host time per campaign phase, from fault::ProgressFn transitions.
  struct CampaignProgressLog {
    std::mutex mu;
    double last[3] = {0, 0, 0};
    std::vector<u64> detect_worker_done;

    fault::ProgressFn callback() {
      return [this](const fault::CampaignProgress& p) {
        std::lock_guard<std::mutex> lk(mu);
        last[static_cast<unsigned>(p.phase)] = p.elapsed_s;
        if (p.phase == fault::CampaignPhase::kDetection) detect_worker_done = p.worker_done;
      };
    }
  };
  struct PhaseTimes {
    double seconds[3] = {0, 0, 0};
    u64 worker_min = 0, worker_max = 0;  // summed over campaigns
    void add(CampaignProgressLog& log) {
      std::lock_guard<std::mutex> lk(log.mu);
      for (unsigned p = 0; p < 3; ++p) seconds[p] += log.last[p];
      if (!log.detect_worker_done.empty()) {
        worker_min += *std::min_element(log.detect_worker_done.begin(),
                                        log.detect_worker_done.end());
        worker_max += *std::max_element(log.detect_worker_done.begin(),
                                        log.detect_worker_done.end());
      }
    }
  };

  unsigned workers_;
  Table3Routines routines_;
  std::vector<Table3Case> cases_;
  std::vector<std::vector<StabilityCase>> stability_;
};

// -----------------------------------------------------------------------------
// soc_probe: the sim-MHz probe's fixed work, no netlist hook
// -----------------------------------------------------------------------------

class SocProbe final : public Workload {
 public:
  explicit SocProbe(const RunOptions&) {}
  const char* name() const override { return "soc_probe"; }
  const char* unit_name() const override { return "cycles"; }

  void setup() override { tests_ = build_probe_tests(); }

  PassResult pass(Tracer& tracer, MetricValues*) override {
    PassResult out;
    // Every rep must reproduce the pinned cycles and mailbox words; the
    // first deviating rep of each kind is reported.
    std::string bad[2];
    for (unsigned r = 0; r < kProbeRepsPerPass; ++r) {
      Scope s(tracer, "soc.Soc.run.single_cached");
      const ProbeRun run = run_probe_single(tests_);
      if (bad[0].empty() && (run.cycles != kProbeSingleCycles || run.verdicts != kProbeSingleVerdicts))
        bad[0] = std::to_string(run.cycles) + " cycles, mailbox " + words(run.verdicts);
      out.units += static_cast<double>(run.cycles);
    }
    for (unsigned r = 0; r < kProbeRepsPerPass; ++r) {
      Scope s(tracer, "soc.Soc.run.triple_contended");
      const ProbeRun run = run_probe_triple(tests_);
      if (bad[1].empty() && (run.cycles != kProbeTripleCycles || run.verdicts != kProbeTripleVerdicts))
        bad[1] = std::to_string(run.cycles) + " cycles, mailbox " + words(run.verdicts);
      out.units += static_cast<double>(run.cycles);
    }
    out.checks.expect(bad[0].empty(), "soc_probe single-core cached run: " + bad[0]);
    out.checks.expect(bad[1].empty(), "soc_probe triple-core contended run: " + bad[1]);
    return out;
  }

 private:
  ProbeTests tests_;
};

// -----------------------------------------------------------------------------
// soak: rate-based SEU soak campaign with journaling
// -----------------------------------------------------------------------------

constexpr u64 kSoakBaseSeed = 0x5EA5BEAC;
constexpr unsigned kSoakRuns = 1024;
constexpr unsigned kSoakSample = 32;  // runs re-simulated serially by verify()
const char* const kSoakRoutines[] = {"alu", "rf-march", "shifter", "branch", "muldiv"};

class Soak final : public Workload {
 public:
  explicit Soak(const RunOptions& o)
      : master_(kSoakBaseSeed + o.seed),
        workers_(o.workers != 0 ? o.workers : 2),
        work_dir_(o.work_dir) {}
  const char* name() const override { return "soak"; }
  const char* unit_name() const override { return "runs"; }

  /// The schedule build run_soak_campaign performs before its first run:
  /// every (routine x core x rung) program wrapped, calibrated and loaded.
  void setup() override {
    std::vector<std::unique_ptr<core::SelfTestRoutine>> owned;
    std::vector<const core::SelfTestRoutine*> ptrs;
    for (const char* n : kSoakRoutines) {
      owned.push_back(core::find_routine(n)->make());
      ptrs.push_back(owned.back().get());
    }
    runtime::plan_schedule(ptrs, 3);
  }

  runtime::SoakCampaignSpec spec() const {
    runtime::SoakCampaignSpec s;
    s.seed = master_;
    s.runs = kSoakRuns;
    s.threads = workers_;
    s.cores = 3;
    s.routines.assign(std::begin(kSoakRoutines), std::end(kSoakRoutines));
    return s;
  }

  PassResult pass(Tracer& tracer, MetricValues* layers) override {
    PassResult out;
    runtime::SoakCampaignSpec s = spec();
    const std::string dir = work_dir_ + "/soak-journal-" + std::to_string(passes_++);
    std::filesystem::remove_all(dir);
    s.checkpoint.dir = dir;
    s.checkpoint.fsync = fault::FsyncPolicy::kNone;

    std::mutex mu;
    std::vector<double> done_at;
    const Clock::time_point t0 = Clock::now();
    if (layers != nullptr) {
      done_at.reserve(kSoakRuns);
      s.on_run_complete = [&](u64) {
        const double t = seconds_since(t0);
        std::lock_guard<std::mutex> lk(mu);
        done_at.push_back(t);
      };
    }
    const perf::SimSnapshot before = perf::sim_totals().snapshot();
    runtime::SoakCampaignResult res;
    {
      Scope sc(tracer, "runtime.run_soak_campaign");
      res = runtime::run_soak_campaign(s);
    }
    std::filesystem::remove_all(dir);

    bool seeds_ok = res.records.size() == kSoakRuns;
    for (std::size_t i = 0; seeds_ok && i < res.records.size(); ++i)
      seeds_ok = res.records[i].seed ==
                 runtime::derive_run_seed(master_, static_cast<unsigned>(i));
    out.checks.expect(seeds_ok, "soak: record count or per-run seeds wrong");
    out.checks.expect(!res.ckpt.interrupted && res.ckpt.shards_flushed > 0,
                      "soak: journal was not written");
    const u64 d = res.digest();
    if (first_digest_ == 0) first_digest_ = d;
    out.checks.expect(d == first_digest_, "soak: digest " + hex(d) +
                                              " differs from this run's first pass " +
                                              hex(first_digest_));
    if (const u64 pin = soak_pin(master_); pin != 0)
      out.checks.expect(d == pin, "soak: digest " + hex(d) + " != pinned " + hex(pin));
    std::printf("soak seed %s: digest %s\n", hex(master_).c_str(), hex(d).c_str());
    out.units = static_cast<double>(res.records.size());

    if (layers != nullptr) {
      const perf::SimSnapshot sd = perf::sim_totals().snapshot().since(before);
      u64 reruns = 0, diverged = 0, applied = 0;
      for (const auto& r : res.records) {
        reruns += r.isolation.reruns;
        diverged += r.isolation.diverged;
        applied += r.stats.total_applied();
      }
      MetricValues& m = *layers;
      m.set("runtime.disturb_cycles", static_cast<double>(sd[perf::SimStat::kDisturbCycles]));
      m.set("runtime.bisect_reruns", static_cast<double>(reruns));
      m.set("runtime.diverged_runs", static_cast<double>(diverged));
      m.set("runtime.upsets_applied", static_cast<double>(applied));
      m.set("runtime.useful_ratio", static_cast<double>(res.records.size()) /
                                        static_cast<double>(res.records.size() + reruns));
      // The tail: from the moment fewer runs than workers were left in
      // flight until the last run completed.
      std::sort(done_at.begin(), done_at.end());
      const std::size_t k = done_at.size() >= res.threads_used
                                ? done_at.size() - res.threads_used
                                : 0;
      m.set("runtime.worker_tail_s", done_at.empty() ? 0.0 : done_at.back() - done_at[k]);
      m.set("checkpoint.shards_flushed", res.ckpt.shards_flushed);
      m.set("checkpoint.flush_s", static_cast<double>(res.ckpt.flush_ns) * 1e-9);
    }
    last_ = std::move(res);
    return out;
  }

  /// Re-simulates a contiguous sample of runs serially (one worker, no
  /// journal) and compares them with the last pass, record by record. This
  /// is the output check for seeds that have no pinned digest.
  Checks verify() override {
    Checks c;
    runtime::SoakCampaignSpec s = spec();
    s.threads = 1;
    s.unit_begin = master_ % (kSoakRuns - kSoakSample);
    s.unit_end = s.unit_begin + kSoakSample;
    const runtime::SoakCampaignResult ref = runtime::run_soak_campaign(s);
    bool same = last_.records.size() == kSoakRuns;
    for (u64 i = s.unit_begin; same && i < s.unit_end; ++i)
      same = runtime::serialize_soak_record(ref.records[i]) ==
             runtime::serialize_soak_record(last_.records[i]);
    c.expect(same, "soak: serial re-simulation of runs [" + std::to_string(s.unit_begin) +
                       ", " + std::to_string(s.unit_end) + ") differs");
    return c;
  }

 private:
  u64 master_;
  unsigned workers_;
  std::string work_dir_;
  unsigned passes_ = 0;
  u64 first_digest_ = 0;
  runtime::SoakCampaignResult last_;
};

// -----------------------------------------------------------------------------
// lint_matrix: the 144-configuration stlint proof sweep
// -----------------------------------------------------------------------------

constexpr const char* kMatrixGolden = "tests/golden/stlint_matrix.txt";

class LintMatrix final : public Workload {
 public:
  explicit LintMatrix(const RunOptions&) {}
  const char* name() const override { return "lint_matrix"; }
  const char* unit_name() const override { return "configurations"; }

  void setup() override {
    std::ifstream in(kMatrixGolden, std::ios::binary);
    if (!in) throw std::runtime_error(std::string("perfbench: cannot read ") + kMatrixGolden);
    std::ostringstream ss;
    ss << in.rdbuf();
    golden_ = ss.str();
    grid_ = core::default_matrix_grid();
    routines_.clear();
    for (const auto& r : core::routine_registry()) routines_.push_back(&r);
    // Every wrapped image the sweep analyses: each routine at both
    // placements, both write-allocate modes, on every core. run_matrix
    // assembles (and caches) the same images inside the pass.
    for (const core::RoutineEntry* r : routines_) {
      const auto routine = r->make();
      for (const unsigned placement : {0u, 1u})
        for (const bool wa : {true, false})
          for (unsigned c = 0; c < 3; ++c) {
            core::MatrixPoint p;
            p.placement = placement;
            p.write_allocate = wa;
            core::assemble_wrapped(*routine, core::WrapperKind::kCacheBased,
                                   core::matrix_env(p, c));
          }
    }
  }

  PassResult pass(Tracer& tracer, MetricValues*) override {
    PassResult out;
    core::MatrixReport rep;
    {
      Scope s(tracer, "core.run_matrix");
      rep = core::run_matrix(grid_, routines_);
    }
    out.checks.expect(rep.configurations() == 144 && rep.proven_configurations() == 144,
                      "lint_matrix: " + std::to_string(rep.proven_configurations()) + "/" +
                          std::to_string(rep.configurations()) + " proven, want 144/144");
    out.checks.expect(core::format_matrix(rep) == golden_,
                      std::string("lint_matrix: format_matrix differs from ") + kMatrixGolden);
    out.units = rep.configurations();
    return out;
  }

 private:
  std::string golden_;
  std::vector<core::MatrixPoint> grid_;
  std::vector<const core::RoutineEntry*> routines_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const RunOptions& opts) {
  if (name == "table3") return std::make_unique<Table3>(opts);
  if (name == "soc_probe") return std::make_unique<SocProbe>(opts);
  if (name == "soak") return std::make_unique<Soak>(opts);
  if (name == "lint_matrix") return std::make_unique<LintMatrix>(opts);
  return nullptr;
}

}  // namespace perfbench
