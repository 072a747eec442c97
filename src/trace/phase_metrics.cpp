#include "trace/phase_metrics.h"

#include "common/table.h"

namespace detstl::trace {

namespace {

constexpr unsigned kOutside = kNumPhases;  // bucket past the wrapper phases

constexpr const char* kCounters[] = {
    "phase.events",           "phase.bus_submits",
    "phase.bus_reads",        "phase.bus_writes",
    "phase.bus_wait_cycles",  "phase.bus_occupancy_cycles",
    "phase.bus_beats",        "phase.bus_retires",
    "phase.icache_hits",      "phase.icache_misses",
    "phase.icache_refills",   "phase.dcache_hits",
    "phase.dcache_misses",    "phase.dcache_refills",
    "phase.dcache_writebacks", "phase.invalidates",
    "phase.irq_windows",      "phase.irqs_taken"};

const char* bucket_name(unsigned bucket) {
  return bucket == kOutside ? "outside"
                            : phase_name(static_cast<Phase>(bucket));
}

std::string labels(unsigned core, unsigned bucket) {
  return std::string("core=") + static_cast<char>('A' + core) + ",phase=" +
         bucket_name(bucket);
}

}  // namespace

PhaseMetrics::PhaseMetrics(perf::Registry& reg) : reg_(reg) {
  for (unsigned core = 0; core < kCores; ++core)
    labels_[core] = labels(core, kOutside);
}

void PhaseMetrics::on_event(const Event& e) {
  if (e.core == kNoCore) {
    reg_.add_counter("phase.campaign_events", "", 1);
    return;
  }
  if (e.core >= kCores) return;

  std::string& l = labels_[e.core];
  if (e.kind == EventKind::kPhaseBegin) l = labels(e.core, e.unit);
  if (reg_.find("phase.events", l) == nullptr)
    for (const char* c : kCounters) reg_.add_counter(c, l, 0);
  const auto add = [&](const char* counter, u64 delta) {
    reg_.add_counter(counter, l, delta);
  };

  add("phase.events", 1);
  switch (e.kind) {
    case EventKind::kBusSubmit:
      add("phase.bus_submits", 1);
      add(e.flags & 0x1 ? "phase.bus_writes" : "phase.bus_reads", 1);
      break;
    case EventKind::kBusGrant:
      add("phase.bus_wait_cycles", e.a);
      add("phase.bus_occupancy_cycles", e.b);
      break;
    case EventKind::kBusBeat: add("phase.bus_beats", 1); break;
    case EventKind::kBusRetire: add("phase.bus_retires", 1); break;
    case EventKind::kCacheHit:
      add(e.unit == 0 ? "phase.icache_hits" : "phase.dcache_hits", 1);
      break;
    case EventKind::kCacheMiss:
      add(e.unit == 0 ? "phase.icache_misses" : "phase.dcache_misses", 1);
      break;
    case EventKind::kCacheRefill:
      add(e.unit == 0 ? "phase.icache_refills" : "phase.dcache_refills", 1);
      break;
    case EventKind::kCacheWriteback: add("phase.dcache_writebacks", 1); break;
    case EventKind::kCacheInvalidate: add("phase.invalidates", 1); break;
    case EventKind::kIrqWindow: add("phase.irq_windows", 1); break;
    case EventKind::kIrqTaken: add("phase.irqs_taken", 1); break;
    default: break;
  }
}

std::vector<std::string> PhaseMetrics::violations() const {
  std::vector<std::string> out;
  for (unsigned core = 0; core < kCores; ++core) {
    const std::string l =
        labels(core, static_cast<unsigned>(Phase::kExecutionLoop));
    if (reg_.find("phase.events", l) == nullptr) continue;  // never entered
    const auto flag = [&](const char* counter, const char* what) {
      const u64 n = reg_.find(counter, l)->counter;
      if (n == 0) return;
      out.push_back("core " + std::string(1, static_cast<char>('A' + core)) +
                    ": " + std::to_string(n) + " " + what +
                    " during its execution loop");
    };
    flag("phase.bus_submits", "bus submit(s)");
    flag("phase.icache_misses", "I-cache miss(es)");
    flag("phase.dcache_misses", "D-cache miss(es)");
    flag("phase.dcache_writebacks", "D-cache writeback(s)");
  }
  return out;
}

std::string PhaseMetrics::render() const {
  std::string out;
  for (unsigned core = 0; core < kCores; ++core) {
    TextTable t("core " + std::string(1, static_cast<char>('A' + core)) +
                " — per-phase event counters");
    t.header({"phase", "events", "bus sub", "bus wait", "bus occ", "I$ hit",
              "I$ miss", "D$ hit", "D$ miss", "D$ wb", "irq"});
    bool any = false;
    for (unsigned b = 0; b <= kOutside; ++b) {
      const std::string l = labels(core, b);
      if (reg_.find("phase.events", l) == nullptr) continue;
      any = true;
      const auto v = [&](const char* counter) {
        return reg_.find(counter, l)->counter;
      };
      const auto n = [](u64 x) {
        return TextTable::fmt_int(static_cast<long long>(x));
      };
      t.row({b == kOutside ? "(outside wrapper)" : bucket_name(b),
             n(v("phase.events")), n(v("phase.bus_submits")),
             n(v("phase.bus_wait_cycles")), n(v("phase.bus_occupancy_cycles")),
             n(v("phase.icache_hits")), n(v("phase.icache_misses")),
             n(v("phase.dcache_hits")), n(v("phase.dcache_misses")),
             n(v("phase.dcache_writebacks")),
             n(v("phase.irq_windows") + v("phase.irqs_taken"))});
    }
    if (any) out += t.str();
  }
  if (const perf::Metric* m = reg_.find("phase.campaign_events", ""))
    out += "campaign lifecycle events: " + std::to_string(m->counter) + "\n";
  return out;
}

}  // namespace detstl::trace
