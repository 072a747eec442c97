#include "trace/chrome_trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/table.h"

namespace detstl::trace {

namespace {

constexpr unsigned kCoreBound = 3;

// Track ids: one per core, one per bus requester, one for the campaign.
constexpr u32 kCoreTidBase = 0;
constexpr u32 kBusTidBase = 10;
constexpr u32 kCampaignTid = 30;

struct JsonEvent {
  u32 tid = 0;
  u64 ts = 0;
  u64 dur = 0;
  char ph = 'i';  // B / E / X / i
  std::string name;
  std::string args;  // pre-rendered JSON object body, may be empty
};

std::string track_name(u32 tid) {
  if (tid == kCampaignTid) return "fault campaign";
  if (tid >= kBusTidBase && tid < kBusTidBase + 9) {
    static const char* kPorts[3] = {"ifetch0", "data", "ifetch1"};
    const u32 req = tid - kBusTidBase;
    return "bus req " + std::to_string(req) + " (core " +
           std::string(1, static_cast<char>('A' + req / 3)) + " " +
           kPorts[req % 3] + ")";
  }
  return "core " + std::string(1, static_cast<char>('A' + tid - kCoreTidBase));
}

}  // namespace

void ChromeTraceWriter::write(std::ostream& os) const {
  std::vector<JsonEvent> out;
  out.reserve(events_.size() + 8);

  // Open wrapper-phase slice per core; closed by the next kPhaseBegin.
  bool phase_open[kCoreBound] = {};

  u64 max_cycle = 0;
  for (const Event& e : events_) {
    if (e.core != kNoCore) max_cycle = std::max(max_cycle, e.cycle);

    JsonEvent j;
    j.ts = e.cycle;
    j.name = kind_name(e.kind);
    switch (e.kind) {
      case EventKind::kPhaseBegin: {
        if (e.core >= kCoreBound) continue;
        const u32 tid = kCoreTidBase + e.core;
        if (phase_open[e.core])
          out.push_back(JsonEvent{tid, e.cycle, 0, 'E', "", ""});
        phase_open[e.core] = true;
        j.tid = tid;
        j.ph = 'B';
        j.name = phase_name(static_cast<Phase>(e.unit));
        j.args = "\"pc\":\"" + TextTable::fmt_hex(e.addr) + "\"";
        break;
      }
      case EventKind::kBusGrant:
        j.tid = kBusTidBase + e.unit;
        j.ph = 'X';
        j.dur = std::max<u32>(1, e.b);
        j.name = "occupancy";
        j.args = "\"addr\":\"" + TextTable::fmt_hex(e.addr) +
                 "\",\"wait_cycles\":" + std::to_string(e.a) +
                 ",\"occupancy_cycles\":" + std::to_string(e.b);
        break;
      case EventKind::kBusSubmit:
        j.tid = kBusTidBase + e.unit;
        j.args = "\"addr\":\"" + TextTable::fmt_hex(e.addr) +
                 "\",\"bytes\":" + std::to_string(e.a) +
                 ",\"write\":" + ((e.flags & 0x1) ? "true" : "false") +
                 ",\"amo\":" + ((e.flags & 0x2) ? "true" : "false");
        break;
      case EventKind::kBusRetire:
        j.tid = kBusTidBase + e.unit;
        break;
      case EventKind::kBusBeat:
        if (!include_beats_) continue;
        j.tid = kBusTidBase + e.unit;
        j.args = "\"addr\":\"" + TextTable::fmt_hex(e.addr) +
                 "\",\"beat\":" + std::to_string(e.a) + ",\"data\":\"" +
                 TextTable::fmt_hex(e.b) + "\"";
        break;
      case EventKind::kCacheHit:
        if (!include_hits_) continue;
        [[fallthrough]];
      case EventKind::kCacheMiss:
      case EventKind::kCacheRefill:
      case EventKind::kCacheWriteback:
        j.tid = kCoreTidBase + e.core;
        j.name = std::string(e.unit == 0 ? "I$ " : "D$ ") + kind_name(e.kind);
        j.args = "\"addr\":\"" + TextTable::fmt_hex(e.addr) +
                 "\",\"set\":" + std::to_string(e.a) +
                 ",\"way\":" + std::to_string(e.b);
        break;
      case EventKind::kCacheInvalidate:
        j.tid = kCoreTidBase + e.core;
        j.name = std::string(e.unit == 0 ? "I$ " : "D$ ") + kind_name(e.kind);
        j.args = "\"lines_discarded\":" + std::to_string(e.a);
        break;
      case EventKind::kIrqWindow:
      case EventKind::kIrqTaken:
        j.tid = kCoreTidBase + e.core;
        j.args = "\"cause\":" + std::to_string(e.a) +
                 (e.kind == EventKind::kIrqTaken
                      ? ",\"mepc\":\"" + TextTable::fmt_hex(e.addr) + "\""
                      : "");
        break;
      case EventKind::kCampaignPhaseBegin:
      case EventKind::kCampaignPhaseEnd:
      case EventKind::kCampaignFault:
      case EventKind::kCampaignDone:
      case EventKind::kCkptFlush:
      case EventKind::kCkptLoad:
      case EventKind::kCkptReject:
        j.tid = kCampaignTid;
        j.args = "\"unit\":" + std::to_string(e.unit) +
                 ",\"a\":" + std::to_string(e.a) + ",\"b\":" + std::to_string(e.b);
        break;
      case EventKind::kDisturbance:
      case EventKind::kSupAttempt:
      case EventKind::kSupOutcome:
      case EventKind::kSupDecision:
      case EventKind::kMissionSlice:
      case EventKind::kMissionCheck:
      case EventKind::kSoakUpset:
        j.tid = kCoreTidBase + (e.core < kCoreBound ? e.core : 0);
        j.args = "\"unit\":" + std::to_string(e.unit) + ",\"addr\":\"" +
                 TextTable::fmt_hex(e.addr) +
                 "\",\"a\":" + std::to_string(e.a) +
                 ",\"b\":" + std::to_string(e.b);
        break;
    }
    out.push_back(std::move(j));
  }

  // Close dangling phase slices one tick past the last traced cycle.
  for (unsigned core = 0; core < kCoreBound; ++core)
    if (phase_open[core])
      out.push_back(JsonEvent{kCoreTidBase + core, max_cycle + 1, 0, 'E', "", ""});

  // Stable (tid, ts) order: one monotone timeline per track, and the E/B
  // pairing at phase boundaries keeps its emission order.
  std::stable_sort(out.begin(), out.end(), [](const JsonEvent& a, const JsonEvent& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.ts < b.ts;
  });

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& body) {
    os << (first ? "\n" : ",\n") << body;
    first = false;
  };
  // Track-name metadata for every tid that appears.
  u32 seen_tid = ~0u;
  for (const JsonEvent& j : out) {
    if (j.tid == seen_tid) continue;
    seen_tid = j.tid;
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
         std::to_string(j.tid) + ",\"args\":{\"name\":\"" + track_name(j.tid) +
         "\"}}");
  }
  for (const JsonEvent& j : out) {
    std::ostringstream b;
    b << "{\"ph\":\"" << j.ph << "\",\"pid\":0,\"tid\":" << j.tid
      << ",\"ts\":" << j.ts;
    if (j.ph == 'X') b << ",\"dur\":" << j.dur;
    if (j.ph != 'E') b << ",\"name\":\"" << j.name << "\"";
    if (j.ph == 'i') b << ",\"s\":\"t\"";
    if (!j.args.empty()) b << ",\"args\":{" << j.args << "}";
    b << "}";
    emit(b.str());
  }
  os << "\n]}\n";
}

bool ChromeTraceWriter::write_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  write(f);
  return f.good();
}

}  // namespace detstl::trace
