#include "perf/profiler.h"

#include <algorithm>
#include <chrono>

#include "common/table.h"

namespace detstl::perf {

const char* prof_scope_name(ProfScope s) {
  switch (s) {
    case ProfScope::kFetch: return "cpu.fetch";
    case ProfScope::kDecode: return "cpu.decode";
    case ProfScope::kExecute: return "cpu.execute";
    case ProfScope::kCacheModel: return "mem.cache";
    case ProfScope::kBusArb: return "mem.bus_arb";
    case ProfScope::kNetlistScreen: return "fault.screen";
    case ProfScope::kSnapshotRestore: return "fault.snapshot_restore";
    case ProfScope::kCheckpointIO: return "ckpt.io";
    case ProfScope::kCount: break;
  }
  return "?";
}

namespace detail {

ProfState& prof_state() {
  static ProfState state;
  return state;
}

u64 prof_now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace detail

bool prof_enabled() {
  return detail::prof_state().enabled.load(std::memory_order_relaxed);
}

void set_prof_enabled(bool on) {
  detail::prof_state().enabled.store(on, std::memory_order_relaxed);
}

void prof_reset() {
  auto& st = detail::prof_state();
  for (unsigned i = 0; i < kNumProfScopes; ++i) {
    st.calls[i].store(0, std::memory_order_relaxed);
    st.ns[i].store(0, std::memory_order_relaxed);
  }
}

ProfSnapshot prof_snapshot() {
  ProfSnapshot snap;
  auto& st = detail::prof_state();
  for (unsigned i = 0; i < kNumProfScopes; ++i) {
    snap.scopes[i].calls = st.calls[i].load(std::memory_order_relaxed);
    snap.scopes[i].ns = st.ns[i].load(std::memory_order_relaxed);
  }
  return snap;
}

u64 ProfSnapshot::total_ns() const {
  u64 t = 0;
  for (const ScopeTotals& s : scopes) t += s.ns;
  return t;
}

std::string ProfSnapshot::render(double wall_s) const {
  std::vector<unsigned> order;
  for (unsigned i = 0; i < kNumProfScopes; ++i)
    if (scopes[i].calls != 0) order.push_back(i);
  std::sort(order.begin(), order.end(),
            [this](unsigned a, unsigned b) { return scopes[a].ns > scopes[b].ns; });

  TextTable t("subsystem profile (host time)");
  if (wall_s > 0)
    t.header({"scope", "calls", "time [ms]", "ns/call", "% of wall"});
  else
    t.header({"scope", "calls", "time [ms]", "ns/call"});
  for (const unsigned i : order) {
    const ScopeTotals& s = scopes[i];
    std::vector<std::string> row{
        prof_scope_name(static_cast<ProfScope>(i)),
        TextTable::fmt_int(static_cast<long long>(s.calls)),
        TextTable::fmt_fixed(static_cast<double>(s.ns) / 1e6, 2),
        TextTable::fmt_fixed(
            static_cast<double>(s.ns) / static_cast<double>(s.calls), 1)};
    if (wall_s > 0)
      row.push_back(TextTable::fmt_fixed(
          100.0 * static_cast<double>(s.ns) / 1e9 / wall_s, 1));
    t.row(std::move(row));
  }
  if (order.empty()) t.row(wall_s > 0
                               ? std::vector<std::string>{"(no scopes hit)", "0",
                                                          "0.00", "0.0", "0.0"}
                               : std::vector<std::string>{"(no scopes hit)", "0",
                                                          "0.00", "0.0"});
  return t.str();
}

}  // namespace detstl::perf
