#include "perf/profiler.h"

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

void set_prof_enabled(bool on) {
  detail::prof_state.enabled.store(on, std::memory_order_relaxed);
}

void prof_reset() {
  auto& st = detail::prof_state;
  for (unsigned i = 0; i < kNumProfScopes; ++i) {
    st.calls[i].store(0, std::memory_order_relaxed);
    st.ns[i].store(0, std::memory_order_relaxed);
  }
}

ProfSnapshot prof_snapshot() {
  ProfSnapshot snap;
  const auto& st = detail::prof_state;
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

}  // namespace detstl::perf
