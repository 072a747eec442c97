#pragma once
// stlperf subsystem profiler: scoped host-time attribution across the
// simulator's hot paths (fetch/decode/execute, cache model, bus arbitration,
// fault screening and snapshot restore, checkpoint I/O). Answers "where do
// the host cycles go?" — the map the two-tier-engine work needs before
// touching anything.
//
// Cost model:
//  * disabled (the default): one relaxed atomic load per scope, no clock
//    reads;
//  * enabled (set_prof_enabled(true)): two steady_clock reads per scope.
//    Profiled runs are therefore slower — the sim-MHz KPI and the CI gate
//    always use non-profiled runs, and bench --profile is a separate switch
//    from --metrics-out.
//
// Reports carry a snapshot as the kHost series prof.calls / prof.ns
// (perf/collect.h collect_profile), rendered as a hotspot table by
// stlperf report.
//
// Accumulation is a relaxed fetch_add into process-global per-scope totals:
// thread-safe, and commutative so totals don't depend on scheduling (the
// values themselves are host timings and carry no determinism contract).

#include <array>
#include <atomic>

#include "common/bitutil.h"
#include "perf/sampler.h"

namespace detstl::perf {

enum class ProfScope : u8 {
  kFetch,            // Cpu::stage_fetch
  kDecode,           // Cpu::stage_issue (decode + dual-issue packing)
  kExecute,          // Cpu WB/MEM/EX stages
  kCacheModel,       // MemSystem::tick (L1 lookups, refills, writebacks)
  kBusArb,           // SharedBus::tick (arbitration + device access)
  kNetlistScreen,    // 64-lane excitation screening replay
  kSnapshotRestore,  // SoC checkpoint copy in fault detection
  kCheckpointIO,     // shard serialisation + write + fsync, shard load
  kCount,
};

inline constexpr unsigned kNumProfScopes = static_cast<unsigned>(ProfScope::kCount);

const char* prof_scope_name(ProfScope s);

struct ScopeTotals {
  u64 calls = 0;
  u64 ns = 0;
};

struct ProfSnapshot {
  std::array<ScopeTotals, kNumProfScopes> scopes{};

  const ScopeTotals& operator[](ProfScope s) const {
    return scopes[static_cast<unsigned>(s)];
  }
  u64 total_ns() const;
};

void set_prof_enabled(bool on);
void prof_reset();
ProfSnapshot prof_snapshot();

namespace detail {

struct ProfState {
  std::atomic<bool> enabled{false};
  std::array<std::atomic<u64>, kNumProfScopes> calls{};
  std::array<std::atomic<u64>, kNumProfScopes> ns{};
};

/// The process-global totals; an inline variable, so a disabled scope is
/// one relaxed load with no call.
inline ProfState prof_state;

}  // namespace detail

/// RAII scope timer; construct via DETSTL_PROF_SCOPE.
class ProfTimer {
 public:
  explicit ProfTimer(ProfScope s) {
    if (detail::prof_state.enabled.load(std::memory_order_relaxed)) {
      scope_ = s;
      armed_ = true;
      t0_ = wall_now_ns();
    }
  }
  ~ProfTimer() {
    if (!armed_) return;
    const unsigned i = static_cast<unsigned>(scope_);
    detail::prof_state.calls[i].fetch_add(1, std::memory_order_relaxed);
    detail::prof_state.ns[i].fetch_add(wall_now_ns() - t0_, std::memory_order_relaxed);
  }
  ProfTimer(const ProfTimer&) = delete;
  ProfTimer& operator=(const ProfTimer&) = delete;

 private:
  ProfScope scope_ = ProfScope::kFetch;
  bool armed_ = false;
  u64 t0_ = 0;
};

#define DETSTL_PROF_CAT2(a, b) a##b
#define DETSTL_PROF_CAT(a, b) DETSTL_PROF_CAT2(a, b)
#define DETSTL_PROF_SCOPE(scope)                       \
  ::detstl::perf::ProfTimer DETSTL_PROF_CAT(           \
      detstl_prof_scope_, __LINE__)(scope)

}  // namespace detstl::perf
