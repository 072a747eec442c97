#pragma once
// Seeded, deterministic disturbance injection for on-line self-test runs.
//
// The paper's wrapped routines are meant to run in the field, where they
// compete with asynchronous interrupts, cache soft errors / external
// invalidations and interconnect anomalies. The DisturbanceInjector replays
// a pre-computed, seed-derived plan of such perturbations against a running
// SoC so the supervisor's recovery machinery (runtime/supervisor.h) can be
// exercised reproducibly: the same seed produces the same disturbance
// stream, tick for tick, on any host.
//
// Every application attempt is emitted as a trace::EventKind::kDisturbance
// event (flags bit 0 = applied) so detscope can attribute each recovery
// decision to the perturbation that caused it.

#include <array>
#include <vector>

#include "common/rng.h"
#include "soc/soc.h"

namespace detstl::runtime {

enum class DisturbanceKind : u8 {
  kIrq,               // asynchronous interrupt: ICU event strobes (param = source bits)
  kICacheInvalidate,  // drop one resident I-cache line (snoop-style)
  kDCacheInvalidate,  // drop one resident D-cache line
  kICacheFlip,        // single-event upset in a resident I-cache line
  kDCacheFlip,        // single-event upset in a resident D-cache line
  kSpuriousEviction,  // writeback-if-dirty then drop one resident D-cache line
  kBusStall,          // freeze the shared bus for param cycles (error-retry burst)
  kStuckBit,          // persistent data-array defect: force one I-/D-cache bit
                      // to 1 every param cycles, repeats times
  kFlashCorrupt,      // permanent fault: flip one bit of the target routine's
                      // golden constant in flash (both rungs)
};

inline constexpr unsigned kNumDisturbanceKinds = 9;

const char* disturbance_name(DisturbanceKind k);

/// One planned perturbation. `pick` is raw seed material resolved against the
/// simulation state at application time (which resident line, which bit);
/// `addr` pins an explicit target line instead (tests aim at known symbols).
struct Disturbance {
  DisturbanceKind kind = DisturbanceKind::kIrq;
  u8 core = 0;
  u64 cycle = 0;    // SoC tick at which to apply
  u64 pick = 0;     // seeded targeting material (line index / bit index)
  u32 addr = 0;     // explicit target address; 0 = derive from pick
  u32 param = 0;    // kind-specific: irq source bits / stall cycles / period
  u32 repeats = 1;  // kStuckBit re-applications
};

/// The fixed plan parameters. The arrival window opens at kWindowLo; its
/// length is make_plan's horizon.
inline constexpr u64 kWindowLo = 200;
inline constexpr u32 kStuckPeriod = 48;   // kStuckBit re-application period
inline constexpr u32 kStuckRepeats = 64;  // kStuckBit lifetime in applications
inline constexpr u32 kIrqSources = 1u << static_cast<unsigned>(isa::IcuSource::kSoftware);

/// Plan-generation knobs: the ones stlrun's flags and stlserve specs set.
/// Items are drawn from the eight transient kinds; kFlashCorrupt, the
/// permanent kind, enters only via permanent_chance.
struct DisturbanceSpec {
  unsigned count = 6;        // disturbances drawn per run
  u32 stall_cycles = 150;    // kBusStall burst length
  /// Probability that a run additionally draws one permanent kFlashCorrupt.
  double permanent_chance = 0.0;
};

struct DisturbancePlan {
  std::vector<Disturbance> items;  // sorted by cycle
};

/// Derive a plan from (spec, seed, cores, horizon): same inputs, same plan,
/// bit for bit. Items apply at ticks in [kWindowLo, kWindowLo +
/// max(horizon, 1)]; campaigns pass calibrated_horizon (runtime/campaign.h).
DisturbancePlan make_plan(const DisturbanceSpec& spec, u64 seed, unsigned num_cores,
                          u64 horizon);

/// What the injector needs to know about the supervised schedule: where the
/// current routine's golden constants live (kFlashCorrupt targets) and which
/// cores are still in service. Maintained by the supervisor.
struct InjectTargets {
  std::array<u32, soc::kMaxCores> cached_golden_addr{};
  std::array<u32, soc::kMaxCores> fallback_golden_addr{};
  std::array<bool, soc::kMaxCores> core_live{};
};

struct InjectionStats {
  std::array<u64, kNumDisturbanceKinds> applied{};
  std::array<u64, kNumDisturbanceKinds> skipped{};  // dead core / no resident target
  u64 total_applied() const {
    u64 n = 0;
    for (u64 v : applied) n += v;
    return n;
  }
};

/// Per-tick perturbation source the supervisor polls after every Soc::tick().
/// DisturbanceInjector replays event-count plans; the rate-based SEU soak
/// model (runtime/soak.h) extends the same contract with Poisson-style
/// arrival plans. Both are deterministic functions of (plan, tick).
class InjectorHook {
 public:
  virtual ~InjectorHook() = default;
  virtual void poll(soc::Soc& soc, const InjectTargets& targets) = 0;
};

/// Replays a DisturbancePlan against a running SoC. Call poll() once per
/// SoC tick (after Soc::tick()); all items due at soc.now() are applied.
class DisturbanceInjector : public InjectorHook {
 public:
  explicit DisturbanceInjector(DisturbancePlan plan);

  void poll(soc::Soc& soc, const InjectTargets& targets) override;

  const InjectionStats& stats() const { return stats_; }
  /// All one-shot items consumed and no recurring item still live.
  bool exhausted() const { return next_ >= plan_.items.size() && recurring_.empty(); }

 private:
  void apply(const Disturbance& d, soc::Soc& soc, const InjectTargets& targets);

  DisturbancePlan plan_;
  std::size_t next_ = 0;
  std::vector<Disturbance> recurring_;  // live kStuckBit items (cycle = next due)
  InjectionStats stats_;
};

}  // namespace detstl::runtime
