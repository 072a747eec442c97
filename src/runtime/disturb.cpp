#include "runtime/disturb.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace detstl::runtime {

const char* disturbance_name(DisturbanceKind k) {
  switch (k) {
    case DisturbanceKind::kIrq: return "irq";
    case DisturbanceKind::kICacheInvalidate: return "i$-invalidate";
    case DisturbanceKind::kDCacheInvalidate: return "d$-invalidate";
    case DisturbanceKind::kICacheFlip: return "i$-bit-flip";
    case DisturbanceKind::kDCacheFlip: return "d$-bit-flip";
    case DisturbanceKind::kSpuriousEviction: return "spurious-eviction";
    case DisturbanceKind::kBusStall: return "bus-stall";
    case DisturbanceKind::kStuckBit: return "stuck-bit";
    case DisturbanceKind::kFlashCorrupt: return "flash-corrupt";
  }
  return "?";
}

DisturbancePlan make_plan(const DisturbanceSpec& spec, u64 seed, unsigned num_cores,
                          u64 horizon) {
  static constexpr DisturbanceKind kTransient[] = {
      DisturbanceKind::kIrq,        DisturbanceKind::kICacheInvalidate,
      DisturbanceKind::kDCacheInvalidate, DisturbanceKind::kICacheFlip,
      DisturbanceKind::kDCacheFlip, DisturbanceKind::kSpuriousEviction,
      DisturbanceKind::kBusStall,   DisturbanceKind::kStuckBit,
  };

  Rng rng(seed);
  const u64 hi = kWindowLo + std::max<u64>(horizon, 1);
  DisturbancePlan plan;
  plan.items.reserve(spec.count + 1);
  for (unsigned i = 0; i < spec.count; ++i) {
    Disturbance d;
    d.kind = kTransient[rng.below(std::size(kTransient))];
    d.core = static_cast<u8>(rng.below(num_cores));
    d.cycle = rng.range(kWindowLo, hi);
    d.pick = rng.next_u64();
    switch (d.kind) {
      case DisturbanceKind::kIrq: d.param = kIrqSources; break;
      case DisturbanceKind::kBusStall: d.param = spec.stall_cycles; break;
      case DisturbanceKind::kStuckBit:
        d.param = kStuckPeriod;
        d.repeats = kStuckRepeats;
        break;
      default: break;
    }
    plan.items.push_back(d);
  }
  if (spec.permanent_chance > 0.0 && rng.chance(spec.permanent_chance)) {
    Disturbance d;
    d.kind = DisturbanceKind::kFlashCorrupt;
    d.core = static_cast<u8>(rng.below(num_cores));
    d.cycle = rng.range(kWindowLo, hi);
    d.pick = rng.next_u64();
    plan.items.push_back(d);
  }
  std::stable_sort(plan.items.begin(), plan.items.end(),
                   [](const Disturbance& a, const Disturbance& b) {
                     return a.cycle < b.cycle;
                   });
  return plan;
}

DisturbanceInjector::DisturbanceInjector(DisturbancePlan plan) : plan_(std::move(plan)) {
  assert(std::is_sorted(plan_.items.begin(), plan_.items.end(),
                        [](const Disturbance& a, const Disturbance& b) {
                          return a.cycle < b.cycle;
                        }));
}

void DisturbanceInjector::poll(soc::Soc& soc, const InjectTargets& targets) {
  const u64 now = soc.now();
  while (next_ < plan_.items.size() && plan_.items[next_].cycle <= now) {
    const Disturbance& d = plan_.items[next_++];
    apply(d, soc, targets);
    if (d.kind == DisturbanceKind::kStuckBit && d.repeats > 1) {
      Disturbance rec = d;
      rec.cycle = now + rec.param;
      --rec.repeats;
      recurring_.push_back(rec);
    }
  }
  for (std::size_t i = 0; i < recurring_.size();) {
    Disturbance& rec = recurring_[i];
    if (rec.cycle <= now) {
      apply(rec, soc, targets);
      rec.cycle = now + rec.param;
      if (--rec.repeats == 0) {
        recurring_.erase(recurring_.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
    }
    ++i;
  }
}

void DisturbanceInjector::apply(const Disturbance& d, soc::Soc& soc,
                                const InjectTargets& targets) {
  const unsigned kind_idx = static_cast<unsigned>(d.kind);
  const bool core_scoped = d.kind != DisturbanceKind::kBusStall;
  bool applied = false;
  u32 addr = d.addr;
  u32 detail = d.param;

  if (core_scoped && (d.core >= soc.num_cores() || !targets.core_live[d.core])) {
    // Quarantined / absent core: nothing to perturb.
  } else {
    switch (d.kind) {
      case DisturbanceKind::kIrq:
        soc.core(d.core).inject_icu_event(static_cast<u8>(d.param));
        applied = true;
        break;
      case DisturbanceKind::kBusStall:
        soc.bus().inject_stall(d.param);
        applied = true;
        break;
      case DisturbanceKind::kICacheInvalidate:
      case DisturbanceKind::kDCacheInvalidate:
      case DisturbanceKind::kICacheFlip:
      case DisturbanceKind::kDCacheFlip:
      case DisturbanceKind::kStuckBit:
      case DisturbanceKind::kSpuriousEviction: {
        const bool iside = d.kind == DisturbanceKind::kICacheInvalidate ||
                           d.kind == DisturbanceKind::kICacheFlip;
        mem::MemSystem& ms = soc.core(d.core).memsys();
        mem::Cache& cache = iside ? ms.icache() : ms.dcache();
        if (addr == 0) {
          // Seeded targeting: pick one of the lines resident right now.
          const auto lines = cache.resident_lines();
          if (lines.empty()) break;
          addr = lines[d.pick % lines.size()];
        }
        const u32 bit = static_cast<u32>(d.pick >> 32) %
                        (cache.config().line_bytes * 8);
        switch (d.kind) {
          case DisturbanceKind::kICacheInvalidate:
          case DisturbanceKind::kDCacheInvalidate:
            applied = cache.invalidate_line(addr);
            break;
          case DisturbanceKind::kICacheFlip:
          case DisturbanceKind::kDCacheFlip:
            applied = cache.flip_bit(addr, bit);
            detail = bit;
            break;
          case DisturbanceKind::kStuckBit:
            applied = cache.force_bit(addr, bit, true);
            detail = bit;
            break;
          case DisturbanceKind::kSpuriousEviction:
            // An eviction writes dirty data back before dropping the line,
            // so memory stays architecturally correct — only the timing and
            // residency are disturbed.
            if (cache.line_dirty(addr)) {
              const mem::Beats& words = cache.line(addr);
              const u32 base = addr & ~(cache.config().line_bytes - 1);
              for (u32 i = 0; i < cache.config().line_bytes / 4; ++i)
                soc.debug_write32(base + 4 * i, words[i]);
            }
            applied = cache.invalidate_line(addr);
            break;
          default: break;
        }
        break;
      }
      case DisturbanceKind::kFlashCorrupt: {
        // Permanent fault: corrupt the routine's expected-value constant in
        // flash on BOTH rungs of the ladder, so retry and the uncacheable
        // fallback keep failing and the supervisor must quarantine the core.
        const u32 bit = static_cast<u32>(d.pick % 32);
        for (const u32 word : {targets.cached_golden_addr[d.core],
                               targets.fallback_golden_addr[d.core]}) {
          if (word == 0) continue;
          const u32 corrupted = soc.flash().read32(word) ^ (1u << bit);
          std::vector<u8> bytes(4);
          for (unsigned i = 0; i < 4; ++i)
            bytes[i] = static_cast<u8>(corrupted >> (8 * i));
          soc.flash().write_image(word, bytes);
          addr = word;
          detail = bit;
          applied = true;
        }
        break;
      }
    }
  }

  stats_.applied[kind_idx] += applied ? 1 : 0;
  stats_.skipped[kind_idx] += applied ? 0 : 1;
  DETSTL_TRACE(soc.trace_sink(),
               trace::Event{.cycle = soc.now(),
                            .kind = trace::EventKind::kDisturbance,
                            .core = d.core,
                            .unit = static_cast<u8>(d.kind),
                            .flags = static_cast<u8>(applied ? 1 : 0),
                            .addr = addr,
                            .a = detail,
                            .b = d.repeats});
}

}  // namespace detstl::runtime
