#pragma once
// Interval/constant propagation over the CFG. The self-test routines use
// static addressing (li/la of a base register plus small strides), so a
// simple abstract domain — bottom / constant / interval / top — resolves
// almost every load, store, JALR target and MTVEC write to a concrete
// address or a tight range. Loop-carried pointer increments are widened to
// the enclosing declared data region (the routine's data contract) instead
// of straight to top, which keeps strided march loops analysable.

#include <array>
#include <map>
#include <vector>

#include "analysis/cfg.h"

namespace detstl::analysis {

struct AddrRange {
  u32 base = 0;
  u32 size = 0;
  u32 end() const { return base + size; }
  bool contains(u32 a) const { return a >= base && a < end(); }
  bool overlaps(u32 lo, u32 hi) const {  // [lo, hi)
    return lo < end() && hi > base;
  }
};

/// Interval spans wider than this are treated as unresolved rather than
/// enumerated line by line (no realistic routine walks 64 KiB of scratch).
inline constexpr u32 kMaxSpan = 64 * 1024;

/// Abstract value: unreached / single constant / inclusive interval / unknown.
struct AVal {
  enum Kind : u8 { kBot, kConst, kRange, kTop };
  Kind kind = kBot;
  u32 lo = 0;
  u32 hi = 0;

  static AVal top() { return {kTop, 0, 0xffffffffu}; }
  static AVal cst(u32 v) { return {kConst, v, v}; }
  static AVal range(u32 lo, u32 hi) {
    return lo == hi ? cst(lo) : AVal{kRange, lo, hi};
  }

  bool is_const() const { return kind == kConst; }
  bool bounded() const { return kind == kConst || kind == kRange; }
  u32 width() const { return hi - lo; }
  /// Bounded within kMaxSpan: an address the cache rules can resolve.
  bool resolved() const { return bounded() && width() <= kMaxSpan; }

  bool operator==(const AVal& o) const {
    return kind == o.kind && lo == o.lo && hi == o.hi;
  }
};

/// Join (interval hull).
AVal join(const AVal& a, const AVal& b);
/// Abstract transfer of a single instruction over the register state.
/// `regs[0]` stays constant zero.
using RegState = std::array<AVal, 32>;

struct ConstPropResult {
  /// Register state *before* each reachable instruction.
  std::map<u32, RegState> at;

  /// Effective address of the load/store/amo at `pc` (base + offset), or
  /// top if unknown. PCs without a memory op are absent.
  std::map<u32, AVal> access_addr;

  /// Constant-resolved JALR targets (new CFG roots).
  std::vector<u32> jalr_targets;
  /// Constant values written to MTVEC (trap-vector roots; their code runs
  /// *during* the execution loop and belongs to its footprint).
  std::vector<u32> mtvec_targets;
};

/// Run the analysis to fixpoint. `data_regions` guides widening: a pointer
/// growing inside a declared region is clamped to that region's bounds.
ConstPropResult propagate(const Cfg& cfg,
                          const std::vector<AddrRange>& data_regions);

/// As above, but with explicit entry states per root. Roots absent from
/// `root_states` start from all-top (the default). The abstract interpreter
/// uses this to run an *iteration-local* pass: rooted at the wrapper-loop
/// head with only the registers that are globally constant there (the
/// loop-invariant bases li'd before the loop), it proves which access
/// addresses are re-derived identically on every loading/execution pass.
ConstPropResult propagate(const Cfg& cfg,
                          const std::vector<AddrRange>& data_regions,
                          const std::map<u32, RegState>& root_states);

}  // namespace detstl::analysis
