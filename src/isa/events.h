#pragma once
// Synchronous imprecise interrupt sources and the per-core cause-bit mapping.
//
// The paper (Sec. IV-D) reports ~10% higher ICU fault coverage on core C
// because cores A/B map *different interrupt events to the same cause bits*,
// masking some fault effects, while core C exposes distinct bits. We model
// exactly that: four event sources; cores A/B fold them onto 2 cause bits,
// core C reports 4 distinct bits.

#include "common/bitutil.h"

namespace detstl::isa {

/// The three core flavours of the triple-core SoC. A and B share the 32-bit
/// ISA (but get distinct gate-level netlist instantiations); C adds the R64
/// extension and a wider ICU cause register.
enum class CoreKind : u8 { kA = 0, kB = 1, kC = 2 };

inline bool core_has_r64(CoreKind k) { return k == CoreKind::kC; }

/// Synchronous imprecise interrupt sources (index = bit in kMip / kMie).
enum class IcuSource : u8 {
  kOverflow = 0,   // kAddv/kSubv/kAddv64 signed overflow, flagged at WB
  kDivZero = 1,    // kDiv/kDivu/kRem with zero divisor
  kUnaligned = 2,  // misaligned data access (performed force-aligned)
  kSoftware = 3,   // write to Csr::kMswi
};

inline constexpr unsigned kNumIcuSources = 4;

/// Map the highest-priority pending source to the value read from kMcause.
/// Cores A/B share cause bits pairwise; core C reports one-hot bits.
inline u32 map_cause(CoreKind kind, IcuSource src) {
  const auto s = static_cast<unsigned>(src);
  if (kind == CoreKind::kC) return 1u << s;
  // A/B: overflow and div-by-zero share bit 0; unaligned and software share bit 1.
  return (src == IcuSource::kOverflow || src == IcuSource::kDivZero) ? 0x1u : 0x2u;
}

}  // namespace detstl::isa
