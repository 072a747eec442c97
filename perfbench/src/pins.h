#pragma once
// Outputs pinned from the seed commit. A workload pass is correct only when
// its outputs reproduce these byte for byte; a speed-only change must keep
// every one of them.

#include <vector>

#include "common/bitutil.h"

namespace perfbench {

using detstl::u32;
using detstl::u64;

/// One Table III row as bench_table3 prints it (core, module, simulated
/// faults, single-core plain FC, multi-core cached FC, stability verdict),
/// plus the FNV-1a digest of each campaign's CampaignResult::canonical_bytes()
/// (single-core plain, multi-core cached).
struct Table3Pin {
  const char* row;
  u64 digest[2];
};

inline constexpr Table3Pin kTable3Pins[6] = {
    {"A ICU 160 90.00 94.38 FAILED 3/3", {0x5ba2e09537a15df4, 0xf9236b721a344fb4}},
    {"A HDCU 906 53.42 63.80 FAILED 3/3", {0x109cbabc1fe23a54, 0xf43981ede5da14d5}},
    {"B ICU 170 91.18 94.71 FAILED 3/3", {0x1897a289349825b5, 0x5a24cf592d567b08}},
    {"B HDCU 956 53.87 63.60 FAILED 3/3", {0x7f356ec2035421ec, 0x31f493935c70fdda}},
    {"C ICU 146 91.10 94.52 FAILED 3/3", {0x35a0f00fd329ba60, 0x7e70c59292e5b69b}},
    {"C HDCU 2048 37.79 51.22 FAILED 3/3", {0xa1d3926305c65483, 0xd25663a17da05743}},
};

/// sim-MHz probe: SoC cycles per run and the mailbox words (status,
/// signature) of every active core.
inline constexpr u64 kProbeSingleCycles = 4381;
inline constexpr u64 kProbeTripleCycles = 12335;
inline const std::vector<u32> kProbeSingleVerdicts = {1, 0x7029ff15};
inline const std::vector<u32> kProbeTripleVerdicts = {1, 0x7029ff15, 1, 0x7029ff15,
                                                       1, 0x8727b070};

/// Soak outcome digest (SoakCampaignResult::digest, 1,024 runs, default
/// rates and routine mix) by master seed, for --seed 0..9; 0 when the seed
/// is not pinned. bench_soak prints the same digests (DETSTL_SOAK_RUNS=1024,
/// DETSTL_SOAK_SEED=<master seed in decimal>).
struct SoakPin {
  u64 master_seed;
  u64 digest;
};
inline constexpr SoakPin kSoakPins[] = {
    {0x5EA5BEAC, 0xa949484c27ddbc2f}, {0x5EA5BEAD, 0x793e5b42e1f99044},
    {0x5EA5BEAE, 0xf0779d45b91de7f6}, {0x5EA5BEAF, 0x0410d83162ffb761},
    {0x5EA5BEB0, 0x4633affeffb6c0c9}, {0x5EA5BEB1, 0x6c22948db34f2d30},
    {0x5EA5BEB2, 0xc5f05b3eb7788972}, {0x5EA5BEB3, 0x6285aeadc91ba9f5},
    {0x5EA5BEB4, 0x76f9f8e7f3ecae00}, {0x5EA5BEB5, 0x421054112ed4e8f2},
};
inline u64 soak_pin(u64 master_seed) {
  for (const SoakPin& p : kSoakPins)
    if (p.master_seed == master_seed) return p.digest;
  return 0;
}

}  // namespace perfbench
