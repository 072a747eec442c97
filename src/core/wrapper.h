#pragma once
// Execution wrappers around self-test routine bodies:
//
//  * kPlain      — the single-core structure of Fig. 2a: run the body once,
//                  compare the signature, report, halt.
//  * kCacheBased — the paper's contribution (Fig. 2b): invalidate the private
//                  caches, enable them, run the body twice in a loop. The
//                  first pass (loading loop) pulls code into the I-cache and
//                  data into the D-cache and computes no checked signature;
//                  the second pass (execution loop) runs entirely from the
//                  caches, decoupled from bus contention, and its signature
//                  is compared.
//  * kTcmBased   — the Table IV comparison strategy: copy the routine into
//                  the instruction TCM at boot, execute it from there. Same
//                  determinism, but the TCM bytes stay permanently reserved.
//
// build_wrapped() performs the two-pass golden-signature calibration: the
// program is assembled with a placeholder, executed fault-free on an isolated
// single-core SoC (the paper's "fault-free scenario"), and re-assembled with
// the observed signature as the expected-value constant.

#include <memory>

#include "analysis/analyzer.h"
#include "core/routine.h"
#include "isa/program.h"
#include "soc/soc.h"

namespace detstl::core {

enum class WrapperKind : u8 { kPlain, kCacheBased, kTcmBased };

const char* wrapper_name(WrapperKind k);

/// Register conventions every wrapper obeys (emit_wrapped). They double as
/// the phase-marker contract observers rely on: the fault campaign's recorder
/// tap derives the signature-at-marker from writes to these registers, and
/// trace::PhaseTracker recognises the cache-based wrapper's loading loop /
/// execution loop / signature check from the committed r30 values
/// (iterations .. 2 = loading, 1 = execution, 0 = check).
inline constexpr unsigned kSignatureReg = 29;    // running MISR signature
inline constexpr unsigned kLoopCounterReg = 30;  // cache-wrapper loop counter

/// What build_wrapped() does with the static determinism verifier
/// (analysis/analyzer.h): skip it, attach its report to the BuiltTest
/// (default), or additionally throw AnalysisError on any error-severity
/// finding.
enum class LintMode : u8 { kOff, kReport, kEnforce };

struct BuildEnv {
  u32 code_base = mem::kFlashBase + 0x1000;  // flash placement (position knob)
  u32 data_base = mem::kSramBase + 0x8000;   // cacheable scratch
  u32 mailbox = 0;                           // 0 = mailbox_addr(core_id)
  unsigned core_id = 0;
  isa::CoreKind kind = isa::CoreKind::kA;
  bool write_allocate = true;
  bool use_perf_counters = false;
  unsigned patterns = 4;
  /// Ablation knobs. cache_loop_iterations: total body executions of the
  /// cache-based wrapper (2 = loading + execution loop, the paper's recipe;
  /// 1 = no loading loop). omit_nwa_dummy_loads: disable the no-write-allocate
  /// dummy-load fix-up (paper Sec. III step 1) to demonstrate why it exists.
  unsigned cache_loop_iterations = 2;
  bool omit_nwa_dummy_loads = false;
  /// Suite mode: end with `ret` instead of `halt` so a scheduler can chain
  /// routines; the caller provides prologue/halt.
  bool as_subroutine = false;
  /// Static verification of the calibrated program (see LintMode).
  LintMode lint = LintMode::kReport;
};

struct BuiltTest {
  isa::Program prog;
  WrapperKind wrapper = WrapperKind::kPlain;
  BuildEnv env;
  u32 golden = 0;        // calibrated fault-free signature
  u32 code_bytes = 0;    // program code+constants footprint
  u32 tcm_bytes = 0;     // ITCM bytes permanently reserved (TCM wrapper only)
  u64 calib_cycles = 0;  // fault-free single-core execution time (reset->halt)
  std::string name;
  /// Static determinism verdict (empty when env.lint == LintMode::kOff).
  analysis::Report lint;
};

/// The verifier configuration build_wrapped() uses for a given build —
/// exposed so tools (stlint) lint exactly what the builder would enforce.
analysis::AnalysisConfig lint_config(const SelfTestRoutine& r, WrapperKind w,
                                     const BuildEnv& env);

/// Emit the wrapped routine into `a` with the given expected signature.
/// Returns the label of the entry point.
std::string emit_wrapped(isa::Assembler& a, const SelfTestRoutine& r,
                         WrapperKind w, const BuildEnv& env, u32 golden,
                         const std::string& lbl_prefix);

/// Assemble + calibrate (two-pass). Throws AsmError if the cache-based
/// program exceeds the I-cache size (the paper's rule 2.2 would then require
/// splitting the routine).
BuiltTest build_wrapped(const SelfTestRoutine& r, WrapperKind w, const BuildEnv& env);

/// Assemble without the calibration run — the static-analysis fast path
/// (stlint --matrix sweeps hundreds of placements). The image is bit-for-bit
/// what build_wrapped() produces except for the expected-signature constant,
/// which is immaterial to every cache-residency argument.
isa::Program assemble_wrapped(const SelfTestRoutine& r, WrapperKind w,
                              const BuildEnv& env, u32 golden = 0);

/// A routine built twice for the supervisor's degradation ladder
/// (runtime/supervisor.h): the cache-based program plus an uncacheable plain
/// rebuild at `fallback_code_base` — the paper's CacheCfg fallback path.
/// Each program carries its own calibrated golden; they coincide
/// (`signature_stable`) whenever the signature folds only architectural
/// values, and diverge for timing-folding routines (perf counters, ICU
/// recognition distance).
struct FallbackPair {
  BuiltTest cached;    // WrapperKind::kCacheBased at env.code_base
  BuiltTest fallback;  // WrapperKind::kPlain at fallback_code_base
  bool signature_stable = false;
};

FallbackPair build_with_fallback(const SelfTestRoutine& r, const BuildEnv& env,
                                 u32 fallback_code_base);

/// Read the verdict a wrapped test left in its mailbox.
struct TestVerdict {
  u32 status = 0;  // soc::kStatusRunning/Pass/Fail
  u32 signature = 0;
};
TestVerdict read_verdict(const soc::Soc& soc, u32 mailbox);

}  // namespace detstl::core
