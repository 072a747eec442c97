#include "core/wrapper.h"

#include <algorithm>
#include <stdexcept>

#include "core/signature.h"

namespace detstl::core {

using namespace isa;

const char* wrapper_name(WrapperKind k) {
  switch (k) {
    case WrapperKind::kPlain: return "plain";
    case WrapperKind::kCacheBased: return "cache-based";
    case WrapperKind::kTcmBased: return "tcm-based";
  }
  return "?";
}

namespace {

bool use_pcs(const SelfTestRoutine& r, const BuildEnv& env) {
  return env.use_perf_counters || r.wants_perf_counters();
}

RoutineEnv routine_env(const SelfTestRoutine& r, const BuildEnv& env) {
  RoutineEnv re;
  re.kind = env.kind;
  re.data_base = env.data_base;
  re.use_perf_counters = use_pcs(r, env);
  re.dummy_load_after_store = !env.write_allocate && !env.omit_nwa_dummy_loads;
  re.patterns = env.patterns;
  return re;
}

u32 mailbox_of(const BuildEnv& env) {
  return env.mailbox != 0 ? env.mailbox : soc::mailbox_addr(env.core_id);
}

/// Counter-snapshot slots at the top of the private DTCM (single-cycle
/// access, never on the bus, away from routine data).
constexpr u32 kSnapBase = mem::kDtcmBase + mem::kDtcmSize - 16;

/// Per-iteration prologue: seed the signature, snapshot the performance
/// counters, clear the ISR accumulator. The PC-based signature covers the
/// HDCU stalls and splits (the [19] algorithm's observable) plus the IF/MEM
/// stall counters — the ones Fig. 1 shows destabilising under contention.
void emit_iteration_prologue(Assembler& a, const SelfTestRoutine& r,
                             const BuildEnv& env) {
  a.li(R29, kSignatureSeed);
  if (r.needs_isr()) a.addi(R28, R0, 0);
  if (use_pcs(r, env)) {
    a.csrr(R22, Csr::kHdcuStall);
    a.csrr(R21, Csr::kSplit);
    a.li(R26, kSnapBase);
    a.csrr(R27, Csr::kIfStall);
    a.sw(R27, R26, 0);
    a.csrr(R27, Csr::kMemStall);
    a.sw(R27, R26, 4);
  }
}

/// Per-iteration epilogue: fold counter deltas and the ISR accumulator into
/// the signature.
void emit_iteration_epilogue(Assembler& a, const SelfTestRoutine& r,
                             const BuildEnv& env) {
  if (use_pcs(r, env)) {
    a.csrr(R27, Csr::kHdcuStall);
    a.sub(R27, R27, R22);
    emit_misr_acc(a, R27);
    a.csrr(R27, Csr::kSplit);
    a.sub(R27, R27, R21);
    emit_misr_acc(a, R27);
    // Both snapshots loaded up front: the MISR fold clobbers r26.
    a.li(R26, kSnapBase);
    a.lw(R22, R26, 0);
    a.lw(R21, R26, 4);
    a.csrr(R27, Csr::kIfStall);
    a.sub(R27, R27, R22);
    emit_misr_acc(a, R27);
    a.csrr(R27, Csr::kMemStall);
    a.sub(R27, R27, R21);
    emit_misr_acc(a, R27);
  }
  if (r.needs_isr()) emit_misr_acc(a, R28);
}

/// Signature check + mailbox report + halt/ret, and the golden constant.
/// Caches are disabled first: the mailbox must be written uncached so the
/// verdict survives the next test's invalidate and is visible off-core
/// (the private L1s are not coherent).
void emit_check(Assembler& a, const BuildEnv& env, u32 golden,
                const std::string& p) {
  a.csrw(Csr::kCacheCfg, R0);
  a.sw(R29, R24, 4);  // observed signature -> mailbox word 1
  a.la(R1, p + "_golden");
  a.lw(R2, R1, 0);
  a.bne(R29, R2, p + "_fail");
  a.addi(R3, R0, static_cast<i32>(soc::kStatusPass));
  a.sw(R3, R24, 0);
  a.beq(R0, R0, p + "_end");
  a.label(p + "_fail");
  a.addi(R3, R0, static_cast<i32>(soc::kStatusFail));
  a.sw(R3, R24, 0);
  a.label(p + "_end");
  if (env.as_subroutine) {
    a.ret();
  } else {
    a.halt();
  }
  a.align_data(4);
  a.label(p + "_golden");
  a.word(golden);
}

void emit_isr_setup(Assembler& a, const std::string& isr_label) {
  a.la(R1, isr_label);
  a.csrw(Csr::kMtvec, R1);
  a.li(R1, 0xf);
  a.csrw(Csr::kMie, R1);
  a.li(R1, kMstatusIe);
  a.csrw(Csr::kMstatus, R1);
}

void emit_plain(Assembler& a, const SelfTestRoutine& r, const BuildEnv& env,
                u32 golden, const std::string& p) {
  a.csrw(Csr::kCacheCfg, R0);  // caches off: the legacy single-core structure
  if (r.needs_isr()) emit_isr_setup(a, p + "_isr");
  emit_iteration_prologue(a, r, env);
  r.emit_body(a, routine_env(r, env), p + "_b");
  emit_iteration_epilogue(a, r, env);
  emit_check(a, env, golden, p);
  if (r.needs_isr()) {
    a.label(p + "_isr");
    emit_icu_isr(a);
  }
}

void emit_cache_based(Assembler& a, const SelfTestRoutine& r, const BuildEnv& env,
                      u32 golden, const std::string& p) {
  // Fig. 2b block b: invalidate both private caches, then enable them.
  a.li(R1, kCacheOpInvI | kCacheOpInvD);
  a.csrw(Csr::kCacheOp, R1);
  u32 cfg = kCacheCfgIEn | kCacheCfgDEn;
  if (env.write_allocate) cfg |= kCacheCfgWriteAllocate;
  a.li(R1, cfg);
  a.csrw(Csr::kCacheCfg, R1);
  if (r.needs_isr()) emit_isr_setup(a, p + "_isr");

  // Fig. 2b blocks c/d: the body executed twice. Iteration 1 is the loading
  // loop (signature discarded by re-seeding), iteration 2 the execution loop.
  a.addi(R30, R0, static_cast<i32>(env.cache_loop_iterations));
  // Enter the loop through a taken jump: the redirect discards the fetch
  // queue, so the line holding the loop entry — prefetched before the
  // invalidate committed — is re-fetched through the (now empty) I-cache
  // during the loading pass. Falling through instead leaves that line
  // stale-but-executed, and its refill fires inside the execution loop:
  // the one bus access the paper's invariant forbids (caught by
  // trace::audit_determinism).
  a.jal(R0, p + "_loop");
  a.label(p + "_loop");
  emit_iteration_prologue(a, r, env);
  r.emit_body(a, routine_env(r, env), p + "_b");
  emit_iteration_epilogue(a, r, env);
  // Pin the decrement + loop branch to the start of their own cache line
  // (the alignment NOPs are loop-body tail, warm in both passes). This
  // leaves 24 warm bytes after the branch, which covers the front end's
  // fetch-ahead at both loop boundaries: at the end of the loading pass the
  // wrong-path packets past the taken branch all hit (an unaligned branch
  // near its line end lets them miss, and the discarded refill then blocks
  // the execution loop's first fetch for a contention-dependent drain —
  // memsys ifetch_cancel semantics); at the final fall-through the fetch
  // stream reaches the check epilogue's first cold line only after the
  // counter write's EX-time phase marker, so the miss is attributed to the
  // signature check, not the execution loop.
  a.align(32);  // mem::MemSystemConfig I-cache line size
  a.addi(R30, R30, -1);
  a.bne(R30, R0, p + "_loop");

  emit_check(a, env, golden, p);
  if (r.needs_isr()) {
    a.label(p + "_isr");
    emit_icu_isr(a);
  }
}

void emit_tcm_based(Assembler& a, const SelfTestRoutine& r, const BuildEnv& env,
                    u32 golden, const std::string& p) {
  a.csrw(Csr::kCacheCfg, R0);

  // Copy the routine block from flash into the instruction TCM. Unrolled by
  // four words (the block is 16-byte padded): the sequential data reads ride
  // the flash controller's data-side line buffer.
  a.la(R1, p + "_tcm_src");
  a.la(R2, p + "_tcm_end");
  a.li(R3, mem::kItcmBase);
  a.label(p + "_copy");
  for (i32 off = 0; off < 16; off += 4) {
    a.lw(R4, R1, off);
    a.sw(R4, R3, off);
  }
  a.addi(R1, R1, 16);
  a.addi(R3, R3, 16);
  a.bne(R1, R2, p + "_copy");

  if (r.needs_isr()) {
    // Vector to the ISR's TCM copy: kItcmBase + (isr - tcm_src).
    a.la(R1, p + "_tcm_src");
    a.la(R2, p + "_isr");
    a.sub(R2, R2, R1);
    a.li(R1, mem::kItcmBase);
    a.add(R2, R2, R1);
    a.csrw(Csr::kMtvec, R2);
    a.li(R1, 0xf);
    a.csrw(Csr::kMie, R1);
    a.li(R1, kMstatusIe);
    a.csrw(Csr::kMstatus, R1);
  }

  a.li(R20, mem::kItcmBase);
  a.jalr(R31, R20, 0);  // execute from the TCM, return below

  emit_check(a, env, golden, p);

  // The copied block. Internal control flow is PC-relative, data references
  // absolute, so the block is position-independent. 16-byte alignment at both
  // ends matches the copy loop's unroll granule.
  a.align(16);
  a.label(p + "_tcm_src");
  emit_iteration_prologue(a, r, env);
  r.emit_body(a, routine_env(r, env), p + "_b");
  emit_iteration_epilogue(a, r, env);
  a.ret();
  if (r.needs_isr()) {
    a.label(p + "_isr");
    emit_icu_isr(a);
  }
  a.align(16);  // pad to the copy-loop unroll granule
  a.label(p + "_tcm_end");
}

}  // namespace

analysis::AnalysisConfig lint_config(const SelfTestRoutine& r, WrapperKind w,
                                     const BuildEnv& env) {
  analysis::AnalysisConfig cfg;
  // Only the cache-based wrapper's guarantee rests on L1 residence; plain
  // and TCM wrappers get the structural lints only.
  cfg.check_cache_determinism = w == WrapperKind::kCacheBased;
  cfg.write_allocate = env.write_allocate;
  cfg.use_perf_counters = use_pcs(r, env);
  cfg.loop_symbol = "t0_loop";
  cfg.data_regions = {{env.data_base, std::max<u32>(r.data_bytes(), 4)}};
  cfg.shared_regions = {{mailbox_of(env), soc::kMailboxStride}};
  return cfg;
}

std::string emit_wrapped(Assembler& a, const SelfTestRoutine& r, WrapperKind w,
                         const BuildEnv& env, u32 golden,
                         const std::string& p) {
  a.label(p + "_entry");
  a.li(R24, mailbox_of(env));
  a.li(R25, env.data_base);
  a.sw(R0, R24, 0);  // status = running
  switch (w) {
    case WrapperKind::kPlain:
      emit_plain(a, r, env, golden, p);
      break;
    case WrapperKind::kCacheBased:
      emit_cache_based(a, r, env, golden, p);
      break;
    case WrapperKind::kTcmBased:
      emit_tcm_based(a, r, env, golden, p);
      break;
  }
  return p + "_entry";
}

Program assemble_wrapped(const SelfTestRoutine& r, WrapperKind w,
                         const BuildEnv& env, u32 golden) {
  Assembler a(env.code_base);
  const std::string entry = emit_wrapped(a, r, w, env, golden, "t0");
  a.set_entry(entry);
  return a.assemble();
}

BuiltTest build_wrapped(const SelfTestRoutine& r, WrapperKind w, const BuildEnv& env) {
  auto assemble = [&](u32 golden, bool as_sub) {
    BuildEnv e = env;
    e.as_subroutine = as_sub;
    Assembler a(env.code_base);
    const std::string entry = emit_wrapped(a, r, w, e, golden, "t0");
    a.set_entry(entry);
    return a.assemble();
  };

  // Pass 1: placeholder golden, fault-free isolated run (standalone variant).
  const Program p0 = assemble(0, false);
  soc::Soc soc;
  soc.load_program(p0);
  soc.set_boot(env.core_id, p0.entry());
  soc.reset();
  const auto res = soc.run(5'000'000);
  if (res.timed_out)
    throw std::runtime_error("golden calibration timed out: " + r.name());
  const TestVerdict v = read_verdict(soc, mailbox_of(env));

  BuiltTest bt;
  bt.wrapper = w;
  bt.env = env;
  bt.golden = v.signature;
  bt.calib_cycles = res.cycles;
  bt.name = r.name();
  bt.prog = assemble(bt.golden, env.as_subroutine);

  u32 hi = env.code_base;
  for (const auto& seg : bt.prog.segments()) hi = std::max(hi, seg.end());
  bt.code_bytes = hi - env.code_base;

  if (w == WrapperKind::kTcmBased) {
    bt.tcm_bytes = bt.prog.symbol("t0_tcm_end") - bt.prog.symbol("t0_tcm_src");
  }
  if (w == WrapperKind::kCacheBased) {
    const u32 icache_bytes = mem::MemSystemConfig{}.icache.size_bytes;
    if (bt.code_bytes > icache_bytes) {
      throw AsmError(r.name() + ": cache-based program (" +
                     std::to_string(bt.code_bytes) +
                     " B) exceeds the I-cache (" + std::to_string(icache_bytes) +
                     " B); split the routine (paper rule 2.2)");
    }
  }
  if (env.lint != LintMode::kOff) {
    // Lint the standalone (halt-terminated) variant: suite programs splice
    // the subroutine form into a larger image that is linted as a whole.
    bt.lint = analysis::analyze(env.as_subroutine ? p0 : bt.prog,
                                lint_config(r, w, env));
    if (env.lint == LintMode::kEnforce && !bt.lint.clean()) {
      throw analysis::AnalysisError(
          r.name() + " (" + wrapper_name(w) + "): static determinism check "
          "failed\n" + bt.lint.format(), bt.lint);
    }
  }
  return bt;
}

FallbackPair build_with_fallback(const SelfTestRoutine& r, const BuildEnv& env,
                                 u32 fallback_code_base) {
  FallbackPair pair;
  pair.cached = build_wrapped(r, WrapperKind::kCacheBased, env);
  BuildEnv fb = env;
  fb.code_base = fallback_code_base;
  pair.fallback = build_wrapped(r, WrapperKind::kPlain, fb);
  pair.signature_stable = pair.cached.golden == pair.fallback.golden;
  return pair;
}

TestVerdict read_verdict(const soc::Soc& soc, u32 mailbox) {
  TestVerdict v;
  v.status = soc.debug_read32(mailbox);
  v.signature = soc.debug_read32(mailbox + 4);
  return v;
}

}  // namespace detstl::core
