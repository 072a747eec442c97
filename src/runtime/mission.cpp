#include "runtime/mission.h"

#include <algorithm>
#include <stdexcept>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/table.h"
#include "isa/assembler.h"
#include "runtime/campaign.h"

namespace detstl::runtime {

const char* mission_workload_name(MissionWorkloadKind k) {
  switch (k) {
    case MissionWorkloadKind::kMemStream: return "mem-stream";
    case MissionWorkloadKind::kPointerChase: return "ptr-chase";
    case MissionWorkloadKind::kCompute: return "compute";
  }
  return "?";
}

namespace {

// Flash layout. plan_schedule hands out 64 KiB per (core, routine) pair
// starting at kFlashBase + 0x4000; mission code and data live above 1 MiB,
// so schedules of up to 15 programs (the default 5-routine mix on 3 cores)
// never collide. run_mission guards the ceiling explicitly.
constexpr u32 kMissionCodeBase = mem::kFlashBase + 0x100000;
constexpr u32 kMissionCodeWindow = 0x1000;  // per (core, workload) kernel
constexpr u32 kChaseRingBase = mem::kFlashBase + 0x110000;
constexpr u32 kChaseRingWords = 8192;  // 32 KiB ring per core
constexpr u32 kStreamBase = mem::kFlashBase + 0x130000;
constexpr u32 kStreamWindow = 0x10000;  // 64 KiB sweep per core

u32 kernel_code_base(unsigned core, MissionWorkloadKind kind) {
  return kMissionCodeBase +
         (core * kNumMissionWorkloads + static_cast<unsigned>(kind)) * kMissionCodeWindow;
}

/// Build one read-only mission kernel for `core`: an infinite loop executing
/// from flash, no SRAM stores (so it cannot touch a mailbox or scratch area
/// by construction). `rng` supplies the seeded parameters.
isa::Program build_mission_kernel(unsigned core, MissionWorkloadKind kind, Rng& rng) {
  using namespace isa;
  Assembler a;
  a.org(kernel_code_base(core, kind));
  a.label("entry");
  a.set_entry("entry");
  switch (kind) {
    case MissionWorkloadKind::kMemStream: {
      const u32 lo = kStreamBase + core * kStreamWindow;
      // Line-stride loads sweep the window and wrap forever: a steady flash
      // read stream through the D-cache, the classic bandwidth-bound task.
      a.li(R4, lo);
      a.li(R6, lo + kStreamWindow);
      a.label("loop");
      a.lw(R5, R4, 0);
      a.addi(R4, R4, 32);
      a.bltu(R4, R6, "loop");
      a.beq(R0, R0, "entry");  // wrap: reload the base and sweep again
      break;
    }
    case MissionWorkloadKind::kPointerChase: {
      const u32 ring = kChaseRingBase + core * kChaseRingWords * 4;
      // next[i] = ring + 4*((i + s) mod N) with s odd and N a power of two:
      // gcd(s, N) = 1, so the chase is one full-cycle permutation — a
      // latency-bound dependent-load chain with no spatial locality.
      const u32 stride = static_cast<u32>(rng.below(kChaseRingWords / 2)) * 2 + 1;
      a.li(R5, ring);
      a.label("loop");
      a.lw(R5, R5, 0);
      a.beq(R0, R0, "loop");
      a.org(ring);
      for (u32 i = 0; i < kChaseRingWords; ++i)
        a.word(ring + 4 * ((i + stride) % kChaseRingWords));
      break;
    }
    case MissionWorkloadKind::kCompute: {
      // Register-only mixing loop: after the first I-cache fill it generates
      // no bus traffic at all — the control case for the interference table.
      a.li(R4, static_cast<u32>(rng.next_u64()));
      a.li(R6, 0x9e3779b9);
      a.label("loop");
      a.xor_(R5, R4, R6);
      a.add(R4, R4, R5);
      a.srli(R7, R4, 5);
      a.xor_(R4, R4, R7);
      a.beq(R0, R0, "loop");
      break;
    }
  }
  return a.assemble();
}

}  // namespace

unsigned MissionResult::divergences() const {
  unsigned n = 0;
  for (const MissionSliceRecord& r : records) n += r.sig_ok == 0 ? 1 : 0;
  return n;
}

unsigned MissionResult::bound_violations() const {
  unsigned n = 0;
  for (const MissionSliceRecord& r : records) n += r.bound_ok == 0 ? 1 : 0;
  return n;
}

u32 MissionResult::worst_wait() const {
  u32 w = 0;
  for (const MissionSliceRecord& r : records)
    w = std::max({w, r.stl_max_wait, r.mission_max_wait});
  return w;
}

std::vector<u8> MissionResult::outcome_vector() const {
  std::vector<u8> out;
  for (const MissionSliceRecord& r : records) {
    put32(out, r.slice);
    put8(out, r.tested_core);
    put_str(out, r.routine);
    out.insert(out.end(), r.workload.begin(), r.workload.end());
    put8(out, r.sig_ok);
    put8(out, r.timed_out);
    put8(out, r.bound_ok);
    put32(out, r.signature);
    put64(out, r.slice_cycles);
    put32(out, r.stl_max_wait);
    put32(out, r.mission_max_wait);
    put64(out, r.mission_grants);
  }
  put64(out, total_cycles);
  return out;
}

u64 MissionResult::digest() const { return fnv1a(outcome_vector()); }

MissionResult run_mission(const MissionSpec& spec) {
  if (spec.cores < 1 || spec.cores > soc::kMaxCores)
    throw std::runtime_error("mission: cores must be 1..3");

  const ResolvedRoutines routines = resolve_routines(spec.routines, "mission");
  if (spec.cores * routines.ptrs.size() > 15)
    throw std::runtime_error("mission: schedule would collide with the mission flash window");

  SchedulePlan plan = plan_schedule(routines.ptrs, spec.cores);
  // One kernel per (core, workload): the stream windows and chase rings are
  // per-core so concurrent mission tasks contend on distinct flash lines.
  std::array<std::array<u32, kNumMissionWorkloads>, soc::kMaxCores> kernel_entry{};
  for (unsigned c = 0; c < spec.cores; ++c) {
    Rng rng(derive_run_seed(spec.seed, 0xC0DE + c));
    for (unsigned k = 0; k < kNumMissionWorkloads; ++k) {
      const isa::Program prog =
          build_mission_kernel(c, static_cast<MissionWorkloadKind>(k), rng);
      kernel_entry[c][k] = prog.entry();
      plan.soc.load_program(prog);
    }
  }

  soc::Soc soc = plan.soc;
  soc.set_trace_sink(spec.sink);
  soc.reset();

  MissionResult res;
  res.slices = spec.slices;
  res.cores = spec.cores;
  res.seed = spec.seed;
  res.routine_names = routines.names;
  res.bound = analysis::interference_bound(soc.config().mem, spec.cores);
  res.records.reserve(spec.slices);

  Rng assign(derive_run_seed(spec.seed, 0xA551));
  const unsigned ports = 3 * spec.cores;
  std::vector<u64> grants_before(ports, 0);

  for (u32 s = 0; s < spec.slices; ++s) {
    const unsigned tested = s % spec.cores;
    const std::size_t ri = s % plan.schedule[tested].size();
    const PlannedRoutine& r = plan.schedule[tested][ri];

    MissionSliceRecord rec;
    rec.slice = s;
    rec.tested_core = static_cast<u8>(tested);
    rec.routine = r.name;

    // Mission cores restart into seeded workloads each slice (a restart
    // hard-resets the core's cache view, so every slice opens with a cold
    // refill burst — the worst-case contention the d_max bound covers).
    for (unsigned c = 0; c < spec.cores; ++c) {
      if (c == tested) continue;
      const unsigned k = static_cast<unsigned>(assign.below(kNumMissionWorkloads));
      rec.workload[c] = static_cast<u8>(k);
      soc.restart_core(c, kernel_entry[c][k]);
    }

    for (unsigned p = 0; p < ports; ++p) grants_before[p] = soc.bus().stats(p).grants;
    soc.bus().reset_wait_marks();

    soc.restart_core(tested, r.cached_entry);
    DETSTL_TRACE(soc.trace_sink(),
                 trace::Event{.cycle = soc.now(),
                              .kind = trace::EventKind::kMissionSlice,
                              .core = static_cast<u8>(tested),
                              .addr = r.cached_entry,
                              .a = static_cast<u32>(ri),
                              .b = s});

    const u64 start = soc.now();
    const u64 deadline = start + watchdog_budget(r.cached_calib, spec.supervisor);
    while (!soc.core(tested).halted() && soc.now() < deadline) soc.tick();
    rec.slice_cycles = soc.now() - start;

    if (soc.core(tested).halted()) {
      const core::TestVerdict v = core::read_verdict(soc, r.mailbox);
      rec.signature = v.signature;
      rec.sig_ok =
          (v.status == soc::kStatusPass && v.signature == r.cached_golden) ? 1 : 0;
    } else {
      rec.timed_out = 1;
    }

    for (unsigned p = 0; p < ports; ++p) {
      const mem::BusStats& st = soc.bus().stats(p);
      const u32 w = static_cast<u32>(st.max_wait_cycles);
      if (p / 3 == tested)
        rec.stl_max_wait = std::max(rec.stl_max_wait, w);
      else
        rec.mission_max_wait = std::max(rec.mission_max_wait, w);
      if (p / 3 != tested) rec.mission_grants += st.grants - grants_before[p];
    }
    rec.bound_ok =
        (rec.stl_max_wait <= res.bound.d_max && rec.mission_max_wait <= res.bound.d_max)
            ? 1
            : 0;
    DETSTL_TRACE(soc.trace_sink(),
                 trace::Event{.cycle = soc.now(),
                              .kind = trace::EventKind::kMissionCheck,
                              .core = static_cast<u8>(tested),
                              .flags = static_cast<u8>((rec.sig_ok ? 1 : 0) |
                                                       (rec.bound_ok ? 2 : 0)),
                              .a = rec.signature,
                              .b = rec.mission_max_wait});

    // Gap: the tested core joins the mission fleet until the next slice.
    const unsigned gk = static_cast<unsigned>(assign.below(kNumMissionWorkloads));
    soc.restart_core(tested, kernel_entry[tested][gk]);
    for (u64 t = 0; t < spec.gap_cycles; ++t) soc.tick();

    res.records.push_back(std::move(rec));
  }

  for (unsigned c = 0; c < spec.cores; ++c) soc.park_core(c);
  res.total_cycles = soc.now();
  return res;
}

std::string render_mission_report(const MissionResult& r) {
  std::string out = "predicted bound (stlint): t_max " + std::to_string(r.bound.t_max) +
                    ", d_max " + std::to_string(r.bound.d_max) + " cycles across " +
                    std::to_string(r.bound.requesters) + " requesters\n\n";

  TextTable tab("mission slices");
  tab.header({"slice", "core", "routine", "mission workloads", "signature", "stl wait",
              "mission wait", "grants", "bound"});
  for (const MissionSliceRecord& rec : r.records) {
    std::string loads;
    for (unsigned c = 0; c < r.cores; ++c) {
      if (rec.workload[c] == 0xff) continue;
      if (!loads.empty()) loads += "+";
      loads += mission_workload_name(static_cast<MissionWorkloadKind>(rec.workload[c]));
    }
    if (loads.empty()) loads = "-";
    tab.row({TextTable::fmt_int(rec.slice),
             std::string(1, static_cast<char>('A' + rec.tested_core)), rec.routine, loads,
             rec.timed_out != 0 ? "TIMEOUT"
                                : (rec.sig_ok != 0 ? "ok " + TextTable::fmt_hex(rec.signature)
                                                   : "DIVERGED " + TextTable::fmt_hex(rec.signature)),
             TextTable::fmt_int(rec.stl_max_wait), TextTable::fmt_int(rec.mission_max_wait),
             TextTable::fmt_int(static_cast<long long>(rec.mission_grants)),
             rec.bound_ok != 0 ? "ok" : "VIOLATED"});
  }
  out += tab.str() + "\n";

  const u32 worst = r.worst_wait();
  out += "signature divergence: " + std::to_string(r.divergences()) + " of " +
         std::to_string(r.slices) + " slices\n";
  out += "measured worst per-access wait: " + std::to_string(worst) + " of predicted d_max " +
         std::to_string(r.bound.d_max);
  if (r.bound.d_max != 0)
    out += " (" + std::to_string(worst * 100 / r.bound.d_max) + "% of bound, " +
           std::to_string(r.bound_violations()) + " violations)";
  return frame_report("mission mode: " + std::to_string(r.slices) + " STL slices",
                      r.seed, r.cores, r.routine_names, out + "\n", r.digest());
}

}  // namespace detstl::runtime
