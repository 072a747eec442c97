#include "soc/soc.h"

#include <cassert>

#include "perf/simstats.h"

namespace detstl::soc {

Soc::Soc(const SocConfig& cfg) : cfg_(cfg) {
  cores_.reserve(kMaxCores);
  for (unsigned i = 0; i < kMaxCores; ++i) {
    cpu::CpuConfig cc;
    cc.kind = static_cast<isa::CoreKind>(i);
    cc.core_id = i;
    cc.mem = cfg.mem;
    cores_.emplace_back(cc);
  }
}

void Soc::load_program(const isa::Program& prog) {
  for (const auto& seg : prog.segments()) {
    if (mem::is_flash(seg.base)) {
      flash_.write_image(seg.base, seg.bytes);
    } else if (mem::is_sram(seg.base)) {
      for (u32 i = 0; i < seg.bytes.size(); ++i)
        sram_.write8(seg.base + i, seg.bytes[i]);
    } else {
      assert(false && "program segments must target Flash or SRAM");
    }
  }
}

void Soc::set_boot(unsigned core_id, u32 pc) {
  assert(core_id < cores_.size());
  boot_pc_[core_id] = pc;
  active_[core_id] = true;
}

void Soc::set_active(unsigned core_id, bool active) { active_[core_id] = active; }

void Soc::set_trace_sink(trace::EventSink* sink) {
  trace_sink_ = sink;
  bus_.set_trace_sink(sink);
  for (auto& c : cores_) c.set_trace_sink(sink);
}

void Soc::reset() {
  now_ = 0;
  flash_.invalidate_buffer();
  bus_ = mem::SharedBus{};
  bus_.set_trace_sink(trace_sink_);  // the fresh bus loses the sink otherwise
  for (unsigned i = 0; i < cores_.size(); ++i) {
    if (active_[i]) cores_[i].reset(boot_pc_[i]);
  }
}

void Soc::restart_core(unsigned core_id, u32 pc) {
  assert(core_id < cores_.size());
  for (unsigned port = 0; port < 3; ++port) bus_.cancel_requester(core_id * 3 + port);
  cores_[core_id].memsys().hard_reset();
  cores_[core_id].reset(pc);
  boot_pc_[core_id] = pc;
  active_[core_id] = true;
}

void Soc::park_core(unsigned core_id) {
  assert(core_id < cores_.size());
  for (unsigned port = 0; port < 3; ++port) bus_.cancel_requester(core_id * 3 + port);
  cores_[core_id].memsys().hard_reset();
  active_[core_id] = false;
}

void Soc::tick() {
  ++now_;
  for (unsigned i = 0; i < cores_.size(); ++i) {
    if (active_[i] && now_ > cfg_.start_delay[i]) cores_[i].cycle(bus_);
  }
  bus_.tick(flash_, sram_);
  for (unsigned i = 0; i < cores_.size(); ++i) {
    if (active_[i]) cores_[i].post_tick(bus_);
  }
}

bool Soc::all_halted() const {
  for (unsigned i = 0; i < cores_.size(); ++i) {
    if (active_[i] && !cores_[i].halted()) return false;
  }
  return true;
}

Soc::RunResult Soc::run(u64 max_cycles) {
  RunResult res;
  const u64 start = now_;
  while (!all_halted()) {
    if (now_ >= max_cycles) {
      res.timed_out = true;
      break;
    }
    tick();
  }
  res.cycles = now_;
  // Only the delta this call simulated (run() may continue an already-run
  // SoC). The campaign engines tick() manually and account their own stats,
  // so kSocRunCycles never double-counts campaign work.
  perf::sim_totals().add(perf::SimStat::kSocRunCycles, now_ - start);
  return res;
}

u32 Soc::debug_read32(u32 addr) const {
  // Prefer a dirty cached copy if some core holds one (coherent debug view).
  for (const auto& c : cores_) {
    if (c.memsys().dcache().probe(addr)) return c.memsys().dcache().read(addr, 4);
  }
  if (mem::is_flash(addr)) return flash_.read32(addr);
  assert(mem::is_sram(addr));
  return sram_.read32(addr);
}

u32 Soc::debug_read32(unsigned core_id, u32 addr) const {
  const auto& ms = cores_[core_id].memsys();
  if (ms.itcm().contains(addr)) return ms.itcm().read(addr, 4);
  if (ms.dtcm().contains(addr)) return ms.dtcm().read(addr, 4);
  return debug_read32(addr);
}

void Soc::debug_write32(u32 addr, u32 value) {
  assert(mem::is_sram(addr));
  sram_.write32(addr, value);
}

bool same_state(const Soc& a, const Soc& b) {
  if (a.active_ != b.active_ || a.boot_pc_ != b.boot_pc_ ||
      !a.flash_.same_state(b.flash_) || !a.bus_.same_state(b.bus_))
    return false;
  for (unsigned i = 0; i < kMaxCores; ++i)
    if (!a.cores_[i].same_state(b.cores_[i])) return false;
  return a.sram_ == b.sram_;
}

void Soc::flip_ram_bit(u32 addr, unsigned bit) {
  assert(mem::is_sram(addr));
  sram_.write32(addr, sram_.read32(addr) ^ (u32{1} << (bit % 32)));
}

}  // namespace detstl::soc
