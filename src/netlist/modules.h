#pragma once
// Gate-level netlists of the three graded modules, built per core kind and
// per physical-design instance (Style). Each wrapper owns its Netlist plus
// the input/output net bindings and struct<->lane codecs, and names the CPU
// side it stands in for: the `In`/`Out` structs of one module call and the
// `Model` interface a campaign hooks into the pipeline (netlist/adapters.h).
// Everything the fault campaign does with a module goes through these names
// plus encode/decode/outputs; the sequential ICU adds load_state.
//
// The input encodings are the contract between the CPU-side structs
// (cpu::FwdIn / HdcuIn / IcuIn) and the recorded traces replayed by the
// fault-simulation engine; they must stay stable.

#include <array>
#include <vector>

#include "cpu/forward.h"
#include "cpu/hazard.h"
#include "cpu/icu.h"
#include "netlist/netlist.h"

namespace detstl::netlist {

using cpu::FwdIn;
using cpu::FwdOut;
using cpu::HdcuIn;
using cpu::HdcuOut;
using cpu::IcuIn;
using cpu::IcuOut;
using isa::CoreKind;

/// Physical-design instance styles: cores A and B implement the same RTL with
/// different gate decompositions and buffer densities (hence different fault
/// lists), core C has its own 64-bit datapath.
Style instance_style(CoreKind kind);

// -----------------------------------------------------------------------------
// Forwarding Logic (Table II): the EX operand multiplexers.
// -----------------------------------------------------------------------------

class FwdNetlist {
 public:
  using In = FwdIn;
  using Out = FwdOut;
  using Model = cpu::ForwardModel;

  explicit FwdNetlist(CoreKind kind);

  CoreKind kind() const { return kind_; }
  unsigned width() const { return width_; }
  const Netlist& nl() const { return nl_; }

  void encode(const FwdIn& in, EvalState& s) const;
  FwdOut decode(const EvalState& s, unsigned lane) const;

  /// Output nets, for divergence screening.
  const std::vector<NetId>& outputs() const { return outputs_; }

 private:
  struct Port {
    std::array<NetId, 3> sel;
    NetId high = kNoNet;  // core C only
    std::vector<NetId> rf;
    std::array<std::vector<NetId>, 4> cand;
    std::vector<NetId> out;
  };

  CoreKind kind_;
  unsigned width_;
  Netlist nl_;
  std::array<Port, 4> ports_;
  std::vector<NetId> outputs_;
};

// -----------------------------------------------------------------------------
// Hazard Detection Control Unit (Table III): comparators, priority, stall.
// -----------------------------------------------------------------------------

class HdcuNetlist {
 public:
  using In = HdcuIn;
  using Out = HdcuOut;
  using Model = cpu::HazardModel;

  explicit HdcuNetlist(CoreKind kind);

  CoreKind kind() const { return kind_; }
  const Netlist& nl() const { return nl_; }

  void encode(const HdcuIn& in, EvalState& s) const;
  HdcuOut decode(const EvalState& s, unsigned lane) const;

  const std::vector<NetId>& outputs() const { return outputs_; }

 private:
  struct Consumer {
    std::array<NetId, 5> rs;
    NetId used = kNoNet;
    NetId is64 = kNoNet;  // core C only
  };
  struct Producer {
    std::array<NetId, 5> rd;
    NetId writes = kNoNet;
    NetId is64 = kNoNet;  // core C only
    NetId is_load = kNoNet;
  };

  CoreKind kind_;
  Netlist nl_;
  std::array<Consumer, 4> cons_;
  std::array<Producer, 4> prod_;
  std::array<std::array<NetId, 3>, 4> sel_out_;
  std::array<NetId, 4> high_out_;
  NetId stall_out_ = kNoNet;
  std::vector<NetId> outputs_;
};

// -----------------------------------------------------------------------------
// Interrupt Control Unit (Table III): pending flops, priority, cause mapping.
// -----------------------------------------------------------------------------

class IcuNetlist {
 public:
  using In = IcuIn;
  using Out = IcuOut;
  using Model = cpu::IcuModel;

  explicit IcuNetlist(CoreKind kind);

  CoreKind kind() const { return kind_; }
  const Netlist& nl() const { return nl_; }

  void encode(const IcuIn& in, EvalState& s) const;
  IcuOut decode(const EvalState& s, unsigned lane) const;
  /// Seed the pending flops (checkpoint restore), broadcasting to all lanes.
  void load_state(EvalState& s, u16 state) const;

  const std::vector<NetId>& outputs() const { return outputs_; }

 private:
  CoreKind kind_;
  Netlist nl_;
  std::array<NetId, isa::kNumIcuSources> in_events_;
  std::array<NetId, isa::kNumIcuSources> in_mie_;
  std::array<NetId, isa::kNumIcuSources> in_clear_;
  NetId in_ack_ = kNoNet;
  std::array<NetId, isa::kNumIcuSources> pending_q_;
  NetId irq_out_ = kNoNet;
  std::vector<NetId> cause_out_;
  std::array<NetId, isa::kNumIcuSources> pending_out_;
  std::vector<NetId> outputs_;
};

}  // namespace detstl::netlist
