#pragma once
// Netlist-backed implementations of the CPU module interfaces. A fault
// campaign installs these via CpuHooks to drive the pipeline from gate-level
// logic, optionally with one injected stuck-at fault (broadcast to every
// lane; lane 0 is read back).

#include <optional>
#include <type_traits>

#include "netlist/modules.h"

namespace detstl::netlist {

/// `Mod::Model` computed by the module netlist `Mod`: encode the call's
/// inputs, settle the logic, decode lane 0.
template <class Mod>
class NetlistModel : public Mod::Model {
 public:
  explicit NetlistModel(const Mod& mod)
      : mod_(&mod), state_(mod.nl().make_state()) {}

  void set_fault(std::optional<Fault> f) {
    Netlist::clear_faults(state_);
    if (f) Netlist::inject(state_, *f, ~0ull);
  }

  typename Mod::Out eval(const typename Mod::In& in) override {
    settle(in);
    return mod_->decode(state_, 0);
  }

 protected:
  void settle(const typename Mod::In& in) {
    mod_->encode(in, state_);
    mod_->nl().eval(state_);
  }

  const Mod* mod_;
  EvalState state_;
};

using NetlistHazard = NetlistModel<HdcuNetlist>;
using NetlistForward = NetlistModel<FwdNetlist>;

/// The ICU, the only sequential module, also commits and restores its flops.
class NetlistIcu final : public NetlistModel<IcuNetlist> {
 public:
  using NetlistModel::NetlistModel;

  void clock(const IcuIn& in) override {
    settle(in);
    mod_->nl().clock(state_);
  }

  void load_state(u16 state) override { mod_->load_state(state_, state); }
};

/// The model a fault campaign installs for module `Mod`.
template <class Mod>
using NetlistModelFor =
    std::conditional_t<std::is_same_v<Mod, IcuNetlist>, NetlistIcu, NetlistModel<Mod>>;

}  // namespace detstl::netlist
