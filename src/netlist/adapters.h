#pragma once
// Netlist-backed implementations of the CPU module interfaces. A fault
// campaign installs these via CpuHooks to drive the pipeline from gate-level
// logic, optionally with one injected stuck-at fault (broadcast to every
// lane; lane 0 is read back).
//
// Each model memoises its netlist by input. Netlist::eval computes every net
// from the primary inputs, the flops and the fault overlay alone, and a model
// broadcasts all three to every lane, so under a fixed fault the decoded
// output and the next flop state are a pure function of the lane-0 bits of
// the inputs and the flops. A model settles the netlist once per distinct
// key and answers every repeat from its memo; set_fault() clears the memo
// (docs/fault_simulation.md, "Memoised module evaluation").

#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "netlist/modules.h"

namespace detstl::netlist {

/// Set of fixed-width bit-vector keys, numbered 0, 1, 2, ... in insertion
/// order so the caller keeps each key's values in vectors of its own. Open
/// addressing over one flat slot array: the keys plus at most 8 bytes of
/// slots per entry.
class KeyTable {
 public:
  explicit KeyTable(std::size_t key_words) : words_(key_words) {}

  /// The number of `key` (key_words words), which is size() if it is new.
  u32 find_or_add(const u64* key);
  u32 size() const { return size_; }
  void clear();

 private:
  void grow();

  std::size_t words_;
  u32 size_ = 0;
  std::vector<u64> keys_;   // key e at [e * words_, (e + 1) * words_)
  std::vector<u32> slots_;  // key number + 1, or 0 when free; 2^k long
};

/// `Mod::Model` computed by the module netlist `Mod`: encode the call's
/// inputs, settle the logic, decode lane 0; memoised by input.
template <class Mod>
class NetlistModel : public Mod::Model {
 public:
  using In = typename Mod::In;
  using Out = typename Mod::Out;

  explicit NetlistModel(const Mod& mod)
      : mod_(&mod),
        state_(mod.nl().make_state()),
        flop_words_(words_for(mod.nl().num_flops())),
        key_(words_for(mod.nl().num_inputs() + mod.nl().num_flops())),
        memo_(key_.size()) {}

  void set_fault(std::optional<Fault> f) {
    Netlist::clear_faults(state_);
    if (f) Netlist::inject(state_, *f, ~0ull);
    memo_.clear();
    outs_.clear();
    next_flops_.clear();
  }

  Out eval(const In& in) override { return outs_[lookup(in)]; }

  /// eval and clock calls so far, and the Netlist::eval passes they took.
  u64 calls() const { return calls_; }
  u64 evals() const { return evals_; }

  /// The flops, one word of lanes each: the model's state, which the SoC
  /// does not hold. Empty for the combinational modules.
  std::span<const u64> flops() const { return state_.flops; }

 protected:
  /// The memo entry of `in` under the current flops. A miss settles the
  /// netlist and stores its decoded output and next flop state.
  u32 lookup(const In& in) {
    ++calls_;
    mod_->encode(in, state_);
    make_key();
    const u32 e = memo_.find_or_add(key_.data());
    if (e < outs_.size()) return e;

    mod_->nl().eval(state_);
    ++evals_;
    outs_.push_back(mod_->decode(state_, 0));
    next_flops_.resize(next_flops_.size() + flop_words_, 0);
    for (const auto& [q, d] : mod_->nl().flops()) {
      const u32 f = mod_->nl().gate(q).aux;
      next_flops_[e * flop_words_ + f / 64] |= (state_.value[d] & 1)
                                              << (f % 64);
    }
    return e;
  }

  /// Commit entry `e`'s next state into the flops, as Netlist::clock does
  /// after settling the same inputs.
  void clock_to(u32 e) {
    for (std::size_t f = 0; f < state_.flops.size(); ++f) {
      const u64 next = next_flops_[e * flop_words_ + f / 64] >> (f % 64);
      state_.flops[f] = next & 1 ? ~0ull : 0ull;
    }
  }

  const Mod* mod_;
  EvalState state_;

 private:
  static std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

  /// Pack lane 0 of the inputs, then of the flops, into key_.
  void make_key() {
    u64* out = key_.data();
    u64 word = 0;
    unsigned bit = 0;
    const auto push = [&](u64 lanes) {
      word |= (lanes & 1) << bit;
      if (++bit == 64) {
        *out++ = word;
        word = 0;
        bit = 0;
      }
    };
    for (const u64 lanes : state_.inputs) push(lanes);
    for (const u64 lanes : state_.flops) push(lanes);
    if (bit != 0) *out = word;
  }

  std::size_t flop_words_;
  std::vector<u64> key_;  // scratch: the current call's key
  KeyTable memo_;
  std::vector<Out> outs_;        // per memo entry
  std::vector<u64> next_flops_;  // per memo entry, flop_words_ words
  u64 calls_ = 0;
  u64 evals_ = 0;
};

using NetlistHazard = NetlistModel<HdcuNetlist>;
using NetlistForward = NetlistModel<FwdNetlist>;

/// The ICU, the only sequential module, also commits and restores its flops.
class NetlistIcu final : public NetlistModel<IcuNetlist> {
 public:
  using NetlistModel::NetlistModel;

  void clock(const IcuIn& in) override { clock_to(lookup(in)); }

  void load_state(u16 state) override { mod_->load_state(state_, state); }
};

/// The model a fault campaign installs for module `Mod`.
template <class Mod>
using NetlistModelFor =
    std::conditional_t<std::is_same_v<Mod, IcuNetlist>, NetlistIcu, NetlistModel<Mod>>;

}  // namespace detstl::netlist
