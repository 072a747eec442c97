#include "netlist/netlist.h"

namespace detstl::netlist {

NetId Netlist::input() { return add_raw(GateOp::kInput, kNoNet, kNoNet, num_inputs_++); }

NetId Netlist::constant(bool one) {
  return add_raw(one ? GateOp::kConst1 : GateOp::kConst0, kNoNet, kNoNet, 0);
}

NetId Netlist::dff() {
  const NetId q = add_raw(GateOp::kDff, kNoNet, kNoNet, num_flops_++);
  flop_qd_.emplace_back(q, kNoNet);
  return q;
}

void Netlist::connect_dff(NetId q, NetId d) {
  for (auto& [fq, fd] : flop_qd_) {
    if (fq == q) {
      assert(fd == kNoNet && "DFF already connected");
      fd = d;
      return;
    }
  }
  assert(false && "not a DFF net");
}

NetId Netlist::add(GateOp op, NetId a, NetId b) {
  assert(a < gates_.size());
  assert(b == kNoNet || b < gates_.size());
  NetId out = add_raw(op, a, b, 0);
  // Style: random buffer insertion models routing/physical differences
  // between instantiations and enlarges the structural fault list.
  while (style_.buf_prob > 0.0 && rng_.chance(style_.buf_prob))
    out = add_raw(GateOp::kBuf, out, kNoNet, 0);
  return out;
}

NetId Netlist::add_raw(GateOp op, NetId a, NetId b, u32 aux) {
  gates_.push_back(Gate{op, a, b, aux});
  return static_cast<NetId>(gates_.size() - 1);
}

NetId Netlist::and_n(std::span<const NetId> in) {
  assert(!in.empty());
  if (in.size() == 1) return in[0];
  // Balanced tree.
  std::vector<NetId> layer(in.begin(), in.end());
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(and2(layer[i], layer[i + 1]));
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  return layer[0];
}

NetId Netlist::or_n(std::span<const NetId> in) {
  assert(!in.empty());
  if (in.size() == 1) return in[0];
  std::vector<NetId> layer(in.begin(), in.end());
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(or2(layer[i], layer[i + 1]));
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  return layer[0];
}

NetId Netlist::mux2(NetId s, NetId a, NetId b) {
  if (style_.nand_nand) {
    // NAND-NAND decomposition: ~(~(s&a) & ~(~s&b)).
    const NetId ns = not_(s);
    return nand2(nand2(s, a), nand2(ns, b));
  }
  const NetId ns = not_(s);
  return or2(and2(s, a), and2(ns, b));
}

NetId Netlist::eq_n(std::span<const NetId> a, std::span<const NetId> b) {
  assert(a.size() == b.size() && !a.empty());
  std::vector<NetId> bits;
  bits.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) bits.push_back(xnor2(a[i], b[i]));
  return and_n(bits);
}

std::vector<NetId> Netlist::inc_n(std::span<const NetId> a) {
  std::vector<NetId> out;
  out.reserve(a.size());
  NetId carry = constant(true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(xor2(a[i], carry));
    if (i + 1 < a.size()) carry = and2(a[i], carry);
  }
  return out;
}

std::vector<NetId> Netlist::gate_n(std::span<const NetId> a, NetId en) {
  std::vector<NetId> out;
  out.reserve(a.size());
  for (NetId n : a) out.push_back(and2(n, en));
  return out;
}

std::vector<Fault> Netlist::fault_list() const {
  std::vector<Fault> faults;
  faults.reserve(gates_.size() * 2);
  for (NetId n = 0; n < gates_.size(); ++n) {
    const GateOp op = gates_[n].op;
    if (op == GateOp::kConst0 || op == GateOp::kConst1) continue;
    faults.push_back(Fault{n, false});
    faults.push_back(Fault{n, true});
  }
  return faults;
}

EvalState Netlist::make_state() const {
  EvalState s;
  s.value.assign(gates_.size(), 0);
  s.inputs.assign(num_inputs_, 0);
  s.flops.assign(num_flops_, 0);
  s.force0.assign(gates_.size(), 0);
  s.force1.assign(gates_.size(), 0);
  return s;
}

// The gate loop is most of a fault campaign's host time, and its speed
// depends on where it sits relative to cache lines: moving it by 32 bytes
// (unrelated code linked ahead of it grew) cost perfbench table3 ~9% on an
// x86-64 Xeon. Starting it on a cache line keeps that layout fixed.
[[gnu::aligned(64)]] void Netlist::eval(EvalState& s) const {
  assert(s.value.size() == gates_.size());
  for (NetId n = 0; n < gates_.size(); ++n) {
    const Gate& g = gates_[n];
    u64 v = 0;
    switch (g.op) {
      case GateOp::kInput: v = s.inputs[g.aux]; break;
      case GateOp::kConst0: v = 0; break;
      case GateOp::kConst1: v = ~0ull; break;
      case GateOp::kBuf: v = s.value[g.a]; break;
      case GateOp::kNot: v = ~s.value[g.a]; break;
      case GateOp::kAnd: v = s.value[g.a] & s.value[g.b]; break;
      case GateOp::kOr: v = s.value[g.a] | s.value[g.b]; break;
      case GateOp::kNand: v = ~(s.value[g.a] & s.value[g.b]); break;
      case GateOp::kNor: v = ~(s.value[g.a] | s.value[g.b]); break;
      case GateOp::kXor: v = s.value[g.a] ^ s.value[g.b]; break;
      case GateOp::kXnor: v = ~(s.value[g.a] ^ s.value[g.b]); break;
      case GateOp::kDff: v = s.flops[g.aux]; break;
    }
    s.value[n] = (v | s.force1[n]) & ~s.force0[n];
  }
}

void Netlist::clock(EvalState& s) const {
  for (const auto& [q, d] : flop_qd_) {
    assert(d != kNoNet && "unconnected DFF");
    s.flops[gates_[q].aux] = s.value[d];
  }
}

void Netlist::clear_faults(EvalState& s) {
  std::fill(s.force0.begin(), s.force0.end(), 0);
  std::fill(s.force1.begin(), s.force1.end(), 0);
}

void Netlist::inject(EvalState& s, const Fault& f, u64 lane_mask) {
  (f.stuck1 ? s.force1 : s.force0)[f.net] |= lane_mask;
}

}  // namespace detstl::netlist
