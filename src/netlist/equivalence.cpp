#include "netlist/equivalence.h"

namespace detstl::netlist {

namespace {

/// Union-find over fault nodes 2 * net + stuck1.
class Partition {
 public:
  explicit Partition(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<u32>(i);
  }
  u32 find(u32 x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void unite(u32 a, u32 b) { parent_[find(a)] = find(b); }

 private:
  std::vector<u32> parent_;
};

u32 node(NetId net, bool stuck1) { return 2 * net + (stuck1 ? 1 : 0); }

constexpr u32 kNoClass = 0xffffffffu;

}  // namespace

FaultClasses equivalence_classes(const Netlist& nl, std::span<const NetId> outputs,
                                 std::span<const Fault> faults) {
  const u32 nets = nl.num_nets();
  std::vector<u32> readers(nets, 0);
  std::vector<NetId> reader(nets, kNoNet);
  for (NetId g = 0; g < nets; ++g) {
    for (const NetId in : {nl.gate(g).a, nl.gate(g).b}) {
      if (in == kNoNet) continue;
      ++readers[in];
      reader[in] = g;
    }
  }
  std::vector<u8> singleton(nets, 0);
  for (const NetId o : outputs) singleton[o] = 1;
  for (const auto& [q, d] : nl.flops()) {
    singleton[q] = 1;
    if (d != kNoNet) singleton[d] = 1;
  }

  Partition part(2 * static_cast<std::size_t>(nets));
  for (NetId n = 0; n < nets; ++n) {
    if (readers[n] != 1 || singleton[n] != 0) continue;
    const NetId r = reader[n];
    switch (nl.gate(r).op) {
      case GateOp::kBuf:
        part.unite(node(n, false), node(r, false));
        part.unite(node(n, true), node(r, true));
        break;
      case GateOp::kNot:
        part.unite(node(n, false), node(r, true));
        part.unite(node(n, true), node(r, false));
        break;
      case GateOp::kAnd: part.unite(node(n, false), node(r, false)); break;
      case GateOp::kNand: part.unite(node(n, false), node(r, true)); break;
      case GateOp::kOr: part.unite(node(n, true), node(r, true)); break;
      case GateOp::kNor: part.unite(node(n, true), node(r, false)); break;
      default: break;  // XOR/XNOR: each input value matters
    }
  }

  FaultClasses out;
  out.class_of.reserve(faults.size());
  std::vector<u32> class_of_root(2 * static_cast<std::size_t>(nets), kNoClass);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    u32& c = class_of_root[part.find(node(faults[i].net, faults[i].stuck1))];
    if (c == kNoClass) {
      c = static_cast<u32>(out.representative.size());
      out.representative.push_back(static_cast<u32>(i));
    }
    out.class_of.push_back(c);
  }
  return out;
}

}  // namespace detstl::netlist
