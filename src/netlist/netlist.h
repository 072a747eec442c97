#pragma once
// Structural gate-level netlist with 64-lane bit-parallel evaluation.
//
// This is the fault-simulation substrate standing in for the paper's
// post-layout netlist + commercial fault simulator (see DESIGN.md Sec. 2).
// Netlists are built programmatically (like synthesised RTL) for the three
// graded modules: Forwarding Logic, HDCU and ICU. Evaluation carries 64
// "fault machines" per word: lane i of every net holds the value seen by
// fault machine i, and stuck-at faults are per-lane force masks — the
// classic parallel-fault simulation technique.
//
// Build rules:
//   * nets are created in topological order (a gate's operands must exist),
//   * DFF Q nets may be declared early and get their D input connected later
//     (sequential feedback), via dff()/connect_dff(),
//   * a Style controls the logic-family decomposition and random buffer
//     insertion so that two instantiations of the same function (cores A
//     and B) have different structural fault lists, mirroring "conceptually
//     identical but different physical design".

#include <cassert>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bitutil.h"
#include "common/rng.h"

namespace detstl::netlist {

using NetId = u32;
inline constexpr NetId kNoNet = 0xffffffffu;

enum class GateOp : u8 {
  kInput,
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,
  kOr,
  kNand,
  kNor,
  kXor,
  kXnor,
  kDff,  // Q net; D connected via connect_dff()
};

struct Gate {
  GateOp op = GateOp::kConst0;
  NetId a = kNoNet;
  NetId b = kNoNet;
  u32 aux = 0;  // input index for kInput, flop index for kDff
};

struct Style {
  bool nand_nand = false;  // decompose AND-OR structures into NAND-NAND
  double buf_prob = 0.0;   // probability of inserting a buffer after a gate
  u64 seed = 1;
};

/// Per-simulation evaluation state (the netlist itself stays immutable).
struct EvalState {
  std::vector<u64> value;   // per net, 64 lanes
  std::vector<u64> inputs;  // per primary input, 64 lanes
  std::vector<u64> flops;   // per DFF, 64 lanes
  std::vector<u64> force0;  // per net: lanes forced to 0 (stuck-at-0)
  std::vector<u64> force1;  // per net: lanes forced to 1 (stuck-at-1)

  /// Broadcast a scalar bit to all lanes of input `idx`.
  void set_input(u32 idx, bool v) { inputs[idx] = v ? ~0ull : 0ull; }
  bool lane_bit(NetId net, unsigned lane) const { return (value[net] >> lane) & 1; }
};

/// A stuck-at fault site.
struct Fault {
  NetId net = 0;
  bool stuck1 = false;
};

class Netlist {
 public:
  explicit Netlist(const Style& style = {}) : style_(style), rng_(style.seed) {}

  // --- construction -----------------------------------------------------------
  NetId input();
  NetId constant(bool one);
  NetId buf(NetId a) { return add(GateOp::kBuf, a); }
  NetId not_(NetId a) { return add(GateOp::kNot, a); }
  NetId and2(NetId a, NetId b) { return add(GateOp::kAnd, a, b); }
  NetId or2(NetId a, NetId b) { return add(GateOp::kOr, a, b); }
  NetId nand2(NetId a, NetId b) { return add(GateOp::kNand, a, b); }
  NetId nor2(NetId a, NetId b) { return add(GateOp::kNor, a, b); }
  NetId xor2(NetId a, NetId b) { return add(GateOp::kXor, a, b); }
  NetId xnor2(NetId a, NetId b) { return add(GateOp::kXnor, a, b); }

  /// Declare a flop; returns the Q net. Connect D later.
  NetId dff();
  void connect_dff(NetId q, NetId d);

  // --- composite builders (style-aware) ------------------------------------------
  NetId and_n(std::span<const NetId> in);
  NetId or_n(std::span<const NetId> in);
  /// 2:1 mux: s ? a : b.
  NetId mux2(NetId s, NetId a, NetId b);
  /// Equality of two n-bit vectors.
  NetId eq_n(std::span<const NetId> a, std::span<const NetId> b);
  /// n-bit increment (returns n bits; carry-out dropped).
  std::vector<NetId> inc_n(std::span<const NetId> a);
  /// AND of a vector with a single enable line.
  std::vector<NetId> gate_n(std::span<const NetId> a, NetId en);

  // --- introspection ------------------------------------------------------------
  u32 num_nets() const { return static_cast<u32>(gates_.size()); }
  u32 num_inputs() const { return num_inputs_; }
  u32 num_flops() const { return num_flops_; }
  const Gate& gate(NetId id) const { return gates_[id]; }
  /// (Q, D) nets of every flop, in declaration order.
  std::span<const std::pair<NetId, NetId>> flops() const { return flop_qd_; }

  /// Stuck-at fault list the coverage tables count: SA0 then SA1 on every
  /// net except constants. Equivalent faults are all listed; a campaign
  /// simulates one per class (netlist/equivalence.h).
  std::vector<Fault> fault_list() const;

  // --- evaluation -----------------------------------------------------------------
  EvalState make_state() const;
  /// Combinational pass: computes every net from inputs + flop values,
  /// applying the fault overlay.
  void eval(EvalState& s) const;
  /// Commit flop state (call after eval, with the same inputs).
  void clock(EvalState& s) const;

  /// Clear the fault overlay / inject one fault into the given lanes.
  static void clear_faults(EvalState& s);
  static void inject(EvalState& s, const Fault& f, u64 lane_mask);

 private:
  NetId add(GateOp op, NetId a, NetId b = kNoNet);
  NetId add_raw(GateOp op, NetId a, NetId b, u32 aux);

  Style style_;
  Rng rng_;
  std::vector<Gate> gates_;
  std::vector<std::pair<NetId, NetId>> flop_qd_;  // (q, d)
  u32 num_inputs_ = 0;
  u32 num_flops_ = 0;
};

}  // namespace detstl::netlist
