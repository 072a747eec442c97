// Netlist engine + module netlists: gate evaluation, DFFs, fault overlays,
// exhaustive/randomised equivalence against the behavioural models, and the
// structural stuck-at equivalence classes every member of which behaves like
// its representative.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <type_traits>

#include "common/rng.h"
#include "netlist/adapters.h"
#include "netlist/equivalence.h"

namespace detstl::netlist {
namespace {

using cpu::FwdSel;

// ----------------------------------------------------------------------------
// Engine basics
// ----------------------------------------------------------------------------

TEST(NetlistEngine, GatesComputeTruthTables) {
  Netlist nl;
  const NetId a = nl.input();
  const NetId b = nl.input();
  const NetId g_and = nl.and2(a, b);
  const NetId g_or = nl.or2(a, b);
  const NetId g_xor = nl.xor2(a, b);
  const NetId g_nand = nl.nand2(a, b);
  const NetId g_nor = nl.nor2(a, b);
  const NetId g_xnor = nl.xnor2(a, b);
  const NetId g_not = nl.not_(a);
  EvalState s = nl.make_state();
  for (unsigned av = 0; av < 2; ++av) {
    for (unsigned bv = 0; bv < 2; ++bv) {
      s.set_input(0, av);
      s.set_input(1, bv);
      nl.eval(s);
      EXPECT_EQ(s.lane_bit(g_and, 0), (av & bv) != 0);
      EXPECT_EQ(s.lane_bit(g_or, 0), (av | bv) != 0);
      EXPECT_EQ(s.lane_bit(g_xor, 0), (av ^ bv) != 0);
      EXPECT_EQ(s.lane_bit(g_nand, 0), !(av & bv));
      EXPECT_EQ(s.lane_bit(g_nor, 0), !(av | bv));
      EXPECT_EQ(s.lane_bit(g_xnor, 0), !(av ^ bv));
      EXPECT_EQ(s.lane_bit(g_not, 0), !av);
    }
  }
}

TEST(NetlistEngine, DffHoldsState) {
  Netlist nl;
  const NetId q = nl.dff();
  const NetId d = nl.input();
  nl.connect_dff(q, nl.xor2(q, d));  // toggle flop
  EvalState s = nl.make_state();
  s.set_input(0, true);
  nl.eval(s);
  EXPECT_FALSE(s.lane_bit(q, 0));
  nl.clock(s);
  nl.eval(s);
  EXPECT_TRUE(s.lane_bit(q, 0));
  nl.clock(s);
  nl.eval(s);
  EXPECT_FALSE(s.lane_bit(q, 0));
}

TEST(NetlistEngine, FaultOverlayPerLane) {
  Netlist nl;
  const NetId a = nl.input();
  const NetId out = nl.buf(a);
  EvalState s = nl.make_state();
  s.set_input(0, false);
  Netlist::inject(s, Fault{out, true}, 0b10);  // SA1 in lane 1 only
  nl.eval(s);
  EXPECT_FALSE(s.lane_bit(out, 0));
  EXPECT_TRUE(s.lane_bit(out, 1));
  Netlist::clear_faults(s);
  nl.eval(s);
  EXPECT_FALSE(s.lane_bit(out, 1));
}

TEST(NetlistEngine, Mux2BothStyles) {
  for (bool nn : {false, true}) {
    Netlist nl(Style{.nand_nand = nn, .buf_prob = 0.0, .seed = 3});
    const NetId sel = nl.input();
    const NetId a = nl.input();
    const NetId b = nl.input();
    const NetId m = nl.mux2(sel, a, b);
    EvalState s = nl.make_state();
    for (unsigned v = 0; v < 8; ++v) {
      s.set_input(0, v & 1);
      s.set_input(1, (v >> 1) & 1);
      s.set_input(2, (v >> 2) & 1);
      nl.eval(s);
      const bool expect = (v & 1) ? ((v >> 1) & 1) : ((v >> 2) & 1);
      EXPECT_EQ(s.lane_bit(m, 0), expect) << "style " << nn << " v " << v;
    }
  }
}

TEST(NetlistEngine, IncrementerWraps) {
  Netlist nl;
  std::vector<NetId> in(5);
  for (auto& n : in) n = nl.input();
  const auto out = nl.inc_n(in);
  EvalState s = nl.make_state();
  for (u32 v = 0; v < 32; ++v) {
    for (unsigned b = 0; b < 5; ++b) s.set_input(b, (v >> b) & 1);
    nl.eval(s);
    u32 got = 0;
    for (unsigned b = 0; b < 5; ++b) got |= static_cast<u32>(s.lane_bit(out[b], 0)) << b;
    EXPECT_EQ(got, (v + 1) % 32);
  }
}

TEST(NetlistEngine, BufferInsertionGrowsFaultList) {
  Netlist plain(Style{});
  Netlist buffered(Style{.nand_nand = false, .buf_prob = 0.5, .seed = 9});
  auto build = [](Netlist& nl) {
    const NetId a = nl.input();
    const NetId b = nl.input();
    NetId x = nl.and2(a, b);
    for (int i = 0; i < 20; ++i) x = nl.or2(x, nl.and2(a, b));
    return x;
  };
  build(plain);
  build(buffered);
  EXPECT_GT(buffered.fault_list().size(), plain.fault_list().size());
}

TEST(NetlistEngine, WideAndOrEqAgainstReference) {
  Rng rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    const unsigned n = 1 + static_cast<unsigned>(rng.below(12));
    Netlist nl;
    std::vector<NetId> a_in(n), b_in(n);
    for (auto& x : a_in) x = nl.input();
    for (auto& x : b_in) x = nl.input();
    const NetId all = nl.and_n(a_in);
    const NetId any = nl.or_n(a_in);
    const NetId eq = nl.eq_n(a_in, b_in);
    EvalState s = nl.make_state();
    for (int vec = 0; vec < 20; ++vec) {
      u32 av = 0, bv = 0;
      for (unsigned i = 0; i < n; ++i) {
        const bool ab = rng.chance(0.5), bb = rng.chance(0.5);
        av |= static_cast<u32>(ab) << i;
        bv |= static_cast<u32>(bb) << i;
        s.set_input(i, ab);
        s.set_input(n + i, bb);
      }
      nl.eval(s);
      const u32 mask = n >= 32 ? ~0u : ((1u << n) - 1);
      EXPECT_EQ(s.lane_bit(all, 0), (av & mask) == mask);
      EXPECT_EQ(s.lane_bit(any, 0), av != 0);
      EXPECT_EQ(s.lane_bit(eq, 0), av == bv);
    }
  }
}

TEST(NetlistEngine, FaultListExcludesConstants) {
  Netlist nl;
  const NetId c0 = nl.constant(false);
  const NetId c1 = nl.constant(true);
  const NetId in = nl.input();
  nl.and2(in, nl.or2(c0, c1));
  for (const Fault& f : nl.fault_list()) {
    EXPECT_NE(f.net, c0);
    EXPECT_NE(f.net, c1);
  }
  // Both polarities of every non-constant net.
  EXPECT_EQ(nl.fault_list().size(), 2 * (nl.num_nets() - 2));
}

TEST(NetlistEngine, LaneIndependenceUnderDistinctFaults) {
  // Two different faults in two lanes must not interact: each lane behaves
  // exactly like a single-fault machine.
  Netlist nl;
  const NetId a = nl.input();
  const NetId b = nl.input();
  const NetId x = nl.xor2(a, b);
  const NetId y = nl.and2(x, a);
  EvalState multi = nl.make_state();
  Netlist::inject(multi, Fault{x, true}, 1ull << 0);
  Netlist::inject(multi, Fault{y, false}, 1ull << 1);
  for (unsigned v = 0; v < 4; ++v) {
    multi.set_input(0, v & 1);
    multi.set_input(1, (v >> 1) & 1);
    nl.eval(multi);
    for (unsigned lane = 0; lane < 2; ++lane) {
      EvalState solo = nl.make_state();
      Netlist::inject(solo, lane == 0 ? Fault{x, true} : Fault{y, false}, ~0ull);
      solo.set_input(0, v & 1);
      solo.set_input(1, (v >> 1) & 1);
      nl.eval(solo);
      EXPECT_EQ(multi.lane_bit(y, lane), solo.lane_bit(y, 0))
          << "v=" << v << " lane=" << lane;
    }
  }
}

// ----------------------------------------------------------------------------
// Random CPU-reachable stimulus generators
// ----------------------------------------------------------------------------

cpu::HdcuIn random_hdcu_in(Rng& rng, CoreKind kind) {
  cpu::HdcuIn in;
  const bool c64 = kind == CoreKind::kC;
  for (auto& c : in.cons) {
    c.rs = static_cast<u8>(rng.below(32));
    c.used = rng.chance(0.8);
    c.is64 = c64 && rng.chance(0.3);
    if (c.is64) c.rs &= ~1u;
  }
  for (auto& p : in.prod) {
    p.rd = static_cast<u8>(rng.below(32));
    p.writes = rng.chance(0.7) && p.rd != 0;  // CPU invariant: writes => rd != 0
    p.is64 = c64 && rng.chance(0.3);
    if (p.is64) p.rd &= ~1u;
    p.is_load = rng.chance(0.3);
  }
  return in;
}

cpu::FwdIn random_fwd_in(Rng& rng, CoreKind kind) {
  cpu::FwdIn in;
  const bool c64 = kind == CoreKind::kC;
  const u64 mask = c64 ? ~0ull : 0xffffffffull;
  for (auto& p : in.port) {
    p.rf = rng.next_u64() & mask;
    for (auto& c : p.cand) c = rng.next_u64() & mask;
    p.sel = static_cast<FwdSel>(rng.below(5));
    p.high_half = c64 && p.sel != FwdSel::kRegFile && rng.chance(0.25);
  }
  return in;
}

cpu::IcuIn random_icu_in(Rng& rng) {
  cpu::IcuIn in;
  in.events = static_cast<u8>(rng.below(16));
  in.mie = static_cast<u8>(rng.below(16));
  in.ack = rng.chance(0.3);
  in.clear = static_cast<u8>(rng.below(16));
  return in;
}

// ----------------------------------------------------------------------------
// Equivalence: netlist == behavioural (parameterised over core kinds)
// ----------------------------------------------------------------------------

class PerCore : public ::testing::TestWithParam<int> {
 protected:
  CoreKind kind() const { return static_cast<CoreKind>(GetParam()); }
};

TEST_P(PerCore, HdcuNetlistMatchesBehavioral) {
  const HdcuNetlist mod(kind());
  NetlistHazard hz(mod);
  Rng rng(42 + GetParam());
  for (int i = 0; i < 3000; ++i) {
    const cpu::HdcuIn in = random_hdcu_in(rng, kind());
    const cpu::HdcuOut want = cpu::hdcu_behavioral(kind(), in);
    const cpu::HdcuOut got = hz.eval(in);
    ASSERT_EQ(got, want) << "iteration " << i;
  }
}

TEST_P(PerCore, FwdNetlistMatchesBehavioral) {
  const FwdNetlist mod(kind());
  NetlistForward fw(mod);
  Rng rng(137 + GetParam());
  for (int i = 0; i < 1000; ++i) {
    const cpu::FwdIn in = random_fwd_in(rng, kind());
    const cpu::FwdOut want = cpu::fwd_behavioral(in);
    const cpu::FwdOut got = fw.eval(in);
    ASSERT_EQ(got, want) << "iteration " << i;
  }
}

TEST_P(PerCore, IcuNetlistMatchesBehavioralSequence) {
  const IcuNetlist mod(kind());
  NetlistIcu ni(mod);
  cpu::IcuState behav(kind());
  Rng rng(7 + GetParam());
  for (int i = 0; i < 5000; ++i) {
    const cpu::IcuIn in = random_icu_in(rng);
    const cpu::IcuOut want = behav.eval(in);
    const cpu::IcuOut got = ni.eval(in);
    ASSERT_EQ(got, want) << "iteration " << i;
    behav.clock(in);
    ni.clock(in);
  }
}

TEST_P(PerCore, IcuLoadStateSeedsFlops) {
  const IcuNetlist mod(kind());
  NetlistIcu ni(mod);
  // Pending sources 0 and 2, both synchroniser stages set (bits 4/5).
  ni.load_state(0b0101 | (1u << 4) | (1u << 5));
  cpu::IcuIn in;
  in.mie = 0xf;
  const cpu::IcuOut out = ni.eval(in);
  EXPECT_TRUE(out.irq);
  EXPECT_EQ(out.pending, 0b0101);

  // Without the synchroniser stages the request line lags by two clocks.
  NetlistIcu lagged(mod);
  lagged.load_state(0b0101);
  EXPECT_FALSE(lagged.eval(in).irq);
  lagged.clock(in);
  lagged.clock(in);
  EXPECT_TRUE(lagged.eval(in).irq);
}

INSTANTIATE_TEST_SUITE_P(Kinds, PerCore, ::testing::Values(0, 1, 2));

// ----------------------------------------------------------------------------
// Fault behaviour of the module netlists
// ----------------------------------------------------------------------------

TEST(ModuleFaults, StuckStallForcesPermanentStall) {
  const HdcuNetlist mod(CoreKind::kA);
  NetlistHazard hz(mod);
  // The stall output is the last entry of outputs().
  hz.set_fault(Fault{mod.outputs().back(), true});
  cpu::HdcuIn in;  // empty packet: behaviourally no stall
  EXPECT_TRUE(hz.eval(in).stall);
  hz.set_fault(std::nullopt);
  EXPECT_FALSE(hz.eval(in).stall);
}

TEST(ModuleFaults, FwdOutputBitStuck) {
  const FwdNetlist mod(CoreKind::kA);
  NetlistForward fw(mod);
  fw.set_fault(Fault{mod.outputs()[0], true});  // port0 bit0 SA1
  cpu::FwdIn in;
  in.port[0].rf = 0;
  in.port[0].sel = FwdSel::kRegFile;
  EXPECT_EQ(fw.eval(in).operand[0] & 1, 1u);
}

TEST(ModuleFaults, IcuPendingStuckLowNeverInterrupts) {
  const IcuNetlist mod(CoreKind::kC);
  NetlistIcu ni(mod);
  // Find the irq output (first entry) and force it low.
  ni.set_fault(Fault{mod.outputs()[0], false});
  cpu::IcuIn in;
  in.events = 0x1;
  in.mie = 0xf;
  EXPECT_FALSE(ni.eval(in).irq);
}

// ----------------------------------------------------------------------------
// Fault equivalence (netlist/equivalence.h)
// ----------------------------------------------------------------------------

TEST(FaultEquivalence, MergeRulesFollowTheReaderGate) {
  // x's only reader is the observed gate `out`. Each x fault shares a class
  // with the listed `out` fault (0 = SA0, 1 = SA1) or with none (-1).
  struct Rule {
    const char* name;
    NetId (*build)(Netlist&, NetId, NetId);
    int sa0, sa1;
  };
  const Rule rules[] = {
      {"buf", [](Netlist& nl, NetId x, NetId) { return nl.buf(x); }, 0, 1},
      {"not", [](Netlist& nl, NetId x, NetId) { return nl.not_(x); }, 1, 0},
      {"and", [](Netlist& nl, NetId x, NetId y) { return nl.and2(x, y); }, 0, -1},
      {"nand", [](Netlist& nl, NetId x, NetId y) { return nl.nand2(x, y); }, 1, -1},
      {"or", [](Netlist& nl, NetId x, NetId y) { return nl.or2(x, y); }, -1, 1},
      {"nor", [](Netlist& nl, NetId x, NetId y) { return nl.nor2(x, y); }, -1, 0},
      {"xor", [](Netlist& nl, NetId x, NetId y) { return nl.xor2(x, y); }, -1, -1},
      {"xnor", [](Netlist& nl, NetId x, NetId y) { return nl.xnor2(x, y); }, -1, -1},
  };
  for (const Rule& r : rules) {
    Netlist nl;
    const NetId x = nl.input();
    const NetId y = nl.input();
    const std::vector<NetId> outputs = {r.build(nl, x, y)};
    const FaultClasses classes = equivalence_classes(nl, outputs, nl.fault_list());
    // No constants: fault 2n + s is net n stuck at s.
    const auto cls = [&](NetId n, int s) { return classes.class_of[2 * n + s]; };
    for (const int s : {0, 1}) {
      const int partner = s == 0 ? r.sa0 : r.sa1;
      for (const int o : {0, 1})
        EXPECT_EQ(cls(x, s) == cls(outputs[0], o), partner == o)
            << r.name << ": x SA" << s << " vs out SA" << o;
    }
  }
}

TEST(FaultEquivalence, ObservedFlopAndXorInputNetsStaySingletons) {
  // Every net here has exactly one gate reader. A BUF reader would take both
  // of its faults, except for an observed net, a D input and a Q net; an XOR
  // reader takes neither.
  Netlist nl;
  const NetId q = nl.dff();
  const NetId observed = nl.input();
  const NetId to_d = nl.input();
  const NetId xor_in = nl.input();
  const NetId other = nl.input();
  const NetId plain = nl.input();
  nl.connect_dff(q, to_d);
  const std::vector<NetId> outputs = {observed,   nl.buf(observed),
                                      nl.buf(to_d), nl.buf(q),
                                      nl.xor2(xor_in, other), nl.buf(plain)};
  const FaultClasses classes = equivalence_classes(nl, outputs, nl.fault_list());
  std::vector<unsigned> size(classes.size(), 0);
  for (const u32 c : classes.class_of) ++size[c];
  const auto members = [&](NetId n, int s) { return size[classes.class_of[2 * n + s]]; };
  for (const NetId n : {observed, to_d, q, xor_in})
    for (const int s : {0, 1}) EXPECT_EQ(members(n, s), 1u) << "net " << n << " SA" << s;
  // The control: the same shape without an exclusion merges.
  EXPECT_EQ(members(plain, 0), 2u);
  EXPECT_EQ(members(plain, 1), 2u);
}

TEST(FaultEquivalence, DecodeReadsOnlyTheOutputNets) {
  // The equivalence checks below compare outputs() lane by lane, which
  // stands for comparing decode() only if decode reads nothing else:
  // scrambling every other net must leave every lane's decoded call as is.
  const auto check = [](const auto& mod) {
    const Netlist& nl = mod.nl();
    std::vector<u8> is_output(nl.num_nets(), 0);
    for (const NetId o : mod.outputs()) is_output[o] = 1;
    Rng rng(0xdec0de);
    EvalState s = nl.make_state();
    for (u64& v : s.value) v = rng.next_u64();
    std::vector<decltype(mod.decode(s, 0))> before;
    for (unsigned lane = 0; lane < 64; ++lane) before.push_back(mod.decode(s, lane));
    for (NetId n = 0; n < nl.num_nets(); ++n)
      if (is_output[n] == 0) s.value[n] = rng.next_u64();
    for (unsigned lane = 0; lane < 64; ++lane)
      EXPECT_TRUE(mod.decode(s, lane) == before[lane]) << "lane " << lane;
  };
  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE(k);
    check(FwdNetlist(static_cast<CoreKind>(k)));
    check(HdcuNetlist(static_cast<CoreKind>(k)));
    check(IcuNetlist(static_cast<CoreKind>(k)));
  }
}

/// Drives `stimulus` through fault pairs, 32 per evaluation word (pair k in
/// lanes 2k and 2k + 1), and counts the pairs whose two lanes ever differ:
/// on an output net, and so in the decoded call, or after the clock in a
/// flop.
template <class Mod>
std::size_t mismatched_pairs(const Mod& mod, std::span<const std::pair<Fault, Fault>> pairs,
                             const std::vector<typename Mod::In>& stimulus) {
  constexpr u64 kEvenLanes = 0x5555'5555'5555'5555ull;
  const Netlist& nl = mod.nl();
  std::vector<std::vector<u64>> encoded;
  EvalState enc = nl.make_state();
  for (const auto& in : stimulus) {
    mod.encode(in, enc);
    encoded.push_back(enc.inputs);
  }
  std::size_t mismatched = 0;
  for (std::size_t base = 0; base < pairs.size(); base += 32) {
    const unsigned n = static_cast<unsigned>(std::min<std::size_t>(32, pairs.size() - base));
    EvalState s = nl.make_state();
    for (unsigned k = 0; k < n; ++k) {
      Netlist::inject(s, pairs[base + k].first, 1ull << (2 * k));
      Netlist::inject(s, pairs[base + k].second, 2ull << (2 * k));
    }
    u64 differs = 0;  // bit 2k: pair k mismatched
    for (const auto& in : encoded) {
      s.inputs = in;
      nl.eval(s);
      for (const NetId o : mod.outputs())
        differs |= (s.value[o] ^ (s.value[o] >> 1)) & kEvenLanes;
      nl.clock(s);
      for (const u64 f : s.flops) differs |= (f ^ (f >> 1)) & kEvenLanes;
    }
    mismatched += static_cast<std::size_t>(__builtin_popcountll(differs));
  }
  return mismatched;
}

/// Pins the class count of module `Mod` on core `kind` and shows that every
/// member behaves like its representative over 2,000 random calls, while
/// the representative's opposite polarity does not.
template <class Mod, class Gen>
void expect_members_equivalent(CoreKind kind, std::size_t classes_want,
                               std::size_t faults_want, Gen random_in) {
  const Mod mod(kind);
  const std::vector<Fault> faults = mod.nl().fault_list();
  const FaultClasses classes = equivalence_classes(mod.nl(), mod.outputs(), faults);
  EXPECT_EQ(faults.size(), faults_want);
  EXPECT_EQ(classes.size(), classes_want);

  std::vector<std::pair<Fault, Fault>> same, opposite;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const u32 r = classes.representative[classes.class_of[i]];
    if (r == i) continue;
    same.emplace_back(faults[i], faults[r]);
    opposite.emplace_back(faults[i], Fault{faults[r].net, !faults[r].stuck1});
  }
  Rng rng(0xe9u + static_cast<u64>(kind));
  std::vector<typename Mod::In> stimulus;
  for (int v = 0; v < 2000; ++v) stimulus.push_back(random_in(rng));

  EXPECT_EQ(mismatched_pairs<Mod>(mod, same, stimulus), 0u);
  // The check has teeth: in one word of opposite-polarity pairs, some differ.
  const std::size_t word = std::min<std::size_t>(32, opposite.size());
  EXPECT_GT(mismatched_pairs<Mod>(mod, std::span(opposite).first(word), stimulus), 0u);
}

void expect_fwd_members_equivalent(CoreKind kind, std::size_t classes_want,
                                   std::size_t faults_want) {
  expect_members_equivalent<FwdNetlist>(kind, classes_want, faults_want,
                                        [kind](Rng& rng) { return random_fwd_in(rng, kind); });
}

// One test per core: the forwarding netlists are the largest.
TEST(FaultEquivalence, FwdCoreAMembersBehaveLikeTheirRepresentative) {
  expect_fwd_members_equivalent(CoreKind::kA, 2300, 4622);
}
TEST(FaultEquivalence, FwdCoreBMembersBehaveLikeTheirRepresentative) {
  expect_fwd_members_equivalent(CoreKind::kB, 2300, 4832);
}
TEST(FaultEquivalence, FwdCoreCMembersBehaveLikeTheirRepresentative) {
  expect_fwd_members_equivalent(CoreKind::kC, 5636, 11122);
}

TEST(FaultEquivalence, HdcuMembersBehaveLikeTheirRepresentative) {
  constexpr std::size_t kWant[3][2] = {{536, 906}, {536, 956}, {1232, 2048}};
  for (int k = 0; k < 3; ++k) {
    const auto kind = static_cast<CoreKind>(k);
    SCOPED_TRACE(k);
    expect_members_equivalent<HdcuNetlist>(
        kind, kWant[k][0], kWant[k][1], [kind](Rng& rng) { return random_hdcu_in(rng, kind); });
  }
}

TEST(FaultEquivalence, IcuMembersBehaveLikeTheirRepresentative) {
  constexpr std::size_t kWant[3][2] = {{98, 160}, {98, 170}, {94, 146}};
  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE(k);
    expect_members_equivalent<IcuNetlist>(static_cast<CoreKind>(k), kWant[k][0], kWant[k][1],
                                          [](Rng& rng) { return random_icu_in(rng); });
  }
}

// ----------------------------------------------------------------------------
// Memoised module models (netlist/adapters.h)
// ----------------------------------------------------------------------------

TEST(ModuleMemo, KeyTableNumbersKeysInInsertionOrder) {
  // Three-word keys, enough of them to grow the slot array many times.
  KeyTable table(3);
  Rng rng(0x3e30);
  std::vector<u64> keys;
  for (u32 i = 0; i < 5000; ++i) {
    const u64 k[3] = {rng.next_u64(), i, rng.next_u64() & 1};
    keys.insert(keys.end(), k, k + 3);
    ASSERT_EQ(table.find_or_add(k), i);
  }
  for (u32 i = 0; i < 5000; ++i) ASSERT_EQ(table.find_or_add(&keys[3 * i]), i);
  EXPECT_EQ(table.size(), 5000u);
  table.clear();
  EXPECT_EQ(table.find_or_add(&keys[3 * 4999]), 0u);
}

/// One call of a memo script: eval or clock pool input `in`, or load_state.
struct MemoStep {
  enum Op { kEval, kClock, kLoad } op;
  std::size_t in = 0;
  u16 state = 0;
};

/// Rounds of calls on a pool of `pool` inputs, so most calls repeat an
/// earlier one. Every round evaluates two inputs back to back; a sequential
/// module also gets the CPU's eval-then-clock pair, a clock without a
/// preceding eval and, once, a load_state.
std::vector<MemoStep> memo_script(Rng& rng, std::size_t pool, bool sequential) {
  std::vector<MemoStep> steps;
  const auto pick = [&] { return static_cast<std::size_t>(rng.below(pool)); };
  for (int round = 0; round < 24; ++round) {
    const std::size_t a = pick();
    steps.push_back({MemoStep::kEval, a});
    if (sequential) steps.push_back({MemoStep::kClock, a});
    steps.push_back({MemoStep::kEval, pick()});
    steps.push_back({MemoStep::kEval, a});
    if (!sequential) continue;
    steps.push_back({MemoStep::kClock, pick()});
    if (round == 12) steps.push_back({MemoStep::kLoad, 0, static_cast<u16>(rng.below(64))});
  }
  return steps;
}

/// Runs the memo script through one memoised model, re-faulted for no fault
/// and every 23rd fault of the module, and checks each call against a
/// reference EvalState that is encoded, settled by Netlist::eval and decoded
/// directly, as the model did before it had a memo. The model must also
/// settle exactly once per distinct (input, flops) key under each fault.
template <class Mod, class Gen>
void expect_memo_matches_direct_eval(CoreKind kind, Gen random_in) {
  constexpr bool kSequential = std::is_same_v<Mod, IcuNetlist>;
  const Mod mod(kind);
  const Netlist& nl = mod.nl();
  Rng rng(0x3e3u + static_cast<u64>(kind));
  std::vector<typename Mod::In> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(random_in(rng));
  const std::vector<MemoStep> script = memo_script(rng, pool.size(), kSequential);

  std::vector<std::optional<Fault>> sample = {std::nullopt};
  const std::vector<Fault> faults = nl.fault_list();
  for (std::size_t i = 0; i < faults.size(); i += 23) sample.push_back(faults[i]);

  NetlistModelFor<Mod> model(mod);
  std::vector<typename Mod::Out> good;  // the fault-free model's eval results
  bool some_fault_shows = false;
  for (const std::optional<Fault>& f : sample) {
    SCOPED_TRACE(f ? "net " + std::to_string(f->net) + (f->stuck1 ? " SA1" : " SA0")
                   : std::string("no fault"));
    model.set_fault(f);
    if constexpr (kSequential) model.load_state(0);  // the reference's reset flops
    EvalState ref = nl.make_state();
    if (f) Netlist::inject(ref, *f, ~0ull);
    const u64 calls0 = model.calls(), evals0 = model.evals();
    std::set<std::pair<std::vector<u64>, std::vector<u64>>> keys;  // inputs, flops
    std::size_t n_eval = 0;
    for (std::size_t k = 0; k < script.size(); ++k) {
      const MemoStep& st = script[k];
      if (st.op == MemoStep::kLoad) {
        if constexpr (kSequential) {
          model.load_state(st.state);
          mod.load_state(ref, st.state);
        }
        continue;
      }
      mod.encode(pool[st.in], ref);
      keys.emplace(ref.inputs, ref.flops);
      nl.eval(ref);
      if (st.op == MemoStep::kEval) {
        const typename Mod::Out want = mod.decode(ref, 0);
        ASSERT_TRUE(model.eval(pool[st.in]) == want) << "call " << k;
        if (!f) good.push_back(want);
        some_fault_shows |= f && !(good[n_eval] == want);
        ++n_eval;
      } else if constexpr (kSequential) {
        model.clock(pool[st.in]);
        nl.clock(ref);
      }
    }
    const u64 calls = model.calls() - calls0, evals = model.evals() - evals0;
    EXPECT_EQ(evals, keys.size());
    EXPECT_LE(2 * evals, calls);  // at least half the calls repeat a key
  }
  // The fault sample reaches the outputs, so a stale memo would be caught.
  EXPECT_TRUE(some_fault_shows);
}

TEST(ModuleMemo, FwdMatchesDirectEvaluation) {
  for (int k = 0; k < 3; ++k) {
    const auto kind = static_cast<CoreKind>(k);
    SCOPED_TRACE(k);
    expect_memo_matches_direct_eval<FwdNetlist>(
        kind, [kind](Rng& rng) { return random_fwd_in(rng, kind); });
  }
}

TEST(ModuleMemo, HdcuMatchesDirectEvaluation) {
  for (int k = 0; k < 3; ++k) {
    const auto kind = static_cast<CoreKind>(k);
    SCOPED_TRACE(k);
    expect_memo_matches_direct_eval<HdcuNetlist>(
        kind, [kind](Rng& rng) { return random_hdcu_in(rng, kind); });
  }
}

TEST(ModuleMemo, IcuMatchesDirectEvaluation) {
  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE(k);
    expect_memo_matches_direct_eval<IcuNetlist>(static_cast<CoreKind>(k),
                                                [](Rng& rng) { return random_icu_in(rng); });
  }
}

TEST(ModuleStats, FaultListSizes) {
  // Not a functional check: documents the scale of the structural models and
  // guards against accidental collapse of the netlists.
  for (int k = 0; k < 3; ++k) {
    const auto kind = static_cast<CoreKind>(k);
    const FwdNetlist fwd(kind);
    const HdcuNetlist hdcu(kind);
    const IcuNetlist icu(kind);
    EXPECT_GT(fwd.nl().fault_list().size(), 1000u) << "fwd core " << k;
    EXPECT_GT(hdcu.nl().fault_list().size(), 400u) << "hdcu core " << k;
    EXPECT_GT(icu.nl().fault_list().size(), 80u) << "icu core " << k;
  }
  // Cores A and B: same function, different instantiation -> different lists.
  EXPECT_NE(FwdNetlist(CoreKind::kA).nl().fault_list().size(),
            FwdNetlist(CoreKind::kB).nl().fault_list().size());
}

}  // namespace
}  // namespace detstl::netlist
