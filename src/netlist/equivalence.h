#pragma once
// Structural stuck-at fault equivalence (fault collapsing).
//
// Two stuck-at faults are equivalent when they turn the netlist into the same
// faulty circuit as seen from its observed outputs and its flops: every
// stimulus then gives both the same first output divergence and the same
// detection outcome, so a campaign simulates one representative per class
// and copies its verdict to the other members. The rule is the classic
// single-reader one. A net with exactly one gate reader merges into that
// reader's output:
//
//   reader   net fault   equivalent reader-output fault
//   BUF      SA0 / SA1   SA0 / SA1
//   NOT      SA0 / SA1   SA1 / SA0
//   AND      SA0         SA0
//   NAND     SA0         SA1
//   OR       SA1         SA1
//   NOR      SA1         SA0
//   XOR/XNOR never
//
// A net stays a singleton (never merges into its reader) when it is observed
// (in `outputs`), drives a DFF D input (a reader Gate operands do not show),
// or is a DFF Q net (its value is the flop state the checkpoint restores).

#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace detstl::netlist {

/// A fault list partitioned into equivalence classes.
struct FaultClasses {
  /// Per fault of the list: its class. Classes are numbered in the order of
  /// their first member in the list.
  std::vector<u32> class_of;
  /// Per class: list index of its first member, the one a campaign simulates.
  std::vector<u32> representative;

  std::size_t size() const { return representative.size(); }
};

/// Partition `faults` (nl.fault_list() or any subset of it, e.g. a sampled
/// one) into structural equivalence classes of `nl` observed at `outputs`.
/// Members of one class are equivalent; faults equivalent only through an
/// unlisted fault still share a class.
FaultClasses equivalence_classes(const Netlist& nl, std::span<const NetId> outputs,
                                 std::span<const Fault> faults);

}  // namespace detstl::netlist
