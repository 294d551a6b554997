#pragma once
// DAG-aware AIG resynthesis: 4-input cut enumeration with truth tables, a
// memoized Shannon-decomposition function synthesizer with exact new-node
// cost probing against the structural hash, and level-driven AND-tree
// balancing. `resynthesize` chains them the way the paper runs ABC
// (strash → refactor → rewrite) before measuring area/delay overhead.
//
// The synthesizer's memo is process-wide and shared by every call, so the
// functions here are safe to call from several threads: `rewrite_pass`,
// `refactor_pass` and `resynthesize` hold one lock for their whole call,
// and concurrent resyntheses run one at a time.

#include <array>
#include <cstdint>

#include "aig/aig.h"

namespace orap::aig {

struct RewriteOptions {
  int cuts_per_node = 6;
  // Rewrite iterations before the refactor step; stops early after two
  // consecutive passes that do not reduce the AND count.
  int passes = 3;
  bool balance = true;  // run tree balancing first and last
};

/// One greedy reconstruction pass: every node is rebuilt either from its
/// fanins or from the cheapest 4-cut resynthesis, whichever adds fewer new
/// nodes. Constants and wire-equivalences discovered via cut truth tables
/// are collapsed for free.
Aig rewrite_pass(const Aig& in, const RewriteOptions& opts = {});

/// Level-minimizing reconstruction: multi-input AND trees are regrouped
/// Huffman-style (lowest-level operands first).
Aig balance(const Aig& in);

/// Refactor pass: every fanout-free cone with at most six leaves is
/// re-expressed from its 64-bit truth table when that saves nodes — the
/// larger-window complement to the 4-cut rewriter (ABC's `refactor`).
Aig refactor_pass(const Aig& in);

/// Full pipeline: balance, rewrite passes, one refactor pass and one more
/// rewrite pass, then balance. Returns the smallest AIG seen.
Aig resynthesize(const Aig& in, const RewriteOptions& opts = {});

/// Resynthesized area/delay of a netlist (the Table I measurement): maps
/// the netlist into an AIG, optimizes, and reports AND count + depth.
AigStats resynthesized_stats(const Netlist& n,
                             const RewriteOptions& opts = {});

namespace detail {

/// Cut-merge kernel, exposed for tests. Re-expresses the 4-variable truth
/// table `t` of a cut with `n` leaves on a superset leaf set in which its
/// i-th leaf sits at position pos[i] (strictly increasing). `t` must not
/// depend on variables n..3, which holds for every cut's table.
std::uint16_t truth_stretch(std::uint16_t t, int n,
                            const std::array<std::uint8_t, 4>& pos);

}  // namespace detail

}  // namespace orap::aig
