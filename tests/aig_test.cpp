// Tests for the AIG package and resynthesis passes. The load-bearing
// property everywhere: optimization must never change circuit function
// (verified by bit-parallel simulation and by SAT miters).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "aig/aig.h"
#include "aig/rewrite.h"
#include "gen/circuit_gen.h"
#include "gen/embedded.h"
#include "locking/locking.h"
#include "netlist/simulator.h"
#include "sat/encode.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace orap::aig {
namespace {

TEST(Aig, ConstantsAndTrivialRules) {
  Aig a;
  const AigLit x = a.add_pi();
  EXPECT_EQ(a.and2(x, kLitFalse), kLitFalse);
  EXPECT_EQ(a.and2(x, kLitTrue), x);
  EXPECT_EQ(a.and2(x, x), x);
  EXPECT_EQ(a.and2(x, lit_not(x)), kLitFalse);
  EXPECT_EQ(a.num_ands(), 0u);
}

TEST(Aig, StructuralHashingSharesNodes) {
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  const AigLit g1 = a.and2(x, y);
  const AigLit g2 = a.and2(y, x);  // commuted — same node
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(a.num_ands(), 1u);
  EXPECT_EQ(a.find_and(x, y), g1);
  EXPECT_EQ(a.find_and(x, lit_not(y)), Aig::kNoLit);
}

TEST(Aig, XorAndMuxSemantics) {
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  const AigLit s = a.add_pi();
  a.add_po(a.xor2(x, y));
  a.add_po(a.mux(s, x, y));
  for (unsigned m = 0; m < 8; ++m) {
    const std::uint64_t xv = (m & 1) ? ~0ULL : 0;
    const std::uint64_t yv = (m & 2) ? ~0ULL : 0;
    const std::uint64_t sv = (m & 4) ? ~0ULL : 0;
    const auto out = a.simulate(std::array{xv, yv, sv});
    EXPECT_EQ(out[0], xv ^ yv);
    EXPECT_EQ(out[1], (sv & yv) | (~sv & xv));
  }
}

// Functional equivalence helper: netlist vs AIG on random words.
void expect_equivalent(const Netlist& n, const Aig& a, std::uint64_t seed,
                       int rounds = 16) {
  ASSERT_EQ(a.num_pis(), n.num_inputs());
  ASSERT_EQ(a.num_pos(), n.num_outputs());
  Rng rng(seed);
  Simulator sim(n);
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::uint64_t> words(n.num_inputs());
    for (auto& w : words) w = rng.word();
    for (std::size_t i = 0; i < n.num_inputs(); ++i)
      sim.set_input_word(i, words[i]);
    sim.run();
    const auto out = a.simulate(words);
    for (std::size_t o = 0; o < n.num_outputs(); ++o)
      ASSERT_EQ(out[o], sim.output_word(o)) << "output " << o;
  }
}

TEST(Aig, FromNetlistPreservesFunction) {
  for (const Netlist& n :
       {make_c17(), make_alu4(), make_ripple_adder(8), make_parity(16),
        make_mux_tree(3)}) {
    expect_equivalent(n, Aig::from_netlist(n), 11);
  }
}

TEST(Aig, ToNetlistRoundTrip) {
  const Netlist n = make_alu4();
  const Aig a = Aig::from_netlist(n);
  const Netlist back = a.to_netlist();
  Simulator s1(n), s2(back);
  Rng rng(13);
  for (int t = 0; t < 64; ++t) {
    const BitVec p = BitVec::random(n.num_inputs(), rng);
    EXPECT_EQ(s1.run_single(p), s2.run_single(p));
  }
}

TEST(Aig, CleanupDropsDeadNodes) {
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  const AigLit used = a.and2(x, y);
  a.and2(x, lit_not(y));  // dead
  a.add_po(used);
  EXPECT_EQ(a.num_ands(), 2u);
  const Aig c = a.cleanup();
  EXPECT_EQ(c.num_ands(), 1u);
  EXPECT_EQ(c.num_pis(), 2u);  // interface preserved
}

TEST(Aig, LevelsOfXorChain) {
  Aig a;
  AigLit acc = a.add_pi();
  for (int i = 0; i < 4; ++i) acc = a.xor2(acc, a.add_pi());
  a.add_po(acc);
  EXPECT_EQ(a.depth(), 8u);  // each xor2 = 2 AND levels
}

TEST(AigStrash, MatchesReferenceMap) {
  // 200k random and2/find_and calls against a std::map model of the
  // structural hash, through many table growths: hits (also commuted),
  // misses, and operands that the trivial rules decide.
  Aig a;
  std::map<std::pair<AigLit, AigLit>, AigLit> model;
  std::vector<AigLit> lits{kLitFalse, kLitTrue};
  for (int i = 0; i < 16; ++i) lits.push_back(a.add_pi());
  auto expected = [&model](AigLit x, AigLit y) {
    if (x > y) std::swap(x, y);
    if (x == kLitFalse || x == lit_not(y)) return kLitFalse;
    if (x == kLitTrue || x == y) return y;
    const auto it = model.find({x, y});
    return it == model.end() ? Aig::kNoLit : it->second;
  };
  Rng rng(2024);
  std::size_t hits = 0, trivial = 0;
  for (int i = 0; i < 200000; ++i) {
    AigLit x, y;
    if (!model.empty() && rng.below(4) == 0) {
      // Revisit a stored pair, sometimes with one operand complemented.
      auto it = model.lower_bound({static_cast<AigLit>(rng.below(
                                       2 * a.num_nodes())),
                                   0});
      if (it == model.end()) it = model.begin();
      x = it->first.second;
      y = it->first.first ^ static_cast<AigLit>(rng.below(2));
    } else {
      x = lits[rng.below(lits.size())] ^ static_cast<AigLit>(rng.bit());
      y = rng.below(8) == 0 ? x ^ static_cast<AigLit>(rng.bit())
                            : lits[rng.below(lits.size())] ^
                                  static_cast<AigLit>(rng.bit());
    }
    const AigLit want = expected(x, y);
    if (lit_node(std::min(x, y)) == 0 || lit_node(x) == lit_node(y))
      ++trivial;
    else if (want != Aig::kNoLit)
      ++hits;
    if (rng.bit()) {
      ASSERT_EQ(a.find_and(x, y), want) << "find_and call " << i;
      continue;
    }
    const std::size_t nodes = a.num_nodes();
    const std::size_t ands = a.num_ands();
    const AigLit got = a.and2(x, y);
    if (want != Aig::kNoLit) {
      ASSERT_EQ(got, want) << "and2 call " << i;
      ASSERT_EQ(a.num_ands(), ands);
      continue;
    }
    ASSERT_EQ(got, make_lit(static_cast<std::uint32_t>(nodes), false));
    ASSERT_EQ(a.num_ands(), ands + 1);
    model.emplace(std::minmax(x, y), got);
    lits.push_back(got);
  }
  EXPECT_GT(a.num_ands(), 40000u);  // the table grew many times
  EXPECT_GT(hits, 10000u);
  EXPECT_GT(trivial, 1000u);
  for (const auto& [key, lit] : model) {
    EXPECT_EQ(a.fanin0(lit_node(lit)), key.first);
    EXPECT_EQ(a.fanin1(lit_node(lit)), key.second);
    EXPECT_EQ(a.find_and(key.second, key.first), lit);
  }
}

// The 16-minterm projection the cut enumerator used before it moved
// variables by swaps: minterm m of the result reads `t` at the minterm
// formed by m's bits at the positions of `from`'s leaves within `to`.
std::uint16_t projection_reference(std::uint16_t t,
                                   const std::vector<std::uint32_t>& from,
                                   const std::vector<std::uint32_t>& to) {
  std::array<int, 4> pos{};
  for (std::size_t i = 0; i < from.size(); ++i)
    pos[i] = static_cast<int>(std::find(to.begin(), to.end(), from[i]) -
                              to.begin());
  std::uint16_t out = 0;
  for (int m = 0; m < 16; ++m) {
    int proj = 0;
    for (std::size_t i = 0; i < from.size(); ++i)
      proj |= ((m >> pos[i]) & 1) << i;
    if ((t >> proj) & 1) out |= static_cast<std::uint16_t>(1u << m);
  }
  return out;
}

/// Replicates the low 2^n bits of `t` over 16, so the table does not
/// depend on variables n..3 (the form every cut truth table has).
std::uint16_t pad_truth(std::uint16_t t, int n) {
  for (int v = n; v < 4; ++v) {
    const int w = 1 << v;
    t = static_cast<std::uint16_t>((t & ((1u << w) - 1)) | (t << w));
  }
  return t;
}

TEST(CutKernel, TruthStretchMatchesProjection) {
  // Every sorted `to` leaf set of size <= 4 over six leaf ids, every
  // sorted `from` subset of it, and the truth tables over `from`: all of
  // them up to 3 variables, 4096 random ones at 4.
  Rng rng(77);
  std::size_t checked = 0;
  for (unsigned to_mask = 0; to_mask < 64; ++to_mask) {
    if (std::popcount(to_mask) > 4) continue;
    std::vector<std::uint32_t> to;
    for (std::uint32_t l = 0; l < 6; ++l)
      if ((to_mask >> l) & 1) to.push_back(10 + 7 * l);
    for (unsigned sub = 0; sub < (1u << to.size()); ++sub) {
      std::vector<std::uint32_t> from;
      std::array<std::uint8_t, 4> pos{};
      for (std::size_t j = 0; j < to.size(); ++j)
        if ((sub >> j) & 1) {
          pos[from.size()] = static_cast<std::uint8_t>(j);
          from.push_back(to[j]);
        }
      const int n = static_cast<int>(from.size());
      const unsigned count = n < 4 ? 1u << (1u << n) : 4096u;
      for (unsigned f = 0; f < count; ++f) {
        const auto raw = static_cast<std::uint16_t>(n < 4 ? f : rng.word());
        const std::uint16_t t = pad_truth(raw, n);
        ASSERT_EQ(detail::truth_stretch(t, n, pos),
                  projection_reference(t, from, to))
            << "to_mask=" << to_mask << " sub=" << sub << " t=" << t;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 50000u);
}

class ResynthEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ResynthEquivalence, RandomCircuitsUnchangedByResynthesis) {
  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.num_gates = 400;
  spec.depth = 12;
  spec.seed = 7000 + GetParam();
  const Netlist n = generate_circuit(spec);
  const Aig before = Aig::from_netlist(n);
  const Aig after = resynthesize(before);
  expect_equivalent(n, after, 17 + GetParam());
  EXPECT_LE(after.num_ands(), before.num_ands());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ResynthEquivalence, ::testing::Range(0, 8));

TEST(Resynth, SatMiterProvesEquivalence) {
  // Stronger-than-simulation check on a mid-size circuit.
  GenSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 250;
  spec.depth = 10;
  spec.seed = 4242;
  const Netlist n = generate_circuit(spec);
  const Netlist optimized = resynthesize(Aig::from_netlist(n)).to_netlist();
  sat::Solver s;
  sat::Encoder e(s);
  const auto a = e.encode(n);
  const auto b = e.encode(optimized, a.inputs);
  e.force_not_equal(a.outputs, b.outputs);
  EXPECT_EQ(s.solve(), sat::Solver::Result::kUnsat);
}

TEST(Resynth, RemovesRedundantLogic) {
  // f = (x & y) | (x & !y) == x: rewriting should collapse to zero ANDs.
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  a.add_po(a.or2(a.and2(x, y), a.and2(x, lit_not(y))));
  const Aig r = resynthesize(a);
  EXPECT_EQ(r.num_ands(), 0u);
}

TEST(Resynth, SharesDuplicatedCones) {
  // Two identical cones built separately collapse by structural hashing.
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  const AigLit z = a.add_pi();
  const AigLit c1 = a.and2(a.and2(x, y), z);
  const AigLit c2 = a.and2(x, a.and2(y, z));
  a.add_po(c1);
  a.add_po(c2);
  const Aig r = resynthesize(a);
  EXPECT_LE(r.num_ands(), 2u);
}

TEST(Balance, ReducesChainDepth) {
  // A linear AND chain of 16 operands balances to depth 4.
  Aig a;
  AigLit acc = a.add_pi();
  for (int i = 0; i < 15; ++i) acc = a.and2(acc, a.add_pi());
  a.add_po(acc);
  EXPECT_EQ(a.depth(), 15u);
  const Aig b = balance(a);
  EXPECT_EQ(b.depth(), 4u);
  // Function preserved: all-ones -> 1, any zero -> 0.
  std::vector<std::uint64_t> ones(16, ~0ULL);
  EXPECT_EQ(b.simulate(ones)[0], ~0ULL);
  ones[7] = 0;
  EXPECT_EQ(b.simulate(ones)[0], 0ULL);
}

TEST(Balance, PreservesFunctionOnRandomCircuits) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 10;
  spec.num_gates = 300;
  spec.depth = 14;
  spec.seed = 555;
  const Netlist n = generate_circuit(spec);
  const Aig a = Aig::from_netlist(n);
  const Aig b = balance(a);
  expect_equivalent(n, b, 56);
  EXPECT_LE(b.depth(), a.depth());
}

TEST(Resynth, StatsPipeline) {
  const Netlist n = make_alu4();
  const AigStats st = resynthesized_stats(n);
  EXPECT_GT(st.ands, 0u);
  EXPECT_GT(st.depth, 0u);
  EXPECT_LE(st.ands, Aig::from_netlist(n).num_ands());
}

TEST(Resynth, ConcurrentStatsMatchSerial) {
  // The rewriter's function-synthesis memo is process-wide. Resynthesis
  // from four pool threads at once, starting from a cold memo, must give
  // the serial answers (and must not corrupt the memo).
  std::vector<Netlist> circuits;
  for (int i = 0; i < 12; ++i) {
    GenSpec spec;
    spec.num_inputs = 16;
    spec.num_outputs = 8;
    spec.num_gates = 200;
    spec.depth = 10;
    spec.seed = 9100 + i;
    circuits.push_back(generate_circuit(spec));
  }
  std::vector<AigStats> concurrent(circuits.size());
  set_parallel_threads(4);
  parallel_for(1, circuits.size(), [&](std::size_t i) {
    concurrent[i] = resynthesized_stats(circuits[i]);
  });
  set_parallel_threads(0);
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const AigStats serial = resynthesized_stats(circuits[i]);
    EXPECT_EQ(concurrent[i].ands, serial.ands) << "circuit " << i;
    EXPECT_EQ(concurrent[i].depth, serial.depth) << "circuit " << i;
  }
}

TEST(Refactor, CollapsesRedundantCone) {
  // A fanout-free cone computing (a&b&c) | (a&b&!c) == a&b through six
  // nodes; the 6-leaf refactorer must rebuild it as one AND.
  Aig a;
  const AigLit x = a.add_pi();
  const AigLit y = a.add_pi();
  const AigLit z = a.add_pi();
  const AigLit t1 = a.and2(a.and2(x, y), z);
  // Built with different association so strash cannot share the x&y term
  // (every interior node stays single-fanout -> one big cone).
  const AigLit t2 = a.and2(x, a.and2(y, lit_not(z)));
  a.add_po(a.or2(t1, t2));
  ASSERT_EQ(a.num_ands(), 5u);
  const Aig r = refactor_pass(a);
  EXPECT_LE(r.num_ands(), 2u);
  // Function check: output == x & y.
  const std::uint64_t vx = 0xAA, vy = 0xCC, vz = 0xF0;
  EXPECT_EQ(r.simulate(std::array{vx, vy, vz})[0] & 0xFF, (vx & vy) & 0xFF);
}

TEST(Refactor, PreservesFunctionOnRandomCircuits) {
  GenSpec spec;
  spec.num_inputs = 22;
  spec.num_outputs = 10;
  spec.num_gates = 350;
  spec.depth = 11;
  spec.seed = 888;
  const Netlist n = generate_circuit(spec);
  const Aig before = Aig::from_netlist(n);
  const Aig after = refactor_pass(before);
  expect_equivalent(n, after, 999);
  EXPECT_LE(after.num_ands(), before.num_ands());
}

TEST(Resynth, ExhaustiveThreeVariableFunctions) {
  // All 256 functions of 3 variables, built naively as sums of minterms,
  // resynthesized, and checked for exact equivalence — exercises every
  // decomposition path of the cut-function synthesizer.
  for (unsigned tt = 0; tt < 256; ++tt) {
    Aig a;
    const AigLit x0 = a.add_pi();
    const AigLit x1 = a.add_pi();
    const AigLit x2 = a.add_pi();
    AigLit acc = kLitFalse;
    for (unsigned m = 0; m < 8; ++m) {
      if (!((tt >> m) & 1)) continue;
      AigLit term = kLitTrue;
      term = a.and2(term, (m & 1) ? x0 : lit_not(x0));
      term = a.and2(term, (m & 2) ? x1 : lit_not(x1));
      term = a.and2(term, (m & 4) ? x2 : lit_not(x2));
      acc = a.or2(acc, term);
    }
    a.add_po(acc);
    const Aig r = resynthesize(a);
    EXPECT_LE(r.num_ands(), a.num_ands());
    // Exhaustive functional check over all 8 input combinations packed
    // into one 64-bit word.
    const std::uint64_t v0 = 0xAA, v1 = 0xCC, v2 = 0xF0;
    const auto out = r.simulate(std::array{v0, v1, v2});
    EXPECT_EQ(out[0] & 0xFF, static_cast<std::uint64_t>(tt)) << "tt=" << tt;
  }
}

TEST(Resynth, ParityIsAlreadyOptimal) {
  // XOR tree: 3 ANDs per XOR is optimal in an AIG; resynthesis must not
  // bloat it.
  const Netlist n = make_parity(8);
  const Aig before = Aig::from_netlist(n);
  const Aig after = resynthesize(before);
  EXPECT_LE(after.num_ands(), before.num_ands());
  expect_equivalent(n, after, 77);
}

// 64-bit FNV-1a over an AIG's fanin arrays and PO literals (each 32-bit
// word fed little-endian): two AIGs hash equal iff they are node-for-node
// identical (up to collisions).
std::uint64_t structure_hash(const Aig& a, std::uint64_t h) {
  auto word = [&h](std::uint32_t w) {
    for (int i = 0; i < 4; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  word(static_cast<std::uint32_t>(a.num_nodes()));
  for (std::uint32_t n = 0; n < a.num_nodes(); ++n) {
    word(a.fanin0(n));
    word(a.fanin1(n));
  }
  word(static_cast<std::uint32_t>(a.num_pos()));
  for (const AigLit po : a.pos()) word(po);
  return h;
}

TEST(Resynth, OutputsPinned) {
  // The resynthesized AIG of every paper profile at perfbench paper_tables
  // scale, original and weighted-locked, for two seeds, hashed together.
  // The constant was recorded before the rewriter's kernels were rewritten
  // for speed; any change to the cuts kept, their order, the synthesis
  // decisions or the strash shows up here. Never regenerate it to make
  // this test pass: a new value means Table I's area/delay numbers moved.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t ands = 0;
  for (const std::uint64_t seed : {1ULL, 9173ULL}) {
    const auto& profiles = paper_benchmarks();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      const BenchmarkProfile& p = profiles[i];
      const double scale =
          std::min(0.01, 200.0 / static_cast<double>(p.gates_no_inv));
      const std::uint64_t row_seed = derive_seed(seed, i);
      const Netlist original = make_benchmark(p, scale, row_seed);
      const LockedCircuit locked =
          lock_weighted(original, p.lfsr_size, p.ctrl_gate_inputs,
                        derive_seed(row_seed, 1));
      for (const Netlist* n : {&original, &locked.netlist}) {
        const Aig r = resynthesize(Aig::from_netlist(*n));
        ands += r.num_ands();
        h = structure_hash(r, h);
      }
    }
  }
  EXPECT_EQ(ands, 16808u);
  EXPECT_EQ(h, 0xe7c39c64405bfa7aULL);
}

}  // namespace
}  // namespace orap::aig
