// Tests for the AIG package and resynthesis passes. The load-bearing
// property everywhere: optimization must never change circuit function
// (verified by bit-parallel simulation and by SAT miters).

#include <gtest/gtest.h>

#include "aig/aig.h"
#include "aig/rewrite.h"
#include "gen/circuit_gen.h"
#include "gen/embedded.h"
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

}  // namespace
}  // namespace orap::aig
