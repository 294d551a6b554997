// Tests for the multi-word SIMD layer: the util/simd.h kernel table
// (dispatch vs scalar reference), BitVec algebra at odd widths, and the
// block-mode Simulator / FaultSimulator lane-equivalence contract (W > 1
// is bit-identical to running the same words one at a time).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "atpg/fault_sim.h"
#include "gen/circuit_gen.h"
#include "netlist/simulator.h"
#include "util/bitvec.h"
#include "util/rng.h"
#include "util/simd.h"

namespace orap {
namespace {

Netlist sim_circuit(std::uint64_t seed, std::size_t gates = 400) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = gates;
  spec.depth = 8;
  spec.seed = seed;
  return generate_circuit(spec);
}

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> v(n);
  for (auto& w : v) w = rng.word();
  return v;
}

TEST(Simd, DispatchKernelsMatchScalarReference) {
  // Whatever ISA the dispatch resolved to, every kernel must agree with
  // the always-available scalar table on every size, including 0 and
  // non-multiples of the vector width.
  const simd::Kernels& k = simd::kernels();
  const simd::Kernels& ref = simd::scalar_kernels();
  Rng rng(41);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{13}, std::size_t{32}, std::size_t{33}}) {
    const auto a = random_words(n, rng);
    const auto b = random_words(n, rng);
    const auto s = random_words(n, rng);
    std::vector<std::uint64_t> out1(n), out2(n);

    k.vand(out1.data(), a.data(), b.data(), n);
    ref.vand(out2.data(), a.data(), b.data(), n);
    EXPECT_EQ(out1, out2) << "vand n=" << n;

    k.vor(out1.data(), a.data(), b.data(), n);
    ref.vor(out2.data(), a.data(), b.data(), n);
    EXPECT_EQ(out1, out2) << "vor n=" << n;

    k.vxor(out1.data(), a.data(), b.data(), n);
    ref.vxor(out2.data(), a.data(), b.data(), n);
    EXPECT_EQ(out1, out2) << "vxor n=" << n;

    k.vnot(out1.data(), a.data(), n);
    ref.vnot(out2.data(), a.data(), n);
    EXPECT_EQ(out1, out2) << "vnot n=" << n;

    k.vmux(out1.data(), s.data(), a.data(), b.data(), n);
    ref.vmux(out2.data(), s.data(), a.data(), b.data(), n);
    EXPECT_EQ(out1, out2) << "vmux n=" << n;

    out1 = s;
    out2 = s;
    k.vxor_and(out1.data(), a.data(), b.data(), n);
    ref.vxor_and(out2.data(), a.data(), b.data(), n);
    EXPECT_EQ(out1, out2) << "vxor_and n=" << n;

    EXPECT_EQ(k.popcount(a.data(), n), ref.popcount(a.data(), n))
        << "popcount n=" << n;
    EXPECT_EQ(k.any(a.data(), n), ref.any(a.data(), n)) << "any n=" << n;
    EXPECT_EQ(k.eq(a.data(), b.data(), n), ref.eq(a.data(), b.data(), n))
        << "eq n=" << n;
    EXPECT_TRUE(k.eq(a.data(), a.data(), n)) << "eq self n=" << n;
  }
}

TEST(Simd, KernelsAllowAliasedDestination) {
  // The simulator evaluates gates in place over its value buffer; dst may
  // alias a fanin block.
  Rng rng(42);
  const std::size_t n = 9;
  for (int op = 0; op < 3; ++op) {
    auto a = random_words(n, rng);
    const auto b = random_words(n, rng);
    auto expect = a;
    const simd::Kernels& ref = simd::scalar_kernels();
    const simd::Kernels& k = simd::kernels();
    switch (op) {
      case 0:
        ref.vand(expect.data(), expect.data(), b.data(), n);
        k.vand(a.data(), a.data(), b.data(), n);
        break;
      case 1:
        ref.vor(expect.data(), expect.data(), b.data(), n);
        k.vor(a.data(), a.data(), b.data(), n);
        break;
      default:
        ref.vxor(expect.data(), expect.data(), b.data(), n);
        k.vxor(a.data(), a.data(), b.data(), n);
        break;
    }
    EXPECT_EQ(a, expect) << "op " << op;
  }
}

TEST(Simd, BitVecOpsMatchNaiveAtOddWidths) {
  // 63/65 and 511/513 straddle word boundaries: the word-count changes and
  // the top word is partial. Every operator must agree with a bit-by-bit
  // reference, and the partial top word must stay trimmed (count() would
  // otherwise see ghost bits).
  Rng rng(43);
  for (const std::size_t width :
       {std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{511},
        std::size_t{513}}) {
    const BitVec a = BitVec::random(width, rng);
    const BitVec b = BitVec::random(width, rng);

    const BitVec x = a ^ b, n = a & b, o = a | b;
    std::size_t count_a = 0;
    bool parity = false;
    for (std::size_t i = 0; i < width; ++i) {
      EXPECT_EQ(x.get(i), a.get(i) != b.get(i)) << "xor w=" << width;
      EXPECT_EQ(n.get(i), a.get(i) && b.get(i)) << "and w=" << width;
      EXPECT_EQ(o.get(i), a.get(i) || b.get(i)) << "or w=" << width;
      count_a += a.get(i) ? 1 : 0;
      parity ^= a.get(i) && b.get(i);
    }
    EXPECT_EQ(a.count(), count_a) << "count w=" << width;
    EXPECT_EQ(a.dot(b), parity) << "dot w=" << width;

    // Trim invariant: ops never set bits past the width.
    BitVec all(width, true);
    EXPECT_EQ(all.count(), width);
    EXPECT_EQ((all ^ a).count(), width - count_a);

    // Equality is width- and content-sensitive at the partial word.
    BitVec c = a;
    EXPECT_TRUE(c == a);
    c.flip(width - 1);
    EXPECT_FALSE(c == a);
    EXPECT_TRUE((a ^ a).none());
    EXPECT_TRUE(all.any());
  }
}

TEST(Simd, Transpose64MatchesNaive) {
  Rng rng(43);
  std::vector<std::vector<std::uint64_t>> cases;
  for (int r = 0; r < 8; ++r) cases.push_back(random_words(64, rng));
  cases.emplace_back(64, 0);             // all zero
  cases.emplace_back(64, ~0ULL);         // all one
  std::vector<std::uint64_t> diag(64), row0(64, 0), col0(64), last(64, 0);
  for (std::size_t i = 0; i < 64; ++i) {
    diag[i] = 1ULL << i;
    col0[i] = 1;
  }
  row0[0] = ~0ULL;
  last[63] = 1ULL << 63;
  for (const auto& m : {diag, row0, col0, last}) cases.push_back(m);
  for (std::size_t k = 0; k < 64; ++k) {  // one bit at (k, 63 - k)
    std::vector<std::uint64_t> m(64, 0);
    m[k] = 1ULL << (63 - k);
    cases.push_back(m);
  }

  for (const auto& in : cases) {
    std::vector<std::uint64_t> got = in;
    simd::transpose64(got.data());
    for (std::size_t i = 0; i < 64; ++i)
      for (std::size_t j = 0; j < 64; ++j)
        ASSERT_EQ((got[i] >> j) & 1, (in[j] >> i) & 1)
            << "bit (" << i << ", " << j << ")";
    simd::transpose64(got.data());
    EXPECT_EQ(got, in);  // an involution
  }
}

TEST(Simd, WideSimulatorMatchesSingleWordLanes) {
  // A W-word block run must produce, lane by lane, exactly the words a
  // single-word simulator produces for the same input words.
  const Netlist n = sim_circuit(44);
  const std::size_t W = simd::kBlockWords;
  Simulator wide(n, W);
  Simulator narrow(n);
  Rng rng(45);

  std::vector<std::vector<std::uint64_t>> inputs(n.num_inputs());
  for (std::size_t i = 0; i < n.num_inputs(); ++i) {
    inputs[i] = random_words(W, rng);
    wide.set_input_block(i, inputs[i]);
  }
  wide.run();

  for (std::size_t lane = 0; lane < W; ++lane) {
    for (std::size_t i = 0; i < n.num_inputs(); ++i)
      narrow.set_input_word(i, inputs[i][lane]);
    narrow.run();
    for (GateId g = 0; g < n.num_gates(); ++g)
      ASSERT_EQ(wide.value_block(g)[lane], narrow.value(g))
          << "gate " << g << " lane " << lane;
  }
}

TEST(Simd, WideSimulatorBroadcastAndRunSingleAgree) {
  const Netlist n = sim_circuit(46);
  Simulator wide(n, simd::kBlockWords);
  Simulator narrow(n);
  Rng rng(47);
  const BitVec pattern = BitVec::random(n.num_inputs(), rng);

  wide.broadcast_inputs(pattern);
  wide.run();
  const BitVec single = narrow.run_single(pattern);
  for (std::size_t o = 0; o < n.num_outputs(); ++o) {
    const auto block = wide.output_block(o);
    const std::uint64_t expect = single.get(o) ? ~0ULL : 0ULL;
    for (std::size_t j = 0; j < block.size(); ++j)
      EXPECT_EQ(block[j], expect) << "output " << o << " word " << j;
  }
}

TEST(Simd, WideFaultSimDetectsExactlyTheSingleWordSet) {
  // run_random draws pattern words in the same global order at any block
  // width, and block detection is the union over lanes — so the detected
  // set (and thus the surviving fault list) must be identical.
  const Netlist n = sim_circuit(48, 600);
  FaultSimulator fs1(n, 1);
  FaultSimulator fs4(n, simd::kBlockWords);

  std::vector<Fault> rem1 = collapse_faults(n);
  std::vector<Fault> rem4 = rem1;
  ASSERT_FALSE(rem1.empty());

  Rng rng1(49), rng4(49);
  const std::size_t words = 2 * simd::kBlockWords;  // whole blocks only
  const std::size_t det1 = fs1.run_random(words, rng1, rem1);
  const std::size_t det4 = fs4.run_random(words, rng4, rem4);

  EXPECT_GT(det1, 0u);
  EXPECT_EQ(det1, det4);
  EXPECT_EQ(rem1, rem4);  // same survivors, same order
}

TEST(Simd, WideFaultSimBlockMatchesLaneByLaneRuns) {
  // One W-wide block vs the same W words pushed through single-word
  // blocks: both must drop exactly the same faults.
  const Netlist n = sim_circuit(50, 600);
  FaultSimulator fs1(n, 1);
  FaultSimulator fsw(n, simd::kBlockWords);
  Rng rng(51);
  const std::size_t W = simd::kBlockWords;

  std::vector<std::uint64_t> block(n.num_inputs() * W);
  for (auto& w : block) w = rng.word();

  std::vector<Fault> rem_wide = collapse_faults(n);
  std::size_t det_wide = fsw.run_block(block, rem_wide);

  std::vector<Fault> rem_narrow = collapse_faults(n);
  std::size_t det_narrow = 0;
  std::vector<std::uint64_t> one(n.num_inputs());
  for (std::size_t lane = 0; lane < W; ++lane) {
    for (std::size_t i = 0; i < n.num_inputs(); ++i)
      one[i] = block[i * W + lane];
    det_narrow += fs1.run_block(one, rem_narrow);
  }

  EXPECT_EQ(det_wide, det_narrow);
  EXPECT_EQ(rem_wide, rem_narrow);
}

}  // namespace
}  // namespace orap
