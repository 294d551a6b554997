// Tests for the fault model, fault simulator and SAT-ATPG, including the
// Table II properties: high coverage on random logic, provably redundant
// faults classified as redundant, and improved testability of locked
// circuits when key inputs are scan-controllable.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "atpg/atpg.h"
#include "atpg/fault.h"
#include "atpg/fault_sim.h"
#include "gen/circuit_gen.h"
#include "gen/embedded.h"
#include "locking/locking.h"
#include "netlist/simulator.h"
#include "util/rng.h"

namespace orap {
namespace {

TEST(FaultModel, EnumerationCounts) {
  // c17: 5 PIs + 6 NANDs, several multi-fanout nets.
  const Netlist n = make_c17();
  const auto all = enumerate_faults(n);
  // 11 stems * 2 = 22 output faults, plus branch faults at multi-fanout
  // drivers (net 3: fanout 2 -> 2 gates have a branch; net 11: fanout 2;
  // net 16: fanout 2) = 6 branches * 2 = 12. Total 34.
  EXPECT_EQ(all.size(), 34u);
}

TEST(FaultModel, CollapsingShrinksList) {
  const Netlist n = make_c17();
  const auto all = enumerate_faults(n);
  const auto collapsed = collapse_faults(n);
  EXPECT_LT(collapsed.size(), all.size());
  // NAND branch sa0 faults are dropped (equivalent to output), sa1 kept.
  for (const Fault& f : collapsed) {
    if (f.pin >= 0 && n.type(f.gate) == GateType::kNand) {
      EXPECT_TRUE(f.stuck_value);
    }
  }
}

TEST(FaultModel, NamesAreReadable) {
  const Netlist n = make_c17();
  const Fault f{n.find("22"), -1, true};
  EXPECT_EQ(fault_name(n, f), "22/sa1");
}

TEST(FaultSim, DetectsInjectedFaultExactly) {
  // Cross-check the event-driven simulator against brute-force faulty
  // netlist simulation on c17, all faults x all 32 input patterns.
  const Netlist n = make_c17();
  Simulator good(n);
  for (const Fault& f : enumerate_faults(n)) {
    FaultSimulator fsim(n);
    for (unsigned m = 0; m < 32; ++m) {
      BitVec p(5);
      for (int i = 0; i < 5; ++i) p.set(i, (m >> i) & 1);
      // Brute force: evaluate with fault injected.
      Simulator sim(n);
      sim.broadcast_inputs(p);
      // Manual faulty evaluation.
      std::vector<std::uint64_t> vals(n.num_gates());
      for (GateId g = 0; g < n.num_gates(); ++g) {
        if (n.type(g) == GateType::kInput) {
          vals[g] = p.get(n.input_index(g)) ? ~0ULL : 0ULL;
        } else {
          std::vector<std::uint64_t> fi;
          const auto fanins = n.fanins(g);
          for (std::size_t q = 0; q < fanins.size(); ++q) {
            std::uint64_t v = vals[fanins[q]];
            if (f.gate == g && static_cast<std::int32_t>(q) == f.pin)
              v = f.stuck_value ? ~0ULL : 0ULL;
            fi.push_back(v);
          }
          vals[g] = eval_gate_word(n.type(g), fi);
        }
        if (f.gate == g && f.pin < 0) vals[g] = f.stuck_value ? ~0ULL : 0ULL;
      }
      bool brute_detect = false;
      const BitVec good_out = good.run_single(p);
      for (std::size_t o = 0; o < n.num_outputs(); ++o)
        brute_detect |=
            good_out.get(o) != ((vals[n.outputs()[o].gate] & 1) != 0);
      EXPECT_EQ(fsim.detects(p, f), brute_detect)
          << fault_name(n, f) << " pattern " << m;
    }
  }
}

TEST(FaultSim, RandomPhaseDropsDetectedFaults) {
  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 16;
  spec.num_gates = 400;
  spec.depth = 9;
  spec.seed = 3;
  const Netlist n = generate_circuit(spec);
  auto faults = collapse_faults(n);
  const std::size_t total = faults.size();
  FaultSimulator fsim(n);
  Rng rng(4);
  const std::size_t detected = fsim.run_random(64, rng, faults);
  EXPECT_EQ(detected + faults.size(), total);
  EXPECT_GT(static_cast<double>(detected) / total, 0.8);
}

TEST(Atpg, GeneratesValidTestForHardFault) {
  // An AND tree root sa0 needs all inputs at 1 — random patterns rarely
  // find it; ATPG must.
  Netlist n;
  std::vector<GateId> ins;
  for (int i = 0; i < 12; ++i) ins.push_back(n.add_input("i" + std::to_string(i)));
  const GateId root = n.add_gate(GateType::kAnd, ins);
  n.mark_output(root, "y");
  const Fault f{root, -1, false};
  bool aborted = false;
  const auto pattern = generate_test(n, f, -1, &aborted);
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->count(), 12u);  // all ones
}

TEST(Atpg, ProvesRedundantFault) {
  // y = (a & b) | (a & !b) simplifies to a; the b-path contains redundant
  // faults: the OR output never equals... specifically sa1 on the AND
  // outputs is testable, but sa0 on input b of the first AND when a=1,
  // b=1... Construct a classically redundant fault: z = a | (a & b):
  // the (a & b) term is absorbed, so its output sa0 is undetectable.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId ab = n.add_and2(a, b);
  const GateId z = n.add_or2(a, ab);
  n.mark_output(z, "z");
  bool aborted = false;
  const auto pattern = generate_test(n, {ab, -1, false}, -1, &aborted);
  EXPECT_FALSE(pattern.has_value());
  EXPECT_FALSE(aborted);
}

TEST(Atpg, AbortsOnBudget) {
  // A tiny budget forces an abort on a hard (but testable) fault.
  GenSpec spec;
  spec.num_inputs = 32;
  spec.num_outputs = 8;
  spec.num_gates = 600;
  spec.depth = 14;
  spec.seed = 5;
  const Netlist n = generate_circuit(spec);
  std::size_t aborted_cnt = 0;
  for (const Fault& f : collapse_faults(n)) {
    bool aborted = false;
    generate_test(n, f, 1, &aborted);
    if (aborted) ++aborted_cnt;
    if (aborted_cnt > 0) break;
  }
  EXPECT_GT(aborted_cnt, 0u);
}

TEST(Atpg, FullFlowHighCoverageOnRandomLogic) {
  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 20;
  spec.num_gates = 500;
  spec.depth = 10;
  spec.seed = 7;
  const Netlist n = generate_circuit(spec);
  AtpgOptions opts;
  opts.random_words = 64;
  const AtpgResult r = run_atpg(n, opts);
  EXPECT_EQ(r.detected() + r.redundant + r.aborted, r.total_faults);
  EXPECT_GT(r.fault_coverage_pct(), 95.0);
  // A handful of genuinely hard proofs may abort at the default budget,
  // exactly like Atalanta's backtrack limit; they must stay rare.
  EXPECT_LE(r.aborted, r.total_faults / 50);
}

TEST(Atpg, AtpgPhaseBeatsRandomOnly) {
  // Deep circuit: random patterns leave a tail that ATPG picks up.
  GenSpec spec;
  spec.num_inputs = 28;
  spec.num_outputs = 12;
  spec.num_gates = 700;
  spec.depth = 18;
  spec.seed = 8;
  const Netlist n = generate_circuit(spec);
  AtpgOptions opts;
  opts.random_words = 48;
  opts.conflict_budget = 5000;
  const AtpgResult r = run_atpg(n, opts);
  EXPECT_GT(r.detected_atpg, 0u);
  EXPECT_GT(r.fault_coverage_pct(), 95.0);
}

TEST(Atpg, LockedCircuitTestabilityImproves) {
  // The Table II effect: with key inputs scan-controllable (free to the
  // ATPG), the protected circuit's redundant+aborted count does not grow
  // and coverage stays at least as high.
  GenSpec spec;
  spec.num_inputs = 24;
  spec.num_outputs = 20;
  spec.num_gates = 500;
  spec.depth = 10;
  spec.seed = 9;
  const Netlist n = generate_circuit(spec);
  const LockedCircuit lc = lock_weighted(n, 24, 3, 10);
  AtpgOptions opts;
  opts.random_words = 96;
  const AtpgResult orig = run_atpg(n, opts);
  const AtpgResult prot = run_atpg(lc.netlist, opts);
  EXPECT_GE(prot.fault_coverage_pct() + 0.5, orig.fault_coverage_pct());
  EXPECT_GT(prot.total_faults, orig.total_faults);
}

// --- ground truth: SAT verdicts against exhaustive fault simulation --------

/// For each fault, whether any of the 2^n input patterns detects it: one
/// fault-simulation block that enumerates every pattern (n <= 12).
std::vector<bool> exhaustively_detectable(const Netlist& n,
                                          const std::vector<Fault>& faults) {
  const std::size_t ni = n.num_inputs();
  EXPECT_LE(ni, 12u);
  const std::size_t patterns = std::size_t{1} << ni;
  const std::size_t w = std::max<std::size_t>(1, patterns / 64);
  std::vector<std::uint64_t> words(ni * w, 0);
  for (std::size_t lane = 0; lane < w * 64; ++lane) {
    const std::size_t p = lane % patterns;  // n < 6: repeat to fill a word
    for (std::size_t i = 0; i < ni; ++i)
      if ((p >> i) & 1) words[i * w + lane / 64] |= 1ULL << (lane % 64);
  }
  FaultSimulator fsim(n, w);
  std::vector<Fault> undetected = faults;
  fsim.run_block(words, undetected);
  std::vector<bool> detectable(faults.size());
  for (std::size_t j = 0; j < faults.size(); ++j)
    detectable[j] = std::find(undetected.begin(), undetected.end(),
                              faults[j]) == undetected.end();
  return detectable;
}

/// XOR-heavy circuit with reconvergent fanout, a MUX and a constant: the
/// shapes where a fault effect can cancel itself on reconvergence.
Netlist make_xor_reconvergent() {
  Netlist n;
  std::vector<GateId> in;
  for (int i = 0; i < 6; ++i)
    in.push_back(n.add_input("x" + std::to_string(i)));
  const GateId one = n.add_const(true);
  const GateId a = n.add_xor2(in[0], in[1]);
  const GateId b = n.add_xor2(in[1], in[2]);
  const GateId c = n.add_xor2(a, b);  // in[1] reconverges and cancels
  const GateId d = n.add_gate(GateType::kXnor, {c, in[3]});
  const GateId e = n.add_and2(a, n.add_not(b));
  const GateId m = n.add_gate(GateType::kMux, {in[4], d, e});
  const GateId f = n.add_xor2(m, n.add_xor2(a, in[5]));
  const GateId g = n.add_gate(GateType::kOr, {e, in[5], one});  // constant 1
  const GateId h = n.add_gate(GateType::kNand, {d, f, in[4]});
  n.mark_output(f, "f");
  n.mark_output(g, "g");
  n.mark_output(h, "h");
  n.mark_output(n.add_xor2(c, in[0]), "k");
  return n;
}

std::vector<std::pair<std::string, Netlist>> ground_truth_circuits() {
  std::vector<std::pair<std::string, Netlist>> out;
  out.emplace_back("c17", make_c17());
  out.emplace_back("xor_reconvergent", make_xor_reconvergent());
  const GenSpec specs[] = {
      {"g10", 10, 6, 60, 6, 0.12, 0.25, 11},
      {"g12", 12, 4, 90, 9, 0.12, 0.25, 12},
      {"g8x", 8, 8, 50, 5, 0.45, 0.25, 13},
      {"g11d", 11, 3, 80, 12, 0.2, 0.4, 14},
  };
  for (const GenSpec& spec : specs)
    out.emplace_back(spec.name, generate_circuit(spec));
  // Weighted locking: the key bits are extra scan-controllable inputs.
  const GenSpec base{"g8", 8, 6, 60, 7, 0.12, 0.25, 15};
  out.emplace_back("g8_weighted",
                   lock_weighted(generate_circuit(base), 4, 2, 16).netlist);
  return out;
}

TEST(AtpgGroundTruth, GenerateTestMatchesExhaustiveSimulation) {
  std::size_t detected = 0, redundant = 0;
  for (const auto& [name, n] : ground_truth_circuits()) {
    const auto faults = collapse_faults(n);
    const auto detectable = exhaustively_detectable(n, faults);
    FaultSimulator fsim(n);
    for (std::size_t j = 0; j < faults.size(); ++j) {
      const Fault& f = faults[j];
      bool aborted = true;
      const auto pattern = generate_test(n, f, -1, &aborted);
      EXPECT_FALSE(aborted) << name << " " << fault_name(n, f);
      EXPECT_EQ(pattern.has_value(), detectable[j])
          << name << " " << fault_name(n, f);
      if (pattern.has_value()) {
        EXPECT_TRUE(fsim.detects(*pattern, f))
            << name << " " << fault_name(n, f);
      }
      detected += detectable[j] ? 1 : 0;
      redundant += detectable[j] ? 0 : 1;
    }
  }
  // The circuits must exercise both verdicts.
  EXPECT_GT(detected, 0u);
  EXPECT_GT(redundant, 0u);
}

TEST(AtpgGroundTruth, RunAtpgSplitMatchesExhaustiveOnBothPaths) {
  for (const auto& [name, n] : ground_truth_circuits()) {
    const auto faults = collapse_faults(n);
    const auto detectable = exhaustively_detectable(n, faults);
    const auto expect_detected = static_cast<std::size_t>(
        std::count(detectable.begin(), detectable.end(), true));
    for (const bool incremental : {false, true}) {
      AtpgOptions opts;
      opts.random_words = 0;  // every fault goes through the SAT phase
      opts.conflict_budget = -1;
      opts.incremental = incremental;
      const AtpgResult r = run_atpg(n, opts);
      EXPECT_EQ(r.total_faults, faults.size()) << name;
      EXPECT_EQ(r.detected(), expect_detected)
          << name << " incremental=" << incremental;
      EXPECT_EQ(r.redundant, faults.size() - expect_detected)
          << name << " incremental=" << incremental;
      EXPECT_EQ(r.aborted, 0u) << name << " incremental=" << incremental;
    }
  }
}

TEST(AtpgGroundTruth, EffectThroughOneOfTwoReconvergentBranches) {
  // s fans out to p = s & b and q = s & c, which reconverge at y = p ^ q.
  // With s stuck-at-0 the effect reaches y only when it travels exactly
  // one branch (b != c); through both it cancels.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId e = n.add_input("e");
  const GateId b = n.add_input("b");
  const GateId c = n.add_input("c");
  const GateId s = n.add_and2(a, e);
  const GateId p = n.add_and2(s, b);
  const GateId q = n.add_and2(s, c);
  n.mark_output(n.add_xor2(p, q), "y");
  const Fault f{s, -1, false};
  bool aborted = true;
  const auto pattern = generate_test(n, f, -1, &aborted);
  ASSERT_TRUE(pattern.has_value());
  EXPECT_FALSE(aborted);
  EXPECT_TRUE(pattern->get(0) && pattern->get(1));  // activates s = 1
  EXPECT_NE(pattern->get(2), pattern->get(3));      // one branch only
  FaultSimulator fsim(n);
  EXPECT_TRUE(fsim.detects(*pattern, f));

  // A branch that never carries the effect: r = s & !a is 0 whenever
  // s/sa0 is activated (a = 1), so the effect must leave through s & e.
  // r itself is constant 0, so r/sa0 is redundant.
  Netlist m;
  const GateId a2 = m.add_input("a");
  const GateId e2 = m.add_input("e");
  const GateId s2 = m.add_and2(a2, e2);
  const GateId r2 = m.add_and2(s2, m.add_not(a2));
  m.mark_output(m.add_or2(r2, m.add_and2(s2, e2)), "y");
  m.mark_output(r2, "y2");
  const auto via_live = generate_test(m, {s2, -1, false}, -1, &aborted);
  ASSERT_TRUE(via_live.has_value());
  EXPECT_TRUE(via_live->get(0) && via_live->get(1));
  EXPECT_FALSE(generate_test(m, {r2, -1, false}, -1, &aborted).has_value());
  EXPECT_FALSE(aborted);
}

TEST(AtpgGroundTruth, PinFaultOnFanoutBranch) {
  // Stem b drives p = a & b and q = b | c. A stuck-at-1 on p's b-branch
  // must be activated on the stem's driver (b = 0) and observed at p only;
  // q keeps its good value.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId c = n.add_input("c");
  const GateId p = n.add_and2(a, b);
  const GateId q = n.add_or2(b, c);
  n.mark_output(p, "p");
  n.mark_output(q, "q");
  const Fault branch{p, 1, true};
  const auto faults = collapse_faults(n);
  ASSERT_NE(std::find(faults.begin(), faults.end(), branch), faults.end());
  bool aborted = true;
  const auto pattern = generate_test(n, branch, -1, &aborted);
  ASSERT_TRUE(pattern.has_value());
  EXPECT_FALSE(aborted);
  EXPECT_TRUE(pattern->get(0));   // a = 1 propagates through p
  EXPECT_FALSE(pattern->get(1));  // b = 0 activates the stuck-at-1
  FaultSimulator fsim(n);
  EXPECT_TRUE(fsim.detects(*pattern, branch));
}

class AtpgSweep : public ::testing::TestWithParam<int> {};

TEST_P(AtpgSweep, EveryAtpgPatternDetectsAndAccountingIsExact) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 12;
  spec.num_gates = 250;
  spec.depth = 8 + GetParam() % 6;
  spec.seed = 600 + GetParam();
  const Netlist n = generate_circuit(spec);
  AtpgOptions opts;
  opts.random_words = 8;
  opts.seed = GetParam();
  const AtpgResult r = run_atpg(n, opts);
  EXPECT_EQ(r.detected() + r.redundant + r.aborted, r.total_faults);
  EXPECT_GT(r.fault_coverage_pct(), 90.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AtpgSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace orap
