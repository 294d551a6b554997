// Tests for the --incremental attack/ATPG core: the constant-folded
// persistent-miter SAT attack, the single-solver ATPG, and the
// assumption-based sensitization attack. The contract under test:
//   (1) incremental mode reaches the same attack outcome (status + a
//       functionally correct key / the same fault classification) as the
//       default rebuild-per-query mode, and
//   (2) within one incremental setting the result is bit-identical across
//       the threads x portfolio grid, and
//   (3) the new accounting (incremental_rounds / clauses_carried /
//       encode_reused) actually counts something.

#include <gtest/gtest.h>

#include <vector>

#include "atpg/atpg.h"
#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "attacks/simple_attacks.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "util/parallel.h"

namespace orap {
namespace {

Netlist small_circuit(std::uint64_t seed, std::size_t gates = 300) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = gates;
  spec.depth = 8;
  spec.seed = seed;
  return generate_circuit(spec);
}

struct GridPoint {
  std::size_t threads, portfolio;
};

std::vector<GridPoint> config_grid() {
  std::vector<GridPoint> grid;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}})
    for (const std::size_t portfolio : {std::size_t{1}, std::size_t{3}})
      grid.push_back({threads, portfolio});
  return grid;
}

TEST(Incremental, SatAttackMatchesRebuildModeAndCountsReuse) {
  const Netlist n = small_circuit(80);
  const LockedCircuit lc = lock_weighted(n, 14, 3, 81);
  SatAttackResult results[2];
  for (const bool inc : {false, true}) {
    GoldenOracle oracle(lc);
    SatAttackOptions opts;
    opts.incremental = inc;
    results[inc ? 1 : 0] = sat_attack(lc, oracle, opts);
  }
  for (const auto& r : results) {
    ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
    GoldenOracle verify(lc);
    EXPECT_EQ(verify_key_against_oracle(lc, r.key, verify, 128, 5), 0u);
  }
  // The folded encoding must actually fold: constant key-independent
  // cones never reach the solver, and learnts survive across DIP rounds.
  EXPECT_GT(results[1].encode_reused, 0u);
  EXPECT_GT(results[1].clauses_carried, 0u);
  EXPECT_GT(results[1].incremental_rounds, 0u);
  // The rebuild path encodes every constrained gate, folding none.
  EXPECT_EQ(results[0].encode_reused, 0u);
}

TEST(Incremental, AppSatAndDoubleDipRecoverKeysIncrementally) {
  const Netlist n = small_circuit(82);
  const LockedCircuit lc = lock_weighted(n, 12, 3, 83);
  {
    GoldenOracle oracle(lc);
    AppSatOptions opts;
    opts.incremental = true;
    const SatAttackResult r = appsat_attack(lc, oracle, opts);
    ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
    GoldenOracle verify(lc);
    EXPECT_EQ(verify_key_against_oracle(lc, r.key, verify, 128, 5), 0u);
    EXPECT_GT(r.encode_reused, 0u);
  }
  {
    GoldenOracle oracle(lc);
    SatAttackOptions opts;
    opts.incremental = true;
    const SatAttackResult r = double_dip_attack(lc, oracle, opts);
    ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
    GoldenOracle verify(lc);
    EXPECT_EQ(verify_key_against_oracle(lc, r.key, verify, 128, 5), 0u);
    EXPECT_GT(r.encode_reused, 0u);
  }
}

TEST(Incremental, SatAttackBitIdenticalAcrossGridPerSetting) {
  // Within one incremental setting the whole trajectory must reproduce at
  // every threads x portfolio point; across the two settings the
  // CNF differs (folded vs full), so only the outcome is compared.
  const Netlist n = small_circuit(84);
  const LockedCircuit lc = lock_weighted(n, 14, 3, 85);
  for (const bool inc : {false, true}) {
    std::vector<SatAttackResult> results;
    for (const GridPoint g : config_grid()) {
      set_parallel_threads(g.threads);
      GoldenOracle oracle(lc);
      SatAttackOptions opts;
      opts.incremental = inc;
      opts.portfolio_size = g.portfolio;
      results.push_back(sat_attack(lc, oracle, opts));
    }
    set_parallel_threads(0);
    ASSERT_EQ(results[0].status, SatAttackResult::Status::kKeyFound)
        << "incremental " << inc;
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].status, results[0].status)
          << "incremental " << inc << " grid point " << i;
      EXPECT_EQ(results[i].iterations, results[0].iterations)
          << "incremental " << inc << " grid point " << i;
      EXPECT_EQ(results[i].key, results[0].key)
          << "incremental " << inc << " grid point " << i;
      EXPECT_EQ(results[i].oracle_queries, results[0].oracle_queries)
          << "incremental " << inc << " grid point " << i;
    }
  }
}

TEST(Incremental, SarlockStillHitsTheExponentialWall) {
  // Folding must not change what the attack can infer: SARLock still
  // costs ~2^k DIPs, and both modes land on the same DIP count (each DIP
  // eliminates exactly one wrong key regardless of encoding).
  const Netlist n = small_circuit(86);
  const LockedCircuit lc = lock_sarlock(n, 6, 87);
  std::size_t dips[2];
  for (const bool inc : {false, true}) {
    GoldenOracle oracle(lc);
    SatAttackOptions opts;
    opts.incremental = inc;
    const SatAttackResult r = sat_attack(lc, oracle, opts);
    ASSERT_EQ(r.status, SatAttackResult::Status::kKeyFound);
    GoldenOracle verify(lc);
    EXPECT_EQ(verify_key_against_oracle(lc, r.key, verify, 128, 5), 0u);
    dips[inc ? 1 : 0] = r.iterations;
  }
  EXPECT_GE(dips[1], (std::size_t{1} << 6) - 1);
  EXPECT_EQ(dips[0], dips[1]);
}

TEST(Incremental, AtpgMatchesNonIncrementalClassification) {
  // Both modes run exact SAT-ATPG; with a budget generous enough that
  // nothing aborts, the detected / redundant split is a property of the
  // circuit and must not depend on the solver lifecycle. Also covers
  // preprocess-in-incremental (subsumption with every gate var frozen).
  const Netlist n = small_circuit(88, 400);
  AtpgResult results[3];
  int idx = 0;
  for (const auto& [inc, pre] :
       {std::pair{false, false}, {true, false}, {true, true}}) {
    AtpgOptions opts;
    opts.random_words = 8;  // leave real work for the SAT phase
    opts.conflict_budget = 200000;
    opts.incremental = inc;
    opts.preprocess = pre;
    results[idx++] = run_atpg(n, opts);
  }
  ASSERT_GT(results[0].detected_atpg + results[0].redundant, 0u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(results[i].aborted, 0u) << "config " << i;
    EXPECT_EQ(results[i].total_faults, results[0].total_faults)
        << "config " << i;
    EXPECT_EQ(results[i].detected_random, results[0].detected_random)
        << "config " << i;
    EXPECT_EQ(results[i].detected_atpg, results[0].detected_atpg)
        << "config " << i;
    EXPECT_EQ(results[i].redundant, results[0].redundant) << "config " << i;
  }
  // The persistent solver shares the good copy across every fault query.
  EXPECT_GT(results[1].encode_reused, 0u);
  EXPECT_GT(results[1].solver_rounds, 0u);
  EXPECT_EQ(results[0].encode_reused, 0u);
}

TEST(Incremental, AtpgPatternsStillDetectTheirFaults) {
  // Every ATPG-phase pattern from the incremental solver must actually
  // detect a fault on the real (non-CNF) fault model.
  const Netlist n = small_circuit(89, 400);
  AtpgOptions opts;
  opts.random_words = 8;
  opts.conflict_budget = 200000;
  opts.incremental = true;
  const AtpgResult r = run_atpg(n, opts);
  // One pattern per ATPG solve; resimulation with dropping can credit a
  // pattern with extra detections, so patterns <= detected_atpg.
  EXPECT_GT(r.patterns.size(), 0u);
  EXPECT_LE(r.patterns.size(), r.detected_atpg);
  for (const BitVec& p : r.patterns) EXPECT_EQ(p.size(), n.num_inputs());
}

TEST(Incremental, SensitizationResolvesCorrectBitsOnSparseXor) {
  // Sparse XOR locking leaves isolated key gates whose bits sensitize
  // cleanly (see Sensitization.ResolvesBitsOfRandomXor); the incremental
  // solver must infer only correct values and must actually solve its
  // rounds on the one persistent formula. Resolution counts can differ
  // between the modes (different SAT models -> different probe inputs),
  // so each mode is held to the correctness bar independently, aggregated
  // over a few circuits.
  std::size_t resolved[2] = {0, 0};
  std::uint64_t rounds = 0, carried = 0;
  for (std::uint64_t seed : {90u, 190u, 290u}) {
    const Netlist n = small_circuit(seed);
    const LockedCircuit lc = lock_random_xor(n, 4, seed + 1);
    for (const bool inc : {false, true}) {
      GoldenOracle oracle(lc);
      const SensitizationResult r =
          sensitization_attack(lc, oracle, seed + 2, 20000, inc);
      resolved[inc ? 1 : 0] += r.resolved;
      for (std::size_t i = 0; i < lc.num_key_inputs; ++i) {
        if (r.key_bits[i] >= 0) {
          EXPECT_EQ(r.key_bits[i], lc.correct_key.get(i) ? 1 : 0)
              << "seed " << seed << " inc " << inc << " bit " << i;
        }
      }
      if (inc) {
        rounds += r.solver_rounds;
        carried += r.clauses_carried;
      }
    }
  }
  EXPECT_GE(resolved[0], 2u);
  EXPECT_GE(resolved[1], 2u);
  EXPECT_GT(rounds, 0u);
  // At least some round inherits learnts from an earlier one.
  EXPECT_GT(carried, 0u);
}

}  // namespace
}  // namespace orap
