#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "eval/evaluator.h"
#include "paper_fixture.h"
#include "provenance/bool_expr.h"
#include "shapley/ladder.h"
#include "shapley/shapley.h"

namespace lshap {
namespace {

// Random monotone DNF over [0, num_vars).
Dnf RandomDnf(Rng& rng, size_t num_vars, size_t num_clauses,
              size_t max_clause_len) {
  std::vector<Clause> clauses;
  for (size_t c = 0; c < num_clauses; ++c) {
    Clause clause;
    const size_t len = 1 + rng.NextBounded(max_clause_len);
    for (size_t i = 0; i < len; ++i) {
      clause.push_back(static_cast<FactId>(rng.NextBounded(num_vars)));
    }
    clauses.push_back(clause);
  }
  return Dnf(std::move(clauses));
}

TEST(ShapleyBruteTest, SingleFact) {
  const Dnf d(std::vector<Clause>{{7}});
  const auto v = ComputeShapleyBrute(d).value();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v.at(7), 1.0);
}

TEST(ShapleyBruteTest, ConjunctionSplitsEvenly) {
  const Dnf d(std::vector<Clause>{{1, 2}});
  const auto v = ComputeShapleyBrute(d).value();
  EXPECT_DOUBLE_EQ(v.at(1), 0.5);
  EXPECT_DOUBLE_EQ(v.at(2), 0.5);
}

TEST(ShapleyBruteTest, DisjunctionSplitsEvenly) {
  const Dnf d(std::vector<Clause>{{1}, {2}});
  const auto v = ComputeShapleyBrute(d).value();
  EXPECT_DOUBLE_EQ(v.at(1), 0.5);
  EXPECT_DOUBLE_EQ(v.at(2), 0.5);
}

TEST(ShapleyBruteTest, RefusesOversizedLineage) {
  // 26 independent single-fact clauses: 2^26 subset masks would be required;
  // the guard must refuse instead of CHECK-aborting on generated provenance.
  std::vector<Clause> clauses;
  for (FactId f = 0; f < 26; ++f) clauses.push_back({f});
  const auto r = ComputeShapleyBrute(Dnf(std::move(clauses)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// Example 2.2 of the paper: Shapley(q_inf, Alice, c2) = 19/252 and
// Shapley(q_inf, Alice, c1) = 10/63, over the 9-variable provenance
// (a1 m1 c1 r1) ∨ (a1 m2 c1 r2) ∨ (a1 m3 c2 r3).
TEST(ShapleyExactTest, PaperExample22) {
  const FactId a1 = 0, m1 = 1, c1 = 2, r1 = 3, m2 = 4, r2 = 5, m3 = 6,
               c2 = 7, r3 = 8;
  const Dnf d(std::vector<Clause>{{a1, m1, c1, r1}, {a1, m2, c1, r2}, {a1, m3, c2, r3}});
  const auto v = ComputeShapleyExactUnlimited(d);
  ASSERT_EQ(v.size(), 9u);
  EXPECT_NEAR(v.at(c2), 19.0 / 252.0, 1e-12);
  EXPECT_NEAR(v.at(c1), 10.0 / 63.0, 1e-12);
  // c1 supports two derivations of Alice, c2 only one (Example 1.1).
  EXPECT_GT(v.at(c1), v.at(c2));
  // a1 appears in every clause and must dominate everything.
  for (const auto& [f, val] : v) {
    if (f != a1) {
      EXPECT_GT(v.at(a1), val);
    }
  }
}

// Efficiency: for monotone provenance satisfied by the full database and
// not by the empty one, Shapley values sum to exactly 1.
TEST(ShapleyExactTest, EfficiencyAxiom) {
  Rng rng(52);
  for (int trial = 0; trial < 40; ++trial) {
    const Dnf d = RandomDnf(rng, 2 + rng.NextBounded(8), 1 + rng.NextBounded(5), 3);
    const auto v = ComputeShapleyExactUnlimited(d);
    double sum = 0.0;
    for (const auto& [f, val] : v) sum += val;
    EXPECT_NEAR(sum, 1.0, 1e-9) << d.ToString();
  }
}

// Symmetry: variables playing interchangeable roles get equal values.
TEST(ShapleyExactTest, SymmetryAxiom) {
  const Dnf d(std::vector<Clause>{{1, 2}, {1, 3}});
  const auto v = ComputeShapleyExactUnlimited(d);
  EXPECT_NEAR(v.at(2), v.at(3), 1e-12);
  EXPECT_GT(v.at(1), v.at(2));
}

// Null players: a variable appearing only in absorbed clauses has value 0.
TEST(ShapleyExactTest, NullPlayerAxiom) {
  const Dnf d(std::vector<Clause>{{1}, {1, 9}});
  const auto v = ComputeShapleyExactUnlimited(d);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v.at(1), 1.0);
  EXPECT_DOUBLE_EQ(v.at(9), 0.0);
}

// The core cross-check: the circuit algorithm must agree with brute-force
// enumeration on random DNFs.
TEST(ShapleyExactTest, MatchesBruteForceOnRandomDnfs) {
  Rng rng(77);
  for (int trial = 0; trial < 80; ++trial) {
    const size_t num_vars = 2 + rng.NextBounded(11);  // ≤ 12 vars
    const Dnf d = RandomDnf(rng, num_vars, 1 + rng.NextBounded(6), 4);
    const auto exact = ComputeShapleyExactUnlimited(d);
    const auto brute = ComputeShapleyBrute(d).value();
    ASSERT_EQ(exact.size(), brute.size()) << d.ToString();
    for (const auto& [f, val] : brute) {
      EXPECT_NEAR(exact.at(f), val, 1e-9) << "var " << f << " in "
                                          << d.ToString();
    }
  }
}

TEST(ShapleyExactTest, HandlesLargerLineages) {
  // 3 chains of 10 variables (30 vars total) — far beyond brute force, and
  // the decomposition keeps the circuit tiny.
  std::vector<Clause> clauses;
  for (FactId base = 0; base < 30; base += 10) {
    Clause c;
    for (FactId i = 0; i < 10; ++i) c.push_back(base + i);
    clauses.push_back(c);
  }
  const auto v = ComputeShapleyExactUnlimited(Dnf(std::move(clauses)));
  ASSERT_EQ(v.size(), 30u);
  double sum = 0.0;
  for (const auto& [f, val] : v) {
    sum += val;
    EXPECT_GT(val, 0.0);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Symmetric chains: all variables equal.
  EXPECT_NEAR(v.at(0), v.at(29), 1e-10);
}

TEST(ShapleyMonteCarloTest, ConvergesToExact) {
  Rng data_rng(31);
  const Dnf d = RandomDnf(data_rng, 8, 4, 3);
  const auto exact = ComputeShapleyExactUnlimited(d);
  Rng mc_rng(32);
  const auto mc = ComputeShapleyMonteCarloUnlimited(d, 20000, mc_rng);
  for (const auto& [f, val] : exact) {
    EXPECT_NEAR(mc.at(f), val, 0.02) << "var " << f;
  }
}

TEST(ShapleyMonteCarloTest, RejectsZeroSamples) {
  Rng data_rng(31);
  const Dnf d = RandomDnf(data_rng, 8, 4, 3);
  ExecutionBudget budget = ExecutionBudget::Unlimited();
  Rng rng(1);
  // Zero permutations have no average: an error, not 0/0 NaN values.
  const auto r = ComputeShapleyMonteCarlo(d, 0, rng, budget);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---- Relation-stratified Monte Carlo (ComputeShapleyStratified) ----

// Strata by fact-id parity: a cheap stand-in for "relation of origin" that
// still yields at least two non-trivial groups on random DNFs.
std::vector<uint32_t> ParityStrata(const Dnf& d) {
  const std::vector<FactId> vars = d.Variables();
  std::vector<uint32_t> strata(vars.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    strata[i] = static_cast<uint32_t>(vars[i] % 2);
  }
  return strata;
}

TEST(StratifiedMcTest, DeterministicUnderFixedSeed) {
  Rng data_rng(41);
  const Dnf d = RandomDnf(data_rng, 10, 5, 3);
  const auto strata = ParityStrata(d);
  // 256 samples with the default 64-permutation pilot: both the pilot and
  // the main pass run, so determinism covers the whole allocation path.
  Rng a(7);
  const auto va = ComputeShapleyStratifiedUnlimited(d, strata, 256, a);
  Rng b(7);
  const auto vb = ComputeShapleyStratifiedUnlimited(d, strata, 256, b);
  ASSERT_EQ(va.size(), vb.size());
  for (const auto& [f, val] : va) {
    EXPECT_DOUBLE_EQ(vb.at(f), val) << "var " << f;
  }
}

TEST(StratifiedMcTest, ConvergesToExact) {
  Rng data_rng(31);
  const Dnf d = RandomDnf(data_rng, 8, 4, 3);
  const auto exact = ComputeShapleyExactUnlimited(d);
  Rng rng(33);
  const auto strat =
      ComputeShapleyStratifiedUnlimited(d, ParityStrata(d), 20000, rng);
  double sum = 0.0;
  for (const auto& [f, val] : exact) {
    EXPECT_NEAR(strat.at(f), val, 0.02) << "var " << f;
  }
  for (const auto& [f, val] : strat) sum += val;
  // The estimator is per-fact (not permutation-walk), so efficiency holds
  // only in expectation — but it must hold tightly at this sample count.
  EXPECT_NEAR(sum, 1.0, 0.05);
}

TEST(StratifiedMcTest, BudgetExhaustionLeaksNoPartialState) {
  Rng data_rng(41);
  const Dnf d = RandomDnf(data_rng, 10, 5, 3);
  const auto strata = ParityStrata(d);
  // 10 work units cannot cover the 64-permutation pilot, let alone the
  // main pass: the call must fail sticky with no values returned.
  ExecutionBudget budget({0.0, 10});
  Rng rng(7);
  const auto r = ComputeShapleyStratified(d, strata, 256, rng, budget);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(budget.tripped());
  EXPECT_EQ(budget.trip_site(), kSiteShapleyStratPilot);
}

TEST(StratifiedMcTest, FaultInMainPassTripsCleanly) {
  Rng data_rng(41);
  const Dnf d = RandomDnf(data_rng, 10, 5, 3);
  const auto strata = ParityStrata(d);
  FaultInjector fault;
  fault.FailAt(kSiteShapleyStratSample, 3);
  ExecutionBudget budget({0.0, 0}, nullptr, &fault);
  Rng rng(7);
  const auto r = ComputeShapleyStratified(d, strata, 256, rng, budget);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(budget.trip_site(), kSiteShapleyStratSample);
}

TEST(StratifiedMcTest, MatchesProportionalWhenPilotSkipped) {
  Rng data_rng(41);
  const Dnf d = RandomDnf(data_rng, 10, 5, 3);
  const auto strata = ParityStrata(d);
  // num_samples below 2x the default pilot budget auto-skips the pilot; the
  // result must be bit-identical to explicitly requesting no pilot, i.e.
  // the fallback is plain proportional allocation, not a degraded hybrid.
  StratifiedMcOptions no_pilot;
  no_pilot.pilot_permutations = 0;
  Rng a(9);
  const auto auto_skipped = ComputeShapleyStratifiedUnlimited(d, strata, 100, a);
  Rng b(9);
  const auto explicit_off =
      ComputeShapleyStratifiedUnlimited(d, strata, 100, b, no_pilot);
  ASSERT_EQ(auto_skipped.size(), explicit_off.size());
  for (const auto& [f, val] : auto_skipped) {
    EXPECT_DOUBLE_EQ(explicit_off.at(f), val) << "var " << f;
  }
}

TEST(StratifiedMcTest, RejectsMalformedArguments) {
  Rng data_rng(41);
  const Dnf d = RandomDnf(data_rng, 6, 3, 3);
  ExecutionBudget budget = ExecutionBudget::Unlimited();
  Rng rng(1);
  // Strata not aligned with the variable list.
  std::vector<uint32_t> short_strata(d.Variables().size() - 1, 0);
  auto r = ComputeShapleyStratified(d, short_strata, 64, rng, budget);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Zero samples.
  const std::vector<uint32_t> strata(d.Variables().size(), 0);
  r = ComputeShapleyStratified(d, strata, 0, rng, budget);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CnfProxyTest, TopFactMatchesExactOnSimpleProvenance) {
  // c1 supports two clauses, c2 one: the proxy must rank c1 above c2, and
  // the all-clause variable a1 on top.
  const FactId a1 = 0, m1 = 1, c1 = 2, r1 = 3, m2 = 4, r2 = 5, m3 = 6,
               c2 = 7, r3 = 8;
  const Dnf d(std::vector<Clause>{{a1, m1, c1, r1}, {a1, m2, c1, r2}, {a1, m3, c2, r3}});
  const auto proxy = ComputeCnfProxyUnlimited(d);
  ASSERT_EQ(proxy.size(), 9u);
  EXPECT_GT(proxy.at(c1), proxy.at(c2));
  const auto ranking = RankByScore(proxy);
  EXPECT_EQ(ranking[0], a1);
}

// ---- The estimator ladder (RunLadder) ----

class EstimatorLadderTest : public ::testing::Test {
 protected:
  EstimatorLadderTest() : ex_(MakePaperExample()) {
    auto eval = Evaluate(*ex_.db, ex_.q_inf, EvalOptions());
    EXPECT_TRUE(eval.ok());
    eval_ = std::move(eval).value();
  }

  // Both q_inf outputs (Alice, Bob), seeded as streams 0 and 1.
  std::vector<LadderInput> Inputs() const {
    return {{&eval_.ProvenanceOf(0), 0}, {&eval_.ProvenanceOf(1), 1}};
  }

  PaperExample ex_;
  EvalResult eval_;
};

TEST_F(EstimatorLadderTest, ZeroSampleRungIsAbsent) {
  std::vector<EstimatorRung> asked;
  ExecutionBudget budget = ExecutionBudget::Unlimited();
  const LadderResult r = RunLadder(
      *ex_.db,
      {{EstimatorRung::kMonteCarlo, 0}, {EstimatorRung::kStratified, 0},
       {EstimatorRung::kCnfProxy}},
      /*seed_base=*/1, Inputs(), [&](EstimatorRung rung) {
        asked.push_back(rung);
        return &budget;
      });
  // Neither sampling rung is consulted, let alone run.
  EXPECT_EQ(asked, std::vector<EstimatorRung>{EstimatorRung::kCnfProxy});
  ASSERT_EQ(r.rung, EstimatorRung::kCnfProxy);
  ASSERT_EQ(r.values.size(), 2u);
  EXPECT_TRUE(r.trip_sites.empty());
  EXPECT_FALSE(r.cancelled);
}

TEST_F(EstimatorLadderTest, SkippedRungFallsThroughWithoutATrip) {
  ExecutionBudget budget = ExecutionBudget::Unlimited();
  const LadderResult r = RunLadder(
      *ex_.db, {{EstimatorRung::kExact}, {EstimatorRung::kCnfProxy}}, 1,
      Inputs(), [&](EstimatorRung rung) -> ExecutionBudget* {
        return rung == EstimatorRung::kExact ? nullptr : &budget;
      });
  EXPECT_EQ(r.rung, EstimatorRung::kCnfProxy);
  EXPECT_TRUE(r.trip_sites.empty());
}

// A rung is taken only if it succeeds for every input: a work cap that
// covers the first input's samples but not the second's drops the whole
// rung, and every input comes back from the next one.
TEST_F(EstimatorLadderTest, RungIsAllOrNothingOverTheBatch) {
  constexpr size_t kSamples = 8;  // below 2x the pilot: no pilot pass
  const uint64_t first = kSamples * eval_.ProvenanceOf(0).Variables().size();
  ExecutionBudget capped({0.0, first + 1});
  ExecutionBudget unlimited = ExecutionBudget::Unlimited();
  const LadderResult r = RunLadder(
      *ex_.db,
      {{EstimatorRung::kStratified, kSamples}, {EstimatorRung::kCnfProxy}},
      1, Inputs(), [&](EstimatorRung rung) {
        return rung == EstimatorRung::kStratified ? &capped : &unlimited;
      });
  ASSERT_EQ(r.rung, EstimatorRung::kCnfProxy);
  EXPECT_EQ(r.trip_sites,
            std::vector<std::string>{kSiteShapleyStratSample});
  ASSERT_EQ(r.values.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(r.values[i], ComputeCnfProxyUnlimited(eval_.ProvenanceOf(i)));
  }
}

// A sampling rung's values depend on (seed_base, stream) only, not on the
// input's position in the batch.
TEST_F(EstimatorLadderTest, SamplingSeedFollowsTheStream) {
  ExecutionBudget budget = ExecutionBudget::Unlimited();
  auto run = [&](const std::vector<LadderInput>& inputs) {
    return RunLadder(*ex_.db, {{EstimatorRung::kStratified, 16}}, 42, inputs,
                     [&](EstimatorRung) { return &budget; });
  };
  // The multi-derivation output: a single conjunction has no variance.
  const size_t k = eval_.ProvenanceOf(0).num_clauses() > 1 ? 0 : 1;
  ASSERT_GT(eval_.ProvenanceOf(k).num_clauses(), 1u);
  const LadderResult both = run(Inputs());
  const LadderResult alone = run({Inputs()[k]});
  ASSERT_EQ(both.values.size(), 2u);
  ASSERT_EQ(alone.values.size(), 1u);
  EXPECT_EQ(both.values[k], alone.values[0]);
  const LadderResult other_stream = run({{&eval_.ProvenanceOf(k), 7}});
  EXPECT_NE(other_stream.values[0], alone.values[0]);
}

TEST_F(EstimatorLadderTest, CancellationStopsTheLadder) {
  CancelToken cancel;
  cancel.RequestCancel();
  std::vector<EstimatorRung> asked;
  ExecutionBudget budget({0.0, 0}, &cancel);
  const LadderResult r = RunLadder(
      *ex_.db, {{EstimatorRung::kExact}, {EstimatorRung::kCnfProxy}}, 1,
      Inputs(), [&](EstimatorRung rung) {
        asked.push_back(rung);
        return &budget;
      });
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.rung.has_value());
  EXPECT_TRUE(r.values.empty());
  EXPECT_EQ(r.trip_sites.size(), 1u);
  EXPECT_EQ(asked, std::vector<EstimatorRung>{EstimatorRung::kExact});
}

TEST(EstimatorRungTest, NamesAreStable) {
  EXPECT_STREQ(EstimatorRungName(EstimatorRung::kExact), "exact");
  EXPECT_STREQ(EstimatorRungName(EstimatorRung::kStratified), "stratified");
  EXPECT_STREQ(EstimatorRungName(EstimatorRung::kMonteCarlo), "monte_carlo");
  EXPECT_STREQ(EstimatorRungName(EstimatorRung::kCnfProxy), "cnf_proxy");
}

TEST(RankByScoreTest, DescendingWithIdTiebreak) {
  ShapleyValues scores = {{5, 0.3}, {2, 0.9}, {9, 0.3}, {1, 0.0}};
  const auto ranking = RankByScore(scores);
  EXPECT_EQ(ranking, (std::vector<FactId>{2, 5, 9, 1}));
}

}  // namespace
}  // namespace lshap
