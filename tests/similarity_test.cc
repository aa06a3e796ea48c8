#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

#include "common/rng.h"
#include "eval/evaluator.h"
#include "paper_fixture.h"
#include "similarity/hungarian.h"
#include "similarity/kendall.h"
#include "similarity/similarity.h"

namespace lshap {
namespace {

TEST(KendallTest, IdenticalRankingsDistanceZero) {
  EXPECT_DOUBLE_EQ(KendallTauDistance({3, 2, 1}, {9, 5, 0}), 0.0);
}

TEST(KendallTest, ReversedRankingsDistanceOne) {
  EXPECT_DOUBLE_EQ(KendallTauDistance({1, 2, 3}, {3, 2, 1}), 1.0);
}

TEST(KendallTest, TieInOneCostsHalf) {
  // Pair (a,b): tied in first, ordered in second → 0.5 / 1 pair.
  EXPECT_DOUBLE_EQ(KendallTauDistance({1, 1}, {1, 2}), 0.5);
}

TEST(KendallTest, TiesInBothAreFree) {
  EXPECT_DOUBLE_EQ(KendallTauDistance({2, 2, 2}, {5, 5, 5}), 0.0);
}

TEST(KendallTest, DegenerateSizes) {
  EXPECT_DOUBLE_EQ(KendallTauDistance({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(KendallTauDistance({1}, {2}), 0.0);
}

TEST(KendallTest, SymmetricInArguments) {
  const std::vector<double> a = {0.5, 0.1, 0.9, 0.1};
  const std::vector<double> b = {0.2, 0.8, 0.3, 0.0};
  EXPECT_DOUBLE_EQ(KendallTauDistance(a, b), KendallTauDistance(b, a));
}

// The O(n^2) pair loop KendallTauDistance used to run, kept as the oracle
// the O(n log n) count must match bit for bit.
double KendallOracle(const std::vector<double>& a,
                     const std::vector<double>& b) {
  const size_t n = a.size();
  if (n < 2) return 0.0;
  double penalty = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double da = a[i] - a[j];
      const double db = b[i] - b[j];
      if (da == 0.0 && db == 0.0) continue;
      if (da == 0.0 || db == 0.0) {
        penalty += 0.5;
      } else if ((da > 0.0) != (db > 0.0)) {
        penalty += 1.0;
      }
    }
  }
  const double total_pairs = static_cast<double>(n) * (n - 1) / 2.0;
  return penalty / total_pairs;
}

// Draws one score from a small tie-heavy alphabet, ±0.0 included, or
// (rarely) a fresh uniform value.
double TieHeavyScore(Rng& rng) {
  static const double kAlphabet[] = {0.0, -0.0, 0.25, -0.25, 0.5, 1.0, 1e-300};
  if (rng.NextBool(0.1)) return rng.NextDouble(-1.0, 1.0);
  return kAlphabet[rng.NextBounded(std::size(kAlphabet))];
}

TEST(KendallTest, MatchesPairLoopBitForBit) {
  Rng rng(1414);
  for (int trial = 0; trial < 600; ++trial) {
    const size_t n = trial < 40 ? static_cast<size_t>(trial)
                                : rng.NextBounded(401);
    std::vector<double> a(n), b(n);
    switch (trial % 3) {
      case 0:  // tie-heavy in both rankings
        for (size_t k = 0; k < n; ++k) {
          a[k] = TieHeavyScore(rng);
          b[k] = TieHeavyScore(rng);
        }
        break;
      case 1: {
        // Union of two lineages: facts outside a lineage score 0, so
        // most of each vector is 0 and the supports barely overlap.
        const size_t split = rng.NextBounded(n + 1);
        for (size_t k = 0; k < n; ++k) {
          const bool shared = rng.NextBool(0.1);
          a[k] = (k < split || shared) ? rng.NextDouble() : 0.0;
          b[k] = (k >= split || shared) ? rng.NextDouble() : 0.0;
          if (rng.NextBool(0.2)) a[k] = b[k];
        }
        break;
      }
      default:  // distinct values, any order
        for (size_t k = 0; k < n; ++k) {
          a[k] = rng.NextGaussian();
          b[k] = rng.NextBool(0.5) ? -a[k] : rng.NextGaussian();
        }
        break;
    }
    const double got = KendallTauDistance(a, b);
    const double want = KendallOracle(a, b);
    ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "n=" << n << " trial=" << trial << " got " << got << " want "
        << want;
  }
}

TEST(HungarianTest, PicksDiagonalWhenOptimal) {
  const std::vector<std::vector<double>> w = {
      {10, 1, 1}, {1, 10, 1}, {1, 1, 10}};
  const auto match = MaxWeightMatching(w);
  EXPECT_EQ(match, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(MatchingWeight(w, match), 30.0);
}

TEST(HungarianTest, SolvesNonTrivialAssignment) {
  // Greedy (row-wise argmax) would pick (0,0)=9 then (1,1)=1: total 10.
  // Optimal is (0,1)=8 and (1,0)=7: total 15.
  const std::vector<std::vector<double>> w = {{9, 8}, {7, 1}};
  const auto match = MaxWeightMatching(w);
  EXPECT_EQ(match, (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(MatchingWeight(w, match), 15.0);
}

TEST(HungarianTest, RectangularLeavesExtraRowsUnmatched) {
  const std::vector<std::vector<double>> w = {{5}, {9}, {2}};
  const auto match = MaxWeightMatching(w);
  int matched = 0;
  for (int m : match) {
    if (m >= 0) ++matched;
  }
  EXPECT_EQ(matched, 1);
  EXPECT_EQ(match[1], 0);  // highest weight wins the single column
}

TEST(HungarianTest, RandomInstancesBeatGreedy) {
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.NextBounded(5);
    std::vector<std::vector<double>> w(n, std::vector<double>(n));
    for (auto& row : w) {
      for (auto& v : row) v = rng.NextDouble();
    }
    const auto match = MaxWeightMatching(w);
    // Exhaustive optimum for small n.
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = i;
    double best = 0.0;
    do {
      double total = 0.0;
      for (size_t i = 0; i < n; ++i) total += w[i][perm[i]];
      best = std::max(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(MatchingWeight(w, match), best, 1e-9);
  }
}

// Example 2.3: sim_s(q_inf, q_1) = 5/8.
TEST(SyntaxSimilarityTest, PaperExample23) {
  PaperExample ex = MakePaperExample();
  EXPECT_DOUBLE_EQ(SyntaxSimilarity(ex.q_inf, ex.q_1), 5.0 / 8.0);
}

TEST(SyntaxSimilarityTest, IdenticalQueriesScoreOne) {
  PaperExample ex = MakePaperExample();
  EXPECT_DOUBLE_EQ(SyntaxSimilarity(ex.q_inf, ex.q_inf), 1.0);
}

TEST(WitnessSimilarityTest, DisjointProjectionsScoreZero) {
  PaperExample ex = MakePaperExample();
  auto r_inf = Evaluate(*ex.db, ex.q_inf);
  auto r_1 = Evaluate(*ex.db, ex.q_1);
  ASSERT_TRUE(r_inf.ok());
  ASSERT_TRUE(r_1.ok());
  // Actor names vs movie titles share no tuples.
  EXPECT_DOUBLE_EQ(WitnessSimilarity(r_inf->tuples, r_1->tuples), 0.0);
}

TEST(WitnessSimilarityTest, JaccardOfOverlap) {
  const std::vector<OutputTuple> a = {{Value("Alice")}, {Value("Bob")}};
  const std::vector<OutputTuple> b = {{Value("Alice")}, {Value("Carol")},
                                      {Value("Dan")}};
  EXPECT_DOUBLE_EQ(WitnessSimilarity(a, b), 0.25);
  EXPECT_DOUBLE_EQ(WitnessSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(WitnessSimilarity({}, {}), 0.0);
}

// Rank similarity captures what witness similarity misses: q3 in Figure 3
// projects a different column but has identical computation. We model this
// with two "queries" whose contributions share fact rankings exactly.
TEST(RankSimilarityTest, ProjectionChangeStillPerfectlySimilar) {
  ShapleyValues ranking1 = {{1, 0.5}, {2, 0.3}, {3, 0.2}};
  ShapleyValues ranking2 = {{1, 0.2}, {2, 0.5}, {3, 0.3}};
  std::vector<TupleContribution> a = {{{Value("Alice")}, ranking1},
                                      {{Value("Bob")}, ranking2}};
  std::vector<TupleContribution> b = {{{Value(int64_t{45})}, ranking1},
                                      {{Value(int64_t{30})}, ranking2}};
  EXPECT_NEAR(RankSimilarity(a, b), 1.0, 1e-9);
}

TEST(RankSimilarityTest, OppositeRankingsScoreLow) {
  ShapleyValues up = {{1, 0.1}, {2, 0.2}, {3, 0.7}};
  ShapleyValues down = {{1, 0.7}, {2, 0.2}, {3, 0.1}};
  std::vector<TupleContribution> a = {{{Value("x")}, up}};
  std::vector<TupleContribution> b = {{{Value("y")}, down}};
  // Single edge with Kendall distance 1 → weight 0.
  EXPECT_NEAR(RankSimilarity(a, b), 0.0, 1e-9);
}

TEST(RankSimilarityTest, UnbalancedSidesPenalizedByDenominator) {
  ShapleyValues r = {{1, 0.6}, {2, 0.4}};
  std::vector<TupleContribution> a = {{{Value("x")}, r}};
  std::vector<TupleContribution> b = {{{Value("y")}, r},
                                      {{Value("z")}, r},
                                      {{Value("w")}, r}};
  // |M| = 1, weight 1; denominator = 1 + 3 - 1 = 3.
  EXPECT_NEAR(RankSimilarity(a, b), 1.0 / 3.0, 1e-9);
}

TEST(RankSimilarityTest, EmptySidesScoreZero) {
  std::vector<TupleContribution> empty;
  ShapleyValues r = {{1, 1.0}};
  std::vector<TupleContribution> one = {{{Value("x")}, r}};
  EXPECT_DOUBLE_EQ(RankSimilarity(empty, one), 0.0);
}

TEST(RankSimilarityTest, SymmetricInArguments) {
  ShapleyValues r1 = {{1, 0.6}, {2, 0.4}, {5, 0.0}};
  ShapleyValues r2 = {{1, 0.1}, {3, 0.9}};
  ShapleyValues r3 = {{2, 0.5}, {3, 0.5}};
  std::vector<TupleContribution> a = {{{Value("x")}, r1}, {{Value("y")}, r2}};
  std::vector<TupleContribution> b = {{{Value("u")}, r3}};
  EXPECT_NEAR(RankSimilarity(a, b), RankSimilarity(b, a), 1e-12);
}

}  // namespace
}  // namespace lshap
