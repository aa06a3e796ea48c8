#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>

#include "corpus/corpus.h"
#include "datasets/imdb.h"
#include "shapley/shapley.h"
#include "similarity/similarity.h"

namespace lshap {
namespace {

CorpusConfig SmallConfig() {
  CorpusConfig cfg;
  cfg.seed = 3;
  cfg.num_base_queries = 10;
  cfg.max_outputs_per_query = 8;
  cfg.query_gen.max_tables = 3;
  return cfg;
}

class CorpusTest : public ::testing::Test {
 protected:
  CorpusTest()
      : data_(MakeImdbDatabase({})),
        pool_(4),
        corpus_(BuildCorpus(*data_.db, data_.graph, SmallConfig(), pool_)) {}

  GeneratedDb data_;
  ThreadPool pool_;
  Corpus corpus_;
};

TEST_F(CorpusTest, BuildsNonEmptyCorpus) {
  EXPECT_GT(corpus_.entries.size(), 5u);
  for (const auto& e : corpus_.entries) {
    EXPECT_FALSE(e.all_outputs.empty());
    EXPECT_FALSE(e.contributions.empty());
    EXPECT_LE(e.contributions.size(), SmallConfig().max_outputs_per_query);
  }
}

TEST_F(CorpusTest, SplitPartitionsEntries) {
  std::set<size_t> all;
  for (size_t i : corpus_.train_idx) all.insert(i);
  for (size_t i : corpus_.dev_idx) all.insert(i);
  for (size_t i : corpus_.test_idx) all.insert(i);
  EXPECT_EQ(all.size(), corpus_.entries.size());
  EXPECT_EQ(corpus_.train_idx.size() + corpus_.dev_idx.size() +
                corpus_.test_idx.size(),
            corpus_.entries.size());
  EXPECT_GT(corpus_.train_idx.size(), corpus_.test_idx.size());
}

TEST_F(CorpusTest, ShapleyValuesAreValidDistributions) {
  for (const auto& e : corpus_.entries) {
    for (const auto& c : e.contributions) {
      ASSERT_FALSE(c.shapley.empty());
      double sum = 0.0;
      for (const auto& [f, v] : c.shapley) {
        EXPECT_GE(v, -1e-9);
        EXPECT_LE(v, 1.0 + 1e-9);
        sum += v;
      }
      // Monotone provenance satisfied by the full DB: efficiency holds.
      EXPECT_NEAR(sum, 1.0, 1e-6);
    }
  }
}

TEST_F(CorpusTest, DeterministicAcrossBuilds) {
  ThreadPool pool(4);
  Corpus again = BuildCorpus(*data_.db, data_.graph, SmallConfig(), pool);
  ASSERT_EQ(again.entries.size(), corpus_.entries.size());
  for (size_t i = 0; i < again.entries.size(); ++i) {
    EXPECT_EQ(again.entries[i].query.ToSql(),
              corpus_.entries[i].query.ToSql());
    ASSERT_EQ(again.entries[i].contributions.size(),
              corpus_.entries[i].contributions.size());
    for (size_t c = 0; c < again.entries[i].contributions.size(); ++c) {
      EXPECT_EQ(again.entries[i].contributions[c].tuple,
                corpus_.entries[i].contributions[c].tuple);
    }
  }
  EXPECT_EQ(again.train_idx, corpus_.train_idx);
}

TEST_F(CorpusTest, StatsAddUp) {
  const SplitStats train = ComputeSplitStats(corpus_, corpus_.train_idx);
  const SplitStats dev = ComputeSplitStats(corpus_, corpus_.dev_idx);
  const SplitStats test = ComputeSplitStats(corpus_, corpus_.test_idx);
  EXPECT_EQ(train.queries + dev.queries + test.queries,
            corpus_.entries.size());
  EXPECT_GT(train.results, 0u);
  EXPECT_GT(train.facts, 0u);
}

TEST_F(CorpusTest, TrainSeenFactsComeFromTrainSplit) {
  const auto seen = TrainSeenFacts(corpus_);
  EXPECT_FALSE(seen.empty());
  std::set<FactId> expected;
  for (size_t i : corpus_.train_idx) {
    for (const auto& c : corpus_.entries[i].contributions) {
      for (const auto& [f, v] : c.shapley) expected.insert(f);
    }
  }
  EXPECT_EQ(seen.size(), expected.size());
}

TEST_F(CorpusTest, SimilarityMatricesAreSymmetricWithUnitDiagonal) {
  const SimilarityMatrices sims =
      ComputeSimilarityMatrices(corpus_, 10, pool_);
  const size_t n = corpus_.entries.size();
  ASSERT_EQ(sims.syntax.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sims.syntax[i][i], 1.0, 1e-9);
    EXPECT_GE(sims.rank[i][i], 0.99);  // self rank-similarity is perfect
    for (size_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(sims.syntax[i][j], sims.syntax[j][i]);
      EXPECT_DOUBLE_EQ(sims.witness[i][j], sims.witness[j][i]);
      EXPECT_DOUBLE_EQ(sims.rank[i][j], sims.rank[j][i]);
      EXPECT_GE(sims.syntax[i][j], 0.0);
      EXPECT_LE(sims.syntax[i][j], 1.0);
      EXPECT_GE(sims.rank[i][j], 0.0);
      EXPECT_LE(sims.rank[i][j], 1.0 + 1e-9);
    }
  }
}

// FNV-1a over the bit patterns of every entry of the three matrices, row
// by row: any one-bit change anywhere moves it.
uint64_t MatricesHash(const SimilarityMatrices& m) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto* matrix : {&m.syntax, &m.witness, &m.rank}) {
    for (const auto& row : *matrix) {
      for (double v : row) {
        uint64_t bits = std::bit_cast<uint64_t>(v);
        for (int byte = 0; byte < 8; ++byte) {
          h = (h ^ (bits & 0xff)) * 0x100000001b3ull;
          bits >>= 8;
        }
      }
    }
  }
  return h;
}

// The matrices are pinned to the values the per-pair implementation
// produced before per-query features replaced it, at any thread count.
TEST_F(CorpusTest, SimilarityMatricesMatchRecordedHash) {
  constexpr uint64_t kRecordedHash = 8545254842488876929ull;
  ThreadPool one(1);
  EXPECT_EQ(MatricesHash(ComputeSimilarityMatrices(corpus_, 10, one)),
            kRecordedHash);
  EXPECT_EQ(MatricesHash(ComputeSimilarityMatrices(corpus_, 10, pool_)),
            kRecordedHash);
}

// Every matrix entry is exactly what the pairwise functions return for
// the same two queries, called as (lower index, higher index): the matrix
// mirrors its upper triangle, and RankSimilarity sums its matching in row
// order, so swapping its arguments may move the last bit.
TEST_F(CorpusTest, SimilarityMatricesEqualPairwiseCalls) {
  constexpr size_t kCap = 3;
  const SimilarityMatrices sims =
      ComputeSimilarityMatrices(corpus_, kCap, pool_);
  auto capped = [&](size_t i) {
    const auto& c = corpus_.entries[i].contributions;
    const size_t take = std::min(c.size(), kCap);
    return std::vector<TupleContribution>(
        c.begin(), c.begin() + static_cast<ptrdiff_t>(take));
  };
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  const size_t n = corpus_.entries.size();
  for (size_t i = 0; i < n; ++i) {
    const CorpusEntry& a = corpus_.entries[i];
    for (size_t j = i; j < n; ++j) {
      const CorpusEntry& b = corpus_.entries[j];
      EXPECT_EQ(bits(sims.syntax[j][i]), bits(sims.syntax[i][j]));
      EXPECT_EQ(bits(sims.witness[j][i]), bits(sims.witness[i][j]));
      EXPECT_EQ(bits(sims.rank[j][i]), bits(sims.rank[i][j]));
      EXPECT_EQ(bits(sims.syntax[i][j]),
                bits(SyntaxSimilarity(a.query, b.query)))
          << i << "," << j;
      EXPECT_EQ(bits(sims.witness[i][j]),
                bits(WitnessSimilarity(a.all_outputs, b.all_outputs)))
          << i << "," << j;
      EXPECT_EQ(bits(sims.rank[i][j]),
                bits(RankSimilarity(capped(i), capped(j))))
          << i << "," << j;
    }
  }
}

// A tuple holding a NaN equals no tuple, itself included, so it counts in
// the union of both sides and never in the intersection: W(a, a) < 1.
TEST(WitnessNaNTest, NaNTupleMatchesNothingNotEvenItself) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Corpus corpus;
  corpus.entries.resize(2);
  corpus.entries[0].all_outputs = {{Value(1.0)}, {Value(nan)}};
  corpus.entries[1].all_outputs = {{Value(nan)}, {Value(1.0)}};
  const auto& a = corpus.entries[0].all_outputs;
  const auto& b = corpus.entries[1].all_outputs;
  // {1.0} is shared; each side's NaN tuple is its own union member.
  EXPECT_DOUBLE_EQ(WitnessSimilarity(a, a), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(WitnessSimilarity(a, b), 1.0 / 3.0);
  EXPECT_LT(WitnessSimilarity(a, a), 1.0);
  ThreadPool pool(1);
  const SimilarityMatrices sims = ComputeSimilarityMatrices(corpus, 4, pool);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(sims.witness[i][j], 1.0 / 3.0) << i << "," << j;
    }
  }
}

TEST_F(CorpusTest, MeanGroupSimilarityExcludesDiagonal) {
  std::vector<std::vector<double>> m = {{1.0, 0.5}, {0.5, 1.0}};
  EXPECT_DOUBLE_EQ(MeanGroupSimilarity(m, {0, 1}, {0, 1}), 0.5);
  EXPECT_DOUBLE_EQ(MeanGroupSimilarity(m, {0}, {0}), 0.0);
}

}  // namespace
}  // namespace lshap
