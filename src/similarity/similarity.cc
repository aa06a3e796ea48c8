#include "similarity/similarity.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/check.h"
#include "similarity/hungarian.h"
#include "similarity/kendall.h"

namespace lshap {

namespace {

// |a ∩ b| for two sorted, duplicate-free vectors.
template <typename T>
size_t IntersectionSize(const std::vector<T>& a, const std::vector<T>& b) {
  size_t count = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// Interning keys point into the caller's tuple sets.
struct TuplePtrHash {
  size_t operator()(const OutputTuple* t) const {
    return OutputTupleHash{}(*t);
  }
};
struct TuplePtrEq {
  bool operator()(const OutputTuple* x, const OutputTuple* y) const {
    return *x == *y;
  }
};

}  // namespace

SyntaxFeatures MakeSyntaxFeatures(const Query& q) {
  const std::set<std::string> ops = Operations(q);
  return {std::vector<std::string>(ops.begin(), ops.end())};
}

double SyntaxFeatures::Similarity(const SyntaxFeatures& other) const {
  if (ops.empty() && other.ops.empty()) return 0.0;
  const size_t intersection = IntersectionSize(ops, other.ops);
  const size_t uni = ops.size() + other.ops.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

double SyntaxSimilarity(const Query& a, const Query& b) {
  return MakeSyntaxFeatures(a).Similarity(MakeSyntaxFeatures(b));
}

std::vector<WitnessFeatures> MakeWitnessFeatures(
    const std::vector<const std::vector<OutputTuple>*>& sets) {
  size_t total = 0;
  for (const auto* set : sets) total += set->size();
  LSHAP_CHECK_LE(total, size_t{UINT32_MAX});
  std::unordered_map<const OutputTuple*, uint32_t, TuplePtrHash, TuplePtrEq>
      ids;
  ids.reserve(total);
  std::vector<WitnessFeatures> features(sets.size());
  for (size_t s = 0; s < sets.size(); ++s) {
    WitnessFeatures& f = features[s];
    f.ids.reserve(sets[s]->size());
    for (const OutputTuple& t : *sets[s]) {
      if (!(t == t)) {  // a NaN cell: no lookup can ever find it
        ++f.unmatched;
        continue;
      }
      const uint32_t next = static_cast<uint32_t>(ids.size());
      f.ids.push_back(ids.try_emplace(&t, next).first->second);
    }
    std::sort(f.ids.begin(), f.ids.end());
    f.ids.erase(std::unique(f.ids.begin(), f.ids.end()), f.ids.end());
  }
  return features;
}

double WitnessFeatures::Similarity(const WitnessFeatures& other) const {
  const size_t size_a = ids.size() + unmatched;
  const size_t size_b = other.ids.size() + other.unmatched;
  if (size_a == 0 && size_b == 0) return 0.0;
  const size_t intersection = IntersectionSize(ids, other.ids);
  const size_t uni = size_a + size_b - intersection;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

double WitnessSimilarity(const std::vector<OutputTuple>& a,
                         const std::vector<OutputTuple>& b) {
  const std::vector<WitnessFeatures> f = MakeWitnessFeatures({&a, &b});
  return f[0].Similarity(f[1]);
}

RankFeatures MakeRankFeatures(
    const std::vector<TupleContribution>& contributions, size_t max_tuples) {
  RankFeatures features;
  features.tuples.resize(std::min(contributions.size(), max_tuples));
  for (size_t t = 0; t < features.tuples.size(); ++t) {
    const ShapleyValues& shapley = contributions[t].shapley;
    FactScores& scores = features.tuples[t];
    scores.assign(shapley.begin(), shapley.end());
    std::sort(scores.begin(), scores.end());
  }
  return features;
}

double RankFeatures::Similarity(const RankFeatures& other) const {
  const std::vector<FactScores>& a = tuples;
  const std::vector<FactScores>& b = other.tuples;
  if (a.empty() || b.empty()) return 0.0;

  // Per thread and only growing: the edge loop allocates nothing.
  thread_local std::vector<ScorePair> items;
  std::vector<std::vector<double>> weights(
      a.size(), std::vector<double>(b.size(), 0.0));
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      // Union of the two lineages; facts missing from one side score 0.
      items.clear();
      auto x = a[i].begin();
      auto y = b[j].begin();
      while (x != a[i].end() && y != b[j].end()) {
        if (x->first < y->first) {
          items.push_back({(x++)->second, 0.0});
        } else if (y->first < x->first) {
          items.push_back({0.0, (y++)->second});
        } else {
          items.push_back({(x++)->second, (y++)->second});
        }
      }
      for (; x != a[i].end(); ++x) items.push_back({x->second, 0.0});
      for (; y != b[j].end(); ++y) items.push_back({0.0, y->second});
      weights[i][j] = 1.0 - KendallTauDistance(items.data(), items.size());
    }
  }

  const std::vector<int> match = MaxWeightMatching(weights);
  const double total = MatchingWeight(weights, match);
  const double matching_size =
      static_cast<double>(std::min(a.size(), b.size()));
  const double denom =
      static_cast<double>(a.size() + b.size()) - matching_size;
  return total / denom;
}

double RankSimilarity(const std::vector<TupleContribution>& a,
                      const std::vector<TupleContribution>& b) {
  return MakeRankFeatures(a).Similarity(MakeRankFeatures(b));
}

}  // namespace lshap
