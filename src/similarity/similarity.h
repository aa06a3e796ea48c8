#ifndef LSHAP_SIMILARITY_SIMILARITY_H_
#define LSHAP_SIMILARITY_SIMILARITY_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "query/ast.h"
#include "relational/tuple.h"
#include "shapley/shapley.h"

namespace lshap {

// One output tuple together with the Shapley values of its lineage facts —
// the unit of comparison for rank-based similarity.
struct TupleContribution {
  OutputTuple tuple;
  ShapleyValues shapley;
};

// Each similarity splits into per-query features, built once per query, and
// a pair core over two queries' features (the features' Similarity method).
// A matrix over N queries builds N feature sets and runs N(N+1)/2 cores
// (ComputeSimilarityMatrices); the pairwise functions build the features of
// their two arguments and run the same core, so both give the same bits.

// Syntax-based similarity (Section 2.3): Jaccard similarity of the queries'
// operation sets (projections, selections, equi-joins). Features are
// Operations(q) as a sorted vector; the core is a merge, O(|a| + |b|)
// string compares.
struct SyntaxFeatures {
  std::vector<std::string> ops;  // sorted, unique
  double Similarity(const SyntaxFeatures& other) const;
};
SyntaxFeatures MakeSyntaxFeatures(const Query& q);
double SyntaxSimilarity(const Query& a, const Query& b);

// Witness-based similarity (Section 2.3): Jaccard similarity of the output
// tuple sets. Tuples compare by value (OutputTuple ==), so queries with
// different projection clauses rarely share witnesses, and a tuple holding
// a NaN equals no tuple, itself included: it counts toward the union of
// both sides and never toward the intersection, so W(a, a) < 1 for such a.
//
// Features are interned tuple ids: MakeWitnessFeatures hashes every tuple
// of every set once (O(total tuples)), and the core is a merge over two
// sorted id vectors, O(|a| + |b|).
struct WitnessFeatures {
  std::vector<uint32_t> ids;  // sorted, unique ids of self-equal tuples
  size_t unmatched = 0;       // tuples that equal nothing (a NaN cell)
  double Similarity(const WitnessFeatures& other) const;
};
// Interns the tuples of all `sets` into one id space: two tuples share an
// id iff they compare ==. The interning map points into `sets` (no tuple is
// copied) and is freed on return. Result i belongs to *sets[i].
std::vector<WitnessFeatures> MakeWitnessFeatures(
    const std::vector<const std::vector<OutputTuple>*>& sets);
double WitnessSimilarity(const std::vector<OutputTuple>& a,
                         const std::vector<OutputTuple>& b);

// Rank-based similarity (Section 3.2): build the complete bipartite graph
// between the two queries' output tuples, weight each edge by
// 1 − KendallTauDistance between the tuples' fact rankings (over the union
// of the two lineages, facts absent from a lineage scoring 0), take a
// maximum-weight matching M and return Σ_e∈M w(e) / (|a| + |b| − |M|),
// where |M| = min(|a|, |b|): the matching always covers the smaller side.
//
// Features are one FactScores per output tuple. Per edge, one merge of the
// two sorted lineages yields the union and both score vectors, and the
// Kendall count is O(u log u) over the union's u facts; the matching is
// O(max(|a|, |b|)^3).
using FactScores = std::vector<std::pair<FactId, double>>;  // by FactId
struct RankFeatures {
  std::vector<FactScores> tuples;  // one per output tuple
  double Similarity(const RankFeatures& other) const;
};
// Features of the first `max_tuples` contributions.
RankFeatures MakeRankFeatures(
    const std::vector<TupleContribution>& contributions,
    size_t max_tuples = std::numeric_limits<size_t>::max());
double RankSimilarity(const std::vector<TupleContribution>& a,
                      const std::vector<TupleContribution>& b);

}  // namespace lshap

#endif  // LSHAP_SIMILARITY_SIMILARITY_H_
