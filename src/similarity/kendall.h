#ifndef LSHAP_SIMILARITY_KENDALL_H_
#define LSHAP_SIMILARITY_KENDALL_H_

#include <cstddef>
#include <vector>

namespace lshap {

// Normalized Kendall tau distance between two rankings given as score
// vectors over a shared item universe (higher score = better rank). Ties are
// handled with the K^(1/2) convention of Fagin et al.: a pair tied in one
// ranking but ordered in the other costs 1/2; a pair ordered oppositely
// costs 1; a pair tied in both is free. The result is in [0, 1] (0 =
// identical rankings). A universe of fewer than two items has distance 0 by
// convention. Scores must be finite; +0.0 and -0.0 tie.
//
// O(n log n) time (Knight's count: sort by (a, b), count b-inversions with a
// merge sort, plus a-, b- and joint ties). The penalty is formed from integer
// counts, so the result is bit-identical to summing 1/2 and 1 over all
// n(n-1)/2 pairs. Scratch is per thread and only grows: once a thread has
// seen a universe of size n, calls up to n allocate nothing.
double KendallTauDistance(const std::vector<double>& a,
                          const std::vector<double>& b);

// One item's score in each of the two rankings.
struct ScorePair {
  double a;
  double b;
};

// The same distance over items given directly as (a, b) score pairs, in any
// order; reorders `items[0, n)`. KendallTauDistance above and rank-based
// similarity both run on this.
double KendallTauDistance(ScorePair* items, size_t n);

}  // namespace lshap

#endif  // LSHAP_SIMILARITY_KENDALL_H_
