#ifndef LSHAP_SIMILARITY_HUNGARIAN_H_
#define LSHAP_SIMILARITY_HUNGARIAN_H_

#include <vector>

namespace lshap {

// Maximum-weight bipartite matching (assignment) via the Hungarian algorithm
// with potentials, O(n^2 m). `weights[i][j]` is the non-negative weight of
// matching left node i to right node j; rectangular inputs are allowed and
// are padded internally. Returns, for each left node, the matched right node
// or -1. Every node on the smaller side is matched (zero-weight matches are
// possible and count toward the matching size).
std::vector<int> MaxWeightMatching(
    const std::vector<std::vector<double>>& weights);

// Total weight of a matching produced by MaxWeightMatching, summed in
// ascending weight order, so the transposed problem's matching of the same
// pairs gives the same bits.
double MatchingWeight(const std::vector<std::vector<double>>& weights,
                      const std::vector<int>& match);

}  // namespace lshap

#endif  // LSHAP_SIMILARITY_HUNGARIAN_H_
