#include "similarity/hungarian.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace lshap {

std::vector<int> MaxWeightMatching(
    const std::vector<std::vector<double>>& weights) {
  const size_t rows = weights.size();
  if (rows == 0) return {};
  const size_t cols = weights[0].size();
  for (const auto& row : weights) LSHAP_CHECK_EQ(row.size(), cols);
  if (cols == 0) return std::vector<int>(rows, -1);

  // Square the problem and convert to minimization. The classic potentials
  // formulation below (e-maxx style) is 1-indexed over an n x n cost matrix.
  const size_t n = std::max(rows, cols);
  double max_w = 0.0;
  for (const auto& row : weights) {
    for (double w : row) {
      LSHAP_CHECK_GE(w, 0.0);
      max_w = std::max(max_w, w);
    }
  }
  auto cost = [&](size_t i, size_t j) -> double {
    if (i < rows && j < cols) return max_w - weights[i][j];
    return max_w;  // dummy row/col
  };

  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n + 1, 0.0);
  std::vector<double> v(n + 1, 0.0);
  std::vector<size_t> p(n + 1, 0);     // p[j] = row matched to column j
  std::vector<size_t> way(n + 1, 0);

  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double> minv(n + 1, kInf);
    std::vector<bool> used(n + 1, false);
    do {
      used[j0] = true;
      const size_t i0 = p[j0];
      double delta = kInf;
      size_t j1 = 0;
      for (size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<int> match(rows, -1);
  for (size_t j = 1; j <= n; ++j) {
    const size_t i = p[j];
    if (i >= 1 && i <= rows && j <= cols) {
      match[i - 1] = static_cast<int>(j - 1);
    }
  }
  return match;
}

double MatchingWeight(const std::vector<std::vector<double>>& weights,
                      const std::vector<int>& match) {
  std::vector<double> matched;
  matched.reserve(match.size());
  for (size_t i = 0; i < match.size(); ++i) {
    if (match[i] >= 0) {
      matched.push_back(weights[i][static_cast<size_t>(match[i])]);
    }
  }
  std::sort(matched.begin(), matched.end());
  double total = 0.0;
  for (double w : matched) total += w;
  return total;
}

}  // namespace lshap
