#include "similarity/kendall.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/check.h"

namespace lshap {

namespace {

// Per-thread buffers; they only grow, so steady-state calls allocate nothing.
struct KendallScratch {
  std::vector<ScorePair> items;
  std::vector<double> b;
  std::vector<double> tmp;
};

KendallScratch& Scratch() {
  thread_local KendallScratch scratch;
  return scratch;
}

// Sorts v[0, n) ascending with a bottom-up merge sort between v and tmp and
// returns the number of pairs i < j with v[i] > v[j]: taking a value from the
// right run jumps it over every value left in the left run, all larger.
// *sorted points at whichever of the two buffers holds the result.
uint64_t SortCountingInversions(double* v, double* tmp, size_t n,
                                const double** sorted) {
  uint64_t inversions = 0;
  double* src = v;
  double* dst = tmp;
  for (size_t width = 1; width < n; width *= 2) {
    for (size_t lo = 0; lo < n; lo += 2 * width) {
      const size_t mid = std::min(lo + width, n);
      const size_t hi = std::min(lo + 2 * width, n);
      size_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi) {
        if (src[j] < src[i]) {
          inversions += mid - i;
          dst[k++] = src[j++];
        } else {
          dst[k++] = src[i++];
        }
      }
      while (i < mid) dst[k++] = src[i++];
      while (j < hi) dst[k++] = src[j++];
    }
    std::swap(src, dst);
  }
  *sorted = src;
  return inversions;
}

}  // namespace

double KendallTauDistance(ScorePair* items, size_t n) {
  if (n < 2) return 0.0;
  for (size_t k = 0; k < n; ++k) {
    LSHAP_CHECK(std::isfinite(items[k].a) && std::isfinite(items[k].b));
  }
  std::sort(items, items + n, [](const ScorePair& x, const ScorePair& y) {
    return x.a < y.a || (x.a == y.a && x.b < y.b);
  });

  // Pairs tied in a, and tied in both: sorted by (a, b), each is a run.
  uint64_t tied_a = 0, tied_ab = 0;
  for (size_t k = 1, run_a = 1, run_ab = 1; k < n; ++k) {
    if (items[k].a != items[k - 1].a) {
      run_a = run_ab = 1;
      continue;
    }
    tied_a += run_a++;
    if (items[k].b == items[k - 1].b) {
      tied_ab += run_ab++;
    } else {
      run_ab = 1;
    }
  }

  // Pairs ordered in a (a-ties have ascending b) whose b order is reversed
  // are exactly the b-inversions of the sorted sequence: the discordant
  // pairs. Equal b values are not inversions.
  KendallScratch& s = Scratch();
  if (s.b.size() < n) {
    s.b.resize(n);
    s.tmp.resize(n);
  }
  for (size_t k = 0; k < n; ++k) s.b[k] = items[k].b;
  const double* sorted_b = nullptr;
  const uint64_t discordant =
      SortCountingInversions(s.b.data(), s.tmp.data(), n, &sorted_b);
  uint64_t tied_b = 0;
  for (size_t k = 1, run = 1; k < n; ++k) {
    if (sorted_b[k] == sorted_b[k - 1]) {
      tied_b += run++;
    } else {
      run = 1;
    }
  }

  // Discordant pairs cost 1, pairs tied on exactly one side 1/2: twice the
  // penalty is an integer, and halving it is exact.
  const uint64_t twice =
      2 * discordant + (tied_a - tied_ab) + (tied_b - tied_ab);
  const double penalty = static_cast<double>(twice) * 0.5;
  const double total_pairs = static_cast<double>(n) * (n - 1) / 2.0;
  return penalty / total_pairs;
}

double KendallTauDistance(const std::vector<double>& a,
                          const std::vector<double>& b) {
  LSHAP_CHECK_EQ(a.size(), b.size());
  const size_t n = a.size();
  if (n < 2) return 0.0;
  std::vector<ScorePair>& items = Scratch().items;
  items.resize(std::max(items.size(), n));
  for (size_t k = 0; k < n; ++k) items[k] = {a[k], b[k]};
  return KendallTauDistance(items.data(), n);
}

}  // namespace lshap
