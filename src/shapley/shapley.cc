#include "shapley/shapley.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "provenance/circuit.h"
#include "provenance/compiler.h"
#include "provenance/tseytin.h"

namespace lshap {

namespace {

// Shapley coalition weight for coalition size k out of n players:
// k!(n-k-1)!/n! = 1 / (n * C(n-1, k)).
long double ShapleyWeight(size_t n, size_t k) {
  const CountVec& row = BinomialRow(n - 1);
  return 1.0L / (static_cast<long double>(n) * row[k]);
}

// One permutation walk of a monotone provenance: shuffles `order`, then adds
// its facts in turn to the (sorted) coalition `present`. Returns the fact
// whose arrival first satisfies the provenance — the permutation's only
// pivotal player — or nothing if the empty coalition already satisfies it.
std::optional<FactId> PivotOfPermutation(const Dnf& provenance,
                                         std::vector<FactId>& order,
                                         std::vector<FactId>& present,
                                         Rng& rng) {
  rng.Shuffle(order);
  present.clear();
  if (provenance.Evaluate(present)) return std::nullopt;  // empty clause
  for (FactId f : order) {
    present.insert(std::upper_bound(present.begin(), present.end(), f), f);
    if (provenance.Evaluate(present)) return f;
  }
  return std::nullopt;
}

// Compiles the provenance into a decision-DNNF circuit, then scores each
// lineage fact f as score(c1, c0, n) from c1[k] / c0[k], the number of
// size-k subsets E ⊆ lineage \ {f} satisfying Φ with f forced true /
// false. Polls `site` once per fact: each per-fact pass re-traverses at
// most the whole circuit, which is within the node budget already charged,
// so the poll bounds counting at circuit-size granularity.
template <typename Score>
Result<ShapleyValues> ScoreFromCounts(const Dnf& provenance,
                                      ExecutionBudget& budget,
                                      const char* site, Score&& score) {
  ShapleyValues out;
  const std::vector<FactId> lineage = provenance.Variables();
  const size_t n = lineage.size();
  if (n == 0) return out;

  DnfCompiler compiler;
  Result<std::unique_ptr<Circuit>> circuit =
      compiler.Compile(provenance, budget);
  if (!circuit.ok()) return circuit.status();
  const NodeId root = (*circuit)->root();
  CountingSession session(circuit->get());
  for (FactId f : lineage) {
    Status s = budget.Check(site);
    if (!s.ok()) return s;
    // The circuit support may be smaller than the lineage (absorbed-clause
    // variables are null players); extension adds them back as free.
    const CountVec c1 = ExtendCounts(session.Forced(root, f, true), n - 1);
    const CountVec c0 = ExtendCounts(session.Forced(root, f, false), n - 1);
    out[f] = static_cast<double>(score(c1, c0, n));
  }
  return out;
}

}  // namespace

Result<ShapleyValues> ComputeShapleyExact(const Dnf& provenance,
                                          ExecutionBudget& budget) {
  return ScoreFromCounts(
      provenance, budget, kSiteShapleyCount,
      [](const CountVec& c1, const CountVec& c0, size_t n) {
        long double value = 0.0L;
        for (size_t k = 0; k < n; ++k) {
          const long double pivotal = c1[k] - c0[k];
          if (pivotal != 0.0L) value += ShapleyWeight(n, k) * pivotal;
        }
        return value;
      });
}

Result<ShapleyValues> ComputeBanzhafExact(const Dnf& provenance,
                                          ExecutionBudget& budget) {
  // Banzhaf(f) = (#E with Φ[f=1] − #E with Φ[f=0]) / 2^(n-1): total model
  // counts, uniformly weighted over coalition sizes.
  return ScoreFromCounts(
      provenance, budget, kSiteBanzhafCount,
      [](const CountVec& c1, const CountVec& c0, size_t n) {
        long double pivotal = 0.0L;
        for (size_t k = 0; k < n; ++k) pivotal += c1[k] - c0[k];
        return pivotal / std::pow(2.0L, static_cast<long double>(n - 1));
      });
}

Result<ShapleyValues> ComputeShapleyBrute(const Dnf& provenance) {
  ShapleyValues out;
  const std::vector<FactId> lineage = provenance.Variables();
  const size_t n = lineage.size();
  if (n == 0) return out;
  if (n > 25) {
    return Status::InvalidArgument(
        StrFormat("brute-force Shapley refused: %zu variables (max 25)", n));
  }

  // Evaluate Φ for every subset mask once.
  const size_t num_masks = size_t{1} << n;
  std::vector<bool> sat(num_masks);
  std::vector<FactId> present;
  present.reserve(n);
  for (size_t mask = 0; mask < num_masks; ++mask) {
    present.clear();
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) present.push_back(lineage[i]);
    }
    sat[mask] = provenance.Evaluate(present);
  }

  for (size_t i = 0; i < n; ++i) {
    const size_t bit = size_t{1} << i;
    long double value = 0.0L;
    for (size_t mask = 0; mask < num_masks; ++mask) {
      if (mask & bit) continue;  // E must exclude f
      const int delta = static_cast<int>(sat[mask | bit]) -
                        static_cast<int>(sat[mask]);
      if (delta == 0) continue;
      const size_t k = static_cast<size_t>(__builtin_popcountll(mask));
      value += ShapleyWeight(n, k) * delta;
    }
    out[lineage[i]] = static_cast<double>(value);
  }
  return out;
}

Result<ShapleyValues> ComputeShapleyMonteCarlo(const Dnf& provenance,
                                               size_t num_samples, Rng& rng,
                                               ExecutionBudget& budget) {
  ShapleyValues out;
  std::vector<FactId> lineage = provenance.Variables();
  const size_t n = lineage.size();
  if (n == 0) return out;
  if (num_samples == 0) {
    return Status::InvalidArgument(
        "Monte-Carlo Shapley requires num_samples >= 1");
  }
  for (FactId f : lineage) out[f] = 0.0;

  const bool budgeted = !budget.unlimited();
  std::vector<FactId> order = lineage;
  std::vector<FactId> present;
  present.reserve(n);
  for (size_t s = 0; s < num_samples; ++s) {
    if (budgeted) {
      Status status = budget.Charge(1, kSiteShapleyMcSample);
      if (!status.ok()) return status;
    }
    if (auto pivot = PivotOfPermutation(provenance, order, present, rng)) {
      out[*pivot] += 1.0;
    }
  }
  for (auto& [f, v] : out) v /= static_cast<double>(num_samples);
  return out;
}

Result<ShapleyValues> ComputeShapleyStratified(const Dnf& provenance,
                                               const std::vector<uint32_t>& strata,
                                               size_t num_samples, Rng& rng,
                                               ExecutionBudget& budget,
                                               const StratifiedMcOptions& options) {
  ShapleyValues out;
  const std::vector<FactId> lineage = provenance.Variables();
  const size_t n = lineage.size();
  if (strata.size() != n) {
    return Status::InvalidArgument(
        StrFormat("stratified Shapley: %zu strata for %zu lineage facts",
                  strata.size(), n));
  }
  if (n == 0) return out;
  if (num_samples == 0) {
    return Status::InvalidArgument(
        "stratified Shapley requires num_samples >= 1");
  }
  for (FactId f : lineage) out[f] = 0.0;

  const bool budgeted = !budget.unlimited();

  // Group lineage positions by stratum, iterated in ascending stratum id so
  // the allocation (and therefore every subsequent rng draw) is
  // deterministic regardless of how the caller discovered the strata.
  std::map<uint32_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < n; ++i) groups[strata[i]].push_back(i);

  // Pilot pass: plain permutation walks whose per-fact pivot counts feed the
  // per-stratum variance proxy. Used for allocation only — pilot pivots are
  // not folded into the estimate, keeping it a pure position-stratified
  // marginal-sample average.
  size_t pilot = options.pilot_permutations;
  if (groups.size() < 2 || num_samples < 2 * pilot) pilot = 0;
  std::vector<double> pivot_rate;
  if (pilot > 0) {
    std::vector<size_t> pivots(n, 0);
    std::vector<FactId> order = lineage;
    std::vector<FactId> present;
    present.reserve(n);
    for (size_t s = 0; s < pilot; ++s) {
      if (budgeted) {
        Status status = budget.Charge(1, kSiteShapleyStratPilot);
        if (!status.ok()) return status;
      }
      if (auto pivot = PivotOfPermutation(provenance, order, present, rng)) {
        ++pivots[static_cast<size_t>(
            std::lower_bound(lineage.begin(), lineage.end(), *pivot) -
            lineage.begin())];
      }
    }
    // Smoothed pivot-rate estimate: strata that never pivoted in the pilot
    // keep a small floor so they are never starved to the 1-sample minimum
    // on pilot noise alone.
    pivot_rate.resize(n);
    for (size_t i = 0; i < n; ++i) {
      pivot_rate[i] = (static_cast<double>(pivots[i]) + 0.5) /
                      (static_cast<double>(pilot) + 1.0);
    }
  }

  // Per-fact sample allocation. The pool is n * num_samples marginal
  // samples; every fact is guaranteed one, and the surplus is split across
  // strata by Neyman weight w_r = sqrt(N_r * V_r) (proportional-to-size
  // when the pilot was skipped) with deterministic largest-remainder
  // rounding, then spread evenly inside each stratum (remainder to the
  // earliest lineage positions). Sums to the pool exactly.
  std::vector<size_t> alloc(n, num_samples);
  if (pilot > 0) {
    const size_t surplus = n * num_samples - n;
    std::vector<double> weight;
    double total_weight = 0.0;
    weight.reserve(groups.size());
    for (const auto& [sid, members] : groups) {
      double variance = 0.0;
      for (size_t i : members) {
        variance += pivot_rate[i] * (1.0 - pivot_rate[i]);
      }
      const double w =
          std::sqrt(static_cast<double>(members.size()) * variance);
      weight.push_back(w);
      total_weight += w;
    }
    size_t g = 0;
    size_t assigned = 0;
    std::vector<std::pair<double, size_t>> remainders;  // (frac, group idx)
    std::vector<size_t> group_share(groups.size(), 0);
    for (const auto& [sid, members] : groups) {
      const double share = total_weight > 0.0
                               ? static_cast<double>(surplus) * weight[g] /
                                     total_weight
                               : static_cast<double>(surplus) *
                                     static_cast<double>(members.size()) /
                                     static_cast<double>(n);
      const size_t whole = static_cast<size_t>(share);
      group_share[g] = whole;
      assigned += whole;
      remainders.emplace_back(share - static_cast<double>(whole), g);
      ++g;
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    for (size_t leftover = surplus - assigned, r = 0; leftover > 0;
         --leftover, ++r) {
      ++group_share[remainders[r % remainders.size()].second];
    }
    g = 0;
    for (const auto& [sid, members] : groups) {
      const size_t base = group_share[g] / members.size();
      const size_t extra = group_share[g] % members.size();
      for (size_t j = 0; j < members.size(); ++j) {
        alloc[members[j]] = 1 + base + (j < extra ? 1 : 0);
      }
      ++g;
    }
  }

  // Main pass: per-fact marginal samples, coalition sizes stratified over
  // contiguous position bins (with m_f >= n every size is hit; below n the
  // bins tile [0, n) so the size axis is still covered systematically).
  std::vector<FactId> others(n > 0 ? n - 1 : 0);
  std::vector<FactId> coalition;
  coalition.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    others.clear();
    for (size_t j = 0; j < n; ++j) {
      if (j != i) others.push_back(lineage[j]);
    }
    const size_t mi = alloc[i];
    const size_t bins = std::min(n, mi);
    const size_t per_bin = mi / bins;
    const size_t extra = mi % bins;
    long double phi = 0.0L;
    for (size_t b = 0; b < bins; ++b) {
      const size_t lo = b * n / bins;
      const size_t hi = (b + 1) * n / bins;
      const size_t width = hi - lo;
      const size_t mb = per_bin + (b < extra ? 1 : 0);
      size_t hits = 0;
      for (size_t t = 0; t < mb; ++t) {
        if (budgeted) {
          Status status = budget.Charge(1, kSiteShapleyStratSample);
          if (!status.ok()) return status;
        }
        const size_t k =
            lo + (width > 1 ? rng.NextBounded(width) : 0);
        // Uniform k-subset of lineage \ {f} by partial Fisher-Yates; the
        // scratch stays permuted across samples, which preserves
        // uniformity.
        for (size_t j = 0; j < k; ++j) {
          const size_t swap_with =
              j + static_cast<size_t>(rng.NextBounded(others.size() - j));
          std::swap(others[j], others[swap_with]);
        }
        coalition.assign(others.begin(),
                         others.begin() + static_cast<ptrdiff_t>(k));
        std::sort(coalition.begin(), coalition.end());
        if (!provenance.Evaluate(coalition)) {
          coalition.insert(std::upper_bound(coalition.begin(),
                                            coalition.end(), lineage[i]),
                           lineage[i]);
          // Monotone, so Δ ∈ {0, 1} and Φ(S) true implies Φ(S∪{f}) true —
          // the second evaluation only matters when the first failed.
          if (provenance.Evaluate(coalition)) ++hits;
        }
      }
      phi += (static_cast<long double>(width) / static_cast<long double>(n)) *
             (static_cast<long double>(hits) / static_cast<long double>(mb));
    }
    out[lineage[i]] = static_cast<double>(phi);
  }
  return out;
}

Result<ShapleyValues> ComputeCnfProxy(const Dnf& provenance,
                                      ExecutionBudget& budget) {
  ShapleyValues out;
  const std::vector<FactId> lineage = provenance.Variables();
  if (lineage.empty()) return out;
  for (FactId f : lineage) out[f] = 0.0;

  const CnfFormula cnf = TseytinFromDnf(provenance);
  const size_t n = cnf.num_variables;
  const bool budgeted = !budget.unlimited();

  // Shapley value, in the single-clause OR-game over universe size n, of a
  // positive/negative literal. For a clause with p positive and q negative
  // literals:
  //   positive lit x: pivotal coalitions E (excluding x) contain all q
  //     negated vars, none of the other p-1 positive vars; with m free vars
  //     the count at size k is C(m, k - q).
  //   negative lit x: pivotal (negatively) E contain the other q-1 negated
  //     vars, none of the p positive vars; contribution is negative.
  std::vector<double> scores(n, 0.0);
  for (const auto& clause : cnf.clauses) {
    if (budgeted) {
      Status status = budget.Check(kSiteCnfProxy);
      if (!status.ok()) return status;
    }
    size_t p = 0;
    size_t q = 0;
    for (const auto& lit : clause) {
      if (lit.positive) {
        ++p;
      } else {
        ++q;
      }
    }
    const size_t m = n - p - q;  // vars not mentioned by the clause
    for (const auto& lit : clause) {
      const CountVec& free_row = BinomialRow(m);
      long double value = 0.0L;
      if (lit.positive) {
        // E = (all q negated) ∪ (j of m free), size k = q + j.
        for (size_t j = 0; j <= m; ++j) {
          const size_t k = q + j;
          value += ShapleyWeight(n, k) * free_row[j];
        }
        scores[lit.var] += static_cast<double>(value);
      } else {
        // E = (other q-1 negated) ∪ (j of m free), size k = q - 1 + j,
        // and adding x destroys satisfaction: negative contribution.
        for (size_t j = 0; j <= m; ++j) {
          const size_t k = q - 1 + j;
          value += ShapleyWeight(n, k) * free_row[j];
        }
        scores[lit.var] -= static_cast<double>(value);
      }
    }
  }
  for (size_t i = 0; i < cnf.num_original; ++i) {
    out[cnf.original_facts[i]] = scores[i];
  }
  return out;
}

namespace {

// Unlimited wrappers (DESIGN.md §9.4): the budgeted form with an
// unlimited budget, which cannot trip.
template <typename Estimator>
ShapleyValues RunUnlimited(Estimator&& estimate) {
  ExecutionBudget unlimited = ExecutionBudget::Unlimited();
  Result<ShapleyValues> result = estimate(unlimited);
  LSHAP_CHECK(result.ok());
  return std::move(result).value();
}

}  // namespace

ShapleyValues ComputeShapleyExactUnlimited(const Dnf& provenance) {
  return RunUnlimited(
      [&](ExecutionBudget& b) { return ComputeShapleyExact(provenance, b); });
}

ShapleyValues ComputeShapleyMonteCarloUnlimited(const Dnf& provenance,
                                                size_t num_samples,
                                                Rng& rng) {
  return RunUnlimited([&](ExecutionBudget& b) {
    return ComputeShapleyMonteCarlo(provenance, num_samples, rng, b);
  });
}

ShapleyValues ComputeShapleyStratifiedUnlimited(
    const Dnf& provenance, const std::vector<uint32_t>& strata,
    size_t num_samples, Rng& rng, const StratifiedMcOptions& options) {
  return RunUnlimited([&](ExecutionBudget& b) {
    return ComputeShapleyStratified(provenance, strata, num_samples, rng, b,
                                    options);
  });
}

ShapleyValues ComputeBanzhafExactUnlimited(const Dnf& provenance) {
  return RunUnlimited(
      [&](ExecutionBudget& b) { return ComputeBanzhafExact(provenance, b); });
}

ShapleyValues ComputeCnfProxyUnlimited(const Dnf& provenance) {
  return RunUnlimited(
      [&](ExecutionBudget& b) { return ComputeCnfProxy(provenance, b); });
}

std::vector<FactId> RankByScore(const ShapleyValues& scores) {
  std::vector<std::pair<FactId, double>> items(scores.begin(), scores.end());
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<FactId> out;
  out.reserve(items.size());
  for (const auto& [f, v] : items) out.push_back(f);
  return out;
}

}  // namespace lshap
