#ifndef LSHAP_SHAPLEY_SHAPLEY_H_
#define LSHAP_SHAPLEY_SHAPLEY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/budget.h"
#include "common/rng.h"
#include "common/status.h"
#include "provenance/bool_expr.h"
#include "relational/database.h"

namespace lshap {

// Shapley values of all lineage facts with respect to one (query, output
// tuple) pair, keyed by fact id. Values are in [0, 1] and — for monotone
// provenance that is satisfiable with all facts present — sum to 1.
using ShapleyValues = std::unordered_map<FactId, double>;

// Budget check-site names exposed for fault-injection tests. The compiler's
// own site (kSiteCompilerExpand) additionally fires inside the exact engine.
inline constexpr char kSiteShapleyCount[] = "shapley.count";
inline constexpr char kSiteShapleyMcSample[] = "shapley.mc_sample";
inline constexpr char kSiteShapleyStratPilot[] = "shapley.strat_pilot";
inline constexpr char kSiteShapleyStratSample[] = "shapley.strat_sample";
inline constexpr char kSiteCnfProxy[] = "shapley.cnf_proxy";
inline constexpr char kSiteBanzhafCount[] = "banzhaf.count";

// Every Compute* entry point below documents its budget-charging policy in
// the same format: a trailing "Budget:" paragraph stating what is polled
// (deadline / cancellation / fault checks, no units consumed) and what is
// charged (work units consumed against max_work_units) per unit of work.
// All budgeted variants follow the fallible-call convention of DESIGN.md
// §9.4: on a trip the error Status is returned and NO partial values leak
// out; the *Unlimited wrapper is the same computation with an unlimited
// budget and cannot fail.

// Exact Shapley values of every variable of the provenance DNF, computed by
// compiling the DNF into a decision-DNNF circuit and counting satisfying
// assignments by size (the SIGMOD 2022 algorithm of Deutch et al.). The
// player universe is the lineage (facts outside it are null players, which
// by the Shapley null-player/dummy property does not change any value).
//
// Budget: compilation charges one work unit per circuit node built and
// polls at kSiteCompilerExpand; the counting phase polls once per lineage
// fact at kSiteShapleyCount before that fact's circuit traversal (each
// traversal touches at most the node count already charged, so the poll
// bounds counting at circuit-size granularity).
Result<ShapleyValues> ComputeShapleyExact(const Dnf& provenance,
                                          ExecutionBudget& budget);
ShapleyValues ComputeShapleyExactUnlimited(const Dnf& provenance);

// Exact Shapley values by brute-force subset enumeration, used as an
// independent oracle in tests. Exponential in the lineage size.
//
// Contract: lineages above 25 variables are refused with kInvalidArgument
// rather than attempted — callers can feed generated, untrusted-size
// provenance, and 2^25 subset evaluations is the largest blow-up this
// entry point is willing to risk.
//
// Budget: none — the call takes no ExecutionBudget. The checked size
// contract above is the resource guard.
Result<ShapleyValues> ComputeShapleyBrute(const Dnf& provenance);

// Monte-Carlo permutation-sampling estimate with `num_samples` random
// permutations. Unbiased; per-fact standard error ~ O(1/sqrt(num_samples)).
// Returns kInvalidArgument for num_samples 0 on a non-empty lineage (there
// is no estimate to average).
//
// Budget: charges one work unit (with its implied deadline/cancel/fault
// poll) per sampled permutation at kSiteShapleyMcSample. One permutation
// walk costs up to n incremental DNF evaluations (monotone early-exit
// usually stops far sooner). On a trip, the samples drawn so far are
// discarded and the error is returned (a truncated average would be biased
// toward early-permutation pivots).
Result<ShapleyValues> ComputeShapleyMonteCarlo(const Dnf& provenance,
                                               size_t num_samples, Rng& rng,
                                               ExecutionBudget& budget);
ShapleyValues ComputeShapleyMonteCarloUnlimited(const Dnf& provenance,
                                                size_t num_samples, Rng& rng);

// Tuning knobs for ComputeShapleyStratified.
struct StratifiedMcOptions {
  // Plain permutation walks used as a pilot pass: they estimate each
  // stratum's marginal-contribution variance, which drives Neyman-style
  // allocation of the main sample pool (more samples to high-variance
  // strata). The pilot is skipped — falling back to deterministic
  // proportional allocation, every fact keeping exactly `num_samples`
  // marginal samples — when pilot_permutations is 0, when the lineage has
  // fewer than two strata, or when num_samples < 2 * pilot_permutations
  // (pool too small for reallocation to beat the pilot's own cost).
  size_t pilot_permutations = 64;
};

// Stratified Monte-Carlo estimate (arXiv 2511.22035-style): `strata[i]`
// names the relation of `provenance.Variables()[i]`, and `num_samples` is
// the per-fact sample budget, so total work is comparable to plain MC with
// the same `num_samples` (a permutation walk costs up to n evaluations; a
// marginal sample costs at most two).
//
// Instead of whole-permutation walks, each fact f gets m_f *marginal
// samples*: draw a coalition size k (stratified over contiguous position
// bins so every coalition-size region is covered — this removes the
// between-position variance component that plain MC resamples), draw a
// uniform k-subset S of lineage∖{f}, and score Δ = Φ(S∪{f}) − Φ(S). The
// per-fact budgets m_f are allocated across relation strata Neyman-style
// from the pilot pass (see StratifiedMcOptions), deterministically via
// largest-remainder rounding with every fact guaranteed at least one
// sample and Σ m_f == n·num_samples exactly. Deterministic given (rng
// seed, inputs, options). Returns kInvalidArgument if strata.size() does
// not match the lineage size or num_samples is 0.
//
// Budget: charges one work unit (with its implied deadline/cancel/fault
// poll) per pilot permutation walk at kSiteShapleyStratPilot and one per
// marginal sample at kSiteShapleyStratSample — a full run charges
// pilot_permutations + n·num_samples units. On a trip, everything drawn
// so far is discarded and the error is returned.
Result<ShapleyValues> ComputeShapleyStratified(
    const Dnf& provenance, const std::vector<uint32_t>& strata,
    size_t num_samples, Rng& rng, ExecutionBudget& budget,
    const StratifiedMcOptions& options = {});
ShapleyValues ComputeShapleyStratifiedUnlimited(
    const Dnf& provenance, const std::vector<uint32_t>& strata,
    size_t num_samples, Rng& rng, const StratifiedMcOptions& options = {});

// Exact Banzhaf values over the same circuits: the Banzhaf index replaces
// the Shapley coalition weights with a uniform 1/2^(n-1), i.e. the
// probability that f is pivotal for a uniformly random coalition. It is the
// other standard power index in fact attribution (studied by the same
// line of work as a cheaper alternative) and usually induces a very similar
// ranking; `bench_ext_banzhaf` quantifies the agreement.
//
// Budget: like ComputeShapleyExact — compilation charges one unit per
// circuit node (polling at kSiteCompilerExpand), then one poll per counted
// fact at kSiteBanzhafCount.
Result<ShapleyValues> ComputeBanzhafExact(const Dnf& provenance,
                                          ExecutionBudget& budget);
ShapleyValues ComputeBanzhafExactUnlimited(const Dnf& provenance);

// The inexact "CNF Proxy" comparator of Deutch et al.: apply the Tseytin
// transformation to the provenance DNF and score each original fact by its
// exact Shapley value in the *clause-counting game* of the resulting CNF
// (value of a coalition = number of CNF clauses it satisfies). Each clause
// is an OR-game whose Shapley values have a closed form, and Shapley is
// linear across games, so the proxy is cheap to evaluate. Only the induced
// ranking is meaningful, not the magnitudes.
//
// Budget: polls once per CNF clause at kSiteCnfProxy; no units are
// charged. The proxy is polynomial, so in practice only fault injection or
// a cancelled token trips it — it exists so the corpus builder's last
// computing rung is governed like the others.
Result<ShapleyValues> ComputeCnfProxy(const Dnf& provenance,
                                      ExecutionBudget& budget);
ShapleyValues ComputeCnfProxyUnlimited(const Dnf& provenance);

// Ranks fact ids by descending score; ties broken by ascending fact id so
// rankings are deterministic.
std::vector<FactId> RankByScore(const ShapleyValues& scores);

}  // namespace lshap

#endif  // LSHAP_SHAPLEY_SHAPLEY_H_
