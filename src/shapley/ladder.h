#ifndef LSHAP_SHAPLEY_LADDER_H_
#define LSHAP_SHAPLEY_LADDER_H_

// The estimator ladder (DESIGN.md §6): interchangeable Shapley estimators
// tried in order over a batch of provenances, each under a budget the
// caller supplies just before it runs. The corpus builder and the ranking
// service are two configurations of it.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/budget.h"
#include "provenance/bool_expr.h"
#include "relational/database.h"
#include "shapley/shapley.h"

namespace lshap {

enum class EstimatorRung : uint8_t {
  kExact = 0,       // ComputeShapleyExact (decision-DNNF circuit)
  kStratified = 1,  // ComputeShapleyStratified over relation strata
  kMonteCarlo = 2,  // ComputeShapleyMonteCarlo (permutation sampling)
  kCnfProxy = 3,    // ComputeCnfProxy (Tseytin clause-counting game)
};
const char* EstimatorRungName(EstimatorRung rung);

// `samples` is a sampling rung's budget (per fact for kStratified,
// permutations for kMonteCarlo); with 0 the rung is absent from the ladder.
struct LadderRung {
  EstimatorRung rung;
  size_t samples = 0;
};

// A sampling rung r estimates this input with Rng(seed_base ^ (mix[r] *
// (stream + 1))), one fixed mix per rung, so its values depend on
// (seed_base, stream), never on the thread or batch that ran it.
struct LadderInput {
  const Dnf* provenance = nullptr;
  uint64_t stream = 0;
};

struct LadderResult {
  std::optional<EstimatorRung> rung;  // first rung every input passed
  std::vector<ShapleyValues> values;  // one per input when `rung` is set
  std::vector<std::string> trip_sites;  // of each rung that ran and failed
  bool cancelled = false;  // a rung failed with kCancelled; ladder stopped
};

// Called just before each present rung: the budget the rung charges for
// the whole batch, or null to skip it — the caller's hook for per-rung
// limits and gates.
using RungBudgetFn = std::function<ExecutionBudget*(EstimatorRung)>;

// The relation index of each fact of provenance.Variables(): the strata
// of the kStratified rung.
std::vector<uint32_t> RelationStrata(const Database& db, const Dnf& provenance);

// Walks `rungs` in order. A rung is taken only if it succeeds for every
// input; otherwise its partial values are dropped, its trip site recorded,
// and the next rung tried, unless it failed with kCancelled. `inputs` is
// read only after `budget_for` returns a budget, so the callback may fill
// it lazily (the ranking service evaluates only once a rung needs it).
LadderResult RunLadder(const Database& db, const std::vector<LadderRung>& rungs,
                       uint64_t seed_base,
                       const std::vector<LadderInput>& inputs,
                       const RungBudgetFn& budget_for);

}  // namespace lshap

#endif  // LSHAP_SHAPLEY_LADDER_H_
