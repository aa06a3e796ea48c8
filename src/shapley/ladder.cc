#include "shapley/ladder.h"

#include <iterator>
#include <utility>

#include "common/rng.h"

namespace lshap {

namespace {

// Seed mix per rung, indexed by EstimatorRung (the corpus builder's
// historical constants). Only the sampling rungs draw a seed.
constexpr uint64_t kRungSeedMix[] = {0, 0xda942042e4dd58b5ULL,
                                     0x9e3779b97f4a7c15ULL, 0};

bool IsSampling(EstimatorRung rung) {
  return kRungSeedMix[static_cast<size_t>(rung)] != 0;
}

// The one dispatch from a rung to its estimator.
Result<ShapleyValues> Estimate(const Database& db, const LadderRung& step,
                               const LadderInput& input, uint64_t seed_base,
                               ExecutionBudget& budget) {
  const Dnf& prov = *input.provenance;
  Rng rng(seed_base ^ (kRungSeedMix[static_cast<size_t>(step.rung)] *
                       (input.stream + 1)));
  switch (step.rung) {
    case EstimatorRung::kExact:
      return ComputeShapleyExact(prov, budget);
    case EstimatorRung::kStratified:
      return ComputeShapleyStratified(prov, RelationStrata(db, prov),
                                      step.samples, rng, budget);
    case EstimatorRung::kMonteCarlo:
      return ComputeShapleyMonteCarlo(prov, step.samples, rng, budget);
    case EstimatorRung::kCnfProxy:
      return ComputeCnfProxy(prov, budget);
  }
  return Status::InvalidArgument("unknown estimator rung");
}

}  // namespace

const char* EstimatorRungName(EstimatorRung rung) {
  static constexpr const char* kNames[] = {"exact", "stratified",
                                           "monte_carlo", "cnf_proxy"};
  const auto i = static_cast<size_t>(rung);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

std::vector<uint32_t> RelationStrata(const Database& db,
                                     const Dnf& provenance) {
  const std::vector<FactId> lineage = provenance.Variables();
  std::vector<uint32_t> strata(lineage.size());
  for (size_t i = 0; i < lineage.size(); ++i) {
    strata[i] = db.FactTableIndex(lineage[i]);
  }
  return strata;
}

LadderResult RunLadder(const Database& db, const std::vector<LadderRung>& rungs,
                       uint64_t seed_base,
                       const std::vector<LadderInput>& inputs,
                       const RungBudgetFn& budget_for) {
  LadderResult out;
  for (const LadderRung& step : rungs) {
    if (IsSampling(step.rung) && step.samples == 0) continue;  // absent
    ExecutionBudget* budget = budget_for(step.rung);
    if (budget == nullptr) continue;
    Status failed;
    for (const LadderInput& input : inputs) {
      Result<ShapleyValues> r = Estimate(db, step, input, seed_base, *budget);
      if (!(failed = r.status()).ok()) break;
      out.values.push_back(std::move(r).value());
    }
    if (failed.ok()) {
      out.rung = step.rung;
      return out;
    }
    out.values.clear();
    out.trip_sites.push_back(budget->trip_site());
    if (failed.code() == StatusCode::kCancelled) {
      out.cancelled = true;
      return out;
    }
  }
  return out;
}

}  // namespace lshap
