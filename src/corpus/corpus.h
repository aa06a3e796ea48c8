#ifndef LSHAP_CORPUS_CORPUS_H_
#define LSHAP_CORPUS_CORPUS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/budget.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "query/generator.h"
#include "relational/database.h"
#include "shapley/ladder.h"
#include "similarity/similarity.h"

namespace lshap {

// Everything DBShap stores for one query: the query, its full output (the
// witness set), and — for a sampled subset of outputs — the exact Shapley
// value of every lineage fact.
struct CorpusEntry {
  Query query;
  std::vector<OutputTuple> all_outputs;
  // Sampled (output tuple, exact Shapley values) pairs; the tuple's lineage
  // is exactly the key set of `shapley`.
  std::vector<TupleContribution> contributions;
};

// Synthetic budget-trip sites recorded by the corpus builder in addition to
// the engine sites (kSiteCompilerExpand, kSiteShapleyCount, ...).
inline constexpr char kSiteCorpusPrefilter[] = "corpus.prefilter";
inline constexpr char kSiteCorpusBuildDeadline[] = "corpus.build_deadline";

// How many sampled output tuples landed on each rung of the ground-truth
// ladder (shapley/ladder.h):
//   exact -> stratified -> monte_carlo -> cnf_proxy -> skipped
// (a sampling rung is absent when its sample budget is 0: the stratified
// rung by default, the Monte-Carlo rung when mc_fallback_samples is 0). The
// invariant `exact + stratified + monte_carlo + cnf_proxy + skipped ==
// attempted()` means no tuple is ever silently lost: a tuple without
// ground truth always leaves a skip record with a trip site explaining why.
struct RungCounts {
  size_t exact = 0;        // exact circuit Shapley
  size_t stratified = 0;   // relation-stratified MC (opt-in)
  size_t monte_carlo = 0;  // permutation-sampling estimate
  size_t cnf_proxy = 0;    // CNF-proxy ranking scores
  // Dropped: pre-filtered (max_lineage / max_clauses), every computing rung
  // tripped, or the build was cancelled before the tuple finished.
  size_t skipped = 0;

  size_t attempted() const {
    return exact + stratified + monte_carlo + cnf_proxy + skipped;
  }
  // Counts one tuple on `rung`; no rung counts it as skipped.
  void Record(std::optional<EstimatorRung> rung);
  RungCounts& operator+=(const RungCounts& other);
};

// What one shard's worker did during a sharded build: its slice of the
// query log, the rung each of its sampled tuples landed on, and the budget
// trips it recorded. Shard stats merge associatively in shard order into
// the whole-build BuildStats, so the merged totals are identical for any
// shard count.
struct ShardBuildStats : RungCounts {
  uint32_t shard_index = 0;
  size_t entries = 0;      // corpus entries this shard contributed
  // This shard's ladder wave (which overlaps the next shard's log
  // evaluation) and fold, in wall time.
  double wall_seconds = 0.0;
  std::map<std::string, size_t> budget_trips;
};

// What the graceful-degradation ladder did during one BuildCorpus run.
struct BuildStats : RungCounts {
  double wall_seconds = 0.0;  // whole-build wall time
  // Budget-trip occurrences keyed by check site (ExecutionBudget trip sites
  // plus the synthetic corpus.* sites above). Merged from the per-shard
  // maps in shard order — never under a mutex in completion order — so the
  // totals are deterministic at any thread count.
  std::map<std::string, size_t> budget_trips;
  // Per-shard breakdown, one slot per shard in shard order. Size equals the
  // build's num_shards (a single slot for the historical K=1 build).
  std::vector<ShardBuildStats> per_shard;
};

// A DBShap-style corpus over one database: query log with ground truth and
// the 70/10/20 query-level split of Section 4.
struct Corpus {
  const Database* db = nullptr;
  std::vector<CorpusEntry> entries;
  std::vector<size_t> train_idx;
  std::vector<size_t> dev_idx;
  std::vector<size_t> test_idx;
  BuildStats stats;
};

// Follows the options-builder convention (DESIGN.md §9.4): a
// default-constructed config reproduces the historical corpus bit-for-bit,
// and every knob has a chainable With* setter.
struct CorpusConfig {
  uint64_t seed = 1;
  // Base queries to generate; mutated variants multiply this by ~2-3x.
  size_t num_base_queries = 40;
  // Cap on outputs per query for which exact Shapley values are computed
  // (DBShap computes all; we sample for tractability — see DESIGN.md).
  size_t max_outputs_per_query = 30;
  // Skip output tuples whose lineage exceeds this (circuit compilation for
  // pathological provenance can blow up; the paper's max is ~200).
  size_t max_lineage = 200;
  // Skip output tuples with more derivations than this — dense multi-hub
  // provenance is where knowledge compilation degenerates (it is PP-hard in
  // general).
  size_t max_clauses = 120;
  // Queries with fewer results than this are dropped from the log.
  size_t min_outputs_per_query = 1;
  double train_frac = 0.7;
  double dev_frac = 0.1;
  QueryGenConfig query_gen;

  // --- Resource governance (DESIGN.md "Resource governance & degraded
  // modes"). The defaults reproduce the historical unbounded behaviour. ---
  // Per-tuple wall-clock allowance, applied afresh to each ladder rung;
  // 0 = no deadline.
  double tuple_deadline_seconds = 0.0;
  // Circuit-node/work allowance for the exact rung's compilation (one unit
  // per circuit node); 0 = unlimited. This is the principled replacement
  // for relying solely on the max_lineage/max_clauses pre-filter: it bounds
  // the *actual* compiled size, not a syntactic proxy of it.
  size_t max_circuit_nodes = 0;
  // Sample budget of the Monte-Carlo fallback rung. 0 removes the rung: a
  // tuple the exact (and stratified) rung drops goes straight to the CNF
  // proxy.
  size_t mc_fallback_samples = 20000;
  // Per-fact sample budget of the relation-stratified MC rung, tried
  // between exact and plain MC (DESIGN.md §13). 0 (the default) disables
  // the rung, reproducing the historical exact -> MC ladder bit-for-bit.
  // Because stratification cuts variance at equal budget, a useful setting
  // is below mc_fallback_samples — equal estimator quality for less work,
  // so more tuples finish above the CNF-proxy rung under a tight
  // tuple deadline.
  size_t stratified_fallback_samples = 0;
  // Whole-build wall-clock allowance; 0 = none. On expiry the parallel
  // ground-truth wave is cancelled cooperatively and every unprocessed
  // tuple is recorded as skipped (site corpus.build_deadline).
  double build_deadline_seconds = 0.0;
  // Number of build shards. The query log is partitioned contiguously into
  // this many slices, each evaluated and laddered by an independent worker;
  // shards merge in stable shard order, so any value reproduces the K=1
  // (historical) corpus bit-for-bit when no wall-clock deadline fires.
  size_t num_shards = 1;
  // Deterministic test hook forcing budget trips at exact sites; not owned.
  FaultInjector* fault_injector = nullptr;
  // Observability opt-in: when set, BuildCorpus records corpus.* counters
  // (rung transitions, budget trips, circuit sizes) and phase spans into
  // the registry, and threads it through every per-query Evaluate call.
  // The registry only observes; corpus contents are identical either way.
  MetricsRegistry* metrics = nullptr;

  CorpusConfig& WithSeed(uint64_t s) { seed = s; return *this; }
  CorpusConfig& WithNumBaseQueries(size_t n) {
    num_base_queries = n;
    return *this;
  }
  CorpusConfig& WithMaxOutputsPerQuery(size_t n) {
    max_outputs_per_query = n;
    return *this;
  }
  CorpusConfig& WithMaxLineage(size_t n) { max_lineage = n; return *this; }
  CorpusConfig& WithMaxClauses(size_t n) { max_clauses = n; return *this; }
  CorpusConfig& WithMinOutputsPerQuery(size_t n) {
    min_outputs_per_query = n;
    return *this;
  }
  CorpusConfig& WithSplit(double train, double dev) {
    train_frac = train;
    dev_frac = dev;
    return *this;
  }
  CorpusConfig& WithQueryGen(const QueryGenConfig& qg) {
    query_gen = qg;
    return *this;
  }
  CorpusConfig& WithTupleDeadlineSeconds(double s) {
    tuple_deadline_seconds = s;
    return *this;
  }
  CorpusConfig& WithMaxCircuitNodes(size_t n) {
    max_circuit_nodes = n;
    return *this;
  }
  CorpusConfig& WithMcFallbackSamples(size_t n) {
    mc_fallback_samples = n;
    return *this;
  }
  CorpusConfig& WithStratifiedFallbackSamples(size_t n) {
    stratified_fallback_samples = n;
    return *this;
  }
  CorpusConfig& WithBuildDeadlineSeconds(double s) {
    build_deadline_seconds = s;
    return *this;
  }
  CorpusConfig& WithNumShards(size_t k) {
    num_shards = k == 0 ? 1 : k;
    return *this;
  }
  CorpusConfig& WithFaultInjector(FaultInjector* f) {
    fault_injector = f;
    return *this;
  }
  CorpusConfig& WithMetrics(MetricsRegistry* m) { metrics = m; return *this; }
};

// Generates a query log over `db`, evaluates it with provenance, computes
// Shapley ground truth for sampled outputs (in parallel over `pool`), and
// splits queries into train/dev/test. Each tuple's ground truth descends the
// estimator ladder (see RungCounts) under the configured budgets, with
// per-rung counts and budget-trip sites recorded in Corpus::stats.
// Deterministic for a fixed config whenever no deadline fires (budget trips
// caused by wall-clock deadlines depend on machine speed; node budgets and
// fault injection are exactly reproducible).
Corpus BuildCorpus(const Database& db, const SchemaGraph& graph,
                   const CorpusConfig& config, ThreadPool& pool);

// Sharded-build variant that streams each shard's entries straight into the
// packed binary shard files at `path` (manifest plus one
// `<path>.shardNNN` per shard) instead of materialising a resident Corpus.
// Builder memory holds one entry at a time per shard; the written corpus
// loads back (LoadCorpusShards / LoadCorpus auto-detect) identical to what
// BuildCorpus returns for the same config. Returns the merged BuildStats.
Result<BuildStats> BuildCorpusToShards(const Database& db,
                                       const SchemaGraph& graph,
                                       const CorpusConfig& config,
                                       ThreadPool& pool,
                                       const std::string& path);

// Pairwise query-similarity matrices over a corpus (Figure 7, Table 2).
struct SimilarityMatrices {
  std::vector<std::vector<double>> syntax;
  std::vector<std::vector<double>> witness;
  std::vector<std::vector<double>> rank;
};

// Computes all three N x N matrices; rank similarity caps each query's
// output side at `max_tuples_for_rank` contributions. Symmetric: entry
// (i, j) with i <= j, and its mirror, is bit for bit the pairwise
// Syntax/Witness/RankSimilarity call on (i, j), at any thread count.
// Per-query features are built once (span "similarity.features"), then
// every upper-triangle pair runs on them (span "similarity.pairs"), both
// under "similarity.matrices" in `metrics` when it is non-null.
SimilarityMatrices ComputeSimilarityMatrices(
    const Corpus& corpus, size_t max_tuples_for_rank, ThreadPool& pool,
    MetricsRegistry* metrics = nullptr);

// Per-split counts for Table 1.
struct SplitStats {
  size_t queries = 0;
  size_t results = 0;   // output tuples across the split (full witness sets)
  size_t facts = 0;     // contributing facts across sampled contributions
};

SplitStats ComputeSplitStats(const Corpus& corpus,
                             const std::vector<size_t>& split);

// The set of facts appearing in any training contribution's lineage — used
// by the seen/unseen analyses (Section 5.7).
std::unordered_set<FactId> TrainSeenFacts(const Corpus& corpus);

// Mean similarity between two groups of queries (e.g. train vs. test) under
// a precomputed matrix; pairs (i, i) are excluded.
double MeanGroupSimilarity(const std::vector<std::vector<double>>& matrix,
                           const std::vector<size_t>& group_a,
                           const std::vector<size_t>& group_b);

}  // namespace lshap

#endif  // LSHAP_CORPUS_CORPUS_H_
