// dbshap_build: the offline cost LearnShapley exists to avoid repeating.
// Builds a DBShap corpus (query log, evaluation with provenance, Shapley
// ground truth down the exact -> stratified ladder), its similarity
// matrices, and a sharded save/load round trip, over and over for the run's
// measuring time. No ml code runs here.

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "corpus/io.h"
#include "datasets/imdb.h"
#include "eval/evaluator.h"
#include "provenance/circuit.h"
#include "provenance/compiler.h"
#include "workloads.h"

namespace lshap {
namespace perfbench {
namespace {

CorpusConfig BuildConfig() {
  CorpusConfig cfg;
  cfg.seed = kBuildLogSeed;
  cfg.num_base_queries = kBuildBaseQueries;
  cfg.max_outputs_per_query = kBuildMaxOutputsPerQuery;
  cfg.query_gen.min_tables = 2;
  cfg.query_gen.max_tables = 4;
  cfg.max_circuit_nodes = kBuildMaxCircuitNodes;
  cfg.stratified_fallback_samples = kBuildStratifiedSamples;
  cfg.num_shards = kBuildShards;
  return cfg;
}

// One rep's timings.
struct BuildRep {
  double build_s = 0, sims_s = 0, save_s = 0, load_s = 0;
  double ready_s() const { return build_s + sims_s + save_s; }
};

// Replays the built corpus layer by layer: every query through Evaluate
// (full provenance), every sampled tuple's DNF through DnfCompiler::Compile
// under the build's node cap, and — when it compiles — a CountingSession
// pass that recomputes its exact Shapley values. Checks the values against
// the corpus and returns the per-call latencies (traced when enabled).
struct ReplayResult {
  std::vector<double> query_ms, compile_us, count_us;
  uint64_t circuit_nodes = 0, cache_hits = 0;
  uint64_t exact = 0, below_exact = 0, mismatches = 0, missing = 0;
};

ReplayResult Replay(const Corpus& corpus, const Database& db,
                    ThreadPool& pool, MetricsRegistry* registry,
                    Tracer& tracer, int64_t parent) {
  const size_t n = corpus.entries.size();
  std::vector<ReplayResult> per_entry(n);
  ParallelFor(pool, n, [&](size_t e) {
    const CorpusEntry& entry = corpus.entries[e];
    ReplayResult& out = per_entry[e];
    const double q0 = tracer.Now();
    const Clock::time_point t0 = Clock::now();
    auto eval = Evaluate(db, entry.query, EvalOptions().WithMetrics(registry));
    out.query_ms.push_back(SecondsSince(t0) * 1e3);
    tracer.Record("Evaluate", "eval", q0, tracer.Now(), parent, e + 1);
    if (!eval.ok()) {
      out.missing += entry.contributions.size();
      return;
    }
    for (const TupleContribution& c : entry.contributions) {
      auto it = eval->index.find(c.tuple);
      if (it == eval->index.end()) {
        ++out.missing;
        continue;
      }
      const Dnf& dnf = eval->ProvenanceOf(it->second);
      const std::vector<FactId> lineage = dnf.Variables();
      const int64_t tspan =
          tracer.Open("ShapleyTuple", "shapley", parent, e + 1);
      DnfCompiler compiler;
      ExecutionBudget budget(
          ExecutionBudget::Limits{0.0, kBuildMaxCircuitNodes});
      const double c0 = tracer.Now();
      const Clock::time_point tc = Clock::now();
      auto circuit = compiler.Compile(dnf, budget);
      out.compile_us.push_back(SecondsSince(tc) * 1e6);
      tracer.Record("DnfCompiler::Compile", "provenance", c0, tracer.Now(),
                    tspan, e + 1);
      out.circuit_nodes += compiler.last_num_nodes();
      out.cache_hits += compiler.last_cache_hits();
      bool keys_match = c.shapley.size() == lineage.size();
      for (FactId f : lineage) keys_match = keys_match && c.shapley.count(f);
      if (!circuit.ok()) {
        // Over the node cap: the tuple must have come down the ladder to
        // the stratified estimate, over exactly its lineage.
        ++out.below_exact;
        if (!keys_match) ++out.mismatches;
        tracer.Close(tspan);
        continue;
      }
      ++out.exact;
      const Clock::time_point tk = Clock::now();
      CountingSession session(circuit->get());
      const NodeId root = (*circuit)->root();
      const size_t vars = lineage.size();
      bool values_match = keys_match;
      for (FactId f : lineage) {
        CountVec c1 = ExtendCounts(session.Forced(root, f, true), vars - 1);
        CountVec c0v = ExtendCounts(session.Forced(root, f, false), vars - 1);
        const CountVec& binom = BinomialRow(vars - 1);
        long double value = 0.0L;
        for (size_t k = 0; k < vars; ++k) {
          const long double pivotal = c1[k] - c0v[k];
          if (pivotal != 0.0L) {
            value += pivotal /
                     (static_cast<long double>(vars) * binom[k]);
          }
        }
        auto got = c.shapley.find(f);
        if (got == c.shapley.end() ||
            std::fabs(got->second - static_cast<double>(value)) > 1e-9) {
          values_match = false;
        }
      }
      out.count_us.push_back(SecondsSince(tk) * 1e6);
      tracer.Close(tspan);
      if (!values_match) ++out.mismatches;
    }
  });
  ReplayResult all;
  for (ReplayResult& r : per_entry) {
    all.query_ms.insert(all.query_ms.end(), r.query_ms.begin(),
                        r.query_ms.end());
    all.compile_us.insert(all.compile_us.end(), r.compile_us.begin(),
                          r.compile_us.end());
    all.count_us.insert(all.count_us.end(), r.count_us.begin(),
                        r.count_us.end());
    all.circuit_nodes += r.circuit_nodes;
    all.cache_hits += r.cache_hits;
    all.exact += r.exact;
    all.below_exact += r.below_exact;
    all.mismatches += r.mismatches;
    all.missing += r.missing;
  }
  return all;
}

}  // namespace

Report RunBuild(const RunOptions& options, Tracer& tracer) {
  Report report;
  const uint64_t first_variant = options.seed % kInputVariants;

  ThreadPool pool(options.threads);
  const CorpusConfig base_config = BuildConfig();
  const std::string shard_path = options.scratch_dir + "/dbshap_corpus.bin";

  // Measured part. Rep k builds over database (seed + k) % kInputVariants,
  // so a run's medians cover many databases rather than hinging on one. A
  // traced run builds each database twice, untraced then traced, and the
  // tracing overhead is the gap between the two sets' medians.
  //
  // Each rep first generates its database: that is the workload's set-up,
  // timed apart from the rep's measured sections, and setup_s is its median
  // over the reps. Set-up samples thus span the run, and a single 8x
  // database takes only milliseconds to generate. Only the rep's own
  // database is resident, beside the first rep's, so peak_rss_mb covers
  // the build rather than a stock of databases.
  std::vector<double> setup_times;
  std::vector<BuildRep> reps, traced_reps;
  std::vector<double> tuples_per_s;
  // The first rep's database and corpus are the seed's own: the replay and
  // the work counters use them, so they do not depend on how many reps fit.
  GeneratedDb first_data;
  Corpus corpus;
  uint64_t shard_bytes = 0;
  size_t wrong_fingerprints = 0;
  MetricsRegistry registry;
  ResetPeakRss();
  const Clock::time_point start = Clock::now();
  for (size_t rep = 0;
       rep < kMinReps || SecondsSince(start) < options.seconds; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    const uint64_t variant =
        (first_variant + (options.trace ? rep / 2 : rep)) % kInputVariants;
    Clock::time_point t0 = Clock::now();
    GeneratedDb data = MakeImdbDatabase(BuildDbConfig(variant));
    setup_times.push_back(SecondsSince(t0));
    CorpusConfig config = base_config;
    if (traced) config.metrics = &registry;
    Tracer off(false);
    Tracer& t = traced ? tracer : off;
    BuildRep r;
    ++report.attempted;
    const int64_t root = t.Open("dbshap_build.rep", "bench");
    t0 = Clock::now();
    double s0 = t.Now();
    Corpus built = BuildCorpus(*data.db, data.graph, config, pool);
    r.build_s = SecondsSince(t0);
    t.Record("BuildCorpus", "corpus", s0, t.Now(), root);

    t0 = Clock::now();
    s0 = t.Now();
    SimilarityMatrices sims = ComputeSimilarityMatrices(
        built, kSimilarityTuplesForRank, pool);
    r.sims_s = SecondsSince(t0);
    t.Record("ComputeSimilarityMatrices", "similarity", s0, t.Now(), root);

    t0 = Clock::now();
    s0 = t.Now();
    const Status saved = SaveCorpusShards(built, shard_path, kBuildShards);
    r.save_s = SecondsSince(t0);
    t.Record("SaveCorpusShards", "corpus", s0, t.Now(), root);

    t0 = Clock::now();
    s0 = t.Now();
    Result<Corpus> loaded = LoadCorpusShards(data.db.get(), shard_path);
    r.load_s = SecondsSince(t0);
    t.Record("LoadCorpusShards", "corpus", s0, t.Now(), root);
    t.Close(root);

    if (!saved.ok() || !loaded.ok()) {
      ++report.failed;
      report.Check(false, "shard save/load failed: " +
                              (saved.ok() ? loaded.status().ToString()
                                          : saved.ToString()));
      break;
    }
    // Correctness: the corpus matches the value recorded for its database,
    // and a shard save followed by a load gives it back unchanged.
    const uint64_t fp = CorpusFingerprint(built);
    if (fp != kBuildFingerprints[variant]) {
      ++wrong_fingerprints;
      std::printf("corpus fingerprint %016" PRIx64 " for database %" PRIu64
                  ", recorded %016" PRIx64 "\n",
                  fp, variant, kBuildFingerprints[variant]);
    }
    report.Check(CorpusFingerprint(*loaded) == fp,
                 "shard save then load changed the corpus");
    report.Check(sims.syntax.size() == built.entries.size(),
                 "similarity matrix size does not match the corpus");
    const size_t with_truth = built.stats.attempted() - built.stats.skipped;
    (traced ? traced_reps : reps).push_back(r);
    if (!traced) {
      tuples_per_s.push_back(static_cast<double>(with_truth) / r.build_s);
    }
    if (rep == 0) {
      shard_bytes = ShardBytes(shard_path);
      corpus = std::move(built);
      first_data = std::move(data);
    }
  }
  report.Check(wrong_fingerprints == 0,
               std::to_string(wrong_fingerprints) +
                   " corpora differ from the recorded fingerprint");

  const double peak_rss_mb = PeakRssMb();
  const BuildStats& stats = corpus.stats;
  std::vector<double> ready, sims_s, save_s, load_s;
  for (const BuildRep& r : reps) {
    ready.push_back(r.ready_s());
    sims_s.push_back(r.sims_s);
    save_s.push_back(r.save_s);
    load_s.push_back(r.load_s);
  }
  const size_t facts = CorpusFacts(corpus);
  const double bytes_per_fact =
      facts > 0 ? static_cast<double>(shard_bytes) / static_cast<double>(facts)
                : 0.0;

  // An independent layer-by-layer replay of the seed's corpus reproduces
  // every exact value and the rung split.
  MetricsRegistry replay_registry;
  const int64_t replay_root = tracer.Open("replay", "bench");
  const ReplayResult replay =
      Replay(corpus, *first_data.db, pool, &replay_registry, tracer,
             replay_root);
  tracer.Close(replay_root);
  report.Check(replay.mismatches == 0 && replay.missing == 0,
               "replayed exact Shapley values differ from the corpus (" +
                   std::to_string(replay.mismatches) + " tuples differ, " +
                   std::to_string(replay.missing) + " missing)");
  report.Check(replay.exact == stats.exact &&
                   replay.below_exact ==
                       stats.stratified + stats.monte_carlo + stats.cnf_proxy,
               "replayed rung assignment differs from the build's stats");

  const double rows_scanned = replay_registry.CounterValue("eval.rows_scanned");
  const double rows_probed =
      replay_registry.CounterValue("eval.join.rows_probed");
  const double outputs = replay_registry.CounterValue("eval.output_tuples");
  report.Count("queries", static_cast<double>(corpus.entries.size()));
  report.Count("rows_scanned", rows_scanned);
  report.Count("rows_probed", rows_probed);
  report.Count("output_tuples", outputs);
  report.Count("circuit_nodes", static_cast<double>(replay.circuit_nodes));
  report.Count("tuples_exact", static_cast<double>(stats.exact));
  report.Count("tuples_stratified", static_cast<double>(stats.stratified));
  report.Count("tuples_mc", static_cast<double>(stats.monte_carlo));
  report.Count("tuples_proxy", static_cast<double>(stats.cnf_proxy));
  report.Count("tuples_skipped", static_cast<double>(stats.skipped));
  report.Count("facts", static_cast<double>(facts));
  report.Count("corpus_bytes", static_cast<double>(shard_bytes));

  const double ready_s = Median(ready);
  report.Detail("build_tuples_per_s", Median(tuples_per_s), "tuples/s");
  report.Detail("corpus_ready_s", ready_s, "s");
  report.Detail("corpus_bytes_per_fact", bytes_per_fact, "B");
  report.Detail("reps", static_cast<double>(reps.size()), "count");

  if (!options.trace) {
    AddEndToEnd(report, Median(setup_times), peak_rss_mb, Median(tuples_per_s),
                ready_s * 1e3);
    return report;
  }

  // Per-layer metrics.
  std::vector<double> traced_ready;
  for (const BuildRep& r : traced_reps) traced_ready.push_back(r.ready_s());
  const double attempted = static_cast<double>(stats.attempted());
  report.Add("eval.query_ms.p50", Quantile(replay.query_ms, 0.5), "ms");
  report.Add("eval.query_ms.p99", Quantile(replay.query_ms, 0.99), "ms");
  report.Add("eval.rows_scanned", rows_scanned, "count");
  report.Add("eval.rows_probed", rows_probed, "count");
  report.Add("eval.output_tuples", outputs, "count");
  report.Add("eval.rows_per_output",
             outputs > 0 ? (rows_scanned + rows_probed) / outputs : 0.0,
             "ratio");
  report.Add("provenance.compile_us.p50", Quantile(replay.compile_us, 0.5),
             "us");
  report.Add("provenance.compile_us.p99", Quantile(replay.compile_us, 0.99),
             "us");
  report.Add("provenance.circuit_nodes",
             static_cast<double>(replay.circuit_nodes), "count");
  report.Add("provenance.cache_hits", static_cast<double>(replay.cache_hits),
             "count");
  report.Add("shapley.count_us.p50", Quantile(replay.count_us, 0.5), "us");
  report.Add("shapley.count_us.p99", Quantile(replay.count_us, 0.99), "us");
  report.Add("shapley.exact_tuples", static_cast<double>(stats.exact),
             "count");
  report.Add("shapley.stratified_tuples",
             static_cast<double>(stats.stratified), "count");
  report.Add("shapley.mc_tuples", static_cast<double>(stats.monte_carlo),
             "count");
  report.Add("shapley.proxy_tuples", static_cast<double>(stats.cnf_proxy),
             "count");
  report.Add("shapley.skipped_tuples", static_cast<double>(stats.skipped),
             "count");
  report.Add("shapley.exact_share",
             attempted > 0 ? static_cast<double>(stats.exact) / attempted : 0,
             "ratio");
  // The library's own corpus spans, per traced rep.
  const double traced_n =
      std::max<double>(1.0, static_cast<double>(traced_reps.size()));
  report.Add("corpus.build_s",
             registry.SpanAt({"corpus.build"}).total_seconds / traced_n, "s");
  report.Add("corpus.evaluate_log_s",
             registry.SpanAt({"corpus.build", "corpus.evaluate_log"})
                     .total_seconds /
                 traced_n,
             "s");
  report.Add("corpus.ground_truth_s",
             registry.SpanAt({"corpus.build", "corpus.ground_truth"})
                     .total_seconds /
                 traced_n,
             "s");
  report.Add("corpus.save_s", Median(save_s), "s");
  report.Add("corpus.load_s", Median(load_s), "s");
  report.Add("corpus.bytes", static_cast<double>(shard_bytes), "B");
  report.Add("similarity.matrices_s", Median(sims_s), "s");
  report.Add("similarity.entries",
             static_cast<double>(corpus.entries.size() * corpus.entries.size()),
             "count");
  report.Add("trace.overhead_pct",
             ready_s > 0 ? (Median(traced_ready) - ready_s) / ready_s * 100.0
                         : 0.0,
             "%");
  return report;
}

}  // namespace perfbench
}  // namespace lshap
