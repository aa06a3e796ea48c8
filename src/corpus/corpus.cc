#include "corpus/corpus.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "corpus/format.h"
#include "eval/evaluator.h"

namespace lshap {

void RungCounts::Record(std::optional<EstimatorRung> rung) {
  // Indexed by EstimatorRung.
  static constexpr size_t RungCounts::*kField[] = {
      &RungCounts::exact, &RungCounts::stratified, &RungCounts::monte_carlo,
      &RungCounts::cnf_proxy};
  ++(rung.has_value() ? this->*kField[static_cast<size_t>(*rung)] : skipped);
}

RungCounts& RungCounts::operator+=(const RungCounts& other) {
  exact += other.exact;
  stratified += other.stratified;
  monte_carlo += other.monte_carlo;
  cnf_proxy += other.cnf_proxy;
  skipped += other.skipped;
  return *this;
}

namespace {

// Mirrors rung counts into the `<prefix>rung_*` counters (no-ops without a
// registry).
void IncRungCounters(MetricsRegistry* r, const std::string& prefix,
                     const RungCounts& c) {
  CounterFor(r, prefix + "rung_exact").Inc(c.exact);
  CounterFor(r, prefix + "rung_stratified").Inc(c.stratified);
  CounterFor(r, prefix + "rung_monte_carlo").Inc(c.monte_carlo);
  CounterFor(r, prefix + "rung_cnf_proxy").Inc(c.cnf_proxy);
  CounterFor(r, prefix + "rung_skipped").Inc(c.skipped);
}

}  // namespace

// BuildCorpus's metric handles. BuildStats stays (it is serialized with the
// corpus and printed by the benches) and is mirrored into the registry at
// the end of the build (IncRungCounters).
struct CorpusMetricSet {
  Counter queries_generated, queries_kept, tuples_prefiltered, jobs,
      budget_trips;
  Histogram lineage_facts, circuit_nodes;
  // Wall time of each rung a ground-truth job ran, tripped or not, as
  // `corpus.rung_us.<EstimatorRungName>`; indexed by EstimatorRung.
  std::array<Histogram, 4> rung_us;
  Gauge wall_seconds;

  CorpusMetricSet() = default;
  explicit CorpusMetricSet(MetricsRegistry* r)
      : queries_generated(CounterFor(r, "corpus.queries_generated")),
        queries_kept(CounterFor(r, "corpus.queries_kept")),
        tuples_prefiltered(CounterFor(r, "corpus.tuples_prefiltered")),
        jobs(CounterFor(r, "corpus.ground_truth_jobs")),
        budget_trips(CounterFor(r, "corpus.budget_trips")),
        lineage_facts(HistogramFor(r, "corpus.lineage_facts",
                                   ExponentialBuckets(1.0, 2.0, 10))),
        circuit_nodes(HistogramFor(r, "corpus.circuit_nodes",
                                   ExponentialBuckets(4.0, 4.0, 10))),
        wall_seconds(GaugeFor(r, "corpus.wall_seconds")) {
    for (size_t i = 0; i < rung_us.size(); ++i) {
      rung_us[i] = HistogramFor(
          r,
          std::string("corpus.rung_us.") +
              EstimatorRungName(static_cast<EstimatorRung>(i)),
          ExponentialBuckets(1.0, 4.0, 12));
    }
  }
};

namespace {

// One finished shard, handed to the build's sink in shard order: the kept
// entries (empty contributions and empty entries already dropped) and the
// shard's own ladder accounting.
struct ShardResult {
  uint32_t shard_index = 0;
  std::vector<CorpusEntry> entries;
  ShardBuildStats stats;
};

// One ground-truth job: a sampled output tuple that passed the pre-filter,
// with its provenance moved out of the evaluation result.
struct Job {
  size_t entry;  // into PendingShard::entries
  size_t slot;   // into that entry's contributions
  Dnf prov;
  uint64_t cost;  // |lineage|^2 * clauses: the wave runs heaviest first
};

// One shard's slice of the log, evaluated and compacted: each kept query
// holds its output tuples and the skeletons of its sampled contributions
// (no Shapley values yet), and only the sampled, pre-filter-passing
// provenance survives, as jobs in (entry, sampled output) order. The
// evaluation's lineages, tuple index and unsampled provenance are gone.
struct PendingShard {
  std::vector<CorpusEntry> entries;
  std::vector<Job> jobs;
  size_t prefiltered = 0;  // sampled tuples the pre-filter skipped
};

// Evaluates log[lo, hi), keeps the queries with enough outputs, and draws
// each kept query's output sample from `rng` in log order.
PendingShard EvaluateSlice(const Database& db, const std::vector<Query>& log,
                           size_t lo, size_t hi, const CorpusConfig& config,
                           const CorpusMetricSet& metrics, Rng& rng) {
  // The registry threads through to the evaluator, so a corpus build's
  // snapshot also carries the eval.* section for its query replay.
  const EvalOptions eval_options = EvalOptions().WithMetrics(config.metrics);
  PendingShard out;
  for (size_t qi = lo; qi < hi; ++qi) {
    auto eval = Evaluate(db, log[qi], eval_options);
    if (!eval.ok()) continue;
    EvalResult& result = *eval;
    const size_t total = result.tuples.size();
    if (total < config.min_outputs_per_query) continue;

    const size_t want = std::min(total, config.max_outputs_per_query);
    std::vector<size_t> sampled = rng.SampleWithoutReplacement(total, want);
    std::sort(sampled.begin(), sampled.end());
    const size_t e = out.entries.size();
    CorpusEntry& entry = out.entries.emplace_back();
    entry.query = log[qi];
    for (size_t idx : sampled) {
      Dnf& prov = result.provenance[idx];
      const size_t lineage = prov.Variables().size();
      if (lineage > config.max_lineage ||
          prov.num_clauses() > config.max_clauses) {
        // The syntactic pre-filter is the outermost skip rung: the tuple
        // never reaches the ladder, but it still leaves a skip record.
        ++out.prefiltered;
        metrics.tuples_prefiltered.Inc();
        continue;
      }
      metrics.lineage_facts.Observe(static_cast<double>(lineage));
      const uint64_t cost =
          static_cast<uint64_t>(lineage) * lineage * prov.num_clauses();
      out.jobs.push_back(
          {e, entry.contributions.size(), std::move(prov), cost});
      entry.contributions.push_back({result.tuples[idx], {}});
    }
    entry.all_outputs = std::move(result.tuples);
  }
  metrics.queries_kept.Inc(out.entries.size());
  return out;
}

// The sharded build driver behind BuildCorpus and BuildCorpusToShards: a
// two-stage pipeline. While shard s's ladder wave runs on the pool, the
// driver thread evaluates shard s+1's slice of the log (the evaluation
// stream); it then folds shard s and hands it to the sink. Evaluating on
// the driver rather than on a thread of its own keeps the evaluation's
// working set in the allocator arena it has always used.
//
// Determinism contract (DESIGN.md §10.4): the query log is partitioned into
// K contiguous slices, and the sequential sampling RNG stream — output
// sampling per kept query, then the final split shuffle — is consumed in
// shard order, exactly the order the K=1 build consumes it, since one
// thread evaluates every shard in order. The stratified and Monte-Carlo fallback
// rungs are seeded by global job index (a running counter across shards,
// with distinct per-rung mix constants), and each job writes only its own
// outcome slot, so running a wave heaviest-first moves nothing. The
// merged entries, splits and rung counts are identical for every K and
// thread count; only wall-clock deadline trips can differ run to run.
//
// `sink` receives each ShardResult in shard order and owns the entries
// from then on — the driver holds one shard's entries plus, at most, the
// next shard's compacted pending queries.
template <typename Sink>
BuildStats RunShardedBuild(const Database& db, const SchemaGraph& graph,
                           const CorpusConfig& config, ThreadPool& pool,
                           const CorpusMetricSet& metrics, Sink&& sink,
                           std::vector<size_t>& train_idx,
                           std::vector<size_t>& dev_idx,
                           std::vector<size_t>& test_idx) {
  WallTimer build_timer;
  ScopedSpan build_span(config.metrics, "corpus.build");

  std::vector<Query> log;
  {
    ScopedSpan span(config.metrics, "corpus.generate_log");
    QueryGenerator generator(&db, graph, config.query_gen, config.seed);
    log = generator.GenerateLog(config.num_base_queries, db.name());
    metrics.queries_generated.Inc(log.size());
  }

  Rng rng(config.seed ^ 0xc0ffee);
  const size_t num_shards = std::max<size_t>(1, config.num_shards);
  // Shard s's evaluation. It runs inside the previous shard's
  // corpus.ground_truth span, yet is timed as a child of corpus.build.
  const std::vector<std::string> span_path = OpenSpanPath(config.metrics);
  const auto evaluate_shard = [&](size_t s) {
    ScopedSpan span(config.metrics, "corpus.evaluate_log", span_path);
    return EvaluateSlice(db, log, log.size() * s / num_shards,
                         log.size() * (s + 1) / num_shards, config, metrics,
                         rng);
  };

  // Whole-build deadline, shared by every shard's wave. Anchored right
  // before the first wave launches — for K=1 that is the historical anchor
  // point (after log evaluation, before the ladder).
  using Clock = std::chrono::steady_clock;
  const bool has_build_deadline = config.build_deadline_seconds > 0.0;
  Clock::time_point build_deadline{};

  // One ladder per job, each rung under a fresh per-tuple budget; only the
  // exact rung carries the node cap.
  const std::vector<LadderRung> rungs = {
      {EstimatorRung::kExact},
      {EstimatorRung::kStratified, config.stratified_fallback_samples},
      {EstimatorRung::kMonteCarlo, config.mc_fallback_samples},
      {EstimatorRung::kCnfProxy}};

  BuildStats stats;
  stats.per_shard.reserve(num_shards);
  // Global ladder-job counter: jobs are enumerated in the same order for
  // every K, and this index seeds the sampling fallbacks (stratified and
  // plain MC), so rung results are shard-count-invariant.
  size_t job_counter = 0;
  size_t total_kept = 0;  // kept entries across shards, for the split

  // Shard 0 has no wave to overlap with.
  PendingShard pending = evaluate_shard(0);
  for (size_t s = 0; s < num_shards; ++s) {
    WallTimer shard_timer;
    ShardResult shard;
    shard.shard_index = static_cast<uint32_t>(s);
    shard.stats.shard_index = static_cast<uint32_t>(s);
    ShardBuildStats& sstats = shard.stats;
    sstats.skipped += pending.prefiltered;
    if (pending.prefiltered > 0) {
      sstats.budget_trips[kSiteCorpusPrefilter] += pending.prefiltered;
    }
    shard.entries = std::move(pending.entries);
    const std::vector<Job> jobs = std::move(pending.jobs);
    const size_t job_base = job_counter;
    job_counter += jobs.size();

    // Heaviest jobs first, so the wave's tail is made of cheap ones.
    // Outcome slots stay indexed by job.
    std::vector<size_t> order(jobs.size());
    for (size_t j = 0; j < order.size(); ++j) order[j] = j;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return jobs[a].cost > jobs[b].cost;
    });

    if (has_build_deadline && s == 0) {
      build_deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 config.build_deadline_seconds));
    }
    // Each shard's wave gets its own token; the shared deadline anchor
    // still expires every later shard's jobs at their first check.
    CancelToken shard_cancel;

    // Each outcome slot is written by the one worker that ran the job and
    // folded below serially, so the counts are deterministic at any thread
    // count; a job the build cancelled before it ran keeps its cancelled
    // placeholder.
    LadderResult not_run;
    not_run.cancelled = true;
    std::vector<LadderResult> outcomes(jobs.size(), not_run);
    const auto ladder = [&](size_t j) -> Status {
      const Job& job = jobs[j];
      if (has_build_deadline && Clock::now() >= build_deadline) {
        return Status::ResourceExhausted("corpus build deadline exceeded");
      }
      std::optional<ExecutionBudget> budget;
      // Each rung's wall time ends where the next rung's budget is asked
      // for, or where the ladder returns.
      std::optional<EstimatorRung> running;
      Clock::time_point rung_start;
      const auto close_rung = [&](Clock::time_point now) {
        if (!running.has_value()) return;
        metrics.rung_us[static_cast<size_t>(*running)].Observe(
            std::chrono::duration<double, std::micro>(now - rung_start)
                .count());
      };
      LadderResult& result = outcomes[j];
      result = RunLadder(
          db, rungs, config.seed, {{&job.prov, job_base + j}},
          [&](EstimatorRung rung) {
            const Clock::time_point now = Clock::now();
            close_rung(now);
            running = rung;
            rung_start = now;
            const uint64_t nodes =
                rung == EstimatorRung::kExact ? config.max_circuit_nodes : 0;
            return &budget.emplace(
                ExecutionBudget::Limits{config.tuple_deadline_seconds, nodes},
                &shard_cancel, config.fault_injector);
          });
      close_rung(Clock::now());
      if (result.rung == EstimatorRung::kExact) {
        // Charge accounting runs even on an unlimited budget, so after a
        // successful exact rung the charged units are (almost exactly) the
        // compiled circuit's node count.
        metrics.circuit_nodes.Observe(
            static_cast<double>(budget->charged_units()));
      }
      if (result.rung.has_value()) {
        shard.entries[job.entry].contributions[job.slot].shapley =
            std::move(result.values[0]);
      }
      return result.cancelled ? Status::Cancelled("corpus build cancelled")
                              : Status::Ok();
    };
    metrics.jobs.Inc(jobs.size());
    // The driver evaluates the next shard while the pool runs this wave.
    // The wave status is deliberately dropped: a cancelled build is not an
    // error of the build — the unprocessed jobs are folded into the skip
    // accounting below and the (partial) shard is still valid.
    PendingShard next;
    {
      ScopedSpan span(config.metrics, "corpus.ground_truth");
      (void)ParallelFor(
          pool, jobs.size(), shard_cancel,
          [&](size_t i) { return ladder(order[i]); },
          [&] {
            if (s + 1 < num_shards) next = evaluate_shard(s + 1);
          });
    }

    // Fold the per-job outcomes into the shard's stats serially
    // (deterministic counts), then drop the contributions that got no
    // ground truth.
    for (const LadderResult& outcome : outcomes) {
      if (outcome.cancelled) {
        // Build cancelled (or deadline hit) before this tuple finished.
        ++sstats.skipped;
        ++sstats.budget_trips[kSiteCorpusBuildDeadline];
      } else {
        sstats.Record(outcome.rung);  // no rung: every rung tripped
      }
      for (const std::string& site : outcome.trip_sites) {
        ++sstats.budget_trips[site];
      }
    }
    for (auto& e : shard.entries) {
      e.contributions.erase(
          std::remove_if(e.contributions.begin(), e.contributions.end(),
                         [](const TupleContribution& c) {
                           return c.shapley.empty();
                         }),
          e.contributions.end());
    }
    // Drop entries that ended with no usable contributions.
    std::vector<CorpusEntry> kept;
    kept.reserve(shard.entries.size());
    for (auto& e : shard.entries) {
      if (!e.contributions.empty()) kept.push_back(std::move(e));
    }
    shard.entries = std::move(kept);

    sstats.entries = shard.entries.size();
    sstats.wall_seconds = shard_timer.ElapsedSeconds();
    total_kept += shard.entries.size();

    // Merge this shard into the totals — in shard order, on the driver
    // thread, never under a mutex in completion order — so the merged
    // counts are deterministic at any thread count.
    stats += sstats;
    for (const auto& [site, n] : sstats.budget_trips) {
      stats.budget_trips[site] += n;
    }
    if (config.metrics != nullptr) {
      // Per-shard rung counters, opt-in like every corpus.* metric.
      const std::string prefix = StrFormat("corpus.shard%03zu.", s);
      CounterFor(config.metrics, prefix + "entries").Inc(sstats.entries);
      IncRungCounters(config.metrics, prefix, sstats);
    }
    stats.per_shard.push_back(sstats);
    sink(std::move(shard));
    pending = std::move(next);
  }

  ScopedSpan finalize_span(config.metrics, "corpus.finalize");
  // Query-level 70/10/20 split over the merged entry order, drawn from the
  // same sequential RNG stream — the step after the last shard's sampling,
  // exactly as in the K=1 build.
  std::vector<size_t> order(total_kept);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  const size_t n_train = static_cast<size_t>(
      config.train_frac * static_cast<double>(order.size()));
  const size_t n_dev = static_cast<size_t>(
      config.dev_frac * static_cast<double>(order.size()));
  for (size_t i = 0; i < order.size(); ++i) {
    if (i < n_train) {
      train_idx.push_back(order[i]);
    } else if (i < n_train + n_dev) {
      dev_idx.push_back(order[i]);
    } else {
      test_idx.push_back(order[i]);
    }
  }

  stats.wall_seconds = build_timer.ElapsedSeconds();
  // Mirror the merged BuildStats into the registry (rung counts are
  // deterministic; see the shard-order merge above).
  IncRungCounters(config.metrics, "corpus.", stats);
  for (const auto& [site, n] : stats.budget_trips) {
    metrics.budget_trips.Inc(n);
  }
  metrics.wall_seconds.Set(stats.wall_seconds);
  return stats;
}

}  // namespace

Corpus BuildCorpus(const Database& db, const SchemaGraph& graph,
                   const CorpusConfig& config, ThreadPool& pool) {
  const CorpusMetricSet metrics(config.metrics);
  Corpus corpus;
  corpus.db = &db;
  corpus.stats = RunShardedBuild(
      db, graph, config, pool, metrics,
      [&corpus](ShardResult&& shard) {
        for (CorpusEntry& e : shard.entries) {
          corpus.entries.push_back(std::move(e));
        }
      },
      corpus.train_idx, corpus.dev_idx, corpus.test_idx);
  return corpus;
}

Result<BuildStats> BuildCorpusToShards(const Database& db,
                                       const SchemaGraph& graph,
                                       const CorpusConfig& config,
                                       ThreadPool& pool,
                                       const std::string& path) {
  const CorpusMetricSet metrics(config.metrics);
  const uint64_t fingerprint = FactTableFingerprint(db);
  Status write_status = Status::Ok();
  std::vector<uint64_t> shard_entries;
  uint64_t base_entry = 0;
  std::vector<size_t> train_idx, dev_idx, test_idx;
  BuildStats stats = RunShardedBuild(
      db, graph, config, pool, metrics,
      [&](ShardResult&& shard) {
        if (!write_status.ok()) return;  // first write error wins
        ShardWriter writer(ShardFileName(path, shard.shard_index),
                           fingerprint, shard.shard_index, base_entry);
        for (const CorpusEntry& e : shard.entries) {
          write_status = writer.Append(e);
          if (!write_status.ok()) return;
        }
        write_status = writer.Finish(&shard.stats);
        if (!write_status.ok()) return;
        base_entry += shard.entries.size();
        shard_entries.push_back(shard.entries.size());
      },
      train_idx, dev_idx, test_idx);
  if (!write_status.ok()) return write_status;

  CorpusManifest manifest;
  manifest.db_name = db.name();
  manifest.db_facts = db.num_facts();
  manifest.db_fingerprint = fingerprint;
  manifest.shard_entries = std::move(shard_entries);
  manifest.train_idx = std::move(train_idx);
  manifest.dev_idx = std::move(dev_idx);
  manifest.test_idx = std::move(test_idx);
  manifest.stats = stats;
  Status s = WriteManifest(manifest, path);
  if (!s.ok()) return s;
  return stats;
}

SimilarityMatrices ComputeSimilarityMatrices(const Corpus& corpus,
                                             size_t max_tuples_for_rank,
                                             ThreadPool& pool,
                                             MetricsRegistry* metrics) {
  ScopedSpan matrices_span(metrics, "similarity.matrices");
  const size_t n = corpus.entries.size();
  SimilarityMatrices m;
  m.syntax.assign(n, std::vector<double>(n, 0.0));
  m.witness.assign(n, std::vector<double>(n, 0.0));
  m.rank.assign(n, std::vector<double>(n, 0.0));

  // Per-query features, once per query. Witness ids come from one serial
  // interning pass, since every query must share the id space.
  std::vector<SyntaxFeatures> syntax(n);
  std::vector<WitnessFeatures> witness;
  std::vector<RankFeatures> rank(n);
  {
    ScopedSpan span(metrics, "similarity.features");
    ParallelFor(pool, n, [&](size_t i) {
      syntax[i] = MakeSyntaxFeatures(corpus.entries[i].query);
      rank[i] = MakeRankFeatures(corpus.entries[i].contributions,
                                 max_tuples_for_rank);
    });
    std::vector<const std::vector<OutputTuple>*> outputs(n);
    for (size_t i = 0; i < n; ++i) outputs[i] = &corpus.entries[i].all_outputs;
    witness = MakeWitnessFeatures(outputs);
  }

  // Upper-triangle pairs, parallelized.
  ScopedSpan pairs_span(metrics, "similarity.pairs");
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(n * (n + 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) pairs.emplace_back(i, j);
  }
  ParallelFor(pool, pairs.size(), [&](size_t p) {
    const auto [i, j] = pairs[p];
    const double syn = syntax[i].Similarity(syntax[j]);
    const double wit = witness[i].Similarity(witness[j]);
    const double rnk = rank[i].Similarity(rank[j]);
    m.syntax[i][j] = m.syntax[j][i] = syn;
    m.witness[i][j] = m.witness[j][i] = wit;
    m.rank[i][j] = m.rank[j][i] = rnk;
  });
  return m;
}

SplitStats ComputeSplitStats(const Corpus& corpus,
                             const std::vector<size_t>& split) {
  SplitStats stats;
  stats.queries = split.size();
  for (size_t i : split) {
    const CorpusEntry& e = corpus.entries[i];
    stats.results += e.all_outputs.size();
    for (const auto& c : e.contributions) stats.facts += c.shapley.size();
  }
  return stats;
}

std::unordered_set<FactId> TrainSeenFacts(const Corpus& corpus) {
  std::unordered_set<FactId> seen;
  for (size_t i : corpus.train_idx) {
    for (const auto& c : corpus.entries[i].contributions) {
      for (const auto& [f, v] : c.shapley) seen.insert(f);
    }
  }
  return seen;
}

double MeanGroupSimilarity(const std::vector<std::vector<double>>& matrix,
                           const std::vector<size_t>& group_a,
                           const std::vector<size_t>& group_b) {
  double sum = 0.0;
  size_t count = 0;
  for (size_t i : group_a) {
    for (size_t j : group_b) {
      if (i == j) continue;
      sum += matrix[i][j];
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace lshap
