// serve: the deployment path — rank one output tuple's lineage online.
// An open loop (independent users): one generator thread submits
// RankTuple requests on a fixed schedule, one collector thread gathers the
// responses, and the RankingService runs kServeWorkers workers. The load
// alternates between two fixed rates: nominal (no deadlines, periodic
// snapshot republish) and overload (every request carries the latency limit
// as its deadline). The database and key pool are fixed; the seed picks the
// request sequence.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "eval/evaluator.h"
#include "learnshapley/ranker.h"
#include "learnshapley/serialization.h"
#include "ml/encoder.h"
#include "query/generator.h"
#include "serving/service.h"
#include "workloads.h"

namespace lshap {
namespace perfbench {
namespace {

struct Key {
  Query query;
  OutputTuple tuple;
  std::vector<FactId> lineage;
};

// The key pool, ordered by Zipf rank: a fixed number of generated queries,
// up to kServeKeysPerQuery sampled outputs of each whose lineage fits, and
// the first kServePoolSize of those keys in a seeded shuffle. Nothing here
// depends on the run's seed.
std::vector<Key> BuildKeyPool(const Database& db, const SchemaGraph& graph,
                              ThreadPool& threads) {
  QueryGenConfig qg;
  qg.min_tables = 2;
  qg.max_tables = 4;
  QueryGenerator gen(&db, graph, qg, kServePoolSeed);
  std::vector<Query> queries;
  for (size_t i = 0; i < kServePoolQueries; ++i) {
    queries.push_back(gen.Generate("serve_q" + std::to_string(i)));
  }
  std::vector<std::vector<Key>> candidates(queries.size());
  ParallelFor(threads, queries.size(), [&](size_t i) {
    auto result = Evaluate(db, queries[i], ProvenanceCapture::kLineageOnly);
    if (!result.ok()) return;
    const size_t n = result->tuples.size();
    Rng rng(kServePoolSeed * 0x9e3779b97f4a7c15ULL + i);
    for (size_t idx :
         rng.SampleWithoutReplacement(n, std::min(n, kServeKeysPerQuery))) {
      const std::vector<FactId>& lineage = result->lineages[idx];
      if (lineage.empty() || lineage.size() > kServeMaxLineage) continue;
      candidates[i].push_back({queries[i], result->tuples[idx], lineage});
    }
  });
  std::vector<Key> pool;
  for (std::vector<Key>& keys : candidates) {
    for (Key& key : keys) pool.push_back(std::move(key));
  }
  Rng rng(kServePoolSeed);
  rng.Shuffle(pool);
  if (pool.size() > kServePoolSize) pool.resize(kServePoolSize);
  return pool;
}

// A base-shape ranker with fixed-seed weights over the pool's vocabulary:
// serving latency depends on the model's shape, not on what it learned
// (quality is gated in the train workload).
std::shared_ptr<const LearnShapleyRanker> MakeRanker(
    const Database& db, const std::vector<Key>& pool) {
  auto vocab = std::make_shared<Vocab>();
  for (const Key& k : pool) {
    vocab->AddTokens(QueryTokens(k.query));
    const std::vector<std::string> t_tokens = TupleTokens(k.tuple);
    vocab->AddTokens(t_tokens);
    for (FactId f : k.lineage) {
      vocab->AddTokens(FactTokensWithContext(db, f, t_tokens));
    }
  }
  EncoderConfig cfg = EncoderConfig::Base(vocab->size());
  cfg.seed = kServeModelSeed;
  LearnShapleyModel model(cfg, kServeModelSeed);
  return std::make_shared<const LearnShapleyRanker>(
      std::move(model), vocab, cfg.max_len, /*shapley_scale=*/10.0f,
      "serve-base");
}

class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(),
                                     rng.NextDouble());
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// Zipf(1) popularity over the pool's ranks. Every kServeDriftRequests
// requests the popularity drifts by one rank (rank r moves on to the key
// one place further down the pool), so a run samples many different hot
// keys instead of hinging on one.
class Traffic {
 public:
  Traffic(size_t pool_size, uint64_t seed) : zipf_(pool_size), rng_(seed) {}
  size_t NextKey() {
    const size_t offset = requests_++ / kServeDriftRequests;
    return (zipf_.Sample(rng_) + offset) % zipf_.size();
  }
  uint64_t requests() const { return requests_; }

 private:
  ZipfSampler zipf_;
  Rng rng_;
  uint64_t requests_ = 0;
};

ServiceConfig ServeConfig(MetricsRegistry* metrics) {
  return ServiceConfig()
      .WithWorkers(kServeWorkers)
      .WithCacheCapacity(kServeCacheEntries)
      .WithEstRequestSeconds(kServeEstRequestSeconds)
      .WithEstModelSeconds(kServeEstModelSeconds)
      .WithMetrics(metrics);
}

// What happened to one request.
struct Outcome {
  size_t key = 0;
  bool rejected = false;
  bool cancelled = false;
  bool ok = false;  // completed with an OK status
  ServeRung rung = ServeRung::kDegraded;
  double latency_ms = 0.0;  // due time -> response
  double queue_ms = 0.0, serve_ms = 0.0;
  RankedTuple ranked;  // the answer, for model / cached rungs
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  double duration_s = 0.0;
  double max_lag_ms = 0.0;
  std::vector<double> publish_ms;
  uint64_t submitted = 0;
  uint64_t publish_failures = 0;
};

// Runs one open-loop phase: `count` requests due every 1/rate seconds.
PhaseResult RunPhase(RankingService& service, const std::vector<Key>& pool,
                     Traffic& traffic, double rate, double seconds,
                     double deadline_s, bool republish,
                     const std::shared_ptr<const Database>& db,
                     const std::shared_ptr<const LearnShapleyRanker>& ranker,
                     Tracer& tracer) {
  const size_t count = static_cast<size_t>(rate * seconds);
  const uint64_t first_request_id = traffic.requests() + 1;
  PhaseResult phase;
  phase.outcomes.resize(count);
  for (size_t i = 0; i < count; ++i) phase.outcomes[i].key = traffic.NextKey();

  struct InFlight {
    size_t index;
    Clock::time_point due;
    Clock::time_point submitted;
    std::future<RankResponse> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> in_flight;
  bool done = false;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto due_at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  std::thread collector([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !in_flight.empty(); });
        if (in_flight.empty()) return;
        item = std::move(in_flight.front());
        in_flight.pop_front();
      }
      RankResponse resp = item.future.get();
      Outcome& out = phase.outcomes[item.index];
      out.cancelled = resp.status.code() == StatusCode::kCancelled;
      out.ok = resp.status.ok();
      out.rung = resp.rung;
      out.queue_ms = resp.queue_seconds * 1e3;
      out.serve_ms = resp.serve_seconds * 1e3;
      // Completion = admission + queue + service; measured from due time,
      // so a stalled generator's lateness counts against the request.
      const double submit_lag =
          std::chrono::duration<double>(item.submitted - item.due).count();
      out.latency_ms = submit_lag * 1e3 + out.queue_ms + out.serve_ms;
      if (!resp.results.empty()) out.ranked = std::move(resp.results[0]);
      const uint64_t id = first_request_id + item.index;
      const double due = tracer.At(item.due);
      const double sub = tracer.At(item.submitted);
      const int64_t span = tracer.Record(
          "RankTuple", "serving", due, sub + resp.queue_seconds +
                                           resp.serve_seconds,
          -1, id);
      tracer.Record("generator_lag", "bench", due, sub, span, id);
      tracer.Record("queue", "serving", sub, sub + resp.queue_seconds, span,
                    id);
      tracer.Record("process", "serving", sub + resp.queue_seconds,
                    sub + resp.queue_seconds + resp.serve_seconds, span, id);
    }
  });

  double next_publish = kServeRepublishSeconds;
  for (size_t i = 0; i < count; ++i) {
    const double due_s = static_cast<double>(i) / rate;
    if (republish && due_s >= next_publish) {
      const Clock::time_point p0 = Clock::now();
      const double s0 = tracer.Now();
      if (!service.Publish(db, ranker).ok()) ++phase.publish_failures;
      phase.publish_ms.push_back(SecondsSince(p0) * 1e3);
      tracer.Record("Publish", "serving", s0, tracer.Now());
      next_publish += kServeRepublishSeconds;
    }
    const Clock::time_point due = due_at(due_s);
    std::this_thread::sleep_until(due);
    const Key& key = pool[phase.outcomes[i].key];
    RankRequest req;
    req.query = key.query;
    req.tuple = key.tuple;
    req.deadline_seconds = deadline_s;
    const Clock::time_point submitted = Clock::now();
    phase.max_lag_ms = std::max(
        phase.max_lag_ms,
        std::chrono::duration<double>(submitted - due).count() * 1e3);
    ++phase.submitted;
    auto fut = service.Submit(std::move(req));
    if (!fut.ok()) {
      phase.outcomes[i].rejected = true;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      in_flight.push_back({i, due, submitted, std::move(fut).value()});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  phase.duration_s = static_cast<double>(count) / rate;
  return phase;
}

bool GoodAnswer(const Outcome& o) {
  return o.ok && (o.rung == ServeRung::kModel || o.rung == ServeRung::kCached);
}

// Latency sample for the limit: requests without a model-quality answer
// count as missing it.
std::vector<double> LimitLatencies(const PhaseResult& phase) {
  std::vector<double> v;
  v.reserve(phase.outcomes.size());
  for (const Outcome& o : phase.outcomes) {
    v.push_back(GoodAnswer(o) ? o.latency_ms
                              : std::numeric_limits<double>::infinity());
  }
  return v;
}

// The serve figures of a set of windows, over all their requests pooled:
// the nominal p50 and p99 and the overload goodput.
struct WindowFigures {
  double p50_ms = 0, p99_ms = 0, goodput_rps = 0, answered_pct = 0;
  double max_lag_ms = 0;
  size_t samples = 0;
};

WindowFigures Summarize(const std::vector<PhaseResult>& nominal,
                        const std::vector<PhaseResult>& overload) {
  WindowFigures f;
  std::vector<double> latencies;
  for (const PhaseResult& phase : nominal) {
    const std::vector<double> lat = LimitLatencies(phase);
    latencies.insert(latencies.end(), lat.begin(), lat.end());
    f.max_lag_ms = std::max(f.max_lag_ms, phase.max_lag_ms);
  }
  size_t answered = 0, good = 0, offered = 0;
  double overload_s = 0.0;
  for (const PhaseResult& phase : overload) {
    for (const Outcome& o : phase.outcomes) {
      answered += GoodAnswer(o) ? 1 : 0;
      good += GoodAnswer(o) && o.latency_ms <= kServeLatencyLimitMs ? 1 : 0;
    }
    offered += phase.outcomes.size();
    overload_s += phase.duration_s;
    f.max_lag_ms = std::max(f.max_lag_ms, phase.max_lag_ms);
  }
  f.p50_ms = Quantile(latencies, 0.5);
  f.p99_ms = Quantile(latencies, 0.99);
  f.samples = latencies.size();
  f.goodput_rps = overload_s > 0 ? static_cast<double>(good) / overload_s : 0;
  f.answered_pct = offered > 0 ? 100.0 * static_cast<double>(answered) /
                                     static_cast<double>(offered)
                               : 0.0;
  return f;
}

// What the benchmark saw of the requests it sent one service.
struct Tally {
  uint64_t submitted = 0, completed = 0, rejected = 0, cancelled = 0;
  uint64_t errors = 0, model = 0, cached = 0;

  void Add(const std::vector<PhaseResult>& phases) {
    for (const PhaseResult& phase : phases) {
      submitted += phase.submitted;
      for (const Outcome& o : phase.outcomes) {
        if (o.rejected) {
          ++rejected;
        } else if (o.cancelled) {
          ++cancelled;
        } else {
          ++completed;
          if (!o.ok) ++errors;
          if (o.ok && o.rung == ServeRung::kModel) ++model;
          if (o.ok && o.rung == ServeRung::kCached) ++cached;
        }
      }
    }
  }
};

// Accounting: the service's own counters hold submitted == completed +
// rejected + cancelled, and each agrees with what the benchmark saw.
void CheckAccounting(const MetricsRegistry& m, const Tally& seen,
                     const std::string& which, Report& report) {
  const uint64_t rejected = m.CounterValue("serve.rejected.queue_full") +
                            m.CounterValue("serve.rejected.backlog") +
                            m.CounterValue("serve.rejected.deadline") +
                            m.CounterValue("serve.rejected.no_snapshot") +
                            m.CounterValue("serve.rejected.fault") +
                            m.CounterValue("serve.rejected.shutdown");
  const uint64_t submitted = m.CounterValue("serve.submitted");
  const uint64_t completed = m.CounterValue("serve.completed");
  const uint64_t cancelled = m.CounterValue("serve.cancelled");
  report.Check(submitted == completed + rejected + cancelled,
               which + " service counters: submitted != completed + "
                       "rejected + cancelled");
  const auto agree = [&](const char* name, uint64_t service, uint64_t bench) {
    report.Check(service == bench,
                 which + " service counted " + std::to_string(service) + " " +
                     name + ", the benchmark saw " + std::to_string(bench));
  };
  agree("submitted", submitted, seen.submitted);
  agree("completed", completed, seen.completed);
  agree("rejected", rejected, seen.rejected);
  agree("cancelled", cancelled, seen.cancelled);
  agree("errors", m.CounterValue("serve.errors"), seen.errors);
  agree("model-rung answers", m.CounterValue("serve.rung.model"), seen.model);
  agree("cached-rung answers", m.CounterValue("serve.rung.cached"),
        seen.cached);
}

}  // namespace

Report RunServe(const RunOptions& options, Tracer& tracer) {
  Report report;
  ThreadPool threads(options.threads);
  // The key pool is the request input, drawn once from the database before
  // set-up is timed. Set-up proper, the database and the ranker the service
  // publishes, is timed kSetupRepeats times; both are single-threaded.
  std::vector<Key> pool;
  {
    GeneratedDb data = MakeImdbDatabase(BuildDbConfig(kServeDbVariant));
    data.db->FreezeStringOrder();
    pool = BuildKeyPool(*data.db, data.graph, threads);
  }
  report.Check(pool.size() == kServePoolSize,
               "key pool holds " + std::to_string(pool.size()) + " keys, not " +
                   std::to_string(kServePoolSize));
  if (!report.correct()) return report;
  std::vector<double> setup_times;
  std::shared_ptr<const Database> db;
  std::shared_ptr<const LearnShapleyRanker> ranker;
  for (int i = 0; i < kSetupRepeats; ++i) {
    db.reset();
    ranker.reset();
    const Clock::time_point t0 = Clock::now();
    GeneratedDb data = MakeImdbDatabase(BuildDbConfig(kServeDbVariant));
    data.db->FreezeStringOrder();
    db = std::shared_ptr<const Database>(std::move(data.db));
    ranker = MakeRanker(*db, pool);
    setup_times.push_back(SecondsSince(t0));
  }

  Traffic traffic(pool.size(), options.seed * 0x9e3779b97f4a7c15ULL + 1);
  // The measuring time is cut into kServeWindows windows, each a nominal
  // stretch followed by an overload stretch on the same service (so its
  // cache carries over).
  const double window_s = options.seconds / kServeWindows;
  const double nominal_s = window_s * kServeNominalShare;
  const double overload_s = window_s - nominal_s;
  const double limit_s = kServeLatencyLimitMs / 1e3;

  // A traced run alternates windows between an untraced service and a
  // traced one; the tracing overhead is the gap between their medians.
  // Each service counts into its own registry; the accounting check reads
  // both, and the per-layer metrics read the traced one.
  MetricsRegistry registry, traced_registry;
  Tracer off(false);
  ResetPeakRss();
  RankingService service(ServeConfig(&registry));
  std::unique_ptr<RankingService> traced_service;
  report.Check(service.Publish(db, ranker).ok(), "publish failed");
  if (options.trace) {
    traced_service = std::make_unique<RankingService>(
        ServeConfig(&traced_registry));
    report.Check(traced_service->Publish(db, ranker).ok(), "publish failed");
  }
  std::vector<PhaseResult> nominal, overload, traced_nominal, traced_overload;
  for (size_t w = 0; w < kServeWindows; ++w) {
    const bool traced = options.trace && w % 2 == 1;
    RankingService& s = traced ? *traced_service : service;
    Tracer& t = traced ? tracer : off;
    (traced ? traced_nominal : nominal)
        .push_back(RunPhase(s, pool, traffic, kServeNominalRps, nominal_s,
                            0.0, true, db, ranker, t));
    (traced ? traced_overload : overload)
        .push_back(RunPhase(s, pool, traffic, kServeOverloadRps, overload_s,
                            limit_s, false, db, ranker, t));
  }
  service.Shutdown();
  if (traced_service != nullptr) traced_service->Shutdown();
  const double peak_rss_mb = PeakRssMb();

  std::vector<const PhaseResult*> all_phases, nominal_phases;
  for (const auto* phases :
       {&nominal, &overload, &traced_nominal, &traced_overload}) {
    for (const PhaseResult& p : *phases) {
      all_phases.push_back(&p);
      if (phases == &nominal || phases == &traced_nominal) {
        nominal_phases.push_back(&p);
      }
    }
  }
  Tally seen, traced_seen;
  seen.Add(nominal);
  seen.Add(overload);
  traced_seen.Add(traced_nominal);
  traced_seen.Add(traced_overload);
  CheckAccounting(registry, seen, "untraced", report);
  if (options.trace) {
    CheckAccounting(traced_registry, traced_seen, "traced", report);
  }
  uint64_t publish_failures = 0;
  for (const PhaseResult* phase : all_phases) {
    publish_failures += phase->publish_failures;
  }
  // A request failed when it errored, was cancelled, or was a nominal
  // request the model did not answer. Overload requests that are rejected
  // or answered on a lower rung are the service shedding load as designed;
  // they show in the goodput and in overload_answered_pct instead.
  uint64_t nominal_unanswered = 0;
  for (const PhaseResult* phase : nominal_phases) {
    for (const Outcome& o : phase->outcomes) {
      if (o.rejected || (o.ok && o.rung != ServeRung::kModel)) {
        ++nominal_unanswered;
      }
    }
  }
  const uint64_t errors = seen.errors + traced_seen.errors;
  report.attempted = seen.submitted + traced_seen.submitted;
  report.failed =
      errors + seen.cancelled + traced_seen.cancelled + nominal_unanswered;
  report.Check(errors == 0, std::to_string(errors) + " requests errored");
  report.Check(publish_failures == 0, "a snapshot republish failed");
  // Nominal requests carry no deadline, so each must be answered by the
  // model itself.
  bool nominal_by_model = true;
  for (const PhaseResult* phase : nominal_phases) {
    for (const Outcome& o : phase->outcomes) {
      nominal_by_model = nominal_by_model &&
                         (o.rejected || o.rung == ServeRung::kModel);
    }
  }
  report.Check(nominal_by_model,
               "a nominal request was not answered by the model");

  // Every model-rung (and cached) ranking equals a direct ScoreLineage on
  // the same key against the same snapshot. Answers are grouped per key:
  // all answers of one key must agree, and one direct score per key checks
  // the group.
  std::map<size_t, std::vector<const RankedTuple*>> by_key;
  for (const PhaseResult* phase : all_phases) {
    for (const Outcome& o : phase->outcomes) {
      if (GoodAnswer(o)) by_key[o.key].push_back(&o.ranked);
    }
  }
  std::vector<size_t> answered;
  for (const auto& [k, v] : by_key) answered.push_back(k);
  std::vector<char> key_ok(answered.size(), 0);
  ParallelFor(threads, answered.size(), [&](size_t i) {
    const Key& key = pool[answered[i]];
    const ShapleyValues direct =
        ranker->ScoreLineage(*db, key.query, key.tuple, key.lineage);
    const std::vector<FactId> order = RankByScore(direct);
    bool ok = true;
    for (const RankedTuple* rt : by_key.at(answered[i])) {
      ok = ok && rt->ranking == order && rt->scores.size() == order.size();
      for (size_t j = 0; ok && j < order.size(); ++j) {
        ok = rt->scores[j] == direct.at(order[j]);
      }
    }
    key_ok[i] = ok;
  });
  const size_t bad_keys =
      static_cast<size_t>(std::count(key_ok.begin(), key_ok.end(), 0));
  report.Check(bad_keys == 0, std::to_string(bad_keys) +
                                  " keys were served a ranking that differs "
                                  "from a direct ScoreLineage");

  // Gated figures, over the untraced windows.
  const WindowFigures figures = Summarize(nominal, overload);
  const WindowFigures traced_figures =
      Summarize(traced_nominal, traced_overload);
  size_t facts_scored = 0, nominal_requests = 0, overload_requests = 0;
  std::vector<size_t> distinct;
  for (const PhaseResult* phase : all_phases) {
    const bool is_nominal =
        std::find(nominal_phases.begin(), nominal_phases.end(), phase) !=
        nominal_phases.end();
    (is_nominal ? nominal_requests : overload_requests) +=
        phase->outcomes.size();
    for (const Outcome& o : phase->outcomes) {
      if (!is_nominal) continue;
      facts_scored += pool[o.key].lineage.size();
      distinct.push_back(o.key);
    }
  }
  std::sort(distinct.begin(), distinct.end());
  size_t pool_facts = 0;
  for (const Key& k : pool) pool_facts += k.lineage.size();
  report.Count("pool_lineage_facts", static_cast<double>(pool_facts));
  report.Count("requests_nominal", static_cast<double>(nominal_requests));
  report.Count("requests_overload", static_cast<double>(overload_requests));
  report.Count("facts_scored_nominal", static_cast<double>(facts_scored));
  report.Count("distinct_keys_nominal",
               static_cast<double>(
                   std::unique(distinct.begin(), distinct.end()) -
                   distinct.begin()));

  report.Detail("serve_p50_ms", figures.p50_ms, "ms");
  report.Detail("serve_p99_ms", figures.p99_ms, "ms");
  report.Detail("serve_goodput_rps", figures.goodput_rps, "req/s");
  report.Detail("nominal_samples", static_cast<double>(figures.samples),
                "count");
  report.Detail("overload_answered_pct", figures.answered_pct, "%");
  report.Detail("generator_lag_ms_max", figures.max_lag_ms, "ms");

  if (!options.trace) {
    AddEndToEnd(report, Median(setup_times), peak_rss_mb, figures.goodput_rps,
                figures.p50_ms);
    return report;
  }

  // Per-layer metrics from the traced windows' responses, the traced
  // service's counters, and direct calls into the layers on the key pool.
  std::vector<double> queue_ms, serve_ms, publish_ms;
  uint64_t overload_cached = 0, overload_answered = 0;
  for (const auto* phases : {&traced_nominal, &traced_overload}) {
    for (const PhaseResult& phase : *phases) {
      publish_ms.insert(publish_ms.end(), phase.publish_ms.begin(),
                        phase.publish_ms.end());
      for (const Outcome& o : phase.outcomes) {
        if (o.rejected) continue;
        queue_ms.push_back(o.queue_ms);
        serve_ms.push_back(o.serve_ms);
        if (phases == &traced_overload) {
          ++overload_answered;
          if (o.rung == ServeRung::kCached) ++overload_cached;
        }
      }
    }
  }
  const std::string json = traced_registry.ToJson();
  report.Add("eval.rows_scanned",
             traced_registry.CounterValue("eval.rows_scanned"), "count");
  report.Add("eval.rows_probed",
             traced_registry.CounterValue("eval.join.rows_probed"), "count");
  report.Add("eval.output_tuples",
             traced_registry.CounterValue("eval.output_tuples"), "count");
  report.Add("serving.queue_ms.p50", Quantile(queue_ms, 0.5), "ms");
  report.Add("serving.queue_ms.p99", Quantile(queue_ms, 0.99), "ms");
  report.Add("serving.serve_ms.p50", Quantile(serve_ms, 0.5), "ms");
  report.Add("serving.serve_ms.p99", Quantile(serve_ms, 0.99), "ms");
  report.Add("serving.batch_size.mean",
             HistogramMeanFromJson(json, "serve.batch_size"), "count");
  report.Add("serving.rung.model",
             traced_registry.CounterValue("serve.rung.model"), "count");
  report.Add("serving.rung.cached",
             traced_registry.CounterValue("serve.rung.cached"), "count");
  report.Add("serving.rung.cnf_proxy",
             traced_registry.CounterValue("serve.rung.cnf_proxy"), "count");
  report.Add("serving.rung.degraded",
             traced_registry.CounterValue("serve.rung.degraded"), "count");
  report.Add("serving.rejected", static_cast<double>(traced_seen.rejected),
             "count");
  report.Add("serving.cache_hit_pct",
             overload_answered > 0
                 ? 100.0 * static_cast<double>(overload_cached) /
                       static_cast<double>(overload_answered)
                 : 0.0,
             "%");
  report.Add("serving.publish_ms", Median(publish_ms), "ms");
  report.Add("serving.generator_lag_ms.max",
             std::max(figures.max_lag_ms, traced_figures.max_lag_ms), "ms");
  report.Add("trace.overhead_pct",
             figures.p50_ms > 0 ? (traced_figures.p50_ms - figures.p50_ms) /
                                      figures.p50_ms * 100.0
                                : 0.0,
             "%");
  // Evaluate as the service runs it (full provenance), on the pool's
  // queries in Zipf-rank order.
  std::vector<double> query_ms;
  for (size_t i = 0; i < std::min<size_t>(kMinLatencySamples, pool.size());
       ++i) {
    const double s0 = tracer.Now();
    const Clock::time_point t0 = Clock::now();
    auto result = Evaluate(*db, pool[i].query);
    query_ms.push_back(SecondsSince(t0) * 1e3);
    tracer.Record("Evaluate", "eval", s0, tracer.Now());
    report.Check(result.ok(), "Evaluate failed on a pool query");
  }
  report.Add("eval.query_ms.p50", Quantile(query_ms, 0.5), "ms");
  report.Add("eval.query_ms.p99", Quantile(query_ms, 0.99), "ms");
  std::vector<LineageKey> keys;
  for (const Key& k : pool) keys.push_back({&k.query, &k.tuple, k.lineage});
  ProbeRanker(*db, *ranker, keys, report, tracer);
  return report;
}

}  // namespace perfbench
}  // namespace lshap
