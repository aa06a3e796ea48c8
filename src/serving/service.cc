#include "serving/service.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "common/strings.h"
#include "corpus/format.h"
#include "eval/evaluator.h"
#include "shapley/ladder.h"

namespace lshap {

namespace {

std::chrono::steady_clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

RankedTuple MakeRanked(const OutputTuple& t, const ShapleyValues& scores) {
  RankedTuple rt;
  rt.tuple = t;
  rt.ranking = RankByScore(scores);
  rt.scores.reserve(rt.ranking.size());
  for (FactId f : rt.ranking) rt.scores.push_back(scores.at(f));
  return rt;
}

}  // namespace

const char* ServeRungName(ServeRung rung) {
  static constexpr const char* kNames[] = {"model", "cached", "stratified",
                                           "cnf_proxy", "degraded"};
  const auto i = static_cast<size_t>(rung);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

RankingService::RankingService(ServiceConfig config)
    : config_(std::move(config)) {
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.batch_max == 0) config_.batch_max = 1;
  cache_ = std::make_unique<RankingCache>(config_.cache_capacity,
                                          config_.cache_shards);
  MetricsRegistry* m = config_.metrics;
  submitted_ = CounterFor(m, "serve.submitted");
  admitted_ = CounterFor(m, "serve.admitted");
  completed_ = CounterFor(m, "serve.completed");
  errors_ = CounterFor(m, "serve.errors");
  cancelled_ = CounterFor(m, "serve.cancelled");
  rejected_queue_full_ = CounterFor(m, "serve.rejected.queue_full");
  rejected_backlog_ = CounterFor(m, "serve.rejected.backlog");
  rejected_deadline_ = CounterFor(m, "serve.rejected.deadline");
  rejected_no_snapshot_ = CounterFor(m, "serve.rejected.no_snapshot");
  rejected_fault_ = CounterFor(m, "serve.rejected.fault");
  rejected_shutdown_ = CounterFor(m, "serve.rejected.shutdown");
  for (size_t r = 0; r < std::size(rung_); ++r) {
    rung_[r] = CounterFor(m, std::string("serve.rung.") +
                                 ServeRungName(static_cast<ServeRung>(r)));
  }
  queue_seconds_ =
      HistogramFor(m, "serve.queue_seconds", ExponentialBuckets(1e-6, 4.0, 14));
  latency_seconds_ = HistogramFor(m, "serve.latency_seconds",
                                  ExponentialBuckets(1e-6, 4.0, 14));
  batch_size_ =
      HistogramFor(m, "serve.batch_size", ExponentialBuckets(1.0, 2.0, 8));
  workers_.reserve(config_.num_workers);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

RankingService::~RankingService() { Shutdown(); }

Result<uint64_t> RankingService::Publish(
    std::shared_ptr<const Database> db,
    std::shared_ptr<const LearnShapleyRanker> ranker) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  if (!db->string_order_fresh()) {
    return Status::FailedPrecondition(
        "database must be frozen (FreezeStringOrder) before it is published "
        "as an immutable snapshot");
  }
  return slot_.Publish(std::move(db), std::move(ranker));
}

Result<std::future<RankResponse>> RankingService::Submit(RankRequest request) {
  submitted_.Inc();
  if (config_.fault != nullptr) {
    Status injected = config_.fault->OnSite(kSiteServeAdmission);
    if (!injected.ok()) {
      rejected_fault_.Inc();
      return injected;
    }
  }
  if (slot_.epoch() == 0) {
    rejected_no_snapshot_.Inc();
    return Status::FailedPrecondition(
        "no snapshot published — the service has nothing to serve");
  }
  // Up-front deadline rejection: a request that cannot even cover the
  // service floor would only waste a queue slot before timing out.
  if (request.deadline_seconds > 0.0 &&
      request.deadline_seconds < config_.est_request_seconds) {
    rejected_deadline_.Inc();
    return Status::ResourceExhausted(StrFormat(
        "deadline %.6fs is below the service floor of %.6fs — rejected "
        "up front",
        request.deadline_seconds, config_.est_request_seconds));
  }

  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->enqueued = Clock::now();
  if (pending->request.deadline_seconds > 0.0) {
    pending->has_deadline = true;
    pending->deadline =
        pending->enqueued + ToDuration(pending->request.deadline_seconds);
  }
  // The budget starts at admission, so time spent queued consumes the
  // request's deadline exactly like time spent computing.
  pending->budget = std::make_unique<ExecutionBudget>(
      ExecutionBudget::Limits{pending->request.deadline_seconds,
                              pending->request.max_work_units},
      nullptr, config_.fault);
  std::future<RankResponse> future = pending->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopped_) {
      rejected_shutdown_.Inc();
      return Status::FailedPrecondition("service is shut down");
    }
    if (queue_.size() >= config_.queue_capacity) {
      rejected_queue_full_.Inc();
      return Status::ResourceExhausted(
          StrFormat("admission queue full (%zu requests)", queue_.size()));
    }
    const double backlog =
        static_cast<double>(queue_.size()) * config_.est_request_seconds;
    if (backlog > config_.max_backlog_seconds ||
        (pending->has_deadline &&
         backlog + config_.est_request_seconds >
             pending->request.deadline_seconds)) {
      rejected_backlog_.Inc();
      return Status::ResourceExhausted(StrFormat(
          "estimated backlog %.6fs exceeds the admission bound "
          "(max backlog %.6fs, request deadline %.6fs)",
          backlog, config_.max_backlog_seconds,
          pending->request.deadline_seconds));
    }
    queue_.push_back(std::move(pending));
  }
  admitted_.Inc();
  queue_cv_.notify_one();
  return future;
}

RankResponse RankingService::Rank(RankRequest request) {
  auto future = Submit(std::move(request));
  if (!future.ok()) {
    RankResponse response;
    response.status = future.status();
    return response;
  }
  if (config_.num_workers == 0) PumpAll();
  return future->get();
}

size_t RankingService::PumpAll() {
  std::lock_guard<std::mutex> pump_lock(pump_mu_);
  size_t processed = 0;
  while (true) {
    auto batch = CollectBatch(/*blocking=*/false);
    if (batch.empty()) break;
    processed += batch.size();
    ProcessBatch(batch);
  }
  return processed;
}

void RankingService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopped_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  std::deque<std::unique_ptr<Pending>> remaining;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    remaining.swap(queue_);
  }
  // Never drop silently: every admitted request gets a terminal response.
  for (auto& pending : remaining) {
    RankResponse response;
    response.status =
        Status::Cancelled("service shut down before the request was served");
    cancelled_.Inc();
    pending->promise.set_value(std::move(response));
  }
}

size_t RankingService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

void RankingService::WorkerLoop() {
  while (true) {
    auto batch = CollectBatch(/*blocking=*/true);
    if (batch.empty()) return;  // only happens at shutdown
    ProcessBatch(batch);
  }
}

std::vector<std::unique_ptr<RankingService::Pending>>
RankingService::CollectBatch(bool blocking) {
  std::vector<std::unique_ptr<Pending>> batch;
  std::unique_lock<std::mutex> lock(queue_mu_);
  if (blocking) {
    queue_cv_.wait(lock, [&] { return stopped_ || !queue_.empty(); });
    // On stop, leave queued requests to Shutdown's kCancelled drain.
    if (stopped_) return batch;
  }
  if (queue_.empty()) return batch;
  auto take = [&] {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  };
  take();
  // Flush deadline: the batch window, tightened to the most urgent
  // request's absolute deadline — a batch never holds a request past the
  // point where serving it is still possible.
  Clock::time_point flush =
      Clock::now() + ToDuration(config_.batch_window_seconds);
  auto tighten = [&] {
    const Pending& p = *batch.back();
    if (p.has_deadline && p.deadline < flush) flush = p.deadline;
  };
  tighten();
  while (batch.size() < config_.batch_max) {
    if (!queue_.empty()) {
      take();
      tighten();
      continue;
    }
    if (!blocking || stopped_) break;
    if (!queue_cv_.wait_until(lock, flush,
                              [&] { return stopped_ || !queue_.empty(); })) {
      break;  // flush deadline reached with no new work
    }
    if (stopped_) break;
  }
  return batch;
}

void RankingService::ProcessBatch(
    std::vector<std::unique_ptr<Pending>>& batch) {
  SnapshotHandle snapshot = slot_.Acquire();
  batch_size_.Observe(static_cast<double>(batch.size()));
  // Scoring is const and scratch-free (per-thread workspaces inside the
  // ranker), so every worker ranks through the snapshot's shared instance.
  const LearnShapleyRanker* ranker =
      snapshot != nullptr ? snapshot->ranker.get() : nullptr;
  for (auto& pending : batch) {
    const Clock::time_point started = Clock::now();
    RankResponse response;
    if (snapshot == nullptr) {
      response.status =
          Status::FailedPrecondition("no snapshot published");
    } else {
      response = Process(*pending, *snapshot, ranker);
    }
    FinishResponse(*pending, std::move(response), started);
  }
}

RankResponse RankingService::Process(Pending& pending,
                                     const DatabaseSnapshot& snapshot,
                                     const LearnShapleyRanker* ranker) {
  RankResponse response;
  response.epoch = snapshot.epoch;
  const RankRequest& request = pending.request;
  ExecutionBudget& budget = *pending.budget;

  // Stage 1: snapshot lookup. A fault or an expired-in-queue deadline
  // trips the budget here and the request enters the ladder already
  // degraded (model rung infeasible, cache still reachable).
  (void)budget.Check(kSiteServeSnapshot);

  auto site_ok = [&](const char* site) {
    return config_.fault == nullptr || config_.fault->OnSite(site).ok();
  };
  const bool want_cache = config_.cache_capacity > 0 &&
                          request.kind == RequestKind::kRankTuple;
  std::string cache_key;
  if (want_cache) {
    cache_key = RankingCache::Key(snapshot.db_fingerprint, request.query,
                                  request.tuple);
  }

  // Stage 2: evaluation, run lazily by the first rung that needs it. kFull
  // capture keeps the provenance the estimator rungs need. Budget trips
  // make eval "unavailable"; evaluator errors and a kRankTuple tuple absent
  // from the output are fatal (no rung can fix them). `inputs` holds the
  // ranked output tuples' provenances, each streamed by its output index.
  std::optional<EvalResult> eval;
  std::vector<LadderInput> inputs;
  Status fatal;
  bool eval_tried = false;
  auto ensure_eval = [&]() -> bool {
    if (eval_tried) return eval.has_value() && fatal.ok();
    eval_tried = true;
    if (!budget.Check(kSiteServeEval).ok()) return false;
    auto result = Evaluate(*snapshot.db, request.query,
                           EvalOptions().WithMetrics(config_.metrics));
    if (!result.ok()) {
      fatal = result.status();
      return false;
    }
    eval = std::move(*result);
    // Sticky post-eval check: an evaluation that overran the deadline trips
    // the budget, steering the budgeted rungs away; the result stays usable
    // by the proxy rung, so eval still counts as available.
    (void)budget.Check(kSiteServeEval);
    auto add = [&](size_t i) {
      inputs.push_back({&eval->ProvenanceOf(i), i});
    };
    if (request.kind == RequestKind::kRankTuple) {
      auto it = eval->index.find(request.tuple);
      if (it == eval->index.end()) {
        fatal = Status::NotFound("tuple is not in the query's output");
        return false;
      }
      add(it->second);
    } else {
      const size_t n =
          std::min(eval->tuples.size(), config_.max_explain_outputs);
      for (size_t i = 0; i < n; ++i) add(i);
    }
    return true;
  };

  // Rung 1: full model rank — only with a ranker, an untripped budget,
  // and enough deadline left to plausibly finish a forward pass.
  if (ranker != nullptr && !budget.tripped() &&
      budget.RemainingSeconds() >= config_.est_model_seconds &&
      ensure_eval()) {
    std::vector<RankedTuple> results;
    results.reserve(inputs.size());
    for (const LadderInput& in : inputs) {
      const size_t i = in.stream;
      auto scores = ranker->ScoreLineageBudgeted(
          *snapshot.db, request.query, eval->tuples[i], eval->lineages[i],
          budget);
      if (!scores.ok()) break;  // budget tripped mid-lineage: degrade
      results.push_back(MakeRanked(eval->tuples[i], *scores));
    }
    if (results.size() == inputs.size()) {
      if (config_.cache_capacity > 0) {
        for (const RankedTuple& rt : results) {
          CachedRanking cached;
          cached.scores.reserve(rt.ranking.size());
          for (size_t j = 0; j < rt.ranking.size(); ++j) {
            cached.scores.emplace_back(rt.ranking[j], rt.scores[j]);
          }
          cache_->Put(want_cache
                          ? cache_key
                          : RankingCache::Key(snapshot.db_fingerprint,
                                              request.query, rt.tuple),
                      std::move(cached));
        }
      }
      response.rung = ServeRung::kModel;
      response.results = std::move(results);
      return response;
    }
  }
  if (!fatal.ok()) {
    response.status = fatal;
    return response;
  }

  // Rung 2: cached result. Reachable even with a tripped budget — a
  // sharded-LRU probe is the cheapest thing the service can still do for
  // an almost-expired request.
  if (want_cache) {
    CachedRanking cached;
    if (site_ok(kSiteServeCache) && cache_->Get(cache_key, &cached)) {
      RankedTuple rt;
      rt.tuple = request.tuple;
      rt.ranking.reserve(cached.scores.size());
      rt.scores.reserve(cached.scores.size());
      for (const auto& [f, s] : cached.scores) {
        rt.ranking.push_back(f);
        rt.scores.push_back(s);
      }
      response.rung = ServeRung::kCached;
      response.results.push_back(std::move(rt));
      return response;
    }
  }

  // Rungs 3-4: the estimator ladder (shapley/ladder.h), all-or-nothing
  // across the ranked tuples and seeded per (snapshot, query, output
  // index), so a request scores identically on every replay.
  //  - Stratified MC (opt-in): needs an untripped budget with
  //    est_stratified_seconds left, and charges it, so a mid-rung trip
  //    falls through to the proxy.
  //  - CNF proxy: polynomial, so unbudgeted, over provenance already in hand
  //    (a model rung that tripped mid-scoring left a usable eval) or
  //    evaluated now if the deadline has not yet passed.
  ExecutionBudget unlimited = ExecutionBudget::Unlimited();
  const LadderResult ladder = RunLadder(
      *snapshot.db,
      {{EstimatorRung::kStratified, config_.stratified_samples},
       {EstimatorRung::kCnfProxy}},
      snapshot.db_fingerprint ^
          FnvChecksum(request.query.id.data(), request.query.id.size()),
      inputs, [&](EstimatorRung rung) -> ExecutionBudget* {
        if (!fatal.ok()) return nullptr;
        if (rung == EstimatorRung::kStratified) {
          const bool feasible =
              !budget.tripped() &&
              budget.RemainingSeconds() >= config_.est_stratified_seconds;
          return feasible && site_ok(kSiteServeStratified) && ensure_eval()
                     ? &budget
                     : nullptr;
        }
        if (!site_ok(kSiteServeProxy)) return nullptr;
        const bool have_eval =
            eval.has_value() || (!budget.tripped() &&
                                 budget.RemainingSeconds() > 0.0 &&
                                 ensure_eval());
        return have_eval ? &unlimited : nullptr;
      });
  if (!fatal.ok()) {
    response.status = fatal;
    return response;
  }
  if (ladder.rung.has_value()) {
    response.rung = *ladder.rung == EstimatorRung::kStratified
                        ? ServeRung::kStratified
                        : ServeRung::kCnfProxy;
    for (size_t k = 0; k < inputs.size(); ++k) {
      response.results.push_back(
          MakeRanked(eval->tuples[inputs[k].stream], ladder.values[k]));
    }
    return response;
  }

  // Rung 5: explicit degradation — an honest empty answer instead of a
  // timeout, unless the client opted out.
  if (request.allow_degraded) {
    response.rung = ServeRung::kDegraded;
    return response;
  }
  response.status = budget.tripped()
                        ? budget.trip_status()
                        : Status::ResourceExhausted(
                              "no rung feasible within the request budget");
  return response;
}

void RankingService::FinishResponse(Pending& pending, RankResponse response,
                                    Clock::time_point started) {
  const Clock::time_point now = Clock::now();
  response.queue_seconds = Seconds(started - pending.enqueued);
  response.serve_seconds = Seconds(now - started);
  queue_seconds_.Observe(response.queue_seconds);
  latency_seconds_.Observe(Seconds(now - pending.enqueued));
  completed_.Inc();
  if (!response.status.ok()) {
    errors_.Inc();
  } else {
    rung_[static_cast<size_t>(response.rung)].Inc();
  }
  pending.promise.set_value(std::move(response));
}

}  // namespace lshap
