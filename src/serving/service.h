#ifndef LSHAP_SERVING_SERVICE_H_
#define LSHAP_SERVING_SERVICE_H_

// The resilient ranking service (DESIGN.md §11): serves concurrent
// RankTuple / ExplainQuery requests over an immutable DatabaseSnapshot,
// with admission control, per-request deadline propagation, micro-batched
// scoring, and a per-request graceful-degradation ladder
//
//   kModel       full ranker forward pass over the tuple's lineage
//   kCached      interned-key sharded LRU of (snapshot, query, tuple) results
//   kStratified  relation-stratified MC Shapley over the tuple's provenance
//                (opt-in via stratified_samples; off by default)
//   kCnfProxy    CNF clause-counting heuristic over the tuple's provenance
//   kDegraded    explicit "no ranking computed" response — never a timeout
//
// Every terminal outcome is accounted: a submitted request is either
// rejected at admission (kResourceExhausted, caller never blocked),
// completed with a response recording the rung taken, or — at shutdown —
// completed with kCancelled. Nothing is silently dropped.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/metrics.h"
#include "serving/cache.h"
#include "serving/snapshot.h"

namespace lshap {

// Budget/fault sites in the serving path. kSiteServeAdmission and
// kSiteServeSnapshot/Eval are polled through each request's
// ExecutionBudget (so an injected fault trips the budget stickily);
// kSiteServeCache and kSiteServeProxy are polled directly on the fault
// injector, because those rungs must stay reachable after a budget trip —
// they are what a tripped request degrades to.
inline constexpr char kSiteServeAdmission[] = "serve.admission";
inline constexpr char kSiteServeSnapshot[] = "serve.snapshot";
inline constexpr char kSiteServeEval[] = "serve.eval";
inline constexpr char kSiteServeCache[] = "serve.cache";
inline constexpr char kSiteServeStratified[] = "serve.stratified";
inline constexpr char kSiteServeProxy[] = "serve.proxy";

// Degradation-ladder rung recorded in every OK response.
enum class ServeRung {
  kModel = 0,
  kCached = 1,
  kStratified = 2,
  kCnfProxy = 3,
  kDegraded = 4,
};
const char* ServeRungName(ServeRung rung);

enum class RequestKind {
  kRankTuple = 0,     // rank one output tuple's lineage facts
  kExplainQuery = 1,  // rank lineages of the query's first N output tuples
};

// One client request. A deadline <= 0 means none; max_work_units 0 means
// uncapped (work units are charged per scored lineage fact).
struct RankRequest {
  RequestKind kind = RequestKind::kRankTuple;
  Query query;
  OutputTuple tuple;  // kRankTuple only
  double deadline_seconds = 0.0;
  uint64_t max_work_units = 0;
  // When false, a request that cannot reach any computing rung fails with
  // the budget's trip status instead of returning a kDegraded response.
  bool allow_degraded = true;
};

// One ranked output tuple: facts in descending contribution order with the
// scores that ordered them (all zero is impossible — degraded responses
// carry no RankedTuple at all).
struct RankedTuple {
  OutputTuple tuple;
  std::vector<FactId> ranking;
  std::vector<double> scores;  // aligned with `ranking`
};

struct RankResponse {
  Status status;               // non-OK: eval error, not-found, cancelled…
  uint64_t epoch = 0;          // snapshot version that served the request
  ServeRung rung = ServeRung::kDegraded;
  std::vector<RankedTuple> results;  // empty on kDegraded / non-OK
  double queue_seconds = 0.0;  // admission → processing start
  double serve_seconds = 0.0;  // processing start → response
};

// Service tuning. Defaults follow the repo's options-builder convention:
// every knob has a chainable With* setter, and the defaults serve a small
// snapshot sensibly.
struct ServiceConfig {
  // Worker threads consuming the queue. 0 = manual mode: nothing runs
  // until PumpAll() drains the queue on the calling thread — what the
  // deterministic unit tests use (no sleeps-as-synchronization).
  size_t num_workers = 0;
  // Admission control: hard queue-depth bound, and an estimated-backlog
  // bound (queue_depth * est_request_seconds must stay under
  // max_backlog_seconds). Both reject with kResourceExhausted, never block.
  size_t queue_capacity = 256;
  double max_backlog_seconds = 0.5;
  // Up-front estimates driving admission and rung feasibility: a request
  // whose deadline is below est_request_seconds is rejected immediately;
  // the model rung is only attempted with at least est_model_seconds of
  // deadline remaining.
  double est_request_seconds = 1e-3;
  double est_model_seconds = 5e-3;
  // Micro-batching: a worker coalesces up to batch_max requests, flushing
  // at the tightest in-batch deadline or after batch_window_seconds,
  // whichever comes first.
  size_t batch_max = 8;
  double batch_window_seconds = 1e-3;
  // kCached rung: total entries across shards; 0 disables the cache.
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;
  // kStratified rung: per-fact sample budget for the relation-stratified
  // MC estimate tried between the cache and the CNF proxy. 0 (the
  // default) disables the rung, preserving the historical ladder. Only
  // attempted with an untripped budget and at least est_stratified_seconds
  // of deadline remaining; its samples charge the request's budget, so a
  // mid-rung trip degrades to the proxy.
  size_t stratified_samples = 0;
  double est_stratified_seconds = 2e-3;
  // kExplainQuery ranks at most this many output tuples.
  size_t max_explain_outputs = 16;
  FaultInjector* fault = nullptr;     // chaos hooks at every serve.* site
  MetricsRegistry* metrics = nullptr; // serve.* counters and histograms

  ServiceConfig& WithWorkers(size_t n) { num_workers = n; return *this; }
  ServiceConfig& WithQueueCapacity(size_t n) { queue_capacity = n; return *this; }
  ServiceConfig& WithMaxBacklogSeconds(double s) { max_backlog_seconds = s; return *this; }
  ServiceConfig& WithEstRequestSeconds(double s) { est_request_seconds = s; return *this; }
  ServiceConfig& WithEstModelSeconds(double s) { est_model_seconds = s; return *this; }
  ServiceConfig& WithBatchMax(size_t n) { batch_max = n; return *this; }
  ServiceConfig& WithBatchWindowSeconds(double s) { batch_window_seconds = s; return *this; }
  ServiceConfig& WithCacheCapacity(size_t n) { cache_capacity = n; return *this; }
  ServiceConfig& WithCacheShards(size_t n) { cache_shards = n; return *this; }
  ServiceConfig& WithStratifiedSamples(size_t n) { stratified_samples = n; return *this; }
  ServiceConfig& WithEstStratifiedSeconds(double s) { est_stratified_seconds = s; return *this; }
  ServiceConfig& WithMaxExplainOutputs(size_t n) { max_explain_outputs = n; return *this; }
  ServiceConfig& WithFault(FaultInjector* f) { fault = f; return *this; }
  ServiceConfig& WithMetrics(MetricsRegistry* m) { metrics = m; return *this; }
};

// The service. Thread-safe throughout: Submit/Rank may be called from any
// number of client threads while Publish installs new snapshots and
// workers drain the queue. Scoring goes through the snapshot's shared
// const ranker directly: LearnShapleyRanker's scoring path is const and
// scratch-free (per-thread inference workspaces), so no per-worker clones
// are needed.
class RankingService {
 public:
  explicit RankingService(ServiceConfig config);
  ~RankingService();  // implies Shutdown()

  RankingService(const RankingService&) = delete;
  RankingService& operator=(const RankingService&) = delete;

  // Installs a new serving version and returns its epoch. `db` must be
  // frozen (string_order_fresh); `ranker` may be null (the service then
  // tops out at the kCnfProxy rung). Never blocks in-flight requests:
  // they finish on the snapshot they acquired.
  Result<uint64_t> Publish(std::shared_ptr<const Database> db,
                           std::shared_ptr<const LearnShapleyRanker> ranker);

  SnapshotHandle CurrentSnapshot() const { return slot_.Acquire(); }
  uint64_t epoch() const { return slot_.epoch(); }

  // Admission-controlled enqueue. Errors (admission rejections) return
  // immediately without a future; an accepted request's future is always
  // eventually fulfilled (response, or kCancelled at shutdown).
  Result<std::future<RankResponse>> Submit(RankRequest request);

  // Submit + wait. In manual mode (num_workers == 0) this pumps the queue
  // on the calling thread, so it never deadlocks.
  RankResponse Rank(RankRequest request);

  // Manual mode: drains and processes every queued request on the calling
  // thread (micro-batched exactly like a worker, minus the waiting).
  // Returns the number of requests processed.
  size_t PumpAll();

  // Stops workers and fails every still-queued request with kCancelled.
  // Idempotent.
  void Shutdown();

  size_t queue_depth() const;
  const RankingCache& cache() const { return *cache_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    RankRequest request;
    std::promise<RankResponse> promise;
    Clock::time_point enqueued;
    bool has_deadline = false;
    Clock::time_point deadline{};  // absolute, when has_deadline
    std::unique_ptr<ExecutionBudget> budget;
  };

  void WorkerLoop();
  // Pops one micro-batch. `blocking` (worker mode) waits for work and
  // holds the batch open until the flush deadline; non-blocking (pump)
  // takes what is queued right now.
  std::vector<std::unique_ptr<Pending>> CollectBatch(bool blocking);
  void ProcessBatch(std::vector<std::unique_ptr<Pending>>& batch);
  RankResponse Process(Pending& pending, const DatabaseSnapshot& snapshot,
                       const LearnShapleyRanker* ranker);
  void FinishResponse(Pending& pending, RankResponse response,
                      Clock::time_point started);

  ServiceConfig config_;
  SnapshotSlot slot_;
  std::unique_ptr<RankingCache> cache_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Pending>> queue_;
  bool stopped_ = false;

  std::vector<std::thread> workers_;
  std::mutex pump_mu_;  // serializes PumpAll callers

  // serve.* instrumentation (no-op handles when metrics is null).
  Counter submitted_, admitted_, completed_, errors_, cancelled_;
  Counter rejected_queue_full_, rejected_backlog_, rejected_deadline_,
      rejected_no_snapshot_, rejected_fault_, rejected_shutdown_;
  Counter rung_[static_cast<size_t>(ServeRung::kDegraded) + 1];  // by rung
  Histogram queue_seconds_, latency_seconds_, batch_size_;
};

}  // namespace lshap

#endif  // LSHAP_SERVING_SERVICE_H_
