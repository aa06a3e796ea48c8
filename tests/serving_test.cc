#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "eval/evaluator.h"
#include "ml/encoder.h"
#include "paper_fixture.h"
#include "serving/cache.h"
#include "serving/service.h"
#include "serving/snapshot.h"
#include "shapley/shapley.h"

namespace lshap {
namespace {

// A structurally valid but untrained ranker: random weights produce
// arbitrary scores, which is all the serving-path tests need (they assert
// rungs, accounting and shapes, never ranking quality).
std::shared_ptr<const LearnShapleyRanker> MakeUntrainedRanker() {
  auto vocab = std::make_shared<Vocab>();
  EncoderConfig cfg;
  cfg.vocab_size = vocab->size();
  cfg.max_len = 64;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_dim = 32;
  LearnShapleyModel model(cfg, /*seed=*/7);
  return std::make_shared<const LearnShapleyRanker>(
      std::move(model), vocab, cfg.max_len, /*shapley_scale=*/1000.0f,
      "untrained");
}

std::shared_ptr<const Database> MakeFrozenPaperDb(PaperExample* ex) {
  *ex = MakePaperExample();
  ex->db->FreezeStringOrder();
  return std::shared_ptr<const Database>(std::move(ex->db));
}

class ServingTest : public ::testing::Test {
 protected:
  ServingTest() : db_(MakeFrozenPaperDb(&ex_)) {}

  RankRequest AliceRequest() const {
    RankRequest req;
    req.kind = RequestKind::kRankTuple;
    req.query = ex_.q_inf;
    req.tuple = {Value("Alice")};
    return req;
  }

  PaperExample ex_;
  std::shared_ptr<const Database> db_;
};

// ---------------------------------------------------------------------------
// Snapshot slot

TEST_F(ServingTest, SnapshotEpochsStartAtOneAndAdvance) {
  SnapshotSlot slot;
  EXPECT_EQ(slot.epoch(), 0u);
  EXPECT_EQ(slot.Acquire(), nullptr);
  EXPECT_EQ(slot.Publish(db_, nullptr), 1u);
  EXPECT_EQ(slot.epoch(), 1u);
  SnapshotHandle h = slot.Acquire();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->epoch, 1u);
  EXPECT_EQ(h->db.get(), db_.get());
}

TEST_F(ServingTest, OldSnapshotHandleStaysValidAcrossSwap) {
  RankingService svc{ServiceConfig{}};
  ASSERT_TRUE(svc.Publish(db_, nullptr).ok());
  SnapshotHandle old = svc.CurrentSnapshot();
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->epoch, 1u);

  PaperExample ex2;
  std::shared_ptr<const Database> db2 = MakeFrozenPaperDb(&ex2);
  ASSERT_TRUE(svc.Publish(db2, nullptr).ok());
  EXPECT_EQ(svc.epoch(), 2u);
  EXPECT_EQ(svc.CurrentSnapshot()->epoch, 2u);

  // The old epoch's database is still fully evaluable through the handle an
  // in-flight request would hold.
  EXPECT_EQ(old->epoch, 1u);
  auto result = Evaluate(*old->db, ex_.q_inf);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 2u);

  // New requests are served at the new epoch.
  RankResponse resp = svc.Rank(AliceRequest());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.epoch, 2u);
}

TEST_F(ServingTest, PublishRejectsUnfrozenDatabase) {
  RankingService svc{ServiceConfig{}};
  auto unfrozen = std::make_shared<Database>("unfrozen");
  ASSERT_TRUE(unfrozen
                  ->AddTable(Schema("t", {{"name", ColumnType::kString}}))
                  .ok());
  ASSERT_TRUE(unfrozen->Insert("t", {Value("x")}).ok());  // pool not frozen
  auto r = svc.Publish(std::shared_ptr<const Database>(unfrozen), nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Degradation ladder

TEST_F(ServingTest, ModelRungRanksFullLineage) {
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}.WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, MakeUntrainedRanker()).ok());

  RankResponse resp = svc.Rank(AliceRequest());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, ServeRung::kModel);
  ASSERT_EQ(resp.results.size(), 1u);
  // Alice's lineage in the paper example is 9 facts (Example 2.1).
  EXPECT_EQ(resp.results[0].ranking.size(), 9u);
  EXPECT_EQ(resp.results[0].scores.size(), 9u);
  for (size_t i = 1; i < resp.results[0].scores.size(); ++i) {
    EXPECT_GE(resp.results[0].scores[i - 1], resp.results[0].scores[i]);
  }
  EXPECT_EQ(metrics.CounterValue("serve.rung.model"), 1u);
  // The model rung populated the cache for this (query, tuple).
  EXPECT_GE(svc.cache().size(), 1u);
}

TEST_F(ServingTest, CacheHitRungServesWhenModelInfeasible) {
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}.WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, MakeUntrainedRanker()).ok());

  // First request (no deadline) takes the model rung and fills the cache.
  RankResponse first = svc.Rank(AliceRequest());
  ASSERT_TRUE(first.status.ok());
  ASSERT_EQ(first.rung, ServeRung::kModel);

  // Second request's deadline clears the admission floor (est_request 1ms)
  // but can never cover the model-rung estimate (est_model 5ms), so the
  // ladder steps down to the cache — and must return the same ranking.
  RankRequest tight = AliceRequest();
  tight.deadline_seconds = 2e-3;
  RankResponse second = svc.Rank(tight);
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(second.rung, ServeRung::kCached);
  ASSERT_EQ(second.results.size(), 1u);
  EXPECT_EQ(second.results[0].ranking, first.results[0].ranking);
  EXPECT_EQ(second.results[0].scores, first.results[0].scores);
  EXPECT_EQ(metrics.CounterValue("serve.rung.cached"), 1u);
  EXPECT_GE(svc.cache().hits(), 1u);
}

TEST_F(ServingTest, CnfProxyFallbackWithoutRanker) {
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}.WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  RankResponse resp = svc.Rank(AliceRequest());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, ServeRung::kCnfProxy);
  ASSERT_EQ(resp.results.size(), 1u);
  EXPECT_EQ(resp.results[0].ranking.size(), 9u);
  EXPECT_EQ(metrics.CounterValue("serve.rung.cnf_proxy"), 1u);
}

TEST_F(ServingTest, StratifiedRungServesWhenConfiguredWithoutRanker) {
  MetricsRegistry metrics;
  RankingService svc{
      ServiceConfig{}.WithStratifiedSamples(64).WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  // No ranker published: with the rung enabled the ladder stops at the
  // stratified estimate instead of falling all the way to the CNF proxy.
  RankResponse resp = svc.Rank(AliceRequest());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, ServeRung::kStratified);
  ASSERT_EQ(resp.results.size(), 1u);
  EXPECT_EQ(resp.results[0].ranking.size(), 9u);
  EXPECT_EQ(metrics.CounterValue("serve.rung.stratified"), 1u);
  EXPECT_EQ(metrics.CounterValue("serve.rung.cnf_proxy"), 0u);

  // Seeded per (snapshot, query, tuple index): a replay scores identically.
  RankResponse again = svc.Rank(AliceRequest());
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.rung, ServeRung::kStratified);
  EXPECT_EQ(again.results[0].ranking, resp.results[0].ranking);
  EXPECT_EQ(again.results[0].scores, resp.results[0].scores);
}

TEST_F(ServingTest, StratifiedFaultFallsThroughToProxy) {
  FaultInjector fault;
  fault.FailAt(kSiteServeStratified, 0);
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}
                         .WithStratifiedSamples(64)
                         .WithFault(&fault)
                         .WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  // The stratified site is polled directly on the injector: a fault there
  // skips the rung without tripping the budget, so the proxy still answers.
  RankResponse resp = svc.Rank(AliceRequest());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, ServeRung::kCnfProxy);
  EXPECT_EQ(metrics.CounterValue("serve.rung.stratified"), 0u);
  EXPECT_EQ(metrics.CounterValue("serve.rung.cnf_proxy"), 1u);
}

// FNV-1a over every result's ranking and score bits, in response order.
uint64_t ScoresPin(const RankResponse& resp) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto word = [&h](uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(w >> (8 * i));
      h *= 0x100000001b3ull;
    }
  };
  for (const RankedTuple& rt : resp.results) {
    word(rt.ranking.size());
    for (size_t i = 0; i < rt.ranking.size(); ++i) {
      uint64_t bits;
      std::memcpy(&bits, &rt.scores[i], sizeof bits);
      word(rt.ranking[i]);
      word(bits);
    }
  }
  return h;
}

// The stratified rung's scores, recorded before the estimator ladder was
// extracted into shapley/ladder.h: the per-request seed (snapshot
// fingerprint, query id, target index) and the relation strata must not
// move.
TEST_F(ServingTest, StratifiedScoresMatchRecordedPin) {
  RankingService svc{ServiceConfig{}.WithStratifiedSamples(64)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  RankResponse tuple = svc.Rank(AliceRequest());
  ASSERT_TRUE(tuple.status.ok()) << tuple.status.ToString();
  ASSERT_EQ(tuple.rung, ServeRung::kStratified);
  EXPECT_EQ(ScoresPin(tuple), 8882975139510032311ull);

  RankRequest req;
  req.kind = RequestKind::kExplainQuery;
  req.query = ex_.q_inf;
  RankResponse explain = svc.Rank(req);
  ASSERT_TRUE(explain.status.ok()) << explain.status.ToString();
  ASSERT_EQ(explain.rung, ServeRung::kStratified);
  ASSERT_EQ(explain.results.size(), 2u);
  EXPECT_EQ(ScoresPin(explain), 10693536908551294820ull);
}

// The stratified rung is all-or-nothing over an ExplainQuery's targets: a
// work cap that covers the first target's samples but not the second's
// trips the rung mid-batch, and every target comes back from the proxy.
TEST_F(ServingTest, ExplainQueryStratifiedTripMidBatchFallsToProxy) {
  constexpr size_t kSamples = 64;  // below 2x the pilot: no pilot pass
  auto eval = Evaluate(*db_, ex_.q_inf, EvalOptions());
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  ASSERT_EQ(eval->tuples.size(), 2u);
  // One unit per marginal sample: kSamples per lineage fact.
  const uint64_t first = kSamples * eval->ProvenanceOf(0).Variables().size();
  const uint64_t second = kSamples * eval->ProvenanceOf(1).Variables().size();
  ASSERT_GT(second, 1u);

  RankingService svc{ServiceConfig{}.WithStratifiedSamples(kSamples)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());
  RankRequest req;
  req.kind = RequestKind::kExplainQuery;
  req.query = ex_.q_inf;
  req.max_work_units = first + second;
  RankResponse full = svc.Rank(req);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_EQ(full.rung, ServeRung::kStratified);

  req.max_work_units = first + second / 2;
  RankResponse resp = svc.Rank(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, ServeRung::kCnfProxy);
  ASSERT_EQ(resp.results.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const ShapleyValues proxy = ComputeCnfProxyUnlimited(eval->ProvenanceOf(i));
    const RankedTuple& rt = resp.results[i];
    EXPECT_EQ(rt.tuple, eval->tuples[i]);
    EXPECT_EQ(rt.ranking, RankByScore(proxy));
    ASSERT_EQ(rt.scores.size(), rt.ranking.size());
    for (size_t j = 0; j < rt.ranking.size(); ++j) {
      EXPECT_EQ(rt.scores[j], proxy.at(rt.ranking[j]));
    }
  }
}

TEST_F(ServingTest, DegradedResponseWhenBudgetTripsBeforeEval) {
  FaultInjector fault;
  fault.FailAt(kSiteServeSnapshot, 0);
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}.WithFault(&fault).WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  // The budget trips at the snapshot stage: model and proxy rungs are
  // unreachable, the cache is empty — the service answers honestly.
  RankResponse resp = svc.Rank(AliceRequest());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, ServeRung::kDegraded);
  EXPECT_TRUE(resp.results.empty());
  EXPECT_EQ(metrics.CounterValue("serve.rung.degraded"), 1u);
}

TEST_F(ServingTest, DegradationOptOutFailsWithTripStatus) {
  FaultInjector fault;
  fault.FailAt(kSiteServeSnapshot, 0);
  RankingService svc{ServiceConfig{}.WithFault(&fault)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  RankRequest req = AliceRequest();
  req.allow_degraded = false;
  RankResponse resp = svc.Rank(req);
  EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(resp.results.empty());
}

TEST_F(ServingTest, CacheRungStillReachableAfterBudgetTrip) {
  FaultInjector fault;
  RankingService svc{ServiceConfig{}.WithFault(&fault)};
  ASSERT_TRUE(svc.Publish(db_, MakeUntrainedRanker()).ok());

  // Warm the cache (no faults armed yet).
  RankResponse warm = svc.Rank(AliceRequest());
  ASSERT_EQ(warm.rung, ServeRung::kModel);

  // Now trip the budget at the snapshot stage: the cache must still answer.
  fault.FailAt(kSiteServeSnapshot, fault.hits(kSiteServeSnapshot));
  RankResponse resp = svc.Rank(AliceRequest());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, ServeRung::kCached);
  EXPECT_EQ(resp.results[0].ranking, warm.results[0].ranking);
}

TEST_F(ServingTest, ExplainQueryRanksEveryOutputTuple) {
  RankingService svc{ServiceConfig{}};
  ASSERT_TRUE(svc.Publish(db_, MakeUntrainedRanker()).ok());

  RankRequest req;
  req.kind = RequestKind::kExplainQuery;
  req.query = ex_.q_inf;
  RankResponse resp = svc.Rank(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.rung, ServeRung::kModel);
  EXPECT_EQ(resp.results.size(), 2u);  // q_inf outputs Alice and Bob
  for (const RankedTuple& rt : resp.results) {
    EXPECT_FALSE(rt.ranking.empty());
  }
}

TEST_F(ServingTest, UnknownTupleIsNotFound) {
  RankingService svc{ServiceConfig{}};
  ASSERT_TRUE(svc.Publish(db_, MakeUntrainedRanker()).ok());

  RankRequest req = AliceRequest();
  req.tuple = {Value("Nobody")};
  RankResponse resp = svc.Rank(req);
  EXPECT_EQ(resp.status.code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Admission control

TEST_F(ServingTest, QueueFullRejectsWithResourceExhausted) {
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}
                         .WithQueueCapacity(2)
                         .WithMaxBacklogSeconds(1e9)
                         .WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  // Manual mode: nothing drains until PumpAll, so the queue fills exactly.
  auto f1 = svc.Submit(AliceRequest());
  auto f2 = svc.Submit(AliceRequest());
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(svc.queue_depth(), 2u);

  auto f3 = svc.Submit(AliceRequest());
  ASSERT_FALSE(f3.ok());
  EXPECT_EQ(f3.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(metrics.CounterValue("serve.rejected.queue_full"), 1u);

  // The rejection never blocked, and the admitted requests still complete.
  EXPECT_EQ(svc.PumpAll(), 2u);
  EXPECT_TRUE(f1->get().status.ok());
  EXPECT_TRUE(f2->get().status.ok());
  EXPECT_EQ(metrics.CounterValue("serve.submitted"), 3u);
  EXPECT_EQ(metrics.CounterValue("serve.admitted"), 2u);
  EXPECT_EQ(metrics.CounterValue("serve.completed"), 2u);
}

TEST_F(ServingTest, BacklogBoundRejectsBeforeQueueFills) {
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}
                         .WithEstRequestSeconds(1.0)
                         .WithMaxBacklogSeconds(1.5)
                         .WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  // Requests need deadline 0 (none) to pass the floor check with est 1s.
  auto f1 = svc.Submit(AliceRequest());
  auto f2 = svc.Submit(AliceRequest());
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  // Third request sees an estimated backlog of 2 × 1.0s > 1.5s.
  auto f3 = svc.Submit(AliceRequest());
  ASSERT_FALSE(f3.ok());
  EXPECT_EQ(f3.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(metrics.CounterValue("serve.rejected.backlog"), 1u);
  svc.PumpAll();
}

TEST_F(ServingTest, DeadlineBelowServiceFloorIsRejectedUpFront) {
  MetricsRegistry metrics;
  RankingService svc{
      ServiceConfig{}.WithEstRequestSeconds(1.0).WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  RankRequest req = AliceRequest();
  req.deadline_seconds = 0.5;  // below the 1s floor — cannot possibly finish
  auto f = svc.Submit(req);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(metrics.CounterValue("serve.rejected.deadline"), 1u);
  EXPECT_EQ(svc.queue_depth(), 0u);
}

TEST_F(ServingTest, SubmitBeforePublishIsRejected) {
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}.WithMetrics(&metrics)};
  auto f = svc.Submit(AliceRequest());
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(metrics.CounterValue("serve.rejected.no_snapshot"), 1u);
}

TEST_F(ServingTest, AdmissionFaultRejectsCleanly) {
  FaultInjector fault;
  fault.FailAt(kSiteServeAdmission, 0);
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}.WithFault(&fault).WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  auto f = svc.Submit(AliceRequest());
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(metrics.CounterValue("serve.rejected.fault"), 1u);
  // The next request (hit 1, unarmed) is admitted normally.
  RankResponse resp = svc.Rank(AliceRequest());
  EXPECT_TRUE(resp.status.ok());
}

// ---------------------------------------------------------------------------
// Shutdown and accounting

TEST_F(ServingTest, ShutdownCancelsQueuedRequests) {
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}.WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  auto f = svc.Submit(AliceRequest());
  ASSERT_TRUE(f.ok());
  svc.Shutdown();
  RankResponse resp = f->get();
  EXPECT_EQ(resp.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(metrics.CounterValue("serve.cancelled"), 1u);

  auto after = svc.Submit(AliceRequest());
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
  svc.Shutdown();  // idempotent
}

TEST_F(ServingTest, EverySubmittedRequestIsAccounted) {
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}
                         .WithQueueCapacity(3)
                         .WithMaxBacklogSeconds(1e9)
                         .WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, /*ranker=*/nullptr).ok());

  std::vector<std::future<RankResponse>> futures;
  size_t rejected = 0;
  for (int i = 0; i < 6; ++i) {
    auto f = svc.Submit(AliceRequest());
    if (f.ok()) {
      futures.push_back(std::move(*f));
    } else {
      ++rejected;
    }
  }
  svc.PumpAll();
  auto pending = svc.Submit(AliceRequest());
  ASSERT_TRUE(pending.ok());
  svc.Shutdown();

  const uint64_t submitted = metrics.CounterValue("serve.submitted");
  const uint64_t completed = metrics.CounterValue("serve.completed");
  const uint64_t cancelled = metrics.CounterValue("serve.cancelled");
  const uint64_t rejections = metrics.CounterValue("serve.rejected.queue_full") +
                              metrics.CounterValue("serve.rejected.backlog") +
                              metrics.CounterValue("serve.rejected.deadline") +
                              metrics.CounterValue("serve.rejected.no_snapshot") +
                              metrics.CounterValue("serve.rejected.fault") +
                              metrics.CounterValue("serve.rejected.shutdown");
  EXPECT_EQ(submitted, 7u);
  EXPECT_EQ(rejected, 3u);
  EXPECT_EQ(completed + cancelled + rejections, submitted);
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  EXPECT_EQ(pending->get().status.code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan target: snapshot swaps under serving load)

TEST_F(ServingTest, SnapshotSwapUnderConcurrentLoad) {
  MetricsRegistry metrics;
  RankingService svc{ServiceConfig{}
                         .WithWorkers(2)
                         .WithQueueCapacity(1024)
                         .WithMaxBacklogSeconds(1e9)
                         .WithMetrics(&metrics)};
  ASSERT_TRUE(svc.Publish(db_, MakeUntrainedRanker()).ok());

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 40;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<RankResponse>>> futures(kClients);
  std::mutex reject_mu;
  size_t rejected = 0;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        auto f = svc.Submit(AliceRequest());
        if (f.ok()) {
          futures[c].push_back(std::move(*f));
        } else {
          std::lock_guard<std::mutex> lock(reject_mu);
          ++rejected;
        }
      }
    });
  }
  // Publisher: swap snapshots continuously while clients submit and
  // workers serve. Old epochs must stay valid for in-flight requests.
  std::shared_ptr<const LearnShapleyRanker> ranker = MakeUntrainedRanker();
  for (int swap = 0; swap < 8; ++swap) {
    PaperExample ex;
    std::shared_ptr<const Database> db = MakeFrozenPaperDb(&ex);
    ASSERT_TRUE(svc.Publish(db, swap % 2 == 0 ? ranker : nullptr).ok());
  }
  for (std::thread& t : clients) t.join();

  size_t completed = 0;
  for (auto& per_client : futures) {
    for (auto& f : per_client) {
      RankResponse resp = f.get();
      // Every admitted request terminates with a definite outcome on some
      // epoch; under swaps the rung may differ (null-ranker epochs serve
      // from cache or proxy) but nothing errors and nothing is dropped.
      EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
      EXPECT_GE(resp.epoch, 1u);
      EXPECT_LE(resp.epoch, 9u);
      ++completed;
    }
  }
  svc.Shutdown();
  EXPECT_EQ(completed + rejected,
            static_cast<size_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(metrics.CounterValue("serve.completed"), completed);
}

// ---------------------------------------------------------------------------
// Ranking cache

TEST(RankingCacheTest, EvictsLeastRecentlyUsedPerShard) {
  RankingCache cache(/*capacity=*/2, /*num_shards=*/1);
  CachedRanking r;
  r.scores = {{FactId{1}, 0.5}};
  cache.Put("a", r);
  cache.Put("b", r);
  CachedRanking out;
  ASSERT_TRUE(cache.Get("a", &out));  // refresh "a": "b" is now LRU
  cache.Put("c", r);
  EXPECT_TRUE(cache.Get("a", &out));
  EXPECT_FALSE(cache.Get("b", &out));
  EXPECT_TRUE(cache.Get("c", &out));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(RankingCacheTest, ZeroCapacityDisables) {
  RankingCache cache(/*capacity=*/0);
  CachedRanking r;
  cache.Put("a", r);
  EXPECT_FALSE(cache.Get("a", nullptr));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RankingCacheTest, KeysSeparateSnapshotFingerprints) {
  Query q;
  OutputTuple t = {Value("Alice")};
  EXPECT_NE(RankingCache::Key(1, q, t), RankingCache::Key(2, q, t));
  EXPECT_EQ(RankingCache::Key(1, q, t), RankingCache::Key(1, q, t));
}

TEST(ServeRungTest, NamesAreStable) {
  EXPECT_STREQ(ServeRungName(ServeRung::kModel), "model");
  EXPECT_STREQ(ServeRungName(ServeRung::kCached), "cached");
  EXPECT_STREQ(ServeRungName(ServeRung::kStratified), "stratified");
  EXPECT_STREQ(ServeRungName(ServeRung::kCnfProxy), "cnf_proxy");
  EXPECT_STREQ(ServeRungName(ServeRung::kDegraded), "degraded");
}

}  // namespace
}  // namespace lshap
