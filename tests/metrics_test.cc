// Tests for the observability substrate (src/common/metrics.h): sharded
// counter merge, histogram bucket-edge semantics, nested span trees, the
// no-op (disabled) mode, and concurrent mutation vs. ToJson snapshots.
#include "common/metrics.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace lshap {
namespace {

TEST(MetricsCounter, SingleThreadTotals) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("events");
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(registry.CounterValue("events"), 42u);
  // Same name resolves to the same cell.
  Counter again = registry.GetCounter("events");
  again.Inc(8);
  EXPECT_EQ(registry.CounterValue("events"), 50u);
  EXPECT_EQ(registry.CounterValue("never_registered"), 0u);
}

TEST(MetricsCounter, ShardMergeAcrossThreads) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("events");
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c]() mutable {
      for (int i = 0; i < kIncsPerThread; ++i) c.Inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.CounterValue("events"),
            static_cast<uint64_t>(kThreads) * kIncsPerThread);
}

TEST(MetricsGauge, LastWriteWins) {
  MetricsRegistry registry;
  Gauge g = registry.GetGauge("loss");
  g.Set(0.75);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("loss"), 0.75);
  g.Set(-3.5);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("loss"), -3.5);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("missing"), 0.0);
}

TEST(MetricsHistogram, BucketEdgesInclusiveUpperBound) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("sizes", {1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1      -> bucket 0
  h.Observe(1.0);    // == edge   -> bucket 0 (upper bound is inclusive)
  h.Observe(1.0001); // > 1       -> bucket 1
  h.Observe(10.0);   // == edge   -> bucket 1
  h.Observe(99.0);   //           -> bucket 2
  h.Observe(100.0);  // == edge   -> bucket 2
  h.Observe(5000.0); // overflow  -> bucket 3
  std::vector<uint64_t> expected = {2, 2, 2, 1};
  EXPECT_EQ(registry.HistogramBuckets("sizes"), expected);
}

TEST(MetricsHistogram, ShardMergeAcrossThreads) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("lat", ExponentialBuckets(1.0, 2.0, 4));
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([h, t]() mutable {
      for (int i = 0; i < 1000; ++i) h.Observe(static_cast<double>(t));
    });
  }
  for (auto& th : threads) th.join();
  uint64_t total = 0;
  for (uint64_t c : registry.HistogramBuckets("lat")) total += c;
  EXPECT_EQ(total, 6000u);
}

TEST(MetricsHistogram, ExponentialBuckets) {
  std::vector<double> expected = {0.5, 1.0, 2.0, 4.0};
  EXPECT_EQ(ExponentialBuckets(0.5, 2.0, 4), expected);
}

TEST(MetricsSpan, NestedSpansAggregateByPath) {
  MetricsRegistry registry;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan outer(&registry, "build");
    {
      ScopedSpan inner(&registry, "scan");
    }
    {
      ScopedSpan inner(&registry, "scan");
    }
    ScopedSpan other(&registry, "join");
  }
  EXPECT_EQ(registry.SpanAt({"build"}).count, 3u);
  EXPECT_EQ(registry.SpanAt({"build", "scan"}).count, 6u);
  EXPECT_EQ(registry.SpanAt({"build", "join"}).count, 3u);
  // "scan" exists only under "build", not at the root.
  EXPECT_EQ(registry.SpanAt({"scan"}).count, 0u);
  EXPECT_GE(registry.SpanAt({"build"}).total_seconds, 0.0);
}

TEST(MetricsSpan, SeparateThreadsMergeByName) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry]() {
      ScopedSpan outer(&registry, "work");
      ScopedSpan inner(&registry, "step");
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.SpanAt({"work"}).count, 4u);
  EXPECT_EQ(registry.SpanAt({"work", "step"}).count, 4u);
}

// A span opened on another thread with the dispatcher's open-span path
// merges under that path; the path's spans are timed once, by their own
// thread, and the worker's later spans nest as usual.
TEST(MetricsSpan, ParentPathReRootsAnotherThreadsSpan) {
  MetricsRegistry registry;
  {
    ScopedSpan outer(&registry, "build");
    ScopedSpan middle(&registry, "shard");
    const std::vector<std::string> path = OpenSpanPath(&registry);
    EXPECT_EQ(path, (std::vector<std::string>{"build", "shard"}));
    std::thread worker([&registry, &path] {
      {
        ScopedSpan handed(&registry, "evaluate", path);
        ScopedSpan inner(&registry, "query");
      }
      // Closing the handed span restores this thread's own root.
      ScopedSpan after(&registry, "own");
    });
    worker.join();
  }
  EXPECT_EQ(registry.SpanAt({"build"}).count, 1u);
  EXPECT_EQ(registry.SpanAt({"build", "shard"}).count, 1u);
  EXPECT_EQ(registry.SpanAt({"build", "shard", "evaluate"}).count, 1u);
  EXPECT_EQ(registry.SpanAt({"build", "shard", "evaluate", "query"}).count,
            1u);
  EXPECT_EQ(registry.SpanAt({"own"}).count, 1u);
  EXPECT_EQ(registry.SpanAt({"evaluate"}).count, 0u);
  EXPECT_TRUE(OpenSpanPath(&registry).empty());
  EXPECT_TRUE(OpenSpanPath(nullptr).empty());
}

// On one thread, a span placed by path from inside a sibling lands beside
// it, and closing it reopens the sibling for the spans that follow.
TEST(MetricsSpan, ParentPathPlacesSpanBesideAnOpenSibling) {
  MetricsRegistry registry;
  {
    ScopedSpan outer(&registry, "build");
    const std::vector<std::string> path = OpenSpanPath(&registry);
    ScopedSpan wave(&registry, "wave");
    {
      ScopedSpan overlapped(&registry, "evaluate", path);
      ScopedSpan inner(&registry, "query");
    }
    ScopedSpan after(&registry, "fold");
  }
  EXPECT_EQ(registry.SpanAt({"build", "wave"}).count, 1u);
  EXPECT_EQ(registry.SpanAt({"build", "evaluate"}).count, 1u);
  EXPECT_EQ(registry.SpanAt({"build", "evaluate", "query"}).count, 1u);
  EXPECT_EQ(registry.SpanAt({"build", "wave", "evaluate"}).count, 0u);
  EXPECT_EQ(registry.SpanAt({"build", "wave", "fold"}).count, 1u);
}

TEST(MetricsNoop, DisabledHandlesAreInert) {
  Counter c;
  Gauge g;
  Histogram h;
  c.Inc(100);
  g.Set(1.0);
  h.Observe(5.0);
  EXPECT_FALSE(c.enabled());
  EXPECT_FALSE(g.enabled());
  EXPECT_FALSE(h.enabled());

  // Null-registry resolvers hand back the same inert handles, and a null
  // ScopedSpan records nothing anywhere.
  Counter c2 = CounterFor(nullptr, "x");
  c2.Inc();
  EXPECT_FALSE(c2.enabled());
  EXPECT_FALSE(GaugeFor(nullptr, "x").enabled());
  EXPECT_FALSE(HistogramFor(nullptr, "x", {1.0}).enabled());
  {
    ScopedSpan span(nullptr, "ghost");
  }

  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("x"), 0u);
  EXPECT_EQ(registry.SpanAt({"ghost"}).count, 0u);
}

TEST(MetricsJson, EmptyRegistryIsWellFormed) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.ToJson(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {},\n  \"spans\": []\n}\n");
}

TEST(MetricsJson, SnapshotContainsAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("c.one").Inc(7);
  registry.GetGauge("g.two").Set(1.5);
  registry.GetHistogram("h.three", {1.0, 2.0}).Observe(1.5);
  {
    ScopedSpan outer(&registry, "outer");
    ScopedSpan inner(&registry, "inner");
  }
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"c.one\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"g.two\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"h.three\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\": [0, 1, 0]"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
}

TEST(MetricsJson, EscapesMetricNames) {
  MetricsRegistry registry;
  registry.GetCounter("weird\"name\\with\nstuff").Inc();
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"weird\\\"name\\\\with\\nstuff\": 1"),
            std::string::npos);
}

// ToJson must be safe to call while writers are mid-flight (the bench
// harness dumps the registry while pool threads may still be winding down).
// Run under TSan via tools/check.sh.
TEST(MetricsConcurrency, SnapshotDuringWrites) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("spin");
  Histogram h = registry.GetHistogram("spin_hist", {10.0, 100.0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop, c, h, &registry]() mutable {
      do {
        ScopedSpan span(&registry, "spin_span");
        c.Inc();
        h.Observe(42.0);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int i = 0; i < 50; ++i) {
    const std::string json = registry.ToJson();
    EXPECT_FALSE(json.empty());
    (void)registry.SpanAt({"spin_span"});
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_GT(registry.CounterValue("spin"), 0u);
}

TEST(MetricsRegistryLifetime, FreshRegistryAfterDestruction) {
  // The thread-local trace cache keys on a process-unique registry id, so a
  // new registry allocated after an old one dies never sees stale traces.
  for (int i = 0; i < 3; ++i) {
    auto registry = std::make_unique<MetricsRegistry>();
    {
      ScopedSpan span(registry.get(), "ephemeral");
    }
    EXPECT_EQ(registry->SpanAt({"ephemeral"}).count, 1u);
  }
}

TEST(MetricsRegistryGlobal, IsASingleton) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
}

TEST(MetricsHistogram, QuantileFromBucketCounts) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0, 8.0};
  // 10 observations <=1, 5 in (1,2], 4 in (2,4], 1 in (4,8], 0 overflow.
  const std::vector<uint64_t> counts = {10, 5, 4, 1, 0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.6), 2.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.95), 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 1.0), 8.0);
}

TEST(MetricsHistogram, QuantileEdgeCases) {
  const std::vector<double> bounds = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {0, 0, 0}, 0.99), 0.0);  // empty
  // Overflow observations report the last finite bound (conservative).
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {0, 0, 7}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile({}, {}, 0.5), 0.0);
  // Quantiles are clamped to [0, 1].
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {3, 0, 0}, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {3, 0, 0}, -1.0), 1.0);
}

}  // namespace
}  // namespace lshap
