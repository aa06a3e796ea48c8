#ifndef LSHAP_COMMON_METRICS_H_
#define LSHAP_COMMON_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lshap {

class MetricsRegistry;

// The observability substrate (DESIGN.md §9): a process-wide registry of
// named Counters, Gauges and fixed-bucket Histograms, plus ScopedSpan timers
// that nest into a per-thread trace tree. Instrumented code holds cheap
// value-type handles; a default-constructed handle is a no-op whose methods
// inline to a single null test, which is how "metrics off" costs nothing —
// every instrumented layer takes a `MetricsRegistry*` through its options
// struct (EvalOptions, CorpusConfig, TrainConfig), and a null registry
// yields no-op handles everywhere.
//
// Hot-path discipline: Counter/Histogram cells are sharded per thread
// (kNumShards cache-line-isolated relaxed atomics, merged on read), so
// morsel workers and ladder workers never contend on a metric. Instrumented
// loops additionally accumulate into a local variable and flush once per
// morsel/batch, keeping the per-row cost at zero. Metrics only observe:
// they must never change tuples, lineages, corpora or model weights
// (eval_property_test pins byte-identical output with metrics on and off).

namespace metrics_internal {

inline constexpr size_t kNumShards = 16;

// Stable per-thread shard index, assigned round-robin on first use.
size_t ThisThreadShard();

// One cache-line-isolated relaxed atomic, so two shards never false-share.
struct alignas(64) ShardCell {
  std::atomic<uint64_t> value{0};
};

class CounterCell {
 public:
  void Add(uint64_t n) {
    shards_[ThisThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Total() const {
    uint64_t total = 0;
    for (const ShardCell& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  ShardCell shards_[kNumShards];
};

// Gauges are last-write-wins doubles (epoch loss, examples/sec); a single
// atomic cell suffices — there is nothing to merge.
class GaugeCell {
 public:
  void Set(double v) {
    bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
  }
  double Get() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{0};
};

class HistogramCell {
 public:
  explicit HistogramCell(std::vector<double> upper_bounds);

  // Lands in the first bucket whose upper bound is >= v; values above the
  // last bound land in the implicit overflow bucket.
  void Observe(double v);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  // Merged per-bucket counts (size upper_bounds()+1; last is overflow).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t TotalCount() const;
  double Sum() const;

 private:
  struct Shard {
    explicit Shard(size_t num_buckets)
        : buckets(new std::atomic<uint64_t>[num_buckets]) {
      for (size_t i = 0; i < num_buckets; ++i) buckets[i] = 0;
    }
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> upper_bounds_;  // ascending
  // deque: Shard holds atomics and can never be moved/relocated.
  std::deque<Shard> shards_;
};

}  // namespace metrics_internal

// Monotonically increasing event count. Copyable no-op-by-default handle.
class Counter {
 public:
  Counter() = default;
  // const: mutates the shared cell, not the handle — so a const context
  // holding a handle can still count.
  void Inc(uint64_t n = 1) const {
    if (cell_ != nullptr) cell_->Add(n);
  }
  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(metrics_internal::CounterCell* cell) : cell_(cell) {}
  metrics_internal::CounterCell* cell_ = nullptr;
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  Gauge() = default;
  void Set(double v) const {
    if (cell_ != nullptr) cell_->Set(v);
  }
  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(metrics_internal::GaugeCell* cell) : cell_(cell) {}
  metrics_internal::GaugeCell* cell_ = nullptr;
};

// Fixed-bucket distribution (latencies, sizes, occupancies).
class Histogram {
 public:
  Histogram() = default;
  void Observe(double v) const {
    if (cell_ != nullptr) cell_->Observe(v);
  }
  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(metrics_internal::HistogramCell* cell) : cell_(cell) {}
  metrics_internal::HistogramCell* cell_ = nullptr;
};

// The registry: owns every metric cell and the per-thread span trace trees.
// Get* registers on first use and returns the same cell for the same name
// afterwards (handles resolved once outside hot loops; the lookup takes a
// mutex). ToJson() merges shards and thread traces into one snapshot and is
// safe to call while instrumented code is still running.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry the bench harness exports via --metrics-json.
  // Library code never reaches for this implicitly — instrumentation is
  // always opt-in through an options struct.
  static MetricsRegistry& Global();

  Counter GetCounter(const std::string& name);
  Gauge GetGauge(const std::string& name);
  // `upper_bounds` must be ascending; registration wins on first use (a
  // later Get with different bounds returns the existing histogram).
  Histogram GetHistogram(const std::string& name,
                         std::vector<double> upper_bounds);

  // Merged snapshot: {"counters": {...}, "gauges": {...},
  // "histograms": {...}, "spans": [...]} — see tools/metrics_report for the
  // pretty-printed rendering.
  std::string ToJson() const;

  // Read-side test accessors (merged across shards). Missing names read 0.
  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  std::vector<uint64_t> HistogramBuckets(const std::string& name) const;

  // Aggregated span statistics for the node at `path` (e.g.
  // {"eval.query", "eval.scan"}), merged across threads. count == 0 means
  // the path never ran.
  struct SpanStats {
    uint64_t count = 0;
    double total_seconds = 0.0;
  };
  SpanStats SpanAt(const std::vector<std::string>& path) const;

  // Internal trace representation, public only for the merge helpers in
  // metrics.cc — instrumented code never touches these directly.
  //
  // One thread's span tree. Nodes are keyed by (parent, name), so repeated
  // entries of the same span under the same parent aggregate into one node.
  // Guarded by its own mutex: span enter/exit is coarse (per query, per
  // phase, per epoch — never per row), so a brief uncontended lock keeps
  // the tree safe to snapshot mid-run without a lock-free tree.
  struct SpanNode {
    std::string name;
    int parent = 0;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    std::map<std::string, int> children;
  };
  struct ThreadTrace {
    std::mutex mu;
    std::vector<SpanNode> nodes;  // nodes[0] is the synthetic root
    int current = 0;              // innermost open span (0 = at root)
    ThreadTrace() : nodes(1) {}
  };

 private:
  friend class ScopedSpan;
  friend std::vector<std::string> OpenSpanPath(MetricsRegistry* registry);

  ThreadTrace* TraceForThisThread();

  const uint64_t id_;  // process-unique, keys the thread-local trace cache

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<metrics_internal::CounterCell>>
      counters_;
  std::map<std::string, std::unique_ptr<metrics_internal::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<metrics_internal::HistogramCell>>
      histograms_;

  mutable std::mutex traces_mu_;
  std::vector<std::unique_ptr<ThreadTrace>> traces_;
};

// RAII span timer. Construction with a null registry is a no-op; otherwise
// the span opens as a child of this thread's innermost open span and closes
// (accumulating count and wall time) on destruction. Spans must strictly
// nest per thread, which the RAII shape enforces; a span opened on a pool
// worker roots a separate per-thread tree rather than attaching to the
// dispatching thread's open span.
//
// The second constructor places a span by path instead of by nesting:
// take OpenSpanPath() where the span belongs, and a span opened with that
// path merges under the same names as if it had nested there — from
// another thread, or from inside a sibling span on this thread (work that
// overlaps the sibling in time). The path's own spans are not timed again;
// closing the span reopens whichever span was innermost before it.
class ScopedSpan {
 public:
  ScopedSpan(MetricsRegistry* registry, const char* name);
  ScopedSpan(MetricsRegistry* registry, const char* name,
             const std::vector<std::string>& parent_path);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  MetricsRegistry::ThreadTrace* trace_ = nullptr;
  int node_ = 0;
  int restore_ = 0;  // the innermost open span before this one opened
  std::chrono::steady_clock::time_point start_;
};

// Names of the calling thread's open spans in `registry`, outermost first
// (empty for a null registry), for ScopedSpan's parent-path constructor.
std::vector<std::string> OpenSpanPath(MetricsRegistry* registry);

// Null-safe handle resolvers: the idiom for options-driven instrumentation
// (`Counter c = CounterFor(options.metrics, "eval.rows_scanned");`).
Counter CounterFor(MetricsRegistry* registry, const std::string& name);
Gauge GaugeFor(MetricsRegistry* registry, const std::string& name);
Histogram HistogramFor(MetricsRegistry* registry, const std::string& name,
                       std::vector<double> upper_bounds);

// `count` bucket upper bounds starting at `start`, each `factor` times the
// previous — the standard latency/size bucket layout.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

// Quantile estimate from merged bucket counts (`counts` has
// upper_bounds.size()+1 entries; the last is the overflow bucket). Returns
// the upper bound of the bucket holding the q-th observation — a
// conservative (upper) estimate, exact enough for p50/p99 reporting with
// exponential buckets. Returns 0 for an empty histogram; observations in
// the overflow bucket report the last finite bound.
double HistogramQuantile(const std::vector<double>& upper_bounds,
                         const std::vector<uint64_t>& counts, double q);

}  // namespace lshap

#endif  // LSHAP_COMMON_METRICS_H_
