#include "common/metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace lshap {

namespace metrics_internal {

size_t ThisThreadShard() {
  static std::atomic<uint32_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return shard;
}

HistogramCell::HistogramCell(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  LSHAP_CHECK_MSG(!upper_bounds_.empty(), "histogram needs at least one bucket");
  LSHAP_CHECK_MSG(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()),
                  "histogram bounds must be ascending");
  for (size_t i = 0; i < kNumShards; ++i) {
    shards_.emplace_back(upper_bounds_.size() + 1);
  }
}

void HistogramCell::Observe(double v) {
  const size_t bucket =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), v) -
      upper_bounds_.begin();
  Shard& shard = shards_[ThisThreadShard()];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(v, std::memory_order_relaxed);
}

std::vector<uint64_t> HistogramCell::BucketCounts() const {
  std::vector<uint64_t> counts(upper_bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

uint64_t HistogramCell::TotalCount() const {
  uint64_t total = 0;
  for (uint64_t c : BucketCounts()) total += c;
  return total;
}

double HistogramCell::Sum() const {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace metrics_internal

namespace {

uint64_t NextRegistryId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  std::string s = os.str();
  // Bare integers are valid JSON numbers, but keep them recognizably real.
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos) {
    s += ".0";
  }
  return s;
}

// Threads register their trace lazily; the cache maps registry id (never
// reused, unlike an address) to that registry's per-thread trace, so a
// destroyed registry's stale entries can never be hit.
struct TraceCacheEntry {
  uint64_t registry_id;
  void* trace;
};
thread_local std::vector<TraceCacheEntry> t_trace_cache;

// Merged view of one span across all thread traces, used by ToJson/SpanAt.
struct MergedSpan {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  std::map<std::string, MergedSpan> children;
};

}  // namespace

MetricsRegistry::MetricsRegistry() : id_(NextRegistryId()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

Counter MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = counters_[name];
  if (cell == nullptr) {
    cell = std::make_unique<metrics_internal::CounterCell>();
  }
  return Counter(cell.get());
}

Gauge MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = gauges_[name];
  if (cell == nullptr) {
    cell = std::make_unique<metrics_internal::GaugeCell>();
  }
  return Gauge(cell.get());
}

Histogram MetricsRegistry::GetHistogram(const std::string& name,
                                        std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = histograms_[name];
  if (cell == nullptr) {
    cell = std::make_unique<metrics_internal::HistogramCell>(
        std::move(upper_bounds));
  }
  return Histogram(cell.get());
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Total();
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second->Get();
}

std::vector<uint64_t> MetricsRegistry::HistogramBuckets(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? std::vector<uint64_t>{}
                                 : it->second->BucketCounts();
}

MetricsRegistry::ThreadTrace* MetricsRegistry::TraceForThisThread() {
  for (const TraceCacheEntry& e : t_trace_cache) {
    if (e.registry_id == id_) return static_cast<ThreadTrace*>(e.trace);
  }
  auto owned = std::make_unique<ThreadTrace>();
  ThreadTrace* trace = owned.get();
  {
    std::lock_guard<std::mutex> lock(traces_mu_);
    traces_.push_back(std::move(owned));
  }
  t_trace_cache.push_back({id_, trace});
  return trace;
}

namespace {

// Fold one thread's subtree rooted at `node` into the merged tree. Same
// name path across threads aggregates into one merged node.
void MergeTraceNode(const std::vector<MetricsRegistry::SpanNode>& nodes,
                    int node, MergedSpan* into) {
  const auto& n = nodes[node];
  for (const auto& [name, child] : n.children) {
    MergedSpan& slot = into->children[name];
    slot.count += nodes[child].count;
    slot.total_ns += nodes[child].total_ns;
    MergeTraceNode(nodes, child, &slot);
  }
}

void AppendSpanJson(std::string* out, const std::string& name,
                    const MergedSpan& span) {
  out->append("{\"name\": ");
  AppendJsonString(out, name);
  out->append(", \"count\": ");
  out->append(std::to_string(span.count));
  out->append(", \"seconds\": ");
  out->append(JsonDouble(static_cast<double>(span.total_ns) * 1e-9));
  out->append(", \"children\": [");
  bool first = true;
  for (const auto& [child_name, child] : span.children) {
    if (!first) out->append(", ");
    first = false;
    AppendSpanJson(out, child_name, child);
  }
  out->append("]}");
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool first = true;
    for (const auto& [name, cell] : counters_) {
      out.append(first ? "\n" : ",\n");
      first = false;
      out.append("    ");
      AppendJsonString(&out, name);
      out.append(": ");
      out.append(std::to_string(cell->Total()));
    }
    out.append(first ? "},\n" : "\n  },\n");

    out.append("  \"gauges\": {");
    first = true;
    for (const auto& [name, cell] : gauges_) {
      out.append(first ? "\n" : ",\n");
      first = false;
      out.append("    ");
      AppendJsonString(&out, name);
      out.append(": ");
      out.append(JsonDouble(cell->Get()));
    }
    out.append(first ? "},\n" : "\n  },\n");

    out.append("  \"histograms\": {");
    first = true;
    for (const auto& [name, cell] : histograms_) {
      out.append(first ? "\n" : ",\n");
      first = false;
      out.append("    ");
      AppendJsonString(&out, name);
      out.append(": {\"upper_bounds\": [");
      const auto& bounds = cell->upper_bounds();
      for (size_t i = 0; i < bounds.size(); ++i) {
        if (i > 0) out.append(", ");
        out.append(JsonDouble(bounds[i]));
      }
      out.append("], \"counts\": [");
      const auto counts = cell->BucketCounts();
      for (size_t i = 0; i < counts.size(); ++i) {
        if (i > 0) out.append(", ");
        out.append(std::to_string(counts[i]));
      }
      out.append("], \"total_count\": ");
      out.append(std::to_string(cell->TotalCount()));
      out.append(", \"sum\": ");
      out.append(JsonDouble(cell->Sum()));
      out.append("}");
    }
    out.append(first ? "},\n" : "\n  },\n");
  }

  MergedSpan root;
  {
    std::lock_guard<std::mutex> lock(traces_mu_);
    for (const auto& trace : traces_) {
      std::lock_guard<std::mutex> trace_lock(trace->mu);
      MergeTraceNode(trace->nodes, 0, &root);
    }
  }
  out.append("  \"spans\": [");
  bool first = true;
  for (const auto& [name, span] : root.children) {
    out.append(first ? "\n" : ",\n");
    first = false;
    out.append("    ");
    AppendSpanJson(&out, name, span);
  }
  out.append(first ? "]\n" : "\n  ]\n");
  out.append("}\n");
  return out;
}

MetricsRegistry::SpanStats MetricsRegistry::SpanAt(
    const std::vector<std::string>& path) const {
  MergedSpan root;
  {
    std::lock_guard<std::mutex> lock(traces_mu_);
    for (const auto& trace : traces_) {
      std::lock_guard<std::mutex> trace_lock(trace->mu);
      MergeTraceNode(trace->nodes, 0, &root);
    }
  }
  const MergedSpan* node = &root;
  for (const std::string& name : path) {
    auto it = node->children.find(name);
    if (it == node->children.end()) return SpanStats{};
    node = &it->second;
  }
  return SpanStats{node->count,
                   static_cast<double>(node->total_ns) * 1e-9};
}

namespace {

// The child `name` of `parent` in `nodes`, created on first use.
int ChildNode(std::vector<MetricsRegistry::SpanNode>& nodes, int parent,
              const std::string& name) {
  auto [it, inserted] = nodes[parent].children.try_emplace(name, 0);
  if (inserted) {
    it->second = static_cast<int>(nodes.size());
    MetricsRegistry::SpanNode node;
    node.name = name;
    node.parent = parent;
    nodes.push_back(std::move(node));
  }
  return it->second;
}

}  // namespace

ScopedSpan::ScopedSpan(MetricsRegistry* registry, const char* name)
    : ScopedSpan(registry, name, {}) {}

ScopedSpan::ScopedSpan(MetricsRegistry* registry, const char* name,
                       const std::vector<std::string>& parent_path) {
  if (registry == nullptr) return;
  trace_ = registry->TraceForThisThread();
  {
    std::lock_guard<std::mutex> lock(trace_->mu);
    restore_ = trace_->current;
    // An empty path opens under this thread's innermost span; a path is
    // resolved from the root instead.
    int parent = parent_path.empty() ? restore_ : 0;
    for (const std::string& step : parent_path) {
      parent = ChildNode(trace_->nodes, parent, step);
    }
    node_ = ChildNode(trace_->nodes, parent, name);
    trace_->current = node_;
  }
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  std::lock_guard<std::mutex> lock(trace_->mu);
  auto& node = trace_->nodes[node_];
  node.count += 1;
  node.total_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  trace_->current = restore_;
}

std::vector<std::string> OpenSpanPath(MetricsRegistry* registry) {
  if (registry == nullptr) return {};
  MetricsRegistry::ThreadTrace* trace = registry->TraceForThisThread();
  std::lock_guard<std::mutex> lock(trace->mu);
  std::vector<std::string> path;
  for (int n = trace->current; n != 0; n = trace->nodes[n].parent) {
    path.push_back(trace->nodes[n].name);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Counter CounterFor(MetricsRegistry* registry, const std::string& name) {
  return registry == nullptr ? Counter() : registry->GetCounter(name);
}

Gauge GaugeFor(MetricsRegistry* registry, const std::string& name) {
  return registry == nullptr ? Gauge() : registry->GetGauge(name);
}

Histogram HistogramFor(MetricsRegistry* registry, const std::string& name,
                       std::vector<double> upper_bounds) {
  return registry == nullptr
             ? Histogram()
             : registry->GetHistogram(name, std::move(upper_bounds));
}

double HistogramQuantile(const std::vector<double>& upper_bounds,
                         const std::vector<uint64_t>& counts, double q) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0 || upper_bounds.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the q-th observation, 1-based; q=0 maps to the first.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      return i < upper_bounds.size() ? upper_bounds[i] : upper_bounds.back();
    }
  }
  return upper_bounds.back();
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  LSHAP_CHECK_MSG(start > 0.0 && factor > 1.0 && count > 0,
                  "invalid exponential bucket spec");
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

}  // namespace lshap
