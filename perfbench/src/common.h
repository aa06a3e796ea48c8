#ifndef LSHAP_PERFBENCH_COMMON_H_
#define LSHAP_PERFBENCH_COMMON_H_

// Shared plumbing for the pipeline benchmark: the run's options, the report
// every workload fills in, and small timing/statistics helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "learnshapley/ranker.h"
#include "trace.h"

namespace lshap {
namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t threads = 4;            // pool size for build and training
  std::string scratch_dir;       // corpus shard files live here
  std::string trace_path;        // span dump written at exit (trace runs)
};

// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload run produced. `metrics` are the gated end-to-end metrics
// (untraced runs) or the per-layer metrics (traced runs); `detail` holds
// the workload-specific end-to-end figures printed beside them; `counters`
// are the deterministic work counters, which must repeat exactly for a
// repeated seed.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;  // wrong outputs
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<Metric> counters;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  void Count(const std::string& name, double value) {
    counters.push_back({name, value, "count"});
  }
  // Records a correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  bool correct() const { return check_failures.empty(); }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Peak resident set size of this process, in MB (VmHWM), since the start
// or since the last ResetPeakRss().
double PeakRssMb();
// Restarts the peak-RSS watermark at the current resident size, so a
// workload's peak covers its measured part, not its set-up.
void ResetPeakRss();

// FNV-1a over everything a corpus stores: per entry the query SQL, the
// full output set, every sampled contribution with its Shapley values in
// fact order (value bits, not rounded), and the train/dev/test split.
uint64_t CorpusFingerprint(const Corpus& corpus);

// Total (query, tuple, fact) Shapley values stored in a corpus.
size_t CorpusFacts(const Corpus& corpus);

// Parses {"name": {... "total_count": N, "sum": S}} out of a
// MetricsRegistry::ToJson() snapshot and returns S / N (0 when absent).
double HistogramMeanFromJson(const std::string& json, const std::string& name);

// Total size in bytes of `path` plus every `<path>.shardNNN` beside it.
uint64_t ShardBytes(const std::string& path);

// One (query, output tuple, lineage) the ranker probes score.
struct LineageKey {
  const Query* query = nullptr;
  const OutputTuple* tuple = nullptr;
  std::vector<FactId> lineage;
};

// Per-layer probes of a ranker over `keys`: direct ScoreLineage latency
// (learnshapley.score_lineage_ms.p50/p99, at least kMinLatencySamples
// calls), per-example tokenize and encode time, the float
// LearnShapleyModel::PredictShapley time per call, and tokens per example.
void ProbeRanker(const Database& db, const LearnShapleyRanker& ranker,
                 const std::vector<LineageKey>& keys, Report& report,
                 Tracer& tracer);
inline constexpr size_t kMinLatencySamples = 1000;

// Workload entry points (workload_*.cc).
Report RunBuild(const RunOptions& options, Tracer& tracer);
Report RunTrain(const RunOptions& options, Tracer& tracer);
Report RunServe(const RunOptions& options, Tracer& tracer);

// The end-to-end metric set every untraced run reports, in this order.
// Workload-specific meaning is documented in README.md.
void AddEndToEnd(Report& report, double setup_s, double peak_rss_mb,
                 double throughput_per_s, double result_ms);

}  // namespace perfbench
}  // namespace lshap

#endif  // LSHAP_PERFBENCH_COMMON_H_
