// Pipeline benchmark binary: runs one workload for one seed and prints its
// metrics, ending with one JSON line
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// report the per-layer metrics, including each layer's self time and the
// tracing overhead, and write every span to --trace-out.
//
// Usage: lshap_perfbench --workload {dbshap_build,train,serve} --seed N
//            --seconds S --trace {0,1} [--threads N] [--scratch-dir DIR]
//            [--trace-out PATH] [--report PATH]
//        lshap_perfbench --list-metrics

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"

namespace lshap {
namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The gated end-to-end metrics, reported by every untraced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"result_ms", "ms"},
};

// Library layers a span's time can be charged to ("bench" is the
// benchmark's own time, e.g. generator lag).
constexpr const char* kLayers[] = {"eval",       "provenance", "shapley",
                                   "corpus",     "similarity", "ml",
                                   "learnshapley", "serving",  "bench"};

// Every per-layer metric, reported by every traced run. A layer a workload
// does not run reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"eval.query_ms.p50", "ms"},
    {"eval.query_ms.p99", "ms"},
    {"eval.rows_scanned", "count"},
    {"eval.rows_probed", "count"},
    {"eval.output_tuples", "count"},
    {"eval.rows_per_output", "ratio"},
    {"provenance.compile_us.p50", "us"},
    {"provenance.compile_us.p99", "us"},
    {"provenance.circuit_nodes", "count"},
    {"provenance.cache_hits", "count"},
    {"shapley.count_us.p50", "us"},
    {"shapley.count_us.p99", "us"},
    {"shapley.exact_tuples", "count"},
    {"shapley.stratified_tuples", "count"},
    {"shapley.mc_tuples", "count"},
    {"shapley.proxy_tuples", "count"},
    {"shapley.skipped_tuples", "count"},
    {"shapley.exact_share", "ratio"},
    {"corpus.build_s", "s"},
    {"corpus.evaluate_log_s", "s"},
    {"corpus.ground_truth_s", "s"},
    {"corpus.save_s", "s"},
    {"corpus.load_s", "s"},
    {"corpus.bytes", "B"},
    {"similarity.matrices_s", "s"},
    {"similarity.entries", "count"},
    {"ml.finetune_step_us", "us"},
    {"ml.predict_us", "us"},
    {"ml.adam_step_ms", "ms"},
    {"ml.tokens_per_example", "tokens"},
    {"learnshapley.pretrain_s", "s"},
    {"learnshapley.finetune_s", "s"},
    {"learnshapley.examples", "count"},
    {"learnshapley.score_lineage_ms.p50", "ms"},
    {"learnshapley.score_lineage_ms.p99", "ms"},
    {"learnshapley.tokenize_us", "us"},
    {"learnshapley.encode_us", "us"},
    {"learnshapley.eval_points_per_s", "1/s"},
    {"serving.queue_ms.p50", "ms"},
    {"serving.queue_ms.p99", "ms"},
    {"serving.serve_ms.p50", "ms"},
    {"serving.serve_ms.p99", "ms"},
    {"serving.batch_size.mean", "count"},
    {"serving.rung.model", "count"},
    {"serving.rung.cached", "count"},
    {"serving.rung.cnf_proxy", "count"},
    {"serving.rung.degraded", "count"},
    {"serving.rejected", "count"},
    {"serving.cache_hit_pct", "%"},
    {"serving.publish_ms", "ms"},
    {"serving.generator_lag_ms.max", "ms"},
    {"self.eval_s", "s"},
    {"self.provenance_s", "s"},
    {"self.shapley_s", "s"},
    {"self.corpus_s", "s"},
    {"self.similarity_s", "s"},
    {"self.ml_s", "s"},
    {"self.learnshapley_s", "s"},
    {"self.serving_s", "s"},
    {"self.bench_s", "s"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

void PrintMetricList(const char* key, const MetricSpec* specs, size_t n) {
  std::printf("\"%s\": [", key);
  for (size_t i = 0; i < n; ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                specs[i].name, specs[i].unit);
  }
  std::printf("]");
}

// Orders `report.metrics` as `specs`, filling metrics the workload did not
// report with 0. Returns false on a name or unit outside `specs`.
bool Canonicalize(Report& report, const MetricSpec* specs, size_t n,
                  bool fill_missing) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : report.metrics) by_name[m.name] = m;
  std::vector<Metric> out;
  for (size_t i = 0; i < n; ++i) {
    auto it = by_name.find(specs[i].name);
    if (it == by_name.end()) {
      if (!fill_missing) return false;
      out.push_back({specs[i].name, 0.0, specs[i].unit});
      continue;
    }
    if (it->second.unit != specs[i].unit) return false;
    out.push_back(it->second);
    by_name.erase(it);
  }
  if (!by_name.empty()) return false;
  report.metrics = std::move(out);
  return true;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string ReportJson(const RunOptions& options, const Report& report) {
  std::string checks = "[";
  for (size_t i = 0; i < report.check_failures.size(); ++i) {
    checks += (i ? ", \"" : "\"") + report.check_failures[i] + "\"";
  }
  checks += "]";
  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %g, \"trace\": %d, \"threads\": %zu, ",
                options.workload.c_str(), options.seed, options.seconds,
                options.trace ? 1 : 0, options.threads);
  return std::string(head) + "\"correct\": " +
         (report.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(report.attempted) +
         ", \"failed\": " + std::to_string(report.failed) +
         ", \"metrics\": " + MetricsJson(report.metrics) +
         ", \"detail\": " + MetricsJson(report.detail) +
         ", \"counters\": " + MetricsJson(report.counters) +
         ", \"check_failures\": " + checks + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: lshap_perfbench --workload {dbshap_build,train,serve} "
               "--seed N --seconds S --trace {0,1} [--threads N] "
               "[--scratch-dir DIR] [--trace-out PATH] [--report PATH]\n"
               "       lshap_perfbench --list-metrics\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  options.scratch_dir = ".bench_build/scratch";
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      std::printf("{");
      PrintMetricList("end_to_end", kEndToEnd, std::size(kEndToEnd));
      std::printf(", ");
      PrintMetricList("per_layer", kPerLayer, std::size(kPerLayer));
      std::printf("}\n");
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--threads") {
      options.threads = std::strtoul(value.c_str(), nullptr, 10);
    } else if (arg == "--scratch-dir") {
      options.scratch_dir = value;
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else if (arg == "--report") {
      report_path = value;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0 || options.threads == 0) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(options.scratch_dir, ec);

  Tracer tracer(options.trace);
  Report report;
  std::printf("== %s seed %" PRIu64 " (%g s, %s, %zu threads)\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? "traced" : "untraced", options.threads);
  std::fflush(stdout);
  if (options.workload == "dbshap_build") {
    report = RunBuild(options, tracer);
  } else if (options.workload == "train") {
    report = RunTrain(options, tracer);
  } else if (options.workload == "serve") {
    report = RunServe(options, tracer);
  } else {
    return Usage();
  }

  bool canonical = true;
  if (options.trace) {
    const std::map<std::string, double> self = tracer.SelfSeconds();
    for (const char* layer : kLayers) {
      auto it = self.find(layer);
      report.Add(std::string("self.") + layer + "_s",
                 it == self.end() ? 0.0 : it->second, "s");
    }
    report.Add("trace.spans", static_cast<double>(tracer.size()), "count");
    if (!options.trace_path.empty() && !tracer.WriteJson(options.trace_path)) {
      report.Check(false, "could not write the trace to " + options.trace_path);
    }
    canonical = Canonicalize(report, kPerLayer, std::size(kPerLayer), true);
  } else if (report.correct()) {
    canonical = Canonicalize(report, kEndToEnd, std::size(kEndToEnd), false);
  }
  report.Check(canonical, "the workload reported an unlisted metric set");

  for (const Metric& m : report.counters) {
    std::printf("counter %-28s %.0f\n", m.name.c_str(), m.value);
  }
  for (const Metric& m : report.detail) {
    std::printf("detail  %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("metric  %-36s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  if (!report_path.empty()) {
    std::FILE* f = std::fopen(report_path.c_str(), "w");
    if (f != nullptr) {
      const std::string json = ReportJson(options, report);
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(report.metrics).c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace lshap

int main(int argc, char** argv) { return lshap::perfbench::Main(argc, argv); }
