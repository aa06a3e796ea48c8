#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "learnshapley/serialization.h"
#include "ml/tokenizer.h"
#include "relational/tuple.h"

namespace lshap {
namespace perfbench {

void Report::Check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  size_t rank =
      static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void ResetPeakRss() {
#ifdef __GLIBC__
  // Hand freed set-up memory back first, so the watermark restarts at the
  // live heap rather than at whatever the allocator kept.
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

namespace {

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void Str(const std::string& s) {
    Word(s.size());
    Bytes(s.data(), s.size());
  }
  void Word(uint64_t w) { Bytes(&w, sizeof(w)); }
  void Double(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Word(bits);
  }
};

}  // namespace

uint64_t CorpusFingerprint(const Corpus& corpus) {
  Fnv fnv;
  fnv.Word(corpus.entries.size());
  for (const CorpusEntry& e : corpus.entries) {
    fnv.Str(e.query.ToSql());
    fnv.Word(e.all_outputs.size());
    for (const OutputTuple& t : e.all_outputs) fnv.Str(OutputTupleToString(t));
    fnv.Word(e.contributions.size());
    for (const TupleContribution& c : e.contributions) {
      fnv.Str(OutputTupleToString(c.tuple));
      const std::map<FactId, double> ordered(c.shapley.begin(),
                                             c.shapley.end());
      fnv.Word(ordered.size());
      for (const auto& [fact, value] : ordered) {
        fnv.Word(fact);
        fnv.Double(value);
      }
    }
  }
  for (const auto* split : {&corpus.train_idx, &corpus.dev_idx,
                            &corpus.test_idx}) {
    fnv.Word(split->size());
    for (size_t i : *split) fnv.Word(i);
  }
  return fnv.h;
}

size_t CorpusFacts(const Corpus& corpus) {
  size_t facts = 0;
  for (const CorpusEntry& e : corpus.entries) {
    for (const TupleContribution& c : e.contributions) {
      facts += c.shapley.size();
    }
  }
  return facts;
}

double HistogramMeanFromJson(const std::string& json, const std::string& name) {
  const size_t at = json.find("\"" + name + "\"");
  if (at == std::string::npos) return 0.0;
  const size_t count_at = json.find("\"total_count\":", at);
  const size_t sum_at = json.find("\"sum\":", at);
  if (count_at == std::string::npos || sum_at == std::string::npos) return 0.0;
  const double count = std::strtod(json.c_str() + count_at + 14, nullptr);
  const double sum = std::strtod(json.c_str() + sum_at + 6, nullptr);
  return count > 0 ? sum / count : 0.0;
}

uint64_t ShardBytes(const std::string& path) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  const fs::path base(path);
  const std::string prefix = base.filename().string();
  std::error_code ec;
  for (const auto& file : fs::directory_iterator(base.parent_path(), ec)) {
    const std::string name = file.path().filename().string();
    if (name == prefix || name.rfind(prefix + ".shard", 0) == 0) {
      total += file.file_size(ec);
    }
  }
  return total;
}

void ProbeRanker(const Database& db, const LearnShapleyRanker& ranker,
                 const std::vector<LineageKey>& keys, Report& report,
                 Tracer& tracer) {
  if (keys.empty()) return;
  // Direct ScoreLineage latency, cycling through the keys on two threads
  // (the serving worker count) until enough samples for a p99 exist.
  std::vector<std::vector<double>> per_thread(2);
  std::atomic<size_t> incomplete{0};
  {
    ThreadPool pool(per_thread.size());
    ParallelFor(pool, per_thread.size(), [&](size_t t) {
      for (size_t i = t; i < kMinLatencySamples; i += per_thread.size()) {
        const LineageKey& k = keys[i % keys.size()];
        const double s0 = tracer.Now();
        const Clock::time_point t0 = Clock::now();
        const ShapleyValues scores =
            ranker.ScoreLineage(db, *k.query, *k.tuple, k.lineage);
        per_thread[t].push_back(SecondsSince(t0) * 1e3);
        tracer.Record("ScoreLineage", "learnshapley", s0, tracer.Now(), -1,
                      i + 1);
        if (scores.size() != k.lineage.size()) ++incomplete;
      }
    });
  }
  report.Check(incomplete == 0, "ScoreLineage did not score a whole lineage");
  std::vector<double> score_ms;
  for (const auto& v : per_thread) {
    score_ms.insert(score_ms.end(), v.begin(), v.end());
  }

  // Per-example stages of one scored fact, timed separately.
  constexpr size_t kExamples = 2000;
  std::vector<double> tokenize_us, encode_us, predict_us;
  double tokens = 0.0;
  InferenceArena arena;
  for (size_t i = 0; tokenize_us.size() < kExamples && i < keys.size(); ++i) {
    const LineageKey& k = keys[i];
    for (FactId f : k.lineage) {
      if (tokenize_us.size() >= kExamples) break;
      Clock::time_point t0 = Clock::now();
      const std::vector<std::string> q_tok = QueryTokens(*k.query);
      const std::vector<std::string> t_tok = TupleTokens(*k.tuple);
      const std::vector<std::string> f_tok =
          FactTokensWithContext(db, f, t_tok);
      tokenize_us.push_back(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
      const std::vector<int> q_ids = EncodeTokens(ranker.vocab(), q_tok);
      const std::vector<int> t_ids = EncodeTokens(ranker.vocab(), t_tok);
      const std::vector<int> f_ids = EncodeTokens(ranker.vocab(), f_tok);
      const EncodedPair input =
          AssembleEncodedSegments({&q_ids, &t_ids, &f_ids}, ranker.max_len());
      encode_us.push_back(SecondsSince(t0) * 1e6);
      const double s0 = tracer.Now();
      t0 = Clock::now();
      const float raw = ranker.model().PredictShapley(input, arena);
      predict_us.push_back(SecondsSince(t0) * 1e6);
      tracer.Record("PredictShapley", "ml", s0, tracer.Now());
      tokens += static_cast<double>(input.ids.size());
      if (!std::isfinite(raw)) {
        report.Check(false, "PredictShapley returned a non-finite score");
      }
    }
  }
  report.Add("learnshapley.score_lineage_ms.p50", Quantile(score_ms, 0.5),
             "ms");
  report.Add("learnshapley.score_lineage_ms.p99", Quantile(score_ms, 0.99),
             "ms");
  report.Add("learnshapley.tokenize_us", Median(tokenize_us), "us");
  report.Add("learnshapley.encode_us", Median(encode_us), "us");
  report.Add("ml.predict_us", Median(predict_us), "us");
  report.Add("ml.tokens_per_example",
             tokens /
                 static_cast<double>(std::max<size_t>(1, encode_us.size())),
             "tokens");
}

void AddEndToEnd(Report& report, double setup_s, double peak_rss_mb,
                 double throughput_per_s, double result_ms) {
  report.Add("setup_s", setup_s, "s");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.Add("throughput_per_s", throughput_per_s, "1/s");
  report.Add("result_ms", result_ms, "ms");
}

}  // namespace perfbench
}  // namespace lshap
