// Packed binary corpus format vs the line-oriented text oracle: save/load
// wall time and bytes on disk, sharded build throughput at K = 1/2/8, and
// the streaming consumer's peak resident entries vs corpus size. Feeds the
// BENCH_pr6.json comparison.
#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "corpus/format.h"
#include "corpus/io.h"
#include "corpus/stream.h"
#include "learnshapley/evaluate.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

CorpusConfig BaseConfig() {
  CorpusConfig cfg;
  cfg.seed = 101;
  cfg.num_base_queries = 34;
  cfg.max_outputs_per_query = 24;
  cfg.query_gen.min_tables = 2;
  cfg.query_gen.max_tables = 4;
  cfg.metrics = BenchMetrics();
  return cfg;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

void RemoveShardedCorpus(const std::string& path, size_t max_shards) {
  for (size_t s = 0; s < max_shards; ++s) {
    std::remove(ShardFileName(path, s).c_str());
  }
  std::remove(path.c_str());
}

// A scorer with negligible cost, so the streaming-evaluator pass below
// measures IO/decode behavior rather than model inference.
class LineageSizeScorer : public FactScorer {
 public:
  ShapleyValues Score(const Corpus& corpus, size_t entry_idx,
                      size_t contrib_idx) const override {
    const auto& c = corpus.entries[entry_idx].contributions[contrib_idx];
    ShapleyValues out;
    for (const auto& [f, v] : c.shapley) {
      out[f] = static_cast<double>((f * 2654435761u) % 1000u);
    }
    return out;
  }
  std::string name() const override { return "lineage-size"; }
};

}  // namespace

int main(int argc, char** argv) {
  InitBenchMetrics(&argc, argv);
  ThreadPool pool;
  PrintHeader("Packed binary corpus shards vs text oracle (seed 101)");

  const GeneratedDb data = MakeImdbDatabase({});
  const Corpus corpus = BuildCorpus(*data.db, data.graph, BaseConfig(), pool);
  size_t contribs = 0;
  for (const auto& e : corpus.entries) contribs += e.contributions.size();
  std::printf("\ncorpus: %zu entries, %zu contributions\n",
              corpus.entries.size(), contribs);

  const std::string text_path = "/tmp/bench_corpus_format.lshap";
  const std::string bin_path = "/tmp/bench_corpus_format.lshapc";
  constexpr int kReps = 5;

  // ---- Save/load wall time + on-disk size, text vs binary. ----
  double text_save = 0, text_load = 0, bin_save = 0, bin_load = 0;
  for (int r = 0; r < kReps; ++r) {
    {
      WallTimer t;
      if (!SaveCorpus(corpus, text_path).ok()) return 1;
      text_save += t.ElapsedSeconds();
    }
    {
      WallTimer t;
      auto loaded = LoadCorpus(data.db.get(), text_path);
      if (!loaded.ok()) return 1;
      text_load += t.ElapsedSeconds();
    }
    {
      WallTimer t;
      if (!SaveCorpusShards(corpus, bin_path, 1).ok()) return 1;
      bin_save += t.ElapsedSeconds();
    }
    {
      WallTimer t;
      auto loaded = LoadCorpusShards(data.db.get(), bin_path);
      if (!loaded.ok()) return 1;
      bin_load += t.ElapsedSeconds();
    }
  }
  text_save /= kReps;
  text_load /= kReps;
  bin_save /= kReps;
  bin_load /= kReps;
  const uint64_t text_bytes = FileBytes(text_path);
  const uint64_t bin_bytes =
      FileBytes(bin_path) + FileBytes(ShardFileName(bin_path, 0));

  std::printf("\n[save/load, mean of %d reps]\n", kReps);
  std::printf("%-22s save %8.2fms | load %8.2fms | %9llu bytes\n", "text",
              text_save * 1e3, text_load * 1e3,
              static_cast<unsigned long long>(text_bytes));
  std::printf("%-22s save %8.2fms | load %8.2fms | %9llu bytes\n",
              "binary (f64)", bin_save * 1e3, bin_load * 1e3,
              static_cast<unsigned long long>(bin_bytes));
  if (!SaveCorpusShards(corpus, bin_path, 1, /*f32_payload=*/true).ok()) {
    return 1;
  }
  const uint64_t bin32_bytes =
      FileBytes(bin_path) + FileBytes(ShardFileName(bin_path, 0));
  std::printf("%-22s %43llu bytes\n", "binary (f32)",
              static_cast<unsigned long long>(bin32_bytes));
  std::printf("binary vs text: save %.2fx, load %.2fx, size %.2fx smaller "
              "(f32: %.2fx)\n",
              text_save / bin_save, text_load / bin_load,
              static_cast<double>(text_bytes) /
                  static_cast<double>(bin_bytes),
              static_cast<double>(text_bytes) /
                  static_cast<double>(bin32_bytes));
  std::remove(text_path.c_str());

  // ---- Sharded build throughput. ----
  std::printf("\n[sharded build, same merged corpus at any K]\n");
  for (size_t k : {1u, 2u, 8u}) {
    CorpusConfig cfg = BaseConfig();
    cfg.num_shards = k;
    WallTimer t;
    const Corpus c = BuildCorpus(*data.db, data.graph, cfg, pool);
    const double secs = t.ElapsedSeconds();
    std::printf("K=%zu: %.3fs (%.1f entries/s), per-shard entries:", k, secs,
                static_cast<double>(c.entries.size()) / secs);
    for (const auto& s : c.stats.per_shard) std::printf(" %zu", s.entries);
    std::printf("\n");
  }

  // ---- Streaming consumer memory: peak resident entries. ----
  std::printf("\n[streaming evaluation, 8 shards]\n");
  RemoveShardedCorpus(bin_path, 8);
  if (!SaveCorpusShards(corpus, bin_path, 8).ok()) return 1;
  auto stream = ShardedCorpusStream::Open(data.db.get(), bin_path);
  if (!stream.ok()) {
    std::fprintf(stderr, "%s\n", stream.status().ToString().c_str());
    return 1;
  }
  std::vector<size_t> all(corpus.entries.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  LineageSizeScorer scorer;
  WallTimer t;
  auto summary = EvaluateScorerStream(*stream, all, scorer, {}, pool);
  if (!summary.ok()) return 1;
  std::printf("evaluated %zu points in %.3fs\n", summary->points.size(),
              t.ElapsedSeconds());
  size_t max_shard = 0;
  for (size_t s = 0; s < stream->num_shards(); ++s) {
    max_shard = std::max(max_shard, stream->shard_entries(s));
  }
  std::printf("peak resident %zu entries (largest shard %zu, corpus %zu) — "
              "bounded by ~2 shards, not corpus size\n",
              stream->peak_resident_entries(), max_shard,
              corpus.entries.size());
  RemoveShardedCorpus(bin_path, 8);

  return 0;
}
