#include "learnshapley/trainer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <utility>

#include "common/strings.h"
#include "common/timer.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/serialization.h"
#include "ml/adam.h"

namespace lshap {

namespace {

struct PairSample {
  EncodedPair input;
  double sim_rank;
  double sim_witness;
  double sim_syntax;
};

struct FinetuneSample {
  EncodedPair input;
  float target;
};

// Number of contiguous partitions each batch is split into, one model clone
// per partition. A constant rather than the pool size, so the float
// gradient-sum order — and with it the trained weights — is the same at
// every thread count.
constexpr size_t kGradPartitions = 4;

// Seed mixes of the streaming trainer's per-contribution negative-sample
// and per-(epoch, shard) order streams. Any change moves trained weights.
constexpr uint64_t kNegEntryMix = 0xda942042e4dd58b5ULL;
constexpr uint64_t kNegSlotMix = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kOrderEpochMix = 0x2545f4914f6cdd1dULL;
constexpr uint64_t kOrderShardMix = 0x9e3779b97f4a7c15ULL;

// Runs batches across partition-local model clones, summing gradients into
// the main model in partition order. Weights are re-broadcast to the clones
// before every batch.
class DataParallelRunner {
 public:
  DataParallelRunner(LearnShapleyModel* main, ThreadPool* pool)
      : main_(main), pool_(pool), clones_(kGradPartitions, *main) {}

  // fn(model, index) must run the sample at `index` through `model`
  // (accumulating grads inside the model) and return its loss; tokens(index)
  // is that sample's length.
  template <typename TokensFn, typename Fn>
  float RunBatch(size_t batch_begin, size_t batch_end, const TokensFn& tokens,
                 const Fn& fn) {
    Broadcast();
    // Partition boundaries balance token counts, since a sample's cost grows
    // with its length and the batch waits for its slowest partition. They
    // depend only on the batch, never on the thread count.
    size_t total_tokens = 0;
    for (size_t i = batch_begin; i < batch_end; ++i) total_tokens += tokens(i);
    std::vector<size_t> bounds(kGradPartitions + 1, batch_end);
    bounds[0] = batch_begin;
    size_t next = 1;
    size_t prefix = 0;
    for (size_t i = batch_begin; i < batch_end; ++i) {
      prefix += tokens(i);
      while (next < kGradPartitions &&
             prefix * kGradPartitions >= total_tokens * next) {
        bounds[next++] = i + 1;
      }
    }
    std::vector<float> losses(kGradPartitions, 0.0f);
    ParallelFor(*pool_, kGradPartitions, [&](size_t part) {
      for (size_t i = bounds[part]; i < bounds[part + 1]; ++i) {
        losses[part] += fn(clones_[part], i);
      }
    });
    // Sum clone gradients into the main model, normalized by batch size.
    const float inv = 1.0f / static_cast<float>(batch_end - batch_begin);
    std::vector<Param*> main_params = main_->Params();
    for (auto& clone : clones_) {
      std::vector<Param*> clone_params = clone.Params();
      for (size_t p = 0; p < main_params.size(); ++p) {
        main_params[p]->grad.AddScaled(clone_params[p]->grad, inv);
        clone_params[p]->ZeroGrad();
      }
    }
    float total = 0.0f;
    for (float l : losses) total += l;
    return total;
  }

 private:
  void Broadcast() {
    std::vector<Param*> main_params = main_->Params();
    for (auto& clone : clones_) {
      std::vector<Param*> clone_params = clone.Params();
      for (size_t p = 0; p < main_params.size(); ++p) {
        clone_params[p]->value = main_params[p]->value;
      }
    }
  }

  LearnShapleyModel* main_;
  ThreadPool* pool_;
  std::vector<LearnShapleyModel> clones_;
};

// The freshly initialized model a training run starts from.
LearnShapleyModel NewModel(const TrainConfig& config, size_t vocab_size) {
  EncoderConfig cfg;
  switch (config.model_size) {
    case TrainConfig::ModelSize::kBase:
      cfg = EncoderConfig::Base(vocab_size);
      break;
    case TrainConfig::ModelSize::kLarge:
      cfg = EncoderConfig::Large(vocab_size);
      break;
    case TrainConfig::ModelSize::kSmallAblation:
      cfg = EncoderConfig::SmallAblation(vocab_size);
      break;
  }
  cfg.max_len = config.max_len;
  return LearnShapleyModel(cfg, config.seed);
}

// Adds one train entry's query, tuple and lineage-fact tokens to `vocab`.
void AddEntryTokens(const Database& db,
                    const std::vector<std::string>& query_tokens,
                    const CorpusEntry& entry, Vocab& vocab) {
  vocab.AddTokens(query_tokens);
  for (const auto& c : entry.contributions) {
    vocab.AddTokens(TupleTokens(c.tuple));
    for (const auto& [f, v] : c.shapley) vocab.AddTokens(FactTokens(db, f));
  }
}

// Mean MSE of the enabled similarity heads over a set of pair samples,
// scoring the one const model from every worker. Each pair's error lands in
// its own slot and the slots are summed in index order, so the result does
// not depend on the thread count.
double PairMse(const std::vector<PairSample>& pairs,
               const PretrainObjectives& objectives,
               const LearnShapleyModel& model, ThreadPool& pool) {
  if (pairs.empty()) return 0.0;
  // Small ranges keep the workers evenly loaded; each brings one arena.
  constexpr size_t kPairsPerRange = 8;
  std::vector<double> errs(pairs.size(), 0.0);
  ParallelForRanges(pool, pairs.size(), kPairsPerRange,
                    [&](size_t, size_t begin, size_t end) {
    InferenceArena arena;
    for (size_t i = begin; i < end; ++i) {
      const auto sims = model.PredictSimilarities(pairs[i].input, arena);
      double err = 0.0;
      int terms = 0;
      auto add = [&](bool enabled, float predicted, double target) {
        if (!enabled) return;
        const double d = predicted - target;
        err += d * d;
        ++terms;
      };
      add(objectives.rank, sims.rank, pairs[i].sim_rank);
      add(objectives.witness, sims.witness, pairs[i].sim_witness);
      add(objectives.syntax, sims.syntax, pairs[i].sim_syntax);
      errs[i] = terms > 0 ? err / terms : 0.0;
    }
  });
  double total = 0.0;
  for (double e : errs) total += e;
  return total / static_cast<double>(pairs.size());
}

// Handle bundle resolved once per TrainLearnShapley call; every member is a
// no-op handle when config.metrics is null.
struct TrainMetricSet {
  Counter pretrain_examples, finetune_examples, adam_steps;
  Gauge pretrain_epoch_loss, pretrain_dev_mse, finetune_epoch_loss,
      finetune_dev_ndcg10, examples_per_sec;
  Histogram adam_step_seconds;

  TrainMetricSet() = default;
  explicit TrainMetricSet(MetricsRegistry* r)
      : pretrain_examples(CounterFor(r, "train.pretrain_examples")),
        finetune_examples(CounterFor(r, "train.finetune_examples")),
        adam_steps(CounterFor(r, "train.adam_steps")),
        pretrain_epoch_loss(GaugeFor(r, "train.pretrain_epoch_loss")),
        pretrain_dev_mse(GaugeFor(r, "train.pretrain_dev_mse")),
        finetune_epoch_loss(GaugeFor(r, "train.finetune_epoch_loss")),
        finetune_dev_ndcg10(GaugeFor(r, "train.finetune_dev_ndcg10")),
        examples_per_sec(GaugeFor(r, "train.examples_per_sec")),
        adam_step_seconds(HistogramFor(r, "train.adam_step_seconds",
                                       ExponentialBuckets(1e-5, 4.0, 12))) {}
};

// optimizer.Step() with its wall time observed into the step histogram.
// The timing reads are guarded so the disabled path stays two branches.
template <typename Opt>
void TimedStep(Opt& optimizer, const TrainMetricSet& metrics) {
  if (!metrics.adam_step_seconds.enabled()) {
    optimizer.Step();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  optimizer.Step();
  const auto t1 = std::chrono::steady_clock::now();
  metrics.adam_steps.Inc();
  metrics.adam_step_seconds.Observe(
      std::chrono::duration<double>(t1 - t0).count());
}

std::string RankerName(const TrainConfig& config) {
  std::string name = "LearnShapley-";
  switch (config.model_size) {
    case TrainConfig::ModelSize::kBase:
      name += "base";
      break;
    case TrainConfig::ModelSize::kLarge:
      name += "large";
      break;
    case TrainConfig::ModelSize::kSmallAblation:
      name += "small";
      break;
  }
  if (!config.do_pretrain) name += " (no pre-train)";
  return name;
}

// Pre-training on the similarity objectives. Operates only on cached query
// token streams plus the similarity matrices, so the resident and streaming
// trainers share it verbatim (the matrices are indexed by global entry
// index either way). Restores the best-dev-MSE checkpoint into `model` and
// returns that MSE.
double PretrainOnSims(const std::vector<size_t>& train,
                      const std::vector<size_t>& dev_idx,
                      const std::vector<std::vector<std::string>>& query_tokens,
                      const SimilarityMatrices& sims, const TrainConfig& config,
                      const TrainMetricSet& metrics, const Vocab& vocab,
                      LearnShapleyModel& model, DataParallelRunner& runner,
                      ThreadPool& pool, Rng& rng, size_t& total_examples) {
  ScopedSpan pretrain_span(config.metrics, "train.pretrain");
  auto make_sample = [&](size_t a, size_t b) {
    PairSample ps;
    ps.input = EncodeSegments(vocab, {query_tokens[a], query_tokens[b]},
                              config.max_len);
    ps.sim_rank = sims.rank[a][b];
    ps.sim_witness = sims.witness[a][b];
    ps.sim_syntax = sims.syntax[a][b];
    return ps;
  };
  // All train-train pairs (i < j) as candidates.
  std::vector<std::pair<size_t, size_t>> train_pairs;
  for (size_t a = 0; a < train.size(); ++a) {
    for (size_t b = a + 1; b < train.size(); ++b) {
      train_pairs.emplace_back(train[a], train[b]);
    }
  }
  // Dev pairs (dev × train) for checkpoint selection, capped.
  std::vector<PairSample> dev_pairs;
  {
    std::vector<std::pair<size_t, size_t>> cands;
    for (size_t d : dev_idx) {
      for (size_t t : train) cands.emplace_back(d, t);
    }
    rng.Shuffle(cands);
    const size_t take = std::min<size_t>(cands.size(), 256);
    for (size_t i = 0; i < take; ++i) {
      const auto [a, b] = cands[i];
      dev_pairs.push_back(make_sample(a, b));
    }
  }

  Adam optimizer(model.Params(), [&] {
    AdamConfig a;
    a.lr = config.pretrain_lr;
    return a;
  }());

  double best_mse = 1e30;
  std::vector<Tensor> best_weights = model.SnapshotWeights();
  for (size_t epoch = 0; epoch < config.pretrain_epochs; ++epoch) {
    rng.Shuffle(train_pairs);
    const size_t take =
        std::min(train_pairs.size(), config.pretrain_pairs_per_epoch);
    std::vector<PairSample> samples;
    samples.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      const auto [a, b] = train_pairs[i];
      samples.push_back(make_sample(a, b));
    }
    auto tokens = [&](size_t i) { return samples[i].input.ids.size(); };
    auto step = [&](LearnShapleyModel& m, size_t i) {
      return m.PretrainStep(samples[i].input, samples[i].sim_rank,
                            samples[i].sim_witness, samples[i].sim_syntax,
                            config.objectives);
    };
    float epoch_loss = 0.0f;
    for (size_t begin = 0; begin < samples.size();
         begin += config.batch_size) {
      const size_t end = std::min(samples.size(), begin + config.batch_size);
      epoch_loss += runner.RunBatch(begin, end, tokens, step);
      TimedStep(optimizer, metrics);
    }
    metrics.pretrain_examples.Inc(take);
    total_examples += take;
    const double mean_loss = static_cast<double>(epoch_loss) /
                             static_cast<double>(std::max<size_t>(1, take));
    metrics.pretrain_epoch_loss.Set(mean_loss);
    const double dev_mse = PairMse(dev_pairs, config.objectives, model, pool);
    metrics.pretrain_dev_mse.Set(dev_mse);
    if (config.verbose) {
      std::fprintf(stderr, "[pretrain] epoch %zu loss %.4f dev-mse %.5f\n",
                   epoch, mean_loss, dev_mse);
    }
    if (dev_mse < best_mse) {
      best_mse = dev_mse;
      best_weights = model.SnapshotWeights();
    }
    optimizer.set_lr(optimizer.lr() * config.lr_decay);
  }
  model.RestoreWeights(best_weights);
  return best_mse;
}

// Appends one contribution's fine-tune samples: every lineage fact with its
// scaled (optionally per-tuple normalized) Shapley target, then
// config.negative_samples_per_contribution random facts drawn from `rng`.
void AppendContributionSamples(const Database& db, const Vocab& vocab,
                               const std::vector<std::string>& query_tokens,
                               const TupleContribution& c,
                               const TrainConfig& config, Rng& rng,
                               std::vector<FinetuneSample>& out) {
  const std::vector<std::string> t_tokens = TupleTokens(c.tuple);
  auto add = [&](FactId f, float target) {
    FinetuneSample fs;
    fs.input = EncodeSegments(
        vocab, {query_tokens, t_tokens, FactTokensWithContext(db, f, t_tokens)},
        config.max_len);
    fs.target = target;
    out.push_back(std::move(fs));
  };
  double norm = 1.0;
  if (config.normalize_targets_per_tuple) {
    double max_v = 0.0;
    for (const auto& [f, v] : c.shapley) max_v = std::max(max_v, v);
    if (max_v > 0.0) norm = 1.0 / max_v;
  }
  for (const auto& [f, v] : c.shapley) {
    add(f, static_cast<float>(v * norm) * config.shapley_scale);
  }
  // Extension: zero-target samples for facts outside the lineage, so the
  // model learns to rank non-contributing facts below contributing ones
  // (needed for lineage-free deployment).
  for (size_t neg = 0; neg < config.negative_samples_per_contribution; ++neg) {
    const FactId f = static_cast<FactId>(rng.NextBounded(db.num_facts()));
    if (c.shapley.count(f) > 0) continue;  // accidentally positive
    add(f, 0.0f);
  }
}

// The fine-tune loop and finish step both pipelines share. run_epoch(epoch,
// optimizer, epoch_loss, examples) trains one epoch through the runner,
// stepping the optimizer after every batch, and adds to the epoch's loss
// and example count. After every epoch this records the epoch metrics,
// scores the current weights on the dev split (streamed from `dev_stream`)
// and keeps the best dev-NDCG@10 weights. Then it restores those into
// `model`, wraps the model in the deployable ranker and records the run's
// throughput.
Result<TrainResult> FinetuneAndFinish(
    const TrainConfig& config, const TrainMetricSet& metrics,
    const WallTimer& timer, const std::shared_ptr<const Vocab>& vocab,
    const CorpusStream& dev_stream, const std::vector<size_t>& dev_idx,
    ThreadPool& pool, LearnShapleyModel& model, size_t total_examples,
    TrainResult result,
    const std::function<Status(size_t, Adam&, float&, size_t&)>& run_epoch) {
  Adam optimizer(model.Params(), [&] {
    AdamConfig a;
    a.lr = config.finetune_lr;
    return a;
  }());

  double best_ndcg = -1.0;
  std::vector<Tensor> best_weights = model.SnapshotWeights();
  for (size_t epoch = 0; epoch < config.finetune_epochs; ++epoch) {
    float epoch_loss = 0.0f;
    size_t epoch_examples = 0;
    const Status trained =
        run_epoch(epoch, optimizer, epoch_loss, epoch_examples);
    if (!trained.ok()) return trained;
    metrics.finetune_examples.Inc(epoch_examples);
    total_examples += epoch_examples;
    const double mean_loss =
        static_cast<double>(epoch_loss) /
        static_cast<double>(std::max<size_t>(1, epoch_examples));
    metrics.finetune_epoch_loss.Set(mean_loss);
    LearnShapleyRanker dev_ranker(model, vocab, config.max_len,
                                  config.shapley_scale, "dev");
    auto dev =
        EvaluateScorerStream(dev_stream, dev_idx, dev_ranker, {}, pool);
    if (!dev.ok()) return dev.status();
    if (config.verbose) {
      std::fprintf(stderr, "[finetune] epoch %zu loss %.2f dev-ndcg %.4f\n",
                   epoch, mean_loss, dev->ndcg10);
    }
    metrics.finetune_dev_ndcg10.Set(dev->ndcg10);
    if (dev->ndcg10 > best_ndcg) {
      best_ndcg = dev->ndcg10;
      best_weights = model.SnapshotWeights();
    }
    optimizer.set_lr(optimizer.lr() * config.lr_decay);
  }
  model.RestoreWeights(best_weights);
  result.best_dev_ndcg10 = best_ndcg;

  result.ranker = std::make_unique<LearnShapleyRanker>(
      std::move(model), vocab, config.max_len, config.shapley_scale,
      RankerName(config));
  result.train_seconds = timer.ElapsedSeconds();
  if (result.train_seconds > 0.0) {
    metrics.examples_per_sec.Set(static_cast<double>(total_examples) /
                                 result.train_seconds);
  }
  return result;
}

// The resident training pipeline over an in-memory corpus. `sims` may be
// null, which skips pre-training (the streaming single-shard dispatch uses
// this when no matrices are available). With non-null sims this is the
// historical TrainLearnShapley bit for bit.
Result<TrainResult> TrainResident(const Corpus& corpus,
                                  const std::vector<size_t>& train_idx,
                                  const std::vector<size_t>& dev_idx,
                                  const SimilarityMatrices* sims,
                                  const TrainConfig& config,
                                  ThreadPool& pool) {
  WallTimer timer;
  ScopedSpan train_span(config.metrics, "train");
  const TrainMetricSet metrics(config.metrics);
  size_t total_examples = 0;
  Rng rng(config.seed);

  const std::vector<size_t>& train =
      config.train_subset.empty() ? train_idx : config.train_subset;

  // ---- Vocabulary and cached token streams (train split only). ----
  auto vocab = std::make_shared<Vocab>();
  std::vector<std::vector<std::string>> query_tokens(corpus.entries.size());
  for (size_t e = 0; e < corpus.entries.size(); ++e) {
    query_tokens[e] = QueryTokens(corpus.entries[e].query);
  }
  for (size_t e : train) {
    AddEntryTokens(*corpus.db, query_tokens[e], corpus.entries[e], *vocab);
  }
  // Overlap markers emitted by FactTokensWithContext.
  vocab->AddTokens({"ovl0", "ovl1", "ovl2"});

  // ---- Model. ----
  LearnShapleyModel model = NewModel(config, vocab->size());
  DataParallelRunner runner(&model, &pool);

  TrainResult result;

  // ---- Pre-training on similarity objectives. ----
  if (config.do_pretrain && config.objectives.AnyEnabled() &&
      sims != nullptr) {
    result.pretrain_dev_mse =
        PretrainOnSims(train, dev_idx, query_tokens, *sims, config, metrics,
                       *vocab, model, runner, pool, rng, total_examples);
  }

  // ---- Fine-tuning on Shapley regression. ----
  ScopedSpan finetune_span(config.metrics, "train.finetune");
  std::vector<FinetuneSample> all_samples;
  for (size_t e : train) {
    for (const auto& c : corpus.entries[e].contributions) {
      AppendContributionSamples(*corpus.db, *vocab, query_tokens[e], c,
                                config, rng, all_samples);
    }
  }
  std::vector<size_t> sample_order(all_samples.size());
  for (size_t i = 0; i < sample_order.size(); ++i) sample_order[i] = i;

  const InMemoryCorpusStream dev_stream(corpus);
  return FinetuneAndFinish(
      config, metrics, timer, vocab, dev_stream, dev_idx, pool, model,
      total_examples, std::move(result),
      [&](size_t, Adam& optimizer, float& epoch_loss, size_t& examples) {
        rng.Shuffle(sample_order);
        auto tokens = [&](size_t i) {
          return all_samples[sample_order[i]].input.ids.size();
        };
        auto step = [&](LearnShapleyModel& m, size_t i) {
          const FinetuneSample& fs = all_samples[sample_order[i]];
          return m.FinetuneStep(fs.input, fs.target);
        };
        const size_t take =
            std::min(sample_order.size(), config.finetune_samples_per_epoch);
        for (size_t begin = 0; begin < take; begin += config.batch_size) {
          const size_t end = std::min(take, begin + config.batch_size);
          epoch_loss += runner.RunBatch(begin, end, tokens, step);
          TimedStep(optimizer, metrics);
        }
        examples = take;
        return Status::Ok();
      });
}

// Streaming pipeline for multi-shard streams: one decode pass over all
// shards for the vocabulary and query token cache, then per-epoch
// shard-at-a-time fine-tuning with a rotating start shard. Sample
// construction and shuffles use per-(entry, contribution) and per-(epoch,
// shard) derived RNG streams, so the result is a deterministic function of
// (config, corpus, shard layout) — independent of thread count and of how
// fast shards decode.
Result<TrainResult> TrainStreaming(const CorpusStream& stream,
                                   const SimilarityMatrices* sims,
                                   const TrainConfig& config,
                                   ThreadPool& pool) {
  WallTimer timer;
  ScopedSpan train_span(config.metrics, "train");
  const TrainMetricSet metrics(config.metrics);
  size_t total_examples = 0;
  Rng rng(config.seed);
  const Database& db = stream.db();

  const std::vector<size_t>& train =
      config.train_subset.empty() ? stream.train_idx() : config.train_subset;
  std::vector<char> in_train(stream.num_entries(), 0);
  for (size_t e : train) {
    if (e >= stream.num_entries()) {
      return Status::InvalidArgument(
          StrFormat("train entry %zu out of range (corpus has %zu entries)",
                    e, stream.num_entries()));
    }
    in_train[e] = 1;
  }

  // ---- Pass 1: vocabulary + cached query token streams. One decode of
  // every shard; only the (small) token vectors stay resident. Vocabulary
  // insertion order is shard order here, not train-split order, so token
  // ids differ from the resident trainer's — a deliberate property of the
  // streaming mode, deterministic for a fixed shard layout. ----
  auto vocab = std::make_shared<Vocab>();
  std::vector<std::vector<std::string>> query_tokens(stream.num_entries());
  {
    ScopedSpan vocab_span(config.metrics, "train.vocab_pass");
    ShardCursor cursor(stream, &pool);
    while (!cursor.Done()) {
      auto slice = cursor.Next();
      if (!slice.ok()) return slice.status();
      const Corpus& chunk = *slice->corpus;
      for (size_t i = 0; i < chunk.entries.size(); ++i) {
        const size_t e = slice->base_entry + i;
        query_tokens[e] = QueryTokens(chunk.entries[i].query);
        if (in_train[e]) {
          AddEntryTokens(db, query_tokens[e], chunk.entries[i], *vocab);
        }
      }
    }
  }
  vocab->AddTokens({"ovl0", "ovl1", "ovl2"});

  // ---- Model. ----
  LearnShapleyModel model = NewModel(config, vocab->size());
  DataParallelRunner runner(&model, &pool);

  TrainResult result;

  // ---- Pre-training (needs caller-supplied similarity matrices, which
  // are corpus-global; pass null to skip). ----
  if (config.do_pretrain && config.objectives.AnyEnabled() &&
      sims != nullptr) {
    result.pretrain_dev_mse = PretrainOnSims(
        train, stream.dev_idx(), query_tokens, *sims, config, metrics, *vocab,
        model, runner, pool, rng, total_examples);
  }

  // ---- Fine-tuning, shard at a time. ----
  ScopedSpan finetune_span(config.metrics, "train.finetune");
  std::vector<size_t> train_shards;
  {
    std::vector<char> has(stream.num_shards(), 0);
    for (size_t e : train) has[stream.ShardOf(e)] = 1;
    for (size_t s = 0; s < has.size(); ++s) {
      if (has[s]) train_shards.push_back(s);
    }
  }

  return FinetuneAndFinish(
      config, metrics, timer, vocab, stream, stream.dev_idx(), pool, model,
      total_examples, std::move(result),
      [&](size_t epoch, Adam& optimizer, float& epoch_loss,
          size_t& examples) -> Status {
        if (train_shards.empty()) return Status::Ok();
        // Rotate the starting shard so no shard always trains against the
        // freshest (end-of-epoch) weights.
        std::vector<size_t> order = train_shards;
        std::rotate(order.begin(), order.begin() + (epoch % order.size()),
                    order.end());
        const size_t quota =
            (config.finetune_samples_per_epoch + order.size() - 1) /
            order.size();
        size_t remaining = config.finetune_samples_per_epoch;

        ShardCursor cursor(stream, &pool, order);
        while (!cursor.Done()) {
          auto slice_r = cursor.Next();
          if (!slice_r.ok()) return slice_r.status();
          const CorpusSlice slice = std::move(*slice_r);
          const Corpus& chunk = *slice.corpus;

          // Materialize only this shard's train samples.
          std::vector<FinetuneSample> samples;
          for (size_t i = 0; i < chunk.entries.size(); ++i) {
            const size_t e = slice.base_entry + i;
            if (!in_train[e]) continue;
            const CorpusEntry& entry = chunk.entries[i];
            for (size_t ci = 0; ci < entry.contributions.size(); ++ci) {
              // Derived per-contribution stream, so the negative set does
              // not depend on shard visit order or epoch.
              Rng neg_rng(config.seed ^ (kNegEntryMix * (e + 1)) ^
                          (kNegSlotMix * (ci + 1)));
              AppendContributionSamples(db, *vocab, query_tokens[e],
                                        entry.contributions[ci], config,
                                        neg_rng, samples);
            }
          }

          // Per-(epoch, shard) derived shuffle: sample order is a function
          // of position in the corpus, not of scheduling.
          Rng order_rng(config.seed ^ (kOrderEpochMix * (epoch + 1)) ^
                        (kOrderShardMix * (slice.shard_index + 1)));
          order_rng.Shuffle(samples);
          auto tokens = [&](size_t i) { return samples[i].input.ids.size(); };
          auto step = [&](LearnShapleyModel& m, size_t i) {
            return m.FinetuneStep(samples[i].input, samples[i].target);
          };
          const size_t take = std::min({samples.size(), quota, remaining});
          for (size_t begin = 0; begin < take; begin += config.batch_size) {
            const size_t end = std::min(take, begin + config.batch_size);
            epoch_loss += runner.RunBatch(begin, end, tokens, step);
            TimedStep(optimizer, metrics);
          }
          remaining -= take;
          examples += take;
        }
        return Status::Ok();
      });
}

}  // namespace

TrainResult TrainLearnShapley(const Corpus& corpus,
                              const SimilarityMatrices& sims,
                              const TrainConfig& config, ThreadPool& pool) {
  // Over a resident corpus nothing can fail: the train split is the
  // corpus' own and the dev stream aliases it.
  auto result = TrainResident(corpus, corpus.train_idx, corpus.dev_idx, &sims,
                              config, pool);
  LSHAP_CHECK(result.ok());
  return std::move(*result);
}

Result<TrainResult> TrainLearnShapleyStream(const CorpusStream& stream,
                                            const SimilarityMatrices* sims,
                                            const TrainConfig& config,
                                            ThreadPool& pool) {
  if (stream.num_shards() == 1) {
    // Single shard: the slice is the whole corpus (aliased for an
    // in-memory stream, decoded once for a one-shard binary corpus), so
    // the resident pipeline applies unchanged — and matches
    // TrainLearnShapley exactly when sims is provided.
    auto slice = stream.ReadShard(0);
    if (!slice.ok()) return slice.status();
    return TrainResident(*slice->corpus, stream.train_idx(),
                         stream.dev_idx(), sims, config, pool);
  }
  return TrainStreaming(stream, sims, config, pool);
}

}  // namespace lshap
