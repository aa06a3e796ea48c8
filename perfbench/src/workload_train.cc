// train: pre-training plus fine-tuning of MiniBERT-base on the standard
// IMDB workbench, repeated for the run's measuring time, then an
// evaluation of the trained ranker on the test split. The ml layer's
// training forward/backward/Adam dominates; eval, provenance and shapley
// run only in set-up.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "datasets/imdb.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/serialization.h"
#include "learnshapley/trainer.h"
#include "ml/tokenizer.h"
#include "workloads.h"

namespace lshap {
namespace perfbench {
namespace {

struct Workbench {
  GeneratedDb data;
  Corpus corpus;
  SimilarityMatrices sims;
};

Workbench MakeWorkbench(ThreadPool& pool) {
  Workbench wb;
  wb.data = MakeImdbDatabase({});
  CorpusConfig cfg;
  cfg.seed = kTrainCorpusSeed;
  cfg.num_base_queries = kTrainBaseQueries;
  cfg.max_outputs_per_query = kTrainMaxOutputsPerQuery;
  cfg.query_gen.min_tables = 2;
  cfg.query_gen.max_tables = 4;
  wb.corpus = BuildCorpus(*wb.data.db, wb.data.graph, cfg, pool);
  wb.sims = ComputeSimilarityMatrices(wb.corpus, kSimilarityTuplesForRank,
                                      pool);
  return wb;
}

size_t ExamplesPerRun(const TrainConfig& c) {
  return c.pretrain_epochs * c.pretrain_pairs_per_epoch +
         c.finetune_epochs * c.finetune_samples_per_epoch;
}

// Times LearnShapleyModel::FinetuneStep per call on a copy of the trained
// model, over the test split's (query, tuple, fact) samples.
std::vector<double> ProbeFinetuneStep(const Workbench& wb,
                                      const LearnShapleyRanker& ranker,
                                      Tracer& tracer) {
  LearnShapleyModel model = ranker.model();
  std::vector<double> step_us;
  constexpr size_t kSteps = 1000;
  for (size_t e : wb.corpus.test_idx) {
    const CorpusEntry& entry = wb.corpus.entries[e];
    for (const TupleContribution& c : entry.contributions) {
      const std::vector<std::string> t_tok = TupleTokens(c.tuple);
      for (const auto& [fact, value] : c.shapley) {
        if (step_us.size() >= kSteps) return step_us;
        const EncodedPair input = EncodeSegments(
            ranker.vocab(),
            {QueryTokens(entry.query), t_tok,
             FactTokensWithContext(*wb.data.db, fact, t_tok)},
            ranker.max_len());
        const double s0 = tracer.Now();
        const Clock::time_point t0 = Clock::now();
        model.FinetuneStep(input, static_cast<float>(value) *
                                      ranker.shapley_scale());
        step_us.push_back(SecondsSince(t0) * 1e6);
        tracer.Record("FinetuneStep", "ml", s0, tracer.Now());
      }
    }
  }
  return step_us;
}

}  // namespace

Report RunTrain(const RunOptions& options, Tracer& tracer) {
  Report report;
  const uint64_t variant = options.seed % kInputVariants;
  ThreadPool pool(options.threads);

  std::vector<double> setup_times;
  Workbench wb;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    wb = MakeWorkbench(pool);
    setup_times.push_back(SecondsSince(t0));
  }

  const TrainConfig base_config = TrainWorkloadConfig(variant);
  const size_t examples = ExamplesPerRun(base_config);
  MetricsRegistry registry;
  std::vector<double> train_s, traced_train_s;
  std::unique_ptr<LearnShapleyRanker> ranker;
  ResetPeakRss();
  const Clock::time_point start = Clock::now();
  for (size_t rep = 0;
       rep < kMinReps || SecondsSince(start) < options.seconds; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    TrainConfig config = base_config;
    if (traced) config.metrics = &registry;
    ++report.attempted;
    const double s0 = tracer.Now();
    const Clock::time_point t0 = Clock::now();
    TrainResult result = TrainLearnShapley(wb.corpus, wb.sims, config, pool);
    (traced ? traced_train_s : train_s).push_back(SecondsSince(t0));
    if (traced) {
      tracer.Record("TrainLearnShapley", "learnshapley", s0, tracer.Now());
    }
    if (result.ranker == nullptr) {
      ++report.failed;
      report.Check(false, "TrainLearnShapley returned no ranker");
      return report;
    }
    ranker = std::move(result.ranker);
  }

  const double peak_rss_mb = PeakRssMb();

  // Quality of the last trained ranker on the held-out test split.
  const double e0 = tracer.Now();
  const Clock::time_point t0 = Clock::now();
  const EvalSummary eval =
      EvaluateScorer(wb.corpus, wb.corpus.test_idx, *ranker, {}, pool);
  const double eval_s = SecondsSince(t0);
  tracer.Record("EvaluateScorer", "learnshapley", e0, tracer.Now());
  const double ndcg_floor = kTrainNdcgRecorded[variant] - kTrainNdcgTolerance;
  std::printf("test NDCG@10 %.4f over %zu points (recorded %.4f, floor %.4f)\n",
              eval.ndcg10, eval.points.size(), kTrainNdcgRecorded[variant],
              ndcg_floor);
  report.Check(eval.ndcg10 >= ndcg_floor, "test NDCG@10 " +
                                         std::to_string(eval.ndcg10) +
                                         " is below the recorded floor");
  report.Check(!eval.points.empty(), "the test split has no points");

  size_t facts_scored = 0;
  for (const EvalPoint& p : eval.points) facts_scored += p.lineage_size;
  std::vector<LineageKey> keys;
  for (size_t e : wb.corpus.test_idx) {
    const CorpusEntry& entry = wb.corpus.entries[e];
    for (const TupleContribution& c : entry.contributions) {
      LineageKey k{&entry.query, &c.tuple, {}};
      for (const auto& [fact, value] : c.shapley) k.lineage.push_back(fact);
      std::sort(k.lineage.begin(), k.lineage.end());
      keys.push_back(std::move(k));
    }
  }
  double tokens = 0.0;
  size_t token_examples = 0;
  for (const LineageKey& k : keys) {
    const std::vector<std::string> t_tok = TupleTokens(*k.tuple);
    for (FactId f : k.lineage) {
      tokens += static_cast<double>(
          EncodeSegments(ranker->vocab(),
                         {QueryTokens(*k.query), t_tok,
                          FactTokensWithContext(*wb.data.db, f, t_tok)},
                         ranker->max_len())
              .ids.size());
      ++token_examples;
    }
  }
  const double tokens_per_example =
      tokens / static_cast<double>(std::max<size_t>(1, token_examples));

  report.Count("corpus_entries", static_cast<double>(wb.corpus.entries.size()));
  report.Count("examples_per_run", static_cast<double>(examples));
  report.Count("test_points", static_cast<double>(eval.points.size()));
  report.Count("facts_scored", static_cast<double>(facts_scored));
  report.Count("tokens_per_example_x1000",
               std::round(tokens_per_example * 1000.0));

  const double train_median = Median(train_s);
  report.Detail("train_examples_per_s",
                static_cast<double>(examples) / train_median, "ex/s");
  report.Detail("train_s", train_median, "s");
  report.Detail("test_ndcg10", eval.ndcg10, "ndcg");
  report.Detail("reps", static_cast<double>(train_s.size()), "count");

  if (!options.trace) {
    AddEndToEnd(report, Median(setup_times), peak_rss_mb,
                static_cast<double>(examples) / train_median,
                train_median * 1e3);
    return report;
  }

  const double traced_n =
      std::max<double>(1.0, static_cast<double>(traced_train_s.size()));
  const std::vector<double> step_us = ProbeFinetuneStep(wb, *ranker, tracer);
  report.Add("ml.finetune_step_us", Median(step_us), "us");
  report.Add("ml.adam_step_ms",
             HistogramMeanFromJson(registry.ToJson(),
                                   "train.adam_step_seconds") * 1e3,
             "ms");
  report.Add("learnshapley.pretrain_s",
             registry.SpanAt({"train", "train.pretrain"}).total_seconds /
                 traced_n,
             "s");
  report.Add("learnshapley.finetune_s",
             registry.SpanAt({"train", "train.finetune"}).total_seconds /
                 traced_n,
             "s");
  report.Add("learnshapley.examples",
             static_cast<double>(
                 registry.CounterValue("train.pretrain_examples") +
                 registry.CounterValue("train.finetune_examples")) /
                 traced_n,
             "count");
  report.Add("learnshapley.eval_points_per_s",
             static_cast<double>(eval.points.size()) / eval_s, "1/s");
  report.Add("trace.overhead_pct",
             (Median(traced_train_s) - train_median) / train_median * 100.0,
             "%");
  ProbeRanker(*wb.data.db, *ranker, keys, report, tracer);
  return report;
}

}  // namespace perfbench
}  // namespace lshap
