#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/fileio.h"
#include "corpus/corpus.h"
#include "datasets/imdb.h"
#include "learnshapley/model_io.h"
#include "learnshapley/trainer.h"
#include "ml/quant.h"

namespace lshap {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  ModelIoTest() : data_(MakeImdbDatabase({})), pool_(2) {
    CorpusConfig cfg;
    cfg.seed = 12;
    cfg.num_base_queries = 8;
    cfg.max_outputs_per_query = 6;
    cfg.query_gen.max_tables = 3;
    corpus_ = BuildCorpus(*data_.db, data_.graph, cfg, pool_);
    sims_ = ComputeSimilarityMatrices(corpus_, 6, pool_);
    path_ = ::testing::TempDir() + "/model_io_test.lshapm";
  }
  ~ModelIoTest() override { std::remove(path_.c_str()); }

  TrainResult QuickTrain() {
    TrainConfig cfg;
    cfg.do_pretrain = false;
    cfg.finetune_epochs = 1;
    cfg.finetune_samples_per_epoch = 64;
    cfg.batch_size = 32;
    cfg.seed = 13;
    return TrainLearnShapley(corpus_, sims_, cfg, pool_);
  }

  GeneratedDb data_;
  ThreadPool pool_;
  Corpus corpus_;
  SimilarityMatrices sims_;
  std::string path_;
};

TEST_F(ModelIoTest, SaveLoadPredictionsBitIdentical) {
  TrainResult trained = QuickTrain();
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());
  auto loaded = LoadRanker(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), trained.ranker->name());

  for (size_t e : corpus_.test_idx) {
    const auto a = trained.ranker->Score(corpus_, e, 0);
    const auto b = (*loaded)->Score(corpus_, e, 0);
    ASSERT_EQ(a.size(), b.size());
    // Scores may differ by the (monotone) shapley_scale factor; the ranking
    // must be identical and the underlying model outputs proportional.
    EXPECT_EQ(RankByScore(a), RankByScore(b));
    break;
  }
}

TEST_F(ModelIoTest, RawModelOutputsExactlyPreserved) {
  TrainResult trained = QuickTrain();
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());
  auto loaded = LoadRanker(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Compare the raw head output on a fixed encoded input.
  EncodedPair input;
  input.ids = {Vocab::kCls, 7, 9, Vocab::kSep, 11};
  input.mask.assign(input.ids.size(), true);
  InferenceArena arena;
  EXPECT_FLOAT_EQ(trained.ranker->model().PredictShapley(input, arena),
                  (*loaded)->model().PredictShapley(input, arena));
}

TEST_F(ModelIoTest, LoadRejectsGarbage) {
  {
    std::ofstream out(path_);
    out << "definitely not a model\n";
  }
  EXPECT_FALSE(LoadRanker(path_).ok());
  EXPECT_FALSE(LoadRanker(path_ + ".missing").ok());
}

TEST_F(ModelIoTest, SaveIsAtomicAndRecoversFromKilledWriter) {
  // A writer killed mid-save leaves only a temp file; the final path never
  // holds a partial model.
  {
    std::ofstream out(TempWritePath(path_));
    out << "LSHAPM partial garbage from a dead process";
  }
  EXPECT_FALSE(LoadRanker(path_).ok());  // nothing committed

  TrainResult trained = QuickTrain();
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());
  // The save overwrote the stale temp, committed via rename, and cleaned up.
  auto loaded = LoadRanker(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::ifstream tmp(TempWritePath(path_));
  EXPECT_FALSE(tmp.good());
}

TEST_F(ModelIoTest, QuantizedSectionRoundTrips) {
  TrainResult trained = QuickTrain();
  trained.ranker->Configure(
      RankerConfig{}.WithMode(InferenceMode::kQuantized));
  ASSERT_NE(trained.ranker->quantized_model(), nullptr);
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());

  auto loaded = LoadRanker(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->config().mode, InferenceMode::kQuantized);
  ASSERT_NE((*loaded)->quantized_model(), nullptr);

  // The int8 weights, scales and biases round-trip losslessly: identical
  // quantized predictions on a fixed input.
  EncodedPair input;
  input.ids = {Vocab::kCls, 7, 9, Vocab::kSep, 11};
  input.mask.assign(input.ids.size(), true);
  QuantScratch a, b;
  EXPECT_EQ(trained.ranker->quantized_model()->PredictShapley(input, a),
            (*loaded)->quantized_model()->PredictShapley(input, b));

  // And so do the float weights next to them.
  InferenceArena arena;
  EXPECT_EQ(trained.ranker->model().PredictShapley(input, arena),
            (*loaded)->model().PredictShapley(input, arena));
}

TEST_F(ModelIoTest, CorruptedQuantSectionIsRejected) {
  TrainResult trained = QuickTrain();
  trained.ranker->Configure(
      RankerConfig{}.WithMode(InferenceMode::kQuantized));
  ASSERT_TRUE(SaveRanker(*trained.ranker, path_).ok());

  // Flip one int8 weight in the stored text. The per-line parse still
  // succeeds — only the FNV-1a checksum can catch it.
  std::string contents;
  {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    contents = ss.str();
  }
  const size_t pos = contents.find("\nqweights ");
  ASSERT_NE(pos, std::string::npos);
  const size_t val_pos = pos + std::string("\nqweights ").size();
  // Replace the first weight with a different in-range value.
  const size_t val_end = contents.find_first_of(" \n", val_pos);
  const int old_val = std::atoi(contents.substr(val_pos).c_str());
  const int new_val = old_val == 13 ? 14 : 13;
  contents.replace(val_pos, val_end - val_pos, std::to_string(new_val));
  {
    std::ofstream out(path_);
    out << contents;
  }

  auto loaded = LoadRanker(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace lshap
