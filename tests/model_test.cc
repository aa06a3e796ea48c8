// Unit tests of the LearnShapley model wrapper: heads, training steps,
// weight snapshots, determinism and copy independence.
#include <gtest/gtest.h>

#include "learnshapley/model.h"

namespace lshap {
namespace {

EncoderConfig TinyConfig() {
  EncoderConfig cfg;
  cfg.vocab_size = 32;
  cfg.max_len = 12;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_dim = 16;
  return cfg;
}

EncodedPair MakeInput(std::initializer_list<int> ids) {
  EncodedPair p;
  p.ids.assign(ids);
  p.mask.assign(p.ids.size(), true);
  return p;
}

float Predict(const LearnShapleyModel& m, const EncodedPair& input) {
  InferenceArena arena;
  return m.PredictShapley(input, arena);
}

LearnShapleyModel::Similarities PredictSims(const LearnShapleyModel& m,
                                            const EncodedPair& input) {
  InferenceArena arena;
  return m.PredictSimilarities(input, arena);
}

TEST(ModelTest, DeterministicConstruction) {
  LearnShapleyModel a(TinyConfig(), 42);
  LearnShapleyModel b(TinyConfig(), 42);
  const EncodedPair input = MakeInput({1, 5, 6, 2, 7});
  EXPECT_FLOAT_EQ(Predict(a, input), Predict(b, input));
  const auto sa = PredictSims(a, input);
  const auto sb = PredictSims(b, input);
  EXPECT_FLOAT_EQ(sa.rank, sb.rank);
  EXPECT_FLOAT_EQ(sa.witness, sb.witness);
  EXPECT_FLOAT_EQ(sa.syntax, sb.syntax);
}

TEST(ModelTest, DifferentSeedsGiveDifferentModels) {
  LearnShapleyModel a(TinyConfig(), 1);
  LearnShapleyModel b(TinyConfig(), 2);
  const EncodedPair input = MakeInput({1, 5, 6, 2, 7});
  EXPECT_NE(Predict(a, input), Predict(b, input));
}

TEST(ModelTest, FinetuneStepAccumulatesGradients) {
  LearnShapleyModel m(TinyConfig(), 3);
  const EncodedPair input = MakeInput({1, 5, 6, 2});
  const float loss = m.FinetuneStep(input, 10.0f);
  EXPECT_GT(loss, 0.0f);
  double grad_norm = 0.0;
  for (Param* p : m.Params()) {
    for (size_t i = 0; i < p->grad.size(); ++i) {
      grad_norm += static_cast<double>(p->grad.data()[i]) *
                   p->grad.data()[i];
    }
  }
  EXPECT_GT(grad_norm, 0.0);
}

TEST(ModelTest, PretrainStepRespectsObjectiveMask) {
  LearnShapleyModel m(TinyConfig(), 4);
  const EncodedPair input = MakeInput({1, 5, 2, 6});
  // With only the syntax objective enabled, the loss is exactly the syntax
  // head's squared error — the other heads' (large) targets are ignored.
  const auto sims = PredictSims(m, input);
  PretrainObjectives only_syntax{false, false, true};
  const float loss = m.PretrainStep(input, /*sim_rank=*/1e3, /*sim_witness=*/
                                    1e3, /*sim_syntax=*/0.25, only_syntax);
  const float expected = (sims.syntax - 0.25f) * (sims.syntax - 0.25f);
  EXPECT_NEAR(loss, expected, 1e-4f);

  // Enabling the rank head with its huge target must blow the loss up.
  for (Param* p : m.Params()) p->ZeroGrad();
  PretrainObjectives rank_too{true, false, true};
  const float bigger = m.PretrainStep(input, 1e3, 1e3, 0.25, rank_too);
  EXPECT_GT(bigger, loss + 1e4f);
}

TEST(ModelTest, SnapshotRestoreRoundTrip) {
  LearnShapleyModel m(TinyConfig(), 5);
  const EncodedPair input = MakeInput({1, 5, 6, 2});
  const float before = Predict(m, input);
  const auto snapshot = m.SnapshotWeights();

  // Crudely perturb every weight.
  for (Param* p : m.Params()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += 0.5f;
    }
  }
  EXPECT_NE(Predict(m, input), before);

  m.RestoreWeights(snapshot);
  EXPECT_FLOAT_EQ(Predict(m, input), before);
}

TEST(ModelTest, CopyIsIndependent) {
  LearnShapleyModel a(TinyConfig(), 6);
  LearnShapleyModel b = a;
  const EncodedPair input = MakeInput({1, 5, 6, 2});
  const float before = Predict(b, input);
  // Train the original; the copy must not move.
  a.FinetuneStep(input, 100.0f);
  for (Param* p : a.Params()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += 0.1f;
    }
  }
  EXPECT_FLOAT_EQ(Predict(b, input), before);
  EXPECT_NE(Predict(a, input), before);
}

TEST(ModelTest, ParamsCoverEncoderAndHeads) {
  LearnShapleyModel m(TinyConfig(), 7);
  // Encoder params plus 4 heads × (W, b).
  const size_t encoder_params =
      TransformerEncoder(TinyConfig()).Params().size();
  EXPECT_EQ(m.Params().size(), encoder_params + 8);
}

TEST(ModelTest, RepeatedFinetuneOnOneSampleDrivesLossDown) {
  // Mini sanity: a tiny Adam loop on a single (input, target) pair must
  // overfit it.
  LearnShapleyModel m(TinyConfig(), 8);
  const EncodedPair input = MakeInput({1, 5, 6, 2, 9, 9});
  AdamConfig acfg;
  acfg.lr = 1e-2f;
  Adam opt(m.Params(), acfg);
  float first = 0.0f;
  float last = 0.0f;
  for (int step = 0; step < 150; ++step) {
    last = m.FinetuneStep(input, 42.0f);
    if (step == 0) first = last;
    opt.Step();
  }
  EXPECT_LT(last, first / 100.0f);
}

}  // namespace
}  // namespace lshap
