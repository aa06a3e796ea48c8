#include "learnshapley/model.h"

namespace lshap {

LearnShapleyModel::LearnShapleyModel(const EncoderConfig& encoder_config,
                                     uint64_t seed) {
  EncoderConfig cfg = encoder_config;
  cfg.seed = seed;
  encoder_ = TransformerEncoder(cfg);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  head_rank_ = Linear(cfg.dim, 1, rng);
  head_witness_ = Linear(cfg.dim, 1, rng);
  head_syntax_ = Linear(cfg.dim, 1, rng);
  head_shapley_ = Linear(cfg.dim, 1, rng);
}

namespace {

// dL/d(hidden) for a loss that reads only the [CLS] row.
Tensor ClsGradientToHidden(const Tensor& d_cls, size_t rows) {
  Tensor d_hidden(rows, d_cls.cols());
  std::copy(d_cls.row_data(0), d_cls.row_data(0) + d_cls.cols(),
            d_hidden.row_data(0));
  return d_hidden;
}

}  // namespace

const Tensor& LearnShapleyModel::EncodeCls(const EncodedPair& input,
                                           InferenceArena& arena,
                                           EncoderTape* tape) const {
  arena.Reset();
  Tensor& hidden = arena.Get(input.ids.size(), encoder_.config().dim);
  encoder_.Forward(input.ids, input.mask, arena, hidden, tape);
  Tensor& cls = arena.Get(1, hidden.cols());
  std::copy(hidden.row_data(0), hidden.row_data(0) + hidden.cols(),
            cls.row_data(0));
  return cls;
}

float LearnShapleyModel::PretrainStep(const EncodedPair& pair,
                                      double sim_rank, double sim_witness,
                                      double sim_syntax,
                                      const PretrainObjectives& objectives) {
  const Tensor& cls = EncodeCls(pair, step_arena_, &step_tape_);

  float loss = 0.0f;
  Tensor d_cls(1, cls.cols());
  auto run_head = [&](Linear& head, double target) {
    LinearTape head_tape;
    Tensor& pred = step_arena_.Get(1, 1);
    head.Forward(cls, pred, &head_tape);
    const float err = pred.at(0, 0) - static_cast<float>(target);
    loss += err * err;
    Tensor d_pred(1, 1);
    d_pred.at(0, 0) = 2.0f * err;
    d_cls.Add(head.Backward(head_tape, d_pred));
  };
  if (objectives.rank) run_head(head_rank_, sim_rank);
  if (objectives.witness) run_head(head_witness_, sim_witness);
  if (objectives.syntax) run_head(head_syntax_, sim_syntax);

  encoder_.Backward(step_tape_, ClsGradientToHidden(d_cls, pair.ids.size()));
  return loss;
}

LearnShapleyModel::Similarities LearnShapleyModel::PredictSimilarities(
    const EncodedPair& pair, InferenceArena& arena) const {
  const Tensor& cls = EncodeCls(pair, arena, nullptr);
  auto run_head = [&](const Linear& head) {
    Tensor& pred = arena.Get(1, 1);
    head.Forward(cls, pred, nullptr);
    return pred.at(0, 0);
  };
  Similarities out;
  out.rank = run_head(head_rank_);
  out.witness = run_head(head_witness_);
  out.syntax = run_head(head_syntax_);
  return out;
}

float LearnShapleyModel::FinetuneStep(const EncodedPair& input, float target) {
  const Tensor& cls = EncodeCls(input, step_arena_, &step_tape_);
  LinearTape head_tape;
  Tensor& pred = step_arena_.Get(1, 1);
  head_shapley_.Forward(cls, pred, &head_tape);
  const float err = pred.at(0, 0) - target;

  Tensor d_pred(1, 1);
  d_pred.at(0, 0) = 2.0f * err;
  const Tensor d_cls = head_shapley_.Backward(head_tape, d_pred);
  encoder_.Backward(step_tape_, ClsGradientToHidden(d_cls, input.ids.size()));
  return err * err;
}

float LearnShapleyModel::PredictShapley(const EncodedPair& input,
                                        InferenceArena& arena) const {
  const Tensor& cls = EncodeCls(input, arena, nullptr);
  Tensor& pred = arena.Get(1, 1);
  head_shapley_.Forward(cls, pred, nullptr);
  return pred.at(0, 0);
}

std::vector<Param*> LearnShapleyModel::Params() {
  std::vector<Param*> params = encoder_.Params();
  head_rank_.CollectParams(params);
  head_witness_.CollectParams(params);
  head_syntax_.CollectParams(params);
  head_shapley_.CollectParams(params);
  return params;
}

std::vector<Tensor> LearnShapleyModel::SnapshotWeights() {
  std::vector<Tensor> out;
  for (Param* p : Params()) out.push_back(p->value);
  return out;
}

void LearnShapleyModel::RestoreWeights(const std::vector<Tensor>& snapshot) {
  std::vector<Param*> params = Params();
  LSHAP_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snapshot[i];
  }
}

// ------------------------------------------------- QuantizedShapleyModel

QuantizedShapleyModel QuantizedShapleyModel::FromModel(
    const LearnShapleyModel& model) {
  QuantizedShapleyModel q;
  q.encoder_ = QuantizedEncoder::FromEncoder(model.encoder());
  q.head_shapley_ = QuantizedLinear::FromFloat(
      model.head_shapley().w().value, model.head_shapley().b().value);
  return q;
}

float QuantizedShapleyModel::PredictShapley(const EncodedPair& input,
                                            QuantScratch& scratch) const {
  scratch.Reset();
  Tensor& hidden =
      scratch.arena.Get(input.ids.size(), encoder_.config().dim);
  encoder_.Forward(input.ids, input.mask, scratch, hidden);
  // [CLS] row → quantize → Shapley head.
  int8_t* qx = scratch.Row(head_shapley_.in_pad());
  float act_scale = 0.0f;
  SimdKernels().quantize_row(hidden.row_data(0), hidden.cols(), qx,
                             &act_scale);
  float pred = 0.0f;
  head_shapley_.Forward(qx, act_scale, &pred);
  return pred;
}

std::vector<const QuantizedLinear*> QuantizedShapleyModel::AllLinears() const {
  std::vector<const QuantizedLinear*> out = encoder_.AllLinears();
  out.push_back(&head_shapley_);
  return out;
}

std::vector<QuantizedLinear*> QuantizedShapleyModel::MutableLinears() {
  std::vector<QuantizedLinear*> out = encoder_.MutableLinears();
  out.push_back(&head_shapley_);
  return out;
}

}  // namespace lshap
