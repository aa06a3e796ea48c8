#ifndef LSHAP_ML_LAYERS_H_
#define LSHAP_ML_LAYERS_H_

#include <deque>
#include <vector>

#include "ml/tensor.h"

namespace lshap {

// A trainable weight with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;

  void Init(Tensor v) {
    grad = Tensor::Zeros(v.rows(), v.cols());
    value = std::move(v);
  }
  void ZeroGrad() { grad.Zero(); }
};

// Caller-provided activation workspace for the const forwards. Get() hands
// out zeroed, reusable tensor slots; Reset() recycles them all without
// freeing. Slots live in a deque so references stay valid as more are
// acquired. One arena per thread — the layers themselves stay untouched,
// which is what makes a single snapshot ranker shareable across workers.
class InferenceArena {
 public:
  Tensor& Get(size_t rows, size_t cols) {
    if (next_ == slots_.size()) slots_.emplace_back();
    Tensor& t = slots_[next_++];
    t.Resize(rows, cols);
    return t;
  }
  void Reset() { next_ = 0; }

 private:
  std::deque<Tensor> slots_;
  size_t next_ = 0;
};

// Activation tapes. Every layer has one const forward; training passes a
// tape, inference passes null. A tape only holds views of activations that
// live in the forward's arena (or the caller's input), so the arena must not
// be Reset — and the input must stay alive and unmodified — until Backward
// has consumed the tape.
struct LinearTape {
  const Tensor* x = nullptr;
};

struct LayerNormTape {
  const Tensor* xhat = nullptr;
  const Tensor* rstd = nullptr;  // n×1
};

struct GeluTape {
  const Tensor* x = nullptr;
};

struct AttentionTape {
  LinearTape q_proj, k_proj, v_proj, out_proj;
  const Tensor* q = nullptr;
  const Tensor* k = nullptr;
  const Tensor* v = nullptr;
  std::vector<const Tensor*> attn;  // per-head n×n softmax weights
};

struct TransformerLayerTape {
  LayerNormTape ln1, ln2;
  AttentionTape attn;
  LinearTape ffn1, ffn2;
  GeluTape gelu;
};

// Affine map y = x·W + b.
class Linear {
 public:
  Linear() = default;
  Linear(size_t in, size_t out, Rng& rng);

  void Forward(const Tensor& x, Tensor& y, LinearTape* tape) const;
  // Accumulates parameter grads; returns dL/dx.
  Tensor Backward(const LinearTape& tape, const Tensor& dy);

  void CollectParams(std::vector<Param*>& out);

  const Param& w() const { return w_; }
  const Param& b() const { return b_; }

 private:
  Param w_;  // in×out
  Param b_;  // 1×out
};

// Learned token/position embedding table. The encoder's forward reads the
// table directly; Backward scatters row gradients for the looked-up ids.
class Embedding {
 public:
  Embedding() = default;
  Embedding(size_t vocab, size_t dim, Rng& rng);

  void Backward(const std::vector<int>& ids, const Tensor& dy);

  void CollectParams(std::vector<Param*>& out);

  size_t vocab_size() const { return table_.value.rows(); }
  const Tensor& table() const { return table_.value; }

 private:
  Param table_;  // vocab×dim
};

// Layer normalization over the feature dimension with learned gain/bias.
class LayerNorm {
 public:
  LayerNorm() = default;
  explicit LayerNorm(size_t dim);

  void Forward(const Tensor& x, InferenceArena& arena, Tensor& y,
               LayerNormTape* tape) const;
  Tensor Backward(const LayerNormTape& tape, const Tensor& dy);

  void CollectParams(std::vector<Param*>& out);

  const Tensor& gamma() const { return gamma_.value; }
  const Tensor& beta() const { return beta_.value; }

 private:
  Param gamma_;  // 1×dim
  Param beta_;   // 1×dim
};

// GELU activation (tanh approximation). Stateless.
struct Gelu {
  static void Forward(const Tensor& x, Tensor& y, GeluTape* tape);
  static Tensor Backward(const GeluTape& tape, const Tensor& dy);
};

// One head's scaled, masked attention scores into the n×n `scores`:
// s[i][j] = (q_i · k_j)/√head_dim over columns [off, off + head_dim) of the
// n×dim q and k, or -1e30 where !mask[j]. Shared by the float and the
// quantized attention.
void AttentionScores(const Tensor& q, const Tensor& k, size_t off,
                     size_t head_dim, const std::vector<bool>& mask,
                     Tensor& scores);

// Multi-head scaled-dot-product self-attention with padding mask.
class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention() = default;
  MultiHeadSelfAttention(size_t dim, size_t num_heads, Rng& rng);

  // mask[i] == true means position i is a real token; padded positions are
  // excluded as keys (they still produce outputs which downstream ignores).
  // Intermediate activations come from `arena`, the result lands in `out`.
  void Forward(const Tensor& x, const std::vector<bool>& mask,
               InferenceArena& arena, Tensor& out, AttentionTape* tape) const;
  Tensor Backward(const AttentionTape& tape, const Tensor& dy);

  void CollectParams(std::vector<Param*>& out);

  size_t num_heads() const { return num_heads_; }
  size_t head_dim() const { return head_dim_; }
  const Linear& q_proj() const { return q_proj_; }
  const Linear& k_proj() const { return k_proj_; }
  const Linear& v_proj() const { return v_proj_; }
  const Linear& out_proj() const { return out_proj_; }

 private:
  size_t dim_ = 0;
  size_t num_heads_ = 0;
  size_t head_dim_ = 0;
  Linear q_proj_, k_proj_, v_proj_, out_proj_;
};

// One pre-LayerNorm transformer encoder block:
//   x ← x + Attn(LN1(x));  x ← x + FFN(LN2(x)).
class TransformerLayer {
 public:
  TransformerLayer() = default;
  TransformerLayer(size_t dim, size_t num_heads, size_t ffn_dim, Rng& rng);

  void Forward(const Tensor& x, const std::vector<bool>& mask,
               InferenceArena& arena, Tensor& out,
               TransformerLayerTape* tape) const;
  Tensor Backward(const TransformerLayerTape& tape, const Tensor& dy);

  void CollectParams(std::vector<Param*>& out);

  const LayerNorm& ln1() const { return ln1_; }
  const LayerNorm& ln2() const { return ln2_; }
  const MultiHeadSelfAttention& attn() const { return attn_; }
  const Linear& ffn1() const { return ffn1_; }
  const Linear& ffn2() const { return ffn2_; }

 private:
  LayerNorm ln1_, ln2_;
  MultiHeadSelfAttention attn_;
  Linear ffn1_, ffn2_;
};

}  // namespace lshap

#endif  // LSHAP_ML_LAYERS_H_
