#include "ml/layers.h"

#include <cmath>

namespace lshap {

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}  // namespace

// ---------------------------------------------------------------- Linear

Linear::Linear(size_t in, size_t out, Rng& rng) {
  // Xavier-style init.
  const float stddev = std::sqrt(2.0f / static_cast<float>(in + out));
  w_.Init(Tensor::Randn(in, out, stddev, rng));
  b_.Init(Tensor::Zeros(1, out));
}

void Linear::Forward(const Tensor& x, Tensor& y, LinearTape* tape) const {
  if (tape != nullptr) tape->x = &x;
  MatMulInto(x, w_.value, y);
  AddRowBroadcast(y, b_.value);
}

Tensor Linear::Backward(const LinearTape& tape, const Tensor& dy) {
  // dW = xᵀ·dy ; db = column sums of dy ; dx = dy·Wᵀ.
  Tensor dw = MatMulATB(*tape.x, dy);
  w_.grad.Add(dw);
  for (size_t r = 0; r < dy.rows(); ++r) {
    const float* row = dy.row_data(r);
    float* g = b_.grad.row_data(0);
    for (size_t c = 0; c < dy.cols(); ++c) g[c] += row[c];
  }
  return MatMulABT(dy, w_.value);
}

void Linear::CollectParams(std::vector<Param*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

// ------------------------------------------------------------- Embedding

Embedding::Embedding(size_t vocab, size_t dim, Rng& rng) {
  table_.Init(Tensor::Randn(vocab, dim, 0.02f, rng));
}

void Embedding::Backward(const std::vector<int>& ids, const Tensor& dy) {
  LSHAP_CHECK_EQ(dy.rows(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    float* g = table_.grad.row_data(static_cast<size_t>(ids[i]));
    const float* src = dy.row_data(i);
    for (size_t c = 0; c < dy.cols(); ++c) g[c] += src[c];
  }
}

void Embedding::CollectParams(std::vector<Param*>& out) {
  out.push_back(&table_);
}

// ------------------------------------------------------------- LayerNorm

LayerNorm::LayerNorm(size_t dim) {
  Tensor ones(1, dim);
  ones.Fill(1.0f);
  gamma_.Init(std::move(ones));
  beta_.Init(Tensor::Zeros(1, dim));
}

void LayerNorm::Forward(const Tensor& x, InferenceArena& arena, Tensor& y,
                        LayerNormTape* tape) const {
  const size_t n = x.rows();
  const size_t d = x.cols();
  y.Resize(n, d);
  Tensor* xhat = nullptr;
  Tensor* rstds = nullptr;
  if (tape != nullptr) {
    xhat = &arena.Get(n, d);
    rstds = &arena.Get(n, 1);
    tape->xhat = xhat;
    tape->rstd = rstds;
  }
  for (size_t r = 0; r < n; ++r) {
    const float* row = x.row_data(r);
    float mean = 0.0f;
    for (size_t c = 0; c < d; ++c) mean += row[c];
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (size_t c = 0; c < d; ++c) {
      const float diff = row[c] - mean;
      var += diff * diff;
    }
    var /= static_cast<float>(d);
    const float rstd = 1.0f / std::sqrt(var + 1e-5f);
    float* out = y.row_data(r);
    float* xh_row = xhat != nullptr ? xhat->row_data(r) : nullptr;
    if (rstds != nullptr) rstds->at(r, 0) = rstd;
    const float* g = gamma_.value.row_data(0);
    const float* b = beta_.value.row_data(0);
    for (size_t c = 0; c < d; ++c) {
      const float xh = (row[c] - mean) * rstd;
      if (xh_row != nullptr) xh_row[c] = xh;
      out[c] = xh * g[c] + b[c];
    }
  }
}

Tensor LayerNorm::Backward(const LayerNormTape& tape, const Tensor& dy) {
  const size_t n = dy.rows();
  const size_t d = dy.cols();
  Tensor dx(n, d);
  const float* g = gamma_.value.row_data(0);
  for (size_t r = 0; r < n; ++r) {
    const float* dyr = dy.row_data(r);
    const float* xh = tape.xhat->row_data(r);
    float* gg = gamma_.grad.row_data(0);
    float* bg = beta_.grad.row_data(0);
    float sum_dxhat = 0.0f;
    float sum_dxhat_xhat = 0.0f;
    for (size_t c = 0; c < d; ++c) {
      gg[c] += dyr[c] * xh[c];
      bg[c] += dyr[c];
      const float dxhat = dyr[c] * g[c];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xh[c];
    }
    const float inv_d = 1.0f / static_cast<float>(d);
    float* dxr = dx.row_data(r);
    for (size_t c = 0; c < d; ++c) {
      const float dxhat = dyr[c] * g[c];
      dxr[c] = tape.rstd->at(r, 0) *
               (dxhat - inv_d * sum_dxhat - xh[c] * inv_d * sum_dxhat_xhat);
    }
  }
  return dx;
}

void LayerNorm::CollectParams(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

// ------------------------------------------------------------------ Gelu

void Gelu::Forward(const Tensor& x, Tensor& y, GeluTape* tape) {
  if (tape != nullptr) tape->x = &x;
  y.Resize(x.rows(), x.cols());
  for (size_t i = 0; i < x.size(); ++i) {
    const float v = x.data()[i];
    const float t = std::tanh(kGeluC * (v + 0.044715f * v * v * v));
    y.data()[i] = 0.5f * v * (1.0f + t);
  }
}

Tensor Gelu::Backward(const GeluTape& tape, const Tensor& dy) {
  Tensor dx(dy.rows(), dy.cols());
  for (size_t i = 0; i < dy.size(); ++i) {
    const float v = tape.x->data()[i];
    const float u = kGeluC * (v + 0.044715f * v * v * v);
    const float t = std::tanh(u);
    const float sech2 = 1.0f - t * t;
    const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
    const float grad = 0.5f * (1.0f + t) + 0.5f * v * sech2 * du;
    dx.data()[i] = dy.data()[i] * grad;
  }
  return dx;
}

// -------------------------------------------------- MultiHeadSelfAttention

void AttentionScores(const Tensor& q, const Tensor& k, size_t off,
                     size_t head_dim, const std::vector<bool>& mask,
                     Tensor& scores) {
  const size_t n = q.rows();
  GemmABT(n, head_dim, n, q.data() + off, q.cols(), k.data() + off, k.cols(),
          scores.data(), n);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  for (size_t i = 0; i < n; ++i) {
    float* srow = scores.row_data(i);
    for (size_t j = 0; j < n; ++j) {
      srow[j] = mask[j] ? srow[j] * scale : -1e30f;
    }
  }
}

MultiHeadSelfAttention::MultiHeadSelfAttention(size_t dim, size_t num_heads,
                                               Rng& rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      q_proj_(dim, dim, rng),
      k_proj_(dim, dim, rng),
      v_proj_(dim, dim, rng),
      out_proj_(dim, dim, rng) {
  LSHAP_CHECK_EQ(head_dim_ * num_heads_, dim_);
}

void MultiHeadSelfAttention::Forward(const Tensor& x,
                                     const std::vector<bool>& mask,
                                     InferenceArena& arena, Tensor& out,
                                     AttentionTape* tape) const {
  const size_t n = x.rows();
  Tensor& q = arena.Get(n, dim_);
  Tensor& k = arena.Get(n, dim_);
  Tensor& v = arena.Get(n, dim_);
  q_proj_.Forward(x, q, tape != nullptr ? &tape->q_proj : nullptr);
  k_proj_.Forward(x, k, tape != nullptr ? &tape->k_proj : nullptr);
  v_proj_.Forward(x, v, tape != nullptr ? &tape->v_proj : nullptr);
  if (tape != nullptr) {
    tape->q = &q;
    tape->k = &k;
    tape->v = &v;
    tape->attn.assign(num_heads_, nullptr);
  }

  Tensor& concat = arena.Get(n, dim_);
  // Inference reuses one score buffer across heads; training keeps every
  // head's softmax weights for the backward pass.
  Tensor* shared_scores = tape != nullptr ? nullptr : &arena.Get(n, n);
  for (size_t h = 0; h < num_heads_; ++h) {
    const size_t off = h * head_dim_;
    Tensor& scores = tape != nullptr ? arena.Get(n, n) : *shared_scores;
    AttentionScores(q, k, off, head_dim_, mask, scores);
    // Row softmax.
    for (size_t i = 0; i < n; ++i) {
      float* srow = scores.row_data(i);
      float max_v = -1e30f;
      for (size_t j = 0; j < n; ++j) max_v = std::max(max_v, srow[j]);
      float sum = 0.0f;
      for (size_t j = 0; j < n; ++j) {
        srow[j] = std::exp(srow[j] - max_v);
        sum += srow[j];
      }
      const float inv = 1.0f / sum;
      for (size_t j = 0; j < n; ++j) srow[j] *= inv;
    }
    // Head output P·V_h, written into the concat slice.
    Gemm(n, n, head_dim_, scores.data(), n, v.data() + off, dim_,
         concat.data() + off, dim_);
    if (tape != nullptr) tape->attn[h] = &scores;
  }
  out_proj_.Forward(concat, out, tape != nullptr ? &tape->out_proj : nullptr);
}

Tensor MultiHeadSelfAttention::Backward(const AttentionTape& tape,
                                        const Tensor& dy) {
  const size_t n = dy.rows();
  Tensor d_concat = out_proj_.Backward(tape.out_proj, dy);

  Tensor dq(n, dim_);
  Tensor dk(n, dim_);
  Tensor dv(n, dim_);
  Tensor d_attn(n, n);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  for (size_t h = 0; h < num_heads_; ++h) {
    const size_t off = h * head_dim_;
    const Tensor& attn = *tape.attn[h];
    const float* d_out = d_concat.data() + off;

    // d_attn = dO_h·V_hᵀ;  dV_h = Pᵀ·dO_h.
    GemmABT(n, head_dim_, n, d_out, dim_, tape.v->data() + off, dim_,
            d_attn.data(), n);
    GemmATB(n, n, head_dim_, attn.data(), n, d_out, dim_, dv.data() + off,
            dim_);
    // Softmax backward per row, with the score scale folded in:
    // dS = a ⊙ (d_attn − Σ_j a_j d_attn_j) · scale.
    for (size_t i = 0; i < n; ++i) {
      const float* arow = attn.row_data(i);
      float* darow = d_attn.row_data(i);
      float dot = 0.0f;
      for (size_t j = 0; j < n; ++j) dot += arow[j] * darow[j];
      for (size_t j = 0; j < n; ++j) {
        darow[j] = arow[j] * (darow[j] - dot) * scale;
      }
    }
    // dQ_h = dS·K_h;  dK_h = dSᵀ·Q_h.
    Gemm(n, n, head_dim_, d_attn.data(), n, tape.k->data() + off, dim_,
         dq.data() + off, dim_);
    GemmATB(n, n, head_dim_, d_attn.data(), n, tape.q->data() + off, dim_,
            dk.data() + off, dim_);
  }

  Tensor dx = q_proj_.Backward(tape.q_proj, dq);
  dx.Add(k_proj_.Backward(tape.k_proj, dk));
  dx.Add(v_proj_.Backward(tape.v_proj, dv));
  return dx;
}

void MultiHeadSelfAttention::CollectParams(std::vector<Param*>& out) {
  q_proj_.CollectParams(out);
  k_proj_.CollectParams(out);
  v_proj_.CollectParams(out);
  out_proj_.CollectParams(out);
}

// ------------------------------------------------------- TransformerLayer

TransformerLayer::TransformerLayer(size_t dim, size_t num_heads,
                                   size_t ffn_dim, Rng& rng)
    : ln1_(dim),
      ln2_(dim),
      attn_(dim, num_heads, rng),
      ffn1_(dim, ffn_dim, rng),
      ffn2_(ffn_dim, dim, rng) {}

void TransformerLayer::Forward(const Tensor& x, const std::vector<bool>& mask,
                               InferenceArena& arena, Tensor& out,
                               TransformerLayerTape* tape) const {
  const size_t n = x.rows();
  const size_t d = x.cols();
  Tensor& ln1_out = arena.Get(n, d);
  ln1_.Forward(x, arena, ln1_out, tape != nullptr ? &tape->ln1 : nullptr);
  Tensor& attn_out = arena.Get(n, d);
  attn_.Forward(ln1_out, mask, arena, attn_out,
                tape != nullptr ? &tape->attn : nullptr);
  Tensor& h = arena.Get(n, d);
  h = x;
  h.Add(attn_out);

  Tensor& ln2_out = arena.Get(n, d);
  ln2_.Forward(h, arena, ln2_out, tape != nullptr ? &tape->ln2 : nullptr);
  Tensor& ffn1_out = arena.Get(1, 1);
  ffn1_.Forward(ln2_out, ffn1_out, tape != nullptr ? &tape->ffn1 : nullptr);
  Tensor& gelu_out = arena.Get(1, 1);
  Gelu::Forward(ffn1_out, gelu_out, tape != nullptr ? &tape->gelu : nullptr);
  Tensor& ffn2_out = arena.Get(1, 1);
  ffn2_.Forward(gelu_out, ffn2_out, tape != nullptr ? &tape->ffn2 : nullptr);
  out = h;
  out.Add(ffn2_out);
}

Tensor TransformerLayer::Backward(const TransformerLayerTape& tape,
                                  const Tensor& dy) {
  // FFN residual branch.
  Tensor d_ffn = ln2_.Backward(
      tape.ln2,
      ffn1_.Backward(tape.ffn1,
                     Gelu::Backward(tape.gelu, ffn2_.Backward(tape.ffn2, dy))));
  Tensor dh = dy;
  dh.Add(d_ffn);
  // Attention residual branch.
  Tensor d_attn = ln1_.Backward(tape.ln1, attn_.Backward(tape.attn, dh));
  Tensor dx = dh;
  dx.Add(d_attn);
  return dx;
}

void TransformerLayer::CollectParams(std::vector<Param*>& out) {
  ln1_.CollectParams(out);
  ln2_.CollectParams(out);
  attn_.CollectParams(out);
  ffn1_.CollectParams(out);
  ffn2_.CollectParams(out);
}

}  // namespace lshap
