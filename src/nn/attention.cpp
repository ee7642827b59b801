#include "nn/attention.h"

#include <cmath>
#include <numeric>

#include "obs/trace.h"
#include "prof/flops.h"
#include "support/parallel.h"
#include "tensor/ops.h"

namespace clpp::nn {

namespace {

/// Sum of valid key counts across the batch — the `len` factor in every
/// per-(b,h,s) attention loop.
std::uint64_t total_valid(std::span<const int> lengths) {
  return std::accumulate(lengths.begin(), lengths.end(), std::uint64_t{0},
                         [](std::uint64_t acc, int len) {
                           return acc + static_cast<std::uint64_t>(len);
                         });
}

}  // namespace

MultiHeadSelfAttention::MultiHeadSelfAttention(std::string name, std::size_t dim,
                                               std::size_t heads, Rng& rng)
    : dim_(dim),
      heads_(heads),
      q_proj_(name + ".q", dim, dim, rng),
      k_proj_(name + ".k", dim, dim, rng),
      v_proj_(name + ".v", dim, dim, rng),
      o_proj_(name + ".o", dim, dim, rng) {
  CLPP_CHECK_MSG(heads > 0 && dim % heads == 0,
                 "attention dim " << dim << " must be divisible by heads " << heads);
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x, std::size_t batch,
                                       std::size_t seq, std::span<const int> lengths,
                                       bool train, Tensor* attention) const {
  CLPP_TRACE_SPAN("attention.forward");
  CLPP_CHECK_MSG(x.rank() == 2 && x.cols() == dim_ && x.rows() == batch * seq,
                 "attention input " << x.shape_str() << " incompatible with B=" << batch
                                    << " S=" << seq << " d=" << dim_);
  CLPP_CHECK_MSG(lengths.size() == batch, "one length per sample required");

  Tensor q = q_proj_.forward(x, train);
  Tensor k = k_proj_.forward(x, train);
  Tensor v = v_proj_.forward(x, train);

  const std::size_t dh = head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor probs({batch * heads_, seq, seq});
  Tensor context({batch * seq, dim_});

  const std::uint64_t attn_begin_ns = obs::enabled() ? obs::Tracer::now_ns() : 0;
  parallel_for(
      batch * heads_,
      [&](std::size_t bh) {
        const std::size_t b = bh / heads_;
        const std::size_t h = bh % heads_;
        const std::size_t len = static_cast<std::size_t>(lengths[b]);
        const float* qb = q.data() + (b * seq) * dim_ + h * dh;
        const float* kb = k.data() + (b * seq) * dim_ + h * dh;
        const float* vb = v.data() + (b * seq) * dim_ + h * dh;
        float* ctx = context.data() + (b * seq) * dim_ + h * dh;
        float* pb = probs.data() + bh * seq * seq;

        for (std::size_t s = 0; s < seq; ++s) {
          float* prow = pb + s * seq;
          const float* qrow = qb + s * dim_;
          // Scores over valid keys only.
          float mx = -1e30f;
          for (std::size_t t = 0; t < len; ++t) {
            const float* krow = kb + t * dim_;
            float acc = 0.0f;
            for (std::size_t j = 0; j < dh; ++j) acc += qrow[j] * krow[j];
            acc *= scale;
            prow[t] = acc;
            mx = std::max(mx, acc);
          }
          float total = 0.0f;
          for (std::size_t t = 0; t < len; ++t) {
            prow[t] = std::exp(prow[t] - mx);
            total += prow[t];
          }
          const float inv = 1.0f / total;
          for (std::size_t t = 0; t < len; ++t) prow[t] *= inv;
          for (std::size_t t = len; t < seq; ++t) prow[t] = 0.0f;

          float* crow = ctx + s * dim_;
          for (std::size_t j = 0; j < dh; ++j) crow[j] = 0.0f;
          for (std::size_t t = 0; t < len; ++t) {
            const float p = prow[t];
            const float* vrow = vb + t * dim_;
            for (std::size_t j = 0; j < dh; ++j) crow[j] += p * vrow[j];
          }
        }
      },
      2);

  // Roofline accounting for the attention core (QKᵀ scores + softmax + A·V;
  // the linear projections account themselves through the gemm kernel).
  // Per (head, query, valid key): 2·dh score + 2·dh context + ~5 softmax
  // ops; traffic is compulsory — Q/K/V read, probs and context written once.
  if (obs::enabled()) {
    static prof::KernelCounters& kc = prof::kernel_counters("attention");
    prof::record_kernel(
        kc,
        static_cast<std::uint64_t>(heads_) * seq * total_valid(lengths) *
            (4ull * dh + 5ull),
        sizeof(float) * (3ull * batch * seq * dim_ +
                         static_cast<std::uint64_t>(batch) * heads_ * seq * seq +
                         static_cast<std::uint64_t>(batch) * seq * dim_),
        obs::Tracer::now_ns() - attn_begin_ns);
  }

  if (attention != nullptr) *attention = probs;
  if (train) {
    batch_ = batch;
    seq_ = seq;
    lengths_.assign(lengths.begin(), lengths.end());
    q_ = std::move(q);
    k_ = std::move(k);
    v_ = std::move(v);
    probs_ = std::move(probs);
  }
  return o_proj_.forward(context, train);
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_out) {
  CLPP_TRACE_SPAN("attention.backward");
  CLPP_CHECK_MSG(batch_ > 0, "attention backward without forward");
  const std::size_t dh = head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  Tensor d_context = o_proj_.backward(grad_out);
  Tensor dq({batch_ * seq_, dim_});
  Tensor dk({batch_ * seq_, dim_});
  Tensor dv({batch_ * seq_, dim_});

  const std::uint64_t attn_begin_ns = obs::enabled() ? obs::Tracer::now_ns() : 0;
  parallel_for(
      batch_ * heads_,
      [&](std::size_t bh) {
        const std::size_t b = bh / heads_;
        const std::size_t h = bh % heads_;
        const std::size_t len = static_cast<std::size_t>(lengths_[b]);
        const std::size_t off = (b * seq_) * dim_ + h * dh;
        const float* qb = q_.data() + off;
        const float* kb = k_.data() + off;
        const float* vb = v_.data() + off;
        const float* dcb = d_context.data() + off;
        float* dqb = dq.data() + off;
        float* dkb = dk.data() + off;
        float* dvb = dv.data() + off;
        const float* pb = probs_.data() + bh * seq_ * seq_;

        std::vector<float> d_probs(len);
        for (std::size_t s = 0; s < seq_; ++s) {
          const float* prow = pb + s * seq_;
          const float* dcrow = dcb + s * dim_;
          // dV[t] += A[s,t] * dC[s]; dA[s,t] = dot(dC[s], V[t]).
          float dot_pa = 0.0f;
          for (std::size_t t = 0; t < len; ++t) {
            const float* vrow = vb + t * dim_;
            float acc = 0.0f;
            const float p = prow[t];
            float* dvrow = dvb + t * dim_;
            for (std::size_t j = 0; j < dh; ++j) {
              acc += dcrow[j] * vrow[j];
              dvrow[j] += p * dcrow[j];
            }
            d_probs[t] = acc;
            dot_pa += acc * prow[t];
          }
          // Softmax backward: dZ = A ∘ (dA − Σ dA∘A); then through scaling.
          const float* qrow = qb + s * dim_;
          float* dqrow = dqb + s * dim_;
          for (std::size_t t = 0; t < len; ++t) {
            const float dz = prow[t] * (d_probs[t] - dot_pa) * scale;
            if (dz == 0.0f) continue;
            const float* krow = kb + t * dim_;
            float* dkrow = dkb + t * dim_;
            for (std::size_t j = 0; j < dh; ++j) {
              dqrow[j] += dz * krow[j];
              dkrow[j] += dz * qrow[j];
            }
          }
        }
      },
      2);

  // dV/dA accumulation (4·dh) plus dQ/dK through softmax backward (4·dh)
  // per (head, query, valid key); traffic: Q/K/V/probs/dC read, dQ/dK/dV
  // written.
  if (obs::enabled()) {
    static prof::KernelCounters& kc = prof::kernel_counters("attention.backward");
    prof::record_kernel(
        kc,
        static_cast<std::uint64_t>(heads_) * seq_ *
            total_valid({lengths_.data(), lengths_.size()}) * 8ull * dh,
        sizeof(float) * (7ull * batch_ * seq_ * dim_ +
                         static_cast<std::uint64_t>(batch_) * heads_ * seq_ * seq_),
        obs::Tracer::now_ns() - attn_begin_ns);
  }

  Tensor grad_in = q_proj_.backward(dq);
  add_inplace(grad_in, k_proj_.backward(dk));
  add_inplace(grad_in, v_proj_.backward(dv));
  return grad_in;
}

void MultiHeadSelfAttention::collect_parameters(std::vector<Parameter*>& out) {
  q_proj_.collect_parameters(out);
  k_proj_.collect_parameters(out);
  v_proj_.collect_parameters(out);
  o_proj_.collect_parameters(out);
}

}  // namespace clpp::nn
