#include "nn/activation.hpp"

#include <cmath>

#include "nn/gelu_avx2.hpp"
#include "obs/obs.hpp"
#include "util/isa.hpp"
#include "util/thread_pool.hpp"

namespace turb::nn {

namespace {

constexpr float kInvSqrt2 = 0.70710678118654752f;

/// Per-call ISA dispatch: resolves the active ISA, bumps the act-family
/// counter, and reports whether the AVX2 kernels should run (never true on
/// builds without them: active_isa() only resolves to avx2 where the CPU
/// and build support it).
bool act_dispatch_avx2() {
  const util::Isa isa = util::active_isa();
  util::act_dispatch_counter(isa).add(1);
  return isa == util::Isa::kAvx2;
}

}  // namespace

void gelu_rows(const float* in, float* out, index_t n) {
  if (act_dispatch_avx2()) {
#ifdef TURBFNO_HAS_AVX2_GELU
    detail::avx2::gelu_rows(in, out, n);
    return;
#endif
  }
  for (index_t i = 0; i < n; ++i) {
    const float v = in[i];
    out[i] = 0.5f * v * (1.0f + std::erf(v * kInvSqrt2));
  }
}

void gelu_cdf_rows(const float* in, float* out, index_t n) {
  if (act_dispatch_avx2()) {
#ifdef TURBFNO_HAS_AVX2_GELU
    detail::avx2::cdf_rows(in, out, n);
    return;
#endif
  }
  for (index_t i = 0; i < n; ++i) {
    out[i] = 0.5f * (1.0f + std::erf(in[i] * kInvSqrt2));
  }
}

TensorF Gelu::forward(const TensorF& x) {
  TURB_TRACE_SCOPE("nn/gelu_fwd");
  input_ = x;
  TensorF y(x.shape());
  const float* in = x.data();
  float* out = y.data();
  parallel_for_chunked(0, x.size(), [&](index_t b, index_t e) {
    gelu_rows(in + b, out + b, e - b);
  });
  return y;
}

TensorF Gelu::backward(const TensorF& grad_out) {
  TURB_TRACE_SCOPE("nn/gelu_bwd");
  TURB_CHECK(grad_out.size() == input_.size());
  TensorF grad_in(input_.shape());
  const float* in = input_.data();
  const float* g = grad_out.data();
  float* out = grad_in.data();
  parallel_for_chunked(0, input_.size(), [&](index_t b, index_t e) {
    constexpr float inv_sqrt2pi = 0.39894228040143268f;
    gelu_cdf_rows(in + b, out + b, e - b);  // out[i] = Φ(in[i])
    for (index_t i = b; i < e; ++i) {
      const float v = in[i];
      const float phi = std::exp(-0.5f * v * v) * inv_sqrt2pi;  // pdf
      out[i] = g[i] * (out[i] + v * phi);
    }
  });
  return grad_in;
}

}  // namespace turb::nn
