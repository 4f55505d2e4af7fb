// Pointwise activation layers.
#pragma once

#include <string>

#include "nn/module.hpp"

namespace turb::nn {

/// Exact GELU over n contiguous floats (in == out allowed):
///   out[i] = (0.5·x)·(1 + erf(x·(1/√2))),  x = in[i].
/// The one GELU implementation in the library — Gelu::forward and the
/// inference engine's fused lift / skip / projection epilogues all call it.
/// Dispatches per call on util::active_isa() and bumps
/// isa/act_dispatch_{scalar,avx2}: the scalar tier evaluates std::erf per
/// element; the avx2 tier an 8-lane rational erf (nn/gelu_avx2.hpp) whose
/// per-element bits do not depend on the element's position in the row, so
/// any chunking of a tensor gives the same bits (Tier A). Across tiers the
/// results agree within 4·eps·max(1, |x|) (Tier B, tests/test_isa.cpp).
void gelu_rows(const float* in, float* out, index_t n);

/// The Gaussian cdf Φ(x) = 0.5·(1 + erf(x·(1/√2))) over n contiguous floats,
/// through the same per-ISA erf as gelu_rows (GELU's backward uses it, so
/// forward and backward see one function per ISA).
void gelu_cdf_rows(const float* in, float* out, index_t n);

/// Exact (erf-based) GELU, matching PyTorch's default:
///   gelu(x) = x · Φ(x) = x/2 · (1 + erf(x/√2))
class Gelu : public Module {
 public:
  explicit Gelu(std::string name = "gelu") : name_(std::move(name)) {}

  TensorF forward(const TensorF& x) override;
  TensorF backward(const TensorF& grad_out) override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  TensorF input_;
};

/// Identity layer (placeholder in configurable stacks).
class Identity : public Module {
 public:
  TensorF forward(const TensorF& x) override { return x; }
  TensorF backward(const TensorF& g) override { return g; }
  [[nodiscard]] std::string name() const override { return "identity"; }
};

}  // namespace turb::nn
