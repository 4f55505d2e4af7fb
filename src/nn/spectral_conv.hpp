// Spectral convolution — the core FNO layer — behind a common interface
// with two weight parameterisations:
//
//   * SpectralConv: dense per-mode complex weight (C_in, C_out, K) — the
//     modern `neuraloperator` convention (reproduces the paper's Table I
//     parameter counts exactly).
//   * FactorizedSpectralConv: F-FNO-style separable per-axis complex
//     factors (Tran et al., arXiv 2111.13802) with an optional
//     shared-across-layers mode. The effective per-mode weight is the
//     product of per-axis factors,
//       W[i, o, (k₁, …, k_r)] = A₁[i, o, k₁] · … · A_r[i, o, k_r],
//     which cuts the trainable parameter count from C_in·C_out·∏m_d to
//     C_in·C_out·Σm_d complex values. The factorization is a training-time
//     parameterisation: the function served is still one dense weight per
//     mode, and the inference engine packs exactly that (dense_weight()).
//
// Forward:  y = irfftn( W ⊙ rfftn(x) )   restricted to a retained corner of
// Fourier modes. The effective complex weight has shape
//   (C_in, C_out, m₁, …, m_{r-1}, m_r/2+1, 2)
// where r is the spatial rank (2 or 3), m_d = n_modes[d]; non-last axes keep
// m_d modes split half positive / half negative frequency, the last (rfft)
// axis keeps m_r/2+1 non-negative frequencies.
//
// Backward: hand-derived adjoint. With M = ∏ transformed extents and w the
// per-bin multiplicity (2 for interior rfft-axis bins, 1 for DC/Nyquist):
//   dŶ = rfftn(dy) ⊙ w / M
//   dX̂ = Wᴴ dŶ           (conjugate transpose over channels, kept modes only)
//   dW = conj(X̂) dŶᵀ      (accumulated over batch)
//   dx = M · irfftn(dX̂ ⊙ 1/w)
// The factorized layer additionally applies the product chain rule
//   dA_d[k_d] = Σ_{k: k_d fixed} dW[k] · conj(∏_{e≠d} A_e[k_e])
// (all factors are holomorphic in each A_d, so the complex chain rule takes
// this conjugate form). Each identity is validated by finite-difference
// gradchecks in the tests.
#pragma once

#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "fft/fftnd.hpp"
#include "nn/module.hpp"
#include "util/rng.hpp"

namespace turb::nn {

/// Weight parameterisation of a spectral layer (FnoConfig::spectral_kind
/// picks the layer class).
enum class SpectralKind { kDense, kFactorized };

/// Common machinery of both spectral layers: the kept-mode map, the pruned
/// rfftn/irfftn transforms, and the kept-mode contraction over an effective
/// dense (C_in, C_out, K, 2) weight view supplied by the subclass. The
/// forward/backward arithmetic lives here once, so both parameterisations
/// share the identical per-element operation sequence (the bitwise
/// determinism contract covers them equally).
class SpectralLayer : public Module {
 public:
  SpectralLayer(index_t in_channels, index_t out_channels,
                std::vector<index_t> n_modes, std::string name);

  /// Globally enable/disable mode-pruned FFTs (default on). The results are
  /// bitwise identical either way — pruning only skips transform lines whose
  /// outputs are never read (forward) or whose inputs are exactly zero
  /// (inverse) — so this switch exists for baseline measurements
  /// (bench_perf_train times both settings).
  static void set_pruning(bool on);
  [[nodiscard]] static bool pruning();

  TensorF forward(const TensorF& x) final;
  TensorF backward(const TensorF& grad_out) final;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] index_t in_channels() const { return in_channels_; }
  [[nodiscard]] index_t out_channels() const { return out_channels_; }
  [[nodiscard]] const std::vector<index_t>& n_modes() const {
    return n_modes_;
  }

  /// Retained-mode count K = m₁·…·m_{r-1}·(m_r/2+1).
  [[nodiscard]] index_t kept_modes() const { return kept_modes_; }

  /// Per-axis kept extents (m_d for c2c axes, m_r/2+1 for the rfft axis);
  /// the flat kept-mode index enumerates these row-major.
  [[nodiscard]] const std::vector<index_t>& axis_kept() const {
    return wdims_;
  }

  /// (Re)build the mode map for a spatial shape and expose it, so the
  /// inference engine can drive the identical pruned-FFT + kept-mode
  /// contraction out of its own arena. Idempotent per shape.
  void ensure_mode_map(const Shape& spatial) {
    if (spatial != mapped_spatial_) build_mode_map(spatial);
  }
  [[nodiscard]] const std::vector<index_t>& spec_offsets() const {
    return spec_offsets_;
  }
  [[nodiscard]] index_t spec_slab() const { return spec_slab_; }
  [[nodiscard]] const fft::ModeMask& mode_mask() const { return mode_mask_; }

  /// Effective dense weight, layout (C_in, C_out, K, 2). Called once at the
  /// top of forward() and backward(), and by the inference engine when it
  /// packs its weights; factorized layers re-materialise the per-axis
  /// product here, dense layers return the parameter directly. Valid until
  /// the next call or parameter update.
  [[nodiscard]] virtual const float* dense_weight() = 0;

 protected:
  using cpxf = std::complex<float>;

  /// Buffer the deterministic slab fold accumulates dW into (+=, layout as
  /// dense_weight). Dense layers hand out their parameter gradient so the
  /// fold writes it directly (the historical rounding sequence); factorized
  /// layers hand out a zeroed scratch buffer. Called once per backward(),
  /// immediately before the fold.
  [[nodiscard]] virtual float* dense_grad_accumulator() = 0;

  /// Runs after the dense dW fold; factorized layers scatter the dense
  /// gradient into the per-axis factor gradients here.
  virtual void finalize_grad() {}

  index_t in_channels_;
  index_t out_channels_;
  std::vector<index_t> n_modes_;
  index_t kept_modes_;
  std::vector<index_t> wdims_;  // per-axis kept extents
  std::string name_;

 private:
  /// Mask to pass to the fft entry points (nullptr when pruning is off).
  [[nodiscard]] const fft::ModeMask* prune_mask() const {
    return pruning() ? &mode_mask_ : nullptr;
  }

  /// (Re)build the kept-mode → spectrum-offset map for a spatial shape.
  void build_mode_map(const Shape& spatial);

  // Mode map state (rebuilt when the spatial shape changes — FNO is
  // resolution-agnostic, so the same weights serve any grid ≥ the modes).
  Shape mapped_spatial_;
  std::vector<index_t> spec_offsets_;  // per kept mode: offset inside a slab
  std::vector<float> bin_weight_;      // per kept mode: 1 or 2 (rfft edge/interior)
  index_t spec_slab_ = 0;              // spectrum elements per (n, c) slab
  double norm_m_ = 1.0;                // ∏ spatial extents
  fft::ModeMask mode_mask_;            // per-axis kept-coordinate flags

  // Cached activations and reused spectrum workspaces. y_spec_ / dx_spec_
  // rely on an invariant: they are zero-initialised on (re)allocation and
  // only ever written at kept-mode offsets, which the contraction loops
  // fully overwrite on every call — so the zeros outside the kept set never
  // need refreshing.
  Shape in_shape_;
  Tensor<cpxf> x_spec_;   // rfftn(x), kept for dW
  Tensor<cpxf> y_spec_;   // forward output spectrum
  Tensor<cpxf> g_spec_;   // backward: rfftn(grad_out)
  Tensor<cpxf> dx_spec_;  // backward: dX̂
  std::vector<float> grad_scratch_;  // per-slab dW partials
};

/// Dense per-mode weight — the original SpectralConv.
class SpectralConv final : public SpectralLayer {
 public:
  SpectralConv(index_t in_channels, index_t out_channels,
               std::vector<index_t> n_modes, Rng& rng,
               std::string name = "spectral_conv");

  void collect_parameters(std::vector<Parameter*>& out) override;
  [[nodiscard]] Parameter& weight() { return weight_; }
  const float* dense_weight() override { return weight_.value.data(); }

 protected:
  float* dense_grad_accumulator() override { return weight_.grad.data(); }

 private:
  Parameter weight_;
};

/// F-FNO separable per-axis factors. Each factor has shape
/// (C_in, C_out, m_d_kept, 2); the effective dense weight is materialised
/// per forward/backward call (cheap next to the transforms). With
/// `share_with` set, this layer aliases the other layer's factor parameters
/// instead of owning its own (F-FNO weight sharing) — only the owning layer
/// reports them via collect_parameters, and gradients from every sharing
/// layer accumulate into the shared buffers in backward order.
class FactorizedSpectralConv final : public SpectralLayer {
 public:
  FactorizedSpectralConv(index_t in_channels, index_t out_channels,
                         std::vector<index_t> n_modes, Rng& rng,
                         std::string name = "factorized_spectral_conv",
                         FactorizedSpectralConv* share_with = nullptr);

  void collect_parameters(std::vector<Parameter*>& out) override;

  [[nodiscard]] std::size_t rank() const { return n_modes_.size(); }
  [[nodiscard]] bool shares_factors() const { return shared_; }
  /// Factor parameter for spatial axis d (the owning layer's when shared).
  [[nodiscard]] Parameter& factor(std::size_t d) { return *factors_[d]; }
  [[nodiscard]] const Parameter& factor(std::size_t d) const {
    return *factors_[d];
  }

  /// Trainable parameters of one (non-shared) layer:
  /// C_in·C_out·(Σ_d kept_d)·2.
  [[nodiscard]] index_t factor_parameter_count() const;

  const float* dense_weight() override;

 protected:
  float* dense_grad_accumulator() override;
  void finalize_grad() override;

 private:
  std::vector<std::unique_ptr<Parameter>> owned_;  // empty when sharing
  std::vector<Parameter*> factors_;                // size rank
  bool shared_ = false;
  std::vector<std::vector<index_t>> kidx_;  // [axis][flat k] → axis index
  std::vector<float> w_eff_;   // materialised dense weight (C_in,C_out,K,2)
  std::vector<float> dw_eff_;  // dense gradient scratch, zeroed per backward
};

}  // namespace turb::nn
