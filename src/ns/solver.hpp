// Incompressible 2-D Navier–Stokes solvers (vorticity–streamfunction form)
// on the periodic unit box.
//
//   ∂ω/∂t + u·∇ω = ν ∇²ω,   ∇²ψ = −ω,   u = (∂ψ/∂y, −∂ψ/∂x)
//
// Two discretisations share one interface:
//   * SpectralNsSolver — pseudo-spectral, 2/3-rule dealiased, RK4. The
//     reference solution.
//   * FdNsSolver — 2nd-order finite differences with the Arakawa Jacobian
//     (conserves energy and enstrophy discretely) and an FFT Poisson solve,
//     SSP-RK3. Stands in for the paper's finite-difference PR-DNS partner;
//     training on LBM data and coupling with this solver reproduces the
//     paper's cross-solver generalisation setup.
#pragma once

#include <memory>

#include "fft/fftnd.hpp"
#include "tensor/tensor.hpp"

namespace turb::ns {

struct NsConfig {
  index_t n = 64;           ///< grid points per side
  double viscosity = 1e-4;  ///< kinematic viscosity (unit-box units)
  double dt = 1e-3;         ///< time step
  bool dealias = true;      ///< 2/3-rule dealiasing (spectral scheme only);
                            ///< exposed for the aliasing ablation bench
  /// Kolmogorov forcing f = (A sin(2π k_f y), 0), i.e. a vorticity source
  /// −A·2πk_f·cos(2π k_f y). Zero amplitude = decaying turbulence (the
  /// paper's setting); nonzero exercises the forced-turbulence extension
  /// the paper names in its outlook. With forcing on, 1 ≤ k_f < n/2 is
  /// required, and the dealiased spectral scheme needs k_f ≤ n/3 (the 2/3
  /// rule would otherwise zero the forcing mode).
  double forcing_amplitude = 0.0;
  index_t forcing_k = 4;
  /// Integrating-factor RK4 (spectral scheme only): the viscous term is
  /// integrated exactly via exp(−νk²t), removing the explicit-diffusion
  /// time-step limit. Pure-viscous decay becomes exact to round-off.
  bool integrating_factor = false;
};

class NsSolver {
 public:
  explicit NsSolver(NsConfig config) : config_(config) {
    TURB_CHECK(config_.n >= 8 && config_.n % 2 == 0);
    TURB_CHECK(config_.viscosity > 0.0 && config_.dt > 0.0);
    if (config_.forcing_amplitude != 0.0) {
      TURB_CHECK_MSG(
          config_.forcing_k >= 1 && 2 * config_.forcing_k < config_.n,
          "forcing_k " << config_.forcing_k << " outside [1, n/2) for n = "
                       << config_.n);
    }
  }
  virtual ~NsSolver() = default;

  [[nodiscard]] const NsConfig& config() const { return config_; }

  /// Set the state from a vorticity field (ny, nx).
  virtual void set_vorticity(const TensorD& omega) = 0;

  /// Set the state from a velocity field; a Leray projection is applied
  /// first, so slightly-divergent inputs (e.g. FNO predictions) are
  /// admissible — this is the mechanism by which the hybrid scheme restores
  /// the divergence-free condition.
  void set_velocity(const TensorD& u1, const TensorD& u2);

  /// Advance `steps` time steps of size config().dt.
  virtual void step(index_t steps = 1) = 0;

  [[nodiscard]] virtual TensorD vorticity() const = 0;

  /// Velocity reconstructed from the current vorticity.
  void velocity(TensorD& u1, TensorD& u2) const;

  [[nodiscard]] double time() const { return time_; }

  /// CFL-stable time step for velocity scale u_max: dt = cfl·Δx/u_max.
  [[nodiscard]] double suggest_dt(double u_max, double cfl = 0.4) const;

 protected:
  NsConfig config_;
  double time_ = 0.0;
};

/// Plan-once, allocation-free pseudo-spectral stepper. The constructor
/// builds the wavenumber tables, the 2/3-rule keep flags and every scratch
/// buffer; step() then runs with no heap allocation. Each right-hand side
/// inverts the four fields u₁, u₂, ∂ₓω, ∂ᵧω in one batched transform and
/// forward-transforms the advection term with the kx > n/3 bins pruned
/// (dealias on), which the 2/3 rule zeroes anyway.
class SpectralNsSolver final : public NsSolver {
 public:
  explicit SpectralNsSolver(NsConfig config);
  void set_vorticity(const TensorD& omega) override;
  void step(index_t steps = 1) override;
  [[nodiscard]] TensorD vorticity() const override;

 private:
  using SpecD = Tensor<std::complex<double>>;
  /// Nonlinear + forcing part into `out`: −dealias(FFT(u·∇ω)) + F̂.
  void nonlinear(const SpecD& what, SpecD& out);
  /// Full right-hand side into `out`: nonlinear(ω̂) − νk²ω̂.
  void rhs(const SpecD& what, SpecD& out);
  void step_rk4();
  void step_ifrk4();

  SpecD what_;  // ω̂, (n, n/2+1)
  // Wavenumbers 2π·m per row (ky) and per rfft column (kx): the derivative
  // convention (deriv_freq, Nyquist → 0) and the signed fft_freq one the
  // viscous term uses.
  std::vector<double> ky_deriv_, kx_deriv_, ky_, kx_;
  // 2/3-rule keep flags per row; the per-column flags are the last axis of
  // adv_mask_, which prunes the advection term's forward transform. Both
  // are empty when dealiasing is off.
  std::vector<std::uint8_t> row_keep_;
  fft::ModeMask adv_mask_;
  // Integrating-factor tables exp(−νk²·dt/2) and exp(−νk²·dt).
  TensorD if_half_;
  TensorD if_full_;
  // Scratch: the gradient spectra û₁, û₂, ∂ₓω̂, ∂ᵧω̂ stacked (4, n, n/2+1),
  // their physical fields (4, n, n), the advection term (n, n), the RK
  // stages k1–k4 and the stage spectrum.
  SpecD grad_spec_;
  TensorD grad_phys_;
  TensorD adv_;
  SpecD k1_, k2_, k3_, k4_, stage_;
};

class FdNsSolver final : public NsSolver {
 public:
  explicit FdNsSolver(NsConfig config);
  void set_vorticity(const TensorD& omega) override;
  void step(index_t steps = 1) override;
  [[nodiscard]] TensorD vorticity() const override;

 private:
  /// dω/dt = −J(ψ, ω) + ν ∇²ω with the Arakawa Jacobian and the 5-point
  /// Laplacian; ψ solved spectrally each evaluation.
  TensorD rhs(const TensorD& omega) const;

  TensorD omega_;
};

/// Factory for the scheme requested by name ("spectral" | "fd").
std::unique_ptr<NsSolver> make_ns_solver(const std::string& scheme,
                                         NsConfig config);

}  // namespace turb::ns
