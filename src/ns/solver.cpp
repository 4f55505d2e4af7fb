#include "ns/solver.hpp"

#include <cmath>
#include <numbers>
#include <string>

#include "fft/fftnd.hpp"
#include "ns/spectral_ops.hpp"
#include "obs/obs.hpp"

namespace turb::ns {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

void NsSolver::set_velocity(const TensorD& u1, const TensorD& u2) {
  TensorD p1 = u1, p2 = u2;
  leray_project(p1, p2);
  set_vorticity(vorticity_from_velocity(p1, p2));
}

void NsSolver::velocity(TensorD& u1, TensorD& u2) const {
  velocity_from_vorticity(vorticity(), u1, u2);
}

double NsSolver::suggest_dt(double u_max, double cfl) const {
  TURB_CHECK(u_max > 0.0);
  const double dx = 1.0 / static_cast<double>(config_.n);
  // Advective CFL plus an explicit-diffusion bound dt ≤ dx²/(4ν).
  const double dt_adv = cfl * dx / u_max;
  const double dt_diff = 0.25 * dx * dx / config_.viscosity;
  return std::min(dt_adv, dt_diff);
}

// --- spectral ----------------------------------------------------------------

SpectralNsSolver::SpectralNsSolver(NsConfig config)
    : NsSolver(config),
      what_({config.n, config.n / 2 + 1}),
      grad_spec_({4, config.n, config.n / 2 + 1}),
      grad_phys_({4, config.n, config.n}),
      adv_({config.n, config.n}),
      k1_(what_.shape()),
      k2_(what_.shape()),
      k3_(what_.shape()),
      k4_(what_.shape()),
      stage_(what_.shape()) {
  const index_t n = config_.n;
  const index_t nxr = n / 2 + 1;
  const double kcut = static_cast<double>(n) / 3.0;
  if (config_.dealias && config_.forcing_amplitude != 0.0) {
    TURB_CHECK_MSG(3 * config_.forcing_k <= n,
                   "forcing_k " << config_.forcing_k
                                << " exceeds n/3; the 2/3 rule would zero "
                                   "the forcing mode at n = "
                                << n);
  }
  for (index_t iy = 0; iy < n; ++iy) {
    ky_deriv_.push_back(kTwoPi * deriv_freq(iy, n));
    ky_.push_back(kTwoPi * fft_freq(iy, n));
    if (config_.dealias) {
      row_keep_.push_back(std::abs(fft_freq(iy, n)) > kcut ? 0 : 1);
    }
  }
  std::vector<std::uint8_t> col_keep;
  for (index_t ix = 0; ix < nxr; ++ix) {
    kx_deriv_.push_back(kTwoPi * deriv_freq(ix, n));
    kx_.push_back(kTwoPi * static_cast<double>(ix));
    if (config_.dealias) {
      col_keep.push_back(static_cast<double>(ix) > kcut ? 0 : 1);
    }
  }
  if (config_.dealias) adv_mask_ = {{}, std::move(col_keep)};
  if (config_.integrating_factor) {
    const double dt = config_.dt;
    if_half_ = TensorD({n, nxr});
    if_full_ = TensorD({n, nxr});
    for (index_t iy = 0; iy < n; ++iy) {
      const double ky = ky_[static_cast<std::size_t>(iy)];
      for (index_t ix = 0; ix < nxr; ++ix) {
        const double kx = kx_[static_cast<std::size_t>(ix)];
        const double decay = config_.viscosity * (kx * kx + ky * ky);
        if_half_(iy, ix) = std::exp(-decay * dt / 2.0);
        if_full_(iy, ix) = std::exp(-decay * dt);
      }
    }
  }
}

void SpectralNsSolver::set_vorticity(const TensorD& omega) {
  TURB_CHECK(omega.shape() == (Shape{config_.n, config_.n}));
  fft::rfftn_into(omega, 2, what_);
  time_ = 0.0;
}

void SpectralNsSolver::nonlinear(const SpecD& what, SpecD& out) {
  using cpx = std::complex<double>;
  const index_t n = config_.n;
  const index_t nxr = n / 2 + 1;
  // Velocity and vorticity gradients in spectral space, one slab each.
  const index_t plane = n * nxr;
  cpx* u1h = grad_spec_.data();
  cpx* u2h = u1h + plane;
  cpx* wxh = u2h + plane;
  cpx* wyh = wxh + plane;
  for (index_t iy = 0; iy < n; ++iy) {
    const double ky = ky_deriv_[static_cast<std::size_t>(iy)];
    for (index_t ix = 0; ix < nxr; ++ix) {
      const double kx = kx_deriv_[static_cast<std::size_t>(ix)];
      const double k2 = kx * kx + ky * ky;
      const index_t i = iy * nxr + ix;
      const cpx w = what[i];
      const cpx psi = (k2 == 0.0) ? 0.0 : w / k2;
      u1h[i] = cpx(0.0, ky) * psi;
      u2h[i] = cpx(0.0, -kx) * psi;
      wxh[i] = cpx(0.0, kx) * w;
      wyh[i] = cpx(0.0, ky) * w;
    }
  }
  fft::irfftn_into(grad_spec_, 2, n, grad_phys_);

  // Nonlinear term in physical space.
  const index_t cells = n * n;
  const double* u1 = grad_phys_.data();
  const double* u2 = u1 + cells;
  const double* wx = u2 + cells;
  const double* wy = wx + cells;
  for (index_t i = 0; i < cells; ++i) {
    adv_[i] = -(u1[i] * wx[i] + u2[i] * wy[i]);
  }
  fft::rfftn_into(adv_, 2, out, config_.dealias ? &adv_mask_ : nullptr);

  // Kolmogorov forcing enters the vorticity equation as
  // −A·2πk_f·cos(2πk_f y): a purely real contribution at (±k_f, 0).
  if (config_.forcing_amplitude != 0.0) {
    const double kf = kTwoPi * static_cast<double>(config_.forcing_k);
    // cos(2πk_f y) has coefficients M/2 at rows ±k_f, column 0 (rfft
    // forward convention is unscaled sums; the irfft divides by M).
    const double coeff = -config_.forcing_amplitude * kf *
                         static_cast<double>(n) * static_cast<double>(n) / 2.0;
    out(config_.forcing_k, index_t{0}) += coeff;
    out(n - config_.forcing_k, index_t{0}) += coeff;
  }

  // 2/3-rule dealiasing; this also clears the bins the pruned transform
  // left unspecified.
  if (config_.dealias) {
    const std::vector<std::uint8_t>& col_keep = adv_mask_.back();
    for (index_t iy = 0; iy < n; ++iy) {
      const bool row_kept = row_keep_[static_cast<std::size_t>(iy)] != 0;
      for (index_t ix = 0; ix < nxr; ++ix) {
        if (!row_kept || col_keep[static_cast<std::size_t>(ix)] == 0) {
          out[iy * nxr + ix] = 0.0;
        }
      }
    }
  }
}

void SpectralNsSolver::rhs(const SpecD& what, SpecD& out) {
  const index_t n = config_.n;
  const index_t nxr = n / 2 + 1;
  nonlinear(what, out);
  for (index_t iy = 0; iy < n; ++iy) {
    const double ky = ky_[static_cast<std::size_t>(iy)];
    for (index_t ix = 0; ix < nxr; ++ix) {
      const double kx = kx_[static_cast<std::size_t>(ix)];
      const index_t i = iy * nxr + ix;
      out[i] -= config_.viscosity * (kx * kx + ky * ky) * what[i];
    }
  }
}

void SpectralNsSolver::step(index_t steps) {
  TURB_TRACE_SCOPE("ns/step");
  static obs::Counter& counter = obs::counter("ns/steps");
  counter.add(steps);
  for (index_t s = 0; s < steps; ++s) {
    if (config_.integrating_factor) {
      step_ifrk4();
    } else {
      step_rk4();
    }
    time_ += config_.dt;
  }
}

void SpectralNsSolver::step_ifrk4() {
  const double dt = config_.dt;
  // Classical integrating-factor RK4 (the viscous semigroup E is applied
  // analytically; N is the dealiased nonlinear + forcing term):
  //   k1 = N(ω);              k2 = N(E(ω + h/2 k1))
  //   k3 = N(Eω + h/2 k2);    k4 = N(E²ω + h·E k3)
  //   ω⁺ = E²ω + h/6 (E²k1 + 2E(k2 + k3) + k4)
  nonlinear(what_, k1_);
  for (index_t i = 0; i < stage_.size(); ++i) {
    stage_[i] = (what_[i] + dt / 2.0 * k1_[i]) * if_half_[i];
  }
  nonlinear(stage_, k2_);
  for (index_t i = 0; i < stage_.size(); ++i) {
    stage_[i] = what_[i] * if_half_[i] + dt / 2.0 * k2_[i];
  }
  nonlinear(stage_, k3_);
  for (index_t i = 0; i < stage_.size(); ++i) {
    stage_[i] = what_[i] * if_full_[i] + dt * if_half_[i] * k3_[i];
  }
  nonlinear(stage_, k4_);
  for (index_t i = 0; i < what_.size(); ++i) {
    what_[i] = what_[i] * if_full_[i] +
               dt / 6.0 *
                   (if_full_[i] * k1_[i] +
                    2.0 * if_half_[i] * (k2_[i] + k3_[i]) + k4_[i]);
  }
}

void SpectralNsSolver::step_rk4() {
  const double dt = config_.dt;
  // Classic RK4; each stage input is ω̂ plus a scaled previous stage.
  rhs(what_, k1_);
  for (index_t i = 0; i < stage_.size(); ++i) {
    stage_[i] = what_[i];
    stage_[i] += 0.5 * dt * k1_[i];
  }
  rhs(stage_, k2_);
  for (index_t i = 0; i < stage_.size(); ++i) {
    stage_[i] = what_[i];
    stage_[i] += 0.5 * dt * k2_[i];
  }
  rhs(stage_, k3_);
  for (index_t i = 0; i < stage_.size(); ++i) {
    stage_[i] = what_[i];
    stage_[i] += dt * k3_[i];
  }
  rhs(stage_, k4_);
  for (index_t i = 0; i < what_.size(); ++i) {
    what_[i] += dt / 6.0 * (k1_[i] + 2.0 * k2_[i] + 2.0 * k3_[i] + k4_[i]);
  }
}

TensorD SpectralNsSolver::vorticity() const {
  return fft::irfftn(what_, 2, config_.n);
}

// --- finite difference ---------------------------------------------------------

FdNsSolver::FdNsSolver(NsConfig config)
    : NsSolver(config), omega_({config.n, config.n}) {}

void FdNsSolver::set_vorticity(const TensorD& omega) {
  TURB_CHECK(omega.shape() == (Shape{config_.n, config_.n}));
  omega_ = omega;
  time_ = 0.0;
}

TensorD FdNsSolver::rhs(const TensorD& omega) const {
  const index_t n = config_.n;
  const double dx = 1.0 / static_cast<double>(n);

  // Streamfunction from the spectral Poisson solve: ∇²ψ = −ω.
  // (The paper's PR-DNS is finite-difference in space but also relies on a
  // fast elliptic solve; reusing the FFT here keeps the Jacobian and
  // Laplacian — the turbulence-relevant terms — strictly 2nd-order FD.)
  const index_t nxr = n / 2 + 1;
  Tensor<std::complex<double>> wh = fft::rfftn(omega, 2);
  for (index_t iy = 0; iy < n; ++iy) {
    const double ky = kTwoPi * fft_freq(iy, n);
    for (index_t ix = 0; ix < nxr; ++ix) {
      const double kx = kTwoPi * static_cast<double>(ix);
      const double k2 = kx * kx + ky * ky;
      wh(iy, ix) = (k2 == 0.0) ? 0.0 : wh(iy, ix) / k2;
    }
  }
  const TensorD psi = fft::irfftn(wh, 2, n);

  TensorD out({n, n});
  const double inv_12dx2 = 1.0 / (12.0 * dx * dx);
  const double inv_dx2 = 1.0 / (dx * dx);
  const auto idx = [n](index_t iy, index_t ix) {
    return ((iy + n) % n) * n + ((ix + n) % n);
  };
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < n; ++ix) {
      // Arakawa (1966) 9-point Jacobian J(ψ, ω): conserves mean vorticity,
      // energy, and enstrophy in the inviscid limit.
      const double p_e = psi[idx(iy, ix + 1)], p_w = psi[idx(iy, ix - 1)];
      const double p_n = psi[idx(iy + 1, ix)], p_s = psi[idx(iy - 1, ix)];
      const double p_ne = psi[idx(iy + 1, ix + 1)];
      const double p_nw = psi[idx(iy + 1, ix - 1)];
      const double p_se = psi[idx(iy - 1, ix + 1)];
      const double p_sw = psi[idx(iy - 1, ix - 1)];
      const double w_c = omega[idx(iy, ix)];
      const double w_e = omega[idx(iy, ix + 1)], w_w = omega[idx(iy, ix - 1)];
      const double w_n = omega[idx(iy + 1, ix)], w_s = omega[idx(iy - 1, ix)];
      const double w_ne = omega[idx(iy + 1, ix + 1)];
      const double w_nw = omega[idx(iy + 1, ix - 1)];
      const double w_se = omega[idx(iy - 1, ix + 1)];
      const double w_sw = omega[idx(iy - 1, ix - 1)];

      const double jpp = (p_e - p_w) * (w_n - w_s) - (p_n - p_s) * (w_e - w_w);
      const double jpx = p_e * (w_ne - w_se) - p_w * (w_nw - w_sw) -
                         p_n * (w_ne - w_nw) + p_s * (w_se - w_sw);
      const double jxp = w_n * (p_ne - p_nw) - w_s * (p_se - p_sw) -
                         w_e * (p_ne - p_se) + w_w * (p_nw - p_sw);
      // ∂ω/∂t = −u·∇ω = +J(ψ, ω) with u = (∂ψ/∂y, −∂ψ/∂x) and
      // J(ψ,ω) = ψ_x ω_y − ψ_y ω_x; each sub-Jacobian carries 1/(4d²) and
      // the Arakawa average 1/3, hence 1/(12d²) overall.
      const double jac = (jpp + jpx + jxp) * inv_12dx2;

      const double lap = (w_e + w_w + w_n + w_s - 4.0 * w_c) * inv_dx2;
      out[idx(iy, ix)] = jac + config_.viscosity * lap;
    }
  }
  if (config_.forcing_amplitude != 0.0) {
    const double kf = kTwoPi * static_cast<double>(config_.forcing_k);
    for (index_t iy = 0; iy < n; ++iy) {
      const double y = static_cast<double>(iy) * dx;
      const double source = -config_.forcing_amplitude * kf * std::cos(kf * y);
      for (index_t ix = 0; ix < n; ++ix) {
        out[iy * n + ix] += source;
      }
    }
  }
  return out;
}

void FdNsSolver::step(index_t steps) {
  TURB_TRACE_SCOPE("ns/step");
  static obs::Counter& counter = obs::counter("ns/steps");
  counter.add(steps);
  const double dt = config_.dt;
  for (index_t s = 0; s < steps; ++s) {
    // SSP-RK3 (Shu–Osher).
    const TensorD k1 = rhs(omega_);
    TensorD w1 = omega_;
    w1.add_scaled(k1, dt);
    const TensorD k2 = rhs(w1);
    TensorD w2({config_.n, config_.n});
    for (index_t i = 0; i < w2.size(); ++i) {
      w2[i] = 0.75 * omega_[i] + 0.25 * (w1[i] + dt * k2[i]);
    }
    const TensorD k3 = rhs(w2);
    for (index_t i = 0; i < omega_.size(); ++i) {
      omega_[i] = omega_[i] / 3.0 + 2.0 / 3.0 * (w2[i] + dt * k3[i]);
    }
    time_ += dt;
  }
}

TensorD FdNsSolver::vorticity() const { return omega_; }

std::unique_ptr<NsSolver> make_ns_solver(const std::string& scheme,
                                         NsConfig config) {
  if (scheme == "spectral") return std::make_unique<SpectralNsSolver>(config);
  if (scheme == "fd") return std::make_unique<FdNsSolver>(config);
  TURB_CHECK_MSG(false, "unknown NS scheme: " << scheme);
  return nullptr;
}

}  // namespace turb::ns
