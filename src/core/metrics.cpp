#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>

#include "analysis/stats.hpp"
#include "fft/fftnd.hpp"
#include "ns/spectral_ops.hpp"

namespace turb::core {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Snapshots per batched transform. Bounds the scratch at 2·16 fields
/// however long a trajectory the window overload is handed.
constexpr std::size_t kChunk = 16;

void check_snapshot(const FieldSnapshot& s) {
  TURB_CHECK_MSG(s.u1.rank() == 2, "expected (ny, nx) velocity fields");
  TURB_CHECK(s.u1.dim(0) >= 4 && s.u1.dim(1) >= 4);
  TURB_CHECK(s.u2.shape() == s.u1.shape());
}

/// Diagnostics of snaps[0, count), all of one (ny, nx) shape, into out.
/// One batched r2c of every snapshot's (u₁, u₂); enstrophy and divergence
/// L2 by Parseval over the half spectrum; divergence L∞ from one batched
/// c2r of i k·û. Each snapshot's arithmetic is independent of the others
/// in the chunk, so any chunking gives the same bits.
void metrics_chunk(const FieldSnapshot* snaps, std::size_t count,
                   SnapshotMetrics* out) {
  using cpx = std::complex<double>;
  const index_t ny = snaps[0].u1.dim(0);
  const index_t nx = snaps[0].u1.dim(1);
  const index_t nxr = nx / 2 + 1;
  const auto c = static_cast<index_t>(count);
  const index_t cells = ny * nx;
  const index_t plane = ny * nxr;

  TensorD& u = fft::workspace<double>("core/metrics_u", {2 * c, ny, nx});
  for (index_t s = 0; s < c; ++s) {
    std::copy_n(snaps[s].u1.data(), cells, u.data() + 2 * s * cells);
    std::copy_n(snaps[s].u2.data(), cells, u.data() + (2 * s + 1) * cells);
  }
  Tensor<cpx>& uh = fft::workspace<cpx>("core/metrics_uh", {2 * c, ny, nxr});
  fft::rfftn_into(u, 2, uh);

  // Σ_x f² = (1/N) Σ_k |f̂|² with N = ny·nx points; the half spectrum
  // counts every column but kx = 0 and the x-Nyquist twice.
  const double norm = static_cast<double>(cells) * static_cast<double>(cells);
  Tensor<cpx>& dh = fft::workspace<cpx>("core/metrics_divh", {c, ny, nxr});
  // Wavenumbers (ns::deriv_freq convention) and half-spectrum weights.
  TensorD& kt = fft::workspace<double>("core/metrics_k", {ny + 2 * nxr});
  double* kys = kt.data();
  double* kxs = kys + ny;
  double* wts = kxs + nxr;
  for (index_t iy = 0; iy < ny; ++iy) kys[iy] = kTwoPi * ns::deriv_freq(iy, ny);
  for (index_t ix = 0; ix < nxr; ++ix) {
    kxs[ix] = kTwoPi * ns::deriv_freq(ix, nx);
    wts[ix] = (ix == 0 || 2 * ix == nx) ? 1.0 : 2.0;
  }
  for (index_t s = 0; s < c; ++s) {
    const cpx* a = uh.data() + 2 * s * plane;  // û₁
    const cpx* b = a + plane;                  // û₂
    cpx* d = dh.data() + s * plane;
    double enstrophy = 0.0, divergence = 0.0;
    for (index_t iy = 0; iy < ny; ++iy) {
      const double ky = kys[iy];
      for (index_t ix = 0; ix < nxr; ++ix) {
        const double kx = kxs[ix];
        const double weight = wts[ix];
        const index_t i = iy * nxr + ix;
        const cpx w = kx * b[i] - ky * a[i];    // ω̂ = i·w
        const cpx div = kx * a[i] + ky * b[i];  // (∇·u)^ = i·div
        enstrophy += weight * std::norm(w);
        divergence += weight * std::norm(div);
        d[i] = cpx(-div.imag(), div.real());
      }
    }
    SnapshotMetrics& m = out[s];
    m.t = snaps[s].t;
    m.kinetic_energy = analysis::kinetic_energy(snaps[s].u1, snaps[s].u2);
    m.enstrophy = enstrophy / norm;
    m.divergence_l2 = std::sqrt(divergence / norm);
  }

  TensorD& div = fft::workspace<double>("core/metrics_div", {c, ny, nx});
  fft::irfftn_into(dh, 2, nx, div);
  for (index_t s = 0; s < c; ++s) {
    const double* v = div.data() + s * cells;
    double linf = 0.0;
    for (index_t i = 0; i < cells; ++i) linf = std::max(linf, std::abs(v[i]));
    out[s].divergence_linf = linf;
  }
}

}  // namespace

SnapshotMetrics compute_metrics(const FieldSnapshot& snapshot) {
  check_snapshot(snapshot);
  SnapshotMetrics m;
  metrics_chunk(&snapshot, 1, &m);
  return m;
}

void compute_metrics(const std::vector<FieldSnapshot>& window,
                     std::vector<SnapshotMetrics>& out) {
  out.resize(window.size());
  for (const FieldSnapshot& s : window) check_snapshot(s);
  // Chunks of up to kChunk consecutive snapshots of one grid shape.
  std::size_t i = 0;
  while (i < window.size()) {
    std::size_t j = i + 1;
    while (j < window.size() && j - i < kChunk &&
           window[j].u1.shape() == window[i].u1.shape()) {
      ++j;
    }
    metrics_chunk(window.data() + i, j - i, out.data() + i);
    i = j;
  }
}

std::vector<SnapshotMetrics> compute_metrics(
    const std::vector<FieldSnapshot>& trajectory) {
  std::vector<SnapshotMetrics> out;
  compute_metrics(trajectory, out);
  return out;
}

double percentage_error(double value, double reference) {
  TURB_CHECK(reference != 0.0);
  return std::abs(value - reference) / std::abs(reference) * 100.0;
}

}  // namespace turb::core
