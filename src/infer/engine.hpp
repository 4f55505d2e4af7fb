// Forward-only FNO inference engine: plan once per (batch, grid) shape,
// then execute with zero steady-state heap allocations.
//
// The training path (`Fno::forward`) materialises a fresh tensor per layer,
// caches every layer input for backward, and re-derives workspace per call —
// all dead weight at serving time. The engine replays the exact same
// dataflow out of a single arena (arena.hpp):
//
//   * plan(shape) sizes every activation, FFT spectrum, and per-thread
//     scratch slice up front and hands out aligned arena slices;
//   * the lifting / projection MLPs and the per-block skip path run as
//     fused column-block kernels — GEMM into a register-friendly tile,
//     bias (+GELU) applied in the tile, second GEMM straight into the
//     destination — so no (N, C_lift, S)-sized intermediate ever exists;
//   * spectral weights are prepacked k-major at engine build so the kept-mode
//     contraction reads contiguous memory — one (K, C_out, C_in) complex
//     block per layer, taken from the layer's effective dense weight
//     (SpectralLayer::dense_weight), so factorized (F-FNO) layers are served
//     through the same pack as dense ones;
//   * rollout drivers ping-pong between two arena prediction buffers and
//     shift temporal channels in place.
//
// Bitwise equality with `Fno::forward` is a hard contract at fp32 (tests
// enforce it at pool widths 1/2/4, for both the dense and factorized
// parameterisations): every floating-point value is produced by the same
// per-element operation sequence as the training path — the same gemm_nn
// instantiation on 8-aligned column blocks, the same rfft/irfft/PlanC2C
// kernels, the same ascending-k contraction order, and the same
// add-bias → add-skip → GELU rounding chain. See DESIGN.md "Inference
// engine" for the argument.
//
// Reduced-precision serving (EngineOptions::precision = bf16) compresses
// the prepacked weights to 16-bit storage at refresh time and
// widens them to fp32 inside the contraction inner loop; linear (MLP/skip)
// weights are round-tripped through the same format but kept as fp32
// storage for the GEMM kernels. The compressed engine keeps Tier A
// determinism (bitwise within a fixed ISA and thread width) but its outputs
// are only error-bounded against the fp32 engine — the per-snapshot
// relative-L2 contract documented in DESIGN.md "Precision tiers" and
// property-tested in tests/test_infer.cpp.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "fno/fno.hpp"
#include "infer/arena.hpp"
#include "obs/obs.hpp"
#include "tensor/tensor.hpp"
#include "util/isa.hpp"
#include "util/precision.hpp"
#include "util/thread_pool.hpp"

namespace turb::infer {

/// Build-time engine knobs (see file header for the precision contract).
struct EngineOptions {
  util::Precision precision = util::Precision::kFp32;
};

class InferenceEngine {
 public:
  /// @param model trained FNO (not owned; must outlive the engine). Weights
  /// are snapshotted (prepacked, and compressed when options.precision is
  /// not fp32) at construction — call refresh_weights() after further
  /// training steps.
  explicit InferenceEngine(fno::Fno& model, EngineOptions options = {});

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Re-snapshot the model's weights into the prepacked layouts.
  void refresh_weights();

  /// Plan for input shape (N, C_in, spatial...). Idempotent per shape;
  /// re-planning an already-planned layout only refreshes the captured
  /// thread pool. Lays out the arena and copies the kept-mode map.
  void plan(const Shape& in_shape);

  /// Braced-dims variant (`plan({n, c, h, w})`): routes to the fast path
  /// without materialising a Shape when the dims already match the planned
  /// layout — keeps rollout entry points allocation-free in steady state.
  void plan(std::initializer_list<index_t> dims);

  /// Forward pass, bitwise identical to model.forward(x). Re-plans
  /// implicitly on a shape change (counted by infer/steady_state_allocs
  /// when it happens after a prior plan — the caller was supposed to plan).
  /// `y` is resized only when its shape mismatches.
  void forward(const TensorF& x, TensorF& y);

  /// Raw forward over planned-shape buffers: `x` holds N·C_in·S floats,
  /// `y` receives N·C_out·S. Zero heap allocations after warm-up. `x` and
  /// `y` may be arena slices (window_buffer(), pred_buffer()).
  void forward_raw(const float* x, float* y);

  /// Autoregressive rank-2 "temporal channels" rollout: the model consumes a
  /// sliding window of C_in snapshots and emits C_out new ones per step,
  /// bitwise identical to stepping Fno::forward by hand.
  /// history: (C_in, H, W), oldest first; out is resized to (steps, H, W)
  /// only on shape change. Re-plans for batch 1 as needed.
  void rollout_channels_into(const TensorF& history, index_t steps,
                             TensorF& out);

  /// Batched multi-trajectory variant: histories (B, C_in, H, W) →
  /// out (B, steps, H, W). Each trajectory's outputs are bitwise identical
  /// to a single-trajectory rollout of the same history (batch entries ride
  /// independent slabs through every kernel).
  void rollout_channels_batched_into(const TensorF& histories, index_t steps,
                                     TensorF& out);

  /// Rank-3 block rollout: each forward maps a (T, H, W) block to the next;
  /// seed: (T, H, W); out resized to (blocks·T, H, W).
  void rollout_3d_into(const TensorF& seed_block, index_t blocks,
                       TensorF& out);

  /// Arena slice for staging the model input of the planned shape
  /// (N·C_in·S floats) — lets callers (FnoPropagator) marshal external data
  /// without owning a separate buffer. Valid until the next plan().
  [[nodiscard]] float* window_buffer() const;

  /// Arena slice holding N·C_out·S floats (i ∈ {0, 1}; the rollout drivers
  /// ping-pong between the two). Valid until the next plan().
  [[nodiscard]] float* pred_buffer(int i) const;

  /// Shift temporal channels in place after a forward: for each of `batch`
  /// entries, drop the oldest inputs and append the newest predictions
  /// (`win` holds batch·C_in·frame floats, `pred` batch·C_out·frame). Public
  /// because external marshalers (FnoPropagator's batched serving path)
  /// drive forward_raw window-by-window and need the identical slide the
  /// engine's own rollout drivers use — same copy sequence, same bytes.
  void slide_window(float* win, const float* pred, index_t batch,
                    index_t frame) const;

  [[nodiscard]] const fno::FnoConfig& config() const { return cfg_; }
  [[nodiscard]] util::Precision precision() const { return precision_; }
  [[nodiscard]] std::size_t arena_bytes() const { return arena_.bytes(); }

  /// Bytes of prepacked spectral-weight storage (the serving working set
  /// the compressed path halves; linear weights are excluded — they are
  /// identical across precisions).
  [[nodiscard]] std::size_t spectral_weight_bytes() const;
  [[nodiscard]] bool planned() const { return planned_; }
  [[nodiscard]] const Shape& planned_shape() const { return in_shape_; }

  /// The microkernel ISA resolved at plan() time (the engine's kernels
  /// dispatch on the live process-wide choice; this records what was active
  /// when the plan was built, for bench/metrics attribution).
  [[nodiscard]] util::Isa planned_isa() const { return isa_; }

 private:
  using cpxf = std::complex<float>;

  /// One complex-to-complex FFT stage of the planned transform (spatial
  /// axis a < rank-1), mirroring fft::c2c_axis line geometry and pruning.
  struct C2cStage {
    index_t n = 0;      // transform length (spatial extent of the axis)
    index_t outer = 0;  // lines before the axis (includes N·width)
    index_t inner = 0;  // flattened extent after the axis
    index_t kept_inner = 0;
    std::vector<std::uint8_t> keep;  // per inner coordinate; empty = all
  };

  void lift(const float* x, float* h);
  void spectral_layer(index_t l, const float* h_in, float* h_out,
                      bool last_layer);
  void project(const float* h, float* y);
  void rfft_rows(const float* in, cpxf* out);
  void irfft_rows(const cpxf* in, float* out);
  void c2c_stage(const cpxf* src, cpxf* dst, const C2cStage& st,
                 bool forward_dir);
  void contract(index_t l, const cpxf* xs, cpxf* ys);

  fno::Fno* model_;
  fno::FnoConfig cfg_;
  util::Precision precision_ = util::Precision::kFp32;

  // Prepacked weights (snapshotted at construction / refresh_weights()).
  // Linear weights keep their (C_out, C_in) row-major layout — exactly the
  // A-operand layout the gemm_nn panel kernel consumes — in engine-owned
  // 64B-aligned storage; dense spectral weights are re-laid k-major,
  //   pw[(k·co + o)·ci·2 + 2i] = W[i, o, k]
  // so the ascending-i contraction reads contiguously (the training layout
  // strides by K per i). Factorized layers are packed from their
  // materialised per-mode product, so the pack always holds C_in·C_out·K
  // complex values per layer. At bf16 the same layout holds uint16 payloads
  // (pw16_) widened in the contraction inner loop.
  std::vector<float> wl1_, bl1_, wl2_, bl2_;
  std::vector<float> wp1_, bp1_, wp2_, bp2_;
  std::vector<std::vector<float>> wskip_, bskip_;
  std::vector<std::vector<float>> pw_;  // per layer, k-major dense weights
  std::vector<std::vector<std::uint16_t>> pw16_;  // compressed (bf16)

  // Plan state.
  bool planned_ = false;
  Shape in_shape_;                   // (N, C_in, spatial...)
  Shape out_shape_;                  // (N, C_out, spatial...)
  Shape spatial_;                    // trailing rank() extents
  index_t batch_ = 0;                // N
  index_t s_ = 0;                    // ∏ spatial
  index_t slab_ = 0;                 // spectrum elements per (n, c) slab
  index_t n_last_ = 0;               // last spatial extent (rfft length)
  index_t pre_rows_ = 0;             // ∏ spatial[0..rank-2] (per (n,c) rows)
  index_t kept_ = 0;                 // kept modes K
  std::vector<index_t> spec_offsets_;     // kept mode → offset in slab
  std::vector<std::uint8_t> keep_bins_;   // rfft-axis unpack mask
  std::vector<C2cStage> stages_;          // index = spatial axis a
  ThreadPool* pool_ = nullptr;            // captured at plan()
  std::size_t slots_ = 0;                 // pool_->slot_count() at layout time
  util::Isa isa_ = util::Isa::kScalar;    // resolved at plan()

  // Arena slices (byte offsets; pointers resolved after commit()).
  Arena arena_;
  std::size_t off_h0_ = 0, off_h1_ = 0;
  std::size_t off_win_ = 0, off_pred0_ = 0, off_pred1_ = 0;
  std::size_t off_xspec_ = 0, off_yspec_ = 0, off_work_ = 0;
  std::size_t off_twf_ = 0, off_twi_ = 0;  // rfft/irfft twiddle tables
  std::vector<std::size_t> off_tile_, off_xg_;  // per slot
  // Per-slot lane-interleaved scratch for batched line FFTs, sized for
  // fft::kMaxLanes so the runtime lane count (ISA- and type-dependent)
  // always fits without reallocation.
  std::vector<std::size_t> off_zl_, off_ul_, off_lanes_;  // per slot
  index_t tile_rows_ = 0;   // max channel count staged in a tile
  index_t line_len_ = 0;    // max c2c extent

  // Metrics (registry references cached so the hot path never locks).
  obs::Counter& forward_calls_;
  obs::Counter& replans_;
  obs::Counter& steady_allocs_;
  obs::Gauge& arena_gauge_;
  obs::Counter& fft_lines_total_;
  obs::Counter& fft_lines_skipped_;
  obs::Counter& fft_r2c_lines_;
  obs::Counter& fft_c2r_lines_;
  obs::Counter& fft_batched_lines_;
  obs::Counter& fft_batch_tail_lines_;
};

}  // namespace turb::infer
