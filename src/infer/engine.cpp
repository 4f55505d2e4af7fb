#include "infer/engine.hpp"

#include <algorithm>
#include <cstring>

#include "fft/fftnd.hpp"
#include "fft/plan_cache.hpp"
#include "fft/real.hpp"
#include "nn/activation.hpp"
#include "tensor/gemm.hpp"

namespace turb::infer {

namespace {

/// Column-block width of the fused MLP/skip kernels. A multiple of the GEMM
/// panel width (8) so in-block panel boundaries land on the same global
/// columns as a full-width gemm_nn call — the load-bearing property for
/// bitwise equality with the training path (panel membership decides which
/// columns take the register-tiled vs tail code path).
constexpr index_t kColBlock = 64;

/// Allocation-free chunked dispatch: passes the lambda by address through
/// the pool's raw (fn, ctx) overload — no std::function, no capture copy.
template <typename Body>
void run_chunks(ThreadPool& pool, index_t n, const Body& body) {
  pool.parallel_for_chunked(
      0, n,
      [](void* ctx, index_t b, index_t e) {
        (*static_cast<const Body*>(ctx))(b, e);
      },
      const_cast<void*>(static_cast<const void*>(&body)));
}

/// Element-wise shape check without materialising a Shape (no allocation).
bool shape_is(const Shape& s, std::initializer_list<index_t> want) {
  return s.size() == want.size() && std::equal(s.begin(), s.end(), want.begin());
}

void copy_linear(nn::Linear& layer, std::vector<float>& w,
                 std::vector<float>& b) {
  const TensorF& wv = layer.weight().value;
  w.assign(wv.data(), wv.data() + wv.size());
  const TensorF& bv = layer.bias().value;
  b.assign(bv.data(), bv.data() + bv.size());
}

}  // namespace

InferenceEngine::InferenceEngine(fno::Fno& model, EngineOptions options)
    : model_(&model),
      cfg_(model.config()),
      precision_(options.precision),
      forward_calls_(obs::counter("infer/forward_calls")),
      replans_(obs::counter("infer/replans")),
      steady_allocs_(obs::counter("infer/steady_state_allocs")),
      arena_gauge_(obs::gauge("infer/arena_bytes")),
      fft_lines_total_(obs::counter("fft/lines_total")),
      fft_lines_skipped_(obs::counter("fft/pruned_lines_skipped")),
      fft_r2c_lines_(obs::counter("fft/r2c_lines")),
      fft_c2r_lines_(obs::counter("fft/c2r_lines")),
      fft_batched_lines_(obs::counter("fft/batched_lines")),
      fft_batch_tail_lines_(obs::counter("fft/batch_tail_lines")) {
  wskip_.resize(static_cast<std::size_t>(cfg_.n_layers));
  bskip_.resize(static_cast<std::size_t>(cfg_.n_layers));
  pw_.resize(static_cast<std::size_t>(cfg_.n_layers));
  pw16_.resize(static_cast<std::size_t>(cfg_.n_layers));
  refresh_weights();
}

void InferenceEngine::refresh_weights() {
  copy_linear(model_->lift1(), wl1_, bl1_);
  copy_linear(model_->lift2(), wl2_, bl2_);
  copy_linear(model_->proj1(), wp1_, bp1_);
  copy_linear(model_->proj2(), wp2_, bp2_);
  const index_t w = cfg_.width;
  const bool compressed = precision_ != util::Precision::kFp32;
  if (compressed) {
    // Linear weights stay fp32 storage (the GEMM kernels are untouched) but
    // are round-tripped through the serving precision, so a compressed
    // engine's outputs depend only on the compressed payload — exactly what
    // a checkpoint-v3 load at this precision would serve.
    for (std::vector<float>* v :
         {&wl1_, &bl1_, &wl2_, &bl2_, &wp1_, &bp1_, &wp2_, &bp2_}) {
      util::quantize_bf16(v->data(), v->size());
    }
  }
  for (index_t l = 0; l < cfg_.n_layers; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    copy_linear(model_->skip(l), wskip_[ls], bskip_[ls]);
    if (compressed) {
      util::quantize_bf16(wskip_[ls].data(), wskip_[ls].size());
      util::quantize_bf16(bskip_[ls].data(), bskip_[ls].size());
    }
    // Every parameterisation is served through the one dense pack: the
    // layer's effective (C_in, C_out, K, 2) weight — the parameter itself
    // for dense layers, the per-axis factor product for factorized ones — is
    // exactly what its training forward contracts against.
    nn::SpectralLayer& conv = model_->conv(l);
    const index_t K = conv.kept_modes();
    const float* src = conv.dense_weight();
    // Training layout W[i, o, k] strides by K per input channel; re-lay
    // k-major so the contraction's ascending-i inner loop is contiguous.
    // A pure gather: every value is copied verbatim, so the arithmetic
    // downstream sees identical operands in identical order.
    std::vector<float>& pw = pw_[ls];
    pw.resize(static_cast<std::size_t>(K * w * w * 2));
    for (index_t k = 0; k < K; ++k) {
      for (index_t o = 0; o < w; ++o) {
        float* dst = pw.data() + (k * w + o) * w * 2;
        for (index_t i = 0; i < w; ++i) {
          const float* wk = src + ((i * w + o) * K + k) * 2;
          dst[2 * i] = wk[0];
          dst[2 * i + 1] = wk[1];
        }
      }
    }
    if (compressed) {
      pw16_[ls].resize(pw.size());
      util::compress_bf16(pw.data(), pw16_[ls].data(), pw.size());
      pw.clear();
      pw.shrink_to_fit();
    }
  }
}

std::size_t InferenceEngine::spectral_weight_bytes() const {
  std::size_t bytes = 0;
  for (const auto& v : pw_) bytes += v.size() * sizeof(float);
  for (const auto& v : pw16_) bytes += v.size() * sizeof(std::uint16_t);
  return bytes;
}

void InferenceEngine::plan(std::initializer_list<index_t> dims) {
  if (planned_ && shape_is(in_shape_, dims)) {
    plan(in_shape_);  // fast path: only rebinds the current pool
  } else {
    plan(Shape(dims));
  }
}

void InferenceEngine::plan(const Shape& in_shape) {
  TURB_TRACE_SCOPE("nn/infer_plan");
  ThreadPool& pool = ThreadPool::current();
  if (planned_ && in_shape == in_shape_ && slots_ == pool.slot_count()) {
    // Same layout — only refresh the captured pool (a Scope may have
    // switched to a different pool object of the same width).
    pool_ = &pool;
    return;
  }
  const std::size_t rank = cfg_.rank();
  TURB_CHECK_MSG(in_shape.size() == rank + 2,
                 "infer: plan shape must be (N, C_in, spatial...)");
  TURB_CHECK(in_shape[0] >= 1 && in_shape[1] == cfg_.in_channels);

  replans_.add(1);
  // Plan-time kernel selection: resolving the ISA here publishes the
  // isa/active gauge even before the first kernel dispatch, so every
  // --metrics-out snapshot that contains a plan also names its kernels.
  isa_ = util::active_isa();
  batch_ = in_shape[0];
  spatial_.assign(in_shape.begin() + 2, in_shape.end());
  n_last_ = spatial_.back();
  s_ = 1;
  for (const index_t e : spatial_) s_ *= e;
  pre_rows_ = s_ / n_last_;
  slab_ = pre_rows_ * (n_last_ / 2 + 1);

  // Kept-mode map: identical for every layer (same modes, same grid), so
  // take it from layer 0 and snapshot it — the conv may later rebuild its
  // map for a different training shape without invalidating this plan.
  nn::SpectralLayer& conv = model_->conv(0);
  conv.ensure_mode_map(spatial_);
  kept_ = conv.kept_modes();
  spec_offsets_ = conv.spec_offsets();
  const fft::ModeMask& mask = conv.mode_mask();
  keep_bins_ = mask.back();

  // c2c stage geometry over the (N, width, spec...) spectrum tensor,
  // mirroring fft::c2c_axis line decomposition and inner_keep pruning.
  Shape spec_full{batch_, cfg_.width};
  for (std::size_t d = 0; d < rank; ++d) {
    spec_full.push_back(d + 1 < rank ? spatial_[d] : n_last_ / 2 + 1);
  }
  stages_.assign(rank - 1, C2cStage{});
  line_len_ = 0;
  for (std::size_t a = 0; a + 1 < rank; ++a) {
    C2cStage& st = stages_[a];
    st.n = spatial_[a];
    st.outer = batch_ * cfg_.width;
    for (std::size_t d = 0; d < a; ++d) st.outer *= spec_full[2 + d];
    st.inner = 1;
    for (std::size_t d = a + 1; d < rank; ++d) st.inner *= spec_full[2 + d];
    fft::detail::inner_keep_flags(mask, a + 1, spec_full, rank, st.keep);
    st.kept_inner = 0;
    for (const std::uint8_t f : st.keep) st.kept_inner += (f != 0);
    line_len_ = std::max(line_len_, st.n);
  }

  // Arena layout. Activation ping-pong pair, rollout window + prediction
  // pair, three spectrum slabs, and per-slot kernel scratch.
  const index_t w = cfg_.width;
  const index_t spec_elems = batch_ * w * slab_;
  tile_rows_ = std::max({cfg_.lifting_channels, cfg_.projection_channels, w});
  slots_ = pool.slot_count();
  arena_.begin_layout();
  off_h0_ = arena_.reserve<float>(batch_ * w * s_);
  off_h1_ = arena_.reserve<float>(batch_ * w * s_);
  off_win_ = arena_.reserve<float>(batch_ * cfg_.in_channels * s_);
  off_pred0_ = arena_.reserve<float>(batch_ * cfg_.out_channels * s_);
  off_pred1_ = arena_.reserve<float>(batch_ * cfg_.out_channels * s_);
  off_xspec_ = arena_.reserve<cpxf>(spec_elems);
  off_yspec_ = arena_.reserve<cpxf>(spec_elems);
  off_work_ = arena_.reserve<cpxf>(spec_elems);
  off_twf_ = arena_.reserve<cpxf>(n_last_ / 2 + 1);
  off_twi_ = arena_.reserve<cpxf>(n_last_ / 2);
  off_tile_.assign(slots_, 0);
  off_xg_.assign(slots_, 0);
  off_zl_.assign(slots_, 0);
  off_ul_.assign(slots_, 0);
  off_lanes_.assign(slots_, 0);
  const index_t h = n_last_ / 2;
  for (std::size_t t = 0; t < slots_; ++t) {
    off_tile_[t] = arena_.reserve<float>(tile_rows_ * kColBlock);
    off_xg_[t] = arena_.reserve<cpxf>(w);
    off_zl_[t] = arena_.reserve<cpxf>(h * fft::kMaxLanes);
    off_ul_[t] = arena_.reserve<cpxf>((h + 1) * fft::kMaxLanes);
    off_lanes_[t] = arena_.reserve<cpxf>(line_len_ * fft::kMaxLanes);
  }
  arena_.commit();  // zero-fill: establishes the y_spec zero invariant
  arena_gauge_.set(static_cast<double>(arena_.bytes()));

  // Twiddle tables, computed once here instead of per rfft/irfft call — the
  // fill helpers evaluate the exact expressions the per-call wrappers use,
  // so table-fed transforms stay bitwise identical to the training path.
  fft::fill_rfft_twiddles(arena_.at<cpxf>(off_twf_), n_last_);
  fft::fill_irfft_twiddles(arena_.at<cpxf>(off_twi_), n_last_);

  pool_ = &pool;
  in_shape_ = in_shape;
  out_shape_ = in_shape;
  out_shape_[1] = cfg_.out_channels;
  planned_ = true;
}

float* InferenceEngine::window_buffer() const {
  TURB_CHECK_MSG(planned_, "infer: window_buffer before plan");
  return arena_.at<float>(off_win_);
}

float* InferenceEngine::pred_buffer(int i) const {
  TURB_CHECK_MSG(planned_, "infer: pred_buffer before plan");
  return arena_.at<float>(i == 0 ? off_pred0_ : off_pred1_);
}

void InferenceEngine::forward(const TensorF& x, TensorF& y) {
  // Implicit replan inside the hot path: the caller skipped plan(). The
  // counter lets the zero-alloc CI gate catch accidental shape churn;
  // explicit plan() calls (benches sweeping shapes) do not count. plan()
  // itself is a cheap no-op on the planned shape but still rebinds the
  // current pool, so a ThreadPool::Scope change between calls stays safe.
  if (planned_ && x.shape() != in_shape_) steady_allocs_.add(1);
  plan(x.shape());
  if (y.shape() != out_shape_) y = TensorF(out_shape_);
  forward_raw(x.data(), y.data());
}

void InferenceEngine::forward_raw(const float* x, float* y) {
  TURB_TRACE_SCOPE("nn/infer_forward");
  TURB_CHECK_MSG(planned_, "infer: forward before plan");
  forward_calls_.add(1);
  float* h0 = arena_.at<float>(off_h0_);
  float* h1 = arena_.at<float>(off_h1_);
  lift(x, h0);
  float* cur = h0;
  float* nxt = h1;
  for (index_t l = 0; l < cfg_.n_layers; ++l) {
    spectral_layer(l, cur, nxt, l + 1 == cfg_.n_layers);
    std::swap(cur, nxt);
  }
  project(cur, y);
}

void InferenceEngine::lift(const float* x, float* h) {
  TURB_TRACE_SCOPE("nn/infer_lift");
  const index_t cin = cfg_.in_channels, cl = cfg_.lifting_channels;
  const index_t w = cfg_.width, s = s_;
  const index_t nblocks = (s + kColBlock - 1) / kColBlock;
  const float* wl1 = wl1_.data();
  const float* bl1 = bl1_.data();
  const float* wl2 = wl2_.data();
  const float* bl2 = bl2_.data();
  run_chunks(*pool_, batch_ * nblocks, [&](index_t tb, index_t te) {
    const std::size_t slot = pool_->scratch_slot();
    float* tile = arena_.at<float>(off_tile_[slot]);
    for (index_t t = tb; t < te; ++t) {
      const index_t n = t / nblocks;
      const index_t j0 = (t % nblocks) * kColBlock;
      const index_t bs = std::min(kColBlock, s - j0);
      // lift1 GEMM into the tile, bias + GELU fused in the tile, lift2 GEMM
      // straight into h (strided), bias in place — the (N, C_lift, S)
      // intermediate of the training path never exists.
      gemm_nn<float>(cl, bs, cin, 1.0f, wl1, cin, x + n * cin * s + j0, s,
                     0.0f, tile, bs);
      for (index_t o = 0; o < cl; ++o) {
        float* row = tile + o * bs;
        const float b = bl1[o];
        for (index_t j = 0; j < bs; ++j) row[j] += b;
      }
      nn::gelu_rows(tile, tile, cl * bs);
      gemm_nn<float>(w, bs, cl, 1.0f, wl2, cl, tile, bs, 0.0f,
                     h + n * w * s + j0, s);
      for (index_t o = 0; o < w; ++o) {
        float* row = h + n * w * s + o * s + j0;
        const float b = bl2[o];
        for (index_t j = 0; j < bs; ++j) row[j] += b;
      }
    }
  });
}

void InferenceEngine::project(const float* h, float* y) {
  TURB_TRACE_SCOPE("nn/infer_project");
  const index_t w = cfg_.width, cp = cfg_.projection_channels;
  const index_t cout = cfg_.out_channels, s = s_;
  const index_t nblocks = (s + kColBlock - 1) / kColBlock;
  const float* wp1 = wp1_.data();
  const float* bp1 = bp1_.data();
  const float* wp2 = wp2_.data();
  const float* bp2 = bp2_.data();
  run_chunks(*pool_, batch_ * nblocks, [&](index_t tb, index_t te) {
    const std::size_t slot = pool_->scratch_slot();
    float* tile = arena_.at<float>(off_tile_[slot]);
    for (index_t t = tb; t < te; ++t) {
      const index_t n = t / nblocks;
      const index_t j0 = (t % nblocks) * kColBlock;
      const index_t bs = std::min(kColBlock, s - j0);
      gemm_nn<float>(cp, bs, w, 1.0f, wp1, w, h + n * w * s + j0, s, 0.0f,
                     tile, bs);
      for (index_t o = 0; o < cp; ++o) {
        float* row = tile + o * bs;
        const float b = bp1[o];
        for (index_t j = 0; j < bs; ++j) row[j] += b;
      }
      nn::gelu_rows(tile, tile, cp * bs);
      gemm_nn<float>(cout, bs, cp, 1.0f, wp2, cp, tile, bs, 0.0f,
                     y + n * cout * s + j0, s);
      for (index_t o = 0; o < cout; ++o) {
        float* row = y + n * cout * s + o * s + j0;
        const float b = bp2[o];
        for (index_t j = 0; j < bs; ++j) row[j] += b;
      }
    }
  });
}

void InferenceEngine::rfft_rows(const float* in, cpxf* out) {
  const index_t rows = batch_ * cfg_.width * pre_rows_;
  const index_t out_row = n_last_ / 2 + 1;
  fft_r2c_lines_.add(rows);
  fft_lines_total_.add(rows);
  util::fft_dispatch_counter(util::active_isa()).add(1);
  const std::uint8_t* keep = keep_bins_.empty() ? nullptr : keep_bins_.data();
  const cpxf* tw = arena_.at<cpxf>(off_twf_);
  const index_t b = fft::lane_count<float>(isa_);
  run_chunks(*pool_, rows, [&](index_t rb, index_t re) {
    const std::size_t slot = pool_->scratch_slot();
    cpxf* zl = arena_.at<cpxf>(off_zl_[slot]);
    cpxf* ul = arena_.at<cpxf>(off_ul_[slot]);
    std::int64_t my_batched = 0, my_tails = 0;
    for (index_t r = rb; r < re; r += b) {
      const index_t nl = std::min(b, re - r);
      fft::rfft_batch_scratch(in + r * n_last_, n_last_, out + r * out_row,
                              out_row, n_last_, nl, keep, zl, ul, tw);
      my_batched += nl;
      if (nl < b) my_tails += nl;
    }
    fft_batched_lines_.add(my_batched);
    if (my_tails != 0) fft_batch_tail_lines_.add(my_tails);
  });
}

void InferenceEngine::irfft_rows(const cpxf* in, float* out) {
  const index_t rows = batch_ * cfg_.width * pre_rows_;
  const index_t in_row = n_last_ / 2 + 1;
  fft_c2r_lines_.add(rows);
  fft_lines_total_.add(rows);
  util::fft_dispatch_counter(util::active_isa()).add(1);
  const cpxf* tw = arena_.at<cpxf>(off_twi_);
  const index_t b = fft::lane_count<float>(isa_);
  run_chunks(*pool_, rows, [&](index_t rb, index_t re) {
    const std::size_t slot = pool_->scratch_slot();
    cpxf* zl = arena_.at<cpxf>(off_zl_[slot]);
    cpxf* ul = arena_.at<cpxf>(off_ul_[slot]);
    std::int64_t my_batched = 0, my_tails = 0;
    for (index_t r = rb; r < re; r += b) {
      const index_t nl = std::min(b, re - r);
      fft::irfft_batch_scratch(in + r * in_row, in_row, out + r * n_last_,
                               n_last_, n_last_, nl, zl, ul, tw);
      my_batched += nl;
      if (nl < b) my_tails += nl;
    }
    fft_batched_lines_.add(my_batched);
    if (my_tails != 0) fft_batch_tail_lines_.add(my_tails);
  });
}

void InferenceEngine::c2c_stage(const cpxf* src, cpxf* dst, const C2cStage& st,
                                bool forward_dir) {
  if (st.n == 1) return;  // mirrors c2c_axis: counted only when transformed
  fft_lines_total_.add(st.outer * st.inner);
  util::fft_dispatch_counter(util::active_isa()).add(1);
  const std::uint8_t* keep = nullptr;
  if (!st.keep.empty()) {
    keep = st.keep.data();
    fft_lines_skipped_.add(st.outer * (st.inner - st.kept_inner));
  }
  const fft::PlanC2C<float>& p = fft::plan<float>(st.n);
  const index_t n = st.n, inner = st.inner;
  if (inner == 1 && src == dst) {
    if (keep != nullptr && keep[0] == 0) return;
    run_chunks(*pool_, st.outer, [&](index_t ob, index_t oe) {
      for (index_t o = ob; o < oe; ++o) {
        cpxf* line = dst + o * n;
        forward_dir ? p.forward(line) : p.inverse(line);
      }
    });
    return;
  }
  // Gather line → transform → scatter. src may differ from dst (the first
  // inverse stage reads y_spec and writes the workspace directly, replacing
  // a slab-sized memcpy); the gathered values and the transform are the
  // same either way, and skipped lines leave dst untouched — zero by the
  // arena-commit invariant, exactly what the in-place path would hold.
  //
  // Mirroring fft::c2c_axis, kept lines are collected into lane-interleaved
  // batches of up to B within each chunk where the plan has a lane kernel,
  // and run one at a time (B = 1) elsewhere, so the chunk partition and
  // thread-count determinism are unchanged; batch occupancy invariance
  // (fft/plan.hpp) makes the grouping unobservable in the output bits.
  const index_t b = p.batch_wants_lanes() ? fft::lane_count<float>(isa_) : 1;
  run_chunks(*pool_, st.outer * inner, [&](index_t tb, index_t te) {
    cpxf* work = arena_.at<cpxf>(off_lanes_[pool_->scratch_slot()]);
    const cpxf* in_lanes[fft::kMaxLanes];
    cpxf* out_lanes[fft::kMaxLanes];
    index_t count = 0;
    std::int64_t my_batched = 0, my_tails = 0;
    const auto flush = [&] {
      if (count == 0) return;
      for (index_t l = 0; l < count; ++l) {
        const cpxf* base = in_lanes[l];
        for (index_t j = 0; j < n; ++j) work[j * count + l] = base[j * inner];
      }
      forward_dir ? p.forward_batch(work, count)
                  : p.inverse_batch(work, count);
      for (index_t l = 0; l < count; ++l) {
        cpxf* base = out_lanes[l];
        for (index_t j = 0; j < n; ++j) base[j * inner] = work[j * count + l];
      }
      my_batched += count;
      if (count < b) my_tails += count;
      count = 0;
    };
    for (index_t t = tb; t < te; ++t) {
      const index_t o = t / inner;
      const index_t i = t % inner;
      if (keep != nullptr && keep[i] == 0) continue;
      in_lanes[count] = src + o * n * inner + i;
      out_lanes[count] = dst + o * n * inner + i;
      if (++count == b) flush();
    }
    flush();
    if (b > 1) fft_batched_lines_.add(my_batched);
    if (my_tails != 0) fft_batch_tail_lines_.add(my_tails);
  });
}

void InferenceEngine::contract(index_t l, const cpxf* xs, cpxf* ys) {
  const index_t w = cfg_.width, K = kept_, slab = slab_;
  const index_t* offs = spec_offsets_.data();
  const auto ls = static_cast<std::size_t>(l);
  // Contraction over the k-major pack; `load` widens one stored weight
  // component to fp32 (identity at fp32, bf16 widening on the compressed
  // path — the only arithmetic difference between the tiers).
  auto dense_contract = [&](const auto* pw, auto load) {
    run_chunks(*pool_, batch_ * K, [&](index_t tb, index_t te) {
      cpxf* xg = arena_.at<cpxf>(off_xg_[pool_->scratch_slot()]);
      for (index_t t = tb; t < te; ++t) {
        const index_t n = t / K;
        const index_t k = t % K;
        const index_t off = offs[k];
        const cpxf* xn = xs + n * w * slab;
        cpxf* yn = ys + n * w * slab;
        // Gather the input channels of this mode once (a verbatim copy),
        // then run the training contraction: for every output channel,
        // accumulate over input channels in ascending order — the identical
        // per-element expression and rounding sequence as the training
        // forward, just with contiguous (prepacked) weight reads.
        for (index_t i = 0; i < w; ++i) xg[i] = xn[i * slab + off];
        const auto* pk = pw + k * w * w * 2;
        for (index_t o = 0; o < w; ++o) {
          const auto* po = pk + o * w * 2;
          float ar = 0.0f, ai = 0.0f;
          for (index_t i = 0; i < w; ++i) {
            const cpxf xv = xg[i];
            const float wr = load(po[2 * i]);
            const float wi = load(po[2 * i + 1]);
            ar += wr * xv.real() - wi * xv.imag();
            ai += wr * xv.imag() + wi * xv.real();
          }
          yn[o * slab + off] = cpxf(ar, ai);
        }
      }
    });
  };
  if (precision_ == util::Precision::kFp32) {
    dense_contract(pw_[ls].data(), [](float v) { return v; });
  } else {
    dense_contract(pw16_[ls].data(),
                   [](std::uint16_t v) { return util::bf16_to_float(v); });
  }
}

void InferenceEngine::spectral_layer(index_t l, const float* h_in,
                                     float* h_out, bool last_layer) {
  TURB_TRACE_SCOPE("nn/infer_spectral");
  cpxf* xspec = arena_.at<cpxf>(off_xspec_);
  cpxf* yspec = arena_.at<cpxf>(off_yspec_);
  cpxf* work = arena_.at<cpxf>(off_work_);
  const std::size_t rank = cfg_.rank();

  // Forward transform of h_in (rfft rows, then c2c stages innermost-first —
  // the rfftn_into stage order).
  rfft_rows(h_in, xspec);
  for (std::size_t a = rank - 1; a-- > 0;) {
    c2c_stage(xspec, xspec, stages_[a], /*forward_dir=*/true);
  }

  // Kept-mode contraction into y_spec (zero outside kept offsets by the
  // arena-commit invariant), then the irfftn path into h_out. y_spec must
  // stay pristine — the next layer's contraction rewrites only kept
  // offsets — so inverse stages never run in place on it. Rank 2 has a
  // single c2c stage, which reads y_spec and writes the workspace directly
  // (skipped lines leave workspace zeros that match the zeros a fresh copy
  // would hold, because skipped ⊆ outside the product mask). With two or
  // more stages that shortcut is unsound — a later stage writes positions
  // an earlier stage skips, so layer-stale values would survive where the
  // training path sees zeros — hence the slab copy.
  contract(l, xspec, yspec);
  if (rank == 2) {
    c2c_stage(yspec, work, stages_[0], /*forward_dir=*/false);
  } else {
    std::memcpy(work, yspec,
                static_cast<std::size_t>(batch_ * cfg_.width * slab_) *
                    sizeof(cpxf));
    for (std::size_t a = 0; a + 1 < rank; ++a) {
      c2c_stage(work, work, stages_[a], /*forward_dir=*/false);
    }
  }
  irfft_rows(work, h_out);

  // Fused skip path: 1×1 skip GEMM into the tile, then per element the
  // training rounding chain — skip = fl(gemm + bias); v = fl(spat + skip);
  // GELU (nn::gelu_rows) except on the last block — written back over the
  // irfft output.
  // (A beta=1 GEMM accumulating into h_out would round as
  // fl(fl(spat + Σ) + bias) instead — a different sequence; forbidden.)
  // A per-spatial-row irfft+skip fusion (one pass over h_out) was measured
  // and lost: it trades the h_out re-read for strided transform I/O, a net
  // regression over the streaming two-pass layout below.
  const index_t w = cfg_.width, s = s_;
  const float* wsk = wskip_[static_cast<std::size_t>(l)].data();
  const float* bsk = bskip_[static_cast<std::size_t>(l)].data();
  const index_t nblocks = (s + kColBlock - 1) / kColBlock;
  run_chunks(*pool_, batch_ * nblocks, [&](index_t tb, index_t te) {
    const std::size_t slot = pool_->scratch_slot();
    float* tile = arena_.at<float>(off_tile_[slot]);
    for (index_t t = tb; t < te; ++t) {
      const index_t n = t / nblocks;
      const index_t j0 = (t % nblocks) * kColBlock;
      const index_t bs = std::min(kColBlock, s - j0);
      gemm_nn<float>(w, bs, w, 1.0f, wsk, w, h_in + n * w * s + j0, s, 0.0f,
                     tile, bs);
      float* dst = h_out + n * w * s + j0;
      if (last_layer) {
        for (index_t o = 0; o < w; ++o) {
          const float* srow = tile + o * bs;
          float* drow = dst + o * s;
          const float b = bsk[o];
          for (index_t j = 0; j < bs; ++j) drow[j] += srow[j] + b;
        }
        continue;
      }
      // Pre-activations gathered into the contiguous tile, GELU over the
      // whole tile in one kernel call, rows scattered back to h_out.
      for (index_t o = 0; o < w; ++o) {
        float* srow = tile + o * bs;
        const float* drow = dst + o * s;
        const float b = bsk[o];
        for (index_t j = 0; j < bs; ++j) srow[j] = drow[j] + (srow[j] + b);
      }
      nn::gelu_rows(tile, tile, w * bs);
      for (index_t o = 0; o < w; ++o) {
        std::memcpy(dst + o * s, tile + o * bs,
                    static_cast<std::size_t>(bs) * sizeof(float));
      }
    }
  });
}

void InferenceEngine::slide_window(float* win, const float* pred,
                                   index_t batch, index_t frame) const {
  const index_t cin = cfg_.in_channels, cout = cfg_.out_channels;
  for (index_t b = 0; b < batch; ++b) {
    float* wb = win + b * cin * frame;
    const float* pb = pred + b * cout * frame;
    if (cout >= cin) {
      std::copy_n(pb + (cout - cin) * frame, cin * frame, wb);
    } else {
      // Overlapping forward copy: dest < src, reads stay ahead of writes.
      std::copy(wb + cout * frame, wb + cin * frame, wb);
      std::copy_n(pb, cout * frame, wb + (cin - cout) * frame);
    }
  }
}

void InferenceEngine::rollout_channels_into(const TensorF& history,
                                            index_t steps, TensorF& out) {
  TURB_TRACE_SCOPE("nn/infer_rollout");
  TURB_CHECK_MSG(cfg_.rank() == 2, "rollout_channels needs a rank-2 model");
  TURB_CHECK_MSG(history.rank() == 3 && history.dim(0) == cfg_.in_channels,
                 "history must be (C_in, H, W)");
  TURB_CHECK(steps >= 1);
  const index_t h = history.dim(1), w = history.dim(2);
  const index_t frame = h * w;
  const index_t cin = cfg_.in_channels, cout = cfg_.out_channels;
  plan({1, cin, h, w});
  if (!shape_is(out.shape(), {steps, h, w})) out = TensorF({steps, h, w});

  float* win = window_buffer();
  std::copy_n(history.data(), cin * frame, win);
  const float* cur_in = win;
  int pp = 0;
  index_t produced = 0;
  while (produced < steps) {
    float* pred = pred_buffer(pp);
    forward_raw(cur_in, pred);
    const index_t take = std::min(cout, steps - produced);
    std::copy_n(pred, take * frame, out.data() + produced * frame);
    produced += take;
    if (cout >= cin) {
      // The next window is a suffix of this prediction: point straight into
      // the ping buffer and write the next step into the pong buffer.
      cur_in = pred + (cout - cin) * frame;
      pp ^= 1;
    } else {
      slide_window(win, pred, 1, frame);
      cur_in = win;  // input and output buffers stay disjoint; no flip
    }
  }
}

void InferenceEngine::rollout_channels_batched_into(const TensorF& histories,
                                                    index_t steps,
                                                    TensorF& out) {
  TURB_TRACE_SCOPE("nn/infer_rollout");
  TURB_CHECK_MSG(cfg_.rank() == 2, "batched rollout needs a rank-2 model");
  TURB_CHECK_MSG(histories.rank() == 4 && histories.dim(1) == cfg_.in_channels,
                 "histories must be (B, C_in, H, W)");
  TURB_CHECK(steps >= 1);
  const index_t nb = histories.dim(0);
  const index_t h = histories.dim(2), w = histories.dim(3);
  const index_t frame = h * w;
  const index_t cin = cfg_.in_channels, cout = cfg_.out_channels;
  plan({nb, cin, h, w});
  if (!shape_is(out.shape(), {nb, steps, h, w})) {
    out = TensorF({nb, steps, h, w});
  }

  float* win = window_buffer();
  std::copy_n(histories.data(), nb * cin * frame, win);
  float* pred = pred_buffer(0);
  index_t produced = 0;
  while (produced < steps) {
    forward_raw(win, pred);
    const index_t take = std::min(cout, steps - produced);
    for (index_t b = 0; b < nb; ++b) {
      std::copy_n(pred + b * cout * frame, take * frame,
                  out.data() + (b * steps + produced) * frame);
    }
    slide_window(win, pred, nb, frame);
    produced += take;
  }
}

void InferenceEngine::rollout_3d_into(const TensorF& seed_block,
                                      index_t blocks, TensorF& out) {
  TURB_TRACE_SCOPE("nn/infer_rollout");
  TURB_CHECK_MSG(cfg_.rank() == 3, "rollout_3d needs a rank-3 model");
  TURB_CHECK_MSG(seed_block.rank() == 3, "seed block must be (T, H, W)");
  TURB_CHECK(blocks >= 1);
  const index_t t = seed_block.dim(0);
  const index_t h = seed_block.dim(1), w = seed_block.dim(2);
  const index_t block_elems = t * h * w;
  plan({1, 1, t, h, w});
  if (!shape_is(out.shape(), {blocks * t, h, w})) {
    out = TensorF({blocks * t, h, w});
  }

  float* win = window_buffer();
  std::copy_n(seed_block.data(), block_elems, win);
  const float* cur = win;
  int pp = 0;
  for (index_t b = 0; b < blocks; ++b) {
    float* pred = pred_buffer(pp);
    forward_raw(cur, pred);
    std::copy_n(pred, block_elems, out.data() + b * block_elems);
    cur = pred;  // next block consumes this prediction in place
    pp ^= 1;
  }
}

}  // namespace turb::infer
