#!/usr/bin/env bash
# Tier-1 gate: configure, build, run the unit tests at two pool widths, then
# smoke-check the observability pipeline.
#
#  1. ctest under TURBFNO_THREADS=1 and again under TURBFNO_THREADS=4. The
#     determinism suite writes its trained-weight dumps
#     (determinism_weights_*.tnn) into the test working directory; the two
#     runs' dumps are diffed byte-for-byte, extending the thread-count
#     determinism contract across processes and pool widths.
#  1b. Dual-ISA determinism leg: the determinism suite re-run with the SIMD
#     dispatch forced to each tier (TURBFNO_ISA=scalar and =avx2) at pool
#     widths 1 and 4, diffing the weight dumps byte-for-byte within each
#     ISA. Dumps are only comparable within a fixed ISA (Tier A); across
#     ISAs the contract is the bounded Tier B agreement tested by
#     tests/test_isa.cpp. The avx2 leg is skipped with a notice on hosts
#     whose /proc/cpuinfo lacks avx2+fma.
#  2. One bench with --metrics-out, asserting the exported JSON contains the
#     fft/*, nn/*, and train/* spans plus the mode-pruning coverage counters.
#  3. A perf-harness smoke: bench_perf_train at a tiny measurement budget,
#     asserting it produces a well-formed BENCH_spectral.json (the recorded
#     numbers are non-gating; only the schema is checked here) and that the
#     batched line-FFT path engaged (fft/batched_lines > 0).
#  4. An inference-engine smoke: bench_perf_infer at a tiny budget with
#     --metrics-out, asserting the nn/infer_* spans are exported, the
#     physics-side rows (ns/spectral_step_n64, core/compute_metrics_window_n32)
#     are present, the
#     zero-steady-state-allocation contract holds
#     (infer/steady_state_allocs == 0), the engine drove the batched FFT
#     path (fft/batched_lines > 0), the plan-cache memo stayed hit-only
#     and no FFT workspace was allocated across a steady-state repeat
#     (fft/plan_cache_misses_steady_delta == 0,
#     fft/workspace_misses_steady_delta == 0), and the BENCH_inference.json
#     schema is well formed.
#  5. A serving smoke: bench_perf_serve at a tiny grid/horizon, asserting
#     concurrent sessions are bitwise identical to sequential rollouts at
#     pool widths 1 and 4, the saturation exercise bumps
#     serve/admission_rejects, and warm sessions keep
#     infer/steady_state_allocs at 0. The same run covers the compressed
#     serving contract: the bf16 engine-pool rollouts must stay within the
#     documented per-snapshot relative-L2 bound of the fp32 results
#     (compressed_serving.within_bound) with steady-state allocations still
#     zero after the bf16 legs, and per-ISA / per-precision variant rows
#     must be present. The ensemble UQ leg is asserted from the same run:
#     per-K ensemble rows exist, serve/ensemble_members accounted every
#     fanned-out member stream, identical members reduced to exactly-zero
#     variance, perturbed members to finite positive variance
#     (ensemble_contract.ok), and steady-state allocations stayed zero
#     across the ensemble legs too. The hybrid leg is asserted as well:
#     served 5/5 FNO↔PDE sessions are bitwise equal to
#     core::HybridScheduler::run at pool widths 1 and 4, keep the 5/5
#     alternation, and leave their plain batchmates bitwise unchanged
#     (hybrid_contract.ok).
#  6. A fault-injection smoke: examples/robust_smoke corrupts a checkpoint
#     (loader must reject it and bump robust/corrupt_rejected), checks the
#     checkpoint format matrix (TNN3 bf16 round-trip quantized exactly,
#     legacy TNN2/TNN1 still load), and forces a divergent hybrid rollout
#     (guard must trip, trajectory must stay finite, PDE fallback windows
#     must appear); the exported robust/* counters are asserted.
#  7. Optionally (TURBFNO_TIER1_SANITIZE=1), an AddressSanitizer + UBSan
#     build of the test suite in a sibling build dir, with ctest run once.
#
# Usage: scripts/check_tier1.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j

DUMP_DIR="$BUILD_DIR/tests"
DUMPS=(determinism_weights_t1.tnn determinism_weights_t2.tnn
       determinism_weights_t4.tnn determinism_weights_global.tnn)
SAVE_DIR="$BUILD_DIR/determinism_threads1"

run_ctest() {
  TURBFNO_THREADS="$1" ctest --test-dir "$BUILD_DIR" --output-on-failure \
      -j "$(nproc)"
}

rm -rf "$SAVE_DIR" && mkdir -p "$SAVE_DIR"
run_ctest 1
for dump in "${DUMPS[@]}"; do
  [[ -f "$DUMP_DIR/$dump" ]] || {
    echo "check_tier1: determinism dump $dump missing after ctest run" >&2
    exit 1
  }
  cp "$DUMP_DIR/$dump" "$SAVE_DIR/$dump"
done

run_ctest 4
for dump in "${DUMPS[@]}"; do
  cmp "$SAVE_DIR/$dump" "$DUMP_DIR/$dump" || {
    echo "check_tier1: $dump differs between TURBFNO_THREADS=1 and =4 runs" >&2
    exit 1
  }
done

# Dual-ISA leg: within each forced ISA, the determinism dumps must be
# byte-identical across pool widths 1 and 4 (cross-process Tier A). The
# scalar leg always runs; the avx2 leg needs avx2+fma in /proc/cpuinfo.
ISA_LEGS=(scalar)
if [[ -r /proc/cpuinfo ]] && grep -q avx2 /proc/cpuinfo \
    && grep -q fma /proc/cpuinfo; then
  ISA_LEGS+=(avx2)
else
  echo "check_tier1: host lacks avx2+fma (or /proc/cpuinfo unreadable);" \
       "skipping the avx2 determinism leg"
fi
for isa in "${ISA_LEGS[@]}"; do
  ISA_SAVE_DIR="$BUILD_DIR/determinism_isa_$isa"
  rm -rf "$ISA_SAVE_DIR" && mkdir -p "$ISA_SAVE_DIR"
  (cd "$DUMP_DIR" && TURBFNO_ISA="$isa" TURBFNO_THREADS=1 \
      ./test_determinism --gtest_brief=1 > /dev/null)
  for dump in "${DUMPS[@]}"; do
    cp "$DUMP_DIR/$dump" "$ISA_SAVE_DIR/$dump"
  done
  (cd "$DUMP_DIR" && TURBFNO_ISA="$isa" TURBFNO_THREADS=4 \
      ./test_determinism --gtest_brief=1 > /dev/null)
  for dump in "${DUMPS[@]}"; do
    cmp "$ISA_SAVE_DIR/$dump" "$DUMP_DIR/$dump" || {
      echo "check_tier1: $dump differs between TURBFNO_THREADS=1 and =4" \
           "under TURBFNO_ISA=$isa" >&2
      exit 1
    }
  done
  echo "check_tier1: determinism dumps identical across widths under" \
       "TURBFNO_ISA=$isa"
done

METRICS="$BUILD_DIR/check_tier1_metrics.json"
rm -f "$METRICS"
TURBFNO_SCALE=ci "$BUILD_DIR/bench/bench_fig5_channels" \
    --metrics-out "$METRICS" > /dev/null

for span in '"fft/r2c"' '"nn/linear_fwd"' '"train/forward"' \
            '"fft/pruned_lines_skipped"' '"fft/lines_total"'; do
  grep -q "$span" "$METRICS" || {
    echo "check_tier1: span $span missing from $METRICS" >&2
    exit 1
  }
done
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$METRICS"

# Perf-harness smoke: tiny budget, schema-only assertions (numbers are the
# job of scripts/bench_perf.sh and are not gated here).
PERF_JSON="$BUILD_DIR/check_tier1_bench_spectral.json"
rm -f "$PERF_JSON"
"$BUILD_DIR/bench/bench_perf_train" --min-seconds 0.01 --out "$PERF_JSON" \
    > /dev/null
python3 - "$PERF_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["version"] == 1, "unexpected BENCH_spectral schema version"
assert "spectral/fwdbwd_pruned" in d["results_ns_per_op"], \
    "spectral/fwdbwd_pruned timing missing"
assert "spectral_fwdbwd_pruned_vs_full" in d["speedup"], "speedup missing"
assert "fft/pruned_lines_skipped" in d["counters"], "pruning counter missing"
assert "fft/lines_total" in d["counters"], "lines_total counter missing"
assert d["counters"]["fft/batched_lines"] > 0, \
    "batched line-FFT path never engaged"
assert "fft/batch_tail_lines" in d["counters"], "batch tail counter missing"
EOF

# Inference-engine smoke: spans present, zero steady-state allocations,
# BENCH_inference.json schema valid. Timings are non-gating here.
INFER_JSON="$BUILD_DIR/check_tier1_bench_inference.json"
INFER_METRICS="$BUILD_DIR/check_tier1_infer_metrics.json"
rm -f "$INFER_JSON" "$INFER_METRICS"
"$BUILD_DIR/bench/bench_perf_infer" --min-seconds 0.01 --out "$INFER_JSON" \
    --metrics-out "$INFER_METRICS" > /dev/null
for span in '"nn/infer_plan"' '"nn/infer_forward"' '"nn/infer_lift"' \
            '"nn/infer_spectral"' '"nn/infer_project"' '"nn/infer_rollout"'; do
  grep -q "$span" "$INFER_METRICS" || {
    echo "check_tier1: span $span missing from $INFER_METRICS" >&2
    exit 1
  }
done
python3 - "$INFER_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["version"] == 1, "unexpected BENCH_inference schema version"
for key in ("infer/train_forward_n64", "infer/engine_forward_n64",
            "infer/rollout_step_n64", "infer/batched_rollout_step_n64",
            "ns/spectral_step_n64", "core/compute_metrics_window_n32"):
    assert key in d["results_ns_per_op"], f"{key} timing missing"
assert "engine_forward_vs_train" in d["speedup"], "speedup missing"
assert d["counters"]["infer/steady_state_allocs"] == 0, \
    "inference engine allocated in steady state"
assert d["gauges"]["infer/arena_bytes"] > 0, "arena gauge missing"
assert d["counters"]["fft/batched_lines"] > 0, \
    "batched line-FFT path never engaged in the engine"
assert d["counters"]["fft/plan_cache_misses_steady_delta"] == 0, \
    "plan cache missed during the steady-state repeat (memo thrashing)"
assert d["counters"]["fft/workspace_misses_steady_delta"] == 0, \
    "FFT workspace allocated during the engine's steady-state repeat"
EOF

# Serving smoke: a small bench_perf_serve run must report concurrent ==
# sequential bitwise identity, at least one admission rejection from the
# saturation exercise, and zero engine steady-state allocations across warm
# sessions. Throughput numbers are non-gating here.
SERVE_JSON="$BUILD_DIR/check_tier1_bench_serving.json"
SERVE_METRICS="$BUILD_DIR/check_tier1_serve_metrics.json"
rm -f "$SERVE_JSON" "$SERVE_METRICS"
"$BUILD_DIR/bench/bench_perf_serve" --grid 16 --steps 2 --out "$SERVE_JSON" \
    --metrics-out "$SERVE_METRICS" > /dev/null
for name in '"serve/round"' '"serve/batch"' '"serve/admission_rejects"' \
            '"serve/batches"' '"serve/queue_depth"' '"isa/active"' \
            '"serve/ensemble_sessions"' '"serve/ensemble_members"' \
            '"serve/ensemble_rounds"' '"serve/ensemble_energy_rel_spread"' \
            '"isa/gemm_dispatch_scalar"' '"isa/fft_dispatch_scalar"' \
            '"isa/act_dispatch_scalar"'; do
  grep -q "$name" "$SERVE_METRICS" || {
    echo "check_tier1: metric $name missing from $SERVE_METRICS" >&2
    exit 1
  }
done
python3 - "$SERVE_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["version"] == 1, "unexpected BENCH_serving schema version"
assert d["bitwise_identical_threads_1_4"] is True, \
    "concurrent serving diverged from sequential rollouts"
levels = {lvl["sessions"] for lvl in d["levels"]}
assert 512 in levels, "512-session level missing"
for lvl in d["levels"]:
    assert "latency_p50_ms" in lvl and "latency_p99_ms" in lvl, \
        "latency percentiles missing"
    assert "batch_occupancy_mean" in lvl, "occupancy stats missing"
assert d["counters"]["serve/admission_rejects"] >= 1, \
    "admission control never rejected"
assert d["counters"]["infer/steady_state_allocs"] == 0, \
    "serving allocated in engine steady state (incl. the bf16 legs)"
cs = d["compressed_serving"]
assert cs["precision"] == "bf16", "compressed serving leg missing"
assert cs["within_bound"] is True, (
    f"bf16 serving rel-L2 {cs['worst_snapshot_rel_l2_vs_fp32']} "
    f"exceeded bound {cs['bound']}")
assert 0.0 < cs["worst_snapshot_rel_l2_vs_fp32"] <= cs["bound"], \
    "bf16 rel-L2 outside (0, bound]"
variants = {(v["isa"], v["precision"]) for v in d["variants"]}
assert ("scalar", "fp32") in variants, "per-ISA variant rows missing"
assert any(p == "bf16" for _, p in variants), "bf16 variant row missing"
ks = {row["k"] for row in d["ensembles"]}
assert {1, 2, 4, 8} <= ks, f"per-K ensemble rows missing (got {ks})"
for row in d["ensembles"]:
    assert row["member_snapshots_per_s"] > 0, "ensemble throughput missing"
ec = d["ensemble_contract"]
assert ec["identical_members_zero_variance"] is True, \
    "identical ensemble members did not reduce to exactly-zero variance"
assert ec["perturbed_variance_finite_positive"] is True, \
    "perturbed ensemble members lack finite positive variance"
assert ec["members_counter_delta"] == ec["members_counter_expected"], \
    "serve/ensemble_members counter did not account every member stream"
assert ec["ok"] is True, "ensemble contract failed"
assert d["counters"]["serve/ensemble_members"] >= 4, \
    "serve/ensemble_members counter missing from the serving bench"
hc = d["hybrid_contract"]
assert hc["bitwise_vs_scheduler_threads_1_4"] is True, \
    "served hybrid sessions diverged from HybridScheduler::run"
assert hc["alternation"] is True, "served hybrid broke the 5/5 alternation"
assert hc["ok"] is True, "hybrid contract failed"
EOF

# Fault-injection smoke: corrupt checkpoints rejected, divergent rollouts
# detected and degraded to the PDE. robust_smoke exits non-zero on any failed
# expectation; the counters prove the events flowed through the obs registry.
ROBUST_METRICS="$BUILD_DIR/check_tier1_robust_metrics.json"
rm -f "$ROBUST_METRICS"
(cd "$BUILD_DIR" && ./examples/robust_smoke \
    --metrics-out check_tier1_robust_metrics.json > /dev/null)
python3 - "$ROBUST_METRICS" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
assert c["robust/corrupt_rejected"] >= 2, "corrupt checkpoints were not rejected"
assert c["robust/guard_trips"] >= 1, "rollout guard never tripped"
assert c["robust/fallback_windows"] >= 1, "no PDE fallback windows recorded"
assert c["robust/checkpoint_writes"] >= 1, "no atomic checkpoint writes recorded"
EOF

if [[ "${TURBFNO_TIER1_SANITIZE:-0}" == "1" ]]; then
  ASAN_DIR="$BUILD_DIR-asan"
  cmake -B "$ASAN_DIR" -S . -DTURBFNO_SANITIZE=ON -DTURBFNO_BUILD_BENCH=OFF \
      -DTURBFNO_BUILD_EXAMPLES=OFF
  cmake --build "$ASAN_DIR" -j
  TURBFNO_THREADS=2 ctest --test-dir "$ASAN_DIR" --output-on-failure \
      -j "$(nproc)"
fi

echo "check_tier1: OK (tests passed at 1 and 4 threads, determinism dumps identical incl. forced-ISA legs [${ISA_LEGS[*]}], metrics JSON valid: $METRICS, perf smoke JSON valid: $PERF_JSON, inference smoke JSON valid: $INFER_JSON, serving smoke JSON valid: $SERVE_JSON, fault-injection smoke valid: $ROBUST_METRICS)"
