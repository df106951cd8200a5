"""Acceptance suite: one gate per paper claim, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  A gate checks only the part of its claim that no ``descattn verify``
check (``verify.CHECKS``, one pytest id each in ``test_verify.py``), unit
test or Hypothesis property checks, and names the home of the rest in single
backticks; ``test_verify.py`` fails if such a name is not a check or a test
that exists.  Criteria 6 and 7 are checked entirely elsewhere, and their
numbers stay reserved:

- criterion 6, kernel numerics: `kernels.softmax_rows_sum_to_one`,
  `kernels.bilinear_exact_on_affine_fields`,
  `compression.lloyd_objective_nonincreasing`,
  `test_compression.py::test_avgpool_preserves_global_mean_on_divisible_grid`
  and `test_compression.py::test_count_and_strict_order`;
- criterion 7, key-duplication invariance:
  `attention.key_duplication_invariance`.

Each gate pins its own tolerances inline (oracle 1e-5 float32 / 1e-10
float64, block-causal streaming 1e-4, causality 1e-6, cache ratio 5%, the
published figures 0.005).  ``src/descattn/verify.py`` pins the checks'
tolerances, and each unit test pins its own.
"""

import time
from dataclasses import replace

import numpy as np

import descattn as d

PATCH_ONLY = d.FrameLayout(h=8, w=8, n_camera=0, n_register=0, channels=32)
DESK = d.FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)


def _cfg(layout, *, layers, ratio=1, include_aux=False, seed=0, dtype=np.float32,
         interval=200, mask=d.AttentionMask()):
    return d.AggregatorConfig(
        layout=layout, layers=layers, heads=4, global_mode="descriptor",
        method=d.CompressionMethod("bilinear", ratio), include_aux=include_aux,
        selector=d.KeyframeSelector(interval=interval),
        mask=mask, seed=seed, dtype=dtype)


def test_criterion_1_oracle_equivalence():
    """Descriptor mode with an uncompressed, anchor-free bundle equals the
    dense reference at 1e-5 (float32) / 1e-10 (float64)."""
    start = time.perf_counter()
    worst = {np.float32: 0.0, np.float64: 0.0}
    for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-10)):
        for frames in (2, 4, 8):
            for layers in (1, 2, 4):
                cfg = _cfg(PATCH_ONLY, layers=layers, dtype=dtype,
                           seed=layers * 10 + frames)
                t = d.generate_synthetic(frames, PATCH_ONLY, frames + layers,
                                         dtype=dtype)
                w = d.init_weights(cfg)
                desc = d.forward_offline(t, cfg, w)
                dense = d.forward_offline(t, cfg.with_mode("dense"), w)
                err = float(np.max(np.abs(desc.values - dense.values)))
                worst[dtype] = max(worst[dtype], err)
                assert err <= tol, (dtype, frames, layers, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle-equivalence sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: oracle equivalence "
          f"(max err f32={worst[np.float32]:.2e}, f64={worst[np.float64]:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_2_complexity_claim():
    """The attention core shrinks ~14.58x at the production configuration,
    reported next to the published ~15.76x end-to-end figure (different
    counting convention).  That the core ratio is K/K_d exactly, and r^2 on
    pure patch grids, is `analysis.core_ratio_equals_k_over_kd`."""
    lay = d.image_grid_layout(channels=4)
    cfg = d.AggregatorConfig(layout=lay, layers=1, heads=2,
                             global_mode="descriptor",
                             method=d.CompressionMethod("bilinear", 4),
                             include_aux=True,
                             selector=d.KeyframeSelector(interval=200))
    reduction, k, kd = d.attention_core_reduction(cfg, 1000)
    assert (k, kd) == (1374000, 94244)
    assert abs(reduction - 14.58) < 0.005
    published = d.reference_end_to_end_reduction(1000)
    assert published == 105.61 / 6.70
    assert abs(published - 15.76) < 0.005
    assert published > reduction  # counting conventions differ; both reported
    print(f"\nPASS criterion 2: core reduction K/K_d = {reduction:.2f}x at the "
          f"production configuration; published end-to-end {published:.2f}x "
          "reported alongside")


def test_criterion_3_memory_claim():
    """The live cache's ratio to a full-token cache hits 1/(p*r^2) within 5%
    at S=50 on divisible pure patch grids.  That the live record equals the
    closed form is `analysis.memory_model_matches_live_cache`, and the closed
    form itself is `streaming.memory_law`."""
    patch8 = d.FrameLayout(h=8, w=8, n_camera=0, n_register=0, channels=8)
    for p in (1, 2, 5):
        for r in (1, 2, 4):
            base = d.AggregatorConfig(layout=patch8, layers=1, heads=2,
                                      global_mode="descriptor",
                                      method=d.CompressionMethod("bilinear", r),
                                      include_aux=False)
            cfg = d.StreamConfig(base=base, chunk_size=10, retain_rate=p)
            t = d.generate_synthetic(50, patch8, p * 10 + r)
            _, cache = d.run_stream(t, cfg)
            live = d.cache_report(cache).ratio_vs_full
            limit = 1.0 / (p * r * r)
            assert abs(live - limit) / limit <= 0.05, (p, r, live, limit)
    print("\nPASS criterion 3: live cache ratio hits 1/(p*r^2) within 5% at S=50 "
          "(9 combos)")


def test_criterion_4_streaming_equivalence():
    """Chunked streaming with p=1 matches the block-causal offline oracle
    within 1e-4 (float32, S=12, c=4, L=4).  That c=S streaming is bitwise
    offline is `streaming.full_chunk_matches_offline`."""
    base = _cfg(PATCH_ONLY, layers=4, ratio=2, include_aux=False, seed=41)
    t = d.generate_synthetic(12, PATCH_ONLY, 41)
    chunked, _ = d.run_stream(t, d.StreamConfig(base=base, chunk_size=4,
                                                retain_rate=1))
    oracle = d.forward_offline(t, replace(base, mask=d.AttentionMask(4)))
    err = float(np.max(np.abs(chunked.values - oracle.values)))
    assert err <= 1e-4, err
    print(f"\nPASS criterion 4: block-causal oracle err {err:.2e} <= 1e-4")


def test_criterion_5_causality():
    """Under a block-causal mask, chunk-t outputs of the dense and the
    descriptor stack are invariant (<=1e-6) to perturbing later chunks.
    Streaming causality is `streaming.causality`.

    The runs use the fixed-stride key-frame selector: cluster selection
    scans the whole sequence, so its choice may shift when future frames
    change, which is exactly why streaming selects key frames chunk-locally.
    """
    t = d.generate_synthetic(8, DESK, 50)
    bumped = t.values.copy()
    bumped[4:] *= -3.0  # layer norm would cancel a constant shift
    t2 = d.TokenTensor(DESK, bumped)
    mask = d.AttentionMask(4)

    worst = 0.0
    for mode in ("dense", "descriptor"):
        cfg = replace(_cfg(DESK, layers=2, ratio=2, include_aux=True, seed=51,
                           mask=mask), global_mode=mode,
                      selector=d.KeyframeSelector("fixed_stride", interval=200))
        a = d.forward_offline(t, cfg)
        b = d.forward_offline(t2, cfg)
        worst = max(worst, float(np.max(np.abs(a.values[:4] - b.values[:4]))))
    assert worst <= 1e-6
    print(f"\nPASS criterion 5: causality (worst leak {worst:.2e} <= 1e-6)")


def test_criterion_8_determinism(tmp_path):
    """Identical config and seed give bitwise-identical outputs, streaming
    and across two CLI sweeps.  Offline determinism in both modes is
    `aggregator.bitwise_determinism`."""
    cfg = _cfg(DESK, layers=2, ratio=2, include_aux=True, seed=80)
    t = d.generate_synthetic(5, DESK, 81)
    scfg = d.StreamConfig(base=cfg, chunk_size=2, retain_rate=2)
    assert np.array_equal(d.run_stream(t, scfg)[0].values,
                          d.run_stream(t, scfg)[0].values)

    from descattn.cli import main
    import csv as _csv
    args = ["bench", "--frames", "2,3", "--grid", "4x4", "--channels", "16",
            "--heads", "2", "--ratio", "2", "--layers", "1"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0

    def sums(p):
        with open(p, newline="") as fh:
            return [(r["run_id"], r["mode"], r["checksum"])
                    for r in _csv.DictReader(fh)]

    assert sums(tmp_path / "a" / "sweep.csv") == sums(tmp_path / "b" / "sweep.csv")
    print("\nPASS criterion 8: bitwise determinism, streaming and CLI")


def test_criterion_9_performance_sanity():
    """Analytic attention FLOPs are monotone nonincreasing in r.  Measured
    dense-versus-descriptor timings come from ``benchmark/``, not from here."""
    cores = []
    for ratio in (1, 2, 4, 8):
        cfg = _cfg(DESK, layers=1, ratio=ratio, include_aux=False)
        cores.append(d.flops_attention(cfg, 64).attention_core)
    assert all(a >= b for a, b in zip(cores, cores[1:]))
    print("\nPASS criterion 9: analytic FLOPs monotone nonincreasing in r")
