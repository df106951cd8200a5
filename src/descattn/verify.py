"""Named runtime checks, one per library invariant.

Each check is a small self-contained function that raises AssertionError on
violation.  ``CHECKS`` is the one list of named invariants: ``run_all``
executes every check and reports one PASS/FAIL line per name, the CLI
``verify`` subcommand exits nonzero if anything fails, and pytest
parametrizes over ``CHECKS`` (``tests/test_verify.py``), one test id per name.
The suite is intentionally desk-scale so a full pass stays well under the
two-minute budget on an ordinary machine.
"""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path

import numpy as np

from . import analysis, attention, streaming
from .aggregator import AggregatorConfig, forward_offline, init_weights
from .attention import (AttentionMask, attention_probabilities,
                        dense_global_attention, descriptor_attention,
                        frame_attention, init_block_weights)
from .compression import (COMPRESSION_KINDS, CompressionMethod, DescriptorKind,
                          KeyframeSelector, build_bundle, bundle_token_counts,
                          compress_frame, lloyd, select_keyframes,
                          topk_norm_indices)
from .kernels import (gelu, half_pixel_centers, layer_norm, matmul, mlp,
                      resample_bilinear, rng, softmax_numerators,
                      stable_softmax_rows)
from .tokens import FrameLayout, TokenTensor, generate_synthetic

_PATCH_ONLY = FrameLayout(h=8, w=8, n_camera=0, n_register=0, channels=32)
_DESK = FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)


def _desc_cfg(layout=_DESK, seed=0, **kw) -> AggregatorConfig:
    kw.setdefault("layers", 2)
    kw.setdefault("method", CompressionMethod("bilinear", 2))
    kw.setdefault("selector", KeyframeSelector(interval=200))
    return AggregatorConfig(layout=layout, global_mode="descriptor", seed=seed, **kw)


def check_matmul_identity(seed: int) -> None:
    a = rng(seed).standard_normal((5, 5)).astype(np.float32)
    eye = np.eye(5, dtype=np.float32)
    assert np.array_equal(matmul(eye, a), a)
    assert np.array_equal(matmul(a, eye), a)


def check_softmax_rows_sum_to_one(seed: int) -> None:
    gen = rng(seed)
    for shape, scale in (((40, 17), 50), ((50, 33), 30)):
        x = gen.standard_normal(shape).astype(np.float32) * scale
        p = stable_softmax_rows(x)
        sums = p.sum(axis=-1, dtype=np.float64)
        assert np.all(np.abs(sums - 1.0) <= 1e-6), shape
        shifted = stable_softmax_rows(x + 13.25)
        assert np.max(np.abs(shifted - p)) <= 1e-6, shape


def check_bilinear_exact_on_affine(seed: int) -> None:
    gen = rng(seed)
    for (h, w), (oh, ow) in (((9, 7), (3, 2)), ((10, 8), (4, 3)), ((12, 9), (5, 3))):
        yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                             np.arange(w, dtype=np.float64), indexing="ij")
        a, b, c0 = gen.standard_normal(3)
        grid = (a * yy + b * xx + c0)[:, :, None].astype(np.float64)
        out = resample_bilinear(grid, oh, ow)
        ys = half_pixel_centers(h, oh)
        xs = half_pixel_centers(w, ow)
        expect = a * ys[:, None] + b * xs[None, :] + c0
        assert np.max(np.abs(out[:, :, 0] - expect)) <= 1e-6, (h, w, oh, ow)


def check_kernels_pure(seed: int) -> None:
    bufsize = np.getbufsize()
    x = rng(seed).standard_normal((6, 8)).astype(np.float32)
    assert np.array_equal(stable_softmax_rows(x), stable_softmax_rows(x))
    # more than 256 keys per row takes the unbuffered softmax path
    wide = 10.0 * rng(seed + 3).standard_normal((5, 300)).astype(np.float32)
    assert np.array_equal(stable_softmax_rows(wide), stable_softmax_rows(wide))
    for m in (x, wide):
        before = m.copy()
        e1, d1 = softmax_numerators(m)
        e2, d2 = softmax_numerators(m, out=np.empty(m.shape))
        assert np.array_equal(e1, e2) and np.array_equal(d1, d2), "softmax_numerators"
        assert np.array_equal(m, before), "softmax_numerators wrote its separate-out input"
    g = rng(seed + 1).standard_normal((6, 6, 3)).astype(np.float32)
    assert np.array_equal(resample_bilinear(g, 3, 3), resample_bilinear(g, 3, 3))
    gamma, beta = rng(seed + 2).standard_normal((2, 8))
    gen = rng(seed + 4)
    w1, w2 = gen.standard_normal((8, 32)), gen.standard_normal((32, 8))
    b1, b2 = gen.standard_normal(32), gen.standard_normal(8)
    for dtype in (np.float32, np.float64):
        h = (3.0 * x).astype(dtype)
        before = h.copy()
        for name, kernel in (("gelu", gelu),
                             ("layer_norm", lambda a: layer_norm(a, gamma, beta)),
                             ("mlp", lambda a: mlp(a, w1, b1, w2, b2))):
            assert np.array_equal(kernel(h), kernel(h)), name
            assert np.array_equal(h, before), f"{name} wrote its {h.dtype} input"
    assert np.getbufsize() == bufsize, "a kernel left numpy's buffer size changed"


def check_k_definition(seed: int) -> None:
    t = generate_synthetic(5, _DESK, seed)
    assert t.total_tokens == t.frames * t.layout.tokens_per_frame
    assert t.flat().shape == (t.total_tokens, t.channels)


def check_matched_budget(seed: int) -> None:
    gen = rng(seed)
    # the 9x7 grid does not divide evenly by r=3: the budget is floor(H/r) * floor(W/r)
    for (h, w, c), ratio in (((8, 8, 16), 4), ((9, 7, 6), 3)):
        grid = gen.standard_normal((h, w, c)).astype(np.float32)
        budget = (h // ratio) * (w // ratio)
        for kind in COMPRESSION_KINDS:
            tokens = compress_frame(grid, CompressionMethod(kind, ratio))
            assert tokens.shape == (budget, c), (kind, tokens.shape)


def check_lloyd_objective(seed: int) -> None:
    gen = rng(seed)
    for shape, k in (((40, 6), 5), ((60, 5), 6), ((80, 5), 7)):
        _, _, history = lloyd(gen.standard_normal(shape), k)
        assert len(history) >= 1
        diffs = np.diff(np.asarray(history))
        assert np.all(diffs <= 1e-9), (shape, k, history)


def check_topk_order(seed: int) -> None:
    gen = rng(seed)
    for side, c, ratio in ((4, 8, 2), (8, 4, 4)):
        grid = gen.standard_normal((side, side, c)).astype(np.float32)
        tokens = compress_frame(grid, CompressionMethod("topk_norm", ratio))
        budget = (side // ratio) ** 2
        assert tokens.shape == (budget, c), tokens.shape
        idx = topk_norm_indices(grid, budget)
        assert np.all(np.diff(idx) > 0), "top-k output must keep row-major order"
        assert np.array_equal(tokens, grid.reshape(-1, c)[idx])
        norms = np.linalg.norm(grid.reshape(-1, c), axis=1)
        cutoff = np.sort(norms)[-budget]
        assert np.all(np.linalg.norm(tokens, axis=1) >= cutoff - 1e-6)


def check_kind_counts(seed: int) -> None:
    t = generate_synthetic(10, _DESK, seed)
    method, selector = CompressionMethod("bilinear", 4), KeyframeSelector(interval=3)
    b = build_bundle(t, method, select_keyframes(t, selector))
    kinds = np.bincount(b.kinds, minlength=len(DescriptorKind))
    expect = bundle_token_counts(t.frames, _DESK, method, selector)
    assert kinds[DescriptorKind.COMPRESSED] == expect.compressed, (kinds, expect)
    assert kinds[DescriptorKind.CAMERA] + kinds[DescriptorKind.REGISTER] == expect.special
    assert kinds[DescriptorKind.FIRST_FRAME_PATCH] == expect.first_frame, (kinds, expect)
    assert kinds[DescriptorKind.KEYFRAME_PATCH] == expect.keyframe, (kinds, expect)


def check_oracle_equivalence(seed: int) -> None:
    for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-10)):
        t = generate_synthetic(4, _PATCH_ONLY, seed, dtype=dtype)
        w = init_block_weights(seed + 7, 32, 4, dtype)
        dense = dense_global_attention(t, w)
        bundle = build_bundle(t, CompressionMethod("bilinear", 1))
        desc = descriptor_attention(t, bundle, w)
        assert np.max(np.abs(dense.values - desc.values)) <= tol


def check_key_duplication(seed: int) -> None:
    t = generate_synthetic(4, _DESK, seed)
    w = init_block_weights(seed + 1, 32, 4)
    # interval 2 picks two key frames, so key-frame anchors are duplicated too
    bundle = build_bundle(t, CompressionMethod("bilinear", 2),
                          select_keyframes(t, KeyframeSelector(interval=2)))
    doubled = bundle.concat(bundle)
    a = descriptor_attention(t, bundle, w)
    b = descriptor_attention(t, doubled, w)
    assert np.max(np.abs(a.values - b.values)) <= 1e-6


def check_masked_independence(seed: int) -> None:
    t = generate_synthetic(4, _DESK, seed)
    w = init_block_weights(seed + 2, 32, 4)
    mask = AttentionMask.frame_causal(t.frames)
    base = dense_global_attention(t, w, mask)
    # layer norm cancels a shift of every channel of a token, so only the
    # sign flip can reach frame 0 through a leaking mask
    for shift, scale in ((3.0, 1.0), (0.0, -3.0)):
        bumped = t.values.copy()
        bumped[1:] = bumped[1:] * scale + shift
        out = dense_global_attention(TokenTensor(t.layout, bumped), w, mask)
        assert np.max(np.abs(out.values[0] - base.values[0])) <= 1e-6, scale
        assert not np.allclose(out.values[1:], base.values[1:]), "bump had no effect"


def check_worker_count_invariance(seed: int) -> None:
    """One worker and two give the same float32 bits.  Two workers deal
    128-row query tiles round-robin to this thread and a pool thread,
    whatever the CPU count; one runs 256-row tiles here."""
    t = generate_synthetic(8, _DESK, seed)
    assert t.total_tokens > 2 * attention.QUERY_TILE
    stream = streaming.StreamConfig(base=_desc_cfg(seed=seed), chunk_size=3)
    passes = {
        # cuts at rows 207 and 345 fall inside tiles at both tile heights
        "dense": lambda: forward_offline(t, _desc_cfg(
            seed=seed, mask=AttentionMask((3, 5))).with_mode("dense")),
        "descriptor": lambda: forward_offline(t, _desc_cfg(seed=seed)),
        # three chunks of 207, 207 and 138 queries
        "stream": lambda: streaming.run_stream(t, stream)[0],
    }
    saved = attention._WORKERS
    try:
        for name, run in passes.items():
            outs = []
            for workers in (1, 2):
                attention._WORKERS = workers
                outs.append(run().values)
            assert outs[0].dtype == np.float32, name
            assert np.array_equal(outs[0], outs[1]), name
    finally:
        attention._WORKERS = saved


def check_probability_rows(seed: int) -> None:
    t = generate_synthetic(2, _DESK, seed)
    w = init_block_weights(seed + 3, 32, 4)
    flat = t.flat()
    bundle = build_bundle(t, CompressionMethod("bilinear", 2),
                          select_keyframes(t, KeyframeSelector()))
    for keys in (flat, bundle.descriptors):
        probs = attention_probabilities(flat, keys, w)
        assert probs.shape == (w.heads, len(flat), len(keys))
        sums = probs.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-6


def check_mode_equivalence_layers(seed: int) -> None:
    t = generate_synthetic(3, _PATCH_ONLY, seed)
    reports = {r: analysis.compare_modes(t, _desc_cfg(
        layout=_PATCH_ONLY, seed=seed, include_aux=False, layers=4,
        method=CompressionMethod("bilinear", r))) for r in (1, 2)}
    assert len(reports[1].per_layer_max) == 4
    assert all(m <= 1e-5 for m in reports[1].per_layer_max), reports[1]
    # a max bounds its mean; r = 2 diverges, so the order is more than 0 >= 0
    assert min(reports[2].per_layer_mean) > 0.0, reports[2]
    for report in reports.values():
        assert all(mx >= mn >= 0.0 for mx, mn in
                   zip(report.per_layer_max, report.per_layer_mean)), report


def check_bundles_differ_across_layers(seed: int) -> None:
    cfg = _desc_cfg(seed=seed)
    t = generate_synthetic(3, _DESK, seed)
    weights = init_weights(cfg)
    # key frames are selected once from the stack input, as forward_offline does
    keyframes = select_keyframes(t, cfg.selector)
    x1 = frame_attention(t, weights[0].frame)
    b1 = build_bundle(x1, cfg.method, keyframes)
    x2 = frame_attention(descriptor_attention(x1, b1, weights[0].global_),
                         weights[1].frame)
    b2 = build_bundle(x2, cfg.method, keyframes)
    assert not np.array_equal(b1.descriptors, b2.descriptors)


def check_aggregator_determinism(seed: int) -> None:
    t = generate_synthetic(3, _DESK, seed)
    for mode in ("dense", "descriptor"):
        cfg = _desc_cfg(seed=seed).with_mode(mode)
        a = forward_offline(t, cfg)
        b = forward_offline(t, cfg)
        assert np.array_equal(a.values, b.values), mode


def check_streaming_causality(seed: int) -> None:
    # layer norm cancels a shift of every channel of a token, so only the
    # sign flip can reach earlier chunks through a leak
    for frames, chunk, boundary, shift, scale in ((6, 2, 4, -2.5, 1.0),
                                                  (9, 3, 6, 0.0, -3.0)):
        cfg = streaming.StreamConfig(base=_desc_cfg(seed=seed), chunk_size=chunk,
                                     retain_rate=2)
        t = generate_synthetic(frames, _DESK, seed)
        out, _ = streaming.run_stream(t, cfg)
        bumped = t.values.copy()
        bumped[boundary:] = bumped[boundary:] * scale + shift
        out2, _ = streaming.run_stream(TokenTensor(t.layout, bumped), cfg)
        assert np.max(np.abs(out.values[:boundary] - out2.values[:boundary])) <= 1e-6, scale
        assert not np.allclose(out.values[boundary:], out2.values[boundary:]), \
            "bump had no effect"


def check_memory_law(seed: int) -> None:
    cfg = streaming.StreamConfig(base=_desc_cfg(seed=seed, include_aux=False,
                                                method=CompressionMethod("bilinear", 4)),
                                 chunk_size=3, retain_rate=2)
    t = generate_synthetic(7, _DESK, seed)
    _, cache = streaming.run_stream(t, cfg)
    per_frame = cfg.base.method.tokens_per_frame(_DESK)
    expect = ((t.frames - 1) // cfg.retain_rate + 1) * per_frame
    for layer in streaming.cache_report(cache).layers:
        assert (layer.total_tokens, layer.compressed_tokens, layer.aux_tokens) \
            == (expect, expect, 0)


def check_sublinear_growth(seed: int) -> None:
    for frames, chunk in ((10, 4), (20, 5)):
        cfg = streaming.StreamConfig(base=_desc_cfg(seed=seed), chunk_size=chunk,
                                     retain_rate=3)
        t = generate_synthetic(frames, _DESK, seed)
        _, cache = streaming.run_stream(t, cfg)
        per_frame = cfg.base.method.tokens_per_frame(_DESK)
        bound = (t.frames / cfg.retain_rate + 1) * per_frame + _DESK.tokens_per_frame
        for layer in streaming.cache_report(cache).layers:
            assert layer.total_tokens <= bound, (frames, layer.total_tokens, bound)


def check_full_chunk_matches_offline(seed: int) -> None:
    base = _desc_cfg(seed=seed)
    t = generate_synthetic(5, _DESK, seed)
    cfg = streaming.StreamConfig(base=base, chunk_size=t.frames, retain_rate=1)
    streamed, _ = streaming.run_stream(t, cfg)
    offline = forward_offline(t, base)
    assert np.array_equal(streamed.values, offline.values)


def check_core_ratio(seed: int) -> None:
    for layout, aux in ((_DESK, True), (_PATCH_ONLY, False)):
        for ratio in (1, 2, 4):
            cfg = _desc_cfg(layout=layout, seed=seed, include_aux=aux,
                            method=CompressionMethod("bilinear", ratio))
            dense = analysis.flops_attention(cfg.with_mode("dense"), 6)
            desc = analysis.flops_attention(cfg, 6)
            # integer cross-multiplication: dense_core / desc_core == K / K_d
            assert dense.attention_core * desc.kd_tokens == \
                desc.attention_core * desc.k_tokens, (layout, ratio)
            if not aux:
                # a pure patch grid keeps 1 / r^2 of its tokens, so r = 1
                # makes the two cores equal
                assert desc.k_tokens == desc.kd_tokens * ratio ** 2, ratio
                assert dense.attention_core == desc.attention_core * ratio ** 2, ratio
                assert analysis.attention_core_reduction(cfg, 6) == \
                    (ratio ** 2, desc.k_tokens, desc.kd_tokens), ratio


def check_memory_model_matches_live(seed: int) -> None:
    for dtype in (np.float32, np.float64):
        t = generate_synthetic(20, _DESK, seed, dtype=dtype)
        for ratio in (2, 4):
            base = _desc_cfg(seed=seed, include_aux=False, dtype=dtype,
                             method=CompressionMethod("bilinear", ratio))
            cfg = streaming.StreamConfig(base=base, chunk_size=5, retain_rate=5)
            _, cache = streaming.run_stream(t, cfg)
            assert analysis.memory_model(cfg, t.frames) == streaming.cache_report(cache), \
                (dtype, ratio)


def check_cache_chunk_invariant(seed: int) -> None:
    """The retained cache does not depend on the chunking.  Retention is by
    global frame index and layer 0 compresses per-frame outputs, so its store
    is bitwise equal across chunkings; deeper layers see chunk-dependent
    inputs and agree only in their token counts."""
    t = generate_synthetic(10, _DESK, seed)
    stores = []
    for chunk in (2, 3, 10):
        cfg = streaming.StreamConfig(base=_desc_cfg(seed=seed), chunk_size=chunk,
                                     retain_rate=3)
        _, cache = streaming.run_stream(t, cfg)
        assert streaming.cache_report(cache) == analysis.memory_model(cfg, t.frames), chunk
        stores.append(cache.layers[0])
    for store in stores[1:]:
        for name in ("descriptors", "frames", "kinds"):
            assert np.array_equal(getattr(store, name), getattr(stores[0], name)), name


def check_bench_rows_reproducible(seed: int) -> None:
    """Every row of a written ``sweep.csv``, read back as text, replays to its
    recorded checksum."""
    from . import cli  # deferred: cli imports this module for `verify`
    with tempfile.TemporaryDirectory() as tmp:
        cli.sweep([cli.RunSpec(frames=2, seed=seed, layers=1,
                               grid=(4, 4), channels=16, heads=2, ratio=2)],
                  Path(tmp))
        with open(Path(tmp) / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    assert [row["mode"] for row in rows] == ["dense", "descriptor", "stream"], rows
    for row in rows:
        rerun = cli.run_from_row(row)
        assert rerun == row["checksum"], (row, rerun)


CHECKS = [
    ("kernels.matmul_identity", check_matmul_identity),
    ("kernels.softmax_rows_sum_to_one", check_softmax_rows_sum_to_one),
    ("kernels.bilinear_exact_on_affine_fields", check_bilinear_exact_on_affine),
    ("kernels.pure_determinism", check_kernels_pure),
    ("tokens.k_equals_frames_times_tokens_per_frame", check_k_definition),
    ("compression.matched_budget_counts", check_matched_budget),
    ("compression.lloyd_objective_nonincreasing", check_lloyd_objective),
    ("compression.topk_row_major_stable", check_topk_order),
    ("compression.kind_counts_match_closed_form", check_kind_counts),
    ("attention.oracle_equivalence", check_oracle_equivalence),
    ("attention.key_duplication_invariance", check_key_duplication),
    ("attention.masked_independence", check_masked_independence),
    ("attention.probability_rows_sum_to_one", check_probability_rows),
    ("attention.worker_count_invariance", check_worker_count_invariance),
    ("aggregator.mode_equivalence_per_layer", check_mode_equivalence_layers),
    ("aggregator.bundles_differ_across_layers", check_bundles_differ_across_layers),
    ("aggregator.bitwise_determinism", check_aggregator_determinism),
    ("streaming.causality", check_streaming_causality),
    ("streaming.memory_law", check_memory_law),
    ("streaming.sublinear_growth", check_sublinear_growth),
    ("streaming.full_chunk_matches_offline", check_full_chunk_matches_offline),
    ("analysis.core_ratio_equals_k_over_kd", check_core_ratio),
    ("analysis.memory_model_matches_live_cache", check_memory_model_matches_live),
    ("streaming.cache_invariant_to_chunking", check_cache_chunk_invariant),
    ("bench.csv_rows_reproducible", check_bench_rows_reproducible),
]


def run_all(seed: int = 0, report=print) -> bool:
    """Run every named check; returns True only if all pass."""
    ok = True
    for name, fn in CHECKS:
        try:
            fn(seed)
        except Exception as exc:  # noqa: BLE001 - report and keep going
            ok = False
            report(f"FAIL {name}: {exc}")
        else:
            report(f"PASS {name}")
    return ok
