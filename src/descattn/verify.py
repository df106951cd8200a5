"""Named runtime checks, one per library invariant.

Each check is a small self-contained function that raises AssertionError on
violation.  ``CHECKS`` is the one list of named invariants: ``run_all``
executes every check and reports one PASS/FAIL line per name, the CLI
``verify`` subcommand exits nonzero if anything fails, and pytest
parametrizes over ``CHECKS`` (``tests/test_verify.py``), one test id per name.
No pytest property restates a check.
A check over generated inputs draws its cases from ``kernels.rng(seed)`` and
also runs pinned cases, inputs that once exposed a fault, at every seed, so
``descattn verify --seed N`` reproduces any failure at seed N.  The suite is
intentionally desk-scale: a full pass takes seconds on an ordinary machine.
"""

from __future__ import annotations

import csv
import functools
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, attention, streaming
from .aggregator import AggregatorConfig, forward_offline, init_weights
from .attention import (attention_probabilities, dense_global_attention,
                        descriptor_attention, frame_attention, init_block_weights)
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
_SMALL = FrameLayout(h=4, w=4, n_camera=1, n_register=4, channels=8)


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
    """Float32 rows sum to one and a shift leaves them unchanged, for drawn
    rows and shifts.  The shift runs on float64 logits: in float32 it would
    round the pinned [95, 96] row's gap to 1.0000076, moving its softmax 1.5e-6."""
    gen = rng(seed)
    cases = [(gen.standard_normal((40, 17)).astype(np.float32) * 50, 13.25),
             (gen.standard_normal((50, 33)).astype(np.float32) * 30, 13.25),
             (np.array([[95.0, 96.0]]), 32.02382787681714)]
    cases += [(gen.uniform(-200, 200, (8, gen.integers(1, 25))), gen.uniform(-100, 100))
              for _ in range(4)]
    for logits, shift in cases:
        x = logits.astype(np.float32)
        p = stable_softmax_rows(x)
        sums = p.sum(axis=-1, dtype=np.float64)
        assert np.all(np.abs(sums - 1.0) <= 1e-6), x.shape
        shifted = stable_softmax_rows(x.astype(np.float64) + shift)
        assert np.max(np.abs(shifted - p)) <= 1e-6, (x.shape, shift)


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
    """K = S * N, and the global sequence is a frame-major view of the
    frames: flat row f * N + n is token n of frame f."""
    t = generate_synthetic(5, _DESK, seed)
    k, n = t.total_tokens, t.tokens_per_frame
    assert k == t.frames * t.layout.tokens_per_frame
    flat = t.flat()
    assert flat.shape == (k, t.channels)
    assert np.array_equal(flat[np.arange(t.frames)[:, None] * n + np.arange(n)], t.values)
    assert np.shares_memory(flat, t.values)


def check_matched_budget(seed: int) -> None:
    """Every kind gives floor(H/r) * floor(W/r) tokens per frame, and a stack
    of frames compresses bitwise as its frames do one by one, in either order."""
    gen = rng(seed)
    # the 9x7 grid does not divide evenly by r=3: the budget is floor(H/r) * floor(W/r)
    for (h, w, c), ratio in (((8, 8, 16), 4), ((9, 7, 6), 3)):
        # frames at different scales: a top-k ranked across the stack would
        # take its budget from the loudest frame
        stack = gen.standard_normal((4, h, w, c)) * gen.uniform(0.5, 2.0, (4, 1, 1, 1))
        budget = (h // ratio) * (w // ratio)
        for dtype in (np.float32, np.float64):
            grids = stack.astype(dtype)
            for kind in COMPRESSION_KINDS:
                method = CompressionMethod(kind, ratio)
                tokens = compress_frame(grids, method)
                assert tokens.shape == (4, budget, c), (kind, tokens.shape)
                for f, grid in enumerate(grids):
                    assert np.array_equal(tokens[f], compress_frame(grid, method)), (
                        kind, dtype, f)
                assert np.array_equal(compress_frame(grids[::-1], method), tokens[::-1]), (
                    kind, dtype)


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
    assert kinds[DescriptorKind.SPECIAL] == expect.special, (kinds, expect)
    assert kinds[DescriptorKind.FIRST_FRAME_PATCH] == expect.first_frame, (kinds, expect)
    assert kinds[DescriptorKind.KEYFRAME_PATCH] == expect.keyframe, (kinds, expect)


def check_oracle_equivalence(seed: int) -> None:
    """An uncompressed, anchor-free bundle makes the descriptor block the
    dense block, bitwise, in float32 and in float64."""
    for dtype in (np.float32, np.float64):
        t = generate_synthetic(4, _PATCH_ONLY, seed, dtype=dtype)
        w = init_block_weights(seed + 7, 32, 4, dtype)
        dense = dense_global_attention(t, w)
        bundle = build_bundle(t, CompressionMethod("bilinear", 1))
        desc = descriptor_attention(t, bundle, w)
        assert np.array_equal(dense.values, desc.values), np.dtype(dtype).name


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


def check_worker_count_invariance(seed: int) -> None:
    """One worker and two give the same bits, in float32 and in float64.
    Two workers deal the tiles round-robin to this thread and a pool thread,
    whatever the CPU count; one runs the same tiles here.  The offline
    forwards' frame attention deals whole groups of 3, 3 and 2 frames, all
    heads at once; every global block, the stream's included, deals 128-row
    query tiles, head by head, and the dense forward's tiles end inside
    69-token frames."""
    saved = attention._WORKERS
    try:
        for dtype in (np.float32, np.float64):
            t = generate_synthetic(8, _DESK, seed, dtype=dtype)
            assert t.total_tokens > 2 * attention.QUERY_TILE
            cfg = _desc_cfg(seed=seed, dtype=dtype)
            passes = {
                # tiles end at rows 128, 256, 384 and 512, inside frames 1, 3, 5 and 7
                "dense": lambda: forward_offline(t, cfg.with_mode("dense")),
                "descriptor": lambda: forward_offline(t, cfg),
                # three chunks of 207, 207 and 138 queries
                "stream": lambda: streaming.run_stream(
                    t, streaming.StreamConfig(base=cfg, chunk_size=3))[0],
            }
            for name, run in passes.items():
                outs = []
                for workers in (1, 2):
                    attention._WORKERS = workers
                    outs.append(run().values)
                assert outs[0].dtype == dtype, name
                assert np.array_equal(outs[0], outs[1]), (name, np.dtype(dtype).name)
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
    """At r = 1 the modes agree bitwise: every layer read 0.0 at seeds 0-40."""
    t = generate_synthetic(3, _PATCH_ONLY, seed)
    reports = {r: analysis.compare_modes(t, _desc_cfg(
        layout=_PATCH_ONLY, seed=seed, include_aux=False, layers=4,
        method=CompressionMethod("bilinear", r))) for r in (1, 2)}
    assert len(reports[1].per_layer_max) == 4
    assert all(m == 0.0 for m in reports[1].per_layer_max), reports[1]
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


class _StreamCase(NamedTuple):
    # S frames in chunks of c, every p-th retained; frames from the boundary
    # on then become ``x * scale + shift`` (a boundary at S changes none)
    frames: int
    chunk: int
    retain: int
    boundary: int
    ratio: int = 2
    kind: str = "bilinear"
    aux: bool = True
    layers: int = 2
    dtype: type = np.float32
    layout: FrameLayout = _SMALL
    scale: float = -3.0
    shift: float = 0.0


_PINNED_STREAMS = (
    # the cache law for S a multiple of p and not, up to S = 50
    _StreamCase(7, 4, 1, 4, ratio=4, aux=False),
    _StreamCase(7, 4, 2, 4, ratio=4, aux=False),
    _StreamCase(12, 4, 5, 8, ratio=4, aux=False),
    _StreamCase(20, 4, 5, 12, ratio=4, aux=False),
    _StreamCase(7, 3, 2, 3, kind="avgpool", dtype=np.float64),
    _StreamCase(50, 10, 1, 40, ratio=4, aux=False, layers=1),
    _StreamCase(50, 10, 2, 40, aux=False, layers=1),
    # on the desk layout.  Layer norm cancels a shift of every channel of a
    # token, so only a sign flip shows a leak; a shift shows the later outputs change
    _StreamCase(6, 2, 2, 4, layout=_DESK, scale=1.0, shift=-2.5),
    _StreamCase(9, 3, 2, 6, layout=_DESK),
    _StreamCase(7, 3, 2, 7, ratio=4, aux=False, layout=_DESK),
    _StreamCase(10, 4, 3, 10, layout=_DESK),
    _StreamCase(20, 5, 3, 20, layout=_DESK),
    _StreamCase(5, 5, 1, 5, layout=_DESK),
    *(_StreamCase(20, 5, 5, 20, ratio=ratio, aux=False, dtype=dtype, layout=_DESK)
      for dtype in (np.float32, np.float64) for ratio in (2, 4)),
)


def _draw_stream_case(gen: np.random.Generator) -> _StreamCase:
    frames = int(gen.integers(1, 9))
    chunk = int(gen.integers(1, frames + 3))
    return _StreamCase(frames, chunk, int(gen.integers(1, 5)),
                       chunk * int(gen.integers(1, -(-frames // chunk) + 1)),
                       int(gen.choice((1, 2, 4))), str(gen.choice(COMPRESSION_KINDS)),
                       bool(gen.integers(2)), int(gen.integers(1, 3)),
                       (np.float32, np.float64)[gen.integers(2)])


@functools.lru_cache(maxsize=1)
def _stream_runs(seed: int) -> tuple[tuple, ...]:
    """(case, cfg, tokens, out, cache) of the pinned and the six drawn stream
    cases at ``seed``, each streamed once for the four checks below."""
    gen = rng(seed)
    runs = []
    for case in (*_PINNED_STREAMS, *(_draw_stream_case(gen) for _ in range(6))):
        base = _desc_cfg(layout=case.layout, seed=seed, layers=case.layers, heads=2,
                         method=CompressionMethod(case.kind, case.ratio),
                         include_aux=case.aux, selector=KeyframeSelector(interval=3),
                         dtype=case.dtype)
        cfg = streaming.StreamConfig(base=base, chunk_size=case.chunk,
                                     retain_rate=case.retain)
        t = generate_synthetic(case.frames, case.layout, seed, dtype=case.dtype)
        runs.append((case, cfg, t, *streaming.run_stream(t, cfg)))
    return tuple(runs)


def check_streaming_causality(seed: int) -> None:
    """Outputs before a chunk start are bitwise unchanged when later frames
    change, and later ones change."""
    ran = 0
    for case, cfg, t, out, _ in _stream_runs(seed):
        b = case.boundary
        if b < case.frames:
            bumped = t.values.copy()
            bumped[b:] = bumped[b:] * case.scale + case.shift
            out2, _ = streaming.run_stream(TokenTensor(t.layout, bumped), cfg)
            assert np.array_equal(out.values[:b], out2.values[:b]), case
            assert not np.allclose(out.values[b:], out2.values[b:]), case
            ran += 1
    assert ran, "no case has a chunk start inside its sequence"


def check_memory_law(seed: int) -> None:
    """Per layer, ceil(S / p) frames of descriptors plus the verbatim first
    frame when anchors are on, exactly; so the cache grows as S / p frames."""
    for case, cfg, t, _, cache in _stream_runs(seed):
        compressed = -(-case.frames // case.retain) * cfg.base.method.tokens_per_frame(t.layout)
        aux = t.layout.tokens_per_frame if case.aux else 0
        assert [(s.total_tokens, s.compressed_tokens, s.aux_tokens)
                for s in streaming.cache_report(cache).layers] == \
            [(compressed + aux, compressed, aux)] * case.layers, case


def check_full_chunk_matches_offline(seed: int) -> None:
    """A chunk covering the sequence is the offline forward, bitwise."""
    ran = 0
    for case, cfg, t, out, _ in _stream_runs(seed):
        if case.chunk >= case.frames:
            assert np.array_equal(out.values, forward_offline(t, cfg.base).values), case
            ran += 1
    assert ran, "no case has one chunk covering its sequence"


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
    for case, cfg, _, _, cache in _stream_runs(seed):
        assert analysis.memory_model(cfg, case.frames) == streaming.cache_report(cache), case


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
    ("attention.probability_rows_sum_to_one", check_probability_rows),
    ("attention.worker_count_invariance", check_worker_count_invariance),
    ("aggregator.mode_equivalence_per_layer", check_mode_equivalence_layers),
    ("aggregator.bundles_differ_across_layers", check_bundles_differ_across_layers),
    ("aggregator.bitwise_determinism", check_aggregator_determinism),
    ("streaming.causality", check_streaming_causality),
    ("streaming.memory_law", check_memory_law),
    ("streaming.full_chunk_matches_offline", check_full_chunk_matches_offline),
    ("analysis.core_ratio_equals_k_over_kd", check_core_ratio),
    ("analysis.memory_model_matches_live_cache", check_memory_model_matches_live),
    ("streaming.cache_invariant_to_chunking", check_cache_chunk_invariant),
    ("bench.csv_rows_reproducible", check_bench_rows_reproducible),
]


def run_all(seed: int) -> bool:
    """Run every named check; returns True only if all pass."""
    ok = True
    for name, fn in CHECKS:
        try:
            fn(seed)
        except Exception as exc:  # noqa: BLE001 - report and keep going
            ok = False
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return ok
