"""Chunk-recursive streaming: single steps, retention, cache records, and the
Hypothesis property over the cache law, causality and c >= S offline
equivalence."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descattn import streaming
from descattn.aggregator import AggregatorConfig, forward_offline, init_weights
from descattn.analysis import memory_model
from descattn.attention import AttentionMask, descriptor_attention
from descattn.compression import (COMPRESSION_KINDS, CompressionMethod, DescriptorKind,
                                  KeyframeSelector)
from descattn.streaming import MemoryCache, StreamConfig, cache_report, run_stream, step
from descattn.tokens import FrameLayout, TokenTensor, generate_synthetic

DESK = FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)
PATCH_ONLY = FrameLayout(h=8, w=8, n_camera=0, n_register=0, channels=32)
SMALL = FrameLayout(h=4, w=4, n_camera=1, n_register=4, channels=8)


def desc_base(layout=DESK, ratio=2, include_aux=True, layers=2, seed=0,
              interval=200) -> AggregatorConfig:
    return AggregatorConfig(layout=layout, layers=layers, global_mode="descriptor",
                            method=CompressionMethod("bilinear", ratio),
                            include_aux=include_aux,
                            selector=KeyframeSelector(interval=interval), seed=seed)


class TestStep:
    def test_retained_frames_follow_global_modulo(self):
        base = desc_base(include_aux=False, ratio=4, layers=1, seed=3)
        cfg = StreamConfig(base=base, chunk_size=4, retain_rate=5)
        t = generate_synthetic(12, DESK, 4)
        _, cache = run_stream(t, cfg)
        retained_frames = sorted(set(cache.layers[0].frames.tolist()))
        assert retained_frames == [0, 5, 10]

    def test_oversized_chunk_rejected(self):
        base = desc_base()
        cfg = StreamConfig(base=base, chunk_size=2)
        t = generate_synthetic(3, DESK, 0)
        with pytest.raises(ValueError, match="chunk"):
            step(t, MemoryCache.empty(cfg), cfg)

    def test_cache_layout_mismatch_rejected(self):
        cfg_a = StreamConfig(base=desc_base(layout=DESK))
        cfg_b = StreamConfig(base=desc_base(layout=PATCH_ONLY))
        t = generate_synthetic(2, PATCH_ONLY, 0)
        with pytest.raises(ValueError, match="cache"):
            step(t, MemoryCache.empty(cfg_a), cfg_b)

    def test_token_dtype_mismatch_rejected(self):
        cfg = StreamConfig(base=desc_base())  # float32
        t = generate_synthetic(2, DESK, 0, dtype=np.float64)
        with pytest.raises(ValueError, match="float64.*float32"):
            step(t, MemoryCache.empty(cfg), cfg)

    def test_queries_never_include_cached_tokens(self):
        # output frame count always equals the chunk frame count
        base = desc_base(seed=5)
        cfg = StreamConfig(base=base, chunk_size=3, retain_rate=1)
        t = generate_synthetic(9, DESK, 5)
        w = init_weights(base)
        cache = MemoryCache.empty(cfg)
        for start in (0, 3, 6):
            chunk = TokenTensor(DESK, t.values[start:start + 3])
            out, cache = step(chunk, cache, cfg, w)
            assert out.frames == 3


class TestDegenerateChunking:
    def test_chunk_larger_than_sequence_is_one_step(self):
        base = desc_base(seed=9)
        t = generate_synthetic(3, DESK, 9)
        cfg = StreamConfig(base=base, chunk_size=10, retain_rate=2)
        streamed, _ = run_stream(t, cfg)
        out, _ = step(t, MemoryCache.empty(cfg), cfg, init_weights(base))
        assert np.array_equal(streamed.values, out.values)


@st.composite
def stream_cases(draw):
    """(S, c, p, r, kind, aux, layers, boundary); the boundary is a chunk start."""
    frames = draw(st.integers(1, 8))
    chunk = draw(st.integers(1, frames + 2))
    chunks = -(-frames // chunk)
    return (frames, chunk, draw(st.integers(1, 4)), draw(st.sampled_from((1, 2, 4))),
            draw(st.sampled_from(COMPRESSION_KINDS)), draw(st.booleans()),
            draw(st.integers(1, 2)), chunk * draw(st.integers(1, chunks)))


class TestMemoryLaw:
    @settings(max_examples=25, deadline=None)
    @given(stream_cases(), st.sampled_from((np.float32, np.float64)))
    @example((7, 4, 1, 4, "bilinear", False, 2, 4), np.float32)
    @example((7, 4, 2, 4, "bilinear", False, 2, 4), np.float32)
    @example((12, 4, 5, 4, "bilinear", False, 2, 8), np.float32)
    @example((20, 4, 5, 4, "bilinear", False, 2, 12), np.float32)
    @example((7, 3, 2, 2, "avgpool", True, 2, 3), np.float64)
    @example((50, 10, 1, 4, "bilinear", False, 1, 40), np.float32)
    @example((50, 10, 2, 2, "bilinear", False, 1, 40), np.float32)
    def test_law_causality_and_full_chunk(self, case, dtype):
        frames, chunk, p, r, kind, aux, layers, boundary = case
        base = AggregatorConfig(layout=SMALL, layers=layers, heads=2,
                                global_mode="descriptor",
                                method=CompressionMethod(kind, r), include_aux=aux,
                                selector=KeyframeSelector(interval=3), seed=frames,
                                dtype=dtype)
        cfg = StreamConfig(base=base, chunk_size=chunk, retain_rate=p)
        t = generate_synthetic(frames, SMALL, 100 + frames, dtype=dtype)
        out, cache = run_stream(t, cfg)

        # the memory law: the live record (tokens, bytes, ratios) is the closed form's
        model = memory_model(cfg, frames)
        assert model == cache_report(cache)
        per_frame = base.method.tokens_per_frame(SMALL)
        for layer in model.layers:
            assert layer.compressed_tokens == -(-frames // p) * per_frame
            assert layer.aux_tokens == (SMALL.tokens_per_frame if aux else 0)

        # causality: chunks before the boundary ignore every later frame, bitwise
        if boundary < frames:
            bumped = t.values.copy()
            bumped[boundary:] *= -3.0
            out2, _ = run_stream(TokenTensor(SMALL, bumped), cfg)
            assert np.array_equal(out.values[:boundary], out2.values[:boundary])
            assert not np.array_equal(out.values[boundary:], out2.values[boundary:])

        # one chunk covering the sequence is the offline forward, bitwise
        if chunk >= frames:
            assert np.array_equal(out.values, forward_offline(t, base).values)

    def test_first_frame_persists_across_chunks(self):
        base = desc_base(include_aux=True, ratio=4, layers=1, seed=17)
        cfg = StreamConfig(base=base, chunk_size=2, retain_rate=2)
        t = generate_synthetic(6, DESK, 18)
        _, cache = run_stream(t, cfg)
        store = cache.layers[0]
        first = store.kinds == int(DescriptorKind.FIRST_FRAME_PATCH)
        assert first.sum() == DESK.tokens_per_frame
        assert np.all(store.frames[first] == 0)
        # camera/register and key-frame anchors are never retained
        assert not np.any(store.kinds == int(DescriptorKind.CAMERA))
        assert not np.any(store.kinds == int(DescriptorKind.KEYFRAME_PATCH))

    def test_every_chunk_sees_one_first_frame_group(self, monkeypatch):
        # later chunks attend to the persisted frame 0, never to their own
        # first frame as a second first-frame group
        keys_seen = []

        def recording(t, keys, w, mask=AttentionMask()):
            keys_seen.append(keys)
            return descriptor_attention(t, keys, w, mask)

        monkeypatch.setattr(streaming, "descriptor_attention", recording)
        base = desc_base(include_aux=True, ratio=2, layers=2, seed=23)
        cfg = StreamConfig(base=base, chunk_size=2, retain_rate=2)
        run_stream(generate_synthetic(6, DESK, 24), cfg)
        assert len(keys_seen) == 3 * 2  # chunks x layers
        for keys in keys_seen:
            first = keys.kinds == int(DescriptorKind.FIRST_FRAME_PATCH)
            assert first.sum() == DESK.tokens_per_frame
            assert np.all(keys.frames[first] == 0)


class TestCacheReport:
    def test_empty_cache_reports_zeros(self):
        cfg = StreamConfig(base=desc_base())
        report = cache_report(MemoryCache.empty(cfg))
        assert report.total_tokens == 0
        assert report.total_bytes == 0
        assert report.ratio_vs_full == 0.0

    def test_reduction_ratio_example(self):
        # S=20, p=5, 8x8 grid at r=4, aux off: (4 kept frames x 4 descriptors)
        # against 20 frames x 69 tokens per layer
        base = desc_base(include_aux=False, ratio=4, layers=2, seed=23)
        cfg = StreamConfig(base=base, chunk_size=5, retain_rate=5)
        t = generate_synthetic(20, DESK, 24)
        _, cache = run_stream(t, cfg)
        report = cache_report(cache)
        expect = (4 * 4) / (20 * 69)
        assert abs(report.ratio_vs_full - expect) < 1e-12
        assert report.ratio_vs_full <= 1.0

    def test_ratio_never_exceeds_one(self):
        base = desc_base(include_aux=False, ratio=1, layers=1, seed=25)
        cfg = StreamConfig(base=base, chunk_size=4, retain_rate=1)
        t = generate_synthetic(4, DESK, 26)
        _, cache = run_stream(t, cfg)
        assert cache_report(cache).ratio_vs_full <= 1.0

    def test_csv_shape(self):
        base = desc_base(layers=3, seed=27)
        cfg = StreamConfig(base=base, chunk_size=2, retain_rate=2)
        t = generate_synthetic(4, DESK, 28)
        _, cache = run_stream(t, cfg)
        text = cache_report(cache).to_csv()
        lines = [ln for ln in text.strip().splitlines() if ln]
        assert len(lines) == 1 + 3
        assert lines[0].startswith("layer,total_tokens,compressed_tokens")


class TestConfigValidation:
    def test_dense_base_rejected(self):
        with pytest.raises(ValueError, match="descriptor"):
            StreamConfig(base=AggregatorConfig(layout=DESK, global_mode="dense"))

    def test_masked_base_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            StreamConfig(base=replace(desc_base(),
                                      mask=AttentionMask.frame_causal(4)))

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig(base=desc_base(), chunk_size=0)
        with pytest.raises(ValueError):
            StreamConfig(base=desc_base(), retain_rate=0)
