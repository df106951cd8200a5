"""Chunk-recursive streaming: single steps, retention, the first-frame
anchor and cache records.  The cache law, causality and c >= S offline
equivalence over generated cases are ``descattn verify`` checks."""

from dataclasses import replace

import numpy as np
import pytest

from descattn import streaming
from descattn.aggregator import AggregatorConfig, init_weights
from descattn.attention import descriptor_attention
from descattn.compression import CompressionMethod, DescriptorKind, KeyframeSelector
from descattn.streaming import MemoryCache, StreamConfig, cache_report, run_stream, step
from descattn.tokens import FrameLayout, TokenTensor, generate_synthetic

DESK = FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)
PATCH_ONLY = FrameLayout(h=8, w=8, n_camera=0, n_register=0, channels=32)


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
            step(t, MemoryCache.empty(cfg), cfg, init_weights(cfg.base))

    def test_cache_layout_mismatch_rejected(self):
        cfg_a = StreamConfig(base=desc_base(layout=DESK))
        cfg_b = StreamConfig(base=desc_base(layout=PATCH_ONLY))
        t = generate_synthetic(2, PATCH_ONLY, 0)
        with pytest.raises(ValueError, match="cache"):
            step(t, MemoryCache.empty(cfg_a), cfg_b, init_weights(cfg_b.base))

    def test_chunk_and_cache_in_another_layout_rejected(self):
        # both agree with each other, and neither with the config
        small = FrameLayout(h=4, w=4, n_camera=1, n_register=4, channels=32)
        cfg = StreamConfig(base=desc_base(ratio=4), chunk_size=4, retain_rate=2)
        other = StreamConfig(base=desc_base(layout=small, ratio=4), chunk_size=4,
                             retain_rate=2)
        t = generate_synthetic(3, small, 0)
        with pytest.raises(ValueError, match="token layout .* does not match config"):
            step(t, MemoryCache.empty(other), cfg, init_weights(cfg.base))

    def test_token_dtype_mismatch_rejected(self):
        cfg = StreamConfig(base=desc_base())  # float32
        t = generate_synthetic(2, DESK, 0, dtype=np.float64)
        with pytest.raises(ValueError, match="float64.*float32"):
            step(t, MemoryCache.empty(cfg), cfg, init_weights(cfg.base))

    def test_weights_that_disagree_with_the_config_are_rejected(self):
        cfg = StreamConfig(base=desc_base())
        t = generate_synthetic(2, DESK, 0)
        w = init_weights(cfg.base)
        with pytest.raises(ValueError, match="weights have 1 layers, config has 2"):
            step(t, MemoryCache.empty(cfg), cfg, w[:1])
        eight = StreamConfig(base=replace(cfg.base, heads=8))
        with pytest.raises(ValueError, match="layer 0 weights have 4 heads, config has 8"):
            step(t, MemoryCache.empty(eight), eight, w)

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


class TestMemoryLaw:
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
        assert not np.any(store.kinds == int(DescriptorKind.SPECIAL))
        assert not np.any(store.kinds == int(DescriptorKind.KEYFRAME_PATCH))

    def test_every_chunk_sees_one_first_frame_group(self, monkeypatch):
        # later chunks attend to the persisted frame 0, never to their own
        # first frame as a second first-frame group
        keys_seen = []

        def recording(t, keys, w):
            keys_seen.append(keys)
            return descriptor_attention(t, keys, w)

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
        assert [layer.bytes for layer in report.layers] == [0] * len(report.layers)
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


class TestConfigValidation:
    def test_dense_base_rejected(self):
        with pytest.raises(ValueError, match="descriptor"):
            StreamConfig(base=AggregatorConfig(layout=DESK, global_mode="dense"))

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig(base=desc_base(), chunk_size=0)
        with pytest.raises(ValueError):
            StreamConfig(base=desc_base(), retain_rate=0)
