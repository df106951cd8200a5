"""Alternating-attention stack: bit pins, structure, weight determinism."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from descattn.aggregator import AggregatorConfig, forward_offline, init_weights
from descattn.attention import (dense_global_attention, descriptor_attention, frame_attention,
                                init_block_weights)
from descattn.compression import (CompressionMethod, KeyframeSelector, build_bundle,
                                  select_keyframes)
from descattn.tokens import FrameLayout, generate_synthetic

PATCH_ONLY = FrameLayout(h=8, w=8, n_camera=0, n_register=0, channels=32)
DESK = FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)

# Frozen from the first descriptor-mode run (S=2, 4x4 grid, C=16, L=2,
# seed 5) after it was verified to match the dense reference; guards the
# whole numeric pipeline against silent drift.
GOLDEN_LAYOUT = FrameLayout(h=4, w=4, n_camera=0, n_register=0, channels=16)
GOLDEN_SHA256_16 = "2cdeb989a5e54930"


def desc_cfg(layout=PATCH_ONLY, **kw) -> AggregatorConfig:
    kw.setdefault("layers", 2)
    kw.setdefault("method", CompressionMethod("bilinear", 1))
    kw.setdefault("include_aux", False)
    return AggregatorConfig(layout=layout, global_mode="descriptor", **kw)


class TestModeEquivalence:
    def test_golden_checksum(self):
        cfg = AggregatorConfig(layout=GOLDEN_LAYOUT, layers=2, heads=4,
                               global_mode="descriptor",
                               method=CompressionMethod("bilinear", 1),
                               include_aux=False, seed=5)
        t = generate_synthetic(2, GOLDEN_LAYOUT, 5)
        w = init_weights(cfg)
        out = forward_offline(t, cfg, w)
        dense = forward_offline(t, cfg.with_mode("dense"), w)
        assert np.max(np.abs(out.values - dense.values)) <= 1e-5
        assert hashlib.sha256(out.values.tobytes()).hexdigest()[:16] == GOLDEN_SHA256_16


class TestTiledPins:
    # Frozen at the untiled block and unchanged by query tiling: at S=8 on
    # the desk grid (K=552) the dense block runs 3 query tiles, the frame
    # blocks 3 tiles of whole frames, and the descriptor block 3 query tiles.
    PINS = {"dense": "6e1e590bb6e17c64", "descriptor": "4914a652e1d8e247"}

    @pytest.mark.parametrize("mode", ["dense", "descriptor"])
    def test_multi_tile_forward_is_pinned(self, mode):
        cfg = AggregatorConfig(layout=DESK, layers=2, heads=4, global_mode=mode,
                               method=CompressionMethod("bilinear", 4), seed=11)
        t = generate_synthetic(8, DESK, 12)
        assert t.total_tokens == 552
        out = forward_offline(t, cfg)
        assert hashlib.sha256(out.values.tobytes()).hexdigest()[:16] == self.PINS[mode]


class TestPinsUnderSimdLevels:
    # The float32 pins must not depend on numpy's SIMD dispatch.  Each level
    # reruns them in a fresh interpreter with numpy's dispatched targets
    # switched off down to AVX2 (first level) and down to the X86_V2
    # baseline (second level).  Float64 outputs, and even raw float32 GELU
    # values, can move with the dispatch of tanh and exp, so nothing else is
    # pinned across levels.
    PINNED = ["tests/test_aggregator.py::TestModeEquivalence::test_golden_checksum",
              "tests/test_aggregator.py::TestTiledPins::test_multi_tile_forward_is_pinned"]

    @pytest.mark.parametrize("disabled", ["X86_V4 AVX512_ICL AVX512_SPR",
                                          "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"])
    def test_pins_hold(self, disabled):
        baseline = np.__config__.CONFIG["SIMD Extensions"]["baseline"]
        if set(disabled.split()) & set(baseline):
            pytest.skip(f"numpy's baseline {baseline} cannot be disabled")
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
                   PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               *self.PINNED],
                              cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0 and "3 passed" in done.stdout, done.stdout + done.stderr


class TestStackStructure:
    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            desc_cfg(layers=0)

    def test_single_layer_is_frame_then_global(self):
        cfg = AggregatorConfig(layout=DESK, layers=1, global_mode="dense", seed=3)
        t = generate_synthetic(2, DESK, 4)
        w = init_weights(cfg)
        manual = dense_global_attention(frame_attention(t, w[0].frame), w[0].global_)
        auto = forward_offline(t, cfg, w)
        assert np.array_equal(auto.values, manual.values)

    def test_descriptor_layer_composition(self):
        cfg = AggregatorConfig(layout=DESK, layers=1, global_mode="descriptor",
                               method=CompressionMethod("bilinear", 2),
                               include_aux=True, selector=KeyframeSelector(interval=200),
                               seed=3)
        t = generate_synthetic(2, DESK, 4)
        w = init_weights(cfg)
        kf = select_keyframes(t, cfg.selector)
        x = frame_attention(t, w[0].frame)
        manual = descriptor_attention(x, build_bundle(x, cfg.method, kf), w[0].global_)
        auto = forward_offline(t, cfg, w)
        assert np.array_equal(auto.values, manual.values)

    def test_layer_weights_differ(self):
        w = init_weights(desc_cfg(seed=1))
        assert not np.array_equal(w[0].frame.wq, w[1].frame.wq)
        assert not np.array_equal(w[0].frame.wq, w[0].global_.wq)

    def test_layout_mismatch_rejected(self):
        cfg = desc_cfg()
        t = generate_synthetic(2, DESK, 0)
        with pytest.raises(ValueError):
            forward_offline(t, cfg)

    def test_token_dtype_mismatch_rejected(self):
        cfg = desc_cfg()  # float32
        t = generate_synthetic(2, PATCH_ONLY, 0, dtype=np.float64)
        with pytest.raises(ValueError, match="float64.*float32"):
            forward_offline(t, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            AggregatorConfig(layout=DESK, heads=5)
        with pytest.raises(ValueError, match="exceeds"):
            AggregatorConfig(layout=DESK, method=CompressionMethod("bilinear", 9))
        with pytest.raises(ValueError, match="global_mode"):
            AggregatorConfig(layout=DESK, global_mode="sparse")
        for heads in (0, -1):
            with pytest.raises(ValueError, match="heads must be >= 1"):
                AggregatorConfig(layout=DESK, heads=heads)
            with pytest.raises(ValueError, match="heads must be >= 1"):
                init_block_weights(0, 32, heads)


class TestDeterminism:
    def test_weights_deterministic_per_seed(self):
        a = init_weights(desc_cfg(seed=42))
        b = init_weights(desc_cfg(seed=42))
        for la, lb in zip(a, b):
            assert np.array_equal(la.frame.wq, lb.frame.wq)
            assert np.array_equal(la.global_.w2, lb.global_.w2)

