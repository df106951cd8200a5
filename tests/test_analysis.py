"""Analytic FLOP/memory models and mode-divergence reports."""

import pytest

from descattn.aggregator import AggregatorConfig
from descattn.analysis import (REFERENCE_RESOURCES, compare_modes, divergence,
                               flops_attention, markdown_resource_table,
                               memory_model)
from descattn.compression import CompressionMethod, KeyframeSelector
from descattn.streaming import MemoryCache, StreamConfig, cache_report
from descattn.tokens import FrameLayout, generate_synthetic

PATCH_ONLY = FrameLayout(h=8, w=8, n_camera=0, n_register=0, channels=32)
DESK = FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)


def cfg_with(layout=DESK, ratio=4, include_aux=True, interval=200, **kw):
    kw.setdefault("layers", 2)
    return AggregatorConfig(layout=layout, global_mode="descriptor",
                            method=CompressionMethod("bilinear", ratio),
                            include_aux=include_aux,
                            selector=KeyframeSelector(interval=interval), **kw)


class TestFlops:
    def test_totals_are_sum_of_parts(self):
        report = flops_attention(cfg_with(layers=3), 7)
        assert report.per_layer_total == sum(report.components.values())
        assert report.total == 3 * report.per_layer_total
        assert all(v >= 0 for v in report.components.values())

    def test_compression_cost_by_method(self):
        frames = 4
        costs = {}
        for kind in ("bilinear", "nearest", "avgpool", "topk_norm", "learned_conv"):
            cfg = AggregatorConfig(layout=DESK, global_mode="descriptor",
                                   method=CompressionMethod(kind, 4))
            costs[kind] = flops_attention(cfg, frames).components["global.compression"]
        assert costs["nearest"] == 0
        assert costs["bilinear"] == 2 * 4 * frames * 4 * 32
        assert costs["learned_conv"] > costs["bilinear"]


class TestMemoryModel:
    def test_identity_settings_have_ratio_one(self):
        base = cfg_with(layout=PATCH_ONLY, ratio=1, include_aux=False)
        cfg = StreamConfig(base=base, chunk_size=4, retain_rate=1)
        model = memory_model(cfg, 12)
        assert model.ratio_vs_full == 1.0
        # the limit 1 / (p * r^2) is 1 at p = r = 1, and the model reaches it
        assert model.ratio_vs_full == 1.0 / (cfg.retain_rate * base.method.ratio ** 2)

    @pytest.mark.parametrize("include_aux", [True, False], ids=["aux", "no_aux"])
    def test_no_frames_matches_empty_cache(self, include_aux):
        cfg = StreamConfig(base=cfg_with(include_aux=include_aux))
        model = memory_model(cfg, 0)
        assert model == cache_report(MemoryCache.empty(cfg))
        assert model.total_tokens == 0 and model.ratio_vs_full == 0.0
        with pytest.raises(ValueError, match="frames must be >= 0"):
            memory_model(cfg, -1)

    def test_exact_asymptote_on_divisible_patch_grid(self):
        base = cfg_with(layout=PATCH_ONLY, ratio=4, include_aux=False)
        cfg = StreamConfig(base=base, chunk_size=10, retain_rate=5)
        model = memory_model(cfg, 50)
        assert model.ratio_vs_full == 1.0 / (cfg.retain_rate * base.method.ratio ** 2)


class TestCompareModes:
    def test_self_divergence_is_zero(self):
        t = generate_synthetic(2, DESK, 7)
        assert divergence(t, t) == (0.0, 0.0)

    def test_error_grows_with_compression_majority_of_seeds(self):
        # trend check over five seeds, majority rule
        wins = 0
        for seed in range(5):
            t = generate_synthetic(3, PATCH_ONLY, 100 + seed)
            finals = []
            for ratio in (1, 2, 4):
                cfg = cfg_with(layout=PATCH_ONLY, ratio=ratio, include_aux=False,
                               seed=seed)
                finals.append(compare_modes(t, cfg).per_layer_max[-1])
            if finals[0] <= finals[1] <= finals[2]:
                wins += 1
        assert wins >= 3, f"only {wins}/5 seeds show a nondecreasing error trend"


def test_markdown_table_structure():
    # the columns are the sorted union of both modes' frame counts; the dense
    # column stops at 1000, so its 1200 cell is '-'
    table = markdown_resource_table({"PFLOPs": REFERENCE_RESOURCES["pflops"]})
    lines = table.strip().splitlines()
    assert lines[0] == "| Metric | Mode | 200 | 400 | 600 | 800 | 1000 | 1200 |"
    assert any("| PFLOPs | dense |" in ln and ln.endswith("- |") for ln in lines)
    assert any("| PFLOPs | descriptor |" in ln for ln in lines)
