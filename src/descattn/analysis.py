"""Analytic cost models and approximation-error reports.

FLOP conventions, fixed so the headline ratios are exact and auditable:

* one multiply-add = 2 FLOPs;
* the "attention core" of a global block is its score matmul plus its value
  matmul: 2*2*K*K FLOPs dense, 2*2*K*K_d FLOPs in descriptor mode (per
  channel; times C overall), so the core reduction is K / K_d exactly;
* projections: Q and O always run over the K queries, K and V over whatever
  feeds the keys (K tokens dense, K_d descriptors otherwise);
* the MLP costs 2*2*K*C*4C per block;
* softmax / layer-norm / activation work is reported separately (rough
  per-element estimates) and never enters the core ratio;
* compression cost is per produced descriptor element: bilinear blends four
  neighbours (4 MADs), nearest copies (free), average pooling sums a cell
  (r*r FLOPs), top-k pays the norm scan, the learned compressor pays its
  depth-wise kernel plus the point-wise channel mix.

The memory model predicts the streaming cache in closed form and returns the
``streaming.CacheReport`` that ``cache_report`` reads from a live cache, so a
live run and the model compare as one record with ``==``.  The model counts
bytes as tokens * C * itemsize; the live reading measures the stored arrays.

A published end-to-end measurement table for the production-scale pipeline
these blocks come from is bundled for side-by-side reporting; its ~15.8x FLOP
reduction at 1000 frames exceeds the attention-core bound K/K_d (~14.6x at
that configuration), which shared non-core work could only dilute, so the
published figure follows a different counting convention.  We report both and
do not reconcile them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregator import AggregatorConfig, forward_offline, init_weights
from .compression import bundle_token_counts
from .streaming import CacheReport, StreamConfig
from .tokens import TokenTensor

# Published wall-time (s), PFLOPs, and peak memory (GB) of the full
# production-scale reconstruction pipeline, dense baseline vs. the
# descriptor variant, by sequence length.  The dense baseline runs out of
# memory beyond 1000 frames.
REFERENCE_RESOURCES = {
    "time_s": {
        "dense":      {200: 17.01, 400: 61.82, 600: 137.84, 800: 245.47, 1000: 386.07},
        "descriptor": {200: 4.05, 400: 9.84, 600: 17.25, 800: 26.44, 1000: 38.1, 1200: 51.25},
    },
    "pflops": {
        "dense":      {200: 4.24, 400: 16.92, 600: 38.04, 800: 67.61, 1000: 105.61},
        "descriptor": {200: 0.29, 400: 1.10, 600: 2.43, 800: 4.30, 1000: 6.70, 1200: 9.62},
    },
    "memory_gb": {
        "dense":      {200: 18.50, 400: 30.98, 600: 43.45, 800: 55.93, 1000: 68.40},
        "descriptor": {200: 16.97, 400: 27.92, 600: 38.83, 800: 49.76, 1000: 60.68, 1200: 71.61},
    },
}


def reference_end_to_end_reduction(frames: int = 1000) -> float:
    """Published end-to-end PFLOP reduction (dense / descriptor) at ``frames``."""
    return (REFERENCE_RESOURCES["pflops"]["dense"][frames]
            / REFERENCE_RESOURCES["pflops"]["descriptor"][frames])


@dataclass(frozen=True)
class FlopReport:
    """Exact integer FLOP counts for one layer (all layers are identical).

    ``components`` maps "<block>.<part>" to FLOPs, e.g. "global.scores".
    """

    mode: str
    frames: int
    k_tokens: int
    kd_tokens: int
    layers: int
    components: dict[str, int]

    @property
    def per_layer_total(self) -> int:
        return sum(self.components.values())

    @property
    def total(self) -> int:
        return self.per_layer_total * self.layers

    @property
    def attention_core(self) -> int:
        """Per-layer score + value matmul FLOPs of the global block."""
        return self.components["global.scores"] + self.components["global.values"]

    def csv_rows(self) -> list[list]:
        rows = [["mode", "frames", "k_tokens", "kd_tokens", "layers",
                 "component", "flops_per_layer"]]
        for name, flops in sorted(self.components.items()):
            rows.append([self.mode, self.frames, self.k_tokens, self.kd_tokens,
                         self.layers, name, flops])
        rows.append([self.mode, self.frames, self.k_tokens, self.kd_tokens,
                     self.layers, "total_per_layer", self.per_layer_total])
        rows.append([self.mode, self.frames, self.k_tokens, self.kd_tokens,
                     self.layers, "total", self.total])
        return rows


def _compression_flops(cfg: AggregatorConfig, frames: int) -> int:
    lay = cfg.layout
    r = cfg.method.ratio
    c = lay.channels
    out_cells = frames * cfg.method.tokens_per_frame(lay)
    kind = cfg.method.kind
    if kind == "bilinear":
        return 2 * 4 * out_cells * c
    if kind == "nearest":
        return 0
    if kind == "avgpool":
        return r * r * out_cells * c
    if kind == "topk_norm":
        return 2 * frames * lay.h * lay.w * c
    # learned_conv: depth-wise r*r kernel, then point-wise channel mix
    return (2 * r * r + 2 * c) * out_cells * c


def flops_attention(cfg: AggregatorConfig, frames: int) -> FlopReport:
    """Exact per-layer FLOP breakdown for the configured mode at ``frames``."""
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    lay = cfg.layout
    c = lay.channels
    n = lay.tokens_per_frame
    k = frames * n
    comp: dict[str, int] = {}

    h = cfg.heads
    comp["frame.qkvo"] = 4 * 2 * k * c * c
    comp["frame.scores"] = 2 * k * n * c
    comp["frame.values"] = 2 * k * n * c
    comp["frame.mlp"] = 2 * 2 * k * c * 4 * c
    comp["frame.softmax_norm_act"] = 3 * h * k * n + 2 * 8 * k * c + 8 * k * 4 * c

    if cfg.global_mode == "dense":
        kd = k
        comp["global.qkvo"] = 4 * 2 * k * c * c
        comp["global.compression"] = 0
    else:
        counts = bundle_token_counts(frames, lay, cfg.method,
                                     cfg.selector if cfg.include_aux else None)
        kd = counts.total
        comp["global.qkvo"] = 2 * 2 * k * c * c + 2 * 2 * kd * c * c
        comp["global.compression"] = _compression_flops(cfg, frames)
    comp["global.scores"] = 2 * k * kd * c
    comp["global.values"] = 2 * k * kd * c
    comp["global.mlp"] = 2 * 2 * k * c * 4 * c
    comp["global.softmax_norm_act"] = (3 * h * k * kd + 2 * 8 * k * c
                                       + 8 * kd * c + 8 * k * 4 * c)

    return FlopReport(mode=cfg.global_mode, frames=frames, k_tokens=k,
                      kd_tokens=kd, layers=cfg.layers, components=comp)


def attention_core_reduction(cfg: AggregatorConfig, frames: int
                             ) -> tuple[float, int, int]:
    """(dense core / descriptor core, K, K_d); the ratio equals K / K_d exactly."""
    dense = flops_attention(cfg.with_mode("dense"), frames)
    desc = flops_attention(cfg.with_mode("descriptor"), frames)
    return dense.attention_core / desc.attention_core, dense.k_tokens, desc.kd_tokens


def memory_model(cfg: StreamConfig, frames: int) -> CacheReport:
    """Predict the streaming cache after ``frames`` frames in closed form, as
    the same record ``cache_report`` reads from a live cache: per layer,
    ceil(S / p) frames of compressed descriptors plus, once a frame has been
    seen with anchors on, the verbatim first frame."""
    if frames < 0:
        raise ValueError(f"frames must be >= 0, got {frames}")
    base = cfg.base
    lay = base.layout
    compressed = -(-frames // cfg.retain_rate) * base.method.tokens_per_frame(lay)
    aux = lay.tokens_per_frame if base.include_aux and frames else 0
    nbytes = (compressed + aux) * lay.channels * np.dtype(base.dtype).itemsize
    return CacheReport.tally(frames, lay.tokens_per_frame,
                             [(compressed, aux, nbytes)] * base.layers)


@dataclass(frozen=True)
class ErrorReport:
    """Divergence of descriptor mode from the dense reference, per layer."""

    per_layer_max: tuple[float, ...]
    per_layer_mean: tuple[float, ...]

    @property
    def final_max(self) -> float:
        return self.per_layer_max[-1]


def divergence(a: TokenTensor, b: TokenTensor) -> tuple[float, float]:
    """(max abs, mean abs) element-wise difference of two token tensors."""
    d = np.abs(a.values.astype(np.float64) - b.values.astype(np.float64))
    return float(d.max()), float(d.mean())


def compare_modes(t: TokenTensor, cfg: AggregatorConfig) -> ErrorReport:
    """Run dense and descriptor modes with shared weights and report per-layer
    divergence; identical configurations compared to themselves report zero."""
    weights = init_weights(cfg)
    dense_layers: list[TokenTensor] = []
    desc_layers: list[TokenTensor] = []
    forward_offline(t, cfg.with_mode("dense"), weights, layer_outputs=dense_layers)
    forward_offline(t, cfg.with_mode("descriptor"), weights, layer_outputs=desc_layers)
    maxes, means = [], []
    for da, de in zip(dense_layers, desc_layers):
        mx, mn = divergence(da, de)
        maxes.append(mx)
        means.append(mn)
    return ErrorReport(tuple(maxes), tuple(means))


def markdown_resource_table(metrics: dict[str, dict[str, dict[int, float]]]) -> str:
    """Render metric x mode rows against sequence-length columns.

    ``metrics`` maps metric label -> mode -> {frames: value}; the columns are
    the sorted union of every given frame count, and missing cells render as
    '-'.  The row structure (one metric per band, one mode per row) matches
    the published resource-consumption tables.
    """
    s_values = sorted({s for modes in metrics.values()
                       for vals in modes.values() for s in vals})
    header = "| Metric | Mode | " + " | ".join(str(s) for s in s_values) + " |"
    sep = "|---" * (len(s_values) + 2) + "|"
    lines = [header, sep]
    for metric, modes in metrics.items():
        for mode, vals in modes.items():
            cells = [f"{vals[s]:g}" if s in vals else "-" for s in s_values]
            lines.append(f"| {metric} | {mode} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
