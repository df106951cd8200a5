"""Alternating-attention stack: each layer runs a frame-attention block and
then a global block, either the dense reference or the descriptor variant.

Descriptor bundles are rebuilt from each global block's own input, so every
layer compresses the tokens it actually sees; key-frame indices, by contrast,
are selected once from the stack input and reused by all layers.  Weights are
seeded Gaussians (nothing here is trained): the stack exists to exercise
structural and numeric contracts, not to learn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import (AttentionMask, BlockWeights, dense_global_attention,
                        descriptor_attention, frame_attention, init_block_weights)
from .compression import CompressionMethod, KeyframeSelector, build_bundle, select_keyframes
from .kernels import rng
from .tokens import FrameLayout, TokenTensor

GLOBAL_MODES = ("dense", "descriptor")


@dataclass(frozen=True)
class AggregatorConfig:
    layout: FrameLayout = FrameLayout()
    layers: int = 4
    heads: int = 4
    global_mode: str = "descriptor"
    method: CompressionMethod = CompressionMethod()
    include_aux: bool = True
    selector: KeyframeSelector = KeyframeSelector()
    mask: AttentionMask = AttentionMask()
    seed: int = 0
    dtype: type = np.float32

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"layer count must be >= 1, got {self.layers}")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.global_mode not in GLOBAL_MODES:
            raise ValueError(f"global_mode must be one of {GLOBAL_MODES}, "
                             f"got {self.global_mode!r}")
        if self.layout.channels % self.heads != 0:
            raise ValueError(f"channels {self.layout.channels} not divisible "
                             f"by heads {self.heads}")
        if self.method.ratio > min(self.layout.h, self.layout.w):
            raise ValueError(f"compression ratio {self.method.ratio} exceeds "
                             f"grid side min({self.layout.h}, {self.layout.w})")

    @property
    def channels(self) -> int:
        return self.layout.channels

    def with_mode(self, global_mode: str) -> "AggregatorConfig":
        return replace(self, global_mode=global_mode)


@dataclass(frozen=True)
class LayerWeights:
    frame: BlockWeights
    global_: BlockWeights


def init_weights(cfg: AggregatorConfig) -> list[LayerWeights]:
    """Per-layer weights, two blocks each, derived deterministically from the seed.

    Both global modes consume the same global-block weights, which is what
    makes the dense reference a valid oracle for the descriptor variant.
    """
    seeds = rng(cfg.seed).integers(0, 2 ** 63 - 1, size=2 * cfg.layers)
    out = []
    for layer in range(cfg.layers):
        out.append(LayerWeights(
            frame=init_block_weights(int(seeds[2 * layer]), cfg.channels,
                                     cfg.heads, cfg.dtype),
            global_=init_block_weights(int(seeds[2 * layer + 1]), cfg.channels,
                                       cfg.heads, cfg.dtype)))
    return out


def check_dtype(t: TokenTensor, cfg: AggregatorConfig) -> None:
    """Tokens must be in the configured dtype: the weights are, and outputs
    and cached descriptors take the tokens' dtype."""
    if t.dtype != np.dtype(cfg.dtype):
        raise ValueError(f"token dtype {t.dtype} does not match config dtype "
                         f"{np.dtype(cfg.dtype)}")


def forward_offline(t: TokenTensor, cfg: AggregatorConfig,
                    weights: list[LayerWeights] | None = None,
                    layer_outputs: list[TokenTensor] | None = None) -> TokenTensor:
    """Single-pass forward over the whole sequence.

    Deterministic per (t, cfg); pass ``layer_outputs`` to capture the tokens
    after every layer (used for per-layer error reporting).
    """
    if t.layout != cfg.layout:
        raise ValueError(f"token layout {t.layout} does not match config {cfg.layout}")
    check_dtype(t, cfg)
    if weights is None:
        weights = init_weights(cfg)
    keyframes = None
    if cfg.global_mode == "descriptor" and cfg.include_aux:
        keyframes = select_keyframes(t, cfg.selector)

    x = t
    for lw in weights:
        x = frame_attention(x, lw.frame)
        if cfg.global_mode == "dense":
            x = dense_global_attention(x, lw.global_, cfg.mask)
        else:
            bundle = build_bundle(x, cfg.method, keyframes)
            x = descriptor_attention(x, bundle, lw.global_, cfg.mask)
        if layer_outputs is not None:
            layer_outputs.append(x)
    return x

