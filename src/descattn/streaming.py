"""Chunk-recursive inference: process a long sequence in consecutive chunks
while every chunk keeps a global receptive field through cached descriptors.

Each global block keeps its own memory of retained descriptors.  For chunk t
the keys and values are the concatenation of that memory with the chunk's own
bundle; queries are only the chunk's full-resolution tokens, so cached tokens
are never updated.  After the chunk, the memory grows by the chunk's
compressed descriptors from frames whose *global* index is a multiple of the
retain rate p (frame 0 of the stream is therefore always kept, regardless of
chunk size), plus, once, the verbatim first-frame tokens when auxiliaries
are enabled: only the first chunk's bundle, at frame offset 0, holds them.
Camera/register and key-frame anchors are chunk-local and are never retained.

Memory grows sublinearly: per layer, compressed tokens number exactly
ceil(frames_seen / p) * floor(H/r) * floor(W/r).  With p = 1 the retained key
set matches what a block-causal offline pass over the same chunk boundaries
would expose, which is what makes the offline stack an oracle for this module.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .aggregator import AggregatorConfig, LayerWeights, check_dtype, init_weights
from .attention import descriptor_attention, frame_attention
from .compression import (DescriptorBundle, DescriptorKind, build_bundle,
                          select_keyframes)
from .tokens import FrameLayout, TokenTensor

CACHE_CSV_COLUMNS = ("layer", "total_tokens", "compressed_tokens", "aux_tokens",
                     "bytes", "ratio_vs_full_token_cache")


@dataclass(frozen=True)
class StreamConfig:
    base: AggregatorConfig
    chunk_size: int = 10
    retain_rate: int = 5

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError(f"chunk size must be >= 1, got {self.chunk_size}")
        if self.retain_rate < 1:
            raise ValueError(f"retain rate must be >= 1, got {self.retain_rate}")
        if self.base.global_mode != "descriptor":
            raise ValueError("streaming runs the descriptor global mode only")
        if self.base.mask.cuts:
            raise ValueError("streaming enforces causality by construction; "
                             "configure the base without a mask")

    @property
    def drop_ratio_limit(self) -> float:
        """1 / (p * r^2): the cache-to-full-token ratio that pure patch grids
        approach as the stream grows."""
        return 1.0 / (self.retain_rate * self.base.method.ratio ** 2)


@dataclass(frozen=True)
class MemoryCache:
    """Per-global-block retained descriptors plus the running frame counter."""

    layout: FrameLayout
    layers: tuple[DescriptorBundle, ...]
    frames_seen: int = 0

    @classmethod
    def empty(cls, cfg: StreamConfig) -> "MemoryCache":
        base = cfg.base
        stores = tuple(DescriptorBundle.empty(base.channels, base.dtype)
                       for _ in range(base.layers))
        return cls(layout=base.layout, layers=stores)


def _retained_subset(bundle: DescriptorBundle, retain_rate: int) -> DescriptorBundle:
    """Compressed descriptors of every p-th global frame, plus the first-frame
    group, which only the bundle at frame offset 0 holds, so it is kept once."""
    keep = ((bundle.kinds == int(DescriptorKind.COMPRESSED))
            & (bundle.frames % retain_rate == 0)) \
        | (bundle.kinds == int(DescriptorKind.FIRST_FRAME_PATCH))
    subset = bundle.select(keep)
    order = np.argsort(subset.frames, kind="stable")
    return subset.select(order)


def step(chunk: TokenTensor, cache: MemoryCache, cfg: StreamConfig,
         weights: list[LayerWeights] | None = None
         ) -> tuple[TokenTensor, MemoryCache]:
    """Process one chunk against the cache; returns (chunk output, new cache).

    The cache is not mutated; the returned cache shares the retained arrays.
    """
    base = cfg.base
    if chunk.frames > cfg.chunk_size:
        raise ValueError(f"chunk has {chunk.frames} frames, limit is {cfg.chunk_size}")
    if chunk.layout != cache.layout or len(cache.layers) != base.layers:
        raise ValueError("cache layout/depth inconsistent with the stream config")
    check_dtype(chunk, base)
    if weights is None:
        weights = init_weights(base)

    offset = cache.frames_seen
    keyframes = None
    if base.include_aux:
        keyframes = select_keyframes(chunk, base.selector)

    x = chunk
    new_stores = []
    for lw, store in zip(weights, cache.layers):
        x = frame_attention(x, lw.frame)
        bundle = build_bundle(x, base.method, keyframes, frame_offset=offset)
        keys = store.concat(bundle)
        x = descriptor_attention(x, keys, lw.global_)
        new_stores.append(store.concat(_retained_subset(bundle, cfg.retain_rate)))

    new_cache = MemoryCache(layout=cache.layout, layers=tuple(new_stores),
                            frames_seen=offset + chunk.frames)
    return x, new_cache


def run_stream(t: TokenTensor, cfg: StreamConfig,
               weights: list[LayerWeights] | None = None
               ) -> tuple[TokenTensor, MemoryCache]:
    """Stream the whole sequence chunk by chunk; returns (outputs in frame
    order, final cache).

    A single chunk covering the full sequence reproduces the offline
    descriptor forward bit for bit.
    """
    if t.layout != cfg.base.layout:
        raise ValueError(f"token layout {t.layout} does not match config {cfg.base.layout}")
    if weights is None:
        weights = init_weights(cfg.base)
    cache = MemoryCache.empty(cfg)
    outputs = []
    c = cfg.chunk_size
    for start in range(0, t.frames, c):
        chunk = TokenTensor(t.layout, t.values[start:start + c])
        out, cache = step(chunk, cache, cfg, weights)
        outputs.append(out.values)
    return TokenTensor(t.layout, np.concatenate(outputs, axis=0)), cache


@dataclass(frozen=True)
class LayerCacheStats:
    layer: int
    total_tokens: int
    compressed_tokens: int
    aux_tokens: int
    bytes: int
    ratio_vs_full: float


@dataclass(frozen=True)
class CacheReport:
    """Cache occupancy vs. the full-token baseline that caches all K tokens
    at every global block (K * L tokens overall).

    A live cache (``cache_report``) and the closed form
    (``analysis.memory_model``) both build this record with ``tally``, so the
    two readings compare with ``==``.
    """

    layers: tuple[LayerCacheStats, ...]
    frames_seen: int
    full_token_baseline: int
    total_tokens: int
    total_bytes: int
    ratio_vs_full: float

    @classmethod
    def tally(cls, frames_seen: int, tokens_per_frame: int,
              per_layer: list[tuple[int, int, int]]) -> "CacheReport":
        """Build the record from one (compressed, aux, bytes) triple per layer;
        every ratio is 0 when no frame has been seen."""
        k = frames_seen * tokens_per_frame
        stats = tuple(LayerCacheStats(i, comp + aux, comp, aux, nbytes,
                                      (comp + aux) / k if k else 0.0)
                      for i, (comp, aux, nbytes) in enumerate(per_layer))
        total = sum(s.total_tokens for s in stats)
        baseline = k * len(stats)
        return cls(layers=stats, frames_seen=frames_seen,
                   full_token_baseline=baseline, total_tokens=total,
                   total_bytes=sum(s.bytes for s in stats),
                   ratio_vs_full=total / baseline if baseline else 0.0)

    def csv_rows(self) -> list[list]:
        rows = [list(CACHE_CSV_COLUMNS)]
        for s in self.layers:
            rows.append([s.layer, s.total_tokens, s.compressed_tokens,
                         s.aux_tokens, s.bytes, f"{s.ratio_vs_full:.8f}"])
        return rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerows(self.csv_rows())
        return buf.getvalue()


def cache_report(cache: MemoryCache) -> CacheReport:
    """Read the live cache: tokens counted by kind, bytes measured from the
    stored descriptor arrays."""
    per_layer = []
    for store in cache.layers:
        comp = int(np.count_nonzero(store.kinds == int(DescriptorKind.COMPRESSED)))
        per_layer.append((comp, store.count - comp, store.descriptors.nbytes))
    return CacheReport.tally(cache.frames_seen, cache.layout.tokens_per_frame, per_layer)
