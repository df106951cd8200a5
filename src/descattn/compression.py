"""Descriptor generation: spatial compression plus auxiliary anchor tokens.

A descriptor bundle for a sequence holds, in this fixed order:

1. compressed patch descriptors, frame 0..S-1, cells row-major;
2. camera and register tokens of every frame (verbatim copies);
3. all tokens of the first frame (verbatim);
4. all tokens of each selected key frame, in frame order (verbatim).

Groups 2-4 are the auxiliary anchors and only appear when requested.  Every
descriptor carries provenance: its source frame and its kind.  Masks read the
frame, and streaming retention reads both.  Tokens may legitimately appear
twice (the first frame contributes both a compressed and a verbatim copy);
the kind keeps the copies distinguishable and cross-attention tolerates
duplicates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import resample_bilinear, resample_nearest, rng
from .tokens import FrameLayout, TokenTensor, split_grid

COMPRESSION_KINDS = ("bilinear", "nearest", "avgpool", "topk_norm", "learned_conv")
KEYFRAME_METHODS = ("cluster", "random", "fixed_stride")


class DescriptorKind(enum.IntEnum):
    COMPRESSED = 0
    CAMERA = 1
    REGISTER = 2
    FIRST_FRAME_PATCH = 3
    KEYFRAME_PATCH = 4


@dataclass(frozen=True)
class CompressionMethod:
    """Spatial compression strategy and its ratio.

    ``seed`` only matters for ``learned_conv``, whose depth-wise and
    point-wise weights are drawn from it (they are never trained; the method
    exists to make the compressor family comparable at matched budget).
    """

    kind: str = "bilinear"
    ratio: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.kind not in COMPRESSION_KINDS:
            raise ValueError(f"unknown compression kind {self.kind!r}; "
                             f"choose from {COMPRESSION_KINDS}")
        if self.ratio < 1:
            raise ValueError(f"compression ratio must be >= 1, got {self.ratio}")

    def out_hw(self, layout: FrameLayout) -> tuple[int, int]:
        return layout.h // self.ratio, layout.w // self.ratio

    def tokens_per_frame(self, layout: FrameLayout) -> int:
        oh, ow = self.out_hw(layout)
        return oh * ow


@dataclass(frozen=True)
class KeyframeSelector:
    method: str = "cluster"
    interval: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.method not in KEYFRAME_METHODS:
            raise ValueError(f"unknown key-frame method {self.method!r}; "
                             f"choose from {KEYFRAME_METHODS}")
        if self.interval < 1:
            raise ValueError(f"key-frame interval must be >= 1, got {self.interval}")

    def count(self, frames: int) -> int:
        return math.ceil(frames / self.interval)


class BundleCounts(NamedTuple):
    """Closed-form descriptor counts; mirrors what build_bundle materializes."""

    compressed: int
    special: int
    first_frame: int
    keyframe: int

    @property
    def total(self) -> int:
        return self.compressed + self.special + self.first_frame + self.keyframe


def bundle_token_counts(frames: int, layout: FrameLayout, method: CompressionMethod,
                        interval: int, include_aux: bool) -> BundleCounts:
    compressed = frames * method.tokens_per_frame(layout)
    if not include_aux:
        return BundleCounts(compressed, 0, 0, 0)
    n = layout.tokens_per_frame
    special = frames * layout.n_special
    key = math.ceil(frames / interval) * n
    return BundleCounts(compressed, special, n, key)


def topk_norm_indices(tokens: np.ndarray, budget: int) -> np.ndarray:
    """Row-major indices of the ``budget`` largest-norm tokens, in original order.

    Ties at the cutoff go to the earlier row-major position.
    """
    flat = tokens.reshape(-1, tokens.shape[-1])
    if not 1 <= budget <= flat.shape[0]:
        raise ValueError(f"budget {budget} out of range for {flat.shape[0]} tokens")
    norms = np.linalg.norm(flat.astype(np.float64), axis=1)
    # stable sort on -norm keeps earlier indices first among ties
    order = np.argsort(-norms, kind="stable")[:budget]
    return np.sort(order)


def _avgpool(grid: np.ndarray, r: int, out_h: int, out_w: int) -> np.ndarray:
    c = grid.shape[2]
    g = grid[:out_h * r, :out_w * r].astype(np.float64)
    cells = g.reshape(out_h, r, out_w, r, c).transpose(0, 2, 1, 3, 4)
    # the contiguous copy makes each cell's sum run in the order of a per-cell
    # mean; on the strided view numpy sums in another order and moves bits
    return np.ascontiguousarray(cells).mean(axis=(2, 3)).astype(grid.dtype)


def _learned_conv(grid: np.ndarray, method: CompressionMethod,
                  out_h: int, out_w: int) -> np.ndarray:
    r = method.ratio
    c = grid.shape[2]
    gen = rng(method.seed)
    depthwise = gen.standard_normal((r, r, c)) / r
    pointwise = gen.standard_normal((c, c)) / np.sqrt(c)
    g = grid.astype(np.float64)
    mixed = np.zeros((out_h, out_w, c), dtype=np.float64)
    for a in range(r):
        for b in range(r):
            mixed += g[a:a + out_h * r:r, b:b + out_w * r:r] * depthwise[a, b]
    out = mixed.reshape(-1, c) @ pointwise
    return out.reshape(out_h, out_w, c).astype(grid.dtype)


def compress_frame(grid: np.ndarray, method: CompressionMethod) -> np.ndarray:
    """Compress one H x W x C patch grid to its (n, C) descriptor tokens.

    Tokens are in row-major output order, with n = floor(H/r) * floor(W/r)
    for every method (matched budget).
    """
    grid = np.asarray(grid)
    if grid.ndim != 3:
        raise ValueError(f"expected an H x W x C grid, got shape {grid.shape}")
    h, w, c = grid.shape
    r = method.ratio
    if r > min(h, w):
        raise ValueError(f"compression ratio {r} exceeds grid side min({h}, {w})")
    out_h, out_w = h // r, w // r

    if method.kind == "topk_norm":
        return grid.reshape(-1, c)[topk_norm_indices(grid, out_h * out_w)]

    if method.kind == "bilinear":
        out = resample_bilinear(grid, out_h, out_w)
    elif method.kind == "nearest":
        out = resample_nearest(grid, out_h, out_w)
    elif method.kind == "avgpool":
        out = _avgpool(grid, r, out_h, out_w)
    else:  # learned_conv
        out = _learned_conv(grid, method, out_h, out_w)
    return out.reshape(-1, c)


def lloyd(points: np.ndarray, k: int, max_iter: int = 100
          ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Deterministic Lloyd iterations with evenly strided initial centroids.

    Returns (assignments, centroids, objective history), where the objective
    is the sum of squared distances to the assigned centroid, recorded after
    each assignment step.  Runs to an assignment fixpoint or ``max_iter``.
    Empty clusters keep their previous centroid.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    centroids = pts[[(i * n) // k for i in range(k)]].copy()
    assign = np.full(n, -1, dtype=np.intp)
    history: list[float] = []
    for _ in range(max_iter):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = pts[assign == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return assign, centroids, history


def select_keyframes(t: TokenTensor, sel: KeyframeSelector) -> np.ndarray:
    """Pick ceil(S / interval) key frames, strictly increasing and unique.

    ``cluster`` runs Lloyd k-means on the per-frame mean token vectors and
    keeps, per cluster, the member frame nearest its centroid (ties to the
    lowest frame index; an empty cluster falls back to the globally nearest
    unchosen frame).  ``random`` samples without replacement from the seeded
    stream.  ``fixed_stride`` takes frames 0, interval, 2*interval, ...
    """
    s = t.frames
    k = sel.count(s)
    if sel.method == "fixed_stride":
        return np.arange(0, s, sel.interval, dtype=np.intp)
    if sel.method == "random":
        picks = rng(sel.seed).choice(s, size=k, replace=False)
        return np.sort(picks.astype(np.intp))

    means = t.values.astype(np.float64).mean(axis=1)
    assign, centroids, _ = lloyd(means, k)
    d2 = ((means[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    chosen: list[int] = []
    for j in range(k):
        members = np.flatnonzero(assign == j)
        if len(members):
            chosen.append(int(members[np.argmin(d2[members, j])]))
    taken = set(chosen)
    for j in range(k):
        if not np.any(assign == j):
            order = np.argsort(d2[:, j], kind="stable")
            pick = next(int(i) for i in order if int(i) not in taken)
            chosen.append(pick)
            taken.add(pick)
    return np.sort(np.asarray(chosen, dtype=np.intp))


@dataclass(frozen=True)
class DescriptorBundle:
    """Compressed descriptors plus auxiliary anchors, with aligned provenance.

    ``frames`` (int32 source frame) and ``kinds`` (int8 ``DescriptorKind``)
    run parallel to ``descriptors``: exactly one provenance record per
    descriptor.
    """

    descriptors: np.ndarray = field(repr=False)
    frames: np.ndarray = field(repr=False)
    kinds: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.descriptors.shape[0]
        if not (self.frames.shape == (n,) and self.kinds.shape == (n,)):
            raise ValueError("provenance arrays must align 1:1 with descriptors")

    @property
    def count(self) -> int:
        return self.descriptors.shape[0]

    @property
    def channels(self) -> int:
        return self.descriptors.shape[1]

    def concat(self, other: "DescriptorBundle") -> "DescriptorBundle":
        if other.channels != self.channels:
            raise ValueError(f"channel mismatch: {self.channels} vs {other.channels}")
        return DescriptorBundle(
            np.concatenate([self.descriptors, other.descriptors]),
            np.concatenate([self.frames, other.frames]),
            np.concatenate([self.kinds, other.kinds]))

    def select(self, mask: np.ndarray) -> "DescriptorBundle":
        return DescriptorBundle(self.descriptors[mask], self.frames[mask],
                                self.kinds[mask])

    @classmethod
    def empty(cls, channels: int, dtype=np.float32) -> "DescriptorBundle":
        return cls(np.empty((0, channels), dtype=dtype),
                   np.empty(0, dtype=np.int32),
                   np.empty(0, dtype=np.int8))


def build_bundle(t: TokenTensor, method: CompressionMethod,
                 sel: KeyframeSelector | None = None,
                 include_aux: bool = True, *,
                 keyframes: np.ndarray | None = None,
                 include_first_frame: bool = True,
                 frame_offset: int = 0) -> DescriptorBundle:
    """Assemble the descriptor bundle for a whole sequence.

    ``keyframes`` overrides selection (used when the caller selects once and
    reuses the indices across layers).  ``include_first_frame`` lets streaming
    suppress the first-frame group on chunks that do not contain the stream's
    first frame; ``frame_offset`` shifts provenance frame indices into the
    global numbering of a longer stream.
    """
    lay = t.layout
    s, n, c = t.frames, lay.tokens_per_frame, lay.channels
    per_frame = method.tokens_per_frame(lay)
    # one (tokens, frames, kinds) triple per block, in bundle order
    blocks = [(np.concatenate([compress_frame(split_grid(t, f)[1], method)
                               for f in range(s)]),
               np.repeat(np.arange(s, dtype=np.int32), per_frame),
               np.full(s * per_frame, DescriptorKind.COMPRESSED, dtype=np.int8))]

    if include_aux:
        special = np.repeat(np.array([DescriptorKind.CAMERA, DescriptorKind.REGISTER],
                                     dtype=np.int8), [lay.n_camera, lay.n_register])
        blocks.append((t.values[:, :lay.n_special].reshape(-1, c),
                       np.repeat(np.arange(s, dtype=np.int32), lay.n_special),
                       np.tile(special, s)))
        if include_first_frame:
            blocks.append((t.values[0], np.zeros(n, dtype=np.int32),
                           np.full(n, DescriptorKind.FIRST_FRAME_PATCH, dtype=np.int8)))
        if keyframes is None:
            keyframes = select_keyframes(t, sel or KeyframeSelector())
        keyframes = np.asarray(keyframes, dtype=np.int32)
        blocks.append((t.values[keyframes].reshape(-1, c), np.repeat(keyframes, n),
                       np.full(keyframes.size * n, DescriptorKind.KEYFRAME_PATCH,
                               dtype=np.int8)))

    tokens, frames, kinds = zip(*blocks)
    return DescriptorBundle(np.concatenate(tokens),
                            np.concatenate(frames) + frame_offset,
                            np.concatenate(kinds))
