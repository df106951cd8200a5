"""Attention kernels: per-frame self-attention, dense global self-attention,
and cross-attention from full-resolution tokens to a descriptor bundle.

All three share one pre-norm block shape: ``x + MHA(LN1(x))`` followed by
``y + MLP(LN2(y))`` with an MLP hidden width of 4C and scaled dot-product
scores (1 / sqrt(C / heads)).  The dense global kernel is the exact reference
the descriptor kernel approximates: with an uncompressed bundle and no
auxiliaries the two are the same computation.

One private score path (LN1, the Q/K projections, the per-head scaled scores
and the mask) serves the forward of every kernel, the diagnostic
``attention_probabilities`` and the score histogram.  The queries are scaled
by 1 / sqrt(C / heads) once per tile, before the scores, so no pass over a
score array scales it.  The forward takes ``softmax_numerators`` of each
head's scores and divides the (q, d) product of those numerators and V by
the row sums, instead of dividing the (q, K) numerators; the diagnostics
take ``stable_softmax_rows`` of the same scores, which is those numerators
divided by those sums, so their probabilities are bitwise the ones the
forward's context is built from.  The path works on a leading batch axis:
frame attention is one call with the frames as the batch, and the global
kernels are one call with a batch of one.

Every block is query-tiled, with no untiled path, and runs its tiles on W
workers: one per CPU this process may run on, and at most two, the most that
has been measured.  Frame attention tiles by whole frames (QUERY_TILE // N
of them, at least one) and the global kernels by runs of at most
QUERY_TILE // W query rows.  LN1 and the K/V projections run once, on the calling
thread, over the keys a tile group shares (a group of frames, or the whole
key set of a global block).  The group's tiles are then dealt round-robin,
tile i to worker i mod W: the calling thread is worker 0, and one
module-level pool of _MAX_WORKERS - 1 threads, made on first use, runs the
others.  A worker runs a tile's Q projection, scores, softmax and context
before its next tile starts, and writes only that tile's rows of the output,
so the output does not depend on scheduling.  Once every worker of a group
has stopped, the calling thread runs W_o, LN2 and the MLP over the group in
QUERY_TILE-row tiles, whatever W is; no MLP temporary then overlaps another
worker's, so a block's allocation peak does not depend on thread timing,
and only the attention core of a tile sees W.  Each worker's
share runs in a copy of the calling thread's context, so numpy's
``errstate`` and buffer size reach the pool threads, and a worker's
exception is raised in the caller once every share has stopped.  A group
with one tile (a block of at most QUERY_TILE // W rows, or a frame group of
N <= QUERY_TILE // W) runs on the calling thread alone, and with W = 1 there
is no pool.  Each row's softmax still sees all of its keys, so tiling is
exact.  Each worker owns one (b, <= QUERY_TILE // W, K) float64 score
workspace, allocated once per block call, which its tiles and heads fill
with scores and run the softmax (or its numerators) in place, so a yielded
score array is valid only until that worker's next (tile, head).  The
workspaces hold at most b * QUERY_TILE * K elements together, so a block's
activation peak stays O(QUERY_TILE * K), not O(Q * K).  Weights are cast to
float64 once per block call, not once per tile.  The diagnostics
(``attention_probabilities``, the histogram) take the same score path on the
calling thread alone, with QUERY_TILE-row tiles.

Float64 outputs may differ by ulps across W: the BLAS picks its kernel by
operand size, and a (256, K) @ (K, d) product need not equal its two 128-row
halves bitwise.  A float32 forward rounds those ulps away: the check
``attention.worker_count_invariance`` holds three forwards bitwise equal at
W = 1 and W = 2.

A mask's cuts split the frames into blocks, and a query sees only the keys
whose provenance frame does not lie past its own block.  With cuts, each
tile's boolean visibility is built from the queries' last visible frame
(``AttentionMask.limits``) and hidden scores become -inf before the softmax;
without cuts it hides nothing and builds no array.  A row with no visible key
degenerates to a residual passthrough of the attention sub-block and raises
MaskedRowWarning; valid configurations never produce one because a query's
own frame is always visible to it.

No positional encoding is applied anywhere: frame identity flows only through
token content and masks.
"""

from __future__ import annotations

import contextvars
import functools
import os
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .compression import DescriptorBundle
from .kernels import (layer_norm, matmul, mlp, rng, softmax_numerators,
                      stable_softmax_rows)
from .tokens import TokenTensor

HISTOGRAM_BINS = 64
# Query rows per tile: a block's score workspaces total (b, <= QUERY_TILE, K).
QUERY_TILE = 256
# Workers per block, the calling thread included: one per usable CPU, up to
# _MAX_WORKERS, the most measured for speed and for float32 outputs equal to
# one worker's (ROADMAP, "Threads over query tiles").
_MAX_WORKERS = 2
_WORKERS = min(_MAX_WORKERS, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


class MaskedRowWarning(RuntimeWarning):
    """A query row had every key masked out; residual passthrough applied."""


@dataclass(frozen=True)
class BlockWeights:
    """Projection, MLP, and layer-norm parameters of one attention block."""

    heads: int
    wq: np.ndarray = field(repr=False)
    wk: np.ndarray = field(repr=False)
    wv: np.ndarray = field(repr=False)
    wo: np.ndarray = field(repr=False)
    w1: np.ndarray = field(repr=False)
    b1: np.ndarray = field(repr=False)
    w2: np.ndarray = field(repr=False)
    b2: np.ndarray = field(repr=False)
    ln1_gamma: np.ndarray = field(repr=False)
    ln1_beta: np.ndarray = field(repr=False)
    ln2_gamma: np.ndarray = field(repr=False)
    ln2_beta: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = self.wq.shape[0]
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if c % self.heads != 0:
            raise ValueError(f"channels {c} not divisible by heads {self.heads}")
        for name in ("wq", "wk", "wv", "wo"):
            m = getattr(self, name)
            if m.shape != (c, c):
                raise ValueError(f"{name} must be {c}x{c}, got {m.shape}")

    @property
    def channels(self) -> int:
        return self.wq.shape[0]


def init_block_weights(seed: int, channels: int, heads: int, dtype=np.float32) -> BlockWeights:
    """Seeded Gaussian weights at 1/sqrt(C) scale; norms start as identity maps."""
    gen = rng(seed)
    scale = 1.0 / np.sqrt(channels)

    def draw(*shape):
        return (gen.standard_normal(shape) * scale).astype(dtype)

    c = channels
    return BlockWeights(
        heads=heads,
        wq=draw(c, c), wk=draw(c, c), wv=draw(c, c), wo=draw(c, c),
        w1=draw(c, 4 * c), b1=np.zeros(4 * c, dtype=dtype),
        w2=draw(4 * c, c), b2=np.zeros(c, dtype=dtype),
        ln1_gamma=np.ones(c, dtype=dtype), ln1_beta=np.zeros(c, dtype=dtype),
        ln2_gamma=np.ones(c, dtype=dtype), ln2_beta=np.zeros(c, dtype=dtype))


@dataclass(frozen=True)
class AttentionMask:
    """Block-causal visibility over frames.

    ``cuts`` are the frame indices where a new block starts (strictly
    increasing, all > 0); frame f belongs to the block whose range contains
    it, and a query in frame f may attend only to keys whose provenance frame
    is <= the last frame of f's block.  The final block is unbounded, so one
    mask works for any sequence at least as long as its last cut, and a mask
    with no cuts hides nothing.
    """

    cuts: tuple[int, ...] = ()

    def __post_init__(self):
        cuts = tuple(int(c) for c in self.cuts)
        if any(c <= 0 for c in cuts) or any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError(f"cuts must be strictly increasing and positive, got {cuts}")
        object.__setattr__(self, "cuts", cuts)

    @classmethod
    def frame_causal(cls, frames: int) -> "AttentionMask":
        """Every frame is its own block."""
        return cls(tuple(range(1, frames)))

    @classmethod
    def chunked(cls, chunk_size: int, frames: int) -> "AttentionMask":
        return cls(tuple(range(chunk_size, frames, chunk_size)))

    def block_end(self, frames: np.ndarray) -> np.ndarray:
        """Last key frame visible to a query in each given frame."""
        cuts = np.asarray(self.cuts, dtype=np.int64)
        idx = np.searchsorted(cuts, np.asarray(frames, dtype=np.int64), side="right")
        ends = np.append(cuts - 1, np.iinfo(np.int64).max)
        return ends[idx]

    def limits(self, query_frames: np.ndarray, key_frames: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """The (Q,) last visible key frame of each query and the (K,) key
        frames: query i may attend to key j iff ``keys[j] <= ends[i]``.

        The kernels ask only when there are cuts, since without them every
        key is visible, and build each query tile's visibility from these
        rather than a full (Q, K) array."""
        key_frames = np.asarray(key_frames, dtype=np.int64)
        if key_frames.size and key_frames.min() < 0:
            raise ValueError("mask boundaries inconsistent with provenance: "
                             "negative key frame index")
        return self.block_end(query_frames), key_frames


def _rows(x: np.ndarray) -> np.ndarray:
    """The (rows, C) view of a (B, rows per batch item, C) array."""
    return x.reshape(-1, x.shape[-1])


def _tiles(batch: int, queries: int, workers: int = 1) -> list[tuple[slice, list[slice]]]:
    """The query tiles of a block, grouped by the batch items whose keys
    they share: (batch slice, query slices) per group, in order.

    A group holds as many whole batch items as fit in QUERY_TILE query rows,
    and at least one; an item with more queries than QUERY_TILE // workers is
    split into runs of that many rows, so each of ``workers`` workers can take
    a share of a group's runs.  A tile is a group's batch slice with one of
    its query slices, so it holds at most QUERY_TILE rows, and the first is
    the largest.
    """
    per = max(1, QUERY_TILE // max(queries, 1))
    rows = QUERY_TILE // workers
    runs = [slice(lo, min(lo + rows, queries)) for lo in range(0, queries, rows)]
    return [(slice(lo, min(lo + per, batch)), runs) for lo in range(0, batch, per)]


def _project(rows: np.ndarray, w64: np.ndarray, shape: tuple) -> np.ndarray:
    """Q/K/V projection: the product rounds to the rows' dtype, then widens."""
    return matmul(rows, w64).astype(np.float64).reshape(shape)


def _scores(x_q: np.ndarray, kv: np.ndarray, w: BlockWeights,
            limits: tuple[np.ndarray, np.ndarray] | None, workers: int = 1):
    """The one attention score path, up to the scaled, masked scores.

    ``x_q`` is (B, Q, C) and ``kv`` is (B, K, C): batch item b's queries see
    only batch item b's keys.  ``limits`` is ``AttentionMask.limits`` of a
    batch of one, or None when every key is visible.  For each group of
    ``_tiles(B, Q, workers)`` it runs LN1 and the K/V projections over the
    group's keys once and yields (batch slice, (b, K, C) float64 values,
    shares).  The group's query runs are dealt round-robin into the shares,
    run i to share i mod ``workers``, leaving out empty shares.  A share is a
    generator of its tiles: for each it runs LN1 (for self-attention, the key
    rows already normed) and the Q projection on the tile's rows, scales that
    float64 projection by 1 / sqrt(C / heads) in place, once for all heads,
    and yields (query slice, heads), where ``heads`` yields each head's
    (channel slice, (b, q, K) float64 scores) in turn, hidden keys at -inf.
    Share i writes every tile and head into its own (b, <= QUERY_TILE //
    workers, K) workspace, allocated once per call, which the caller's softmax
    may overwrite in place, so a yielded array is valid only until that
    share's next (tile, head): finish a tile's heads before asking the share
    for its next tile.  Shares of one group may run on different threads at
    once; a share runs in the context of whichever thread iterates it.
    """
    if limits is not None:
        ends, key_frames = limits
        dead = int(np.count_nonzero(ends < key_frames.min()))
        if dead:
            warnings.warn(f"{dead} fully masked query rows; "
                          "attention contributes nothing for them", MaskedRowWarning)
    wq, wk, wv = (m.astype(np.float64) for m in (w.wq, w.wk, w.wv))
    inv_sqrt_d = 1.0 / np.sqrt(w.channels // w.heads)
    groups = _tiles(*x_q.shape[:2], workers)
    largest = x_q[groups[0][0], groups[0][1][0]]
    works = [np.empty(largest.shape[:2] + kv.shape[1:2])
             for _ in range(min(workers, len(groups[0][1])))]

    def share(batch, runs, kv_in, k, work):
        for queries in runs:
            x = x_q[batch, queries]
            q_in = (_rows(kv_in.reshape(k.shape)[:, queries]) if kv is x_q
                    else layer_norm(_rows(x), w.ln1_gamma, w.ln1_beta))
            q = _project(q_in, wq, x.shape)
            q *= inv_sqrt_d
            hidden = None if limits is None else key_frames > ends[queries, None]
            yield queries, _head_scores(q, k, w.heads, hidden,
                                        work[:x.shape[0], :x.shape[1]])

    for batch, runs in groups:
        keys = kv[batch]
        kv_in = layer_norm(_rows(keys), w.ln1_gamma, w.ln1_beta)
        k = _project(kv_in, wk, keys.shape)
        v = _project(kv_in, wv, keys.shape)
        yield batch, v, [share(batch, runs[i::workers], kv_in, k, work)
                         for i, work in enumerate(works)]


def _head_scores(q: np.ndarray, k: np.ndarray, heads: int,
                 hidden: np.ndarray | None, scores: np.ndarray):
    d = q.shape[-1] // heads
    for lo in range(0, q.shape[-1], d):
        cols = slice(lo, lo + d)
        np.matmul(q[..., cols], k[..., cols].swapaxes(-1, -2), out=scores)
        if hidden is not None:
            np.copyto(scores, -np.inf, where=hidden)
        yield cols, scores


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The one pool of worker threads, made on first use."""
    return ThreadPoolExecutor(_MAX_WORKERS - 1, thread_name_prefix="descattn-tiles")


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's pool threads; it makes its own pool
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _run_shares(calls: list) -> None:
    """Run calls[0] on this thread and the others on the pool, each in a copy
    of this thread's context (numpy keeps ``errstate`` and its buffer size
    there); wait for all of them, then raise the first failure.  A single call
    runs here and never touches the pool."""
    futures = [_pool().submit(contextvars.copy_context().run, call)
               for call in calls[1:]]
    try:
        calls[0]()
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _attention_block(x_q: np.ndarray, kv: np.ndarray, w: BlockWeights,
                     limits: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """One full pre-norm block over a batch; queries from x_q (B, Q, C),
    keys/values from kv (B, K, C).  A group's workers write each tile's
    context, rounded to x_q's dtype, into that tile's rows of the output;
    once all have stopped, the calling thread runs W_o, the residual, LN2 and
    the MLP over the group in QUERY_TILE-row tiles, as one worker would, and
    writes the block's output over those rows.  So the MLP's temporaries
    never overlap another worker's, and the block's allocation peak does not
    depend on thread timing.  Each head's context is its softmax numerators
    times V, divided by the row sums afterwards: a (q, d) divide instead of a
    (q, K) one."""
    wo, w1, w2 = (m.astype(np.float64) for m in (w.wo, w.w1, w.w2))
    out = np.empty_like(x_q)

    def attend(batch, v, share):
        for queries, heads in share:
            ctx = np.empty(x_q[batch, queries].shape, dtype=np.float64)
            for cols, scores in heads:
                e, denom = softmax_numerators(scores, out=scores)
                np.divide(e @ v[..., cols], denom, out=ctx[..., cols])
            out[batch, queries] = ctx

    for batch, v, shares in _scores(x_q, kv, w, limits, _WORKERS):
        _run_shares([functools.partial(attend, batch, v, share) for share in shares])
        for lo in range(0, x_q.shape[1], QUERY_TILE):
            tile = (batch, slice(lo, lo + QUERY_TILE))
            y = _rows(x_q[tile]) + matmul(_rows(out[tile]), wo)
            y += mlp(layer_norm(y, w.ln2_gamma, w.ln2_beta), w1, w.b1, w2, w.b2)
            out[tile] = y.reshape(out[tile].shape)
    return out


def attention_probabilities(x_q: np.ndarray, kv: np.ndarray, w: BlockWeights) -> np.ndarray:
    """Post-softmax probabilities, shape (heads, queries, keys), bitwise the
    ones the unmasked forward of the same block uses.

    Diagnostic path: materializes every head, so keep inputs desk-scale.
    """
    out = np.empty((w.heads, x_q.shape[0], kv.shape[0]))
    for _, _, (share,) in _scores(x_q[None], kv[None], w, None):
        for rows, heads in share:
            # each head is copied out before the next one overwrites the workspace
            for h, (_, scores) in enumerate(heads):
                out[h, rows] = stable_softmax_rows(scores, out=scores)[0]
    return out


def frame_attention(t: TokenTensor, w: BlockWeights) -> TokenTensor:
    """Self-attention within each frame independently; frames never interact."""
    if w.channels != t.channels:
        raise ValueError(f"weight channels {w.channels} != token channels {t.channels}")
    # frames are the batch axis; one array for both roles, so LN1 runs once
    return t.with_values(_attention_block(t.values, t.values, w, None))


def dense_global_attention(t: TokenTensor, w: BlockWeights,
                           mask: AttentionMask = AttentionMask()) -> TokenTensor:
    """Self-attention over the concatenated K = S * N token sequence.

    This is the exact reference that descriptor attention approximates.
    """
    if w.channels != t.channels:
        raise ValueError(f"weight channels {w.channels} != token channels {t.channels}")
    flat = t.flat()[None]
    limits = None
    if mask.cuts:
        frames = t.token_frames()
        limits = mask.limits(frames, frames)
    out = _attention_block(flat, flat, w, limits)
    return t.with_values(out.reshape(t.values.shape))


def descriptor_attention(t: TokenTensor, bundle: DescriptorBundle, w: BlockWeights,
                         mask: AttentionMask = AttentionMask()) -> TokenTensor:
    """Cross-attention: every full-resolution token queries the descriptor set.

    Masks apply through descriptor provenance frames, so anchors copied from
    frame f are hidden from queries that may not see frame f yet.
    """
    if bundle.channels != t.channels:
        raise ValueError(f"bundle channels {bundle.channels} != token channels {t.channels}")
    if w.channels != t.channels:
        raise ValueError(f"weight channels {w.channels} != token channels {t.channels}")
    limits = None
    if mask.cuts:
        limits = mask.limits(t.token_frames(), bundle.frames)
    out = _attention_block(t.flat()[None], bundle.descriptors[None], w, limits)
    return t.with_values(out.reshape(t.values.shape))


def attention_score_histogram(t: TokenTensor, w: BlockWeights, mode: str
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of post-softmax attention probabilities.

    64 fixed-width bins on [0, 1], aggregated over heads and query rows.
    ``mode`` is "frame" (per-frame self-attention scores) or "global" (dense
    global scores).  Returns (counts, bin edges); counts sum to the number of
    probability entries.
    """
    if mode not in ("frame", "global"):
        raise ValueError(f"histogram mode must be 'frame' or 'global', got {mode!r}")
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    counts = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
    x = t.values if mode == "frame" else t.flat()[None]
    for _, _, (share,) in _scores(x, x, w, None):
        for _, heads in share:
            for _, scores in heads:
                counts += np.histogram(stable_softmax_rows(scores, out=scores),
                                       bins=edges)[0]
    return counts, edges
