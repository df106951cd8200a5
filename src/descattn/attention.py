"""Attention kernels: per-frame self-attention, dense global self-attention,
and cross-attention from full-resolution tokens to a descriptor bundle.

All three share one pre-norm block shape: ``x + MHA(LN1(x))`` followed by
``y + MLP(LN2(y))`` with an MLP hidden width of 4C and scaled dot-product
scores (1 / sqrt(C / heads)).  The dense global kernel is the exact reference
the descriptor kernel approximates: with an uncompressed bundle and no
auxiliaries the two are the same computation.

One private function, ``_attention_block``, runs every block on a leading
batch axis: frame attention is one call with the frames as the batch, and
the global kernels, and so the streaming step, are one call with a batch of
one.  The queries are scaled by 1 / sqrt(C / heads) once per tile, before
the scores, so no pass over a score array scales it.  The block takes
``softmax_numerators`` of the scores in place and divides the (q, d) product
of those numerators and V by the row sums, instead of dividing the (q, K)
numerators.

The diagnostics run the forward.  ``attention_probabilities`` and the score
histogram call ``_attention_block`` with a ``record`` hook, which sees each
(tile, head)'s scaled scores just before the softmax overwrites them,
and take ``stable_softmax_rows`` of those scores: the same numerators divided
by the same sums, so their probabilities are bitwise the ones the forward's
context is built from.

Every block is query-tiled, and the tiles are fixed: frame attention tiles
by whole frames (QUERY_TILE // N of them, at least one) and the global
kernels by runs of at most QUERY_TILE // _MAX_WORKERS query rows, as is a
frame longer than that.  A block runs its tiles on W workers: one per CPU
this process may run on, and at most _MAX_WORKERS, the most that has been
measured.  W decides only which thread runs a tile, never which tiles exist,
so every block makes the same BLAS calls on the same shapes, and its bits do
not depend on the CPU count.  The calling thread is worker 0, and one
module-level pool of _MAX_WORKERS - 1 threads, made on first use, runs the
others.  Each worker runs in a copy of the calling thread's context, so
numpy's ``errstate`` and buffer size reach the pool threads, and a worker's
exception is raised in the caller once every worker has stopped.  A single
share runs on the calling thread alone, and with W = 1 there is no pool.
Each worker writes only its own tiles' output rows, so the output does not
depend on scheduling, and each row's softmax still sees all of its keys, so
tiling is exact.  Weights are cast to float64 once per block call, not once
per tile.  Every block, the diagnostics' included, checks that its
queries, keys and weights share C, and that it has a query and a key.

Every query sees every key it is given; a stream is causal because
``streaming.step`` passes a chunk only the keys of frames it has seen.  No
positional encoding is applied anywhere: frame identity flows only through
token content.
"""

from __future__ import annotations

import contextvars
import functools
import os
from collections.abc import Callable
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
# _MAX_WORKERS, the most measured for speed (ROADMAP, "Threads over query
# tiles").  Query runs are QUERY_TILE // _MAX_WORKERS rows at any W.
_MAX_WORKERS = 2
_WORKERS = min(_MAX_WORKERS, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


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


def _rows(x: np.ndarray) -> np.ndarray:
    """The (rows, C) view of a (B, rows per batch item, C) array."""
    return x.reshape(-1, x.shape[-1])


def _tiles(batch: int, queries: int) -> list[tuple[slice, list[slice]]]:
    """The query tiles of a block, grouped by the batch items whose keys
    they share: (batch slice, query slices) per group, in order.

    A group holds as many whole batch items as fit in QUERY_TILE query rows,
    and at least one; an item with more queries than QUERY_TILE //
    _MAX_WORKERS is split into runs of that many rows, so every worker can
    take a share of a group's runs.  A tile is a group's batch slice with one
    of its query slices, so it holds at most QUERY_TILE rows, and the first
    is the largest.  A group with one run is one tile; ``_whole_groups``
    says whether such groups run whole.
    """
    per = max(1, QUERY_TILE // max(queries, 1))
    rows = QUERY_TILE // _MAX_WORKERS
    runs = [slice(lo, min(lo + rows, queries)) for lo in range(0, queries, rows)]
    return [(slice(lo, min(lo + per, batch)), runs) for lo in range(0, batch, per)]


def _whole_groups(queries: int, keys: int) -> bool:
    """Whether a block's groups run whole, one group per worker with all heads
    at once: each group is one tile (queries per batch item fit one run) and
    its keys per batch item fit one run too."""
    run = QUERY_TILE // _MAX_WORKERS
    return queries <= run and keys <= run


def _project(rows: np.ndarray, w64: np.ndarray, shape: tuple) -> np.ndarray:
    """Q/K/V projection: the product rounds to the rows' dtype, then widens."""
    return matmul(rows, w64).astype(np.float64).reshape(shape)


def _by_head(x: np.ndarray, heads: int) -> np.ndarray:
    """The (b, heads, rows, d) view of a (b, rows, heads * d) array."""
    return x.reshape(*x.shape[:-1], heads, -1).swapaxes(-2, -3)


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
                     record: Callable[[tuple, int | slice, np.ndarray], None] | None = None
                     ) -> np.ndarray:
    """One full pre-norm block: queries from x_q (B, Q, C), keys and values
    from kv (B, K, C), batch item b's queries seeing all of batch item b's
    keys and no others.  ``record(tile, head, scores)``, when given, sees
    each (tile, head)'s scaled scores before the softmax overwrites them, on
    the thread that runs the tile; ``head`` is an index, or ``slice(None)``
    for all.

    A tile runs LN1 (in self-attention, ``kv is x_q``, the keys' rows) and
    Q; per head, or all heads at once, the scores, numerators, P·V and
    divide, in float64 and rounded straight into the tile's output rows; then
    the tail (W_o, the residual, LN2 and the MLP) over the same rows.  The
    form is chosen by ``_whole_groups`` from the shapes alone, and per (batch
    item, head) both forms make the same products on the same shapes and
    strides, so they give the same bits:

    * Whole groups: each group of ``_tiles(B, Q)`` is one tile, run on
      worker i mod W for group i.  The worker projects the group's keys,
      scores all heads in one fresh (b, H, q, K) array and runs the tail once
      those are dropped.  It holds one group at a time, so a block's peak is
      at most the output plus W times the most one worker adds alone; where
      in that range it lands depends on thread timing.
    * Tiled, every other block: the calling thread projects a group's K/V
      once and deals its query runs, run i to worker i mod W.  Each worker
      runs its tiles head by head in one (b, <= QUERY_TILE // _MAX_WORKERS,
      K) float64 workspace, made once per call after the first group's K/V,
      so the peak stays O(QUERY_TILE * K), not O(Q * K).  Once the workers
      stop, the calling thread runs the group's tails in turn, then drops the
      group's keys before the next group's are projected.

    Each array is held only until its last use; the keys' LN1 rows outlive
    K and V only in self-attention, as the queries' rows.  A tiled block
    peaks in a tail's GELU, with the output, the workspaces and the group's
    K/V alive beside the tail's two (rows, 4C) float64 GELU arrays and two
    (rows, C) row blocks.  No worker runs then and their per-tile
    temporaries stay below it, so that peak does not depend on thread
    timing; freeing the workspaces or K/V before the tails would move it
    into the workers' overlap, which does.
    """
    if not x_q.shape[-1] == kv.shape[-1] == w.channels:
        raise ValueError(f"channels differ: queries {x_q.shape[-1]}, "
                         f"keys {kv.shape[-1]}, weights {w.channels}")
    if not (x_q.shape[1] and kv.shape[1]):
        raise ValueError(f"attention needs a query and a key, got {x_q.shape[1]} "
                         f"queries and {kv.shape[1]} keys")
    whole = _whole_groups(x_q.shape[1], kv.shape[1])
    wo, w1, w2 = (m.astype(np.float64) for m in (w.wo, w.w1, w.w2))
    out = np.empty_like(x_q)
    wq, wk, wv = (m.astype(np.float64) for m in (w.wq, w.wk, w.wv))
    inv_sqrt_d = 1.0 / np.sqrt(w.channels // w.heads)
    groups = _tiles(*x_q.shape[:2])

    def keys(batch):
        rows = kv[batch]
        kv_in = layer_norm(_rows(rows), w.ln1_gamma, w.ln1_beta)
        k, v = _project(kv_in, wk, rows.shape), _project(kv_in, wv, rows.shape)
        # only self-attention reads the keys' LN1 rows again, as its queries'
        return kv_in if kv is x_q else None, k, v

    def attend(tile, group_keys, work):
        batch, queries = tile
        x = x_q[tile]
        # a whole group projects its own keys, on the thread that runs it
        kv_in, k, v = group_keys or keys(batch)
        q_in = (layer_norm(_rows(x), w.ln1_gamma, w.ln1_beta) if kv_in is None
                else _rows(kv_in.reshape(k.shape)[:, queries]))
        del kv_in
        q = _project(q_in, wq, x.shape)
        del q_in
        q *= inv_sqrt_d
        q, k, v, by_head = (_by_head(a, w.heads) for a in (q, k, v, out[tile]))
        if work is not None:
            work = work[:x.shape[0], :x.shape[1]]
        for h in (slice(None),) if work is None else range(w.heads):
            scores = np.matmul(q[:, h], k[:, h].swapaxes(-1, -2), out=work)
            if record is not None:
                record(tile, h, scores)
            e, denom = softmax_numerators(scores, out=scores)
            np.divide(e @ v[:, h], denom, out=by_head[:, h])

    def tail(tile):
        y = _rows(x_q[tile]) + matmul(_rows(out[tile]), wo)
        y += mlp(layer_norm(y, w.ln2_gamma, w.ln2_beta), w1, w.b1, w2, w.b2)
        out[tile] = y.reshape(out[tile].shape)

    def share(tiles, group_keys=None, work=None):
        for tile in tiles:
            attend(tile, group_keys, work)  # drops the tile's scores and projections
            if whole:
                tail(tile)

    if whole:
        tiles = [(batch, runs[0]) for batch, runs in groups]
        _run_shares([functools.partial(share, tiles[i::_WORKERS])
                     for i in range(min(_WORKERS, len(tiles)))])
        return out
    largest = x_q[groups[0][0], groups[0][1][0]]
    works = []
    for batch, runs in groups:
        tiles = [(batch, queries) for queries in runs]
        group_keys = keys(batch)
        # made after the first K/V, so no workspace sits under a projection
        works = works or [np.empty(largest.shape[:2] + kv.shape[1:2])
                          for _ in range(min(_WORKERS, len(runs)))]
        _run_shares([functools.partial(share, tiles[i::_WORKERS], group_keys, work)
                     for i, work in enumerate(works)])
        for tile in tiles:
            tail(tile)
        del group_keys  # before the next group's keys are projected
    return out


def attention_probabilities(x_q: np.ndarray, kv: np.ndarray, w: BlockWeights) -> np.ndarray:
    """Post-softmax probabilities, shape (heads, queries, keys), bitwise the
    ones the forward of the same block uses: the block runs, and
    each (tile, head)'s softmax is written into its own rows of the result.

    Diagnostic path: materializes every head, so keep inputs desk-scale.
    """
    out = np.empty((w.heads, x_q.shape[0], kv.shape[0]))

    def record(tile, head, scores):
        stable_softmax_rows(scores, out=out[head, tile[1]][None])

    _attention_block(x_q[None], kv[None], w, record)
    return out


def frame_attention(t: TokenTensor, w: BlockWeights) -> TokenTensor:
    """Self-attention within each frame independently; frames never interact."""
    # frames are the batch axis; one array for both roles, so LN1 runs once
    return t.with_values(_attention_block(t.values, t.values, w))


def dense_global_attention(t: TokenTensor, w: BlockWeights) -> TokenTensor:
    """Self-attention over the concatenated K = S * N token sequence.

    This is the exact reference that descriptor attention approximates.
    """
    flat = t.flat()[None]
    out = _attention_block(flat, flat, w)
    return t.with_values(out.reshape(t.values.shape))


def descriptor_attention(t: TokenTensor, bundle: DescriptorBundle, w: BlockWeights
                         ) -> TokenTensor:
    """Cross-attention: every full-resolution token queries the descriptor set."""
    out = _attention_block(t.flat()[None], bundle.descriptors[None], w)
    return t.with_values(out.reshape(t.values.shape))


def attention_score_histogram(t: TokenTensor, w: BlockWeights, mode: str
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of post-softmax attention probabilities.

    64 fixed-width bins on [0, 1], aggregated over heads and query rows.
    ``mode`` is "frame" (per-frame self-attention scores) or "global" (dense
    global scores).  Returns (counts, bin edges); counts sum to the number of
    probability entries.  The block runs, and each (tile, head)'s counts are
    kept, on whichever worker ran it, and summed at the end.
    """
    if mode not in ("frame", "global"):
        raise ValueError(f"histogram mode must be 'frame' or 'global', got {mode!r}")
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    counts = []
    x = t.values if mode == "frame" else t.flat()[None]
    _attention_block(x, x, w, lambda tile, head, scores: counts.append(
        np.histogram(stable_softmax_rows(scores), bins=edges)[0]))
    return sum(counts, np.zeros(HISTOGRAM_BINS, dtype=np.int64)), edges
