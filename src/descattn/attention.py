"""Attention kernels: per-frame self-attention, dense global self-attention,
and cross-attention from full-resolution tokens to a descriptor bundle.

All three share one pre-norm block shape: ``x + MHA(LN1(x))`` followed by
``y + MLP(LN2(y))`` with an MLP hidden width of 4C and scaled dot-product
scores (1 / sqrt(C / heads)).  The dense global kernel is the exact reference
the descriptor kernel approximates: with an uncompressed bundle and no
auxiliaries the two are the same computation.

One private score path (LN1, the Q/K projections, the per-head scaled scores,
the mask and the row softmax) serves the forward of every kernel, the
diagnostic ``attention_probabilities`` and the score histogram, so all three
see the same probabilities bit for bit.  It works on a leading batch axis:
frame attention is one call with the frames as the batch, and the global
kernels are one call with a batch of one.  The norms, projections and MLP run
on the stacked rows.  Each call holds one (B, Q, K) float64 score workspace
that every head in turn fills and softmaxes in place, so a yielded probability
array is valid only until the next head.

A mask's cuts split the frames into blocks, and a query sees only the keys
whose provenance frame does not lie past its own block.  With cuts, the mask
is a boolean (Q, K) visibility and hidden scores become -inf before the
softmax; without cuts it hides nothing and builds no array.  A row with no
visible key degenerates to a residual passthrough of the attention sub-block
and raises MaskedRowWarning; valid configurations never produce one because a
query's own frame is always visible to it.

No positional encoding is applied anywhere: frame identity flows only through
token content and masks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .compression import DescriptorBundle
from .kernels import layer_norm, matmul, mlp, rng, stable_softmax_rows
from .tokens import TokenTensor

HISTOGRAM_BINS = 64


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
    def none(cls) -> "AttentionMask":
        return cls()

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

    def visible(self, query_frames: np.ndarray, key_frames: np.ndarray) -> np.ndarray:
        """Boolean (Q, K) visibility: True where a query may attend to a key.

        The kernels ask only when there are cuts, since without them every
        key is visible."""
        key_frames = np.asarray(key_frames, dtype=np.int64)
        if key_frames.size and key_frames.min() < 0:
            raise ValueError("mask boundaries inconsistent with provenance: "
                             "negative key frame index")
        return key_frames[None, :] <= self.block_end(query_frames)[:, None]


def _rows(x: np.ndarray) -> np.ndarray:
    """The (rows, C) view of a (B, rows per batch item, C) array."""
    return x.reshape(-1, x.shape[-1])


def _scores(x_q: np.ndarray, kv: np.ndarray, w: BlockWeights,
            visible: np.ndarray | None):
    """The one attention score path, up to the post-softmax probabilities.

    ``x_q`` is (B, Q, C) and ``kv`` is (B, K, C): batch item b's queries see
    only batch item b's keys.  Runs LN1 and the Q/K projections on the stacked
    rows, then returns the normed (B * K, C) key/value rows (for the caller's
    V projection) and an iterator that yields each head's (channel slice,
    (B, Q, K) float64 probabilities) in turn.  Every head writes into the same
    workspace, so a yielded array is valid only until the next head.
    """
    q_in = layer_norm(_rows(x_q), w.ln1_gamma, w.ln1_beta)
    kv_in = q_in if kv is x_q else layer_norm(_rows(kv), w.ln1_gamma, w.ln1_beta)
    q = matmul(q_in, w.wq).astype(np.float64).reshape(x_q.shape)
    k = matmul(kv_in, w.wk).astype(np.float64).reshape(kv.shape)
    if visible is not None:
        dead = ~visible.any(axis=1)
        if dead.any():
            warnings.warn(f"{int(dead.sum())} fully masked query rows; "
                          "attention contributes nothing for them", MaskedRowWarning)
    return kv_in, _head_probabilities(q, k, w.heads, visible)


def _head_probabilities(q: np.ndarray, k: np.ndarray, heads: int,
                        visible: np.ndarray | None):
    d = q.shape[-1] // heads
    inv_sqrt_d = 1.0 / np.sqrt(d)
    hidden = None if visible is None else ~visible
    scores = np.empty(q.shape[:-1] + k.shape[-2:-1])
    for lo in range(0, q.shape[-1], d):
        cols = slice(lo, lo + d)
        np.matmul(q[..., cols], k[..., cols].swapaxes(-1, -2), out=scores)
        scores *= inv_sqrt_d
        if hidden is not None:
            np.copyto(scores, -np.inf, where=hidden)
        yield cols, stable_softmax_rows(scores, out=scores)


def _attention_block(x_q: np.ndarray, kv: np.ndarray, w: BlockWeights,
                     visible: np.ndarray | None) -> np.ndarray:
    """One full pre-norm block over a batch; queries from x_q (B, Q, C),
    keys/values from kv (B, K, C)."""
    kv_in, heads = _scores(x_q, kv, w, visible)
    v = matmul(kv_in, w.wv).astype(np.float64).reshape(kv.shape)
    ctx = np.empty(x_q.shape, dtype=np.float64)
    for cols, probs in heads:
        ctx[..., cols] = probs @ v[..., cols]
    del probs  # the score workspace, freed before the MLP's temporaries

    x = _rows(x_q)
    y = x + matmul(_rows(ctx).astype(x.dtype), w.wo)
    out = y + mlp(layer_norm(y, w.ln2_gamma, w.ln2_beta), w.w1, w.b1, w.w2, w.b2)
    return out.reshape(x_q.shape)


def attention_probabilities(x_q: np.ndarray, kv: np.ndarray, w: BlockWeights) -> np.ndarray:
    """Post-softmax probabilities, shape (heads, queries, keys), bitwise the
    ones the unmasked forward of the same block uses.

    Diagnostic path: materializes every head, so keep inputs desk-scale.
    """
    _, heads = _scores(x_q[None], kv[None], w, None)
    # each head is copied out before the next one overwrites the workspace
    return np.stack([probs[0].copy() for _, probs in heads])


def frame_attention(t: TokenTensor, w: BlockWeights) -> TokenTensor:
    """Self-attention within each frame independently; frames never interact."""
    if w.channels != t.channels:
        raise ValueError(f"weight channels {w.channels} != token channels {t.channels}")
    # frames are the batch axis; one array for both roles, so LN1 runs once
    return t.with_values(_attention_block(t.values, t.values, w, None))


def dense_global_attention(t: TokenTensor, w: BlockWeights,
                           mask: AttentionMask | None = None) -> TokenTensor:
    """Self-attention over the concatenated K = S * N token sequence.

    This is the exact reference that descriptor attention approximates.
    """
    if w.channels != t.channels:
        raise ValueError(f"weight channels {w.channels} != token channels {t.channels}")
    flat = t.flat()[None]
    visible = None
    if mask is not None and mask.cuts:
        frames = t.token_frames()
        visible = mask.visible(frames, frames)
    out = _attention_block(flat, flat, w, visible)
    return t.with_values(out.reshape(t.values.shape))


def descriptor_attention(t: TokenTensor, bundle: DescriptorBundle, w: BlockWeights,
                         mask: AttentionMask | None = None) -> TokenTensor:
    """Cross-attention: every full-resolution token queries the descriptor set.

    Masks apply through descriptor provenance frames, so anchors copied from
    frame f are hidden from queries that may not see frame f yet.
    """
    if bundle.channels != t.channels:
        raise ValueError(f"bundle channels {bundle.channels} != token channels {t.channels}")
    if w.channels != t.channels:
        raise ValueError(f"weight channels {w.channels} != token channels {t.channels}")
    visible = None
    if mask is not None and mask.cuts:
        visible = mask.visible(t.token_frames(), bundle.frames)
    out = _attention_block(t.flat()[None], bundle.descriptors[None], w, visible)
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
    _, heads = _scores(x, x, w, None)
    for _, probs in heads:
        counts += np.histogram(probs, bins=edges)[0]
    return counts, edges
