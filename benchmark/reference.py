"""Float64 reference of the attention stack, written from the method's definition.

Nothing here calls descattn: the weights and key-frame indices the program
uses are passed in as plain arrays, and every block, descriptor bundle and
cache count is recomputed here so that the benchmark's output checks do not
share code with the program they check.

The definition followed:

* a block is pre-norm: ``y = x + MHA(LN1(x), LN1(kv))`` then
  ``y + MLP(LN2(y))``; layer norm uses population variance and eps 1e-6;
* the MLP is ``gelu(y @ w1 + b1) @ w2 + b2`` with tanh GELU and hidden width 4C;
* scores are scaled by ``1 / sqrt(C / heads)``, softmax runs over keys;
* a layer is per-frame self-attention followed by a global block: dense
  self-attention over all S * N tokens, or cross-attention from all tokens to
  the descriptor bundle;
* the bundle holds, in order: compressed patch descriptors (frame-major,
  cells row-major), the camera and register tokens of every frame, all
  tokens of the first frame, and all tokens of each key frame.  On a grid
  whose sides are multiples of 4, half-pixel bilinear resampling at ratio 4
  samples the centre of each 4 x 4 cell, which is the mean of its central
  2 x 2 tokens.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-6
GELU_C = math.sqrt(2.0 / math.pi)


def _layer_norm(x, gamma, beta):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gamma + beta


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * x ** 3)))


def _softmax(scores):
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def block(xq: np.ndarray, kv: np.ndarray, w: dict, heads: int) -> np.ndarray:
    """One pre-norm block over a batch: xq is (B, Q, C), kv is (B, K, C)."""
    c = xq.shape[-1]
    d = c // heads
    qn = _layer_norm(xq, w["ln1_gamma"], w["ln1_beta"])
    kn = _layer_norm(kv, w["ln1_gamma"], w["ln1_beta"])
    q, k, v = qn @ w["wq"], kn @ w["wk"], kn @ w["wv"]
    ctx = np.empty_like(q)
    for h in range(heads):
        s = slice(h * d, (h + 1) * d)
        probs = _softmax(q[..., s] @ np.swapaxes(k[..., s], -1, -2) / math.sqrt(d))
        ctx[..., s] = probs @ v[..., s]
    y = xq + ctx @ w["wo"]
    hidden = _gelu(_layer_norm(y, w["ln2_gamma"], w["ln2_beta"]) @ w["w1"] + w["b1"])
    return y + hidden @ w["w2"] + w["b2"]


def bilinear_r4(patches: np.ndarray) -> np.ndarray:
    """(S, H, W, C) patch grids to (S * H/4 * W/4, C) descriptors at ratio 4."""
    s, h, w, c = patches.shape
    if h % 4 or w % 4:
        raise ValueError(f"the reference compressor needs sides divisible by 4, got {h}x{w}")
    cells = patches.reshape(s, h // 4, 4, w // 4, 4, c)[:, :, 1:3, :, 1:3, :]
    return cells.mean(axis=(2, 4)).reshape(-1, c)


def descriptors(x: np.ndarray, n_special: int, grid: tuple[int, int],
                keyframes: np.ndarray) -> np.ndarray:
    """The descriptor bundle of a (S, N, C) sequence, anchors included."""
    s, _, c = x.shape
    patches = x[:, n_special:, :].reshape(s, grid[0], grid[1], c)
    parts = [bilinear_r4(patches), x[:, :n_special, :].reshape(-1, c), x[0]]
    parts += [x[f] for f in keyframes]
    return np.concatenate(parts, axis=0)


def forward(tokens: np.ndarray, layers: list[tuple[dict, dict]], heads: int,
            mode: str, n_special: int = 0, grid: tuple[int, int] = (0, 0),
            keyframes: np.ndarray | None = None) -> np.ndarray:
    """Offline forward of a (S, N, C) sequence; ``layers`` holds (frame, global)
    weight dicts in float64.  Returns the (S, N, C) float64 output."""
    x = np.asarray(tokens, dtype=np.float64)
    s, n, c = x.shape
    for frame_w, global_w in layers:
        x = block(x, x, frame_w, heads)
        flat = x.reshape(1, s * n, c)
        if mode == "dense":
            kv = flat
        else:
            kv = descriptors(x, n_special, grid, keyframes)[None]
        x = block(flat, kv, global_w, heads).reshape(s, n, c)
    return x


def cache_law(frames: int, retain: int, grid: tuple[int, int], ratio: int,
              tokens_per_frame: int) -> tuple[int, int]:
    """(compressed, first-frame) tokens each layer retains after ``frames``
    frames: ceil(S/p) * floor(H/r) * floor(W/r), plus the N verbatim tokens of
    the first frame."""
    cells = (grid[0] // ratio) * (grid[1] // ratio)
    return math.ceil(frames / retain) * cells, tokens_per_frame


def max_rel_error(out: np.ndarray, ref: np.ndarray) -> float:
    """Largest absolute difference, as a share of the reference's largest magnitude."""
    return float(np.max(np.abs(out.astype(np.float64) - ref)) / np.max(np.abs(ref)))
