"""Dense numeric kernels: matmul, stable softmax, layer norm, GELU MLP, resampling.

Every kernel is a pure function on numpy arrays: same inputs, same bits out,
no hidden state. Reductions (matrix products, softmax sums, normalization
statistics) accumulate in float64 regardless of the working precision and the
result is cast back to the input dtype. That keeps float32 runs reproducible
across platforms and within a couple of ulps of closed-form values.

Conventions fixed here and relied on by callers:

* A "matrix" is a 2-D C-order ndarray (float32 default, float64 selectable).
* Resampling uses half-pixel sample centers: output index ``k`` along an axis
  of input length ``n`` and output length ``m`` samples the source coordinate
  ``(k + 0.5) * n / m - 0.5``.  Both resamplers are compression-only
  (``out <= in``); with that restriction every sample coordinate falls inside
  ``[0, n - 1]``.
* Nearest-neighbour rounding breaks ties toward the lower index.
* Randomness comes from numpy's PCG64 bit generator; one seed, one stream.
"""

from __future__ import annotations

import numpy as np

LAYER_NORM_EPS = 1e-6
# Softmax rows longer than this shift and exponentiate with numpy's ufunc
# buffer shrunk; the measured crossover (see ``softmax_numerators``).
_UNBUFFERED_ROW = 256


class ShapeError(ValueError):
    """Operand shapes do not satisfy a kernel's contract."""


def rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64); identical seed gives an identical stream."""
    return np.random.Generator(np.random.PCG64(seed))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with float64 accumulation, returned in ``a``'s dtype.

    ``b`` is the weight: a caller that multiplies by the same weight many
    times may pass its float64 copy, made once, and get the same bits as with
    the weight itself.  Raises ShapeError (reporting both shapes) unless ``a``
    is (m, k) and ``b`` is (k, n).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    return (a.astype(np.float64, copy=False)
            @ b.astype(np.float64, copy=False)).astype(a.dtype, copy=False)


def stable_softmax_rows(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax, shifted by the row max so huge logits cannot overflow.

    Works along the last axis of any array.  Each row needs a finite
    maximum; ``-inf`` entries in such a row weigh zero.  A row whose maximum
    is ``±inf`` or NaN (an all ``-inf`` row, say) comes back NaN throughout;
    no caller in the package produces one.

    This is ``softmax_numerators`` followed by ``out /= denom``, so its bits
    are those numerators divided by those denominators, and the attention
    forward, which divides only after P·V, sees the same numerators and
    denominators as its diagnostics.  The work runs in float64 inside
    ``out``, a float64 array of ``m``'s shape that may be ``m`` itself;
    without ``out`` a fresh array is used and ``m`` is left unchanged.  The
    result comes back in ``m``'s dtype, as ``out`` itself when that dtype is
    float64.
    """
    m = np.asarray(m)
    out, denom = softmax_numerators(m, out)
    out /= denom
    return out.astype(m.dtype, copy=False)


def softmax_numerators(m: np.ndarray, out: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The softmax before its divide: ``(exp(x - max), sum)`` along the last axis.

    Returns the shifted exponentials in ``out`` (a float64 array of ``m``'s
    shape that may be ``m`` itself; without it a fresh float64 array is used
    and ``m`` is left unchanged) and the float64 (..., 1) row sums.  Each row
    needs a finite maximum: its largest numerator is then ``exp(0) = 1``, so
    its sum is at least 1, and ``-inf`` entries give zero numerators.  A row
    whose maximum is ``+inf``, ``-inf`` or NaN has a NaN sum.  Every
    softmax in the package runs this one function; ``m``'s softmax is
    ``out / sum``, bitwise.

    The order of operations, and so every bit, is that of
    ``out = (x - max) ; exp(out) ; sum(out)``.  Only the overhead around it
    is trimmed:

    * the reductions call ``np.maximum.reduce`` and ``np.add.reduce``
      directly; ``np.max`` and ``np.sum`` add a Python wrapper around the
      same ufunc reduce;
    * on rows longer than ``_UNBUFFERED_ROW`` keys, the shift and ``exp``
      run with numpy's ufunc buffer size set to 16 (default 8192).  While a
      row fits in the default buffer, numpy copies the (rows, 1) operand of
      the shift into that buffer instead of running its direct SIMD loop.
      Median time of shift, exp, sum and divide on 64K-element arrays,
      unbuffered over buffered, by row length K (300 interleaved repeats,
      Intel Xeon, numpy 2.4): 1.32 (68), 1.07 (128), 1.05 (256), 0.98
      (384), 0.93 (512), 0.90 (768), 0.85 (2208).  Rows of 256 keys or fewer
      keep the buffered loop, which is faster for them.  The max and the sum
      are reductions with no broadcast operand and run at the default size,
      where they are faster: on a (1, 256, 722) block the row sum takes a
      median 56-76 µs there against 75-105 µs at size 16, and the row max
      46-55 µs against 54-79 µs (two runs of 30 x 50 calls, one thread,
      2-core Intel Xeon, numpy 2.4).  The buffer size is set inside
      ``np.errstate()``, which scopes it to the current context and restores
      it on exit, also when a step raises, so no numpy state leaks.
    """
    x = np.asarray(m).astype(np.float64, copy=False)
    rowmax = np.maximum.reduce(x, axis=-1, keepdims=True)
    with np.errstate():
        if x.shape[-1] > _UNBUFFERED_ROW:
            np.setbufsize(16)
        out = np.subtract(x, rowmax, out=out)
        np.exp(out, out=out)
    return out, np.add.reduce(out, axis=-1, keepdims=True)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalize each row to mean 0 / variance 1, then apply the affine map.

    Computes ``(x - mean) / sqrt(var + LAYER_NORM_EPS) * gamma + beta`` in
    float64, in that order, on one float64 copy of ``x`` updated in place;
    ``x`` itself is never written.  The mean is ``np.add.reduce(d, -1) / n``,
    which is bitwise ``np.mean``, and the variance is the mean of
    ``np.square`` of the centred rows, bitwise ``np.mean((x - mean) ** 2)``.
    """
    x = np.asarray(x)
    gamma = np.asarray(gamma)
    beta = np.asarray(beta)
    if gamma.shape[-1] != x.shape[-1] or beta.shape[-1] != x.shape[-1]:
        raise ShapeError(
            f"layer_norm parameter length {gamma.shape} / {beta.shape} "
            f"does not match row width {x.shape[-1]}")
    n = x.shape[-1]
    d = x.astype(np.float64)
    d -= np.add.reduce(d, axis=-1, keepdims=True) / n
    var = np.add.reduce(np.square(d), axis=-1, keepdims=True) / n
    var += LAYER_NORM_EPS
    d /= np.sqrt(var, out=var)
    d *= gamma.astype(np.float64, copy=False)
    d += beta.astype(np.float64, copy=False)
    return d.astype(x.dtype, copy=False)


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation (tanh form), evaluated in float64 and cast back.

    ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))``.  The cube
    is the multiply chain ``x * x * x``, not ``x ** 3``: numpy's ``**`` runs
    its generic SIMD ``pow``, which costs many times the two multiplies and
    whose last bits depend on the CPU dispatch level.  For a float32 input,
    ``x * x`` is exact in float64, so the cube rounds once.  The remaining
    steps run in place on one float64 temporary, in the order of the formula
    above; that order is pinned, because the float32 output bits (the golden
    checksum and the forward pins) depend on each rounding.  ``x`` itself is
    never written.

    Two float64 arrays of ``x``'s shape are the most it holds at once: the
    widened input and that temporary.  It drops its reference to ``x`` once
    ``x`` is widened, so an input no caller keeps is freed there, and it
    drops the temporary before the cast back.
    """
    x = np.asarray(x)
    dtype = x.dtype
    x64 = x.astype(np.float64)
    del x
    t = x64 * x64
    t *= x64
    t *= 0.044715
    t += x64
    t *= np.sqrt(2.0 / np.pi)
    np.tanh(t, out=t)
    t += 1.0
    x64 *= 0.5
    x64 *= t
    del t
    return x64.astype(dtype, copy=False)


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a += b``, returning ``a``: a fresh ``a`` is then referenced only by
    the expression that uses the sum."""
    a += b
    return a


def mlp(x: np.ndarray, w1: np.ndarray, b1: np.ndarray,
        w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Two-layer feed-forward block: gelu(x @ w1 + b1) @ w2 + b2.

    Each bias is added in place to the fresh product ``matmul`` returns, so
    the result has ``x``'s dtype and ``x`` is never written.  The biased
    pre-activation is handed to ``gelu`` and held nowhere else, so it is
    freed once ``gelu`` has widened it: while GELU's two float64 temporaries
    are alive, ``mlp`` holds only ``x`` beside them.
    """
    return _plus(matmul(gelu(_plus(matmul(x, w1), b1)), w2), b2)


def half_pixel_centers(n_in: int, n_out: int) -> np.ndarray:
    """Source coordinates of the ``n_out`` half-pixel sample centers in ``[0, n_in - 1]``."""
    k = np.arange(n_out, dtype=np.float64)
    return (k + 0.5) * (n_in / n_out) - 0.5


def _check_resample_args(grid: np.ndarray, out_h: int, out_w: int) -> tuple[int, int, int]:
    if grid.ndim < 3:
        raise ShapeError(f"resampling expects an (..., H, W, C) grid, got shape {grid.shape}")
    h, w, c = grid.shape[-3:]
    if h < 1 or w < 1:
        raise ShapeError(f"empty grid {grid.shape}")
    if out_h < 1 or out_w < 1 or out_h > h or out_w > w:
        raise ShapeError(
            f"resampling is compression-only: target {out_h}x{out_w} "
            f"must satisfy 1 <= target <= source {h}x{w}")
    return h, w, c


def resample_bilinear(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Downsample an (..., H, W, C) grid to (..., out_h, out_w, C) by bilinear
    interpolation.

    Each output token is a convex blend of at most four neighbouring input
    tokens; an affine function of the grid coordinates is reproduced exactly.
    Identity target returns a bitwise-equal copy.  Leading axes are frames:
    a stack resamples bitwise as its grids do one by one.

    Each of the four corners is gathered in the grid's dtype and only then
    widened to float64, so the temporaries scale with the output, not the
    input.  The blend accumulates in place, in the order
    ``top = a * (1 - wx) + b * wx``, ``bot = c * (1 - wx) + d * wx``,
    ``top * (1 - wy) + bot * wy``, one rounding per operation.
    """
    grid = np.asarray(grid)
    h, w, _ = _check_resample_args(grid, out_h, out_w)
    if out_h == h and out_w == w:
        return grid.copy()

    ys = half_pixel_centers(h, out_h)
    xs = half_pixel_centers(w, out_w)
    y0 = np.clip(np.floor(ys).astype(np.intp), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.intp), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[:, None]

    # the float64 weights widen each gathered corner as they multiply it
    def blend(rows: np.ndarray) -> np.ndarray:
        acc = np.multiply(grid[..., rows[:, None], x0, :], 1.0 - wx)
        acc += np.multiply(grid[..., rows[:, None], x1, :], wx)
        return acc

    out = blend(y0)
    out *= 1.0 - wy
    bot = blend(y1)
    bot *= wy
    out += bot
    return out.astype(grid.dtype)


def resample_nearest(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Downsample an (..., H, W, C) grid by copying the nearest input token
    (ties round to the lower index).

    Output tokens are verbatim copies, so no dtype round-trip happens here.
    Leading axes are frames, each resampled on its own.
    """
    grid = np.asarray(grid)
    h, w, _ = _check_resample_args(grid, out_h, out_w)
    # round-half-down: ceil(c - 0.5)
    iy = np.clip(np.ceil(half_pixel_centers(h, out_h) - 0.5).astype(np.intp), 0, h - 1)
    ix = np.clip(np.ceil(half_pixel_centers(w, out_w) - 0.5).astype(np.intp), 0, w - 1)
    return grid[..., iy[:, None], ix, :]
