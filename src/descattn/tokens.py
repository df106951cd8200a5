"""Token layout of multi-frame sequences and seeded synthetic tokens.

A frame carries ``n_camera`` camera tokens and ``n_register`` register tokens
first, then its H x W patch tokens in row-major order.  A sequence of S frames
is stored densely as an (S, N, C) array with N tokens per frame; flattening
the frame axis gives the single global sequence of K = S * N tokens that
global attention runs over.  K is defined here and nowhere else.

Tensors are frozen after construction (read-only buffers) so they can be
shared across threads without copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import rng

@dataclass(frozen=True)
class FrameLayout:
    """Shape of one frame's token block."""

    h: int = 8
    w: int = 8
    n_camera: int = 1
    n_register: int = 4
    channels: int = 32

    def __post_init__(self):
        if self.h < 1 or self.w < 1 or self.channels < 1:
            raise ValueError(f"grid and channel sizes must be >= 1, got {self}")
        if self.n_camera < 0 or self.n_register < 0:
            raise ValueError(f"special-token counts must be >= 0, got {self}")

    @property
    def n_special(self) -> int:
        return self.n_camera + self.n_register

    @property
    def tokens_per_frame(self) -> int:
        return self.n_special + self.h * self.w


def image_grid_layout(channels: int) -> FrameLayout:
    """Layout of a 518 px square image in 14 px patches: a 37 x 37 grid with
    one camera and four register tokens."""
    return FrameLayout(h=37, w=37, channels=channels)


@dataclass(frozen=True)
class TokenTensor:
    """An (S, N, C) block of frame tokens; immutable once constructed."""

    layout: FrameLayout
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = self.values
        if v.ndim != 3:
            raise ValueError(f"token values must be (S, N, C), got shape {v.shape}")
        s, n, c = v.shape
        if n != self.layout.tokens_per_frame or c != self.layout.channels:
            raise ValueError(
                f"values shape {v.shape} does not match layout "
                f"(N={self.layout.tokens_per_frame}, C={self.layout.channels})")
        if s < 1:
            raise ValueError("a sequence needs at least one frame")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def tokens_per_frame(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    @property
    def total_tokens(self) -> int:
        """K = S * N, the length of the flattened global sequence."""
        return self.frames * self.tokens_per_frame

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def flat(self) -> np.ndarray:
        """The (K, C) global sequence view (frame-major, token order preserved)."""
        return self.values.reshape(self.total_tokens, self.channels)

    def with_values(self, values: np.ndarray) -> "TokenTensor":
        return TokenTensor(self.layout, values)


def generate_synthetic(frames: int, layout: FrameLayout, seed: int,
                       dtype=np.float32) -> TokenTensor:
    """Seeded unit-variance Gaussian tokens; deterministic per (frames, layout, seed)."""
    if frames < 1:
        raise ValueError("frames must be >= 1")
    values = rng(seed).standard_normal(
        (frames, layout.tokens_per_frame, layout.channels), dtype=np.dtype(dtype))
    return TokenTensor(layout, values)


def split_grid(t: TokenTensor) -> tuple[np.ndarray, np.ndarray]:
    """Split every frame into its special tokens and its patch grid.

    Returns the (S, n_special, C) and (S, H, W, C) stacks, both views of
    ``t``.  Concatenating a frame's two parts in layout order reproduces it
    exactly.
    """
    lay = t.layout
    special = t.values[:, :lay.n_special, :]
    grid = t.values[:, lay.n_special:, :].reshape(t.frames, lay.h, lay.w, lay.channels)
    return special, grid
