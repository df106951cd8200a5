"""Token layout, synthetic generation, and grid splitting."""

import numpy as np
import pytest

from descattn.kernels import rng
from descattn.tokens import (FrameLayout, TokenTensor, generate_synthetic, image_grid_layout,
                             split_grid)

DESK = FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)


def test_token_count_per_frame():
    assert DESK.tokens_per_frame == 1 + 4 + 64
    assert FrameLayout(h=3, w=5, n_camera=0, n_register=0, channels=2).tokens_per_frame == 15


def test_image_grid_layout_side():
    lay = image_grid_layout(channels=8)
    assert (lay.h, lay.w) == (37, 37)
    assert lay.tokens_per_frame == 37 * 37 + 5


def test_same_seed_bitwise_identical():
    a = generate_synthetic(4, DESK, 123)
    b = generate_synthetic(4, DESK, 123)
    assert np.array_equal(a.values, b.values)
    c = generate_synthetic(4, DESK, 124)
    assert not np.array_equal(a.values, c.values)


def test_single_frame_token_count():
    t = generate_synthetic(1, DESK, 0)
    assert t.values.shape == (1, DESK.tokens_per_frame, 32)


def test_per_channel_variance_near_unit():
    # 145 frames x 69 tokens > 1e4 samples per channel
    t = generate_synthetic(145, DESK, 7)
    var = t.values.astype(np.float64).reshape(-1, 32).var(axis=0)
    assert var.min() > 0.9 and var.max() < 1.1


def test_values_are_frozen():
    t = generate_synthetic(2, DESK, 0)
    with pytest.raises(ValueError):
        t.values[0, 0, 0] = 1.0


def test_non_contiguous_values_become_a_frozen_c_order_copy():
    given = np.asfortranarray(rng(4).standard_normal((3, DESK.tokens_per_frame, 32)))
    assert not given.flags.c_contiguous
    t = TokenTensor(DESK, given)
    assert t.values.flags.c_contiguous and not t.values.flags.writeable
    assert np.array_equal(t.values, given)
    # the (K, C) global sequence stays a view of the frames
    assert np.shares_memory(t.flat(), t.values)
    assert given.flags.writeable


class TestSplitGrid:
    def test_split_then_concat_is_identity(self):
        t = generate_synthetic(3, DESK, 5)
        special, grid = split_grid(t)
        assert special.shape == (3, DESK.n_special, 32)
        assert grid.shape == (3, 8, 8, 32)
        assert np.shares_memory(special, t.values) and np.shares_memory(grid, t.values)
        rebuilt = np.concatenate([special[1], grid[1].reshape(-1, 32)], axis=0)
        assert np.array_equal(rebuilt, t.values[1])

    def test_no_special_tokens(self):
        lay = FrameLayout(h=4, w=4, n_camera=0, n_register=0, channels=8)
        t = generate_synthetic(2, lay, 1)
        special, grid = split_grid(t)
        assert special.shape == (2, 0, 8)
        assert grid.shape == (2, 4, 4, 8)
        assert np.shares_memory(grid, t.values)

    def test_patch_offset_matches_layout(self):
        t = generate_synthetic(2, DESK, 9)
        _, grid = split_grid(t)
        assert np.shares_memory(grid, t.values)
        for f in range(2):
            for i, j in [(0, 0), (2, 5), (7, 7)]:
                offset = DESK.n_special + i * DESK.w + j
                assert np.array_equal(grid[f, i, j], t.values[f, offset])

