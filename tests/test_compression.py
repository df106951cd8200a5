"""Compression methods, key-frame selection, and bundle assembly."""

import numpy as np
import pytest

from descattn.compression import (BundleCounts, CompressionMethod, DescriptorKind,
                                  KeyframeSelector, build_bundle, bundle_token_counts,
                                  compress_frame, select_keyframes, topk_norm_indices)
from descattn.kernels import rng
from descattn.tokens import FrameLayout, TokenTensor, generate_synthetic, image_grid_layout

DESK = FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)


def brute_force_two_means(points):
    """Best 2-clustering over every pair of data points as initial centroids."""
    n = len(points)
    best_sse, best_assign = np.inf, None
    for i in range(n):
        for j in range(i + 1, n):
            cents = np.stack([points[i], points[j]])
            assign = np.argmin(((points[:, None] - cents[None]) ** 2).sum(-1), axis=1)
            sse = 0.0
            for g in range(2):
                members = points[assign == g]
                if len(members) == 0:
                    sse = np.inf
                    break
                sse += ((members - members.mean(0)) ** 2).sum()
            if sse < best_sse:
                best_sse, best_assign = sse, assign
    return best_assign


class TestCompressFrame:
    @pytest.mark.parametrize("kind", ["bilinear", "nearest", "avgpool"])
    def test_ratio_one_is_identity(self, kind):
        grid = rng(1).standard_normal((5, 5, 4)).astype(np.float32)
        tokens = compress_frame(grid, CompressionMethod(kind, 1))
        assert np.array_equal(tokens, grid.reshape(-1, 4))

    def test_avgpool_constant(self):
        grid = np.full((8, 8, 3), 1.5, dtype=np.float32)
        tokens = compress_frame(grid, CompressionMethod("avgpool", 4))
        assert np.array_equal(tokens, np.full((4, 3), 1.5, dtype=np.float32))

    def test_avgpool_matches_cell_mean_oracle(self):
        # the 9x7 grid drops its last row and column: every cell is whole
        for h, w in ((8, 8), (9, 7)):
            grid = rng(3).standard_normal((h, w, 2)).astype(np.float32)
            tokens = compress_frame(grid, CompressionMethod("avgpool", 2))
            expect = np.stack([grid[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                              .astype(np.float64).mean(axis=(0, 1))
                               for i in range(h // 2) for j in range(w // 2)])
            assert np.array_equal(tokens, expect.astype(np.float32)), (h, w)

    def test_avgpool_preserves_global_mean_on_divisible_grid(self):
        # integer tokens + power-of-two cells: both means are exact floats
        grid = rng(4).integers(-20, 20, size=(8, 8, 3)).astype(np.float64)
        for ratio in (2, 4):
            tokens = compress_frame(grid, CompressionMethod("avgpool", ratio))
            assert tokens.mean() == grid.mean(), ratio

    def test_topk_sort_by_norm_oracle(self):
        # 2x2 grid with token norms (5, 1, 3, 2), budget 2
        grid = np.array([[[3.0, 4.0], [1.0, 0.0]],
                         [[0.0, 3.0], [2.0, 0.0]]], dtype=np.float32)
        idx = topk_norm_indices(grid, 2)
        assert list(idx) == [0, 2]
        flat = grid.reshape(-1, 2)
        norms = np.linalg.norm(flat[idx], axis=1)
        assert list(norms) == [5.0, 3.0]

    def test_topk_tie_prefers_earlier_row_major_index(self):
        grid = np.array([[[2.0], [1.0]], [[2.0], [2.0]]], dtype=np.float32)
        assert list(topk_norm_indices(grid, 2)) == [0, 2]

    def test_learned_conv_deterministic_per_seed(self):
        grid = rng(6).standard_normal((8, 8, 4)).astype(np.float32)
        a = compress_frame(grid, CompressionMethod("learned_conv", 2, seed=9))
        b = compress_frame(grid, CompressionMethod("learned_conv", 2, seed=9))
        c = compress_frame(grid, CompressionMethod("learned_conv", 2, seed=10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_ratio_larger_than_grid_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            compress_frame(np.zeros((4, 4, 2)), CompressionMethod("bilinear", 5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CompressionMethod("mystery", 2)


class TestKeyframes:
    def test_single_keyframe_when_interval_covers_sequence(self):
        t = generate_synthetic(7, DESK, 0)
        for method in ("cluster", "random", "fixed_stride"):
            picks = select_keyframes(t, KeyframeSelector(method, interval=200))
            assert len(picks) == 1

    def test_fixed_stride_positions(self):
        lay = FrameLayout(h=2, w=2, n_camera=0, n_register=0, channels=2)
        t = generate_synthetic(500, lay, 0)
        picks = select_keyframes(t, KeyframeSelector("fixed_stride", interval=200))
        assert list(picks) == [0, 200, 400]

    @pytest.mark.parametrize("method", ["cluster", "random", "fixed_stride"])
    @pytest.mark.parametrize("frames,interval", [(1, 1), (5, 2), (7, 3), (9, 4), (12, 12),
                                                 (50, 7), (9, 100)])
    def test_count_and_strict_order(self, method, frames, interval):
        t = generate_synthetic(frames, DESK, 3)
        picks = select_keyframes(t, KeyframeSelector(method, interval=interval))
        assert len(picks) == -(-frames // interval)
        assert np.all(np.diff(picks) > 0)
        assert picks.min() >= 0 and picks.max() < frames

    def test_cluster_separated_groups(self):
        # two well-separated Gaussian frame groups; compare with a brute-force
        # 2-means oracle over all centroid pairs
        lay = FrameLayout(h=2, w=2, n_camera=0, n_register=0, channels=4)
        gen = rng(17)
        vals = gen.standard_normal((8, lay.tokens_per_frame, 4)) * 0.05
        vals[:4] += 10.0
        vals[4:] -= 10.0
        t = TokenTensor(lay, vals.astype(np.float32))
        picks = select_keyframes(t, KeyframeSelector("cluster", interval=4))
        assert len(picks) == 2
        means = t.values.astype(np.float64).mean(axis=1)
        oracle_assign = brute_force_two_means(means)
        assert oracle_assign[picks[0]] != oracle_assign[picks[1]]
        assert (picks[0] < 4) != (picks[1] < 4)

    def test_random_is_seeded(self):
        t = generate_synthetic(10, DESK, 0)
        a = select_keyframes(t, KeyframeSelector("random", interval=3, seed=5))
        b = select_keyframes(t, KeyframeSelector("random", interval=3, seed=5))
        assert np.array_equal(a, b)


class TestBuildBundle:
    def test_aux_off_count(self):
        lay = FrameLayout(h=8, w=8, n_camera=0, n_register=0, channels=8)
        t = generate_synthetic(2, lay, 0)
        b = build_bundle(t, CompressionMethod("bilinear", 4))
        assert b.count == 2 * 4
        assert np.all(b.kinds == int(DescriptorKind.COMPRESSED))

    def test_production_configuration_count(self):
        # S=1000, 37x37 grid, r=4, 5 special tokens, key frame every 200
        lay = image_grid_layout(channels=4)
        t = generate_synthetic(1000, lay, 1)
        method = CompressionMethod("bilinear", 4)
        sel = KeyframeSelector("fixed_stride", interval=200)
        b = build_bundle(t, method, select_keyframes(t, sel))
        n = lay.tokens_per_frame
        assert n == 1374
        expect = 1000 * 81 + 1000 * 5 + n + 5 * n
        assert expect == 94244
        assert b.count == expect
        counts = bundle_token_counts(1000, lay, method, sel)
        assert counts == BundleCounts(81000, 5000, 1374, 6870)
        assert counts.total == b.count

    def test_block_ordering(self):
        t = generate_synthetic(3, DESK, 2)
        b = build_bundle(t, CompressionMethod("bilinear", 4), np.array([0, 2]))
        kinds = b.kinds
        n_comp = 3 * 4
        n_spec = 3 * 5
        assert np.all(kinds[:n_comp] == int(DescriptorKind.COMPRESSED))
        spec = kinds[n_comp:n_comp + n_spec]
        assert set(spec) == {int(DescriptorKind.CAMERA), int(DescriptorKind.REGISTER)}
        first = kinds[n_comp + n_spec:n_comp + n_spec + DESK.tokens_per_frame]
        assert np.all(first == int(DescriptorKind.FIRST_FRAME_PATCH))
        assert np.all(kinds[n_comp + n_spec + DESK.tokens_per_frame:]
                      == int(DescriptorKind.KEYFRAME_PATCH))
        # compressed block frames are ascending
        assert np.all(np.diff(b.frames[:n_comp]) >= 0)

    def test_first_frame_appears_twice_with_distinct_provenance(self):
        t = generate_synthetic(2, DESK, 4)
        b = build_bundle(t, CompressionMethod("bilinear", 8), np.array([0]))
        frame0 = b.frames == 0
        kinds0 = set(b.kinds[frame0])
        assert int(DescriptorKind.COMPRESSED) in kinds0
        assert int(DescriptorKind.FIRST_FRAME_PATCH) in kinds0
        # verbatim copies match the source tokens exactly
        first_mask = b.kinds == int(DescriptorKind.FIRST_FRAME_PATCH)
        assert np.array_equal(b.descriptors[first_mask], t.values[0])

    def test_provenance_is_a_partition(self):
        t = generate_synthetic(4, DESK, 5)
        b = build_bundle(t, CompressionMethod("nearest", 2),
                         select_keyframes(t, KeyframeSelector(interval=3)))
        assert b.frames.shape == (b.count,)
        assert b.kinds.shape == (b.count,)

    def test_verbatim_copies_are_uncompressed(self):
        t = generate_synthetic(3, DESK, 6)
        b = build_bundle(t, CompressionMethod("avgpool", 4), np.array([0, 2]))
        cam = (b.kinds == int(DescriptorKind.CAMERA)) & (b.frames == 1)
        assert np.array_equal(b.descriptors[cam], t.values[1, :1])

    @pytest.mark.parametrize("kind", ["nearest", "topk_norm"])
    @pytest.mark.parametrize("first", [True, False])
    def test_matches_per_frame_assembly(self, kind, first):
        # reference: the bundle appended one frame at a time, block by block;
        # only the bundle at frame offset 0 holds the first-frame group
        lay = FrameLayout(h=9, w=7, n_camera=2, n_register=1, channels=6)
        t = generate_synthetic(5, lay, 8, dtype=np.float64)
        method, keys = CompressionMethod(kind, 2), np.array([1, 4])
        offset = 0 if first else 13
        parts = []
        for f in range(5):
            grid = t.values[f, 3:].reshape(9, 7, 6)
            parts.append((compress_frame(grid, method), f, [DescriptorKind.COMPRESSED] * 12))
        for f in range(5):
            parts.append((t.values[f, :3], f, [DescriptorKind.CAMERA] * 2
                          + [DescriptorKind.REGISTER]))
        if first:
            parts.append((t.values[0], 0, [DescriptorKind.FIRST_FRAME_PATCH] * 66))
        for f in keys:
            parts.append((t.values[f], f, [DescriptorKind.KEYFRAME_PATCH] * 66))
        b = build_bundle(t, method, keys, frame_offset=offset)
        assert np.array_equal(b.descriptors, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(b.frames, np.concatenate(
            [np.full(len(p[0]), p[1] + offset) for p in parts]))
        assert np.array_equal(b.kinds, np.concatenate([p[2] for p in parts]))
        assert (b.descriptors.dtype, b.frames.dtype, b.kinds.dtype) == (
            np.float64, np.int32, np.int8)

    def test_frame_offset_shifts_provenance(self):
        t = generate_synthetic(2, DESK, 7)
        b = build_bundle(t, CompressionMethod("bilinear", 4), frame_offset=10)
        assert set(b.frames) == {10, 11}

    @pytest.mark.parametrize("keys", [[-1], [2, 2], [3], [1.0], [[1]]],
                             ids=["negative", "repeated", "out_of_range", "float", "2d"])
    def test_bad_keyframes_rejected(self, keys):
        # unchecked, -1 would wrap to the last frame, a repeat would add its
        # tokens twice, and index 3 of 3 frames would raise a bare IndexError
        t = generate_synthetic(3, DESK, 9)
        with pytest.raises(ValueError, match="key frames"):
            build_bundle(t, CompressionMethod("bilinear", 4), keys)

    def test_negative_frame_offset_rejected(self):
        # unchecked, offset -2 would tag 3 frames with provenance -2..0
        t = generate_synthetic(3, DESK, 9)
        with pytest.raises(ValueError, match="frame_offset"):
            build_bundle(t, CompressionMethod("bilinear", 4), np.array([1]),
                         frame_offset=-2)
