"""Numeric kernel contracts: matmul, softmax, layer norm, GELU, resampling."""

import math

import numpy as np
import pytest

from descattn.kernels import (ShapeError, gelu, half_pixel_centers, layer_norm,
                              matmul, mlp, resample_bilinear, resample_nearest,
                              rng, softmax_numerators, stable_softmax_rows)


def softmax_oracle(m):
    """The softmax body before the unbuffered long-row path, kept as the bit oracle."""
    x = m.astype(np.float64)
    out = np.subtract(x, np.max(x, axis=-1, keepdims=True))
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)
    return out.astype(m.dtype, copy=False)


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def matmul_oracle(a, b):
    """Independent sum-of-products reference, element by element in float64."""
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for kk in range(k):
                acc += float(a[i, kk]) * float(b[kk, j])
            out[i, j] = acc
    return out


class TestMatmul:
    def test_scalar_case(self):
        out = matmul(np.array([[2.0]]), np.array([[3.0]]))
        assert out.shape == (1, 1) and out[0, 0] == 6.0

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_triple_loop_oracle(self, dtype, rtol):
        gen = rng(42)
        a = gen.standard_normal((3, 4)).astype(dtype)
        b = gen.standard_normal((4, 2)).astype(dtype)
        np.testing.assert_allclose(matmul(a, b), matmul_oracle(a, b).astype(dtype),
                                   rtol=rtol)

    def test_dimension_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_pure(self):
        gen = rng(3)
        a = gen.standard_normal((5, 7)).astype(np.float32)
        b = gen.standard_normal((7, 2)).astype(np.float32)
        assert np.array_equal(matmul(a, b), matmul(a, b))


class TestSoftmax:
    def test_uniform_row(self):
        out = stable_softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-9)

    def test_huge_logits_no_overflow(self):
        out = stable_softmax_rows(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-9)

    def test_closed_form_exp_ratio(self):
        # softmax([0, ln 3]) = [1, 3] / 4
        out = stable_softmax_rows(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_preserves_order(self):
        x = rng(1).standard_normal((4, 9))
        p = stable_softmax_rows(x)
        assert np.array_equal(np.argsort(x, axis=-1), np.argsort(p, axis=-1))

    @pytest.mark.parametrize("top", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("keys", [8, 300])
    def test_row_without_a_finite_max_is_not_finite(self, top, keys):
        # a row needs a finite max; with +inf, NaN or only -inf keys its sum
        # is NaN and so is its softmax, while the finite row beside it is kept
        m = rng(17).standard_normal((2, keys))
        m[0, 3] = top
        if top == -np.inf:
            m[0] = -np.inf
        with np.errstate(invalid="ignore"):
            p = stable_softmax_rows(m)
            e, denom = softmax_numerators(m)
        assert np.all(np.isnan(p[0])) and np.isnan(denom[0, 0])
        assert not np.all(np.isfinite(e[0]))
        assert same_bits(p[1:], stable_softmax_rows(m[1:]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_is_bitwise(self, dtype):
        gen = rng(8)
        m = (gen.standard_normal((3, 5, 40)) * 30).astype(dtype)
        m[gen.random(m.shape) < 0.25] = -np.inf
        before = m.copy()
        expect = stable_softmax_rows(m)
        assert np.array_equal(m, before)  # without out=, the input is untouched
        assert expect.dtype == dtype
        # the float64 workspace the attention path hands in as both m and out
        work = m.astype(np.float64)
        got = stable_softmax_rows(work, out=work)
        assert got is work
        assert np.array_equal(got.astype(dtype), expect)
        # a separate float64 out for a float32 input returns the input dtype
        assert np.array_equal(stable_softmax_rows(m, out=np.empty(m.shape)), expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("keys", [64, 256, 257, 783, 2208])
    def test_long_rows_match_the_oracle_bitwise(self, keys, dtype):
        gen = rng(keys)
        m = (gen.standard_normal((2, 7, keys)) * 20).astype(dtype)
        m[gen.random(m.shape) < 0.2] = -np.inf
        m[0, 1, ::3] = -np.inf
        m[1, 3, 1] = np.finfo(dtype).max
        before = m.copy()
        expect = softmax_oracle(m)
        assert same_bits(stable_softmax_rows(m), expect)
        assert same_bits(m, before)
        # the in-place path the attention workspace takes
        work = m.astype(np.float64)
        got = stable_softmax_rows(work, out=work)
        assert got is work
        assert same_bits(got.astype(dtype), expect)
        # the attention forward's numerators and denominators
        e, denom = softmax_numerators(m)
        assert same_bits(m, before)
        assert same_bits((e / denom).astype(dtype), expect)
        # every row has a finite max, whose numerator is exp(0) = 1
        assert np.all(np.max(e, axis=-1) == 1.0)
        assert np.all(denom >= 1.0)

    @pytest.mark.parametrize("keys", [8, 300])
    def test_buffer_size_is_restored(self, keys):
        before = np.getbufsize()
        m = rng(15).standard_normal((4, keys))
        for kernel in (stable_softmax_rows, softmax_numerators):
            kernel(m)
            assert np.getbufsize() == before
            with pytest.raises(ValueError):
                kernel(m, out=np.empty((4, keys + 1)))
            assert np.getbufsize() == before


class TestLayerNorm:
    def test_constant_row_maps_to_beta(self):
        x = np.full((2, 6), 3.7, dtype=np.float32)
        out = layer_norm(x, np.ones(6), np.zeros(6))
        assert np.max(np.abs(out)) <= 1e-5

    def test_unit_variance_closed_form(self):
        out = layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2))
        v = 1.0 / np.sqrt(1.0 + 1e-6)
        np.testing.assert_allclose(out, [[v, -v]], atol=1e-12)

    def test_beta_is_a_pure_shift(self):
        x = rng(9).standard_normal((3, 8)).astype(np.float32)
        base = layer_norm(x, np.ones(8), np.zeros(8))
        shifted = layer_norm(x, np.ones(8), np.full(8, 2.5))
        np.testing.assert_allclose(shifted, base + 2.5, atol=1e-6)

    def test_row_statistics(self):
        x = rng(10).standard_normal((5, 16)) * 7 + 3
        out = layer_norm(x, np.ones(16), np.zeros(16))
        assert np.max(np.abs(out.mean(axis=-1))) <= 1e-5
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) <= 1e-4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            layer_norm(np.zeros((2, 4)), np.ones(3), np.zeros(3))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_oracle_bitwise(self, dtype):
        gen = rng(16)
        x = gen.standard_normal((3, 40, 32)) * 5
        x[0] += 1e4 * gen.standard_normal((40, 1))        # large offsets
        x[1, :7] = 3.7                                     # constant rows, variance 0
        x = x.astype(dtype)
        gamma, beta = gen.standard_normal((2, 32)).astype(dtype)
        x64 = x.astype(np.float64)
        mean = x64.mean(axis=-1, keepdims=True)
        var = np.mean((x64 - mean) ** 2, axis=-1, keepdims=True)
        normed = (x64 - mean) / np.sqrt(var + 1e-6)
        oracle = (normed * gamma.astype(np.float64) + beta.astype(np.float64)).astype(dtype)
        assert same_bits(layer_norm(x, gamma, beta), oracle)


class TestMlp:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_oracle_bitwise(self, dtype):
        gen = rng(17)
        x = (gen.standard_normal((50, 16)) * 3).astype(dtype)
        x[3] = 0.0
        x[4] += 1e3
        w1, b1, w2, b2 = (gen.standard_normal(s).astype(dtype)
                          for s in ((16, 64), 64, (64, 16), 16))
        before = x.copy()
        oracle = matmul(gelu(matmul(x, w1) + b1), w2) + b2
        got = mlp(x, w1, b1, w2, b2)
        assert same_bits(got, oracle)
        assert np.array_equal(x, before)
        # the float64 weight copies the attention block passes give the same bits
        assert same_bits(mlp(x, w1.astype(np.float64), b1, w2.astype(np.float64), b2), oracle)

    def test_peak_leaves_out_the_pre_activation(self, traced_peak):
        # on a 128-row tile the peak is GELU's two (128, 4C) float64 arrays;
        # the float32 pre-activation, freed once GELU widens it, is not beside them
        gen = rng(18)
        c = 32
        x = gen.standard_normal((128, c)).astype(np.float32)
        w1, w2 = (gen.standard_normal(s) / math.sqrt(c) for s in ((c, 4 * c), (4 * c, c)))
        b1, b2 = np.zeros(4 * c, np.float32), np.zeros(c, np.float32)
        hidden = 128 * 4 * c
        peak = traced_peak(lambda: mlp(x, w1, b1, w2, b2))
        # 16 bytes per hidden element, with slack short of the 4 more the
        # pre-activation would add
        assert peak < 18 * hidden, peak


class TestGelu:
    def test_float32_bits_match_the_power_form(self):
        gen = rng(12)
        tiny = np.finfo(np.float32).smallest_subnormal
        big = np.finfo(np.float32).max
        edges = np.array([0.0, tiny, -tiny, 1e-20, -1e-20, 3.0, -3.0,
                          1e4, -1e4, big, -big], dtype=np.float32)
        # MLP-scale values, then random finite bit patterns over every exponent
        spread = gen.integers(0, 2**32, size=1 << 19, dtype=np.uint32).view(np.float32)
        x = np.concatenate([edges, (4.0 * gen.standard_normal(1 << 19)).astype(np.float32),
                            spread[np.isfinite(spread)]])
        assert x.size >= 1_000_000
        x64 = x.astype(np.float64)
        oracle = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                            * (x64 + 0.044715 * x64 ** 3)))
        got = gelu(x)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), oracle.astype(np.float32).view(np.uint32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inputs_are_not_written(self, dtype):
        x = (3.0 * rng(13).standard_normal((7, 16))).astype(dtype)
        before = x.copy()
        assert gelu(x).dtype == dtype
        assert np.array_equal(x, before)
        layer_norm(x, np.ones(16), np.zeros(16))
        assert np.array_equal(x, before)

    def test_peak_is_two_float64_copies(self, traced_peak):
        # the widened input and one temporary, 16 bytes per element; neither
        # the temporary nor an input no caller keeps outlives its last use
        x = rng(15).standard_normal((256, 128)).astype(np.float32)
        assert traced_peak(lambda: gelu(x)) < 16.5 * x.size
        assert traced_peak(lambda: gelu(x.copy())) < 16.5 * x.size

    def test_closed_forms(self):
        assert gelu(np.zeros(3, dtype=np.float32)).tolist() == [0.0, 0.0, 0.0]
        # tanh is odd, so gelu(x) - gelu(-x) = x
        x = np.concatenate([[0.0], 4.0 * rng(14).standard_normal(10_000)])
        assert np.max(np.abs(gelu(x) - gelu(-x) - x)) <= 1e-12


class TestBilinear:
    def test_constant_grid(self):
        grid = np.full((5, 4, 3), 2.25, dtype=np.float32)
        out = resample_bilinear(grid, 2, 2)
        assert np.array_equal(out, np.full((2, 2, 3), 2.25, dtype=np.float32))

    def test_ramp_hits_half_pixel_centers(self):
        # x-coordinate ramp on a 4x4 grid; expected values are the ramp
        # evaluated at the documented sample centers.
        xx = np.tile(np.arange(4.0), (4, 1))
        grid = xx[:, :, None]
        out = resample_bilinear(grid, 2, 2)
        centers = half_pixel_centers(4, 2)
        expect = np.tile(centers, (2, 1))[:, :, None]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_identity_is_bitwise(self):
        grid = rng(4).standard_normal((6, 5, 2)).astype(np.float32)
        assert np.array_equal(resample_bilinear(grid, 6, 5), grid)

    def test_upsampling_rejected(self):
        with pytest.raises(ShapeError):
            resample_bilinear(np.zeros((2, 2, 1)), 3, 2)

    def test_convexity_bounds(self):
        grid = rng(5).standard_normal((7, 7, 4)).astype(np.float32)
        out = resample_bilinear(grid, 3, 3)
        assert out.min() >= grid.min() - 1e-6
        assert out.max() <= grid.max() + 1e-6


class TestNearest:
    def test_identity(self):
        grid = rng(6).standard_normal((4, 4, 2)).astype(np.float32)
        assert np.array_equal(resample_nearest(grid, 4, 4), grid)

    def test_tie_rounds_to_lower_index(self):
        # 2x2 -> 1x1 sample center is exactly 0.5 along both axes.
        grid = np.arange(4.0, dtype=np.float32).reshape(2, 2, 1)
        out = resample_nearest(grid, 1, 1)
        assert np.array_equal(out, grid[:1, :1])

    def test_constant(self):
        grid = np.full((6, 6, 2), -1.5, dtype=np.float32)
        assert np.array_equal(resample_nearest(grid, 2, 3),
                              np.full((2, 3, 2), -1.5, dtype=np.float32))

    def test_copies_tokens_verbatim(self):
        grid = rng(7).standard_normal((9, 9, 3)).astype(np.float32)
        out = resample_nearest(grid, 3, 3)
        flat = grid.reshape(-1, 3)
        for token in out.reshape(-1, 3):
            assert any(np.array_equal(token, src) for src in flat)
