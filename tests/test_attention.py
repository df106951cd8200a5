"""Attention kernels: hand-computed cases, brute-force oracles, masks, the
one score path, the score workspace, query tiles and the score histogram."""

import math
import os
import signal
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descattn import attention
from descattn.attention import (AttentionMask, BlockWeights, MaskedRowWarning,
                                attention_probabilities, attention_score_histogram,
                                dense_global_attention, descriptor_attention,
                                frame_attention, init_block_weights)
from descattn.compression import (CompressionMethod, KeyframeSelector, build_bundle,
                                  select_keyframes)
from descattn.kernels import layer_norm, rng, softmax_numerators
from descattn.tokens import FrameLayout, TokenTensor, generate_synthetic

DESK = FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)


def identity_weights(channels: int, hidden_zero: bool = True) -> BlockWeights:
    """Identity projections with a disabled MLP; isolates the attention math."""
    c = channels
    eye = np.eye(c, dtype=np.float32)
    return BlockWeights(
        heads=1, wq=eye, wk=eye.copy(), wv=eye.copy(), wo=eye.copy(),
        w1=np.zeros((c, 4 * c), np.float32), b1=np.zeros(4 * c, np.float32),
        w2=np.zeros((4 * c, c), np.float32), b2=np.zeros(c, np.float32),
        ln1_gamma=np.ones(c, np.float32), ln1_beta=np.zeros(c, np.float32),
        ln2_gamma=np.ones(c, np.float32), ln2_beta=np.zeros(c, np.float32))


def block_oracle(x, w, kv=None, eps=1e-6):
    """Independent float64 re-derivation of one pre-norm attention block."""
    x = x.astype(np.float64)
    kv = x if kv is None else kv.astype(np.float64)

    def ln(v, g, b):
        mu = v.mean(-1, keepdims=True)
        var = ((v - mu) ** 2).mean(-1, keepdims=True)
        return (v - mu) / np.sqrt(var + eps) * g + b

    def gelu(v):
        return 0.5 * v * (1 + np.tanh(np.sqrt(2 / np.pi) * (v + 0.044715 * v ** 3)))

    c = x.shape[1]
    d = c // w.heads
    q_in = ln(x, w.ln1_gamma, w.ln1_beta)
    kv_in = ln(kv, w.ln1_gamma, w.ln1_beta)
    ctx = np.zeros_like(x)
    for h in range(w.heads):
        sl = slice(h * d, (h + 1) * d)
        q = q_in @ w.wq.astype(np.float64)
        k = kv_in @ w.wk.astype(np.float64)
        v = kv_in @ w.wv.astype(np.float64)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(d)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        ctx[:, sl] = probs @ v[:, sl]
    y = x + ctx @ w.wo.astype(np.float64)
    h_in = ln(y, w.ln2_gamma, w.ln2_beta)
    return y + gelu(h_in @ w.w1.astype(np.float64) + w.b1) @ w.w2.astype(np.float64) + w.b2


class TestHandComputedCases:
    def test_two_token_scalar_head(self):
        # tokens [1,0] and [0,1]; identity projections, MLP disabled.
        # LN maps them to +-v with v = 1/sqrt(1 + 4*eps); the 2x2 score matrix
        # is sqrt(2)*v^2 * [[1,-1],[-1,1]], so attention mixes the tokens with
        # weight difference tanh(sqrt(2)*v^2).
        lay = FrameLayout(h=1, w=2, n_camera=0, n_register=0, channels=2)
        t = TokenTensor(lay, np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=np.float32))
        out = frame_attention(t, identity_weights(2))
        v = 1.0 / math.sqrt(1.0 + 4e-6)
        g = v * math.tanh(math.sqrt(2.0) * v * v)
        expect = np.array([[1.0 + g, -g], [-g, 1.0 + g]])
        np.testing.assert_allclose(out.values[0], expect, atol=1e-6)

    def test_three_token_dense_matches_brute_force(self):
        lay = FrameLayout(h=1, w=1, n_camera=0, n_register=0, channels=4)
        t = generate_synthetic(3, lay, 13, dtype=np.float64)
        w = init_block_weights(29, 4, 1, np.float64)
        out = dense_global_attention(t, w)
        expect = block_oracle(t.flat(), w)
        np.testing.assert_allclose(out.flat(), expect, atol=1e-10)

    def test_frame_attention_matches_brute_force_per_frame(self):
        t = generate_synthetic(2, DESK, 3, dtype=np.float64)
        w = init_block_weights(7, 32, 4, np.float64)
        out = frame_attention(t, w)
        for f in range(2):
            np.testing.assert_allclose(out.values[f], block_oracle(t.values[f], w),
                                       atol=1e-10)


class TestFrameGlobalConsistency:
    def test_single_frame_equals_dense(self):
        t = generate_synthetic(1, DESK, 11)
        w = init_block_weights(4, 32, 4)
        assert np.array_equal(frame_attention(t, w).values,
                              dense_global_attention(t, w).values)

    def test_layer_norm_runs_twice_per_frame(self, monkeypatch):
        # per frame: LN1 once, shared by queries and keys, then LN2 once; the
        # frames are batched, so count normalised rows rather than calls
        rows = []

        def counting(*args, **kwargs):
            rows.append(args[0].reshape(-1, args[0].shape[-1]).shape[0])
            return layer_norm(*args, **kwargs)

        monkeypatch.setattr(attention, "layer_norm", counting)
        t = generate_synthetic(4, DESK, 6)
        frame_attention(t, init_block_weights(5, 32, 4))
        assert sum(rows) == 2 * t.frames * t.tokens_per_frame

    def test_frame_permutation_equivariance(self):
        t = generate_synthetic(4, DESK, 6)
        w = init_block_weights(5, 32, 4)
        perm = [2, 0, 3, 1]
        out = frame_attention(t, w)
        permuted = frame_attention(TokenTensor(DESK, t.values[perm]), w)
        assert np.array_equal(permuted.values, out.values[perm])


class TestMasks:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda frames: st.tuples(
        st.just(frames),
        st.sets(st.integers(1, frames - 1)).map(lambda cuts: tuple(sorted(cuts))))))
    def test_every_block_equals_unmasked_prefix(self, frames_and_cuts):
        # block [a, e) sees exactly frames [0, e): the same output as an
        # unmasked pass over that prefix
        frames, cuts = frames_and_cuts
        t = generate_synthetic(frames, DESK, 30)
        w = init_block_weights(31, 32, 4)
        out = dense_global_attention(t, w, AttentionMask(cuts))
        for a, e in zip((0, *cuts), (*cuts, frames)):
            prefix = dense_global_attention(TokenTensor(DESK, t.values[:e]), w)
            assert np.max(np.abs(out.values[a:e] - prefix.values[a:e])) <= 1e-6

    def test_mask_none_sees_everything(self):
        t = generate_synthetic(2, DESK, 8)
        w = init_block_weights(2, 32, 4)
        a = dense_global_attention(t, w, AttentionMask())
        b = dense_global_attention(t, w)
        assert np.array_equal(a.values, b.values)

    def test_chunked_mask_boundaries(self):
        mask = AttentionMask.chunked(4, 12)
        assert mask.cuts == (4, 8)
        ends = mask.block_end(np.array([0, 3, 4, 7, 8, 11]))
        assert list(ends[:4]) == [3, 3, 7, 7]
        assert ends[4] > 10 and ends[5] > 10

    def test_bad_cuts_rejected(self):
        with pytest.raises(ValueError):
            AttentionMask((3, 3))
        with pytest.raises(ValueError):
            AttentionMask((0,))

    def test_fully_masked_row_warns_and_passes_residual(self):
        t = generate_synthetic(2, DESK, 9)
        sub = TokenTensor(DESK, t.values[1:])
        bundle = build_bundle(sub, CompressionMethod("bilinear", 4), frame_offset=1)
        with pytest.warns(MaskedRowWarning):
            out = descriptor_attention(t, bundle, init_block_weights(1, 32, 4),
                                       AttentionMask.frame_causal(2))
        assert np.all(np.isfinite(out.values))

    def test_negative_provenance_rejected_under_mask(self):
        t = generate_synthetic(2, DESK, 9)
        bundle = build_bundle(t, CompressionMethod("bilinear", 4))
        bad = replace(bundle, frames=bundle.frames - 5)
        with pytest.raises(ValueError, match="provenance"):
            descriptor_attention(t, bad, init_block_weights(1, 32, 4),
                                 AttentionMask.frame_causal(2))


class TestDescriptorOracle:
    def test_duplication_invariance_three_key_direct_evaluation(self):
        # softmax over duplicated keys halves every weight and sums each value
        # twice: identical output, verified by direct float64 evaluation
        gen = rng(31)
        q = gen.standard_normal(4)
        keys = gen.standard_normal((3, 4))
        vals = gen.standard_normal((3, 4))
        scores = keys @ q / 2.0
        e = np.exp(scores - scores.max())
        single = (e / e.sum()) @ vals
        scores2 = np.concatenate([scores, scores])
        e2 = np.exp(scores2 - scores2.max())
        double = (e2 / e2.sum()) @ np.concatenate([vals, vals])
        np.testing.assert_allclose(single, double, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        t = generate_synthetic(2, DESK, 1)
        lay16 = FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=16)
        other = generate_synthetic(2, lay16, 1)
        bundle = build_bundle(other, CompressionMethod("bilinear", 4))
        with pytest.raises(ValueError, match="channels"):
            descriptor_attention(t, bundle, init_block_weights(1, 32, 4))


class TestOneScorePath:
    @pytest.mark.parametrize("mode", ["dense", "descriptor"])
    def test_probabilities_are_the_forwards_bitwise(self, mode, monkeypatch):
        t = generate_synthetic(3, DESK, 26)
        w = init_block_weights(27, 32, 4)
        seen = []

        def recording(scores, out=None):
            e, denom = softmax_numerators(scores, out=out)
            # the forward reuses one workspace across heads, so keep a copy
            seen.append((e.copy(), denom.copy()))
            return e, denom

        # one worker keeps the record in tile order
        monkeypatch.setattr(attention, "_WORKERS", 1)
        monkeypatch.setattr(attention, "softmax_numerators", recording)
        if mode == "dense":
            dense_global_attention(t, w)
            kv = t.flat()
        else:
            bundle = build_bundle(t, CompressionMethod("bilinear", 2),
                                  select_keyframes(t, KeyframeSelector(interval=2)))
            descriptor_attention(t, bundle, w)
            kv = bundle.descriptors
        # the forward divides only after P·V; its probabilities are e / denom,
        # each head (1, Q, K)
        forward = np.concatenate([e / denom for e, denom in seen])
        assert forward.shape == (w.heads, t.total_tokens, kv.shape[0])
        assert not all(np.array_equal(forward[0], head) for head in forward[1:])
        assert np.array_equal(attention_probabilities(t.flat(), kv, w), forward)


class TestScoreWorkspace:
    def test_dense_peak_is_about_one_score_matrix(self, monkeypatch):
        # each of W workers owns one (1, <= QUERY_TILE // W, K) float64
        # workspace for all its tiles and heads; the softmax runs inside it,
        # so no (K, K) array is ever alive
        t = generate_synthetic(16, DESK, 28)
        w = init_block_weights(29, 32, 4)
        k = t.total_tokens
        assert k == 1104
        for workers in (1, 2):
            monkeypatch.setattr(attention, "_WORKERS", workers)
            tracemalloc.start()
            try:
                dense_global_attention(t, w)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < k * k * 8, workers


class TestQueryTiles:
    @pytest.mark.parametrize("batch,queries", [(1, 785), (32, 69), (5, 300), (3, 256)])
    def test_tiles_cover_every_query_once(self, batch, queries):
        for workers in (1, 2):
            run = attention.QUERY_TILE // workers
            seen = np.zeros((batch, queries), dtype=np.int64)
            for bs, runs in attention._tiles(batch, queries, workers):
                for qs in runs:
                    rows = seen[bs, qs]
                    assert rows.size <= attention.QUERY_TILE
                    assert rows.shape[1] <= run
                    if queries <= run:
                        assert rows.shape[1] == queries  # whole batch items
                    seen[bs, qs] += 1
            assert np.all(seen == 1), workers

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tiles_are_independent(self, dtype):
        # each tile's output depends only on its own queries and the keys
        tile = attention.QUERY_TILE
        q = 3 * tile + 17
        t = generate_synthetic(12, DESK, 32, dtype=dtype)
        x = t.flat()[None, :q]
        bundle = build_bundle(t, CompressionMethod("bilinear", 2),
                              select_keyframes(t, KeyframeSelector(interval=4)))
        kv = bundle.descriptors[None]
        w = init_block_weights(33, 32, 4, dtype)
        whole = attention._attention_block(x, kv, w, None)
        parts = [attention._attention_block(x[:, lo:lo + tile], kv, w, None)
                 for lo in range(0, q, tile)]
        assert len(parts) == 4
        assert np.array_equal(whole, np.concatenate(parts, axis=1))

    def test_multi_tile_dense_matches_float64_oracle(self, monkeypatch):
        t = generate_synthetic(8, DESK, 34, dtype=np.float64)
        assert t.total_tokens > 2 * attention.QUERY_TILE
        w = init_block_weights(35, 32, 4, np.float64)
        expect = block_oracle(t.flat(), w)
        for workers in (1, 2):
            monkeypatch.setattr(attention, "_WORKERS", workers)
            out = dense_global_attention(t, w)
            np.testing.assert_allclose(out.flat(), expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cuts", [(3,), (2, 5, 6)])
    def test_masked_multi_tile_equals_unmasked_prefix(self, cuts):
        # tile edges (every 256 rows, 3.7 frames) fall inside mask blocks
        t = generate_synthetic(8, DESK, 36)
        w = init_block_weights(37, 32, 4)
        out = dense_global_attention(t, w, AttentionMask(cuts))
        for a, e in zip((0, *cuts), (*cuts, t.frames)):
            prefix = dense_global_attention(TokenTensor(DESK, t.values[:e]), w)
            assert np.max(np.abs(out.values[a:e] - prefix.values[a:e])) <= 1e-6

    def test_dense_peak_grows_linearly_in_keys(self, monkeypatch):
        # the W workspaces total (1, QUERY_TILE, K), so doubling K adds a
        # fixed multiple of K: successive increments grow 2x, against 4x for
        # a (K, K) score array
        w = init_block_weights(38, 32, 4)
        for workers in (1, 2):
            monkeypatch.setattr(attention, "_WORKERS", workers)
            peaks = []
            for frames in (8, 16, 32):
                t = generate_synthetic(frames, DESK, 39)
                tracemalloc.start()
                try:
                    dense_global_attention(t, w)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert t.total_tokens == 2208
            assert (peaks[2] - peaks[1]) / (peaks[1] - peaks[0]) < 3.0, workers


class TestWorkers:
    """Two workers, whatever the CPU count: this thread and one pool thread,
    on the 128-row tiles of 552 queries."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(attention, "_WORKERS", 2)

    def test_workers_see_the_callers_errstate(self, monkeypatch):
        seen = set()

        def recording(scores, out=None):
            seen.add((threading.get_ident(), np.geterr()["over"]))
            return softmax_numerators(scores, out=out)

        monkeypatch.setattr(attention, "softmax_numerators", recording)
        t = generate_synthetic(8, DESK, 40)
        with np.errstate(over="raise"):
            dense_global_attention(t, init_block_weights(41, 32, 4))
        assert len({thread for thread, _ in seen}) == 2
        assert {over for _, over in seen} == {"raise"}

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_a_failing_tile_raises_in_the_caller(self, failing, monkeypatch):
        t = generate_synthetic(8, DESK, 42)
        w = init_block_weights(43, 32, 4)
        expect = dense_global_attention(t, w)
        caller = threading.get_ident()

        def broken(scores, out=None):
            # the caller runs tiles 0, 2, 4; the worker tiles 1 and 3
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise FloatingPointError(f"{failing} tile failed")
            return softmax_numerators(scores, out=out)

        monkeypatch.setattr(attention, "softmax_numerators", broken)
        with pytest.raises(FloatingPointError, match=f"{failing} tile failed"):
            dense_global_attention(t, w)
        monkeypatch.setattr(attention, "softmax_numerators", softmax_numerators)
        assert np.array_equal(dense_global_attention(t, w).values, expect.values)

    def test_frequent_thread_switches_write_every_row_once(self, monkeypatch):
        # the two workers share out 5 tiles, switching threads every 10 us; a
        # shared workspace or a lost row would change the output
        t = generate_synthetic(8, DESK, 46)
        w = init_block_weights(47, 32, 4)
        monkeypatch.setattr(attention, "_WORKERS", 1)
        expect = dense_global_attention(t, w).values
        monkeypatch.setattr(attention, "_WORKERS", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [dense_global_attention(t, w).values for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for out in runs:
            assert np.array_equal(out, expect)

    def test_peak_does_not_depend_on_thread_timing(self, monkeypatch):
        # the caller runs every MLP after the workers stop, so whether the
        # workers' tiles overlap moves no allocation peak
        t = generate_synthetic(16, DESK, 48)
        w = init_block_weights(49, 32, 4)
        interval = sys.getswitchinterval()
        peaks = []
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 2, 2, 2, 2):
                monkeypatch.setattr(attention, "_WORKERS", workers)
                tracemalloc.start()
                try:
                    dense_global_attention(t, w)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        finally:
            sys.setswitchinterval(interval)
        assert max(peaks) - min(peaks) < 0.01 * peaks[0], peaks

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_makes_its_own_pool(self):
        # the parent's pool threads do not exist in the child: submitting to
        # the inherited pool would wait forever, so the alarm fails the child
        t = generate_synthetic(8, DESK, 44)
        w = init_block_weights(45, 32, 4)
        expect = dense_global_attention(t, w)
        pid = os.fork()
        if pid == 0:
            code = 2
            try:
                signal.alarm(30)
                code = int(not np.array_equal(dense_global_attention(t, w).values,
                                              expect.values))
            finally:
                os._exit(code)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


class TestHistogram:
    def test_uniform_scores_land_in_one_bin(self):
        t = generate_synthetic(1, DESK, 19)
        w = init_block_weights(24, 32, 4)
        w = replace(w, wq=np.zeros_like(w.wq))  # zero queries -> uniform rows
        counts, edges = attention_score_histogram(t, w, "global")
        k = t.total_tokens
        target_bin = np.searchsorted(edges, 1.0 / k, side="right") - 1
        assert counts[target_bin] == counts.sum()
        assert counts.sum() == w.heads * k * k

    def test_counts_cover_every_entry(self):
        t = generate_synthetic(3, DESK, 20)
        w = init_block_weights(25, 32, 4)
        counts, _ = attention_score_histogram(t, w, "frame")
        n = DESK.tokens_per_frame
        assert counts.sum() == 3 * w.heads * n * n

    def test_two_key_closed_form_bins(self):
        # the two-token hand case: per-head rows are [p, 1-p] and [1-p, p]
        # with p = sigmoid(2 * sqrt(2) * v^2)
        lay = FrameLayout(h=1, w=2, n_camera=0, n_register=0, channels=2)
        t = TokenTensor(lay, np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=np.float32))
        counts, edges = attention_score_histogram(t, identity_weights(2), "frame")
        v2 = 1.0 / (1.0 + 4e-6)
        p = 1.0 / (1.0 + math.exp(-2.0 * math.sqrt(2.0) * v2))
        expect = np.histogram([p, 1 - p, 1 - p, p], bins=edges)[0]
        assert np.array_equal(counts, expect)

    def test_bad_mode_rejected(self):
        t = generate_synthetic(1, DESK, 0)
        with pytest.raises(ValueError):
            attention_score_histogram(t, init_block_weights(0, 32, 4), "both")
