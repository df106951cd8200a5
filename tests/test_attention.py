"""Attention kernels: hand-computed cases, brute-force oracles, the
diagnostics that run the forward's block, the score workspace, query tiles,
workers, array liveness and the score histogram."""

import functools
import math
import os
import signal
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from conftest import block_weight_dict, load_benchmark_module
from hypothesis import given, settings
from hypothesis import strategies as st

from descattn import attention
from descattn.attention import (BlockWeights, attention_probabilities,
                                attention_score_histogram, dense_global_attention,
                                descriptor_attention, frame_attention, init_block_weights)
from descattn.compression import (CompressionMethod, DescriptorBundle, KeyframeSelector,
                                  build_bundle, select_keyframes)
from descattn.kernels import layer_norm, mlp, rng, softmax_numerators
from descattn.tokens import FrameLayout, TokenTensor, generate_synthetic

DESK = FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)
reference = load_benchmark_module("reference")


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


def block_oracle(x, w):
    """One pre-norm block over (Q, C) tokens, self-attending, in float64:
    ``benchmark/reference.py``'s block, which shares no code with descattn."""
    x = x.astype(np.float64)[None]
    return reference.block(x, x, block_weight_dict(w), w.heads)[0]


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

    def test_diagnostics_reject_a_channel_mismatch(self):
        # the check lives in the block, so the diagnostics run it too
        t = generate_synthetic(2, DESK, 1)
        w16 = init_block_weights(1, 16, 4)
        with pytest.raises(ValueError, match="channels"):
            attention_probabilities(t.flat(), t.flat(), w16)
        for mode in ("frame", "global"):
            with pytest.raises(ValueError, match="channels"):
                attention_score_histogram(t, w16, mode)

    def test_empty_bundle_rejected(self):
        t = generate_synthetic(2, DESK, 1)
        with pytest.raises(ValueError, match="138 queries and 0 keys"):
            descriptor_attention(t, DescriptorBundle.empty(32), init_block_weights(1, 32, 4))

    @pytest.mark.parametrize("queries, keys", [(0, 10), (0, 300), (10, 0), (300, 0)])
    def test_no_queries_or_no_keys_rejected(self, queries, keys):
        flat = generate_synthetic(5, DESK, 1).flat()
        w = init_block_weights(1, 32, 4)
        message = f"{queries} queries and {keys} keys"
        with pytest.raises(ValueError, match=message):
            attention_probabilities(flat[:queries], flat[:keys], w)
        with pytest.raises(ValueError, match=message):
            attention._attention_block(flat[None, :queries], flat[None, :keys], w)


class TestOneScorePath:
    @pytest.mark.parametrize("mode", ["dense", "descriptor"])
    def test_probabilities_are_the_forwards_bitwise(self, mode, monkeypatch):
        # 276 queries make three tiles, so at W = 2 both threads run tiles
        t = generate_synthetic(4, DESK, 26)
        w = init_block_weights(27, 32, 4)
        assert t.total_tokens > 2 * (attention.QUERY_TILE // attention._MAX_WORKERS)
        if mode == "dense":
            kv = t.flat()
            forward = functools.partial(dense_global_attention, t, w)
        else:
            bundle = build_bundle(t, CompressionMethod("bilinear", 2),
                                  select_keyframes(t, KeyframeSelector(interval=2)))
            kv = bundle.descriptors
            forward = functools.partial(descriptor_attention, t, bundle, w)
        probs = attention_probabilities(t.flat(), kv, w)
        for workers in (1, 2):
            seen = {}

            def recording(scores, out=None):
                e, denom = softmax_numerators(scores, out=out)
                # the forward reuses one workspace across heads, so keep a copy
                seen.setdefault(threading.get_ident(), []).append(
                    (e.copy(), denom.copy()))
                return e, denom

            monkeypatch.setattr(attention, "_WORKERS", workers)
            monkeypatch.setattr(attention, "softmax_numerators", recording)
            forward()
            # worker 0 is this thread; tile i went to worker i mod W, and each
            # worker ran its tiles in order, head by head
            shares = [seen.pop(threading.get_ident()), *seen.values()]
            assert len(shares) == workers
            tiles = sum(map(len, shares)) // w.heads
            per_tile = [shares[i % workers][i // workers * w.heads:][:w.heads]
                        for i in range(tiles)]
            # the forward divides only after P·V; its probabilities are
            # e / denom, each (tile, head) (1, q, K)
            forward_probs = np.stack([
                np.concatenate([e[0] / denom[0] for e, denom in
                                (tile[h] for tile in per_tile)])
                for h in range(w.heads)])
            assert forward_probs.shape == (w.heads, t.total_tokens, kv.shape[0])
            assert not all(np.array_equal(forward_probs[0], head)
                           for head in forward_probs[1:])
            assert np.array_equal(probs, forward_probs), workers

    @pytest.mark.parametrize("mode", ["frame", "descriptor"])
    def test_one_tile_probabilities_take_all_heads_at_once(self, mode, monkeypatch):
        # one frame's 69 queries are one tile, and its keys fit one run too,
        # so the forward and the diagnostics score all heads in one array
        t = generate_synthetic(1, DESK, 54)
        w = init_block_weights(55, 32, 4)
        if mode == "frame":
            kv = t.values[0]
            forward = functools.partial(frame_attention, t, w)
        else:
            bundle = build_bundle(t, CompressionMethod("bilinear", 2))
            kv = bundle.descriptors
            forward = functools.partial(descriptor_attention, t, bundle, w)
        assert attention._whole_groups(t.total_tokens, kv.shape[0])
        probs = attention_probabilities(t.flat(), kv, w)
        seen = []

        def recording(scores, out=None):
            e, denom = softmax_numerators(scores, out=out)
            seen.append(e / denom)
            return e, denom

        monkeypatch.setattr(attention, "softmax_numerators", recording)
        forward()
        (forward_probs,) = seen
        assert forward_probs.shape == (1, w.heads, t.total_tokens, kv.shape[0])
        assert not all(np.array_equal(forward_probs[0, 0], head)
                       for head in forward_probs[0, 1:])
        assert np.array_equal(probs, forward_probs[0])


class TestScoreWorkspace:
    def test_dense_peak_is_about_one_score_matrix(self, monkeypatch, traced_peak):
        # each of W workers owns one (1, <= QUERY_TILE // _MAX_WORKERS, K)
        # float64 workspace for all its tiles and heads; the softmax runs
        # inside it, so no (K, K) array is ever alive
        t = generate_synthetic(16, DESK, 28)
        w = init_block_weights(29, 32, 4)
        k = t.total_tokens
        assert k == 1104
        for workers in (1, 2):
            monkeypatch.setattr(attention, "_WORKERS", workers)
            peak = traced_peak(functools.partial(dense_global_attention, t, w))
            assert peak < k * k * 8, workers


def _assert_tiles_cover_every_query_once(batch, queries):
    run = attention.QUERY_TILE // attention._MAX_WORKERS
    seen = np.zeros((batch, queries), dtype=np.int64)
    for bs, runs in attention._tiles(batch, queries):
        for qs in runs:
            rows = seen[bs, qs]
            assert rows.size <= attention.QUERY_TILE
            assert rows.shape[1] <= run
            if queries <= run:
                assert rows.shape[1] == queries  # whole batch items
            seen[bs, qs] += 1
    assert np.all(seen == 1)


class TestQueryTiles:
    @pytest.mark.parametrize("batch,queries", [(1, 785), (32, 69), (5, 300), (3, 256)])
    def test_tiles_cover_every_query_once(self, batch, queries):
        _assert_tiles_cover_every_query_once(batch, queries)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 1000))
    def test_tiles_cover_every_query_once_for_any_shape(self, batch, queries):
        _assert_tiles_cover_every_query_once(batch, queries)

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
        whole = attention._attention_block(x, kv, w)
        parts = [attention._attention_block(x[:, lo:lo + tile], kv, w)
                 for lo in range(0, q, tile)]
        assert len(parts) == 4
        assert np.array_equal(whole, np.concatenate(parts, axis=1))

    def test_tail_runs_on_the_attention_tiles(self, monkeypatch):
        # W_o, LN2 and the MLP take the attention's own tiles: 128-row runs of a
        # global block, one whole-frame group of frame attention at a time
        rows = []

        def recording(x, *weights):
            rows.append(x.shape[0])
            return mlp(x, *weights)

        monkeypatch.setattr(attention, "mlp", recording)
        t = generate_synthetic(8, DESK, 52)
        w = init_block_weights(53, 32, 4)
        run = attention.QUERY_TILE // attention._MAX_WORKERS
        descriptor_attention(t, build_bundle(t, CompressionMethod("bilinear", 4)), w)
        assert rows == [run] * 4 + [t.total_tokens - 4 * run]
        rows.clear()
        frame_attention(t, w)
        # 3, 3 and 2 frames of 69 tokens, whose tails may run on two threads
        assert sorted(rows) == [138, 207, 207]

    def test_multi_tile_dense_matches_float64_oracle(self, monkeypatch):
        t = generate_synthetic(8, DESK, 34, dtype=np.float64)
        assert t.total_tokens > 2 * attention.QUERY_TILE
        w = init_block_weights(35, 32, 4, np.float64)
        expect = block_oracle(t.flat(), w)
        for workers in (1, 2):
            monkeypatch.setattr(attention, "_WORKERS", workers)
            out = dense_global_attention(t, w)
            np.testing.assert_allclose(out.flat(), expect, rtol=0, atol=1e-12)

    def test_dense_peak_grows_linearly_in_keys(self, monkeypatch, traced_peak):
        # the W workspaces total (1, <= QUERY_TILE, K), so doubling K adds a
        # fixed multiple of K: successive increments grow 2x, against 4x for
        # a (K, K) score array
        w = init_block_weights(38, 32, 4)
        for workers in (1, 2):
            monkeypatch.setattr(attention, "_WORKERS", workers)
            peaks = []
            for frames in (8, 16, 32):
                t = generate_synthetic(frames, DESK, 39)
                peaks.append(traced_peak(functools.partial(dense_global_attention, t, w)))
            assert t.total_tokens == 2208
            assert (peaks[2] - peaks[1]) / (peaks[1] - peaks[0]) < 3.0, workers


class TestWorkers:
    """Two workers, whatever the CPU count: this thread and one pool thread,
    on the 128-row tiles of 552 queries or on whole frame groups."""

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

    def test_frequent_thread_switches_write_every_row_once(self, monkeypatch,
                                                          frequent_switches):
        # the two workers share out 5 tiles, switching threads every 10 us; a
        # shared workspace or a lost row would change the output
        t = generate_synthetic(8, DESK, 46)
        w = init_block_weights(47, 32, 4)
        monkeypatch.setattr(attention, "_WORKERS", 1)
        expect = dense_global_attention(t, w).values
        monkeypatch.setattr(attention, "_WORKERS", 2)
        with frequent_switches():
            runs = [dense_global_attention(t, w).values for _ in range(3)]
        for out in runs:
            assert np.array_equal(out, expect)

    def test_peak_does_not_depend_on_thread_timing(self, monkeypatch, traced_peak,
                                                   frequent_switches):
        # the caller runs every MLP after the workers stop, so whether the
        # workers' tiles overlap moves no allocation peak; one worker holds
        # one workspace of the two, so its peak is no higher
        t = generate_synthetic(16, DESK, 48)
        w = init_block_weights(49, 32, 4)

        def peak(workers):
            monkeypatch.setattr(attention, "_WORKERS", workers)
            return traced_peak(functools.partial(dense_global_attention, t, w))

        reference = peak(2)
        assert peak(1) <= reference
        with frequent_switches():
            peaks = [reference] + [peak(2) for _ in range(5)]
        assert max(peaks) - min(peaks) < 0.01 * reference, peaks

    def test_cross_attention_peak_does_not_depend_on_thread_timing(self, monkeypatch,
                                                                   traced_peak,
                                                                   frequent_switches):
        # cross-attention workers run LN1 and the Q projection on every tile,
        # and none of their temporaries may outgrow the caller's W_o/LN2/MLP
        monkeypatch.setattr(attention, "_WORKERS", 2)
        t = generate_synthetic(8, DESK, 50)
        w = init_block_weights(51, 32, 4)
        bundle = build_bundle(t, CompressionMethod("bilinear", 2),
                              select_keyframes(t, KeyframeSelector(interval=2)))
        cross = functools.partial(descriptor_attention, t, bundle, w)
        cross()  # makes the pool before any peak
        with frequent_switches():
            peaks = [traced_peak(cross) for _ in range(6)]
        assert max(peaks) - min(peaks) < 0.01 * min(peaks), peaks

    def test_frame_groups_run_whole_on_both_threads(self, monkeypatch):
        # 8 frames make groups of 3, 3 and 2 frames, each one tile with its
        # keys in one run: group i runs whole on worker i mod 2, all heads in
        # one softmax call, and this thread is worker 0
        t = generate_synthetic(8, DESK, 56)
        w = init_block_weights(57, 32, 4)
        frame_probs = [attention_probabilities(x, x, w) for x in t.values]
        seen = {}

        def recording(scores, out=None):
            e, denom = softmax_numerators(scores, out=out)
            seen.setdefault(threading.get_ident(), []).append(e / denom)
            return e, denom

        monkeypatch.setattr(attention, "softmax_numerators", recording)
        frame_attention(t, w)
        caller = seen.pop(threading.get_ident())
        (worker,) = seen.values()

        def frames(calls):
            # which frames each call scored, found by their probabilities
            return [[i for probs in call for i, p in enumerate(frame_probs)
                     if np.array_equal(p, probs)] for call in calls]

        assert frames(caller) == [[0, 1, 2], [6, 7]]
        assert frames(worker) == [[3, 4, 5]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_frame_groups_match_one_worker_under_frequent_switches(self, dtype,
                                                                   monkeypatch,
                                                                   frequent_switches):
        t = generate_synthetic(8, DESK, 58, dtype=dtype)
        w = init_block_weights(59, 32, 4, dtype)
        monkeypatch.setattr(attention, "_WORKERS", 1)
        expect = frame_attention(t, w).values
        monkeypatch.setattr(attention, "_WORKERS", 2)
        with frequent_switches():
            runs = [frame_attention(t, w).values for _ in range(3)]
        for out in runs:
            assert np.array_equal(out, expect)

    def test_frame_attention_peak_is_at_most_two_workers_alone(self, monkeypatch,
                                                               traced_peak,
                                                               frequent_switches):
        """A whole group's worker holds one group at a time: its scores and
        projections, then its tail's temporaries.  At W = 1 the peak is the
        output plus the most one worker adds, weights included; at W = 2 the
        two workers' footprints may overlap, so whatever the thread timing a
        peak is at most out + 2 * (W = 1 peak - out).  On the benchmark's
        descriptor recipe at S = 64 that stays under the global block's, so
        the forward's peak is the global block's; at S <= 32 it does not."""
        t = generate_synthetic(64, DESK, 60)
        w = init_block_weights(61, 32, 4)
        bundle = build_bundle(t, CompressionMethod("bilinear", 4), select_keyframes(
            t, KeyframeSelector("cluster", 32, 61)))

        frame = functools.partial(frame_attention, t, w)
        global_peak = traced_peak(functools.partial(descriptor_attention, t, bundle, w))
        monkeypatch.setattr(attention, "_WORKERS", 1)
        alone = traced_peak(frame)
        monkeypatch.setattr(attention, "_WORKERS", 2)
        frame()  # makes the pool before any peak
        with frequent_switches():
            peaks = [traced_peak(frame) for _ in range(6)]
        out = t.values.nbytes
        assert max(peaks) <= out + 2 * (alone - out), (peaks, alone)
        assert max(peaks) < global_peak, (peaks, global_peak)

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


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory: ``a`` is freed once this is."""
    return a if a.base is None else a.base


class TestLiveness:
    """Each array of a block is freed at its last use.  One worker, so only
    this thread's arrays are alive."""

    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        monkeypatch.setattr(attention, "_WORKERS", 1)

    def test_cross_attention_drops_the_keys_ln1_rows_before_the_tails(self, monkeypatch):
        # the block's peak is in a tail's MLP; the descriptors' LN1 rows,
        # read only by the K and V projections, are gone by then
        t = generate_synthetic(8, DESK, 64)
        w = init_block_weights(65, 32, 4)
        bundle = build_bundle(t, CompressionMethod("bilinear", 4))
        key_rows, alive_at_tails = [], []

        def recording_ln(x, gamma, beta):
            out = layer_norm(x, gamma, beta)
            if np.shares_memory(x, bundle.descriptors):
                key_rows.append(weakref.ref(out))
            return out

        def recording_mlp(x, *weights):
            alive_at_tails.append(sum(ref() is not None for ref in key_rows))
            return mlp(x, *weights)

        monkeypatch.setattr(attention, "layer_norm", recording_ln)
        monkeypatch.setattr(attention, "mlp", recording_mlp)
        descriptor_attention(t, bundle, w)
        assert len(key_rows) == 1
        assert alive_at_tails == [0] * 5  # 552 queries in 128-row tiles

    @pytest.mark.parametrize("mode", ["frame", "descriptor"])
    def test_no_ln1_rows_reach_the_softmax(self, mode, monkeypatch):
        # a tile's LN1 rows die with its Q projection, and cross-attention's
        # key rows with K and V; only a tiled self-attention group keeps its
        # rows, to draw each tile's queries from
        t = generate_synthetic(8, DESK, 70)
        w = init_block_weights(71, 32, 4)
        rows, alive = [], []

        def recording_ln(x, gamma, beta):
            out = layer_norm(x, gamma, beta)
            rows.append(weakref.ref(out))
            return out

        def recording_softmax(scores, out=None):
            alive.append(sum(ref() is not None for ref in rows))
            return softmax_numerators(scores, out=out)

        monkeypatch.setattr(attention, "layer_norm", recording_ln)
        monkeypatch.setattr(attention, "softmax_numerators", recording_softmax)
        if mode == "frame":
            frame_attention(t, w)  # whole groups of 3, 3 and 2 frames
        else:
            descriptor_attention(t, build_bundle(t, CompressionMethod("bilinear", 4)), w)
        assert alive == [0] * (3 if mode == "frame" else 5 * w.heads)

    def test_dense_workspace_comes_after_the_keys(self, monkeypatch, traced_peak):
        # no (1, 128, K) score workspace sits under the K/V projections
        t = generate_synthetic(16, DESK, 66)
        w = init_block_weights(67, 32, 4)
        wv = w.wv.astype(np.float64)
        project = attention._project
        at_v = []

        def recording(rows, w64, shape):
            if np.array_equal(w64, wv):
                at_v.append(tracemalloc.get_traced_memory()[0])
            return project(rows, w64, shape)

        monkeypatch.setattr(attention, "_project", recording)
        traced_peak(functools.partial(dense_global_attention, t, w))
        workspace = attention.QUERY_TILE // attention._MAX_WORKERS * t.total_tokens * 8
        assert len(at_v) == 1
        assert at_v[0] < workspace, (at_v, workspace)

    def test_frame_attention_holds_one_groups_keys_at_a_time(self, monkeypatch):
        # a 37 x 37 frame is longer than a run, so each frame is a tiled group
        # of its own; its K and V are dropped before the next frame's exist
        t = generate_synthetic(2, FrameLayout(h=37, w=37), 68)
        w = init_block_weights(69, 32, 4)
        wq = w.wq.astype(np.float64)
        project = attention._project
        keys, alive = [], []

        def recording(rows, w64, shape):
            if np.array_equal(w64, wq):
                return project(rows, w64, shape)
            alive.append(sum(ref() is not None for ref in keys))
            out = project(rows, w64, shape)
            keys.append(weakref.ref(_owner(out)))
            return out

        monkeypatch.setattr(attention, "_project", recording)
        frame_attention(t, w)
        assert alive == [0, 1, 0, 1]  # K then V of each frame


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

    def test_counts_are_histograms_of_the_probabilities(self):
        # 8 desk frames: the frame mode runs whole groups of 3, 3 and 2
        # frames, the global mode five 128-row tiles; each counts exactly the
        # probabilities, frame by frame and over the whole block
        t = generate_synthetic(8, DESK, 72)
        w = init_block_weights(73, 32, 4)
        flat = t.flat()
        frame, edges = attention_score_histogram(t, w, "frame")
        per_frame = [np.histogram(attention_probabilities(x, x, w), bins=edges)[0]
                     for x in t.values]
        assert np.array_equal(frame, np.sum(per_frame, axis=0))
        glob, _ = attention_score_histogram(t, w, "global")
        whole = np.histogram(attention_probabilities(flat, flat, w), bins=edges)[0]
        assert np.array_equal(glob, whole)
        assert frame.sum() == glob.sum() // t.frames == w.heads * t.total_tokens * 69

    def test_diagnostics_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                           frequent_switches):
        # both workers write probability rows and append counts; switching
        # threads every 10 us, a lost or misplaced write would change them
        t = generate_synthetic(8, DESK, 74)
        w = init_block_weights(75, 32, 4)
        flat, keys = t.flat(), build_bundle(t, CompressionMethod("bilinear", 4)).descriptors
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(attention, "_WORKERS", workers)
            with frequent_switches():
                runs.append([attention_probabilities(flat, flat, w),
                             attention_probabilities(flat, keys, w),
                             attention_score_histogram(t, w, "frame")[0],
                             attention_score_histogram(t, w, "global")[0]])
        for one, two in zip(*runs):
            assert one.dtype == two.dtype and np.array_equal(one, two)
