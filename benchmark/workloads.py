"""The benchmark's workloads: configuration, set-up, one timed pass, output checks.

Every workload shares one base configuration: an 8 x 8 grid with 1 camera and
4 register tokens, C=32, 4 heads, 2 layers, bilinear compression at r=4,
anchors on, and cluster key frames every 32 frames.  The seed drives both the
input tokens and the weights.

The program is reached only through module attributes looked up at call time
(``aggregator.forward_offline``, ``streaming.step``, ...), so the span tracer
can wrap the same names the benchmark calls.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from descattn import aggregator, compression, streaming, tokens
from descattn.aggregator import AggregatorConfig
from descattn.compression import CompressionMethod, DescriptorKind, KeyframeSelector
from descattn.streaming import StreamConfig
from descattn.tokens import FrameLayout, TokenTensor

import reference

LAYOUT = FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)
LAYERS = 2
HEADS = 4
RATIO = 4
KEYFRAME_INTERVAL = 32
# Float32 outputs sit about 1.5e-7 (relative to the largest magnitude) from
# the float64 reference; the tolerance leaves two orders of magnitude of room.
REL_TOL = 1e-5


def base_config(mode: str, seed: int) -> AggregatorConfig:
    return AggregatorConfig(
        layout=LAYOUT, layers=LAYERS, heads=HEADS, global_mode=mode,
        method=CompressionMethod("bilinear", RATIO), include_aux=True,
        selector=KeyframeSelector("cluster", KEYFRAME_INTERVAL, seed), seed=seed)


def _seeds(seed: int) -> tuple[int, int]:
    """Independent (token, weight) seeds derived from the workload seed."""
    a, b = np.random.SeedSequence(seed).generate_state(2)
    return int(a), int(b)


def _reference_weights(weights) -> list[tuple[dict, dict]]:
    def as_dict(bw):
        return {f.name: np.asarray(getattr(bw, f.name), dtype=np.float64)
                for f in fields(bw) if f.name != "heads"}
    return [(as_dict(lw.frame), as_dict(lw.global_)) for lw in weights]


def keyframes_valid(kf: np.ndarray, frames: int) -> bool:
    """ceil(S / interval) indices, strictly increasing, inside [0, S)."""
    kf = np.asarray(kf)
    return (kf.ndim == 1 and kf.size == math.ceil(frames / KEYFRAME_INTERVAL)
            and bool(np.all(np.diff(kf) > 0)) and 0 <= kf[0] and kf[-1] < frames)


@dataclass
class State:
    """What set-up hands to the timed passes."""

    tokens: TokenTensor
    cfg: AggregatorConfig | StreamConfig
    weights: list


@dataclass
class PassResult:
    """One pass: its output, its wall time, and one latency per timed call."""

    values: np.ndarray
    wall_s: float
    latencies_s: list[float]
    cache: streaming.MemoryCache | None = None


class Offline:
    """One ``forward_offline`` call per pass over the whole sequence."""

    min_passes = 1

    def __init__(self, name: str, mode: str, frames: int):
        self.name, self.mode, self.frames = name, mode, frames

    def setup(self, seed: int) -> State:
        tok_seed, w_seed = _seeds(seed)
        cfg = base_config(self.mode, w_seed)
        st = State(tokens.generate_synthetic(self.frames, LAYOUT, tok_seed), cfg,
                   aggregator.init_weights(cfg))
        self.run_pass(st)  # warm-up
        return st

    def run_pass(self, st: State, region=contextlib.nullcontext) -> PassResult:
        with region():
            t0 = time.perf_counter()
            out = aggregator.forward_offline(st.tokens, st.cfg, st.weights)
            wall = time.perf_counter() - t0
        return PassResult(out.values, wall, [wall])

    def ops(self, r: PassResult) -> int:
        return 1

    def failed_ops(self, first: PassResult, r: PassResult) -> int:
        return int(not np.array_equal(first.values, r.values))

    def program_keyframes(self, st: State) -> np.ndarray | None:
        if self.mode == "dense":
            return None
        return compression.select_keyframes(st.tokens, st.cfg.selector)

    def check(self, st: State, r: PassResult, keyframes=None) -> dict[str, bool]:
        if self.mode == "dense":
            ref = reference.forward(st.tokens.values, _reference_weights(st.weights),
                                    HEADS, "dense")
            return {"reference": reference.max_rel_error(r.values, ref) <= REL_TOL}
        kf = self.program_keyframes(st) if keyframes is None else keyframes
        if not keyframes_valid(kf, self.frames):
            return {"keyframes": False, "reference": False}
        ref = reference.forward(st.tokens.values, _reference_weights(st.weights), HEADS,
                                "descriptor", LAYOUT.n_special, (LAYOUT.h, LAYOUT.w), kf)
        return {"keyframes": True,
                "reference": reference.max_rel_error(r.values, ref) <= REL_TOL}


class Stream:
    """One pass streams the whole sequence through ``streaming.step``, chunk by chunk."""

    min_passes = 2  # at least 100 chunk latencies per run, for a p90 with ten beyond it
    WARMUP_CHUNKS = 8
    CAUSAL_CHUNKS = 8  # prefix length of the causality check

    def __init__(self, name: str, frames: int, chunk: int, retain: int):
        self.name, self.frames, self.chunk, self.retain = name, frames, chunk, retain

    def setup(self, seed: int) -> State:
        tok_seed, w_seed = _seeds(seed)
        cfg = StreamConfig(base=base_config("descriptor", w_seed),
                           chunk_size=self.chunk, retain_rate=self.retain)
        st = State(tokens.generate_synthetic(self.frames, LAYOUT, tok_seed), cfg,
                   aggregator.init_weights(cfg.base))
        self._stream(st, self.WARMUP_CHUNKS * self.chunk)  # warm-up
        return st

    def _stream(self, st: State, frames: int, region=contextlib.nullcontext) -> PassResult:
        outs, lat = [], []
        with region():
            t0 = time.perf_counter()
            cache = streaming.MemoryCache.empty(st.cfg)
            for start in range(0, frames, self.chunk):
                chunk = TokenTensor(LAYOUT, st.tokens.values[start:start + self.chunk])
                a = time.perf_counter()
                out, cache = streaming.step(chunk, cache, st.cfg, st.weights)
                lat.append(time.perf_counter() - a)
                outs.append(out.values)
            wall = time.perf_counter() - t0
        return PassResult(np.concatenate(outs), wall, lat, cache)

    def run_pass(self, st: State, region=contextlib.nullcontext) -> PassResult:
        return self._stream(st, self.frames, region)

    def ops(self, r: PassResult) -> int:
        return len(r.latencies_s)

    def failed_ops(self, first: PassResult, r: PassResult) -> int:
        if not self.cache_follows_law(r.cache, self.frames):
            return self.ops(r)
        per_chunk = self.chunk * LAYOUT.tokens_per_frame * LAYOUT.channels
        a = first.values.reshape(-1, per_chunk)
        b = r.values.reshape(-1, per_chunk)
        return int(np.count_nonzero(np.any(a != b, axis=1)))

    def cache_follows_law(self, cache, frames: int) -> bool:
        compressed, first_frame = reference.cache_law(
            frames, self.retain, (LAYOUT.h, LAYOUT.w), RATIO, LAYOUT.tokens_per_frame)
        for store in cache.layers:
            kinds = np.asarray(store.kinds)
            n_comp = int(np.count_nonzero(kinds == int(DescriptorKind.COMPRESSED)))
            n_first = int(np.count_nonzero(kinds == int(DescriptorKind.FIRST_FRAME_PATCH)))
            if (store.descriptors.shape[0], n_comp, n_first) != (
                    compressed + first_frame, compressed, first_frame):
                return False
        return cache.frames_seen == frames and len(cache.layers) == LAYERS

    def program_keyframes(self, st: State) -> np.ndarray:
        first = TokenTensor(LAYOUT, st.tokens.values[:self.chunk])
        return compression.select_keyframes(first, st.cfg.base.selector)

    def check(self, st: State, r: PassResult, keyframes=None) -> dict[str, bool]:
        prefix_frames = self.CAUSAL_CHUNKS * self.chunk
        prefix = self._stream(st, prefix_frames)
        verdict = {
            "memory_law": self.cache_follows_law(r.cache, self.frames),
            "causality": np.array_equal(r.values[:prefix_frames], prefix.values),
        }
        kf = self.program_keyframes(st) if keyframes is None else keyframes
        if not keyframes_valid(kf, self.chunk):
            return verdict | {"first_chunk": False}
        ref = reference.forward(st.tokens.values[:self.chunk],
                                _reference_weights(st.weights), HEADS, "descriptor",
                                LAYOUT.n_special, (LAYOUT.h, LAYOUT.w), kf)
        return verdict | {"first_chunk":
                          reference.max_rel_error(r.values[:self.chunk], ref) <= REL_TOL}


WORKLOADS = {wl.name: wl for wl in (
    Offline("dense-oracle", "dense", 32),
    Offline("descriptor-offline", "descriptor", 64),
    Stream("stream-long", 512, chunk=8, retain=4),
)}
