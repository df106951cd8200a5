"""Span tracer for the traced run.

It wraps descattn's public functions at the names their callers look them up
(``descattn.aggregator.frame_attention``, ``descattn.attention.
stable_softmax_rows``, ``DescriptorBundle.concat``, ...), records one span per
call with its parent in memory, and restores the originals on exit.  A span's
self time is its duration minus the durations of its direct children, so the
self times under a root span add up to that root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (owner, attribute, module the self time is charged to).  A function looked
# up under several names is wrapped under each; its spans share one name.
WRAPPED = (
    ("descattn.aggregator", "forward_offline", "aggregator"),
    ("descattn.aggregator", "frame_attention", "attention"),
    ("descattn.aggregator", "dense_global_attention", "attention"),
    ("descattn.aggregator", "descriptor_attention", "attention"),
    ("descattn.aggregator", "build_bundle", "compression"),
    ("descattn.aggregator", "select_keyframes", "compression"),
    ("descattn.streaming", "step", "streaming"),
    ("descattn.streaming.MemoryCache", "empty", "streaming"),
    ("descattn.streaming", "frame_attention", "attention"),
    ("descattn.streaming", "descriptor_attention", "attention"),
    ("descattn.streaming", "build_bundle", "compression"),
    ("descattn.streaming", "select_keyframes", "compression"),
    ("descattn.compression", "compress_frame", "compression"),
    ("descattn.compression", "lloyd", "compression"),
    ("descattn.compression.DescriptorBundle", "concat", "compression"),
    ("descattn.compression.DescriptorBundle", "select", "compression"),
    ("descattn.compression", "resample_bilinear", "kernels"),
    ("descattn.compression", "split_grid", "tokens"),
    ("descattn.attention", "layer_norm", "kernels"),
    ("descattn.attention", "matmul", "kernels"),
    ("descattn.attention", "mlp", "kernels"),
    ("descattn.attention", "stable_softmax_rows", "kernels"),
    ("descattn.kernels", "matmul", "kernels"),
    ("descattn.kernels", "gelu", "kernels"),
    ("descattn.tokens", "generate_synthetic", "tokens"),
    ("descattn.tokens.TokenTensor", "with_values", "tokens"),
)
MODULES = ("aggregator", "attention", "compression", "kernels", "streaming", "tokens")


def _global_core(keys_of):
    """Counters of one global block; 4 * Q * K * C FLOPs is its score plus
    value matmuls, as ``analysis.flops_attention`` counts them."""
    def count(args, result) -> dict:
        t, keys = args[0], keys_of(args)
        return {"global_keys": keys, "global_core_flop": 4 * t.total_tokens * keys * t.channels}
    return count


COUNTERS = {
    "dense_global_attention": _global_core(lambda args: args[0].total_tokens),
    "descriptor_attention": _global_core(lambda args: args[1].count),
    "build_bundle": lambda args, result: {"descriptors": result.count},
}


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """Spans as [name, module, parent index, start, end, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, module: str = "benchmark"):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, module, parent, time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    def _wrap(self, fn, name: str, module: str):
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, module, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if count is not None:
                rec[5] = count(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry of WRAPPED for the duration of the block."""
        saved = []
        try:
            for owner_path, attr, module in WRAPPED:
                owner = _resolve(owner_path)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, attr, module))
                else:
                    wrapped = self._wrap(raw, attr, module)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[2] == -1 and s[0] == name]

    def _tree(self, root: int) -> range:
        """Indices of ``root`` and its descendants, which follow it contiguously."""
        end = next((i for i in range(root + 1, len(self.spans)) if self.spans[i][2] == -1),
                   len(self.spans))
        return range(root, end)

    def summarize(self, root: int) -> dict:
        """Self time and call count per "module.function", self time per module,
        and summed counters, over the tree under span ``root``."""
        spans = self.spans
        below = self._tree(root)[1:]
        child = defaultdict(float)
        for i in below:
            child[spans[i][2]] += spans[i][4] - spans[i][3]
        self_s, calls, module_s, counters = (defaultdict(float), defaultdict(int),
                                             defaultdict(float), defaultdict(int))
        for i in below:
            name, module, _, t0, t1, cnt = spans[i]
            own = (t1 - t0) - child[i]
            self_s[f"{module}.{name}"] += own
            calls[f"{module}.{name}"] += 1
            module_s[module] += own
            for k, v in (cnt or {}).items():
                counters[k] += v
        return {"total_s": spans[root][4] - spans[root][3], "self_s": self_s,
                "calls": calls, "module_s": module_s, "counters": counters}

    def dump(self, roots: list[int]) -> list[dict]:
        """The spans of the given root trees, times in ms from the first root."""
        if not roots:
            return []
        t_base = self.spans[roots[0]][3]
        out = []
        for root in roots:
            for i in self._tree(root):
                name, module, parent, t0, t1, cnt = self.spans[i]
                out.append({"id": i, "parent": parent, "name": name, "module": module,
                            "start_ms": round((t0 - t_base) * 1e3, 4),
                            "dur_ms": round((t1 - t0) * 1e3, 4), **(cnt or {})})
        return out
