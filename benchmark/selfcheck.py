"""Self-check of the output checks: each must pass on the program's real output
and fail once that output is perturbed.

Run with ``python3 benchmark/run.py --self-check [--seed N]``; exits 1 if any
check accepts a perturbed output or rejects a real one.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from workloads import REL_TOL, Offline


def _nudge(values: np.ndarray, index: int, rel: float | None = None) -> np.ndarray:
    """A copy with one element moved by ``rel`` of the largest magnitude, or by one ulp."""
    out = values.copy()
    flat = out.reshape(-1)
    if rel is None:
        flat[index] = np.nextafter(flat[index], np.inf)
    else:
        flat[index] += rel * np.max(np.abs(values))
    return out


def _drop_one(cache):
    store = cache.layers[0]
    keep = np.ones(store.count, dtype=bool)
    keep[-1] = False
    return replace(cache, layers=(store.select(keep),) + cache.layers[1:])


def _cases(wl, st, r, r2):
    """(case name, what it should give, what it gave)."""
    small = 10 * REL_TOL
    yield "real output passes every check", True, all(wl.check(st, r).values())
    yield "identical repeat has no failed op", 0, wl.failed_ops(r, r2)
    yield "1-ulp change fails the bitwise repeat check", 1, wl.failed_ops(
        r, replace(r2, values=_nudge(r2.values, 7)))
    per_frame = r.values[0].size
    if isinstance(wl, Offline):
        yield "small change fails the reference", False, wl.check(
            st, replace(r, values=_nudge(r.values, 3 * per_frame + 11, small)))["reference"]
        if wl.mode == "dense":
            return
        kf = wl.program_keyframes(st)
        for label, bad in (("too few", kf[:-1]), ("unordered", kf[::-1]),
                           ("out of range", np.append(kf[:-1], wl.frames))):
            yield f"key frames {label} fail", False, wl.check(st, r, bad)["keyframes"]
        other = np.array([f for f in range(wl.frames) if f not in set(kf)][:kf.size])
        yield "other valid key frames fail the reference", False, wl.check(
            st, r, other)["reference"]
        return
    chunk = wl.chunk * per_frame
    yield "dropped cache token fails the memory law", False, wl.check(
        st, replace(r, cache=_drop_one(r.cache)))["memory_law"]
    yield "dropped cache token fails every op of a repeat", wl.ops(r), wl.failed_ops(
        r, replace(r2, cache=_drop_one(r2.cache)))
    yield "1-ulp change in chunk 3 fails causality", False, wl.check(
        st, replace(r, values=_nudge(r.values, 3 * chunk + 5)))["causality"]
    yield "small change in chunk 0 fails the first-chunk reference", False, wl.check(
        st, replace(r, values=_nudge(r.values, 2 * per_frame + 9, small)))["first_chunk"]
    kf = wl.program_keyframes(st)
    yield "other valid first-chunk key frame fails the reference", False, wl.check(
        st, r, (kf + 1) % wl.chunk)["first_chunk"]


def main(workloads: dict, seed: int) -> int:
    bad = 0
    for wl in workloads.values():
        st = wl.setup(seed)
        r, r2 = wl.run_pass(st), wl.run_pass(st)
        for name, want, got in _cases(wl, st, r, r2):
            ok = want == got
            bad += not ok
            print(f"{wl.name:20s} {'ok ' if ok else 'BAD'} {name} (want {want}, got {got})")
    print("self-check:", "all checks behave" if not bad else f"{bad} case(s) misbehave")
    return 1 if bad else 0
