"""Benchmark of descattn's public entry points; see README.md beside this file.

    python3 benchmark/run.py --workload dense-oracle --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --self-check

Each run sets up its workload from the seed, times passes of the workload's
entry point for ``--seconds``, checks the outputs against an independent
reference, and prints one JSON object as its last line of output.  With
``--trace 0`` that object holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a separate traced run.
"""

import os

# One BLAS thread; this must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"frames_per_s": "frames/s", "latency_ms_p50": "ms",
                    "latency_ms_p90": "ms", "peak_traced_mb": "MB", "setup_s": "s"}


def _import_program():
    """Import descattn from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import descattn
    except ImportError as exc:
        sys.exit(f"cannot import descattn from {ROOT / 'src'}: {exc}")
    if not Path(descattn.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"descattn was imported from {descattn.__file__}, not {ROOT / 'src'}")


def _usage() -> tuple[int, float, float]:
    """(minor faults, user s, system s) of this process so far."""
    t = os.times()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt, t.user, t.system


class Passes:
    """Timed passes of one workload, each checked bitwise against the first."""

    def __init__(self, wl, first=None):
        self.wl, self.first = wl, first
        self.walls, self.usage = [], []
        self.latencies = []  # per pass, the latency of every call in order
        self.attempted = self.failed = 0

    def count(self, r) -> None:
        """Count the pass's operations, and those whose output differs from the first."""
        if self.first is None:
            self.first = r
        self.attempted += self.wl.ops(r)
        self.failed += self.wl.failed_ops(self.first, r)

    def run(self, st, seconds: float, region=contextlib.nullcontext) -> "Passes":
        gc.collect()
        start = time.perf_counter()
        while True:
            before = _usage()
            r = self.wl.run_pass(st, region)
            after = _usage()
            self.usage.append(tuple(b - a for a, b in zip(before, after)))
            self.walls.append(r.wall_s)
            self.latencies.append(r.latencies_s)
            self.count(r)
            if (len(self.walls) >= self.wl.min_passes
                    and time.perf_counter() - start >= seconds):
                return self


def end_to_end(wl, seed: int, seconds: float) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        st = wl.setup(seed)
        setup_s.append(time.perf_counter() - t0)
    timed = Passes(wl).run(st, seconds)

    gc.collect()
    tracemalloc.start()
    try:
        r = wl.run_pass(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    timed.count(r)

    latencies = [x for p in timed.latencies for x in p]
    metrics = {
        "frames_per_s": wl.frames / statistics.median(timed.walls),
        "latency_ms_p50": statistics.median(latencies) * 1e3,
        "latency_ms_p90": float(np.percentile(latencies, 90)) * 1e3,
        "peak_traced_mb": peak / 1e6,
        "setup_s": statistics.median(setup_s),
    }
    return _result(wl, st, timed, metrics, END_TO_END_UNITS)


def per_layer(wl, seed: int, seconds: float) -> dict:
    import spans

    st = wl.setup(seed)
    plain = Passes(wl).run(st, seconds / 2)

    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.span("setup"):
            st_traced = wl.setup(seed)
        traced = Passes(wl, plain.first).run(
            st_traced, seconds / 2, region=lambda: tracer.span("pass"))
    plain.attempted += traced.attempted
    plain.failed += traced.failed

    setup = tracer.summarize(tracer.roots("setup")[0])
    passes = [tracer.summarize(i) for i in tracer.roots("pass")]

    def med(fn) -> float:
        return statistics.median(fn(p) for p in passes)

    def self_ms(key):
        return med(lambda p: p["self_s"].get(key, 0.0) * 1e3)

    def calls(key):
        return med(lambda p: p["calls"].get(key, 0))

    def counter(key):
        return med(lambda p: p["counters"].get(key, 0))

    global_self = med(lambda p: p["self_s"].get("attention.dense_global_attention", 0.0)
                      + p["self_s"].get("attention.descriptor_attention", 0.0))
    flop = counter("global_core_flop")
    quarter = len(plain.latencies[0]) // 4
    cache = getattr(plain.first, "cache", None)

    metrics = {
        "kernels.softmax_ms": (self_ms("kernels.stable_softmax_rows"), "ms"),
        "kernels.softmax_calls": (calls("kernels.stable_softmax_rows"), "count"),
        "kernels.gelu_ms": (self_ms("kernels.gelu"), "ms"),
        "kernels.matmul_ms": (self_ms("kernels.matmul"), "ms"),
        "kernels.matmul_calls": (calls("kernels.matmul"), "count"),
        "kernels.layer_norm_ms": (self_ms("kernels.layer_norm"), "ms"),
        "attention.frame_self_ms": (self_ms("attention.frame_attention"), "ms"),
        "attention.global_self_ms": (global_self * 1e3, "ms"),
        "attention.global_keys": (counter("global_keys"), "count"),
        "attention.global_core_gflop_per_s": (flop / global_self / 1e9 if global_self else 0.0,
                                              "GFLOP/s"),
        "compression.build_bundle_ms": (self_ms("compression.build_bundle"), "ms"),
        "compression.select_keyframes_ms": (self_ms("compression.select_keyframes"), "ms"),
        "compression.concat_ms": (self_ms("compression.concat"), "ms"),
        "compression.descriptors": (counter("descriptors"), "count"),
        "streaming.step_self_ms": (self_ms("streaming.step"), "ms"),
        "streaming.chunk_ms_first_quarter": (
            statistics.median(x for p in plain.latencies for x in p[:quarter]) * 1e3
            if quarter else 0.0, "ms"),
        "streaming.chunk_ms_last_quarter": (
            statistics.median(x for p in plain.latencies for x in p[-quarter:]) * 1e3
            if quarter else 0.0, "ms"),
        "streaming.cache_tokens": (sum(s.count for s in cache.layers) if cache else 0, "count"),
        "streaming.cache_bytes": (sum(s.descriptors.nbytes for s in cache.layers)
                                  if cache else 0, "bytes"),
        "tokens.generate_ms": (setup["self_s"].get("tokens.generate_synthetic", 0.0) * 1e3,
                               "ms"),
        "process.minor_faults_per_pass": (statistics.median(u[0] for u in plain.usage),
                                          "count"),
        "process.user_s_per_pass": (statistics.median(u[1] for u in plain.usage), "s"),
        "process.sys_s_per_pass": (statistics.median(u[2] for u in plain.usage), "s"),
        "trace.overhead_pct": ((statistics.median(traced.walls)
                                / statistics.median(plain.walls) - 1) * 100, "%"),
        "trace.coverage_pct": (med(lambda p: sum(p["module_s"].values()) / p["total_s"])
                               * 100, "%"),
        "trace.pass_ms": (med(lambda p: p["total_s"]) * 1e3, "ms"),
    }
    for module in spans.MODULES:
        metrics[f"{module}.self_ms"] = (med(lambda p: p["module_s"].get(module, 0.0)) * 1e3,
                                        "ms")

    OUT_DIR.mkdir(exist_ok=True)
    dump = tracer.dump(tracer.roots("pass")[-1:])
    (OUT_DIR / f"{wl.name}-seed{seed}-spans.json").write_text(json.dumps(dump))

    values = {k: v for k, (v, _) in metrics.items()}
    units = {k: u for k, (_, u) in metrics.items()}
    return _result(wl, st, plain, values, units)


def _result(wl, st, passes: Passes, values: dict, units: dict) -> dict:
    verdict = wl.check(st, passes.first)
    failed = passes.attempted if not all(verdict.values()) else passes.failed
    for name, ok in verdict.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    return {"correct": failed == 0, "attempted": passes.attempted, "failed": failed,
            "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in values}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="show that every output check fails on a perturbed output")
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.self_check:
        import selfcheck
        return selfcheck.main(WORKLOADS, args.seed)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    result = (per_layer if args.trace else end_to_end)(wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
