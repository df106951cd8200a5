"""Shared harness: traced allocation peaks and frequent thread switches for
the peak tests, a read-only loader for the benchmark's modules, and block
weights in the form its float64 reference takes them."""

import contextlib
import importlib.util
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load_benchmark_module(name: str):
    """``benchmark/<name>.py`` as a new module, loaded without writing bytecode
    beside it, so the tests leave the benchmark's directory as they found it."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def block_weight_dict(bw) -> dict:
    """A ``BlockWeights`` as ``benchmark/reference.py`` takes it: each array
    field by name, in float64; the head count is passed on its own."""
    return {f.name: np.asarray(getattr(bw, f.name), dtype=np.float64)
            for f in fields(bw) if f.name != "heads"}


def _traced_peak(call) -> int:
    """Bytes at the allocation peak of ``call()``, above what was live before."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def _frequent_switches():
    """Switch threads every 10 us, so workers interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def traced_peak():
    """``traced_peak(call)``: the allocation peak of ``call()``, in bytes."""
    return _traced_peak


@pytest.fixture
def frequent_switches():
    """``with frequent_switches():`` runs its body with 10 us thread switches."""
    return _frequent_switches
