"""Shared harness for the peak tests: traced allocation peaks and frequent
thread switches."""

import contextlib
import sys
import tracemalloc

import pytest


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
