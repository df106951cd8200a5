"""Every function the benchmark's span tracer wraps still exists where it is
looked up.

``benchmark/spans.py`` names its targets as (owner, attribute) strings and
``Tracer.installed`` fetches each with ``vars(owner)[attr]``, so a rename or a
move in ``src/`` would only surface when ``benchmark/run.py --trace 1`` runs.
The module is loaded here read-only, without writing bytecode beside it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


spans = _load_spans()


@pytest.mark.parametrize("owner,attr", [(owner, attr) for owner, attr, _ in spans.WRAPPED],
                         ids=[f"{owner}.{attr}" for owner, attr, _ in spans.WRAPPED])
def test_wrapped_name_resolves(owner, attr):
    assert attr in vars(spans._resolve(owner)), f"{owner}.{attr} is gone"
