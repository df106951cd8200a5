"""Every function the benchmark's span tracer wraps still exists where it is
looked up.

``benchmark/spans.py`` names its targets as (owner, attribute) strings and
``Tracer.installed`` fetches each with ``vars(owner)[attr]``, so a rename or a
move in ``src/`` would only surface when ``benchmark/run.py --trace 1`` runs.
The module is loaded read-only, without writing bytecode beside it.
"""

import pytest
from conftest import load_benchmark_module

spans = load_benchmark_module("spans")


@pytest.mark.parametrize("owner,attr", [(owner, attr) for owner, attr, _ in spans.WRAPPED],
                         ids=[f"{owner}.{attr}" for owner, attr, _ in spans.WRAPPED])
def test_wrapped_name_resolves(owner, attr):
    assert attr in vars(spans._resolve(owner)), f"{owner}.{attr} is gone"
