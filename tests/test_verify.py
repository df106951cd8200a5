"""Every named invariant of ``descattn verify`` as one pytest id.

``verify.CHECKS`` is the single list; each entry runs here at seed 0, the
``descattn verify`` default, so the CLI and pytest check the same things.
A check that draws its inputs draws them from its seed, so one more test
runs the whole list at seeds Hypothesis draws, and seed 1; ``descattn
verify --seed N`` reproduces a failing seed.  Unit tests elsewhere do not
restate a check and do not import this module.  Every check or test that
an acceptance gate cites as a home must exist.
"""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descattn import verify

NAMES = [name for name, _ in verify.CHECKS]

# test_cli.py monkeypatches CHECKS to test the exit codes of `descattn verify`
MAY_IMPORT_VERIFY = {"test_verify.py", "test_cli.py"}
TESTS = Path(__file__).parent
# a name in single backticks; ``double-backticked`` text is not a citation
CITATION = re.compile(r"(?<!`)`([^`]+)`(?!`)")


def test_names_are_unique():
    assert len(set(NAMES)) == len(NAMES)


@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS], ids=NAMES)
def test_check(check):
    check(seed=0)


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(1)
def test_every_check_passes_at_drawn_seeds(seed):
    assert verify.run_all(seed)


def test_checks_run_only_here():
    importers = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                continue
            if "descattn.verify" in names and path.name not in MAY_IMPORT_VERIFY:
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def _resolves(name: str) -> bool:
    """A check name, or ``file.py::test`` (``file.py::Class::test``) here."""
    path, _, test = name.partition("::")
    if not test:
        return name in NAMES
    if not (TESTS / path).is_file():
        return False
    tree = ast.parse((TESTS / path).read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return set(test.split("::")) <= defined


def test_gate_citations_resolve():
    """Each name a gate docstring cites as a home is a check in ``CHECKS``
    or a ``file.py::test`` that exists, so the map survives no rename."""
    tree = ast.parse((TESTS / "test_acceptance.py").read_text())
    cited = [name for node in ast.walk(tree)
             if isinstance(node, (ast.Module, ast.FunctionDef))
             for name in CITATION.findall(ast.get_docstring(node) or "")]
    assert cited
    assert [name for name in cited if not _resolves(name)] == []
