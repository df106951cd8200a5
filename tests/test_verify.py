"""Every named invariant of ``descattn verify`` as one pytest id.

``verify.CHECKS`` is the single list; each entry runs here at seed 0, the
``descattn verify`` default, so the CLI and pytest check the same things.
Unit tests elsewhere do not restate a check, and do not import this module.
"""

import ast
from pathlib import Path

import pytest

from descattn import verify

NAMES = [name for name, _ in verify.CHECKS]

# test_cli.py monkeypatches CHECKS to test the exit codes of `descattn verify`
MAY_IMPORT_VERIFY = {"test_verify.py", "test_cli.py"}


def test_names_are_unique():
    assert len(set(NAMES)) == len(NAMES)


@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS], ids=NAMES)
def test_check(check):
    check(seed=0)


def test_checks_run_only_here():
    importers = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
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
