"""Every imported name in the package, the tests, the demos and the
benchmark harness is used.

A name counts as used if it appears as an identifier anywhere in its module
or is listed in that module's ``__all__``; ``from __future__`` imports are
exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    found = {}
    for folder in ("src", "tests", "demos", "benchmark"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
            if unused:
                found[str(path.relative_to(ROOT))] = unused
    assert found == {}
