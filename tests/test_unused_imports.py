"""Every imported name in the package, the tests, the demos and the
benchmark harness is used, and every name the package defines has a reader
in the package or the benchmark harness.

An import counts as used if it appears as an identifier anywhere in its
module or is listed in that module's ``__all__``; ``from __future__`` imports
are exempt.  A module-level name of ``src/descattn`` counts as read if some
file of ``src/`` or ``benchmark/`` loads it, sets or reads it as an
attribute, imports it, spells it as a whole string (``benchmark/spans.py``
names its targets so) or lists it in ``__all__``; tests and demos are not
readers, and dunders are exempt.  The same holds for the members of every
class the package defines: its methods, properties, annotated fields and
enum values.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def all_names(tree: ast.Module) -> set[str]:
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


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
    used |= all_names(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def bound_names(body: list[ast.stmt], prefix: str = "") -> dict[str, int]:
    """Names a module or class body binds, other than by import, with the
    members of each class it defines as ``Class.member``."""
    defined = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[prefix + node.name] = node.lineno
            if isinstance(node, ast.ClassDef):
                defined |= bound_names(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[prefix + name.id] = node.lineno
    return defined


def read_names(tree: ast.Module) -> set[str]:
    """Names a module loads, reaches as attributes, imports or spells whole."""
    read = set(all_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            read.add(node.value)
    return read


def test_no_unused_imports():
    found = {}
    for folder in ("src", "tests", "demos", "benchmark"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
            if unused:
                found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def test_every_package_name_has_a_reader():
    read = set()
    for folder in ("src", "benchmark"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            read |= read_names(ast.parse(path.read_text(), filename=str(path)))
    unread = {}
    for path in sorted((ROOT / "src" / "descattn").rglob("*.py")):
        defined = bound_names(ast.parse(path.read_text(), filename=str(path)).body)
        names = [f"line {line}: {name}" for name, line in defined.items()
                 if (leaf := name.rpartition(".")[2]) not in read
                 and not (leaf.startswith("__") and leaf.endswith("__"))]
        if names:
            unread[str(path.relative_to(ROOT))] = names
    assert unread == {}
