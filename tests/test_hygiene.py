"""Source hygiene: no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for directory in (ROOT / "src" / "trihodge", ROOT / "tests")
    for p in directory.glob("*.py")
    if p.name != "__init__.py"  # its imports are the package's re-exports
)


def unused_imports(source: str) -> list[str]:
    """Top-level imported names that the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    imported.pop("annotations", None)  # from __future__ import annotations
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_flags_only_unused_names():
    source = "import os.path\nfrom a import b, c as d\nprint(os.sep, d)\n"
    assert unused_imports(source) == ["b (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
