"""numpy is the package's only runtime dependency beyond the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ibgn").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy"}


def absolute_imports(path: Path):
    """Top-level module names of every absolute import in ``path``, at any
    depth (imports inside functions included)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_walk_reaches_imports_inside_functions():
    learning = next(path for path in SOURCES if path.name == "learning.py")
    assert "concurrent" in {name for _line, name in absolute_imports(learning)}  # imported in train_bundle


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_numpy(path):
    outside = [f"{path.name}:{line} imports {name}" for line, name in absolute_imports(path) if name not in ALLOWED]
    assert not outside, outside
