"""numpy is the package's only runtime dependency beyond the standard library,
and every module reads what it imports."""

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


# submodules a module imports only to offer them as its attributes (``ibgn.errors``)
EXPORTED_MODULES = {"__init__.py": {"errors"}}


def unused_imports(path: Path):
    """Names ``path`` imports but neither reads nor lists in ``__all__``;
    ``__future__`` and star imports are exempt, and so are ``EXPORTED_MODULES``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    read = set(EXPORTED_MODULES.get(path.name, ()))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} imports {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    unused = unused_imports(path)
    assert not unused, unused


def test_an_import_left_behind_is_caught(tmp_path):
    """A helper moved to another module can leave its import unread, as ``numbers`` would be in
    ``generate.py`` once ``_integer`` moved to ``algebra.py``."""
    path = tmp_path / "generate.py"
    path.write_text("import math\nimport numbers\nfrom .algebra import _integer\n\nx = math.pi, _integer\n")
    assert unused_imports(path) == ["generate.py:2 imports numbers"]
