"""The package namespace re-exports exactly the names its library modules list in ``__all__``."""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

import pytest

import ibgn

MODULES = sorted(path.stem for path in Path(ibgn.__file__).parent.glob("*.py") if not path.stem.startswith("__"))
ENTRY_POINTS = {"cli"}  # run as ``ibgn``; importing it with the package would load argparse for every user


def listed(name: str):
    return getattr(importlib.import_module(f"ibgn.{name}"), "__all__", ())


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"ibgn.{name}")
    assert [n for n in listed(name) if not hasattr(module, n)] == []


def test_package_reexports_exactly_the_union():
    union = {n: name for name in MODULES if name not in ENTRY_POINTS for n in listed(name)}
    exported = {n for n, value in vars(ibgn).items() if not n.startswith("_") and not inspect.ismodule(value)}
    assert sorted(exported - set(union)) == [], "re-exported but in no module's __all__"
    assert sorted(set(union) - exported) == [], "in a module's __all__ but not re-exported"
    for n, name in union.items():
        assert getattr(ibgn, n) is getattr(importlib.import_module(f"ibgn.{name}"), n), n


def test_no_name_is_listed_by_two_modules():
    owners = {}
    for name in MODULES:
        for n in listed(name):
            owners.setdefault(n, []).append(name)
    assert {n: names for n, names in owners.items() if len(names) > 1} == {}, "a later wildcard import would shadow"
