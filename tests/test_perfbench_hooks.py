"""The benchmark's tracer rebinds library attributes by name; every one must exist.

``perfbench/tracing.py`` wraps functions at their call sites (for example
``generate.compute_constraint`` and ``generate.relation_of``).  A refactor that
drops or renames one of those names makes ``Tracer.install`` fail with
``AttributeError``; this test catches that in the unit suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_uninstall_restores_every_binding():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        rebound = list(tracer._saved)
        wrapped = [getattr(module, attr) is not original for module, attr, original in rebound]
    finally:
        tracer.uninstall()
    assert rebound and all(wrapped)
    for module, attr, original in rebound:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
