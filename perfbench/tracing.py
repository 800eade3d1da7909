"""Spans and exact counts around the library's layer boundaries.

Nothing under ``src/`` is edited: ``Tracer.install`` rebinds module
attributes at the call sites (a function imported with ``from .x import f``
is looked up in the importing module's globals, so that is the binding to
replace) and ``Tracer.uninstall`` puts the originals back.  Layer-boundary
functions get a span per call; hot leaf functions (``compose_sets``,
``compute_constraint``, ``relation_of``) are only counted, because a span per
call would cost more than the call.  Nothing is recorded while ``run_id`` is
None, so checks made between passes do not pollute the counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ibgn import classify, dataset, generate, learning, model_io, network

# (span id, name, start, end, parent span id, run id)
Span = Tuple[int, str, float, float, Optional[int], object]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[object, Counter] = defaultdict(Counter)
        self.run_id: object = None
        self._stack: List[int] = []
        self._next_id = 0
        self._saved: List[Tuple[object, str, Callable]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        if self.run_id is not None:
            self.counts[self.run_id][name] += amount

    def _open(self) -> Tuple[int, Optional[int], float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, name: str, opened: Tuple[int, Optional[int], float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = opened
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.run_id))

    def span(self, name: str) -> "_Span":
        """Context manager recording one span (only while a run is traced)."""
        return _Span(self, name)

    # -- rebinding ---------------------------------------------------------

    def _rebind(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make(original)))

    def _spanned(self, name: str, hook: Optional[Callable] = None):
        def make(original):
            signature = inspect.signature(original)

            def wrapper(*args, **kwargs):
                if self.run_id is None:
                    return original(*args, **kwargs)
                if hook is not None:
                    hook(signature.bind(*args, **kwargs).arguments)
                opened = self._open()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(name, opened)

            return wrapper

        return make

    def _counted(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                if self.run_id is not None:
                    self.counts[self.run_id][name] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def _scan(self, name: str, count_name: str):
        """A generator gets one span per resume and a count per yielded item."""

        def make(original):
            def wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                try:
                    while True:
                        with self.span(name):
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                        self.count(count_name)
                        yield item
                finally:
                    inner.close()

            return wrapper

        return make

    def install(self) -> None:
        spans = {
            learning: (
                "train_class_model", "learn_structure", "collect_link_counts",
                "estimate_theta", "estimate_phi",
            ),
            classify: ("predict", "score_instance"),
            generate: ("sample_network",),
            dataset: ("load_instances", "save_instances", "build_synthetic_corpus"),
            model_io: ("save_bundle", "load_bundle"),
        }
        for module, names in spans.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in names:
                self._rebind(module, attr, self._spanned(f"{layer}.{attr}"))
        self._rebind(
            learning, "update_hyperparams",
            self._spanned(
                "learning.update_hyperparams",
                lambda arguments: self.count("learning.update_hyperparams_calls"),
            ),
        )
        self._rebind(learning, "run_gibbs", self._spanned("learning.run_gibbs", self._on_run_gibbs))
        self._rebind(
            generate, "realize_timestamps",
            self._spanned("generate.realize_timestamps", self._on_realize),
        )
        # constraint scans are reached from training, scoring and sampling
        for module in (network, generate):
            self._rebind(module, "compute_constraint", self._counted("network.compute_constraint_calls"))
        self._rebind(network, "compose_sets", self._counted("algebra.compose_sets_calls"))
        self._rebind(generate, "relation_of", self._counted("generate.realize_checks"))
        for module in (learning, classify):
            self._rebind(
                module, "scan_link_constraints",
                self._scan("network.scan_link_constraints", "network.links_scanned"),
            )

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- argument hooks ----------------------------------------------------

    def _on_run_gibbs(self, arguments) -> None:
        """Node updates and the refit window buffer size, from the call's inputs.

        Every sweep reseats every non-null node once, so the updates are
        ``iterations * nodes``.  The buffer size is computed from the shape
        the sampler allocates, ``(window, ell, M, cap)`` doubles; it is not
        a measured allocation.
        """
        config = arguments["config"]
        lengths = [sum(not iv.is_null for iv in inst.intervals) for inst in arguments["instances"]]
        self.count("learning.node_updates", config.iterations * sum(lengths))
        ell = arguments.get("ell") or max(lengths)
        buffer = config.avg_window * ell * arguments["vocab_size"] * (max(lengths) + 1) * 8
        counts = self.counts[self.run_id]
        counts["learning.refit_buffer_bytes"] = max(counts["learning.refit_buffer_bytes"], buffer)

    def _on_realize(self, arguments) -> None:
        k = arguments["network"].size
        self.count("generate.realize_min_checks", k * (k - 1) // 2)

    # -- analysis ----------------------------------------------------------

    def self_times(self, run_id) -> Dict[str, float]:
        """Per layer: span time not covered by the span's own child spans."""
        child_time: Dict[int, float] = defaultdict(float)
        mine = [s for s in self.spans if s[5] == run_id]
        for _, _, start, end, parent, _ in mine:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in mine:
            totals[name.split(".", 1)[0]] += (end - start) - child_time[span_id]
        return dict(totals)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, run in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "run": run}
                ) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "opened")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.opened = None

    def __enter__(self) -> None:
        if self.tracer.run_id is not None:
            self.opened = self.tracer._open()

    def __exit__(self, *exc) -> bool:
        if self.opened is not None:
            self.tracer._close(self.name, self.opened)
        return False
