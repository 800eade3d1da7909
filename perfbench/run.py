#!/usr/bin/env python3
"""Benchmark of the ibgn pipeline, one seeded workload per invocation.

    python3 perfbench/run.py --workload w1_short_chains --seed 7 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  The run builds the workload's inputs from
``--seed`` (several times, for ``setup_s``), then repeats closed-loop passes
(train, predict, generate; one caller, one thread) for about ``--seconds``,
checking every pass's outputs.  ``--trace 0`` reports the end-to-end
metrics of untraced passes, with every time scaled to a reference speed by
the probes of ``speed.py``; ``--trace 1`` runs untraced passes for half the
time and traced passes for the other half and reports the per-layer metrics,
the tracing overhead among them.  Every metric is printed with its unit and
sample count; the last line of standard output is the JSON result.  Run
facts, metrics and (with tracing) every span are written under
``perfbench/out/``.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SETUPS, MAX_SETUPS = 3, 100  # set-ups per run: at least 3, more while under
SETUP_SECONDS = 1.0  # this many seconds in total
MIN_PASSES = 2  # determinism is checked by comparing passes


def untraced_key(index: int) -> int:
    """Generation rng stream of an untraced pass: 0, 0, 1, 2, ...

    The repeat of stream 0 checks that generation is deterministic; every
    other pass draws fresh networks.
    """
    return max(0, index - 1)


# counts that must repeat exactly across traced passes of the same inputs
EXACT_COUNTS = (
    "learning.node_updates",
    "learning.update_hyperparams_calls",
    "network.compute_constraint_calls",
    "algebra.compose_sets_calls",
    "network.links_scanned",
    "generate.realize_checks",
    "generate.realize_min_checks",
)
LAYERS = ("bench", "dataset", "learning", "network", "classify", "generate", "model_io")

# imported by main() once the checkout's src/ is on the path
workloads = None
Tracer = None
SpeedProbe = None


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ibgn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Run:
    """One invocation: inputs, passes, checks and the metrics they yield."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # first pass: every later pass must reproduce it
        self.pass_log = []
        self.probes = []  # (start, end) of every speed probe

    def setup(self):
        return workloads.build_inputs(self.workload, self.seed, self.workdir)

    def settle(self, result, name: str, key: int) -> None:
        """Run the output checks of one pass and book its operations."""
        unrealized = workloads.check_generated(result)
        if unrealized:
            self.problems.append(f"{name}: {unrealized} realized networks do not give back the sampled network")
        bad = unrealized + workloads.check_accuracy(result)
        if result.accuracy < workloads.MIN_ACCURACY:
            self.problems.append(f"{name}: accuracy {result.accuracy} < {workloads.MIN_ACCURACY}")
        ref = self.reference
        if ref is None:
            self.reference = result
        else:
            if result.bundle_digest != ref.bundle_digest:
                bad += result.fits
                self.problems.append(f"{name}: bundle differs from the first pass")
            changed = sum(a != b for a, b in zip(result.labels, ref.labels))
            if changed or len(result.labels) != len(ref.labels):
                bad += changed
                self.problems.append(f"{name}: {changed} predicted labels differ from the first pass")
            if key == 0 and result.generated_digest != ref.generated_digest:
                bad += len(result.networks)
                self.problems.append(f"{name}: generated corpus differs from the first pass")
        self.attempted += result.attempted
        self.failed += min(result.attempted, result.failed + bad)

    def passes(self, inputs, seconds: float, minimum: int, key_of, stage=None):
        """Repeat passes for about ``seconds``: another pass starts only if it
        is expected to end less than half a pass after the deadline."""
        results, walls = [], []
        started = time.perf_counter()
        while len(results) < minimum or (
            time.perf_counter() - started + statistics.mean(walls) / 2.0 < seconds
        ):
            index = len(results)
            key = key_of(index)
            t0 = time.perf_counter()
            if stage is None:
                result = workloads.run_pass(inputs, key)
            else:
                result = stage(index, inputs, key)
            walls.append(time.perf_counter() - t0)
            self.settle(result, f"pass {index}", key)
            results.append(result)
        return results, walls

    # -- end-to-end ----------------------------------------------------------

    def end_to_end(self):
        spans = []  # (start, end) of every set-up
        with SpeedProbe() as probe:
            while len(spans) < MIN_SETUPS or (
                sum(e - s for s, e in spans) < SETUP_SECONDS and len(spans) < MAX_SETUPS
            ):
                t0 = time.perf_counter()
                inputs = self.setup()
                spans.append((t0, time.perf_counter()))
            results, walls = self.passes(inputs, self.seconds, MIN_PASSES, key_of=untraced_key)

        # every time is scaled to the reference speed (see speed.py); raw ones are printed too
        def stage(span_of, measure):
            return [measure(*span_of(r)) for r in results]

        def calls(calls_of, measure):
            return [measure(t0, t1) * 1e3 for r in results for t0, t1 in calls_of(r)]

        train = stage(lambda r: r.train_span, probe.scaled)
        predict_s = sum(stage(lambda r: r.predict_span, probe.scaled))
        generate_ms = calls(lambda r: r.generate_calls, probe.scaled)
        predict_ms = calls(lambda r: r.predict_calls, probe.scaled)
        self.pass_log = [
            {
                "wall_s": w,
                "train_s": probe.raw(*r.train_span),
                "predict_s": probe.raw(*r.predict_span),
                "generate_s": probe.raw(*r.generate_span),
                "scaled_train_s": probe.scaled(*r.train_span),
                "scaled_predict_s": probe.scaled(*r.predict_span),
                "scaled_generate_s": probe.scaled(*r.generate_span),
                "spans": [r.train_span, r.predict_span, r.generate_span],
            }
            for w, r in zip(walls, results)
        ]
        self.probes = list(zip(probe.starts, probe.ends))

        n = len(results)
        tests = len(results[0].truth)
        predicted = sum(len(r.truth) for r in results)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gated = {
            "setup_s": (statistics.median(probe.scaled(*span) for span in spans), "s", len(spans)),
            "train_s": (statistics.mean(train), "s", n),
            "predict_inst_per_s": (predicted / predict_s, "instances/s", predicted),
            "generate_ms_p50": (percentile(generate_ms, 50), "ms", len(generate_ms)),
            "peak_rss_mb": (rss_mib, "MiB", 1),
            "accuracy": (results[0].accuracy, "fraction", tests),
        }
        raw_generate_ms = calls(lambda r: r.generate_calls, probe.raw)
        ungated = {
            "probe_factor_mean": (statistics.mean(probe.factors), "ratio", len(probe.factors)),
            "raw_setup_s": (statistics.median(probe.raw(*span) for span in spans), "s", len(spans)),
            "raw_train_s": (statistics.mean(stage(lambda r: r.train_span, probe.raw)), "s", n),
            "raw_predict_inst_per_s": (
                predicted / sum(stage(lambda r: r.predict_span, probe.raw)), "instances/s", predicted
            ),
            "raw_generate_ms_p50": (percentile(raw_generate_ms, 50), "ms", len(raw_generate_ms)),
            "predict_ms_p50": (percentile(predict_ms, 50), "ms", len(predict_ms)),
            "predict_ms_p95": (percentile(predict_ms, 95), "ms", len(predict_ms)),
            "generate_net_per_s": (
                len(generate_ms) / sum(stage(lambda r: r.generate_span, probe.scaled)), "networks/s", len(generate_ms)
            ),
            "generate_ms_p95": (percentile(generate_ms, 95), "ms", len(generate_ms)),
        }
        return gated, ungated

    # -- per layer -------------------------------------------------------------

    def per_layer(self):
        inputs = self.setup()
        half = self.seconds / 2.0
        _, untraced_walls = self.passes(inputs, half, 1, key_of=lambda index: 0)

        tracer = Tracer()
        tracer.install()
        try:
            tracer.run_id = "setup"
            with tracer.span("bench.setup"):
                inputs = self.setup()
            tracer.run_id = None

            def traced_pass(index, inputs, key):
                tracer.run_id = index
                try:
                    return workloads.run_pass(inputs, key, stage=tracer.span)
                finally:
                    tracer.run_id = None

            traced, traced_walls = self.passes(inputs, half, MIN_PASSES, key_of=lambda index: 0, stage=traced_pass)
        finally:
            tracer.uninstall()
        self.tracer = tracer
        runs = range(len(traced))
        counts = [tracer.counts[r] for r in runs]
        for name in EXACT_COUNTS:
            values = [c[name] for c in counts]
            if len(set(values)) != 1:
                self.problems.append(f"count {name} did not repeat across traced passes: {values}")

        durations = defaultdict(list)  # (run id, span name) -> seconds per call
        for _, name, start, end, _, run in tracer.spans:
            durations[run, name].append(end - start)
        self_times = [tracer.self_times(r) for r in runs]

        def median(values):
            return statistics.median(list(values))

        def busy(*names, scale=1.0):
            """Median over traced passes of the time spent in the named spans."""
            return median(sum(sum(durations[r, name]) for name in names) * scale for r in runs)

        def calls(name, scale):
            """Every call of one span name, pooled over traced passes."""
            return [d * scale for r in runs for d in durations[r, name]]

        def node_update_us(r):
            gibbs = sum(durations[r, "learning.run_gibbs"]) - sum(durations[r, "learning.update_hyperparams"])
            updates = counts[r]["learning.node_updates"]
            return gibbs / updates * 1e6 if updates else 0.0

        def check_ratio(c):
            checks = c["generate.realize_checks"]
            return c["generate.realize_min_checks"] / checks if checks else 1.0

        n = len(traced)
        metrics = {
            "learning.run_gibbs_s": (busy("learning.run_gibbs"), "s", n),
            "learning.node_update_us": (median(node_update_us(r) for r in runs), "us", n),
        }
        for name in ("learning.node_updates", "learning.update_hyperparams_calls"):
            metrics[name] = (counts[0][name], "count", n)
        refit_ms = calls("learning.update_hyperparams", 1e3)
        metrics.update({
            "learning.update_hyperparams_ms_p50": (percentile(refit_ms, 50), "ms", len(refit_ms)),
            "learning.learn_structure_s": (busy("learning.learn_structure"), "s", n),
            "learning.collect_link_counts_s": (busy("learning.collect_link_counts"), "s", n),
            "learning.estimate_s": (busy("learning.estimate_theta", "learning.estimate_phi"), "s", n),
            "learning.refit_buffer_mib_computed": (counts[0]["learning.refit_buffer_bytes"] / 2**20, "MiB", n),
        })
        for name in ("network.compute_constraint_calls", "network.links_scanned", "algebra.compose_sets_calls"):
            metrics[name] = (counts[0][name], "count", n)
        for name, unit, scale in (
            ("classify.score_instance", "us", 1e6),
            ("generate.sample_network", "ms", 1e3),
            ("generate.realize_timestamps", "ms", 1e3),
        ):
            values = calls(name, scale)
            for q in (50, 95):
                metrics[f"{name}_{unit}_p{q}"] = (percentile(values, q), unit, len(values))
        metrics.update({
            "generate.realize_checks": (counts[0]["generate.realize_checks"], "count", n),
            "generate.realize_check_ratio": (check_ratio(counts[0]), "fraction", n),
            "dataset.setup_s": (
                sum(sum(durations["setup", name]) for name in ("dataset.build_synthetic_corpus", "dataset.save_instances")),
                "s",
                1,
            ),
            "dataset.load_instances_ms": (busy("dataset.load_instances", scale=1e3), "ms", n),
            "model_io.save_bundle_ms": (busy("model_io.save_bundle", scale=1e3), "ms", n),
            "model_io.load_bundle_ms": (busy("model_io.load_bundle", scale=1e3), "ms", n),
        })
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (median(t.get(layer, 0.0) for t in self_times), "s", n)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
            "fraction",
            len(traced_walls) + len(untraced_walls),
        )
        return metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ibgn" / "__init__.py").is_file():
        print(f"error: no ibgn package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # one thread for any native library numpy brings, set before it is imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    global workloads, Tracer, SpeedProbe
    import numpy
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "train_config": repr(workloads.TRAIN_CONFIG),
        "loadavg_before": os.getloadavg(),
    }
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        run = Run(args.workload, args.seed, args.seconds, Path(tmp))
        metrics, ungated = run.per_layer() if args.trace else run.end_to_end()
    facts["loadavg_after"] = os.getloadavg()
    correct = run.failed == 0 and not run.problems

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "facts": facts,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "passes": run.pass_log,
        "probes": run.probes,
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in metrics.items()},
        "ungated": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in ungated.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        run.tracer.write(stem.with_suffix(".spans.jsonl"))

    for name, value in facts.items():
        print(f"fact {name} {value}")
    for problem in run.problems:
        print(f"check failed: {problem}")
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} {value!r} {unit} n={samples}")
    for name, (value, unit, samples) in ungated.items():
        print(f"ungated {name} {value!r} {unit} n={samples}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
