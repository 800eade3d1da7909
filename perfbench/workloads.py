"""Seeded inputs for the benchmark workloads, and one closed-loop pass over them.

Every workload is the same three-command batch job a CLI user runs, one
command after the other:

* ``train``: load the training JSONL, fit one model per class (jobs = 1,
  each class with its own rng, exactly as ``ibgn train`` derives it), save
  the bundle;
* ``predict``: load the bundle and the test JSONL, classify every instance;
* ``generate``: load a bundle, sample and realize networks of the largest
  trained size for every class, save the corpus.

The workloads differ only in their inputs, which decide which layer carries
the work (the reasons are in ``README.md``).  Library functions are always
reached through their module (``learning.train_class_model`` and so on), so
that the tracer in ``tracing.py`` sees every call once it rebinds them.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ibgn import classify, dataset, generate, learning, model_io
from ibgn.algebra import FULL_SET, enumerate_composition_classes
from ibgn.dataset import Corpus
from ibgn.generate import ClassModel
from ibgn.learning import TrainConfig
from ibgn.model_io import ModelBundle
from ibgn.network import Instance, Interval, StructureMask, check_consistency, instance_to_network

WORKLOADS = ("w1_short_chains", "w2_wide_vocab", "w3_generate")

# The CLI defaults (2000 sweeps, 500 burn-in, window 1000) scaled by 1/5 with
# the same phase proportions: one default-config fit of W1 alone takes ~25 s,
# which leaves no room for repeated passes inside one measured run.
TRAIN_CONFIG = TrainConfig(iterations=400, burn_in=100, avg_window=200, structure="learned")

MIN_ACCURACY = 0.9  # the criterion-10 bound, applied to every workload

W2_K = 12
W2_VOCAB = 60
W3_VOCAB = 4
# (structure, k) cells of the generation workload.  Realization time is heavy
# tailed: single networks take seconds from chain k = 10 and full k = 10 on
# (see README), and a few such networks would then decide a run's timings.
# Many models per cell keep one seed's random phi from deciding them.
W3_CELLS = (("chain", 8), ("chain", 12), ("full", 6), ("full", 8))
W3_MODELS_PER_CELL = 10


@dataclass
class Inputs:
    """Paths of one workload's generated input files plus its fixed settings."""

    seed: int
    train_path: Path
    test_path: Path
    bundle_path: Path  # written by the train stage
    generate_model_path: Path  # bundle the generate stage samples from
    generated_path: Path
    per_class_generate: int


Span = Tuple[float, float]


@dataclass
class PassResult:
    """Timings, outputs and operation counts of one pass."""

    # (start, end) perf_counter readings of each stage and of each call in it
    train_span: Span = (0.0, 0.0)
    predict_span: Span = (0.0, 0.0)
    predict_calls: List[Span] = field(default_factory=list)
    generate_span: Span = (0.0, 0.0)
    generate_calls: List[Span] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    truth: List[Optional[str]] = field(default_factory=list)
    networks: List[Tuple[object, Instance]] = field(default_factory=list)
    bundle_digest: str = ""
    generated_digest: str = ""
    fits: int = 0
    attempted: int = 0
    failed: int = 0

    @property
    def accuracy(self) -> float:
        hits = sum(p == t for p, t in zip(self.labels, self.truth))
        return hits / len(self.truth) if self.truth else 0.0


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report(what: str) -> None:
    print(f"operation failed: {what}", flush=True)
    traceback.print_exc()


# ---------------------------------------------------------------------------
# input builders


def _classification_models(k_star: int = 4) -> Dict[str, ClassModel]:
    """The criterion-10 truth: two classes with peaked actions and relations."""
    vocab = ("reach", "grasp", "pour", "stir")

    def build(hot_actions, hot_relation):
        theta = np.full((k_star, 4), 0.01)
        for z in range(k_star):
            theta[z, hot_actions[0]] = 0.49
            theta[z, hot_actions[1]] = 0.49
        phi = {}
        for i in range(1, 5):
            for j in range(1, 5):
                vec = np.full(7, 0.05)
                vec[hot_relation] = 0.70
                phi[(i, j, FULL_SET.bits)] = vec
        return ClassModel(
            k_star=k_star,
            ell=k_star,
            alpha=np.ones(k_star),
            beta=np.full((k_star, 4), 0.5),
            theta=theta,
            structure=StructureMask.chain(k_star),
            phi=phi,
            action_vocab=vocab,
            size_histogram={3: 1, 4: 1},
        )

    return {"assemble": build((0, 1), 0), "brew": build((2, 3), 2)}


def _random_interval_instance(rng: np.random.Generator, k: int, actions: range, label: str) -> Instance:
    """Integer endpoints on a short grid, so ties and every relation occur."""
    intervals = []
    for _ in range(k):
        start = int(rng.integers(0, 3 * k))
        length = int(rng.integers(1, k + 3))
        action = int(rng.integers(actions.start, actions.stop))
        intervals.append(Interval(action=action, start=float(start), end=float(start + length)))
    return Instance(label=label, intervals=tuple(intervals)).canonicalized()


def _random_model(rng: np.random.Generator, k: int, structure: str) -> ClassModel:
    """Random theta rows and random phi vectors over every composition class."""
    theta = rng.random((k, W3_VOCAB)) + 0.05
    theta /= theta.sum(axis=1, keepdims=True)
    phi = {}
    for i in range(1, W3_VOCAB + 1):
        for j in range(1, W3_VOCAB + 1):
            for cls in enumerate_composition_classes():
                vec = rng.random(cls.cardinality) + 0.05
                phi[(i, j, cls.members.bits)] = vec / vec.sum()
    mask = StructureMask.chain(k) if structure == "chain" else StructureMask.full(k)
    return ClassModel(
        k_star=k,
        ell=k,
        alpha=rng.random(k) + 0.5,
        beta=rng.random((k, W3_VOCAB)) + 0.2,
        theta=theta,
        structure=mask,
        phi=phi,
        action_vocab=tuple(f"act{i}" for i in range(W3_VOCAB)),
        size_histogram={k: 1},
    )


def build_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's input files from ``seed`` into ``workdir``."""
    inputs = Inputs(
        seed=seed,
        train_path=workdir / "train.jsonl",
        test_path=workdir / "test.jsonl",
        bundle_path=workdir / "bundle.json",
        generate_model_path=workdir / "bundle.json",
        generated_path=workdir / "generated.jsonl",
        per_class_generate=100,
    )
    if workload == "w1_short_chains":
        models = _classification_models()
        dataset.save_instances(dataset.build_synthetic_corpus(models, 100, seed=[seed, 1]), inputs.train_path)
        dataset.save_instances(dataset.build_synthetic_corpus(models, 300, seed=[seed, 2]), inputs.test_path)
    elif workload == "w2_wide_vocab":
        rng = np.random.default_rng([seed, 1])
        half = W2_VOCAB // 2
        ranges = {"lo": range(1, half + 1), "hi": range(half + 1, W2_VOCAB + 1)}
        vocab = [f"a{i:02d}" for i in range(1, W2_VOCAB + 1)]
        for path, per_class in ((inputs.train_path, 15), (inputs.test_path, 20)):
            instances = [
                _random_interval_instance(rng, W2_K, actions, name)
                for name, actions in ranges.items()
                for _ in range(per_class)
            ]
            dataset.save_instances(Corpus(instances, vocab, list(ranges)), path)
        inputs.per_class_generate = 20
    elif workload == "w3_generate":
        models = _classification_models()
        dataset.save_instances(dataset.build_synthetic_corpus(models, 50, seed=[seed, 1]), inputs.train_path)
        dataset.save_instances(dataset.build_synthetic_corpus(models, 300, seed=[seed, 2]), inputs.test_path)
        rng = np.random.default_rng([seed, 3])
        teachers = {
            f"{structure}_k{k}_{m}": _random_model(rng, k, structure)
            for structure, k in W3_CELLS
            for m in range(W3_MODELS_PER_CELL)
        }
        vocab = [f"act{i}" for i in range(W3_VOCAB)]
        inputs.generate_model_path = workdir / "teachers.json"
        model_io.save_bundle(inputs.generate_model_path, ModelBundle(vocab, list(teachers), teachers))
        inputs.per_class_generate = 4
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


# ---------------------------------------------------------------------------
# one pass


def train_stage(inputs: Inputs, result: PassResult) -> None:
    started = time.perf_counter()
    corpus = dataset.load_instances(inputs.train_path)
    groups = corpus.by_class()
    models = {}
    for idx, name in enumerate(corpus.classes):
        result.fits += 1
        result.attempted += 1
        try:
            rng = np.random.default_rng([inputs.seed, idx])
            models[name] = learning.train_class_model(groups[name], corpus.vocab, TRAIN_CONFIG, rng)
        except Exception:
            result.failed += 1
            _report(f"fit of class {name!r}")
    bundle = ModelBundle(vocab=list(corpus.vocab), classes=list(models), models=models)
    model_io.save_bundle(inputs.bundle_path, bundle)
    result.train_span = (started, time.perf_counter())
    result.bundle_digest = _digest(inputs.bundle_path.read_bytes())


def predict_stage(inputs: Inputs, result: PassResult) -> None:
    started = time.perf_counter()
    bundle = model_io.load_bundle(inputs.bundle_path)
    corpus = dataset.load_instances(inputs.test_path)
    models = [(name, bundle.models[name]) for name in bundle.classes]
    for index, instance in enumerate(corpus.instances):
        result.attempted += 1
        result.truth.append(instance.label)
        t0 = time.perf_counter()
        try:
            label = classify.predict(models, instance, corpus.vocab).label
        except Exception:
            result.failed += 1
            label = ""
            _report(f"prediction of test instance {index}")
        result.predict_calls.append((t0, time.perf_counter()))
        result.labels.append(label)
    result.predict_span = (started, time.perf_counter())


def generate_stage(inputs: Inputs, result: PassResult, key: int) -> None:
    """Sample ``per_class_generate`` networks of size ``k_star`` per class.

    This is ``ibgn generate --size k_star`` for every class of the bundle;
    ``key`` picks the rng stream, so passes with distinct keys draw distinct
    networks.
    """
    started = time.perf_counter()
    bundle = model_io.load_bundle(inputs.generate_model_path)
    rng = np.random.default_rng([inputs.seed, 4, key])
    instances = []
    for name in bundle.classes:
        model = bundle.models[name]
        for _ in range(inputs.per_class_generate):
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                net = generate.sample_network(model, model.k_star, rng)
                instance = generate.realize_timestamps(net, label=name)
            except Exception:
                result.failed += 1
                _report(f"generation for class {name!r}")
                continue
            result.generate_calls.append((t0, time.perf_counter()))
            result.networks.append((net, instance))
            instances.append(instance)
    dataset.save_instances(Corpus(instances, list(bundle.vocab), list(bundle.classes)), inputs.generated_path)
    result.generate_span = (started, time.perf_counter())
    result.generated_digest = _digest(inputs.generated_path.read_bytes())


def run_pass(inputs: Inputs, key: int, stage=lambda name: contextlib.nullcontext()) -> PassResult:
    """Train, predict, generate; ``stage(name)`` is entered around each step."""
    result = PassResult()
    with stage("bench.train"):
        train_stage(inputs, result)
    with stage("bench.predict"):
        predict_stage(inputs, result)
    with stage("bench.generate"):
        generate_stage(inputs, result, key)
    return result


# ---------------------------------------------------------------------------
# output checks (run outside the timed and traced regions)


def check_generated(result: PassResult) -> int:
    """Count realized instances that do not give back their sampled network.

    The realized timestamps must reproduce the sampled actions and every
    sampled link relation, and the complete relation network they induce
    must pass the triangle consistency check.
    """
    bad = 0
    for net, instance in result.networks:
        realized = instance_to_network(instance)
        ok = (
            realized.actions == net.actions
            and all(realized.relations.get(pair) == rel for pair, rel in net.relations.items())
            and check_consistency(realized).consistent
        )
        bad += not ok
    return bad


def check_accuracy(result: PassResult) -> int:
    """Count wrong predictions when accuracy falls under the bound, else 0."""
    if result.accuracy >= MIN_ACCURACY:
        return 0
    return sum(p != t for p, t in zip(result.labels, result.truth))
