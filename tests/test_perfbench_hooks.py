"""The benchmark's tracer rebinds library attributes by name; every one must exist.

``perfbench/tracing.py`` wraps functions at their call sites (for example
``generate.compute_constraint`` and ``generate.relation_of``).  A refactor that
drops or renames one of those names makes ``Tracer.install`` fail with
``AttributeError``, and one that renames a parameter its hooks bind (such as
``run_gibbs``'s ``instances`` or ``realize_timestamps``'s ``network``) breaks a
traced run; these tests catch both in the unit suite.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from math import comb
from pathlib import Path

import numpy as np
import pytest

from ibgn import IntervalNetwork, StructureMask, build_synthetic_corpus, instance_to_network
from ibgn import classify, generate, learning
from conftest import random_actions_instance, random_instance, random_model, tiny_config, two_class_models

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


def test_traced_training_and_generation_count_their_work():
    rng = np.random.default_rng(3)
    corpus = [random_actions_instance(rng, int(rng.integers(2, 5)), 3, label="c") for _ in range(6)]
    model = random_model(np.random.default_rng(4), vocab_size=3, k_star=5)
    tracer = load_tracing().Tracer()
    tracer.run_id = "probe"
    try:
        tracer.install()
        learning.train_class_model(corpus, ["x", "y", "z"], tiny_config(), np.random.default_rng(5))
        generate.realize_timestamps(generate.sample_network(model, 5, np.random.default_rng(6)))
    finally:
        tracer.uninstall()
    counts = tracer.counts["probe"]
    assert counts["learning.node_updates"] > 0
    assert counts["generate.realize_min_checks"] == 5 * 4 // 2
    traced = {name for _, name, *_ in tracer.spans}
    assert {"learning.run_gibbs", "generate.realize_timestamps"} <= traced


def test_tracer_counts_one_refit_step_per_update_call():
    rng = np.random.default_rng(7)
    corpus = [random_actions_instance(rng, int(rng.integers(2, 5)), 3, label="c") for _ in range(6)]
    config = tiny_config(iterations=50)
    tracer = load_tracing().Tracer()
    tracer.run_id = "probe"
    try:
        tracer.install()
        learning.train_class_model(corpus, ["x", "y", "z"], config, np.random.default_rng(8))
    finally:
        tracer.uninstall()
    refits = config.iterations - config.burn_in - config.avg_window
    assert refits == 10
    assert tracer.counts["probe"]["learning.update_hyperparams_calls"] == refits


def _chain_of(network):
    return IntervalNetwork(network.actions, {(i, j): r for (i, j), r in network.relations.items() if j == i + 1})


# the consistency walk computes each pair once, and only when a relation skips a node, since
# relations on adjacent nodes alone (a chain, or none) are always consistent; the search reads
# each fixed relation's signs from a table built at import, so it makes no relation_of call
# (``realize_checks``), and ``test_generate.py`` pins the order in which it tries placements
@pytest.mark.parametrize(
    "network, constraints, compositions",
    [
        (_chain_of(instance_to_network(random_instance(np.random.default_rng(11), 6))), 0, 0),
        (instance_to_network(random_instance(np.random.default_rng(12), 7)), comb(7, 2), comb(7, 3)),
        (IntervalNetwork((1,) * 12, {}), 0, 0),
    ],
    ids=["chain-6", "full-7", "no-relations-12"],
)
def test_traced_realization_composes_each_pair_once(network, constraints, compositions):
    tracer = load_tracing().Tracer()
    tracer.run_id = "probe"
    try:
        tracer.install()
        generate.realize_timestamps(network)
    finally:
        tracer.uninstall()
    counts = tracer.counts["probe"]
    assert counts["network.compute_constraint_calls"] == constraints
    assert counts["algebra.compose_sets_calls"] == compositions
    assert counts["generate.realize_checks"] == 0


def test_traced_sampling_counts_the_pairs_its_links_read():
    """Link (0, 3) reads the non-link pairs (1, 2), (0, 2) and (1, 3); the sampler
    composes them itself, and the per-layer count must still see each one."""
    mask = StructureMask.of([(0, 1), (2, 3), (0, 3)])
    model = dataclasses.replace(random_model(np.random.default_rng(4), vocab_size=3, k_star=4), structure=mask)
    tracer = load_tracing().Tracer()
    tracer.run_id = "probe"
    try:
        tracer.install()
        network = generate.sample_network(model, 4, np.random.default_rng(6))
    finally:
        tracer.uninstall()
    counts = tracer.counts["probe"]
    assert set(network.relations) == mask.links
    listed = sum(len(inner) for _, inner in mask.plan)
    assert listed == 3
    assert counts["network.compute_constraint_calls"] == len(mask) + listed
    # (0, 2), (1, 3) through one middle node each, (0, 3) through two
    assert counts["algebra.compose_sets_calls"] == 4


def test_traced_prediction_spans_every_class_score_and_counts_chain_links():
    """``predict`` must reach ``score_instance`` through the module attribute, once per
    class, or ``classify.score_instance_us_p50`` would read no spans at all."""
    models = sorted(two_class_models(k_star=4).items())
    corpus = build_synthetic_corpus(dict(models), per_class=6, seed=3)
    tracer = load_tracing().Tracer()
    tracer.run_id = "probe"
    try:
        tracer.install()
        for instance in corpus.instances:
            classify.predict(models, instance, corpus.vocab)
    finally:
        tracer.uninstall()
    spans = {span_id: (name, parent) for span_id, name, _, _, parent, _ in tracer.spans}
    predicts = [span_id for span_id, (name, _) in spans.items() if name == "classify.predict"]
    scores = [parent for name, parent in spans.values() if name == "classify.score_instance"]
    assert len(predicts) == len(corpus) == 12
    assert sorted(scores) == sorted(predicts * len(models))  # one span per class inside each predict
    chain_links = sum(min(len(instance), 4) - 1 for instance in corpus.instances)
    assert all(model.structure == StructureMask.chain(4) for _, model in models)
    assert tracer.counts["probe"]["network.links_scanned"] == len(models) * chain_links > 0
