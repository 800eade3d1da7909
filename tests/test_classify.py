"""Instance scoring and class prediction."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from ibgn import (
    EPS,
    FULL_SET,
    Instance,
    Interval,
    Prediction,
    StructureMask,
    predict,
    score_instance,
)
from ibgn import algebra, network
from ibgn.classify import _log
from ibgn.errors import NoModels
from conftest import random_actions_instance, random_instance, random_model, two_class_models, uniform_model


def make_instance(*triples, label=None):
    return Instance(
        label=label,
        intervals=tuple(Interval(a, float(s), float(e)) for a, s, e in triples),
    )


def chain_model():
    """Two actions, k_star=2, one chain link with explicit relation tables."""
    theta = np.array([[0.9, 0.1], [0.3, 0.7]])
    phi = {
        (1, 2, FULL_SET.bits): np.array([0.6, 0.25, 0.05, 0.025, 0.025, 0.025, 0.025]),
        (2, 1, FULL_SET.bits): np.array([0.05, 0.6, 0.25, 0.025, 0.025, 0.025, 0.025]),
    }
    return dataclasses.replace(
        uniform_model(vocab=("lift", "drop"), k_star=2, structure="chain"),
        theta=theta,
        phi=phi,
    )


def reference_score_instance(model, instance, vocab):
    """``score_instance`` taking every log at score time: ``_log`` of ``theta`` summed over the
    tables per interval (``log(EPS)`` for an unknown action), then ``_log`` of the observed
    relation's phi entry, or of the uniform fallback, per link in scan order."""
    ids = [model.action_id(vocab[iv.action - 1]) for iv in instance.intervals]
    theta_mass = model.theta.sum(axis=0)
    score = 0.0
    for mid in ids:
        score += _log(float(theta_mass[mid - 1])) if mid is not None else math.log(EPS)
    for n_prime, n, constraint, relation in network.scan_link_constraints(instance, model.structure):
        vec = model.phi.get((ids[n_prime], ids[n], constraint.bits))
        if vec is None:
            score += math.log(1.0 / len(constraint))
        else:
            score += _log(float(vec[constraint.index_of(relation)]))
    return score


class TestScoreInstance:
    def test_hand_computed_score(self):
        model = chain_model()
        inst = make_instance((1, 0, 1), (2, 2, 3))  # lift before drop
        got = score_instance(model, inst, ["lift", "drop"])
        expected = (
            math.log(0.9 + 0.3)  # theta mass of "lift" across tables
            + math.log(0.1 + 0.7)  # theta mass of "drop"
            + math.log(0.6)  # relation "before" under key (1, 2, full set)
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_empty_instance_scores_zero(self):
        model = chain_model()
        assert score_instance(model, Instance(label=None, intervals=()), []) == 0.0

    def test_unknown_action_floors_theta_term(self):
        model = chain_model()
        known = make_instance((1, 0, 1))
        unknown = make_instance((2, 0, 1))
        vocab = ["lift", "jettison"]
        got_known = score_instance(model, known, vocab)
        got_unknown = score_instance(model, unknown, vocab)
        assert got_known == pytest.approx(math.log(1.2))
        assert got_unknown == pytest.approx(math.log(EPS))

    def test_unknown_action_on_link_falls_back_to_uniform(self):
        model = chain_model()
        inst = make_instance((1, 0, 1), (2, 2, 3))
        got = score_instance(model, inst, ["lift", "jettison"])
        expected = math.log(1.2) + math.log(EPS) + math.log(1.0 / 7.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_unseen_phi_key_falls_back_to_uniform(self):
        model = chain_model()
        inst = make_instance((1, 0, 1), (1, 2, 3))  # key (1, 1, ...) never trained
        got = score_instance(model, inst, ["lift", "drop"])
        expected = 2 * math.log(1.2) + math.log(1.0 / 7.0)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("action", [0, -1, 4])
    def test_action_id_outside_the_vocabulary_raises(self, action):
        model = chain_model()
        inst = make_instance((1, 0, 1), (action, 2, 3))
        with pytest.raises(ValueError) as excinfo:
            score_instance(model, inst, ["lift", "drop", "spin"])
        assert str(excinfo.value) == f"action id {action} outside vocabulary of size 3"

    def test_zero_probability_relation_floored(self):
        model = chain_model()
        phi = dict(model.phi)
        vec = np.zeros(7)
        vec[0] = 1.0
        phi[(1, 2, FULL_SET.bits)] = vec
        model = dataclasses.replace(model, phi=phi)
        inst = make_instance((1, 0, 2), (2, 1, 3))  # overlaps: probability 0
        got = score_instance(model, inst, ["lift", "drop"])
        assert math.isfinite(got)
        assert got == pytest.approx(math.log(1.2) + math.log(0.8) + math.log(EPS))

    def test_long_instances_truncate_links_not_actions(self):
        model = chain_model()  # k_star = 2
        inst = make_instance((1, 0, 1), (2, 2, 3), (1, 4, 5))
        got = score_instance(model, inst, ["lift", "drop"])
        expected = (
            2 * math.log(1.2) + math.log(0.8)  # theta covers all three intervals
            + math.log(0.6)  # only the first k_star intervals carry links
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_vocab_remapping_by_name(self):
        model = chain_model()
        inst = make_instance((2, 0, 1))  # id 2 in a reordered test vocabulary
        got = score_instance(model, inst, ["drop", "lift"])
        assert got == pytest.approx(math.log(1.2))  # still scored as "lift"

    @pytest.mark.parametrize(
        "structure, calls", [("empty", 0), ("chain", 11), ("full", 66)], ids=["empty", "chain", "full"]
    )
    def test_relations_are_read_for_links_only(self, monkeypatch, structure, calls):
        model = uniform_model(k_star=12, structure=structure)
        if structure == "empty":
            model = dataclasses.replace(model, structure=StructureMask.of([]))
        inst = random_instance(np.random.default_rng(12), 12)
        counted = []

        def relation_of(first, second):
            counted.append((first, second))
            return algebra.relation_of(first, second)

        monkeypatch.setattr(network, "relation_of", relation_of)
        assert math.isfinite(score_instance(model, inst, ["a", "b"]))
        assert len(counted) == calls


    def test_theta_mass_summed_once_matches_per_call_sum(self):
        rng = np.random.default_rng(31)
        vocab = ["act0", "act1", "act2", "unknown"]
        for trial in range(20):
            model = random_model(rng, vocab_size=3, k_star=5)
            if trial % 2:
                model = dataclasses.replace(model, structure=StructureMask.chain(5))
            assert model.log_theta_mass == [_log(mass) for mass in model.theta.sum(axis=0).tolist()]
            for _ in range(10):
                inst = random_actions_instance(rng, int(rng.integers(0, 8)), len(vocab))
                assert score_instance(model, inst, vocab) == reference_score_instance(model, inst, vocab)


class TestPredict:
    def test_picks_higher_scoring_class(self):
        models = sorted(two_class_models(k_star=4).items())
        rng = np.random.default_rng(0)
        from ibgn import build_synthetic_corpus

        corpus = build_synthetic_corpus(dict(models), per_class=10, seed=3)
        hits = 0
        for inst in corpus.instances:
            pred = predict(models, inst, corpus.vocab)
            hits += pred.label == inst.label
        assert hits >= 18  # classes are far apart by construction

    def test_margin_is_gap_to_runner_up(self):
        models = sorted(two_class_models(k_star=4).items())
        inst = make_instance((1, 0, 1), (2, 2, 3))
        vocab = ["reach", "grasp", "pour", "stir"]
        pred = predict(models, inst, vocab)
        assert pred.margin == pytest.approx(max(pred.scores) - min(pred.scores))
        assert pred.margin >= 0.0

    def test_tie_breaks_to_lowest_index(self):
        model = chain_model()
        models = [("zeta", model), ("alpha", model)]
        pred = predict(models, make_instance((1, 0, 1)), ["lift", "drop"])
        assert pred.label == "zeta"
        assert pred.scores[0] == pred.scores[1]
        assert pred.margin == 0.0

    def test_single_model_margin_zero(self):
        pred = predict(
            [("only", chain_model())], make_instance((1, 0, 1)), ["lift", "drop"]
        )
        assert pred.label == "only"
        assert pred.margin == 0.0
        assert isinstance(pred, Prediction)

    def test_prediction_is_an_immutable_tuple_of_label_scores_margin(self):
        pred = predict([("only", chain_model())], make_instance((1, 0, 1)), ["lift", "drop"])
        assert Prediction._fields == ("label", "scores", "margin")
        assert tuple(pred) == (pred.label, pred.scores, pred.margin)
        with pytest.raises(AttributeError):
            pred.label = "other"

    def test_no_models_rejected(self):
        with pytest.raises(NoModels):
            predict([], make_instance((1, 0, 1)), ["lift"])


@pytest.mark.parametrize("mask", ["chain", "full", "random"])
def test_log_table_scores_are_bit_identical_to_logs_taken_at_score_time(mask):
    rng = np.random.default_rng({"chain": 41, "full": 42, "random": 43}[mask])
    vocab = ["act0", "act1", "act2", "act3", "stranger"]  # act3 and stranger are unknown to the models
    k_star = 6
    pairs = [(i, j) for i in range(k_star) for j in range(i + 1, k_star)]
    floored = links = 0
    for _ in range(12):
        model = random_model(rng, vocab_size=3, k_star=k_star)
        theta = model.theta.copy()
        theta[:, int(rng.integers(3))] = 0.0  # one action with no mass: its term is log(EPS)
        theta /= theta.sum(axis=1, keepdims=True)
        kept = {key: vec for key, vec in model.phi.items() if rng.random() < 0.6}  # the rest go unseen
        if mask == "chain":
            structure = StructureMask.chain(k_star)
        elif mask == "full":
            structure = StructureMask.full(k_star)
        else:
            structure = StructureMask.of([pair for pair in pairs if rng.random() < 0.5])
        model = dataclasses.replace(model, theta=theta, phi=kept, structure=structure)
        assert model.log_theta_mass == [_log(mass) for mass in model.theta.sum(axis=0).tolist()]
        floored += model.log_theta_mass.count(math.log(EPS))
        for _ in range(15):
            inst = random_actions_instance(rng, int(rng.integers(0, k_star + 3)), len(vocab))
            links += sum(1 for _ in network.scan_link_constraints(inst, structure))
            got = score_instance(model, inst, vocab)
            assert got.hex() == reference_score_instance(model, inst, vocab).hex()
    assert floored == 12 and links > 0
