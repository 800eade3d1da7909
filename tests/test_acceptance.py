"""Acceptance gate: twelve end-to-end checks with pinned tolerances.

Each test prints exactly one ``PASS``/``FAIL`` line (run with ``-s`` to see
them live); stated runtime budgets are asserted, not just observed.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ibgn import (
    BaseRelation,
    FULL_SET,
    Instance,
    Interval,
    ModelBundle,
    RelationSet,
    StructureMask,
    TrainConfig,
    brute_force_compose,
    build_synthetic_corpus,
    check_consistency,
    compose,
    compose_sets,
    crp_table_distribution,
    digamma,
    enumerate_composition_classes,
    estimate_phi,
    estimate_theta,
    learn_structure,
    load_bundle,
    predict,
    relation_of,
    run_gibbs,
    sample_network,
    save_bundle,
    scan_link_constraints,
    train_bundle,
    train_class_model,
    update_hyperparams,
)
from ibgn.dataset import Corpus, perturb_labels
from ibgn.generate import ClassModel
from ibgn.learning import SamplerState
from conftest import (
    exhaustive_structure_oracle,
    random_actions_instance,
    random_instance,
    random_model,
    uniform_model,
)

B, M, O, S, C, F, EQ = BaseRelation


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:02d}: {description}")
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"FAIL criterion {number:02d}: {description} "
              f"(runtime {elapsed:.2f}s over budget {budget_seconds:g}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds:g}s budget: {elapsed:.2f}s"
        )
    print(f"PASS criterion {number:02d}: {description} ({elapsed:.2f}s)")


def test_criterion_01_composition_table_matches_oracle():
    with criterion(1, "frozen composition table equals endpoint oracle; "
                      "11 classes with cardinalities {1x7,3,3,5,7}", 1.0):
        for r1, r2 in itertools.product(BaseRelation, repeat=2):
            assert compose(r1, r2) == brute_force_compose(r1, r2), (r1, r2)
        classes = enumerate_composition_classes()
        assert len(classes) == 11
        assert sorted(c.cardinality for c in classes) == [1] * 7 + [3, 3, 5, 7]


def test_criterion_02_published_compositions():
    with criterion(2, "m.s = {m} and s.f = {b,m,o}"):
        assert compose(M, S) == RelationSet.of(M)
        assert compose(S, F) == RelationSet.of(B, M, O)


def test_criterion_03_associativity_over_class_triples():
    with criterion(3, "composition is associative over all 11^3 class triples", 1.0):
        members = [c.members for c in enumerate_composition_classes()]
        for x, y, z in itertools.product(members, repeat=3):
            assert compose_sets(compose_sets(x, y), z) == compose_sets(
                x, compose_sets(y, z)
            )


def test_criterion_04_sampled_networks_always_consistent():
    with criterion(4, "1000 full-structure samples (k in 3..6, random phi) "
                      "have zero consistency violations", 10.0):
        rng = np.random.default_rng(404)
        model = random_model(rng, vocab_size=3, k_star=6)
        violations = 0
        for i in range(1000):
            k = 3 + i % 4
            net = sample_network(model, k, rng)
            violations += not check_consistency(net).consistent
        assert violations == 0


def _triangle_labelings_by_timestamp_enumeration():
    """Every relation triple realizable by three intervals (exact, by rank).

    Three intervals use at most six endpoint values and relations depend only
    on their order, so a six-value grid enumerates every realizable case.
    """
    grid = [
        (s, e) for s in range(6) for e in range(s + 1, 6)
    ]
    labelings = set()
    for triple in itertools.combinations_with_replacement(grid, 3):
        a, b, c = sorted(triple)
        labelings.add(
            (relation_of(a, b), relation_of(a, c), relation_of(b, c))
        )
    return labelings


def test_criterion_05_triangle_completeness():
    with criterion(5, "all timestamp-realizable triangle labelings appear "
                      "among 1e5 uniform-phi samples at k=3", 30.0):
        oracle = _triangle_labelings_by_timestamp_enumeration()
        rng = np.random.default_rng(505)
        model = uniform_model(vocab=("a", "b"), k_star=3, structure="full")
        seen = set()
        for _ in range(100_000):
            net = sample_network(model, 3, rng)
            seen.add(
                (net.relation(0, 1), net.relation(0, 2), net.relation(1, 2))
            )
        assert seen == oracle


def test_criterion_06_constraint_soundness():
    with criterion(6, "observed relations lie inside their constraints on 500 "
                      "random instances under all three structure modes", 10.0):
        rng = np.random.default_rng(606)
        instances = [
            random_actions_instance(rng, 2 + i % 7, 3) for i in range(500)
        ]
        learned = learn_structure(instances, 3)
        checked = 0
        for inst in instances:
            k = len(inst)
            for mask in (StructureMask.chain(k), StructureMask.full(k), learned):
                for _np, _n, constraint, rel in scan_link_constraints(inst, mask):
                    assert rel in constraint
                    checked += 1
        assert checked > 0


def test_criterion_07_bic_mask_equals_exhaustive_argmax():
    with criterion(7, "learned structure equals the exhaustive mask argmax "
                      "on 20 random corpora (k* <= 4, M <= 3, <= 50 instances)", 60.0):
        for c in range(20):
            rng = np.random.default_rng(7000 + c)
            vocab_size = 2 + c % 2
            count = int(rng.integers(5, 51))
            corpus = [
                random_actions_instance(rng, int(rng.integers(1, 5)), vocab_size)
                for _ in range(count)
            ]
            got = learn_structure(corpus, vocab_size)
            want = exhaustive_structure_oracle(corpus, vocab_size)
            assert got == want, f"corpus {c}: {got} != {want}"


def _sample_recovery_corpus(theta_truth, count, rng, lengths=(2, 3, 4)):
    """Instances whose actions come from CRP tables with known distributions.

    Short mixed lengths keep the within-instance seating blocks small, so the
    collapsed sampler separates the tables well inside the default burn-in;
    the stronger second-table strength gives it enough corpus mass for a
    tight count estimate.
    """
    alpha = np.array([1.0, 2.0])
    instances = []
    for j in range(count):
        length = lengths[j % len(lengths)]
        counts: list[float] = []
        intervals = []
        for position in range(length):
            probs = crp_table_distribution(
                np.asarray(counts), alpha
            )
            z = int(rng.choice(len(probs), p=probs))
            if z == len(counts):
                counts.append(1.0)
            else:
                counts[z] += 1.0
            action = int(rng.choice(len(theta_truth[z]), p=theta_truth[z])) + 1
            intervals.append(
                Interval(action=action, start=2.0 * position, end=2.0 * position + 1.0)
            )
        instances.append(Instance(label=None, intervals=tuple(intervals)))
    return instances


def _best_permutation_tv(theta_hat, theta_truth):
    """Per-table total variation under the best row matching."""
    best = None
    for perm in itertools.permutations(range(len(theta_truth))):
        worst = max(
            0.5 * float(np.abs(theta_hat[p] - theta_truth[z]).sum())
            for z, p in enumerate(perm)
        )
        best = worst if best is None else min(best, worst)
    return best


def test_criterion_08_sampler_recovers_table_distributions():
    with criterion(8, "2-table theta recovered within TV 0.1 per table "
                      "(best permutation) on >= 4 of 5 seeds", 300.0):
        theta_truth = np.array(
            [
                [0.6, 0.4, 0.0, 0.0],
                [0.0, 0.0, 0.3, 0.7],
            ]
        )
        config = TrainConfig(iterations=2000, burn_in=500, avg_window=1000)
        successes = 0
        for seed in range(5):
            rng = np.random.default_rng(8000 + seed)
            corpus = _sample_recovery_corpus(theta_truth, count=200, rng=rng)
            result = run_gibbs(corpus, 4, config, np.random.default_rng(80 + seed), ell=2)
            theta_hat = estimate_theta(result.averaged_na, result.beta)
            tv = _best_permutation_tv(theta_hat, theta_truth)
            successes += tv <= 0.1
        assert successes >= 4, f"only {successes}/5 seeds within TV 0.1"


def test_criterion_09_hyperparameter_fixed_point_and_digamma():
    with criterion(9, "stationary counts give update factors within 1e-6 of 1; "
                      "digamma within 1e-10 of reference on a 20-point grid"):
        # per-instance count samples whose proportions swing between sweeps
        # (over-dispersed), so the maximum-likelihood concentrations are
        # finite and the multiplicative iteration has an interior fixed point
        phases = (
            ([[6, 0, 0], [2, 4, 0]], [0, 1],
             {(0, 0): [4, 2], (1, 0): [0, 2], (1, 1): [4, 0]}),
            ([[2, 0, 4], [0, 6, 0]], [2, 1],
             {(0, 0): [2, 0], (0, 2): [0, 4], (1, 1): [2, 4]}),
            ([[6, 0, 0], [2, 4, 0]], [0, 1],
             {(0, 0): [2, 4], (1, 0): [2, 0], (1, 1): [0, 4]}),
            ([[2, 0, 4], [0, 6, 0]], [2, 1],
             {(0, 0): [0, 2], (0, 2): [2, 2], (1, 1): [4, 2]}),
        )
        size, ell, m, cap = 48, 3, 2, 7
        occupancy = np.zeros((size, 2, ell), dtype=np.int64)
        first_seats = np.zeros((size, 2), dtype=np.int64)
        action_counts = np.zeros((size, 2, ell, m), dtype=np.int64)
        for s in range(size):
            occ, first, actions = phases[s % 4]
            occupancy[s] = occ
            first_seats[s] = first
            for (d, z), counts in actions.items():
                action_counts[s, d, z] = counts
        hist_table = np.zeros((size, ell, cap))
        hist_alpha = np.zeros((size, ell, cap))
        hist_action = np.zeros((size, ell, m, cap))
        rest = occupancy.copy()
        for s in range(size):
            rest[s, np.arange(2), first_seats[s]] -= 1
            for z in range(ell):
                hist_table[s, z] = np.bincount(occupancy[s, :, z], minlength=cap)
                hist_alpha[s, z] = np.bincount(rest[s, :, z], minlength=cap)
                for i in range(m):
                    hist_action[s, z, i] = np.bincount(
                        action_counts[s, :, z, i], minlength=cap
                    )
        state = SamplerState(
            assignments=[[0]],
            alpha=np.ones(ell),
            beta=np.full((ell, m), 0.5),
            window_table=hist_table.sum(axis=0),
            window_alpha=hist_alpha.sum(axis=0),
            window_action=hist_action.sum(axis=0),
            length_hist=np.bincount(occupancy[0].sum(axis=1) - 1, minlength=cap).astype(float),
            window_sweeps=size,
        )
        config = TrainConfig()
        for _ in range(5000):
            before_alpha = state.alpha.copy()
            before_beta = state.beta.copy()
            update_hyperparams(state, config)
            drift = max(
                float(np.max(np.abs(state.alpha / before_alpha - 1.0))),
                float(np.max(np.abs(state.beta / before_beta - 1.0))),
            )
            if drift < 1e-13:
                break
        # counts are now at the stationary condition: one more update moves
        # every parameter by a multiplicative factor within 1e-6 of 1
        alpha0, beta0 = state.alpha.copy(), state.beta.copy()
        new_alpha, new_beta = update_hyperparams(state, config)
        assert np.all(np.abs(new_alpha / alpha0 - 1.0) < 1e-6)
        assert np.all(np.abs(new_beta / beta0 - 1.0) < 1e-6)

        grid = [1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0,
                3.0, 4.0, 5.5, 6.0, 10.0, 31.4, 100.0, 1e3, 1e6, 1e10]
        assert len(grid) == 20
        for x in grid:
            assert abs(digamma(x) - float(mpmath.digamma(x))) < 1e-10, x


def _classification_models(k_star=4):
    """Two classes: disjointly-peaked actions, distinct relation preferences."""
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


def test_criterion_10_end_to_end_classification_and_label_noise():
    with criterion(10, "held-out accuracy >= 0.9 with learned structure; "
                       "mean accuracy non-increasing over label-noise rates "
                       "{0, 0.1, 0.2, 0.3}", 600.0):
        models = _classification_models()
        train_corpus = build_synthetic_corpus(models, per_class=100, seed=1001)
        test_corpus = build_synthetic_corpus(models, per_class=100, seed=2002)
        rates = (0.0, 0.1, 0.2, 0.3)
        config = TrainConfig(structure="learned")
        sums = {rate: 0.0 for rate in rates}
        for seed in range(5):
            bundle = train_bundle(train_corpus, config, seed_key=[seed], jobs=1)
            fitted = [(name, bundle.models[name]) for name in bundle.classes]
            for rate in rates:
                noisy = perturb_labels(
                    test_corpus, rate, seed=[3000, seed, int(rate * 10)]
                )
                hits = sum(
                    predict(fitted, inst, noisy.vocab).label == inst.label
                    for inst in noisy.instances
                )
                sums[rate] += hits / len(noisy.instances)
        means = [sums[rate] / 5.0 for rate in rates]
        assert means[0] >= 0.9, f"clean held-out accuracy {means[0]:.3f} < 0.9"
        for lo, hi in zip(means[1:], means[:-1]):
            assert lo <= hi + 1e-12, f"accuracy increased under noise: {means}"


def test_criterion_11_determinism_and_round_trip(tmp_path):
    with criterion(11, "same seed gives byte-identical bundles; "
                       "save/load/predict is exact on 100 instances"):
        models = _classification_models()
        corpus = build_synthetic_corpus(models, per_class=25, seed=77)
        config = TrainConfig(
            iterations=120, burn_in=20, avg_window=100, structure="chain"
        )
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        bundles = []
        for path in paths:
            bundle = train_bundle(corpus, config, seed_key=[42], jobs=1)
            save_bundle(path, bundle)
            bundles.append(bundle)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        holdout = build_synthetic_corpus(models, per_class=50, seed=78)
        assert len(holdout.instances) == 100
        loaded = load_bundle(paths[0])
        fitted = [(name, bundles[0].models[name]) for name in bundles[0].classes]
        reloaded = [(name, loaded.models[name]) for name in loaded.classes]
        for inst in holdout.instances:
            a = predict(fitted, inst, holdout.vocab)
            b = predict(reloaded, inst, holdout.vocab)
            assert a.label == b.label
            assert a.scores == b.scores  # exact float equality
            assert a.margin == b.margin


def test_criterion_12_relation_smoothing_exactness():
    with criterion(12, "counts [3,1,0] with rho=1e-5 give the exact smoothed "
                       "distribution within 1e-9"):
        key = (1, 2, RelationSet.of(B, M, O).bits)
        phi = estimate_phi({key: np.array([3.0, 1.0, 0.0])}, rho=1e-5)
        rho = Fraction(1, 100_000)
        total = Fraction(4) + 3 * rho
        expected = [(Fraction(3) + rho) / total,
                    (Fraction(1) + rho) / total,
                    rho / total]
        for got, want in zip(phi[key], expected):
            assert abs(got - float(want)) < 1e-9
