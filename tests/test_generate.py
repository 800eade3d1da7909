"""Generative model: table seating, node/network sampling, realization."""

from __future__ import annotations

import dataclasses
import gc
import math
import re
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibgn import (
    BaseRelation,
    ClassModel,
    FULL_SET,
    Instance,
    Interval,
    IntervalNetwork,
    RelationSet,
    StructureMask,
    check_consistency,
    compute_constraint,
    count_seat,
    crp_table_distribution,
    instance_to_network,
    realize_timestamps,
    relation_of,
    resolution_order,
    sample_instance,
    sample_network,
    scan_link_constraints,
    seat_next,
)
from ibgn.errors import EmptyConstraint, Unrealizable
from ibgn import generate
from ibgn.generate import _draw, draw_size
from conftest import (
    is_canonical, phi_is_float_tuples, random_actions_instance, random_instance, random_model, two_class_models,
    uniform_model,
)


def reference_realize(network: IntervalNetwork, label=None) -> Instance:
    """Oracle for ``realize_timestamps``: the same lexicographic search, but
    every placement is checked against the whole constraint matrix (the
    singleton of each fixed relation, the composed constraint elsewhere)."""
    k = network.size
    x = {}
    for n in range(1, k):
        for n_prime in range(n - 1, -1, -1):
            constraint = compute_constraint(x, n_prime, n)
            relation = network.relations.get((n_prime, n))
            x[(n_prime, n)] = RelationSet.of(relation) if relation is not None else constraint
    candidates = list(combinations(range(2 * k + 1), 2))
    chosen = []

    def search(n):
        if n == k:
            return True
        for candidate in candidates:
            if chosen and candidate < chosen[-1]:
                continue
            if all(relation_of(chosen[p], candidate) in x[(p, n)] for p in range(n)):
                chosen.append(candidate)
                if search(n + 1):
                    return True
                chosen.pop()
        return False

    if not search(0):
        raise RuntimeError("no integer realization found for a consistent network")
    intervals = tuple(
        Interval(action=network.actions[n], start=float(s), end=float(e))
        for n, (s, e) in enumerate(chosen)
    )
    return Instance(label=label, intervals=intervals)


def scan_place(chosen, fixed, candidates, start, accepted) -> bool:
    """Oracle for ``generate._place``: the depth-first scan of every grid
    candidate from the previous placement on, checking each of node ``n``'s
    fixed relations ``(p, relation)`` by ``relation_of``; every placement it
    accepts is appended to ``accepted``."""
    n = len(chosen)
    if n == len(fixed):
        return True
    for index in range(start, len(candidates)):
        candidate = candidates[index]
        if all(relation_of(chosen[p], candidate) == relation for p, relation in fixed[n]):
            chosen.append(candidate)
            accepted.append(candidate)
            if scan_place(chosen, fixed, candidates, index, accepted):
                return True
            chosen.pop()
    return False


def traced_search(monkeypatch, network):
    """``realize_timestamps(network)`` (or ``Unrealizable``) and the placements
    its search accepted, in order, recorded on every recursive ``_place`` call."""
    place, accepted = generate._place, []

    def recording(chosen, fixed):
        if chosen:
            accepted.append(chosen[-1])
        return place(chosen, fixed)

    monkeypatch.setattr(generate, "_place", recording)
    try:
        result = realize_timestamps(network)
    except Unrealizable:
        result = Unrealizable
    finally:
        monkeypatch.setattr(generate, "_place", place)
    return result, accepted


def frozen_seat(occupancy, alpha, rng: np.random.Generator) -> int:
    """Oracle for ``seat_next``: one uniform against the normalized seating
    distribution, kept here so the oracle does not follow ``seat_next``."""
    table = _draw(crp_table_distribution(occupancy, alpha), rng.random())
    count_seat(occupancy, table)
    return table


class LazyConstraints(dict):
    """Constraint entries by node pair, for the oracle below: reading a missing
    pair fills the missing entries inside it in resolution order, so reading a
    link composes every pair its constraint depends on that is not yet stored."""

    def __missing__(self, pair):
        for inner in resolution_order(*pair):
            if inner not in self:
                self[inner] = compute_constraint(self, *inner)
        return self[pair]


def reference_sample_network(model: ClassModel, k: int, rng: np.random.Generator) -> IntervalNetwork:
    """Oracle for ``sample_network``: the all-pairs walk in resolution order,
    seating node ``n`` at ``(n - 1, n)`` and drawing each pair the mask links
    under the constraint a lazy store composes when the link reads it."""
    occupancy = []

    def next_action():
        return _draw(model.theta[frozen_seat(occupancy, model.alpha, rng)], rng.random()) + 1

    actions = [next_action()]
    x = LazyConstraints()
    relations = {}
    for pair in resolution_order(0, k - 1):
        n_prime, n = pair
        if n_prime == n - 1:
            actions.append(next_action())
        if pair in model.structure:
            constraint = compute_constraint(x, n_prime, n)
            members = constraint.members
            probs = model.phi.get((actions[n_prime], actions[n], constraint.bits))
            if probs is None:
                probs = np.full(len(members), 1.0 / len(members))
            relation = members[_draw(probs, rng.random())]
            x[pair] = RelationSet.of(relation)
            relations[pair] = relation
    return IntervalNetwork(actions=tuple(actions), relations=relations)


# every fixed relation lies inside its constraint, but no placement exists
_o, _f, _m, _c = BaseRelation.OVERLAPS, BaseRelation.FINISHED_BY, BaseRelation.MEETS, BaseRelation.CONTAINS
UNREALIZABLE = IntervalNetwork(
    actions=(1,) * 6,
    relations={(1, 2): _o, (0, 2): _f, (1, 3): _m, (2, 4): _c, (1, 4): _m, (1, 5): _m, (0, 5): _m},
)


def oracle_networks(count_per_kind: int = 80):
    """Networks with k <= 7: sampled from chain-mask and full-mask models, and
    observed networks of random instances kept only on a random mask."""
    rng = np.random.default_rng(404)
    for index in range(count_per_kind):
        k_star = int(rng.integers(2, 8))
        k = int(rng.integers(1, k_star + 1))
        for structure in ("chain", "full"):
            model = random_model(np.random.default_rng([404, index]), vocab_size=3, k_star=k_star)
            mask = StructureMask.chain(k_star) if structure == "chain" else StructureMask.full(k_star)
            yield sample_network(dataclasses.replace(model, structure=mask), k, rng)
        observed = instance_to_network(random_actions_instance(rng, k, vocab_size=3))
        kept = {pair: rel for pair, rel in observed.relations.items() if rng.random() < 0.5}
        yield IntervalNetwork(actions=observed.actions, relations=kept)


class FixedUniforms:
    """Stands in for a ``numpy.random.Generator``: ``random`` hands out the given values in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        taken, self.values = self.values[:size], self.values[size:]
        return np.array(taken)


def wide_vocab_model(rng: np.random.Generator, vocab_size: int = 60, k_star: int = 12) -> ClassModel:
    """A model with long theta rows, about a third of their entries zero, and empty phi."""
    theta = rng.random((k_star, vocab_size)) * (rng.random((k_star, vocab_size)) < 0.7)
    theta[:, 0] += 0.01  # no row is all zeros
    return ClassModel(
        k_star=k_star,
        ell=k_star,
        alpha=rng.random(k_star) + 0.5,
        beta=np.full((k_star, vocab_size), 0.5),
        theta=theta / theta.sum(axis=1, keepdims=True),
        structure=StructureMask.of([]),
        phi={},
        action_vocab=tuple(f"act{i}" for i in range(vocab_size)),
        size_histogram={k_star: 1},
    )


class TestCrpTableDistribution:
    def test_worked_example(self):
        probs = crp_table_distribution(
            occupancy=np.array([2.0]), alpha=np.array([1.0, 1.0])
        )
        np.testing.assert_allclose(probs, [2.0 / 3.0, 1.0 / 3.0])

    def test_first_draw_always_opens_first_table(self):
        probs = crp_table_distribution(
            occupancy=np.array([], dtype=float), alpha=np.array([1.0, 2.0])
        )
        np.testing.assert_allclose(probs, [1.0])

    def test_budget_reached_renormalizes_occupied(self):
        probs = crp_table_distribution(
            occupancy=np.array([3.0, 1.0]), alpha=np.array([1.0, 1.0])
        )
        np.testing.assert_allclose(probs, [0.75, 0.25])

    def test_per_table_strengths(self):
        # occupied table weight (count)/(pos-1+a_z); fresh weight a_new/(pos-1+a_new)
        probs = crp_table_distribution(
            occupancy=np.array([2.0]), alpha=np.array([0.5, 4.0])
        )
        raw = np.array([2.0 / (2 + 0.5), 4.0 / (2 + 4.0)])
        np.testing.assert_allclose(probs, raw / raw.sum())

    def test_more_occupied_tables_than_budget_rejected(self):
        with pytest.raises(ValueError):
            crp_table_distribution([1.0, 1.0, 1.0], np.ones(2))

    @given(
        counts=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        extra=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_sums_to_one(self, counts, extra):
        budget = len(counts) + extra
        occ = np.array(counts, dtype=float)
        alpha = np.linspace(0.5, 2.0, budget)
        probs = crp_table_distribution(occupancy=occ, alpha=alpha)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        expected_len = min(len(counts) + 1, budget)
        assert len(probs) == expected_len


class TestDraw:
    WEIGHTS = [1.0, 2.0, 1.0]  # cumulative 1, 3, 4

    def test_first_index_whose_cumulative_weight_exceeds_the_threshold(self):
        for threshold, index in ((0.0, 0), (0.999, 0), (1.0, 1), (2.999, 1), (3.0, 2), (3.999, 2)):
            assert _draw(self.WEIGHTS, threshold) == index, threshold

    def test_threshold_at_or_past_the_total_gives_the_last_index(self):
        for threshold in (4.0, 4.5, 1e300, math.inf):
            assert _draw(self.WEIGHTS, threshold) == 2
        assert _draw([5.0], 0.0) == _draw([5.0], 7.0) == 0

    def test_power_of_two_scaling_keeps_the_index(self):
        # scaling weights and total by 2**e is exact, so the scan compares the same values
        normalized = np.asarray(self.WEIGHTS) / 4.0
        rng = np.random.default_rng(17)
        for r in rng.random(200).tolist() + [0.0, 0.25, 0.75, 0.99999]:
            want = _draw(self.WEIGHTS, r * sum(self.WEIGHTS))
            for exponent in (-40, -3, 1, 9, 60):
                scaled = [math.ldexp(w, exponent) for w in self.WEIGHTS]
                assert _draw(scaled, r * sum(scaled)) == want, (r, exponent)
            assert _draw(normalized, r) == want, r

    def test_sampled_action_matches_the_scan_at_cumulative_boundaries(self):
        """A node's action, drawn by bisecting its table's cumulative theta row,
        is the one ``_draw`` picks on the row at every exact cumulative boundary,
        just below it, and at thresholds at or past the row's total."""
        for seed in range(60):
            model = wide_vocab_model(np.random.default_rng([23, seed]), vocab_size=seed + 1, k_star=1)
            row, cumulative = model.theta[0].tolist(), model.theta_cumulative[0]
            total = cumulative[-1] + row[-1] if cumulative else row[-1]
            thresholds = [0.0, total, math.nextafter(total, math.inf), 1.0, 2.0, math.inf]
            thresholds += cumulative + [math.nextafter(c, -math.inf) for c in cumulative]
            for threshold in thresholds:
                net = sample_network(model, 1, FixedUniforms([0.0, threshold]))
                assert net.actions == (_draw(row, threshold) + 1,), (seed, threshold)


class TestSeatNext:
    def test_draws_from_the_prior_and_counts_the_seat(self):
        alpha = np.array([1.0, 2.0, 0.5])
        occupancy = [2.0]
        probs = crp_table_distribution(occupancy, alpha)
        rng = np.random.default_rng(5)
        r = np.random.default_rng(5).random()
        table = seat_next(occupancy, alpha, rng.random())
        assert table == (0 if r < probs[0] else 1)
        assert sum(occupancy) == 3.0 and occupancy[table] >= 1.0

    def test_first_seat_opens_the_first_table(self):
        occupancy = []
        assert seat_next(occupancy, np.ones(2), np.random.default_rng(0).random()) == 0
        assert occupancy == [1.0]

    def test_matches_the_frozen_normalized_draw(self):
        """Drawing at one uniform times the weights' sum seats every node where
        the normalized draw does, and consumes the same uniforms."""
        picks = np.random.default_rng(808)
        fast, frozen = np.random.default_rng(809), np.random.default_rng(809)
        for _ in range(20_000):
            ell = int(picks.integers(1, 17))
            alpha = np.exp(picks.uniform(math.log(0.05), math.log(50.0), ell))
            occupied = int(picks.integers(0, ell + 1))
            occupancy = picks.integers(1, 6, occupied).astype(float).tolist()
            mine, theirs = list(occupancy), list(occupancy)
            assert seat_next(mine, alpha.tolist(), fast.random()) == frozen_seat(theirs, alpha, frozen)
            assert mine == theirs
        assert fast.bit_generator.state == frozen.bit_generator.state


class TestSampleInstance:
    def test_draws_size_then_network_then_timestamps(self):
        model = random_model(np.random.default_rng(31), vocab_size=3, k_star=5)
        for size in (None, 3):
            rng = np.random.default_rng(8)
            k = draw_size(model, rng) if size is None else size
            want = realize_timestamps(sample_network(model, k, rng), label="c")
            assert sample_instance(model, np.random.default_rng(8), label="c", size=size) == want


class TestSampleNetwork:
    def test_relations_only_on_structure_links(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, vocab_size=3, k_star=5)
        model = dataclasses.replace(model, structure=StructureMask.chain(5))
        net = sample_network(model, k=5, rng=rng)
        assert set(net.relations) == set(StructureMask.chain(5).links)

    def test_sampled_relations_respect_constraints(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, vocab_size=3, k_star=6)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            net = sample_network(model, k=k, rng=rng)
            for _, _, constraint, rel in scan_link_constraints(realize_timestamps(net), model.structure):
                assert rel in constraint

    def test_full_structure_networks_are_consistent(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, vocab_size=3, k_star=5)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            net = sample_network(model, k=k, rng=rng)
            assert check_consistency(net).consistent

    def test_k_beyond_budget_rejected(self):
        rng = np.random.default_rng(3)
        model = uniform_model(k_star=3)
        with pytest.raises(ValueError):
            sample_network(model, k=4, rng=rng)

    def test_one_hot_theta_forces_actions(self):
        models = two_class_models(k_star=4)
        model = models["assemble"]
        rng = np.random.default_rng(4)
        net = sample_network(model, k=4, rng=rng)
        # actions 1/2 carry ~all theta mass in this class
        assert set(net.actions) <= {1, 2}

    def test_matches_all_pairs_oracle(self):
        """Networks, failures and the rng state afterwards equal the all-pairs
        walk's, under chain, full, empty and random masks (links may reach
        past the sampled size), and on wide-vocabulary models (M = 60, empty
        phi, chain and empty masks), whose long theta rows the sampler bisects."""
        rng = np.random.default_rng(2026)
        outcomes = Counter()

        def compare(masked, k):
            seed = int(rng.integers(2**32))
            results = []
            for sample in (sample_network, reference_sample_network):
                draws = np.random.default_rng(seed)
                try:
                    net = sample(masked, k, draws)
                    result = (net.actions, net.relations)
                except EmptyConstraint:
                    result = "empty constraint"
                results.append((result, draws.bit_generator.state))
            assert results[0] == results[1]
            outcomes[results[0][0] == "empty constraint"] += 1

        for index in range(200):
            k_star = int(rng.integers(1, 9))
            model = random_model(np.random.default_rng([2026, index]), vocab_size=3, k_star=k_star)
            random_mask = StructureMask.of(
                (a, b) for a in range(k_star) for b in range(a + 1, k_star) if rng.random() < 0.5
            )
            for mask in (
                StructureMask.chain(k_star), StructureMask.full(k_star), StructureMask.of([]), random_mask
            ):
                masked = dataclasses.replace(model, structure=mask)
                for _ in range(2):
                    compare(masked, int(rng.integers(1, k_star + 1)))
        for index in range(30):
            wide = wide_vocab_model(np.random.default_rng([2027, index]))
            for mask in (StructureMask.chain(wide.k_star), StructureMask.of([])):
                for _ in range(2):
                    compare(dataclasses.replace(wide, structure=mask), int(rng.integers(1, wide.k_star + 1)))
        assert outcomes[False] >= 1500 and outcomes[True] > 0

    @pytest.mark.parametrize(
        "index, k, links, seed",
        [
            (816, 6, [(0, 2), (1, 2), (1, 3), (1, 5), (2, 4), (3, 4)], 3164257828),
            (2932, 6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (3, 5), (4, 5)], 4256848299),
        ],
    )
    def test_empty_pair_before_a_link_leaves_its_node_seated(self, index, k, links, seed):
        """The link is the first to end at its node, and a non-link pair it reads
        comes out empty: the sampler seats the node before it composes that pair,
        as the all-pairs walk does, so the rng ends where the oracle's does."""
        model = random_model(np.random.default_rng([7, index]), vocab_size=3, k_star=k)
        model = dataclasses.replace(model, structure=StructureMask.of(links))
        states = []
        for sample in (sample_network, reference_sample_network):
            draws = np.random.default_rng(seed)
            with pytest.raises(EmptyConstraint):
                sample(model, k, draws)
            states.append(draws.bit_generator.state)
        assert states[0] == states[1]

    def test_deterministic_under_seed(self):
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        model = random_model(np.random.default_rng(5), vocab_size=4, k_star=5)
        net1 = sample_network(model, k=5, rng=rng1)
        net2 = sample_network(model, k=5, rng=rng2)
        assert net1.actions == net2.actions
        assert net1.relations == net2.relations


class TestRealizeTimestamps:
    def test_round_trip_preserves_relations(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, vocab_size=3, k_star=6)
        for _ in range(60):
            k = int(rng.integers(1, 7))
            net = sample_network(model, k=k, rng=rng)
            inst = realize_timestamps(net, label="x")
            assert inst.label == "x"
            assert len(inst) == k
            assert is_canonical(inst)
            realized = instance_to_network(inst)
            for (i, j), rel in net.relations.items():
                assert realized.relation(i, j) is rel

    def test_endpoints_on_small_integer_grid(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, vocab_size=3, k_star=5)
        net = sample_network(model, k=5, rng=rng)
        inst = realize_timestamps(net)
        for iv in inst.intervals:
            assert iv.start == int(iv.start) and iv.end == int(iv.end)
            assert 0 <= iv.start < iv.end <= 10

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, vocab_size=3, k_star=4)
        net = sample_network(model, k=4, rng=rng)
        assert realize_timestamps(net) == realize_timestamps(net)

    def test_matches_full_matrix_oracle(self):
        networks = list(oracle_networks())
        assert len(networks) >= 200
        for net in networks:
            assert realize_timestamps(net, label="x") == reference_realize(net, label="x")

    def test_inconsistent_network_raises_before_search(self, monkeypatch):
        b, eq = BaseRelation.BEFORE, BaseRelation.EQUALS
        emptied = IntervalNetwork(
            actions=(1, 1, 1, 1),
            relations={(0, 1): b, (1, 2): b, (0, 2): eq, (2, 3): eq},
        )
        with pytest.raises(EmptyConstraint):
            reference_realize(emptied)
        # the outer relation lies outside the constraint its inner links compose
        contradicted = IntervalNetwork(actions=(1, 1, 1), relations={(0, 1): b, (1, 2): b, (0, 2): eq})
        with pytest.raises(RuntimeError):
            reference_realize(contradicted)
        meets = {(n, n + 1): BaseRelation.MEETS for n in range(7)}
        meets_chain = IntervalNetwork(actions=(1,) * 8, relations={**meets, (0, 7): eq})
        # one skipped node is enough: the walk gives (0, 2) the constraint {b}
        star = IntervalNetwork(actions=(1, 1, 1), relations={(0, 1): b, (0, 2): eq})
        searches = []
        monkeypatch.setattr(generate, "_place", lambda *arguments: searches.append(arguments))
        for net in (emptied, contradicted, meets_chain, star):
            with pytest.raises(EmptyConstraint):
                realize_timestamps(net)
        assert searches == []  # no search started

    def test_box_admits_exactly_the_placements_of_its_relation(self, monkeypatch):
        """For a placed interval p on the grid 0 .. 10 and each relation r, the
        search offers the next node exactly the (s, e) >=lex p with
        relation_of(p, (s, e)) == r, in lexicographic order."""
        place, offered = generate._place, []

        def offer(chosen, fixed):
            offered.append(chosen[-1])
            return False

        monkeypatch.setattr(generate, "_place", offer)
        grid = list(combinations(range(11), 2))
        for placed in grid:
            for relation in BaseRelation:
                offered.clear()
                fixed = [[], [(0, *generate._SIGNS[relation])], [], [], []]  # five nodes: grid 0 .. 10
                assert place([placed], fixed) is False
                want = [iv for iv in grid if iv >= placed and relation_of(placed, iv) is relation]
                assert offered == want, (placed, relation)

    def test_search_matches_scan_oracle(self, monkeypatch):
        """The bounded search returns the scan's placement (or fails like it) after
        accepting the same placements in the same order, on oracle networks, on
        W3-style chain and full models with k = 8 and 12, and on an unrealizable network."""
        def w3_networks():
            rng = np.random.default_rng(1818)
            for index, (structure, k) in enumerate((("chain", 8), ("full", 8), ("chain", 12), ("full", 12))):
                model = random_model(np.random.default_rng([1818, index]), vocab_size=4, k_star=k)
                mask = StructureMask.chain(k) if structure == "chain" else StructureMask.full(k)
                for _ in range(8):
                    yield sample_network(dataclasses.replace(model, structure=mask), k, rng)

        outcomes = Counter()
        for net in [*oracle_networks(), *w3_networks(), UNREALIZABLE]:
            try:
                result, accepted = traced_search(monkeypatch, net)
            except EmptyConstraint:
                outcomes["empty constraint"] += 1
                continue
            k = net.size
            fixed = [[] for _ in range(k)]
            for (p, n), relation in net.relations.items():
                fixed[n].append((p, relation))
            chosen, scanned = [], []
            if scan_place(chosen, fixed, list(combinations(range(2 * k + 1), 2)), 0, scanned):
                assert result.intervals == tuple(
                    Interval(net.actions[n], float(s), float(e)) for n, (s, e) in enumerate(chosen)
                )
                outcomes["realized"] += 1
            else:
                assert result is Unrealizable
                outcomes["unrealizable"] += 1
            assert accepted == scanned
        assert outcomes["realized"] >= 200 and outcomes["unrealizable"] >= 1

    def test_relation_outside_the_node_pairs_raises(self):
        b, m = BaseRelation.BEFORE, BaseRelation.MEETS
        for relations, stray in (
            ({(0, 5): b, (1, 0): m}, (0, 5)),
            ({(1, 0): m}, (1, 0)),
            ({(0, 1): m, (1, 1): b}, (1, 1)),
            ({(-1, 1): b}, (-1, 1)),
        ):
            with pytest.raises(ValueError, match=re.escape(str(stray))):
                realize_timestamps(IntervalNetwork((1, 1), relations))
        # the network's shape is checked before its consistency
        eq = BaseRelation.EQUALS
        stray_and_inconsistent = {(0, 1): b, (1, 2): b, (0, 2): eq, (3, 4): m}
        with pytest.raises(ValueError, match=re.escape("(3, 4)")):
            realize_timestamps(IntervalNetwork((1, 1, 1), stray_and_inconsistent))

    def test_chains_never_empty_the_walk_and_round_trip(self):
        """Every chain of forward relations with k = 2..6 passes the all-pairs
        walk that realization skips for it, and realizes its own relations."""
        count = 0
        for k in range(2, 7):
            for chain in product(BaseRelation, repeat=k - 1):
                relations = {(n, n + 1): relation for n, relation in enumerate(chain)}
                x = {}
                for pair in resolution_order(0, k - 1):
                    x[pair] = compute_constraint(x, *pair)  # raises if it empties
                    if pair in relations:
                        assert relations[pair] in x[pair]
                        x[pair] = RelationSet.of(relations[pair])
                realized = instance_to_network(realize_timestamps(IntervalNetwork((1,) * k, relations)))
                assert {pair: realized.relations[pair] for pair in relations} == relations
                count += 1
        assert count == 19_607

    def test_full_network_realizes_the_same_in_any_relation_order(self):
        rng = np.random.default_rng(1919)
        for k in range(2, 9):
            for _ in range(10):
                net = instance_to_network(random_instance(rng, k))
                reversed_net = IntervalNetwork(net.actions, dict(reversed(list(net.relations.items()))))
                assert list(reversed_net.relations) != list(net.relations) or k == 2
                assert realize_timestamps(reversed_net) == realize_timestamps(net)

    def test_unrealizable_network_fails_like_oracle(self):
        with pytest.raises(RuntimeError):
            reference_realize(UNREALIZABLE)
        with pytest.raises(Unrealizable):
            realize_timestamps(UNREALIZABLE)

    def test_leaves_no_reference_cycles(self):
        model = random_model(np.random.default_rng(14), vocab_size=3, k_star=6)
        rng = np.random.default_rng(15)
        networks = [sample_network(model, k=6, rng=rng) for _ in range(50)]
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for net in networks:
                realize_timestamps(net)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestClassModelValidation:
    def test_valid_model_passes(self):
        rng = np.random.default_rng(21)
        random_model(rng).validate()

    def test_theta_rows_must_normalize(self):
        model = uniform_model()
        with pytest.raises(ValueError):
            dataclasses.replace(model, theta=model.theta * 2.0)

    @pytest.mark.parametrize("excess", [1e-7, 9e-6, -1e-7])
    def test_theta_rows_sum_to_1_within_the_phi_tolerance(self, excess):
        model = uniform_model(vocab=("a", "b"))
        theta = model.theta.copy()
        theta[0, 0] += excess
        with pytest.raises(ValueError) as excinfo:
            dataclasses.replace(model, theta=theta)
        assert str(excinfo.value) == "theta rows must sum to 1"
        theta[0, 0] = 0.5 + 5e-10
        assert dataclasses.replace(model, theta=theta).theta[0, 0] == 0.5 + 5e-10

    @pytest.mark.parametrize(
        "k_star, ell, message",
        [
            (4.0, 4, "table budget 4 must be an integer equal to k_star 4.0 >= 1"),
            (4, 4.0, "table budget 4.0 must be an integer equal to k_star 4 >= 1"),
            (True, True, "table budget True must be an integer equal to k_star True >= 1"),
            ("4", 4, "table budget 4 must be an integer equal to k_star '4' >= 1"),
        ],
        ids=["k_star_float", "ell_float", "bool", "k_star_text"],
    )
    def test_table_budget_must_be_an_integer(self, k_star, ell, message):
        with pytest.raises(ValueError) as excinfo:
            dataclasses.replace(uniform_model(k_star=4), k_star=k_star, ell=ell)
        assert str(excinfo.value) == message

    def test_numpy_integers_are_integers(self):
        model = uniform_model(k_star=4)
        phi = {(np.int64(1), np.int32(2), FULL_SET.bits): [1 / 7] * 7}
        assert dataclasses.replace(model, k_star=np.int64(4), ell=np.int16(4), phi=phi).k_star == 4

    def test_budget_must_match_max_size(self):
        model = uniform_model()
        with pytest.raises(ValueError):
            dataclasses.replace(model, ell=model.k_star + 1)

    def test_phi_support_length_checked(self):
        model = uniform_model()
        bad_phi = {(1, 1, FULL_SET.bits): np.array([1.0])}
        with pytest.raises(ValueError):
            dataclasses.replace(model, phi=bad_phi)

    def test_phi_rows_must_normalize(self):
        model = uniform_model()
        bad_phi = {(1, 1, FULL_SET.bits): np.full(7, 0.2)}
        with pytest.raises(ValueError):
            dataclasses.replace(model, phi=bad_phi)

    @pytest.mark.parametrize("kind", [np.array, list, tuple])
    @pytest.mark.parametrize(
        "key, vec, message",
        [
            ((1, 1, FULL_SET.bits), [1.0], "phi vector for (1, 1, 127) has wrong support"),
            ((1, 1, FULL_SET.bits), [math.nan] + [1 / 6] * 6, "phi vector for (1, 1, 127) must be finite"),
            ((1, 1, FULL_SET.bits), [-0.2, 0.2] + [0.2] * 5, "phi vector for (1, 1, 127) has wrong support"),
            ((1, 1, FULL_SET.bits), [0.2] * 7, "phi vector for (1, 1, 127) must sum to 1"),
            ((3, 1, FULL_SET.bits), [1 / 7] * 7, "phi key (3, 1) outside the vocabulary"),
            ((1.0, 1, FULL_SET.bits), [1 / 7] * 7, "phi key (1.0, 1) outside the vocabulary"),
            ((1, True, FULL_SET.bits), [1 / 7] * 7, "phi key (1, True) outside the vocabulary"),
            ((1, 1, 0), [], "phi key (1, 1, 0) has constraint bits outside 1..127"),
            ((1, 1, 128), [1.0], "phi key (1, 1, 128) has constraint bits outside 1..127"),
        ],
        ids=[
            "wrong_length", "nan", "negative", "unnormalized", "key_past_vocab", "key_float", "key_bool",
            "bits_0", "bits_128",
        ],
    )
    def test_phi_messages(self, kind, key, vec, message):
        with pytest.raises(ValueError) as excinfo:
            dataclasses.replace(uniform_model(), phi={key: kind(vec)})
        assert str(excinfo.value) == message

    def test_phi_held_as_float_tuples(self):
        vec = np.full(7, 1 / 7)
        model = dataclasses.replace(uniform_model(), phi={(1, 2, FULL_SET.bits): vec})
        assert phi_is_float_tuples(model)
        assert model.phi[(1, 2, FULL_SET.bits)] == tuple(vec.tolist())
        trained = model.relation_probs(1, 2, FULL_SET)
        unseen = model.relation_probs(2, 1, FULL_SET)
        assert type(trained) is tuple and type(unseen) is tuple
        assert unseen == (1 / 7,) * 7

    def test_size_histogram_bounds(self):
        model = uniform_model()
        with pytest.raises(ValueError):
            dataclasses.replace(model, size_histogram={0: 3})
        with pytest.raises(ValueError):
            dataclasses.replace(model, size_histogram={model.k_star + 1: 3})
        with pytest.raises(ValueError):
            dataclasses.replace(model, size_histogram={})

    def test_structure_links_within_budget(self):
        model = uniform_model(k_star=3)
        with pytest.raises(ValueError):
            dataclasses.replace(model, structure=StructureMask.of([(0, 3)]))

    @pytest.mark.parametrize("vocab", [("a", "a"), ("a", ""), ("a", 2)], ids=["repeated", "empty_name", "not_a_string"])
    def test_vocabulary_is_distinct_non_empty_strings(self, vocab):
        with pytest.raises(ValueError) as excinfo:
            dataclasses.replace(uniform_model(vocab=("a", "b")), action_vocab=vocab)
        assert str(excinfo.value) == f"action vocabulary must be distinct non-empty strings, not {list(vocab)}"

    def test_action_lookup(self):
        model = uniform_model(vocab=("lift", "drop"))
        assert model.action_id("lift") == 1
        assert model.action_id("drop") == 2
        assert model.action_id("spin") is None
        assert model.M == 2
