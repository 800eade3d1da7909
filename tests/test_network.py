"""Qualitative network construction, consistency, constraint propagation."""

from __future__ import annotations

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibgn import (
    BaseRelation,
    FULL_SET,
    Instance,
    Interval,
    IntervalNetwork,
    RelationSet,
    StructureMask,
    check_consistency,
    compose_sets,
    compute_constraint,
    instance_to_network,
    realize_timestamps,
    relation_of,
    resolution_order,
    scan_link_constraints,
)
from ibgn import network as network_module
from ibgn.errors import EmptyConstraint, OrderViolation
from conftest import is_canonical, random_actions_instance, random_instance

B, M, O, S, C, F, EQ = BaseRelation


def make_instance(*triples, label=None):
    return Instance(
        label=label,
        intervals=tuple(Interval(a, float(s), float(e)) for a, s, e in triples),
    )


class TestIntervalAndInstance:
    def test_canonicalized_sorts_by_start_then_end(self):
        inst = make_instance((1, 5, 6), (2, 0, 4), (3, 0, 2))
        ordered = inst.canonicalized()
        assert [iv.times for iv in ordered.intervals] == [(0.0, 2.0), (0.0, 4.0), (5.0, 6.0)]
        assert is_canonical(inst.canonicalized())


class TestInstanceToNetwork:
    def test_known_relations(self):
        inst = make_instance((1, 0, 2), (2, 2, 3), (3, 2, 5))
        net = instance_to_network(inst)
        assert net.relation(0, 1) is M
        assert net.relation(0, 2) is M
        assert net.relation(1, 2) is S

    def test_relation_of_pair_past_the_last_node_rejected(self):
        with pytest.raises(IndexError):
            IntervalNetwork((1, 2)).relation(1, 2)

    def test_non_canonical_rejected(self):
        inst = make_instance((1, 5, 6), (2, 0, 1))
        with pytest.raises(OrderViolation):
            instance_to_network(inst)


class TestConsistency:
    @given(st.integers(0, 10_000), st.integers(2, 7))
    @settings(max_examples=60, deadline=None)
    def test_timestamp_networks_are_consistent(self, seed, k):
        rng = np.random.default_rng(seed)
        net = instance_to_network(random_instance(rng, k))
        report = check_consistency(net)
        assert report.consistent
        assert report.violations == ()

    def test_corrupted_triangle_is_flagged(self):
        inst = make_instance((1, 0, 1), (2, 2, 3), (3, 4, 5))
        net = instance_to_network(inst)
        # b compose b = {b}; force the direct relation (0,2) to contains
        bad = dict(net.relations)
        bad[(0, 2)] = C
        corrupted = type(net)(actions=net.actions, relations=bad)
        report = check_consistency(corrupted)
        assert not report.consistent
        assert (0, 1, 2) in report.violations

    def test_partial_networks_only_check_complete_triangles(self):
        inst = make_instance((1, 0, 1), (2, 2, 3), (3, 4, 5))
        net = instance_to_network(inst)
        partial = type(net)(
            actions=net.actions,
            relations={(0, 1): net.relation(0, 1), (1, 2): net.relation(1, 2)},
        )
        assert check_consistency(partial).consistent

    def test_relation_outside_the_network_pairs_raises(self):
        # (0, 5) lies past the last node; realize_timestamps rejects the same network
        net = IntervalNetwork((1, 1), {(0, 5): B, (1, 0): M})
        message = "relation on node pair (0, 5) outside the pairs of a 2-node network"
        for check in (check_consistency, realize_timestamps):
            with pytest.raises(ValueError) as excinfo:
                check(net)
            assert str(excinfo.value) == message


class TestComputeConstraint:
    def test_adjacent_is_unconstrained(self):
        x = {}
        assert compute_constraint(x, 2, 3) == FULL_SET

    def test_two_hop_is_composition(self):
        x = {(0, 1): RelationSet.of(M), (1, 2): RelationSet.of(S)}
        assert compute_constraint(x, 0, 2) == compose_sets(
            RelationSet.of(M), RelationSet.of(S)
        )

    def test_intersects_over_all_midpoints(self):
        x = {
            (0, 1): RelationSet.of(B),
            (1, 3): RelationSet.of(B),
            (0, 2): RelationSet.of(O),
            (2, 3): RelationSet.of(F),
        }
        expected = compose_sets(RelationSet.of(B), RelationSet.of(B)) & compose_sets(
            RelationSet.of(O), RelationSet.of(F)
        )
        assert compute_constraint(x, 0, 3) == expected

    def test_contradictory_midpoints_raise(self):
        x = {
            (0, 1): RelationSet.of(B),
            (1, 3): RelationSet.of(B),  # via node 1: {b}
            (0, 2): RelationSet.of(C),
            (2, 3): RelationSet.of(C),  # via node 2: {c}
        }
        with pytest.raises(EmptyConstraint):
            compute_constraint(x, 0, 3)

    def test_pair_not_in_order_rejected(self):
        with pytest.raises(ValueError):
            compute_constraint({}, 2, 2)


class TestStructureMask:
    def test_chain(self):
        mask = StructureMask.chain(4)
        assert mask.sorted_links() == [(0, 1), (1, 2), (2, 3)]

    def test_full(self):
        mask = StructureMask.full(4)
        assert len(mask) == 6
        assert (0, 3) in mask

    def test_of_and_validation(self):
        mask = StructureMask.of([(0, 2), (0, 1)])
        assert mask.sorted_links() == [(0, 1), (0, 2)]
        with pytest.raises(ValueError):
            StructureMask.of([(2, 1)])
        with pytest.raises(ValueError):
            StructureMask.of([(1, 1)])
        with pytest.raises(ValueError):
            StructureMask.of([(-1, 2)])

    def test_chain_of_one_is_empty(self):
        assert len(StructureMask.chain(1)) == 0

    def test_plan_links_follow_resolution_order(self):
        mask = StructureMask.of([(0, 3), (2, 3), (0, 1), (5, 6)])
        assert [link for link, _ in mask.plan] == [(0, 1), (2, 3), (0, 3), (5, 6)]
        assert mask.plan is mask.plan  # computed once
        assert [link for link, _ in StructureMask.full(5).plan] == list(resolution_order(0, 4))
        assert StructureMask.of([]).plan == ()

    def test_plan_lists_each_inner_pair_once_before_its_first_link(self):
        """Every pair inside some link's span appears once: as a link, or in the
        list of the first link whose span holds it; and after every pair inside
        its own span, so each entry it composes is already resolved."""
        rng = np.random.default_rng(19)
        masks = [StructureMask.chain(7), StructureMask.full(7), StructureMask.of([])]
        masks += [
            StructureMask.of((a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < 0.3)
            for k in rng.integers(2, 10, size=60).tolist()
        ]
        assert StructureMask.of([(0, 1), (2, 3), (0, 3)]).plan == (
            ((0, 1), ()), ((2, 3), ()), ((0, 3), ((1, 2), (0, 2), (1, 3))),
        )
        for mask in masks:
            links = [link for link, _ in mask.plan]
            walk = [pair for link, inner in mask.plan for pair in (*inner, link)]
            assert len(set(walk)) == len(walk)
            assert set(walk) == {pair for a, b in mask.links for pair in resolution_order(a, b)}
            position = {pair: index for index, pair in enumerate(walk)}
            for index, (link, inner) in enumerate(mask.plan):
                assert not set(inner) & mask.links
                for a, b in inner:
                    spans = [i for i, (c, d) in enumerate(links) if c <= a and b <= d]
                    assert spans[0] == index
            for a, b in walk:
                assert all(position[inner] < position[(a, b)] for inner in resolution_order(a, b)[:-1])

    def test_masks_share_the_pair_tuples_of_the_order(self):
        """Networks are keyed by their mask's links, so masks loaded apart must not
        each hold their own copies of the pairs."""
        chain, full = StructureMask.chain(6), StructureMask.full(6)
        order = resolution_order(0, 5)
        assert resolution_order(0, 5) is order
        for mask in (chain, full, StructureMask.chain(6)):
            assert all(any(link is shared for shared in order) for link, _ in mask.plan)
        assert StructureMask.chain(6).plan is chain.plan  # built once per set of links

    def test_cached_links_leave_equality_hashing_and_pickling_alone(self):
        mask = StructureMask.chain(4)
        mask.plan
        assert mask == StructureMask.chain(4) and hash(mask) == hash(StructureMask.chain(4))
        copy = pickle.loads(pickle.dumps(mask))
        assert copy == mask and copy.plan == mask.plan


def reference_scan(network, mask):
    """Oracle for ``scan_link_constraints``: the eager walk that composes
    every pair's constraint in resolution order and keeps the singleton of
    the observed relation on each link."""
    x = {}
    for n in range(1, network.size):
        for n_prime in range(n - 1, -1, -1):
            constraint = compute_constraint(x, n_prime, n)
            if (n_prime, n) in mask:
                relation = network.relations[(n_prime, n)]
                x[(n_prime, n)] = RelationSet.of(relation)
                yield n_prime, n, constraint, relation
            else:
                x[(n_prime, n)] = constraint


class TestResolutionOrder:
    def test_order(self):
        # later node ascending, earlier node descending
        assert list(resolution_order(0, 3)) == [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)]
        assert list(resolution_order(1, 3)) == [(1, 2), (2, 3), (1, 3)]

    def test_single_node_yields_nothing(self):
        assert list(resolution_order(0, 0)) == []
        assert list(resolution_order(2, 2)) == []

    def test_every_inner_pair_comes_first(self):
        pairs = list(resolution_order(0, 6))
        position = {pair: index for index, pair in enumerate(pairs)}
        for (a, b), index in position.items():
            assert all(position[inner] < index for inner in resolution_order(a, b) if inner != (a, b))


class TestScanLinkConstraints:
    def test_chain_links_are_unconstrained(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, 5)
        rows = list(scan_link_constraints(inst, StructureMask.chain(5)))
        # resolution order: target node ascending, source node descending
        assert [(i, j) for i, j, _, _ in rows] == [(0, 1), (1, 2), (2, 3), (3, 4)]
        for _, _, constraint, rel in rows:
            assert constraint == FULL_SET
            assert rel in constraint

    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_relation_always_inside_constraint(self, seed, k):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, k)
        for mask in (StructureMask.chain(k), StructureMask.full(k)):
            for n_prime, n, constraint, rel in scan_link_constraints(inst, mask):
                assert rel in constraint, (n_prime, n, constraint.text(), rel)

    def test_full_mask_covers_every_pair(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, 4)
        rows = list(scan_link_constraints(inst, StructureMask.full(4)))
        # resolution order: target node ascending, source node descending
        assert [(i, j) for i, j, _, _ in rows] == [
            (0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3),
        ]


class TestScanMatchesEagerWalk:
    def test_rows_and_order_match_reference(self):
        rng = np.random.default_rng(2024)
        scanned = 0
        for _ in range(320):
            k = int(rng.integers(1, 9))
            inst = random_actions_instance(rng, k, 4)
            net = instance_to_network(inst)
            size = k
            if rng.random() < 0.25:  # masks reaching past the network, as when scoring a short instance
                size += int(rng.integers(1, 3))
            random_mask = StructureMask.of(
                (a, b) for a in range(size) for b in range(a + 1, size) if rng.random() < 0.4
            )
            for mask in (
                StructureMask.chain(size), StructureMask.full(size), StructureMask.of([]), random_mask
            ):
                rows = list(scan_link_constraints(inst, mask))
                assert rows == list(reference_scan(net, mask))
                scanned += len(rows)
        assert scanned > 1000

    @pytest.mark.parametrize("mask", [StructureMask.of([]), StructureMask.chain(12)], ids=["empty", "chain"])
    def test_no_composition_without_wide_links(self, monkeypatch, mask):
        calls = []

        def counted(set1, set2):
            calls.append((set1, set2))
            return compose_sets(set1, set2)

        monkeypatch.setattr(network_module, "compose_sets", counted)
        inst = random_instance(np.random.default_rng(12), 12)
        rows = list(scan_link_constraints(inst, mask))
        assert len(rows) == len(mask) and calls == []


class TestPathPropagation:
    """Composition along any path must admit the direct relation."""

    @pytest.mark.parametrize("seed", range(8))
    def test_every_path_contains_direct_relation(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 6))
        net = instance_to_network(random_instance(rng, k))
        for i, j in itertools.combinations(range(k), 2):
            direct = net.relation(i, j)
            inner = [n for n in range(i + 1, j)]
            for depth in range(1, len(inner) + 1):
                for path in itertools.combinations(inner, depth):
                    nodes = [i, *path, j]
                    acc = RelationSet.of(net.relation(nodes[0], nodes[1]))
                    for a, b in zip(nodes[1:], nodes[2:]):
                        acc = compose_sets(acc, RelationSet.of(net.relation(a, b)))
                    assert direct in acc
