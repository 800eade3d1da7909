"""Qualitative network construction, consistency, constraint propagation."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibgn import (
    BaseRelation,
    FULL_SET,
    Instance,
    Interval,
    NULL_ACTION,
    RelationSet,
    StructureMask,
    check_consistency,
    compose_sets,
    compute_constraint,
    instance_to_network,
    pad_nulls,
    relation_of,
    resolve_constraints,
    scan_link_constraints,
)
from ibgn.errors import EmptyConstraint, InstanceTooLong, OrderViolation
from conftest import random_instance

B, M, O, S, C, F, EQ = BaseRelation


def make_instance(*triples, label=None):
    return Instance(
        label=label,
        intervals=tuple(Interval(a, float(s), float(e)) for a, s, e in triples),
    )


class TestIntervalAndInstance:
    def test_null_interval(self):
        n = Interval.null()
        assert n.is_null
        assert n.action == NULL_ACTION

    def test_canonicalized_sorts_by_start_then_end(self):
        inst = make_instance((1, 5, 6), (2, 0, 4), (3, 0, 2))
        ordered = inst.canonicalized()
        assert [iv.times for iv in ordered.intervals] == [(0.0, 2.0), (0.0, 4.0), (5.0, 6.0)]
        assert inst.canonicalized().is_canonical

    def test_observed_length_ignores_padding(self):
        inst = make_instance((1, 0, 1), (2, 2, 3))
        padded = pad_nulls(inst, 5)
        assert padded.observed_length == 2
        assert len(padded.intervals) == 5
        assert all(iv.is_null for iv in padded.intervals[2:])

    def test_pad_nulls_rejects_overlong(self):
        inst = make_instance((1, 0, 1), (2, 2, 3), (3, 4, 5))
        with pytest.raises(InstanceTooLong):
            pad_nulls(inst, 2)


class TestInstanceToNetwork:
    def test_known_relations(self):
        inst = make_instance((1, 0, 2), (2, 2, 3), (3, 2, 5))
        net = instance_to_network(inst)
        assert net.relation(0, 1) is M
        assert net.relation(0, 2) is M
        assert net.relation(1, 2) is S

    def test_null_padding_keeps_positions_but_adds_no_relations(self):
        inst = pad_nulls(make_instance((1, 0, 2), (2, 3, 4)), 4)
        net = instance_to_network(inst)
        assert net.actions == (1, 2, NULL_ACTION, NULL_ACTION)
        assert set(net.relations) == {(0, 1)}
        assert net.relation(0, 1) is B

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


class TestResolveConstraints:
    def test_order_and_stored_constraints(self):
        x = {}
        rows = list(resolve_constraints(4, x))
        # target node ascending, source node descending
        assert [(i, j) for i, j, _ in rows] == [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)]
        assert all(x[(i, j)] == constraint for i, j, constraint in rows)

    def test_entry_stored_by_caller_is_kept(self):
        x = {}
        before = RelationSet.of(B)
        rows = {}
        for n_prime, n, constraint in resolve_constraints(3, x):
            rows[(n_prime, n)] = constraint
            if n == n_prime + 1:
                x[(n_prime, n)] = before
        assert x[(0, 1)] == x[(1, 2)] == before
        assert rows[(0, 2)] == x[(0, 2)] == compose_sets(before, before)

    def test_single_node_yields_nothing(self):
        x = {}
        assert list(resolve_constraints(1, x)) == [] and x == {}


class TestScanLinkConstraints:
    def test_chain_links_are_unconstrained(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, 5)
        net = instance_to_network(inst)
        rows = list(scan_link_constraints(net, StructureMask.chain(5)))
        # resolution order: target node ascending, source node descending
        assert [(i, j) for i, j, _, _ in rows] == [(0, 1), (1, 2), (2, 3), (3, 4)]
        for _, _, constraint, rel in rows:
            assert constraint == FULL_SET
            assert rel in constraint

    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_relation_always_inside_constraint(self, seed, k):
        rng = np.random.default_rng(seed)
        net = instance_to_network(random_instance(rng, k))
        for mask in (StructureMask.chain(k), StructureMask.full(k)):
            for n_prime, n, constraint, rel in scan_link_constraints(net, mask):
                assert rel in constraint, (n_prime, n, constraint.text(), rel)

    def test_full_mask_covers_every_pair(self):
        rng = np.random.default_rng(9)
        net = instance_to_network(random_instance(rng, 4))
        rows = list(scan_link_constraints(net, StructureMask.full(4)))
        # resolution order: target node ascending, source node descending
        assert [(i, j) for i, j, _, _ in rows] == [
            (0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3),
        ]

    def test_padded_instances_stop_at_observed_prefix(self):
        inst = pad_nulls(make_instance((1, 0, 1), (2, 2, 3)), 5)
        net = instance_to_network(inst)
        rows = list(scan_link_constraints(net, StructureMask.full(5)))
        assert [(i, j) for i, j, _, _ in rows] == [(0, 1)]


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
