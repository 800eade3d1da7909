"""Interval algebra: relations, composition table, composition classes."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ibgn import (
    BaseRelation,
    CompositionClass,
    EMPTY_SET,
    FULL_SET,
    RelationSet,
    brute_force_compose,
    classify_constraint,
    compose,
    compose_sets,
    enumerate_composition_classes,
    relation_of,
)
from ibgn.errors import DegenerateInterval, EmptyRelationSet, OrderViolation

B, M, O, S, C, F, EQ = BaseRelation


def oracle_relation(a, b):
    """Independent endpoint predicate oracle (canonical pair assumed)."""
    (s1, e1), (s2, e2) = a, b
    if e1 < s2:
        return B
    if e1 == s2:
        return M
    if s1 == s2 and e1 == e2:
        return EQ
    if s1 == s2 and e1 < e2:
        return S
    if s1 < s2 and e1 == e2:
        return F
    if s1 < s2 and e2 < e1:
        return C
    if s1 < s2 and s2 < e1 < e2:
        return O
    return None


class TestRelationOf:
    @pytest.mark.parametrize(
        "first,second,expected",
        [
            ((0, 1), (2, 3), B),
            ((0, 2), (2, 3), M),
            ((0, 2), (1, 3), O),
            ((0, 1), (0, 3), S),
            ((0, 4), (1, 2), C),
            ((0, 3), (1, 3), F),
            ((0, 3), (0, 3), EQ),
        ],
    )
    def test_base_cases(self, first, second, expected):
        assert relation_of(first, second) is expected

    def test_degenerate_interval_rejected(self):
        with pytest.raises(DegenerateInterval):
            relation_of((1, 1), (2, 3))
        with pytest.raises(DegenerateInterval):
            relation_of((0, 1), (3, 2))

    def test_non_canonical_pair_rejected(self):
        with pytest.raises(OrderViolation):
            relation_of((2, 3), (0, 1))
        # equal starts: longer interval first is non-canonical
        with pytest.raises(OrderViolation):
            relation_of((0, 5), (0, 2))

    @given(
        s1=st.integers(0, 12),
        d1=st.integers(1, 6),
        s2=st.integers(0, 12),
        d2=st.integers(1, 6),
    )
    def test_matches_endpoint_oracle(self, s1, d1, s2, d2):
        a, b = (s1, s1 + d1), (s2, s2 + d2)
        if not (a[0] < b[0] or (a[0] == b[0] and a[1] <= b[1])):
            a, b = b, a
        assert relation_of(a, b) is oracle_relation(a, b)


class TestRelationSet:
    def test_text_round_trip(self):
        for bits in range(1, 128):
            rs = RelationSet(bits)
            assert RelationSet.from_text(rs.text()) == rs

    def test_of_and_membership(self):
        rs = RelationSet.of(B, M, O)
        assert B in rs and M in rs and O in rs
        assert S not in rs
        assert len(rs) == 3
        assert list(rs) == [B, M, O]
        assert rs.text() == "b,m,o"

    def test_index_of(self):
        rs = RelationSet.of(M, C, EQ)
        assert [rs.index_of(r) for r in (M, C, EQ)] == [0, 1, 2]
        with pytest.raises(ValueError):
            rs.index_of(B)

    def test_set_operators(self):
        a = RelationSet.of(B, M, O)
        b = RelationSet.of(O, C, F)
        assert (a & b) == RelationSet.of(O)
        assert (a | b) == RelationSet.of(B, M, O, C, F)

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            RelationSet(128)
        with pytest.raises(ValueError):
            RelationSet(-1)

    @pytest.mark.parametrize("value", [7, -1])
    def test_relation_values_outside_the_algebra_are_refused(self, value):
        with pytest.raises(ValueError):
            RelationSet.of(B, value)
        with pytest.raises(ValueError):
            value in FULL_SET
        with pytest.raises(ValueError):
            compose(value, B)
        assert RelationSet.of(3, 1) is RelationSet.of(S, M) and 3 in RelationSet.of(S)
        assert compose(1, 1) == compose(M, M)

    def test_bits_must_be_integers(self):
        for bad in (True, False, 2.0, "3", np.True_, np.float64(1.0)):
            with pytest.raises(ValueError):
                RelationSet(bad)
        rs = RelationSet(np.int64(5))
        assert type(rs.bits) is int and rs == RelationSet.of(B, O)

    def test_interned(self):
        assert RelationSet.of(O) is RelationSet.of(O)
        assert FULL_SET & FULL_SET is FULL_SET
        assert RelationSet(3) | RelationSet(4) is RelationSet.of(B, M, O)
        assert RelationSet.from_text("b,m") is RelationSet.of(B, M)

    def test_from_text_errors(self):
        with pytest.raises(ValueError):
            RelationSet.from_text("b,x")
        assert RelationSet.from_text("") == EMPTY_SET

    def test_truthiness(self):
        assert FULL_SET
        assert not EMPTY_SET


class TestCompose:
    def test_table_matches_brute_force_oracle(self):
        for r1, r2 in itertools.product(BaseRelation, repeat=2):
            assert compose(r1, r2) == brute_force_compose(r1, r2), (r1, r2)

    def test_meets_then_starts_is_meets(self):
        assert compose(M, S) == RelationSet.of(M)

    def test_starts_then_finishes(self):
        assert compose(S, F) == RelationSet.of(B, M, O)

    def test_equals_is_identity(self):
        for r in BaseRelation:
            assert compose(EQ, r) == RelationSet.of(r)
            assert compose(r, EQ) == RelationSet.of(r)

    def test_before_row_is_absorbing(self):
        for r in BaseRelation:
            assert compose(B, r) == RelationSet.of(B)

    def test_every_cell_nonempty(self):
        for r1, r2 in itertools.product(BaseRelation, repeat=2):
            assert len(compose(r1, r2)) >= 1

    @given(st.integers(1, 0x7F), st.integers(1, 0x7F))
    def test_compose_sets_is_union_of_cells(self, bits_a, bits_b):
        expected = EMPTY_SET
        for r1, r2 in itertools.product(BaseRelation, repeat=2):
            if bits_a >> r1.value & 1 and bits_b >> r2.value & 1:
                expected = expected | compose(r1, r2)
        assert compose_sets(RelationSet(bits_a), RelationSet(bits_b)) == expected

    def test_compose_sets_exhaustive_over_non_empty_operands(self):
        for bits_a, bits_b in itertools.product(range(1, 0x80), repeat=2):
            expected = 0
            for r1, r2 in itertools.product(BaseRelation, repeat=2):
                if bits_a >> r1 & 1 and bits_b >> r2 & 1:
                    expected |= compose(r1, r2).bits
            assert compose_sets(RelationSet(bits_a), RelationSet(bits_b)).bits == expected, (bits_a, bits_b)

    def test_compose_sets_returns_interned_sets(self):
        a, b = RelationSet.of(O, S), RelationSet.of(C, F)
        assert compose_sets(a, b) is compose_sets(a, b)
        assert compose_sets(FULL_SET, FULL_SET) is FULL_SET

    def test_compose_sets_rejects_empty_operand(self):
        with pytest.raises(EmptyRelationSet):
            compose_sets(EMPTY_SET, FULL_SET)
        with pytest.raises(EmptyRelationSet):
            compose_sets(FULL_SET, EMPTY_SET)

    def test_associative_on_all_class_triples(self):
        classes = [c.members for c in enumerate_composition_classes()]
        for x, y, z in itertools.product(classes, repeat=3):
            assert compose_sets(compose_sets(x, y), z) == compose_sets(
                x, compose_sets(y, z)
            )

    def test_intersect(self):
        assert RelationSet.of(B, M) & RelationSet.of(M, O) == RelationSet.of(M)
        assert RelationSet.of(B) & RelationSet.of(O) == EMPTY_SET


class TestCompositionClasses:
    def test_exactly_eleven(self):
        classes = enumerate_composition_classes()
        assert len(classes) == 11
        assert [c.index for c in classes] == list(range(1, 12))
        assert [c.members.text() for c in classes] == [
            "b", "m", "o", "s", "c", "f", "eq",
            "b,m,o", "o,c,f", "b,m,o,c,f", "b,m,o,s,c,f,eq",
        ]

    def test_cardinalities(self):
        cards = sorted(c.cardinality for c in enumerate_composition_classes())
        assert cards == [1, 1, 1, 1, 1, 1, 1, 3, 3, 5, 7]

    def test_singletons_come_first_in_relation_order(self):
        classes = enumerate_composition_classes()
        for i, r in enumerate(BaseRelation):
            assert classes[i].members == RelationSet.of(r)

    def test_full_set_is_a_class(self):
        members = {c.members for c in enumerate_composition_classes()}
        assert FULL_SET in members

    def test_covers_all_pairwise_compositions(self):
        members = {c.members for c in enumerate_composition_classes()}
        for r1, r2 in itertools.product(BaseRelation, repeat=2):
            assert compose(r1, r2) in members

    def test_closed_under_intersection(self):
        members = {c.members for c in enumerate_composition_classes()}
        for a, b in itertools.product(members, repeat=2):
            got = a & b
            if got:
                assert got in members

    def test_classify_constraint(self):
        classes = enumerate_composition_classes()
        for c in classes:
            assert classify_constraint(c.members) == c.index
        assert classify_constraint(RelationSet.of(B, EQ)) is None
        with pytest.raises(EmptyRelationSet):
            classify_constraint(EMPTY_SET)

    def test_class_objects_are_frozen_records(self):
        c = enumerate_composition_classes()[0]
        assert isinstance(c, CompositionClass)
        with pytest.raises(AttributeError):
            c.index = 99
