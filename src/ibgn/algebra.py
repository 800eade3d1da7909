"""Forward interval-relation algebra.

Temporal relations between pairs of intervals that are in canonical order
(earlier start first; on equal starts, earlier end first).  Restricting Allen's
thirteen relations to canonically ordered pairs leaves seven:

======  =============  =========================================
symbol  name           endpoint condition (first i, second j)
======  =============  =========================================
b       before         i.end < j.start
m       meets          i.end == j.start
o       overlaps       i.start < j.start < i.end < j.end
s       starts         i.start == j.start and i.end < j.end
c       contains       i.start < j.start and j.end < i.end
f       finished-by    i.start < j.start and i.end == j.end
eq      equals         i.start == j.start and i.end == j.end
======  =============  =========================================

Composition answers: given the relation of (i, j) and of (j, k), which
relations of (i, k) are realizable by actual timestamps?  The 7x7 table of
answers below is frozen as bitmask constants; ``brute_force_compose``
re-derives any cell from first principles by enumerating integer endpoint
placements and is kept as the table's oracle.  Composition of relation sets
is looked up in a 128 x 128 table of masks derived from it at import.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional, Sequence, Tuple

from .errors import DegenerateInterval, EmptyRelationSet, OrderViolation

__all__ = [
    "BaseRelation",
    "RelationSet",
    "CompositionClass",
    "FULL_SET",
    "EMPTY_SET",
    "relation_of",
    "compose",
    "compose_sets",
    "brute_force_compose",
    "enumerate_composition_classes",
    "classify_constraint",
]


class BaseRelation(IntEnum):
    """The seven forward relations, in canonical order."""

    BEFORE = 0
    MEETS = 1
    OVERLAPS = 2
    STARTS = 3
    CONTAINS = 4
    FINISHED_BY = 5
    EQUALS = 6

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self.value]


def _integer(value) -> bool:
    """An ``int`` or numpy integer, never a bool or a float such as ``4.0``: every integer field's test."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _relation(rel) -> BaseRelation:
    """``rel`` itself if it is a relation, else the relation with its value (``ValueError`` if none)."""
    return rel if type(rel) is BaseRelation else BaseRelation(rel)


_SYMBOLS = ("b", "m", "o", "s", "c", "f", "eq")
_SYMBOL_TO_RELATION = {sym: BaseRelation(i) for i, sym in enumerate(_SYMBOLS)}
# the members of every 7-bit mask, in canonical order
_MEMBERS = tuple(tuple(rel for rel in BaseRelation if bits >> rel & 1) for bits in range(0x80))


@dataclass(frozen=True)
class RelationSet:
    """An immutable set of forward relations, encoded as a 7-bit mask.

    Bit ``i`` corresponds to the relation with canonical index ``i``, which
    makes the integer encoding itself canonical and serialization bit-exact.
    The operators, ``of``, ``from_text`` and the compositions return the one
    interned set per mask.
    """

    bits: int

    def __post_init__(self) -> None:
        if not _integer(self.bits):
            raise ValueError(f"relation bits must be an integer: {self.bits!r}")
        bits = int(self.bits)  # checked, so a numpy integer becomes an int and nothing is truncated
        if not 0 <= bits <= 0x7F:
            raise ValueError(f"relation bits out of range: {bits}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def of(cls, *relations: BaseRelation) -> "RelationSet":
        bits = 0
        for rel in relations:
            bits |= 1 << _relation(rel)
        return _SETS[bits]

    @classmethod
    def from_text(cls, text: str) -> "RelationSet":
        """Parse the comma-joined form, e.g. ``"b,m,o"``; "" is the empty set."""
        text = text.strip()
        if not text:
            return EMPTY_SET
        bits = 0
        for token in text.split(","):
            token = token.strip()
            if token not in _SYMBOL_TO_RELATION:
                raise ValueError(f"unknown relation symbol: {token!r}")
            bits |= 1 << _SYMBOL_TO_RELATION[token].value
        return _SETS[bits]

    def text(self) -> str:
        """Comma-joined symbols in canonical order."""
        return ",".join(rel.symbol for rel in self)

    @property
    def members(self) -> Tuple[BaseRelation, ...]:
        return _MEMBERS[self.bits]

    def index_of(self, rel: BaseRelation) -> int:
        """Position of ``rel`` among the members in canonical order."""
        if rel not in self:
            raise ValueError(f"{rel.symbol} not in {{{self.text()}}}")
        return (self.bits & ((1 << rel.value) - 1)).bit_count()

    def __contains__(self, rel: BaseRelation) -> bool:
        return bool(self.bits >> _relation(rel) & 1)

    def __iter__(self) -> Iterator[BaseRelation]:
        return iter(_MEMBERS[self.bits])

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __and__(self, other: "RelationSet") -> "RelationSet":
        return _SETS[self.bits & other.bits]

    def __or__(self, other: "RelationSet") -> "RelationSet":
        return _SETS[self.bits | other.bits]

    def __repr__(self) -> str:
        return f"RelationSet({{{self.text()}}})"


_SETS = tuple(RelationSet(bits) for bits in range(0x80))  # the interned set of each mask
FULL_SET = _SETS[0x7F]
EMPTY_SET = _SETS[0]


def relation_of(first: Sequence[float], second: Sequence[float]) -> BaseRelation:
    """Relation between two canonically ordered ``(start, end)`` pairs.

    Raises :class:`DegenerateInterval` when either interval has start >= end
    and :class:`OrderViolation` when the pair is not canonically ordered.
    """
    s1, e1 = first
    s2, e2 = second
    if not (s1 < e1) or not (s2 < e2):
        raise DegenerateInterval(f"degenerate interval in pair {first!r}, {second!r}")
    if not (s1 < s2 or (s1 == s2 and e1 <= e2)):
        raise OrderViolation(f"pair not in canonical order: {first!r}, {second!r}")
    if e1 < s2:
        return BaseRelation.BEFORE
    if e1 == s2:
        return BaseRelation.MEETS
    if s1 == s2:
        return BaseRelation.EQUALS if e1 == e2 else BaseRelation.STARTS
    # distinct starts and the intervals share interior points
    if e1 < e2:
        return BaseRelation.OVERLAPS
    if e1 == e2:
        return BaseRelation.FINISHED_BY
    return BaseRelation.CONTAINS


# Composition table, frozen from the endpoint-enumeration oracle below.
# _COMPOSE_BITS[r1][r2] is the bitmask of relations realizable between
# (i, k) when (i, j) stands in r1 and (j, k) stands in r2.
_COMPOSE_BITS = (
    (1, 1, 1, 1, 1, 1, 1),  # b
    (1, 1, 1, 2, 1, 1, 2),  # m
    (1, 1, 7, 4, 55, 7, 4),  # o
    (1, 1, 7, 8, 55, 7, 8),  # s
    (55, 52, 52, 52, 16, 16, 16),  # c
    (1, 2, 4, 4, 16, 32, 32),  # f
    (1, 2, 4, 8, 16, 32, 64),  # eq
)


def _compose_set_bits() -> Tuple[Tuple[int, ...], ...]:
    """Composition lifted to masks: entry ``[a][b]`` is the union of the cells
    of every member pair, built from the entries without ``a``'s or ``b``'s
    lowest member and the cell of those two members."""
    table = [[0] * 0x80 for _ in range(0x80)]
    for a in range(1, 0x80):
        row, without_low = table[a], table[a & (a - 1)]
        cells = _COMPOSE_BITS[(a & -a).bit_length() - 1]
        for b in range(1, 0x80):
            low = b & -b
            row[b] = without_low[b] | row[b ^ low] | cells[low.bit_length() - 1]
    return tuple(map(tuple, table))


_COMPOSE_SET_BITS = _compose_set_bits()


def compose(r1: BaseRelation, r2: BaseRelation) -> RelationSet:
    """Composition of two base relations (frozen table lookup)."""
    return _SETS[_COMPOSE_BITS[_relation(r1)][_relation(r2)]]


def compose_sets(set1: RelationSet, set2: RelationSet) -> RelationSet:
    """Composition lifted to sets: the union of member-pair compositions,
    looked up in the mask table built at import."""
    a, b = set1.bits, set2.bits
    if not a or not b:
        raise EmptyRelationSet("compose_sets requires non-empty operands")
    return _SETS[_COMPOSE_SET_BITS[a][b]]


_ORACLE_WINDOW = 8  # three intervals need at most 6 distinct endpoint values


@lru_cache(maxsize=1)
def _brute_force_table() -> Tuple[Tuple[int, ...], ...]:
    """Derive all 49 composition cells by enumerating integer endpoints."""
    intervals = list(combinations(range(_ORACLE_WINDOW + 1), 2))
    table = [[0] * 7 for _ in range(7)]
    for iv1 in intervals:
        for iv2 in intervals:
            if iv1 > iv2:  # canonical order is (start, end) tuple order
                continue
            r12 = relation_of(iv1, iv2)
            for iv3 in intervals:
                if iv2 > iv3:
                    continue
                r13 = relation_of(iv1, iv3)
                table[r12.value][relation_of(iv2, iv3).value] |= 1 << r13.value
    return tuple(tuple(row) for row in table)


def brute_force_compose(r1: BaseRelation, r2: BaseRelation) -> RelationSet:
    """Oracle for :func:`compose`: enumerate witnesses instead of looking up.

    Every realizable relation between three intervals is witnessed with at
    most six distinct endpoint values, so an integer grid of width 8 is
    exhaustive.
    """
    return _SETS[_brute_force_table()[_relation(r1)][_relation(r2)]]


@dataclass(frozen=True)
class CompositionClass:
    """One of the 11 relation sets reachable as an interval-relation constraint."""

    index: int  # 1..11
    members: RelationSet

    @property
    def cardinality(self) -> int:
        return len(self.members)


# The closure of the 49 pairwise compositions, plus the full set: the 7
# singletons (indices 1..7 in canonical relation order), then the 4 composites
# (indices 8..11, by cardinality then bitmask), the last of which is the full
# set.  The tests check the count, the order and closure under intersection.
_CLASSES = tuple(
    CompositionClass(index=i + 1, members=_SETS[bits])
    for i, bits in enumerate(sorted({FULL_SET.bits}.union(*_COMPOSE_BITS), key=lambda b: (b.bit_count(), b)))
)
_CLASS_INDEX = {cls.members.bits: cls.index for cls in _CLASSES}


def enumerate_composition_classes() -> Tuple[CompositionClass, ...]:
    """The 11 composition classes, built once at import."""
    return _CLASSES


def classify_constraint(constraint: RelationSet) -> Optional[int]:
    """Class index (1..11) of a constraint set, or None if it is not a class."""
    if not constraint:
        raise EmptyRelationSet("cannot classify an empty constraint")
    return _CLASS_INDEX.get(constraint.bits)
