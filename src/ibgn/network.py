"""Interval networks: timestamped instances, derived relations, constraints.

An *instance* is a canonically ordered sequence of its observed action
intervals; viewed pairwise it induces a complete network of forward
relations.  Instances are never padded: only BIC structure learning reads a
node past an instance's end, as the null action with a null relation.

``compute_constraint`` implements the interval-relation constraint: the set
of relations a node pair may take given everything already fixed between and
around it.  Pairs of adjacent nodes are unconstrained; for the rest the
constraint is the intersection, over every intermediate node, of the
composition of the flanking entries, so it depends only on the fixed
entries inside its span.  ``resolution_order`` (later node ascending, earlier
node descending) lists a span's inner pairs first, and ``StructureMask.plan``
lists, before each link, the pairs inside its span that it is first to need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import attrgetter
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from .algebra import BaseRelation, FULL_SET, RelationSet, _integer, compose, compose_sets, relation_of
from .errors import EmptyConstraint

__all__ = [
    "NULL_ACTION",
    "Interval",
    "Instance",
    "IntervalNetwork",
    "ConsistencyReport",
    "StructureMask",
    "instance_to_network",
    "check_consistency",
    "compute_constraint",
    "resolution_order",
    "scan_link_constraints",
]

NULL_ACTION = 0  # the action BIC structure learning reads past an instance's end
_canonical_key = attrgetter("start", "end")  # an interval's place in canonical order; sorts keep ties in order


@dataclass(frozen=True, slots=True)
class Interval:
    """One atomic action occurrence: vocabulary id (0 = null) plus extent."""

    action: int
    start: float
    end: float

    @property
    def is_null(self) -> bool:
        return self.action == NULL_ACTION

    @property
    def times(self) -> Tuple[float, float]:
        return (self.start, self.end)


@dataclass(frozen=True, slots=True)
class Instance:
    """A labeled activity observation: intervals in canonical order."""

    label: Optional[str]
    intervals: Tuple[Interval, ...]

    def __len__(self) -> int:
        return len(self.intervals)

    def canonicalized(self) -> "Instance":
        ordered = tuple(sorted(self.intervals, key=_canonical_key))
        return replace(self, intervals=ordered)


@dataclass(slots=True)
class IntervalNetwork:
    """Node actions plus relations on whichever pairs carry one.

    ``relations`` maps ``(i, j)`` with ``i < j`` to a base relation; pairs
    that are absent are null — the unobserved (non-link) pairs of a
    generated network.
    """

    actions: Tuple[int, ...]
    relations: Dict[Tuple[int, int], BaseRelation] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.actions)

    def relation(self, i: int, j: int) -> Optional[BaseRelation]:
        if not 0 <= i < j < self.size:
            raise IndexError(f"node pair out of range: ({i}, {j})")
        return self.relations.get((i, j))


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    violations: Tuple[Tuple[int, int, int], ...]


@dataclass(frozen=True)
class StructureMask:
    """The set of node pairs whose relation the model observes ("links").  Construction raises
    ``ValueError`` unless each link's ids are integers (an ``int`` or numpy integer, never a bool
    or float) with ``0 <= i < j``; numpy integers are then stored as ``int``."""

    links: frozenset

    def __post_init__(self) -> None:
        for i, j in self.links:
            if not (_integer(i) and _integer(j) and 0 <= i < j):
                raise ValueError(f"bad structure link {(i, j)}")
        object.__setattr__(self, "links", frozenset((int(i), int(j)) for i, j in self.links))

    @classmethod
    def chain(cls, size: int) -> "StructureMask":
        return cls(frozenset((i, i + 1) for i in range(size - 1)))

    @classmethod
    def full(cls, size: int) -> "StructureMask":
        return cls(frozenset((i, j) for i in range(size) for j in range(i + 1, size)))

    @classmethod
    def of(cls, pairs) -> "StructureMask":
        return cls(frozenset(map(tuple, pairs)))

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return pair in self.links

    def __len__(self) -> int:
        return len(self.links)

    def sorted_links(self) -> List[Tuple[int, int]]:
        return sorted(self.links)

    @property
    def plan(self) -> Tuple[Tuple[Tuple[int, int], Tuple[Tuple[int, int], ...]], ...]:
        """``(link, pairs)`` per link in :func:`resolution_order`: ``pairs`` are the
        non-link pairs inside its span that no earlier link's span holds, in that
        order.  Built once per set of links, from the order's own pair tuples."""
        return _plan(self.links)


@lru_cache(maxsize=1024)
def _plan(links: frozenset) -> Tuple[Tuple[Tuple[int, int], Tuple[Tuple[int, int], ...]], ...]:
    order = resolution_order(0, max((j for _, j in links), default=0))
    plan, resolved = [], set(links)
    for index, (first, last) in enumerate(order):
        if (first, last) in links:
            inner = tuple(p for p in order[:index] if first <= p[0] and p[1] <= last and p not in resolved)
            resolved.update(inner)
            plan.append((order[index], inner))
    return tuple(plan)


def instance_to_network(instance: Instance) -> IntervalNetwork:
    """Derive the complete relation network over the instance's intervals.

    The instance must be canonically ordered (the dataset loader guarantees
    this); otherwise :class:`~ibgn.errors.OrderViolation` propagates from the
    pairwise relation computation.
    """
    intervals = instance.intervals
    relations = {
        (i, j): relation_of(intervals[i].times, intervals[j].times)
        for i in range(len(intervals))
        for j in range(i + 1, len(intervals))
    }
    return IntervalNetwork(actions=tuple(iv.action for iv in intervals), relations=relations)


def check_consistency(network: IntervalNetwork) -> ConsistencyReport:
    """Check every fully labeled triangle against the composition table.

    A triangle (i, j, k) is checked only when all three of its relations are
    present; the relation of (i, k) must be realizable given those of (i, j)
    and (j, k).  Triangles touching null/absent relations are skipped.  A
    relation on a pair outside ``0 <= i < j < size`` raises ``ValueError``.
    """
    violations: List[Tuple[int, int, int]] = []
    rel = network.relations
    n = network.size
    for i, j in rel:
        if not 0 <= i < j < n:
            raise ValueError(f"relation on node pair {(i, j)} outside the pairs of a {n}-node network")
    for i in range(n):
        for j in range(i + 1, n):
            r_ij = rel.get((i, j))
            if r_ij is None:
                continue
            for k in range(j + 1, n):
                r_jk = rel.get((j, k))
                r_ik = rel.get((i, k))
                if r_jk is None or r_ik is None:
                    continue
                if r_ik not in compose(r_ij, r_jk):
                    violations.append((i, j, k))
    return ConsistencyReport(consistent=not violations, violations=tuple(violations))


def compute_constraint(
    x: Mapping[Tuple[int, int], RelationSet], n_prime: int, n: int
) -> RelationSet:
    """Interval-relation constraint of the pair ``(n_prime, n)``.

    ``x`` holds the already-resolved entries: singleton sets on structure
    links, previously computed constraints elsewhere.  Adjacent pairs are
    unconstrained (the full set); all other pairs are constrained through
    every intermediate node:

        constraint = intersection over m in (n_prime, n) of
                     compose_sets(x[n_prime, m], x[m, n])

    Raises :class:`~ibgn.errors.EmptyConstraint` if the intersection empties,
    which cannot happen for entries derived from actual timestamps.
    """
    if not 0 <= n_prime < n:
        raise ValueError(f"bad pair ({n_prime}, {n})")
    constraint = FULL_SET
    for mid in range(n_prime + 1, n):
        constraint = constraint & compose_sets(x[(n_prime, mid)], x[(mid, n)])
        if not constraint.bits:
            raise EmptyConstraint(f"constraint of pair ({n_prime}, {n}) is empty")
    return constraint


@lru_cache(maxsize=1024)
def resolution_order(first: int, last: int) -> Tuple[Tuple[int, int], ...]:
    """Node pairs ``(n', n)`` with ``first <= n' < n <= last``, ``n`` ascending
    and ``n'`` descending: every pair inside a pair's span comes before it.
    Built once per span, so every caller shares its pair tuples."""
    return tuple((n_prime, n) for n in range(first + 1, last + 1) for n_prime in range(n - 1, first - 1, -1))


def scan_link_constraints(
    instance: Instance, mask: StructureMask
) -> Iterator[Tuple[int, int, RelationSet, BaseRelation]]:
    """Replay an observed instance's link constraints in resolution order.

    For every structure link ``(n', n)`` inside the instance this yields
    ``(n', n, constraint, relation)``: the relation of the two intervals and
    the constraint the links inside the pair's span allow (singletons of their
    observed relations, composed where no link fixes an entry) — the exact
    quantity the relation distributions are conditioned on, during both
    training and scoring.  Each pair of :attr:`StructureMask.plan` is composed once.
    """
    intervals = instance.intervals
    x: Dict[Tuple[int, int], RelationSet] = {}
    for (n_prime, n), inner in mask.plan:
        if n >= len(intervals):
            return
        relation = relation_of(intervals[n_prime].times, intervals[n].times)
        for pair in inner:
            x[pair] = compute_constraint(x, *pair)
        yield n_prime, n, compute_constraint(x, n_prime, n), relation
        x[(n_prime, n)] = RelationSet.of(relation)
