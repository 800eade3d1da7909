"""Generative model of interval networks, and sampling from it.

A class model couples three ingredients:

* a restaurant-style clustering prior that seats each node at a latent table
  (at most one table per possible node, so the budget equals the maximum
  instance length seen in training),
* per-table action distributions (``theta``) from which the node's atomic
  action is drawn, and
* relation distributions (``phi``) for the pairs the structure mask observes,
  keyed by the two actions and by the interval-relation constraint active for
  that pair, so a sampled relation can never contradict what is already fixed.

Sampling walks the mask's :attr:`~ibgn.network.StructureMask.plan`: it seats
node ``n`` before the first link that ends at it, composes the pairs listed for
that link and draws the link inside the constraint they allow.  Each run of
nodes seated at once takes one block of uniforms (seat, action, seat, ...),
and a node's action is a bisection of its table's cumulative θ row.
``realize_timestamps`` checks consistency by an all-pairs constraint walk only
when a relation skips a node, then places each node by a depth-first search over
the box of grid points its fixed relations leave it; ``sample_instance`` runs
the size -> network -> timestamps loop.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import FULL_SET, RelationSet, _integer, relation_of
from .errors import EmptyConstraint, Unrealizable
from .network import Instance, Interval, IntervalNetwork, StructureMask
from .network import compute_constraint, resolution_order

__all__ = [
    "EPS",
    "ClassModel",
    "crp_table_distribution",
    "count_seat",
    "seat_next",
    "sample_network",
    "realize_timestamps",
    "sample_instance",
]

EPS = 1e-8  # floor probability for actions/relations the model cannot explain
_LOG_EPS = math.log(EPS)  # the log term of every floored probability


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else _LOG_EPS


def _distinct_names(names) -> bool:
    """Whether ``names`` are distinct non-empty strings, as every action vocabulary must be."""
    return all(isinstance(name, str) and name for name in names) and len(set(names)) == len(names)


@dataclass(eq=False)
class ClassModel:
    """Learned (or handcrafted) per-class generative parameters, converted and validated when made.

    ``theta[z, i]`` is the probability that a node at table ``z`` performs the action with
    vocabulary id ``i + 1``; ``phi`` maps ``(action_i, action_j, constraint_bits)`` to a
    probability vector over the constraint's members in canonical relation order, held as a tuple
    of floats made once from any sequence.  ``theta_cumulative`` holds, per table, the
    left-to-right running sums of all but the last θ entry, and ``alpha_list`` is α as a list; the
    sampler draws from both, made once.  ``k_star``, ``ell``, each φ key's ids and bits and the
    size histogram's sizes and counts must be integers (``int`` or numpy, never a bool or float):
    they are checked, never truncated.  ``action_vocab`` must be distinct non-empty strings.
    ``log_theta_mass`` maps each action name to the log of its total θ mass over the tables, the
    term scoring adds per interval; scoring reads it and keeps nothing.  No field is reassigned
    after construction, and only training's ``occupied_tables`` is set after it.
    """

    k_star: int
    ell: int
    alpha: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    structure: StructureMask
    phi: Dict[Tuple[int, int, int], Tuple[float, ...]]
    action_vocab: Tuple[str, ...]
    size_histogram: Dict[int, int]

    def __post_init__(self) -> None:
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.phi = {key: tuple(map(float, vec)) for key, vec in self.phi.items()}
        self.action_vocab = tuple(self.action_vocab)
        self.validate()
        self.size_histogram = {int(k): int(v) for k, v in self.size_histogram.items()}  # checked integers
        self._action_ids = {name: i + 1 for i, name in enumerate(self.action_vocab)}
        self.log_theta_mass = dict(zip(self.action_vocab, map(_log, self.theta.sum(axis=0).tolist())))
        # per table: the running sums of all but the last theta entry, which the sampler bisects
        self.theta_cumulative = [list(accumulate(row[:-1])) for row in self.theta.tolist()]
        self.alpha_list = self.alpha.tolist()

    @property
    def M(self) -> int:
        return len(self.action_vocab)

    def action_id(self, name: str) -> Optional[int]:
        """Vocabulary id (1..M) of an action name, or None if unknown."""
        return self._action_ids.get(name)

    def relation_probs(self, i: Optional[int], j: Optional[int], constraint: RelationSet) -> Tuple[float, ...]:
        """The phi vector of actions ``i``, ``j`` under ``constraint``, or the uniform
        one over its members when the key was never trained or an action is unknown (None)."""
        probs = self.phi.get((i, j, constraint.bits))
        if probs is None:
            return (1.0 / len(constraint),) * len(constraint)
        return probs

    def validate(self) -> None:
        if not (_integer(self.k_star) and _integer(self.ell) and 1 <= self.k_star == self.ell):
            raise ValueError(f"table budget {self.ell!r} must be an integer equal to k_star {self.k_star!r} >= 1")
        if self.M < 1:
            raise ValueError("empty action vocabulary")
        if not _distinct_names(self.action_vocab):
            raise ValueError(f"action vocabulary must be distinct non-empty strings, not {list(self.action_vocab)}")
        for name, values in (("alpha", self.alpha), ("beta", self.beta), ("theta", self.theta)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        if self.alpha.shape != (self.ell,) or np.any(self.alpha <= 0):
            raise ValueError("alpha must be a positive vector of length ell")
        if self.beta.shape != (self.ell, self.M) or np.any(self.beta <= 0):
            raise ValueError("beta must be a positive (ell, M) matrix")
        if self.theta.shape != (self.ell, self.M) or np.any(self.theta < 0):
            raise ValueError("theta must be a non-negative (ell, M) matrix")
        if np.any(np.abs(self.theta.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("theta rows must sum to 1")
        for (i, j, bits), vec in self.phi.items():
            if not (_integer(bits) and 1 <= bits <= FULL_SET.bits):
                raise ValueError(f"phi key {(i, j, bits)} has constraint bits outside 1..{FULL_SET.bits}")
            if not (_integer(i) and _integer(j) and 1 <= i <= self.M and 1 <= j <= self.M):
                raise ValueError(f"phi key ({i}, {j}) outside the vocabulary")
            if not all(map(math.isfinite, vec)):
                raise ValueError(f"phi vector for {(i, j, bits)} must be finite")
            if len(vec) != int(bits).bit_count() or min(vec) < 0:
                raise ValueError(f"phi vector for {(i, j, bits)} has wrong support")
            if abs(sum(vec) - 1.0) > 1e-9:
                raise ValueError(f"phi vector for {(i, j, bits)} must sum to 1")
        if not self.size_histogram:
            raise ValueError("size histogram is empty")
        for size, count in self.size_histogram.items():
            if not (_integer(size) and _integer(count) and 1 <= size <= self.k_star and count > 0):
                raise ValueError(f"bad size histogram entry {size}: {count}")
        for i, j in self.structure.links:
            if j >= self.k_star:
                raise ValueError(f"structure link ({i}, {j}) outside k_star nodes")


def crp_table_distribution(occupancy: Sequence[float], alpha: np.ndarray) -> np.ndarray:
    """Seating distribution for the node after the ones counted in ``occupancy``.

    ``occupancy`` holds the per-table counts of the nodes already seated, so
    the node's 1-based position is ``sum(occupancy) + 1``; occupied tables
    always form a prefix of the budget, so entry ``z`` of the result is table
    ``z`` and the final entry (present only while the budget allows) is the
    next fresh table.  Each table uses its own concentration ``alpha[z]``:
    occupied tables weigh ``count / (position + alpha[z] - 1)``, a fresh table
    weighs ``alpha[z] / (position + alpha[z] - 1)``.  At the budget the
    fresh-table mass is redistributed proportionally by renormalizing over the
    occupied tables.  The returned vector sums to 1.
    """
    probs = np.asarray(_crp_weights(occupancy, alpha), dtype=float)
    return probs / probs.sum()


def _crp_weights(occupancy: Sequence[float], alpha: Sequence[float]) -> List[float]:
    """The unnormalized weights of :func:`crp_table_distribution`."""
    budget = len(alpha)
    occupied = len(occupancy)
    if occupied > budget:
        raise ValueError(f"{occupied} occupied tables exceed the budget {budget}")
    position = int(sum(occupancy)) + 1
    weights = [occupancy[z] / (position + alpha[z] - 1.0) for z in range(occupied)]
    if occupied < budget:
        weights.append(alpha[occupied] / (position + alpha[occupied] - 1.0))
    return weights


def _draw(weights: Sequence[float], threshold: float) -> int:
    """First index whose cumulative weight exceeds ``threshold``, else the last;
    a draw by one uniform ``r`` passes ``r`` times the weights' total (``r`` if normalized)."""
    acc = 0.0
    last = len(weights) - 1
    for idx in range(last):
        acc += weights[idx]
        if threshold < acc:
            return idx
    return last


def draw_size(model: ClassModel, rng: np.random.Generator) -> int:
    """Instance size drawn from the model's size histogram (one uniform draw)."""
    sizes, counts = zip(*sorted(model.size_histogram.items()))
    return sizes[_draw(counts, rng.random() * sum(counts))]


def count_seat(occupancy: List[float], table: int) -> None:
    """Count one more node at ``table`` in ``occupancy``; the fresh table is appended."""
    if table == len(occupancy):
        occupancy.append(1.0)
    else:
        occupancy[table] += 1.0


def seat_next(occupancy: List[float], alpha: Sequence[float], uniform: float) -> int:
    """The next node's table from the seating prior at one ``uniform`` in [0, 1),
    counted in ``occupancy``."""
    weights = _crp_weights(occupancy, alpha)
    table = _draw(weights, uniform * sum(weights))
    count_seat(occupancy, table)
    return table


def sample_network(model: ClassModel, k: int, rng: np.random.Generator) -> IntervalNetwork:
    """Sample a k-node network: actions plus link relations.

    Relations are drawn only for structure links; every draw is restricted to
    the pair's interval-relation constraint (falling back to a uniform choice
    within the constraint when the phi key was never seen in training), so
    under a chain or full mask the network can always be realized by
    timestamps.  Non-link pairs carry no relation in the output.
    """
    if not 1 <= k <= model.k_star:
        raise ValueError(f"cannot sample {k} nodes from a model with k_star {model.k_star}")
    occupancy: List[float] = []
    actions: List[int] = []
    cumulative, alpha = model.theta_cumulative, model.alpha_list

    def seat_through(last: int) -> None:
        count = last + 1 - len(actions)
        if count <= 0:
            return
        # one block of uniforms for the nodes seated here, in the order seat, action, seat, ...
        uniforms = iter(rng.random(2 * count).tolist())
        for seat_u, action_u in zip(uniforms, uniforms):
            actions.append(bisect_right(cumulative[seat_next(occupancy, alpha, seat_u)], action_u) + 1)

    x: Dict[Tuple[int, int], RelationSet] = {}
    relations = {}
    for pair, inner in model.structure.plan:
        n_prime, n = pair
        if n >= k:
            break
        seat_through(n)
        for listed in inner:
            x[listed] = compute_constraint(x, *listed)
        constraint = compute_constraint(x, n_prime, n)
        probs = model.relation_probs(actions[n_prime], actions[n], constraint)
        relation = constraint.members[_draw(probs, rng.random())]
        x[pair] = RelationSet.of(relation)
        relations[pair] = relation
    seat_through(k - 1)
    return IntervalNetwork(actions=tuple(actions), relations=relations)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


# The signs of (s - s_p, s - e_p, e - e_p) that each relation fixes between a placed
# interval (s_p, e_p) and a later (s, e), read off relation_of against (2, 6).
_SIGNS = {
    relation_of((2, 6), (s, e)): (_sign(s - 2), _sign(s - 6), _sign(e - 6))
    for s, e in combinations(range(12), 2)
    if (s, e) >= (2, 6)
}


def _place(chosen: List[Tuple[int, int]], fixed: List[list]) -> bool:
    """Depth-first placement of one interval per node after ``chosen`` on the grid
    ``0 .. 2k``, extending ``chosen`` in place (left as it came when none exists).

    Node ``n``'s fixed relations bound its start to ``s_lo .. s_hi`` and its
    end to ``e_lo .. e_hi``, and the search visits that box in lexicographic
    order from the previous placement (canonical node order), so it tries
    exactly the grid points a scan checking every fixed relation accepts.  A
    dead end resumes the previous node inside the box kept for it: the search
    does not recurse, so it places any number of nodes."""
    top = 2 * len(fixed)
    boxes: List[Tuple[int, int, int]] = []  # (s_hi, e_lo, e_hi) of each node placed here
    while len(chosen) < len(fixed):
        last_s, last_e = chosen[-1] if chosen else (0, 1)
        s_lo, s_hi, e_lo, e_hi = last_s, top - 1, 0, top
        for p, start_sign, cross_sign, end_sign in fixed[len(chosen)]:
            start, end = chosen[p]
            # a sign of x - at puts x at or past at + sign when >= 0, at or before it when <= 0
            bound = start + start_sign
            if start_sign >= 0 and bound > s_lo:
                s_lo = bound
            if start_sign <= 0 and bound < s_hi:
                s_hi = bound
            bound = end + cross_sign
            if cross_sign >= 0 and bound > s_lo:
                s_lo = bound
            if cross_sign <= 0 and bound < s_hi:
                s_hi = bound
            bound = end + end_sign
            if end_sign >= 0 and bound > e_lo:
                e_lo = bound
            if end_sign <= 0 and bound < e_hi:
                e_hi = bound
        s = s_lo
        e = last_e if s == last_s else s + 1
        if e < e_lo:
            e = e_lo
        while True:
            if e > e_hi and s < s_hi:  # this start's ends are used up: the next start's begin at s + 2
                s += 1
                e = s + 1 if s >= e_lo else e_lo
            if s <= s_hi and e <= e_hi:
                break
            # the box is used up (a later start's first end is later still): resume the previous node
            if not boxes:
                return False
            (s, e), (s_hi, e_lo, e_hi) = chosen.pop(), boxes.pop()
            e += 1
        chosen.append((s, e))
        boxes.append((s_hi, e_lo, e_hi))
    return True


@lru_cache(maxsize=1024)
def _grid_interval(action: int, start: int, end: int) -> Interval:
    """The immutable interval of ``action`` on grid points ``start < end``,
    shared by every realized instance that places it there."""
    return Interval(action=action, start=float(start), end=float(end))


def realize_timestamps(network: IntervalNetwork, label: Optional[str] = None) -> Instance:
    """Assign integer timestamps realizing a sampled network.

    One pass over the relations files each under its later node, and a pair
    outside ``0 <= i < j < k`` raises ``ValueError``.  If a relation joins
    nodes ``i`` and ``j > i + 1``, every pair's constraint is then computed in
    resolution order and each fixed relation checked against its own, so an
    inconsistent network raises :class:`~ibgn.errors.EmptyConstraint` before
    the search.  Relations on adjacent nodes alone (a chain, or none) skip that
    walk: each node can be placed after its predecessor by their one relation.
    The search places intervals in lexicographic order on the grid ``0 .. 2k``
    (it holds any ``k`` intervals); each fixed relation fixes the signs of
    ``s - s_p``, ``s - e_p`` and ``e - e_p`` against its placed predecessor
    ``p``, so it visits only the grid box they leave each node.  A network
    with no placement raises :class:`~ibgn.errors.Unrealizable`.
    """
    k = network.size
    fixed: List[List[Tuple[int, int, int, int]]] = [[] for _ in range(k)]
    for (i, j), relation in network.relations.items():
        if not 0 <= i < j < k:
            raise ValueError(f"relation on node pair {(i, j)} outside the pairs of a {k}-node network")
        fixed[j].append((i, *_SIGNS[relation]))
    if any(j > i + 1 for i, j in network.relations):
        x: Dict[Tuple[int, int], RelationSet] = {}
        for pair in resolution_order(0, k - 1):
            constraint = compute_constraint(x, *pair)  # raises if it empties
            relation = network.relations.get(pair)
            if relation is None:
                x[pair] = constraint
            elif relation in constraint:
                x[pair] = RelationSet.of(relation)
            else:
                raise EmptyConstraint(
                    f"relation {relation.symbol} of pair {pair} lies outside its constraint {{{constraint.text()}}}"
                )

    chosen: List[Tuple[int, int]] = []
    if not _place(chosen, fixed):
        raise Unrealizable("no placement of the intervals satisfies every relation of the network")
    intervals = tuple(_grid_interval(network.actions[n], s, e) for n, (s, e) in enumerate(chosen))
    return Instance(label=label, intervals=intervals)


def sample_instance(
    model: ClassModel, rng: np.random.Generator, label: Optional[str] = None, size: Optional[int] = None
) -> Instance:
    """One realized network of ``size`` nodes (default: drawn from the size histogram)."""
    k = draw_size(model, rng) if size is None else size
    return realize_timestamps(sample_network(model, k, rng), label=label)
