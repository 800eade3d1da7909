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

Sampling walks nodes in order; after seating node ``n`` every link
``(n', n)`` is resolved from nearest to farthest predecessor, which keeps the
constraint products well-defined.  Networks built this way are always
temporally consistent, and ``realize_timestamps`` turns one into concrete
integer timestamps by constructive search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import RelationSet, relation_of
from .network import Instance, Interval, IntervalNetwork, StructureMask, compute_constraint

__all__ = [
    "ClassModel",
    "GenerationState",
    "crp_table_distribution",
    "sample_node",
    "sample_network",
    "realize_timestamps",
]


@dataclass(eq=False)
class ClassModel:
    """Learned (or handcrafted) per-class generative parameters.

    ``theta[z, i]`` is the probability that a node at table ``z`` performs
    the action with vocabulary id ``i + 1``; ``phi`` maps
    ``(action_i, action_j, constraint_bits)`` to a probability vector over
    the constraint's members in canonical relation order.
    """

    k_star: int
    ell: int
    alpha: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    structure: StructureMask
    phi: Dict[Tuple[int, int, int], np.ndarray]
    action_vocab: Tuple[str, ...]
    size_histogram: Dict[int, int]

    def __post_init__(self) -> None:
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.phi = {key: np.asarray(vec, dtype=float) for key, vec in self.phi.items()}
        self.action_vocab = tuple(self.action_vocab)
        self.size_histogram = {int(k): int(v) for k, v in self.size_histogram.items()}
        self._action_ids = {name: i + 1 for i, name in enumerate(self.action_vocab)}

    @property
    def M(self) -> int:
        return len(self.action_vocab)

    def action_id(self, name: str) -> Optional[int]:
        """Vocabulary id (1..M) of an action name, or None if unknown."""
        return self._action_ids.get(name)

    def validate(self) -> None:
        if self.k_star < 1 or self.ell != self.k_star:
            raise ValueError(f"table budget {self.ell} must equal k_star {self.k_star} >= 1")
        if self.M < 1:
            raise ValueError("empty action vocabulary")
        if self.alpha.shape != (self.ell,) or np.any(self.alpha <= 0):
            raise ValueError("alpha must be a positive vector of length ell")
        if self.beta.shape != (self.ell, self.M) or np.any(self.beta <= 0):
            raise ValueError("beta must be a positive (ell, M) matrix")
        if self.theta.shape != (self.ell, self.M) or np.any(self.theta < 0):
            raise ValueError("theta must be a non-negative (ell, M) matrix")
        if not np.allclose(self.theta.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("theta rows must sum to 1")
        for (i, j, bits), vec in self.phi.items():
            members = RelationSet(bits)
            if not (1 <= i <= self.M and 1 <= j <= self.M):
                raise ValueError(f"phi key ({i}, {j}) outside the vocabulary")
            if len(vec) != len(members) or np.any(vec < 0):
                raise ValueError(f"phi vector for {(i, j, bits)} has wrong support")
            if abs(float(vec.sum()) - 1.0) > 1e-9:
                raise ValueError(f"phi vector for {(i, j, bits)} must sum to 1")
        if not self.size_histogram:
            raise ValueError("size histogram is empty")
        for size, count in self.size_histogram.items():
            if not (1 <= size <= self.k_star) or count <= 0:
                raise ValueError(f"bad size histogram entry {size}: {count}")
        for i, j in self.structure.links:
            if j >= self.k_star:
                raise ValueError(f"structure link ({i}, {j}) outside k_star nodes")


@dataclass
class GenerationState:
    """Mutable scratch state while sampling one network."""

    tables: List[int] = field(default_factory=list)
    actions: List[int] = field(default_factory=list)
    occupancy: List[float] = field(default_factory=list)
    x: Dict[Tuple[int, int], RelationSet] = field(default_factory=dict)


def crp_table_distribution(
    occupancy: Sequence[float], position: int, alpha: np.ndarray
) -> np.ndarray:
    """Seating distribution for the node at 1-based ``position``.

    ``occupancy`` holds the per-table counts of the ``position - 1`` nodes
    already seated; occupied tables always form a prefix of the budget, so
    entry ``z`` of the result is table ``z`` and the final entry (present
    only while the budget allows) is the next fresh table.  Each table uses
    its own concentration ``alpha[z]``: occupied tables weigh
    ``count / (position + alpha[z] - 1)``, a fresh table weighs
    ``alpha[z] / (position + alpha[z] - 1)``.  At the budget the fresh-table
    mass is redistributed proportionally by renormalizing over the occupied
    tables.  The returned vector sums to 1.
    """
    alpha = np.asarray(alpha, dtype=float)
    budget = len(alpha)
    occupied = len(occupancy)
    if occupied > budget:
        raise ValueError(f"{occupied} occupied tables exceed the budget {budget}")
    total = sum(occupancy)
    if total != position - 1:
        raise ValueError(f"occupancy sums to {total}, expected position-1 = {position - 1}")
    weights = [occupancy[z] / (position + alpha[z] - 1.0) for z in range(occupied)]
    if occupied < budget:
        weights.append(alpha[occupied] / (position + alpha[occupied] - 1.0))
    probs = np.asarray(weights, dtype=float)
    return probs / probs.sum()


def _draw(probs: Sequence[float], rng: np.random.Generator) -> int:
    """Index drawn from a normalized probability vector (cumulative scan)."""
    r = rng.random()
    acc = 0.0
    last = len(probs) - 1
    for idx in range(last):
        acc += probs[idx]
        if r < acc:
            return idx
    return last


def draw_size(model: ClassModel, rng: np.random.Generator) -> int:
    """Instance size drawn from the model's size histogram (one uniform draw)."""
    sizes = sorted(model.size_histogram.items())
    total = sum(count for _size, count in sizes)
    probs = [count / total for _size, count in sizes]
    return sizes[_draw(probs, rng)][0]


def sample_node(
    state: GenerationState, model: ClassModel, rng: np.random.Generator
) -> Tuple[int, int]:
    """Seat the next node and draw its action; returns (table, action id)."""
    position = len(state.tables) + 1
    table = _draw(crp_table_distribution(state.occupancy, position, model.alpha), rng)
    if table == len(state.occupancy):
        state.occupancy.append(1.0)
    else:
        state.occupancy[table] += 1.0
    action = _draw(model.theta[table], rng) + 1
    state.tables.append(table)
    state.actions.append(action)
    return table, action


def sample_network(model: ClassModel, k: int, rng: np.random.Generator) -> IntervalNetwork:
    """Sample a consistent k-node network: actions plus link relations.

    Relations are drawn only for structure links; every draw is restricted to
    the pair's interval-relation constraint (falling back to a uniform choice
    within the constraint when the phi key was never seen in training), so
    the network can always be realized by timestamps.  Non-link pairs retain
    their constraint sets internally but carry no relation in the output.
    """
    if not 1 <= k <= model.k_star:
        raise ValueError(f"cannot sample {k} nodes from a model with k_star {model.k_star}")
    state = GenerationState()
    relations: Dict[Tuple[int, int], "object"] = {}
    for n in range(k):
        sample_node(state, model, rng)
        for n_prime in range(n - 1, -1, -1):
            constraint = compute_constraint(state.x, n_prime, n)
            if (n_prime, n) in model.structure:
                members = constraint.members
                vec = model.phi.get((state.actions[n_prime], state.actions[n], constraint.bits))
                if vec is None:
                    probs = np.full(len(members), 1.0 / len(members))
                else:
                    probs = vec
                relation = members[_draw(probs, rng)]
                state.x[(n_prime, n)] = RelationSet.of(relation)
                relations[(n_prime, n)] = relation
            else:
                state.x[(n_prime, n)] = constraint
    return IntervalNetwork(actions=tuple(state.actions), relations=dict(relations))


def realize_timestamps(network: IntervalNetwork, label: Optional[str] = None) -> Instance:
    """Assign integer timestamps realizing a sampled network.

    Reconstructs the constraint matrix the sampler left behind (singletons on
    pairs that carry a relation, constraint sets elsewhere), then searches
    for interval placements on the grid ``0 .. 2k`` — ample, since ``k``
    intervals need at most ``2k`` distinct endpoint values.  The search is
    deterministic: candidates are tried in lexicographic order, so a given
    network always realizes to the same instance.
    """
    k = network.size
    x: Dict[Tuple[int, int], RelationSet] = {}
    for n in range(1, k):
        for n_prime in range(n - 1, -1, -1):
            constraint = compute_constraint(x, n_prime, n)
            relation = network.relations.get((n_prime, n))
            x[(n_prime, n)] = RelationSet.of(relation) if relation is not None else constraint

    candidates = list(combinations(range(2 * k + 1), 2))
    chosen: List[Tuple[int, int]] = []

    def admissible(candidate: Tuple[int, int], n: int) -> bool:
        if chosen and candidate < chosen[-1]:
            return False  # would break canonical node order
        for p in range(n):
            if relation_of(chosen[p], candidate) not in x[(p, n)]:
                return False
        return True

    def search(n: int) -> bool:
        if n == k:
            return True
        for candidate in candidates:
            if admissible(candidate, n):
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
