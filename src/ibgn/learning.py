"""Parameter and structure learning for interval-network class models.

Tables are latent: the likelihood of the per-table action distributions is
collapsed out, and a Gibbs sweep reseats every node of every instance in
order, in one loop per instance over plain lists.  A node's weight for a
table multiplies a Dirichlet-multinomial likelihood factor (corpus-wide
table/action counts with the node removed) by a sequential seating factor
that conditions on the occupancy of that instance's *earlier* nodes only —
so occupied tables always form a contiguous prefix of the table budget
within an instance.  The sweep keeps that occupancy as a running count
(:func:`~ibgn.generate.count_seat`, as the prior draw and the generator do)
and draws each table by the generator's cumulative scan.

The concentration parameters are refit by multiplicative Pólya
(Dirichlet-multinomial) fixed-point steps over a window of count samples
recorded one per training instance per sweep — per-table occupancy vectors
(minus each instance's deterministic first seat) for the seating strengths,
per-table action counts for the dish priors.  The steps read only how often
each count value occurs in the window (Minka's count-histogram form), so the
window is kept as running histogram sums whose size does not depend on its
length, and each ``psi(c + x) - psi(x)`` is summed as ``sum_{j < c} 1 / (x + j)``.
The sweeps stop once the window is complete: the remaining iterations are
refit steps alone, which do not run to convergence.
Relation distributions are estimated afterwards by a deterministic scan that
replays, for every structure link, the constraint under which its relation
was chosen.  Structure itself is picked per link by a decomposable BIC
comparison, which makes the per-link decision globally optimal.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .algebra import relation_of
from .dataset import Corpus
from .errors import ConfigInvalid, DomainError, EmptyCorpus
from .generate import ClassModel, _draw, count_seat, seat_next
from .model_io import ModelBundle
from .network import NULL_ACTION, Instance, StructureMask, scan_link_constraints

__all__ = [
    "TrainConfig",
    "SamplerState",
    "digamma",
    "run_gibbs",
    "update_hyperparams",
    "estimate_theta",
    "estimate_phi",
    "collect_link_counts",
    "NULL_RELATION_CODE",
    "bic_family_score",
    "learn_structure",
    "train_class_model",
    "train_bundle",
]

NULL_RELATION_CODE = 7  # relation variables take 7 real values plus null

_STRUCTURE_MODES = ("learned", "chain", "full")
_TYPED_FIELDS = (  # numpy scalars register as numbers.Integral / numbers.Real; bool is refused apart
    (("iterations", "burn_in", "avg_window"), numbers.Integral, "an integer"),
    (("rho", "alpha_init", "beta_init"), numbers.Real, "a real number"),
)


# ---------------------------------------------------------------------------
# special functions


def digamma(x):
    """Digamma, accurate to |error| < 1e-10 for positive arguments.

    Small arguments are shifted upward with psi(y) = psi(y+1) - 1/y until
    y >= 6, where the asymptotic expansion (Bernoulli tail through y**-14,
    truncation error ~1e-13 at y = 6) takes over.  Accepts scalars or arrays;
    raises :class:`~ibgn.errors.DomainError` off the positive axis.
    """
    scalar = np.ndim(x) == 0
    y = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    if y.size and (np.any(~np.isfinite(y)) or np.any(y <= 0.0)):
        raise DomainError("digamma requires finite, strictly positive arguments")
    acc = np.zeros_like(y)
    while True:
        small = y < 6.0
        if not small.any():
            break
        acc[small] -= 1.0 / y[small]
        y[small] += 1.0
    inv = 1.0 / y
    inv2 = inv * inv
    tail = 1.0 / 12 - inv2 * (
        1.0 / 120
        - inv2 * (1.0 / 252 - inv2 * (1.0 / 240 - inv2 * (1.0 / 132 - inv2 * (691.0 / 32760 - inv2 / 12))))
    )
    result = acc + np.log(y) - 0.5 * inv - inv2 * tail
    return float(result[0]) if scalar else result.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# configuration and sampler state


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one class-model fit."""

    iterations: int = 2000
    burn_in: int = 500
    avg_window: int = 1000
    structure: str = "learned"
    rho: float = 1e-5
    alpha_init: float = 1.0
    beta_init: float = 0.5
    clamp_lo: ClassVar[float] = 1e-6  # the refit's bounds on alpha and beta
    clamp_hi: ClassVar[float] = 1e6

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for names, kind, noun in _TYPED_FIELDS:
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ConfigInvalid(f"{name} must be {noun}, not {value!r}")
        if self.structure not in _STRUCTURE_MODES:
            raise ConfigInvalid(f"structure must be one of {_STRUCTURE_MODES}")
        if self.iterations < 1 or self.burn_in < 0 or self.avg_window < 1:
            raise ConfigInvalid("iterations/burn_in/avg_window out of range")
        if self.iterations < self.burn_in + self.avg_window:
            raise ConfigInvalid(
                f"iterations ({self.iterations}) must cover burn_in + avg_window "
                f"({self.burn_in} + {self.avg_window})"
            )
        if not self.rho > 0:  # NaN fails too
            raise ConfigInvalid("rho must be positive")
        if not math.isfinite(7 * self.rho):  # phi smoothing adds rho once per member of a 7-relation constraint
            raise ConfigInvalid("rho times 7, the largest constraint size, must be finite")
        for name in ("alpha_init", "beta_init"):  # the bounds also refuse NaN, infinities and values <= 0
            if not self.clamp_lo <= getattr(self, name) <= self.clamp_hi:
                raise ConfigInvalid(f"{name} must lie within the clamp bounds [{self.clamp_lo:g}, {self.clamp_hi:g}]")


@dataclass(eq=False)
class SamplerState:
    """What :func:`run_gibbs` fits and :func:`update_hyperparams` refits for one class's corpus."""

    assignments: List[List[int]]  # per instance, table index per node
    alpha: np.ndarray  # (ell,)
    beta: np.ndarray  # (ell, M)
    window_table: np.ndarray  # (ell, cap) window-summed histograms of per-instance occupancy
    window_alpha: np.ndarray  # (ell, cap) same but excluding each instance's first seat
    window_action: np.ndarray  # (ell, M, cap) same for per-instance action counts
    length_hist: np.ndarray  # (cap,) histogram of instance lengths minus the first seat
    window_sweeps: int = 0  # sweeps summed into the window histograms

    @property
    def averaged_na(self) -> np.ndarray:
        """(ell, M) table/action counts averaged over the window sweeps."""
        cap = self.window_action.shape[2]
        return (self.window_action * np.arange(cap)).sum(axis=2) / self.window_sweeps


# ---------------------------------------------------------------------------
# collapsed Gibbs


def _psi_increments(y, count: int) -> np.ndarray:
    """Entry ``c - 1`` is ``psi(c + y) - psi(y) = sum_{j < c} 1 / (y + j)``, for ``c = 1..count``."""
    return np.cumsum(1.0 / (np.asarray(y)[..., None] + np.arange(count)), axis=-1)


def _polya_step(x: np.ndarray, hist: np.ndarray, totals: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """One multiplicative fixed-point step for Dirichlet-multinomial parameters ``x`` ``(..., K)``.

    ``hist[..., k, c]`` counts the samples whose entry ``k`` is ``c`` and
    ``totals[..., c]`` those whose total is ``c``.  Each sample adds
    ``psi(c + x_k) - psi(x_k)`` to the numerator of ``x_k`` and
    ``psi(total + sum(x)) - psi(sum(x))`` to the vector's denominator
    (Minka 2000).  A vector whose denominator is zero is left unchanged;
    the others are clamped to ``[lo, hi]``.
    """
    count = hist.shape[-1] - 1
    num = (hist[..., 1:] * _psi_increments(x, count)).sum(axis=-1)
    den = (totals[..., 1:] * _psi_increments(x.sum(axis=-1), count)).sum(axis=-1)[..., None]
    safe = np.where(den > 0.0, den, 1.0)
    return np.where(den > 0.0, np.clip(x * num / safe, lo, hi), x)


def update_hyperparams(state: SamplerState, config: TrainConfig) -> Tuple[np.ndarray, np.ndarray]:
    """One :func:`_polya_step` for alpha and one for every beta row.

    The samples are per-instance count vectors, one per instance per recorded
    sweep, read from the window-summed count histograms.  For alpha a sample
    is the instance's table occupancy excluding its first seat (deterministic
    under the canonical table labeling, so it carries no information about
    the strengths), with total instance length minus one; for each beta row
    it is the instance's action counts at that table, with total its node
    count there.  The new values are written into the state and returned.
    """
    if state.window_sweeps == 0:
        raise ValueError("no count samples recorded yet")
    lo, hi = config.clamp_lo, config.clamp_hi
    state.alpha = _polya_step(state.alpha, state.window_alpha, state.window_sweeps * state.length_hist, lo, hi)
    state.beta = _polya_step(state.beta, state.window_action, state.window_table, lo, hi)
    return state.alpha, state.beta


def _add_histograms(window: np.ndarray, counts: np.ndarray) -> None:
    """Add to ``window`` ``(*cells, cap)``, per cell, how many instances have
    each count in ``counts`` ``(D, *cells)``: one ``bincount``, cell ``c`` at offset ``c * cap``."""
    cap = window.shape[-1]
    offsets = np.arange(0, window.size, cap).reshape(counts.shape[1:])
    flat = np.bincount((counts + offsets).ravel(), minlength=window.size)
    window += flat.reshape(window.shape)


def run_gibbs(
    instances: Sequence[Instance],
    vocab_size: int,
    config: TrainConfig,
    rng: np.random.Generator,
    ell: Optional[int] = None,
) -> SamplerState:
    """Fit table assignments and hyperparameters on one class's instances.

    Assignments are initialized by a sequential draw from the seating prior;
    each of the first ``burn_in + avg_window`` sweeps then reseats every node
    of every instance in order, on local lists of the table/action counts, at
    the initial alpha and beta, which are scalars.  Per node a sweep removes the
    node's count, weighs the tables, draws one by :func:`~ibgn.generate._draw`
    at one uniform times the weights' sum, adds the count back and counts the
    table in the running occupancy.  Each of the ``avg_window`` sweeps after
    burn-in adds its per-instance count histograms to the window sums that
    ``averaged_na`` and the refit read.  The sweeps stop when the window
    closes, since nothing reads a later seating: the remaining
    ``iterations - burn_in - avg_window`` steps are fixed-point refits over
    the window sums alone.  ``rng`` is advanced only by the prior draw and the
    sweeps, one uniform per node each.  The returned state holds the last
    window sweep's seating, the refit alpha and beta and the window sums.
    Fixed seed, config and corpus give bit-identical results.
    """
    if not instances:
        raise EmptyCorpus("cannot run the sampler on an empty corpus")
    actions = [[iv.action - 1 for iv in inst.intervals] for inst in instances]
    for d, inst_actions in enumerate(actions):
        if not inst_actions:  # every instance seats its first node at table 0
            raise EmptyCorpus(f"instance {d} is empty")
        for a in inst_actions:
            if not 0 <= a < vocab_size:
                raise ValueError(f"action id {a + 1} outside vocabulary of size {vocab_size}")
    longest = max(len(a) for a in actions)
    if ell is None:
        ell = longest
    elif ell < 1:
        raise ValueError(f"table budget ell={ell} must be at least 1")

    cap = longest + 1
    state = SamplerState(
        assignments=[[] for _ in actions],
        alpha=np.full(ell, float(config.alpha_init)),
        beta=np.full((ell, vocab_size), float(config.beta_init)),
        window_table=np.zeros((ell, cap)),
        window_alpha=np.zeros((ell, cap)),
        window_action=np.zeros((ell, vocab_size, cap)),
        length_hist=np.bincount([len(a) - 1 for a in actions], minlength=cap).astype(float),
    )
    cells = ell * vocab_size
    # static per-node (instance, action) offsets of the per-sweep count cells
    node_cells = np.asarray(
        [d * cells + a for d, inst_actions in enumerate(actions) for a in inst_actions], dtype=np.int64
    )
    # the sweep's table/action counts live only in these lists; alpha and beta stay fixed until the refits
    na, rows = [[0.0] * vocab_size for _ in range(ell)], [0.0] * ell
    a0, b0 = float(config.alpha_init), float(config.beta_init)
    alpha, brow = state.alpha.tolist(), b0 * vocab_size

    # sequential prior draw
    for inst_actions, seats in zip(actions, state.assignments):
        occupancy: List[float] = []
        for a in inst_actions:
            z = seat_next(occupancy, alpha, rng.random())
            seats.append(z)
            na[z][a] += 1.0
            rows[z] += 1.0

    sweeps = config.burn_in + config.avg_window
    for sweep in range(1, sweeps + 1):
        uniforms = iter(rng.random(len(node_cells)).tolist())
        for inst_actions, seats in zip(actions, state.assignments):
            occupancy = []
            for n, a in enumerate(inst_actions):
                z = seats[n]
                na[z][a] -= 1.0
                rows[z] -= 1.0
                position = n + 1
                weights = [
                    (na[t][a] + b0) / (rows[t] + brow) * count / (position + a0 - 1.0)
                    for t, count in enumerate(occupancy)
                ]
                t = len(occupancy)
                if t < ell:
                    like = (na[t][a] + b0) / (rows[t] + brow)
                    weights.append(like * a0 / (position + a0 - 1.0))
                z = _draw(weights, next(uniforms) * sum(weights))
                seats[n] = z
                na[z][a] += 1.0
                rows[z] += 1.0
                count_seat(occupancy, z)
        if sweep <= config.burn_in:
            continue
        node_table = np.asarray([t for seats in state.assignments for t in seats], dtype=np.int64)
        per_instance = np.bincount(
            node_cells + node_table * vocab_size, minlength=len(actions) * cells
        ).reshape(len(actions), ell, vocab_size)
        _add_histograms(state.window_action, per_instance)
        occ = per_instance.sum(axis=2)
        _add_histograms(state.window_table, occ)
        occ[:, 0] -= 1  # every instance seats its first node at table 0, the only one open to it
        _add_histograms(state.window_alpha, occ)
        state.window_sweeps += 1
    for _ in range(config.iterations - sweeps):
        update_hyperparams(state, config)
    return state


# ---------------------------------------------------------------------------
# point estimates


def estimate_theta(averaged_na: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Posterior-mean action distributions: (counts + beta) row-normalized."""
    smoothed = np.asarray(averaged_na, dtype=float) + np.asarray(beta, dtype=float)
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def collect_link_counts(instances: Sequence[Instance], mask: StructureMask) -> Dict[Tuple[int, int, int], np.ndarray]:
    """Observed relation counts per (action, action, constraint) key.

    Replays the constraint resolution on every instance and tallies which
    member of the active constraint the observed relation was.  Timestamps
    keep it inside; ``RelationSet.index_of`` raises ``ValueError`` otherwise.
    """
    counts: Dict[Tuple[int, int, int], np.ndarray] = {}
    for inst in instances:
        for n_prime, n, constraint, relation in scan_link_constraints(inst, mask):
            key = (inst.intervals[n_prime].action, inst.intervals[n].action, constraint.bits)
            vec = counts.get(key)
            if vec is None:
                vec = np.zeros(len(constraint))
                counts[key] = vec
            vec[constraint.index_of(relation)] += 1.0
    return counts


def estimate_phi(
    link_counts: Mapping[Tuple[int, int, int], np.ndarray], rho: float
) -> Dict[Tuple[int, int, int], np.ndarray]:
    """Smoothed relation distributions over each key's constraint members.

    Every member gets ``(count + rho) / (total + rho * size)``; a singleton
    constraint therefore gets probability exactly 1.
    """
    phi: Dict[Tuple[int, int, int], np.ndarray] = {}
    for key, vec in link_counts.items():
        vec = np.asarray(vec, dtype=float)
        phi[key] = (vec + rho) / (vec.sum() + rho * len(vec))
    return phi


# ---------------------------------------------------------------------------
# structure learning


def _family_counts(instances: Sequence[Instance], k_star: int) -> Dict[Tuple[int, int], Counter]:
    """The joint counts of every pair ``(i, j)`` of ``range(k_star)``, keys in order of first
    occurrence, in one pass that reads every pair inside an instance with ``relation_of`` (so
    an instance out of canonical order raises :class:`~ibgn.errors.OrderViolation`)."""
    joint = {(i, j): Counter() for i in range(k_star) for j in range(i + 1, k_star)}
    for inst in instances:
        times = [iv.times for iv in inst.intervals]
        actions = [iv.action for iv in inst.intervals] + [NULL_ACTION] * (k_star - len(times))
        for (i, j), counts in joint.items():
            code = relation_of(times[i], times[j]).value if j < len(times) else NULL_RELATION_CODE
            counts[((actions[i], actions[j]), code)] += 1
    return joint


def bic_family_score(
    joint: Mapping[Tuple[Tuple[int, int], int], int], vocab_size: int, with_parents: bool
) -> float:
    """BIC score of one relation variable, with or without its action parents.

    ``joint`` counts the instances with each ``((parent actions), relation
    code)``: codes 0..6 are the forward relations and 7 is null, and the
    parents are the two node actions (0 = null).  A node at or past an
    instance's end is null, as is any relation that touches it.  The score is
    the log-likelihood of the observed relation values (0 log 0 = 0) minus the
    complexity penalty ``log(D)/2 * 7 * num_parent_configurations`` — the
    relation variable contributes 7 free probabilities per configuration, and
    the actions range over the vocabulary plus null.  ``D`` and the marginal
    counts are sums of the joint counts.
    """
    size = sum(joint.values())
    if size <= 0:
        raise EmptyCorpus("BIC needs at least one instance")
    penalty_unit = math.log(size) / 2.0 * 7.0
    totals: Counter = Counter()
    if with_parents:
        for (parents, _code), n in joint.items():
            totals[parents] += n
        loglik = sum(n * math.log(n / totals[parents]) for (parents, _code), n in joint.items() if n > 0)
        return loglik - penalty_unit * (vocab_size + 1) ** 2
    for (_parents, code), n in joint.items():  # the marginal, codes in order of first occurrence
        totals[code] += n
    loglik = sum(n * math.log(n / size) for n in totals.values() if n > 0)
    return loglik - penalty_unit


def learn_structure(instances: Sequence[Instance], vocab_size: int) -> StructureMask:
    """Pick the structure mask maximizing the BIC-scored network.

    The score decomposes over pairs, so each pair is linked exactly when
    conditioning its relation on the two actions scores strictly better than
    leaving it marginal — which is simultaneously the global argmax over all
    masks.  Pairs range over the longest instance's nodes; a shorter
    instance counts as null at the nodes past its end.
    """
    k_star = max((len(inst) for inst in instances), default=0)
    if k_star == 0:
        raise EmptyCorpus("cannot learn structure without a non-empty instance")
    links = []
    for pair, joint in _family_counts(instances, k_star).items():
        if bic_family_score(joint, vocab_size, True) > bic_family_score(joint, vocab_size, False):
            links.append(pair)
    return StructureMask.of(links)


# ---------------------------------------------------------------------------
# end-to-end per-class training


def train_class_model(
    instances: Sequence[Instance],
    vocab: Sequence[str],
    config: TrainConfig,
    rng: np.random.Generator,
) -> ClassModel:
    """Fit one class's full generative model from its labeled instances."""
    instances = [inst for inst in instances if len(inst) > 0]
    if not instances:
        raise EmptyCorpus("cannot train without a non-empty instance")
    k_star = max(len(inst) for inst in instances)
    if config.structure == "chain":
        mask = StructureMask.chain(k_star)
    elif config.structure == "full":
        mask = StructureMask.full(k_star)
    else:
        mask = learn_structure(instances, len(vocab))
    state = run_gibbs(instances, len(vocab), config, rng, ell=k_star)
    averaged_na = state.averaged_na
    theta = estimate_theta(averaged_na, state.beta)
    phi = estimate_phi(collect_link_counts(instances, mask), config.rho)
    model = ClassModel(
        k_star=k_star,
        ell=k_star,
        alpha=state.alpha,
        beta=state.beta,
        theta=theta,
        structure=mask,
        phi=phi,
        action_vocab=tuple(vocab),
        size_histogram=dict(Counter(len(inst) for inst in instances)),
    )
    # diagnostic breadcrumb for the CLI summary; not part of the model proper
    model.occupied_tables = int(np.sum(averaged_na.sum(axis=1) > 0.5))
    return model


def _fit_class(payload) -> Tuple[str, ClassModel]:
    name, instances, vocab, config, seed_key = payload
    return name, train_class_model(instances, vocab, config, np.random.default_rng(seed_key))


def train_bundle(
    corpus: Corpus, config: TrainConfig, seed_key: Sequence[int], jobs: int = 1
) -> ModelBundle:
    """Fit one model per class of ``corpus``; when jobs > 1, in at most one process per class.

    ``jobs`` must be at least 1.  Seed rule: class ``idx`` of ``corpus.classes``
    trains with the rng ``default_rng(seed_key + [idx])`` and results are
    merged in class order, so the bundle does not depend on ``jobs`` or on
    worker scheduling.
    """
    if jobs < 1:
        raise ConfigInvalid(f"jobs must be at least 1, got {jobs}")
    groups = corpus.by_class()
    if not groups:
        raise EmptyCorpus("corpus has no labeled instances")
    payloads = [
        (name, groups[name], corpus.vocab, config, list(seed_key) + [idx])
        for idx, name in enumerate(corpus.classes)
    ]
    if jobs > 1:
        import concurrent.futures  # only a process pool needs it; ``import ibgn`` stays lighter
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            models = dict(pool.map(_fit_class, payloads))
    else:
        models = dict(map(_fit_class, payloads))
    return ModelBundle(vocab=list(corpus.vocab), classes=list(corpus.classes), models=models)
