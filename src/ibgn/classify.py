"""Scoring instances against class models and picking the best class.

A score is a sum of log terms: one per interval for the action (its total
mass across the model's table-action distributions) and one per structure
link for the observed relation, conditioned on the interval-relation
constraint active at that link — replayed exactly as during training.

Test-time vocabularies need not match the training vocabulary: actions are
remapped by name, unknown actions contribute ``log(EPS)`` to the action term
and force the uniform-within-constraint fallback on links that touch them.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import NoModels
from .generate import EPS, ClassModel, _log
from .network import Instance, scan_link_constraints

__all__ = ["Prediction", "score_instance", "predict"]


class Prediction(NamedTuple):
    """Classification outcome: winning label, per-class scores, margin."""

    label: str
    scores: Tuple[float, ...]
    margin: float


def score_instance(model: ClassModel, instance: Instance, vocab: Sequence[str]) -> float:
    """Log-score of an instance under one class model (always finite).

    ``vocab`` is the instance's own id-to-name vocabulary.  The action term
    covers every interval; link terms cover the links inside the (canonical)
    instance, which all end before ``k_star``, so longer instances are
    truncated for the relation part.  An empty instance scores 0.  An action
    id outside ``1 .. len(vocab)`` raises ``ValueError``.
    """
    ids: List[Optional[int]] = []
    score = 0.0
    log_theta_mass = model.log_theta_mass
    for iv in instance.intervals:
        if not 1 <= iv.action <= len(vocab):
            raise ValueError(f"action id {iv.action} outside vocabulary of size {len(vocab)}")
        mid = model.action_id(vocab[iv.action - 1])
        ids.append(mid)
        score += log_theta_mass[mid - 1] if mid is not None else math.log(EPS)

    for n_prime, n, constraint, relation in scan_link_constraints(instance, model.structure):
        probs = model.relation_probs(ids[n_prime], ids[n], constraint)
        score += _log(probs[constraint.index_of(relation)])
    return score


def predict(
    models: Sequence[Tuple[str, ClassModel]],
    instance: Instance,
    vocab: Sequence[str],
) -> Prediction:
    """Max-score classification; ties break to the lowest class index."""
    if not models:
        raise NoModels("prediction requires at least one class model")
    scores = tuple([score_instance(model, instance, vocab) for _, model in models])
    ranked = sorted(scores)
    margin = ranked[-1] - ranked[-2] if len(ranked) > 1 else 0.0  # the runner-up is the second largest
    return Prediction(label=models[scores.index(ranked[-1])][0], scores=scores, margin=margin)
