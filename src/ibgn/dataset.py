"""Corpus ingestion, folds, perturbation harnesses, synthetic data.

The on-disk format is JSON Lines: one object per instance with an optional
``label`` and a list of ``intervals``, each ``{"action": name, "start": t0,
"end": t1}``.  Loading sorts every instance canonically and interns action
and class names in first-appearance order; action id ``i`` (1-based) is
``vocab[i - 1]``.  An instance holds only its observed intervals; id 0 is
the null action, which only BIC structure learning reads, at the nodes past
an instance's end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

from .errors import DegenerateInterval, EmptyCorpus, InsufficientClassInstances, ParseError
from .generate import ClassModel, _distinct_names, sample_instance
from .model_io import ModelBundle
from .network import Instance, Interval, _canonical_key

__all__ = [
    "Corpus",
    "load_instances",
    "save_instances",
    "kfold_split",
    "perturb_labels",
    "perturb_durations",
    "build_synthetic_corpus",
]


@dataclass
class Corpus:
    """Instances plus the vocabularies their integer ids refer to."""

    instances: List[Instance] = field(default_factory=list)
    vocab: List[str] = field(default_factory=list)
    classes: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instances)

    def by_class(self) -> Dict[str, List[Instance]]:
        groups: Dict[str, List[Instance]] = {name: [] for name in self.classes}
        for inst in self.instances:
            if inst.label is not None:
                groups[inst.label].append(inst)
        return groups

    @property
    def labeled(self) -> bool:
        return all(inst.label is not None for inst in self.instances)


def _require_number(value, line_no: int, what: str) -> float:
    if type(value) is float and math.isfinite(value):  # most timestamps, as JSON parses them
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(line_no, f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(line_no, f"{what} must be finite, got {value!r}")
    return number


def load_instances(path) -> Corpus:
    """Read a JSONL corpus; blank lines are ignored.

    Raises :class:`ParseError` (with the line number) on malformed or too
    deeply nested records and :class:`DegenerateInterval` on intervals with
    start >= end.
    """
    instances: List[Instance] = []
    vocab: List[str] = []
    action_ids: Dict[str, int] = {}
    classes: Dict[str, str] = {}  # first-appearance order; one string object per label
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise ParseError(line_no, "JSON nested too deeply") from exc
            except ValueError as exc:  # an integer with more digits than the interpreter converts
                raise ParseError(line_no, f"invalid JSON ({exc})") from exc
            if not isinstance(record, dict) or not isinstance(record.get("intervals"), list):
                raise ParseError(line_no, "record must be an object with an 'intervals' list")
            label = record.get("label")
            if label is not None and not isinstance(label, str):
                raise ParseError(line_no, f"label must be a string, got {label!r}")
            intervals = []
            for entry in record["intervals"]:
                name = entry.get("action") if isinstance(entry, dict) else None
                if not isinstance(name, str) or not name:
                    raise ParseError(line_no, "interval must be an object with a non-empty string 'action'")
                start = _require_number(entry.get("start"), line_no, "start")
                end = _require_number(entry.get("end"), line_no, "end")
                if start >= end:
                    raise DegenerateInterval(
                        f"line {line_no}: interval [{start}, {end}] of "
                        f"action {name!r} has start >= end"
                    )
                action = action_ids.get(name)
                if action is None:
                    action = action_ids[name] = len(vocab) + 1
                    vocab.append(name)
                intervals.append(Interval(action, start, end))
            if label is not None:
                label = classes.setdefault(label, label)
            intervals.sort(key=_canonical_key)
            instances.append(Instance(label, tuple(intervals)))
    return Corpus(instances=instances, vocab=vocab, classes=list(classes))


# json.dumps(..., allow_nan=False) would build an encoder per record
_ENCODER = json.JSONEncoder(allow_nan=False)


def save_instances(corpus: Corpus, path) -> None:
    """Write a corpus to JSONL with stable bytes, intervals in the order given (loading sorts them).
    Raise ``ValueError`` before the file is opened for what :func:`load_instances` would refuse or
    read differently: vocab names that repeat or are not non-empty strings, a label that is not a
    string, an action id outside ``1 .. len(vocab)``, start >= end or a non-finite timestamp."""
    vocab = corpus.vocab
    if not _distinct_names(vocab):
        raise ValueError(f"vocab must be distinct non-empty strings, not {vocab!r}")
    lines = []
    for inst in corpus.instances:
        if inst.label is not None and not isinstance(inst.label, str):
            raise ValueError(f"label {inst.label!r} is not a string")
        for iv in inst.intervals:
            if not 1 <= iv.action <= len(vocab):
                raise ValueError(f"action id {iv.action} outside the vocabulary of {len(vocab)} names")
            if not iv.start < iv.end:
                raise ValueError(f"interval [{iv.start}, {iv.end}] of action {iv.action} has start >= end")
        record: Dict[str, object] = {}
        if inst.label is not None:
            record["label"] = inst.label
        record["intervals"] = [
            {"action": vocab[iv.action - 1], "start": iv.start, "end": iv.end} for iv in inst.intervals
        ]
        lines.append(_ENCODER.encode(record) + "\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def kfold_split(corpus: Corpus, folds: int = 5, seed: int = 0) -> List[Tuple[Corpus, Corpus]]:
    """Stratified k-fold split: per class, shuffle then deal round-robin.

    Returns ``folds`` pairs ``(train, test)`` sharing the parent corpus's
    vocabularies.  Raises :class:`InsufficientClassInstances` when any class
    has fewer instances than folds.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if not corpus.labeled:
        raise ValueError("cross-validation requires a fully labeled corpus")
    if not corpus.classes:
        raise EmptyCorpus("corpus has no labeled instances")
    rng = np.random.default_rng(seed)
    fold_of = [0] * len(corpus.instances)
    for name in corpus.classes:
        indices = [i for i, inst in enumerate(corpus.instances) if inst.label == name]
        if len(indices) < folds:
            raise InsufficientClassInstances(
                f"class {name!r} has {len(indices)} instances, need >= {folds}"
            )
        order = rng.permutation(len(indices))
        for position, which in enumerate(order):
            fold_of[indices[which]] = position % folds
    splits = []
    for fold in range(folds):
        train = [inst for i, inst in enumerate(corpus.instances) if fold_of[i] != fold]
        test = [inst for i, inst in enumerate(corpus.instances) if fold_of[i] == fold]
        splits.append(
            (
                Corpus(instances=train, vocab=list(corpus.vocab), classes=list(corpus.classes)),
                Corpus(instances=test, vocab=list(corpus.vocab), classes=list(corpus.classes)),
            )
        )
    return splits


def perturb_labels(corpus: Corpus, rate: float, seed: int = 0) -> Corpus:
    """Relabel each interval with probability ``rate`` to a different action.

    Timestamps are untouched, so the relation structure survives; only the
    action evidence degrades.  With a single-action vocabulary there is no
    different action to draw and intervals stay as they are.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    vocab_size = len(corpus.vocab)
    instances = []
    for inst in corpus.instances:
        intervals = []
        for iv in inst.intervals:
            if vocab_size >= 2 and rng.random() < rate:
                shifted = int(rng.integers(vocab_size - 1)) + 1
                new_action = shifted if shifted < iv.action else shifted + 1
                iv = Interval(action=new_action, start=iv.start, end=iv.end)
            intervals.append(iv)
        instances.append(Instance(label=inst.label, intervals=tuple(intervals)))
    return Corpus(instances=instances, vocab=list(corpus.vocab), classes=list(corpus.classes))


def perturb_durations(corpus: Corpus, rate: float, seed: int = 0) -> Corpus:
    """Jitter both endpoints of each interval by up to ``rate`` of its length.

    Start and end move independently by uniform noise in
    ``[-rate * length, +rate * length]``.  Inverted results are repaired by
    swapping the endpoints; a zero-width collision is widened by the smallest
    representable step.  Instances are re-sorted canonically afterwards.  A
    rate whose jitter range ``2 * rate * length`` is not finite, or that moves
    an endpoint past the largest float, is rejected.
    """
    if rate < 0.0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    rng = np.random.default_rng(seed)
    instances = []
    for inst in corpus.instances:
        intervals = []
        for iv in inst.intervals:
            reach = rate * (iv.end - iv.start)
            if not math.isfinite(2.0 * reach):  # the width of the uniform draw below
                raise ValueError(f"rate {rate} gives a non-finite jitter range on [{iv.start}, {iv.end}]")
            start = iv.start + rng.uniform(-reach, reach)
            end = iv.end + rng.uniform(-reach, reach)
            if start > end:
                start, end = end, start
            if start == end:
                end = float(np.nextafter(end, np.inf))
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ValueError(f"rate {rate} jitters [{iv.start}, {iv.end}] to a non-finite endpoint")
            intervals.append(Interval(action=iv.action, start=start, end=end))
        instances.append(Instance(label=inst.label, intervals=tuple(intervals)).canonicalized())
    return Corpus(instances=instances, vocab=list(corpus.vocab), classes=list(corpus.classes))


def build_synthetic_corpus(
    class_models: Mapping[str, ClassModel], per_class: int, seed: int = 0
) -> Corpus:
    """Sample a labeled corpus from per-class generative models.

    Every model must share the same action vocabulary.  Instance sizes are
    drawn from each model's size histogram; networks are sampled and then
    realized to integer timestamps, so the emitted corpus is temporally
    consistent by construction and byte-stable for a fixed seed.
    """
    if not class_models:
        raise EmptyCorpus("no class models given")
    if per_class < 1:
        raise ValueError("per_class must be positive")
    names = list(class_models)
    vocab = list(class_models[names[0]].action_vocab)
    ModelBundle(vocab, names, dict(class_models))  # a ValueError unless every model has this vocabulary
    rng = np.random.default_rng(seed)
    instances = [
        sample_instance(class_models[name], rng, label=name) for name in names for _ in range(per_class)
    ]
    return Corpus(instances=instances, vocab=vocab, classes=names)
