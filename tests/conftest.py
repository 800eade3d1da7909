"""Shared builders for the test suite."""

from __future__ import annotations

import copy
import itertools
import math
import os
from pathlib import Path

import numpy as np

import ibgn
from ibgn import (
    ClassModel,
    FULL_SET,
    Instance,
    Interval,
    NULL_ACTION,
    NULL_RELATION_CODE,
    StructureMask,
    TrainConfig,
    bic_family_score,
    instance_to_network,
)


def child_env(**overrides):
    """Environment for a Python child process that runs this same package.

    The inherited environment is kept, but the ``src`` directory of the
    ``ibgn`` that this process imported goes first on ``PYTHONPATH``, so the
    child needs no installed copy and cannot pick up a different one.
    """
    env = dict(os.environ, **overrides)
    src = str(Path(ibgn.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([src, inherited] if inherited else [src])
    return env


def is_canonical(instance: Instance) -> bool:
    """Whether the intervals are in canonical order: ``(start, end)`` tuple order."""
    keys = [iv.times for iv in instance.intervals]
    return keys == sorted(keys)


def tiny_config(**overrides) -> TrainConfig:
    """A config small enough for unit tests but valid for the full pipeline."""
    defaults = dict(iterations=40, burn_in=10, avg_window=30, structure="chain")
    defaults.update(overrides)
    return TrainConfig(**defaults)


def random_instance(rng: np.random.Generator, k: int, label=None) -> Instance:
    """Random timestamped instance with integer-ish endpoints (ties likely)."""
    intervals = []
    for _ in range(k):
        start = int(rng.integers(0, 3 * k))
        length = int(rng.integers(1, k + 3))
        intervals.append(Interval(action=1, start=float(start), end=float(start + length)))
    return Instance(label=label, intervals=tuple(intervals)).canonicalized()


def random_actions_instance(
    rng: np.random.Generator, k: int, vocab_size: int, label=None
) -> Instance:
    inst = random_instance(rng, k, label=label)
    intervals = tuple(
        Interval(action=int(rng.integers(1, vocab_size + 1)), start=iv.start, end=iv.end)
        for iv in inst.intervals
    )
    return Instance(label=label, intervals=intervals)


def uniform_model(
    vocab=("a", "b"), k_star: int = 4, structure: str = "full", sizes=None
) -> ClassModel:
    """Maximally vague model: uniform actions, empty phi (uniform fallback)."""
    m = len(vocab)
    mask = StructureMask.full(k_star) if structure == "full" else StructureMask.chain(k_star)
    return ClassModel(
        k_star=k_star,
        ell=k_star,
        alpha=np.ones(k_star),
        beta=np.full((k_star, m), 0.5),
        theta=np.full((k_star, m), 1.0 / m),
        structure=mask,
        phi={},
        action_vocab=tuple(vocab),
        size_histogram=sizes or {k_star: 1},
    )


def random_model(rng: np.random.Generator, vocab_size: int = 3, k_star: int = 5) -> ClassModel:
    """Random theta rows and random phi vectors over every composition class."""
    from ibgn import enumerate_composition_classes

    theta = rng.random((k_star, vocab_size)) + 0.05
    theta /= theta.sum(axis=1, keepdims=True)
    phi = {}
    for i in range(1, vocab_size + 1):
        for j in range(1, vocab_size + 1):
            for cls in enumerate_composition_classes():
                vec = rng.random(cls.cardinality) + 0.05
                phi[(i, j, cls.members.bits)] = vec / vec.sum()
    return ClassModel(
        k_star=k_star,
        ell=k_star,
        alpha=rng.random(k_star) + 0.5,
        beta=rng.random((k_star, vocab_size)) + 0.2,
        theta=theta,
        structure=StructureMask.full(k_star),
        phi=phi,
        action_vocab=tuple(f"act{i}" for i in range(vocab_size)),
        size_histogram={k: 1 for k in range(1, k_star + 1)},
    )


def phi_is_float_tuples(model: ClassModel) -> bool:
    """Whether every phi vector of ``model`` is a tuple of Python floats."""
    return all(type(vec) is tuple and all(type(p) is float for p in vec) for vec in model.phi.values())


MALFORMED_BUNDLE_CASES = (
    "no_models", "top_level_list", "class_without_model", "model_without_phi", "classes_not_a_list",
    "vocab_a_string", "vocab_not_strings", "vocab_repeated", "vocab_empty_name", "classes_repeated",
    "nan_phi", "nan_alpha", "inf_beta", "vocab_empty_list", "negative_alpha", "negative_theta",
    "phi_i_past_vocab", "k_star_float", "k_star_string", "size_count_float", "size_count_bool",
    "size_key_padded", "structure_float", "phi_i_float", "phi_key_repeated", "size_key_repeated",
    "k_star_repeated", "alpha_bool", "alpha_text", "beta_underscore", "theta_padded", "phi_probs_number",
    "model_without_class", "constraint_reordered", "constraint_spaced", "constraint_repeated",
    "constraint_empty",
)


class RepeatedKeys(dict):
    """An object that ``json.dumps`` writes with the ``first`` pairs before its own, so that a key
    can appear in it twice."""

    def __init__(self, first, own):
        super().__init__(own)
        self.first = first

    def items(self):
        return [*self.first, *super().items()]


def malformed_bundle(valid: dict, case: str):
    """A copy of a saved bundle document, broken in the way ``case`` names.

    Every case keeps the supported schema version where it has one, so only
    the document's shape or one parameter's value is wrong.
    """
    document = copy.deepcopy(valid)
    if case == "no_models":
        del document["models"]
    elif case == "top_level_list":
        document = [document]
    elif case == "class_without_model":
        document["classes"].append("ghost")
    elif case == "model_without_phi":
        del document["models"][document["classes"][0]]["phi"]
    elif case == "classes_not_a_list":
        document["classes"] = 5
    elif case == "vocab_a_string":
        document["vocab"] = "".join(name[0] for name in document["vocab"])  # one name per character
    elif case == "vocab_not_strings":
        document["vocab"] = list(range(1, len(document["vocab"]) + 1))
    elif case == "vocab_repeated":
        document["vocab"][-1] = document["vocab"][0]
    elif case == "vocab_empty_name":
        document["vocab"][0] = ""
    elif case == "classes_repeated":
        document["classes"].append(document["classes"][0])
    elif case == "vocab_empty_list":
        document["vocab"] = []
    elif case == "model_without_class":
        document["models"]["ghost"] = copy.deepcopy(document["models"][document["classes"][0]])
        document["models"]["junk"] = 17
    else:
        model = document["models"][document["classes"][0]]
        sizes = list(model["size_histogram"])
        if case == "nan_phi":
            model["phi"][0]["probs"] = ["nan"] * len(model["phi"][0]["probs"])
        elif case == "nan_alpha":
            model["alpha"] = ["nan"] * len(model["alpha"])
        elif case == "inf_beta":
            model["beta"][0][0] = "inf"
        elif case == "negative_alpha":
            model["alpha"][0] = "-1.0"
        elif case == "negative_theta":  # the row still sums to 1
            model["theta"][0] = ["1.5", "-0.5"] + ["0"] * (len(model["theta"][0]) - 2)
        elif case == "phi_i_past_vocab":
            model["phi"][0]["i"] = len(document["vocab"]) + 1
        # non-integers that int() would coerce, and a key that would overwrite an earlier entry
        elif case == "k_star_float":
            model["k_star"], model["ell"] = model["k_star"] + 0.9, model["ell"] + 0.2
        elif case == "k_star_string":
            model["k_star"] = str(model["k_star"])
        elif case == "size_count_float":
            model["size_histogram"][sizes[0]] = 2.7
        elif case == "size_count_bool":
            model["size_histogram"][sizes[0]] = True
        elif case == "size_key_padded":
            model["size_histogram"]["0" + sizes[0]] = model["size_histogram"].pop(sizes[0])
        elif case == "structure_float":
            model["structure"] = [[0, 1.9]]
        elif case == "phi_i_float":
            model["phi"][0]["i"] += 0.5
        elif case == "phi_key_repeated":
            model["phi"].append(copy.deepcopy(model["phi"][0]))
        # JSON objects that repeat a key, of which json.loads would keep the last value
        elif case == "size_key_repeated":
            model["size_histogram"] = RepeatedKeys([(sizes[-1], 99)], model["size_histogram"])
        elif case == "k_star_repeated":
            document["models"][document["classes"][0]] = RepeatedKeys([("k_star", model["k_star"] + 1)], model)
        # reals that float() would coerce: booleans, underscores, padding, JSON numbers
        elif case == "alpha_bool":
            model["alpha"] = [True] * len(model["alpha"])
        elif case == "alpha_text":  # one character per table
            model["alpha"] = "1" * len(model["alpha"])
        elif case == "beta_underscore":
            model["beta"][0][0] = "1_0.5"
        elif case == "theta_padded":
            model["theta"][0][0] = " " + model["theta"][0][0]
        elif case == "phi_probs_number":
            model["phi"][0]["probs"] = [float(p) for p in model["phi"][0]["probs"]]
        # constraints that RelationSet.from_text reads but save_bundle never writes
        elif case == "constraint_reordered":
            model["phi"][0]["constraint"] = ",".join(reversed(model["phi"][0]["constraint"].split(",")))
        elif case == "constraint_spaced":
            model["phi"][0]["constraint"] = " " + " , ".join(model["phi"][0]["constraint"].split(","))
        elif case == "constraint_repeated":
            symbols = model["phi"][0]["constraint"].split(",")
            model["phi"][0]["constraint"] = ",".join(symbols[:1] + symbols)
        elif case == "constraint_empty":
            model["phi"][0]["constraint"] = ""
        else:
            raise ValueError(case)
    return document


def two_class_models(k_star: int = 5):
    """Two well-separated classes over one shared 4-action vocabulary.

    Class "assemble" uses the first two actions and prefers meets-chains;
    class "brew" uses the last two and prefers overlap-chains.
    """
    vocab = ("reach", "grasp", "pour", "stir")

    def build(action_pair, preferred_relation):
        theta = np.full((k_star, 4), 1e-12)
        for z in range(k_star):
            theta[z, action_pair[z % 2]] = 0.6
            theta[z, action_pair[(z + 1) % 2]] = 0.4 - 2e-12
        phi = {}
        for i in range(1, 5):
            for j in range(1, 5):
                vec = np.full(7, 0.02)
                vec[preferred_relation] = 1.0 - 0.12
                phi[(i, j, FULL_SET.bits)] = vec
        return ClassModel(
            k_star=k_star,
            ell=k_star,
            alpha=np.ones(k_star),
            beta=np.full((k_star, 4), 0.5),
            theta=theta,
            structure=StructureMask.chain(k_star),
            phi=phi,
            action_vocab=vocab,
            size_histogram={k_star - 2: 1, k_star - 1: 2, k_star: 2},
        )

    return {
        "assemble": build((0, 1), 0),  # before-heavy chains
        "brew": build((2, 3), 2),  # overlap-heavy chains
    }


def padded_family_counts(networks, i, j) -> dict:
    """Joint counts of pair ``(i, j)``'s family over complete networks whose
    actions are padded with the null action to the longest network's size:
    ``((action i, action j), relation code)``, null code where no relation."""
    k_star = max(net.size for net in networks)
    joint = {}
    for net in networks:
        actions = net.actions + (NULL_ACTION,) * (k_star - net.size)
        relation = net.relations.get((i, j))
        key = ((actions[i], actions[j]), NULL_RELATION_CODE if relation is None else relation.value)
        joint[key] = joint.get(key, 0) + 1
    return joint


def exhaustive_structure_oracle(instances, vocab_size) -> StructureMask:
    """Independent argmax over every mask, enumerated in bitmask order.

    Each pair's family is counted by :func:`padded_family_counts`.  Total
    score of a mask is the sum of per-pair family scores (with parents on
    linked pairs, marginal otherwise); ties keep the earlier bitmask.
    """
    networks = [instance_to_network(inst) for inst in instances]
    pairs = list(itertools.combinations(range(max(net.size for net in networks)), 2))
    scores = {}
    for pair in pairs:
        joint = padded_family_counts(networks, *pair)
        scores[pair] = (
            bic_family_score(joint, vocab_size, False),
            bic_family_score(joint, vocab_size, True),
        )
    best_mask, best_score = 0, -math.inf
    for bitmask in range(1 << len(pairs)):
        score = sum(
            scores[pair][bitmask >> p & 1] for p, pair in enumerate(pairs)
        )
        if score > best_score:
            best_mask, best_score = bitmask, score
    return StructureMask.of(
        pair for p, pair in enumerate(pairs) if best_mask >> p & 1
    )
