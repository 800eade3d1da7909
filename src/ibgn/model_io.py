"""Model bundle files: one JSON document holding every per-class model.

All real-valued parameters are written as decimal text with 17 significant
digits, which round-trips IEEE doubles bit-exactly, and every collection is
emitted in a fixed order — so identical models produce identical bytes and
``load -> predict`` reproduces in-memory predictions exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from .algebra import FULL_SET, RelationSet
from .errors import BundleInvalid, UnknownClass
from .generate import ClassModel
from .network import StructureMask

__all__ = ["SCHEMA_VERSION", "ModelBundle", "save_bundle", "load_bundle"]

SCHEMA_VERSION = 1


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_vector(vec) -> List[str]:
    return [_fmt(v) for v in vec]


def _fmt_matrix(mat) -> List[List[str]]:
    return [_fmt_vector(row) for row in mat]


@dataclass
class ModelBundle:
    """Everything one training run produced."""

    vocab: List[str]
    classes: List[str]
    models: Dict[str, ClassModel]

    def model_for(self, name: str) -> ClassModel:
        if name not in self.models:
            raise UnknownClass(f"no class {name!r}; the bundle has {', '.join(map(repr, self.classes)) or 'none'}")
        return self.models[name]


def _encode_model(model: ClassModel) -> Dict[str, object]:
    phi_entries = []
    for (i, j, bits), probs in sorted(model.phi.items()):
        phi_entries.append(
            {
                "i": i,
                "j": j,
                "constraint": RelationSet(bits).text(),
                "probs": _fmt_vector(probs),
            }
        )
    return {
        "k_star": model.k_star,
        "ell": model.ell,
        "alpha": _fmt_vector(model.alpha),
        "beta": _fmt_matrix(model.beta),
        "theta": _fmt_matrix(model.theta),
        "structure": [[i, j] for i, j in model.structure.sorted_links()],
        "phi": phi_entries,
        "size_histogram": {
            str(size): count for size, count in sorted(model.size_histogram.items())
        },
    }


def _int(value) -> int:
    """``value`` itself if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, not {value!r}")
    return value


def _reals(values) -> List[float]:
    """A list of reals as :func:`save_bundle` writes them: ASCII strings without whitespace or
    underscores.  ``float`` alone would also take booleans, numbers and text such as ``" 1_0.5"``;
    one scan of the joined list rejects them."""
    if type(values) is not list:
        raise ValueError(f"expected a list of reals, not {values!r}")
    joined = "".join(values)  # TypeError on a value that is not a string
    if joined.split() != [joined] or "_" in joined or not joined.isascii():
        raise ValueError(f"reals must be strings without whitespace or underscores, not {values!r}")
    return [float(v) for v in values]


# each non-empty relation set by its spelling in a saved bundle: canonical member order, which the
# phi ``probs`` follow, without spaces or repeats
_CONSTRAINT_BITS = {RelationSet(bits).text(): bits for bits in range(1, FULL_SET.bits + 1)}


def _constraint(text) -> int:
    bits = _CONSTRAINT_BITS.get(text)
    if bits is None:
        raise ValueError(f"expected a non-empty constraint in canonical order, not {text!r}")
    return bits


def _decode_model(obj: Mapping[str, object], vocab: Sequence[str]) -> ClassModel:
    phi = {}
    for entry in obj["phi"]:
        key = (_int(entry["i"]), _int(entry["j"]), _constraint(entry["constraint"]))
        if key in phi:
            raise ValueError(f"phi key {key} repeats")
        phi[key] = _reals(entry["probs"])
    sizes = obj["size_histogram"]
    if any(size != str(int(size)) for size in sizes):
        raise ValueError(f"size histogram keys must be integers in plain decimal, not {list(sizes)}")
    model = ClassModel(
        k_star=_int(obj["k_star"]),
        ell=_int(obj["ell"]),
        alpha=_reals(obj["alpha"]),
        beta=[_reals(row) for row in obj["beta"]],
        theta=[_reals(row) for row in obj["theta"]],
        structure=StructureMask.of((_int(i), _int(j)) for i, j in obj["structure"]),
        phi=phi,
        action_vocab=tuple(vocab),
        size_histogram={int(size): _int(count) for size, count in sizes.items()},
    )
    model.validate()
    return model


def save_bundle(path, bundle: ModelBundle) -> None:
    """Write a bundle; identical parameters give byte-identical files."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "vocab": list(bundle.vocab),
        "classes": list(bundle.classes),
        "models": {name: _encode_model(bundle.models[name]) for name in bundle.classes},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _distinct_strings(names) -> bool:
    return isinstance(names, list) and all(isinstance(n, str) for n in names) and len(set(names)) == len(names)


def load_bundle(path) -> ModelBundle:
    """Read a bundle written by :func:`save_bundle`; raise
    :class:`~ibgn.errors.BundleInvalid` for text that is not JSON or nests too
    deeply, for another schema version or shape, for a ``vocab`` that is not
    a list of distinct non-empty strings or ``classes`` that are not distinct
    strings, for ``models`` entries that ``classes`` does not name, for an
    integer, real or constraint field not written as ``save_bundle`` does,
    for a repeated phi key, or for parameters that do not decode or validate."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except ValueError as exc:  # also an integer with more digits than the interpreter converts
            raise BundleInvalid(f"model bundle is not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise BundleInvalid("model bundle JSON is nested too deeply") from exc
    if not isinstance(document, dict):
        raise BundleInvalid(f"model bundle must be a JSON object, not {type(document).__name__}")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BundleInvalid(f"unsupported model schema version: {version!r}")
    try:
        vocab, classes = document["vocab"], document["classes"]
        if not _distinct_strings(vocab) or "" in vocab:
            raise ValueError("vocab must be a list of distinct non-empty strings")
        if not _distinct_strings(classes):
            raise ValueError("classes must be a list of distinct strings")
        models = {name: _decode_model(document["models"][name], vocab) for name in classes}
        if len(document["models"]) != len(models):
            raise ValueError(f"models not named in classes: {[k for k in document['models'] if k not in models]}")
    except KeyError as exc:
        raise BundleInvalid(f"model bundle has no entry {exc}") from exc
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise BundleInvalid(f"malformed model bundle: {exc}") from exc
    return ModelBundle(vocab=vocab, classes=classes, models=models)
