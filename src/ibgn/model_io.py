"""Model bundle files: one JSON document holding every per-class model.

All real-valued parameters are written as decimal text with 17 significant
digits, which round-trips IEEE doubles bit-exactly, and every collection is
emitted in a fixed order — so identical models produce identical bytes and
``load -> predict`` reproduces in-memory predictions exactly.  The text is
laid out byte for byte as ``json.dumps(document, indent=2)`` plus a newline
would lay it out, by a writer that knows the bundle's shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .algebra import FULL_SET, RelationSet
from .errors import BundleInvalid, UnknownClass
from .generate import ClassModel, _distinct_names
from .network import StructureMask

__all__ = ["SCHEMA_VERSION", "ModelBundle", "save_bundle", "load_bundle"]

SCHEMA_VERSION = 1


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@dataclass
class ModelBundle:
    """Everything one training run produced.  Construction raises ``ValueError`` unless ``vocab``
    is a list of distinct non-empty strings, ``classes`` a list of distinct strings naming exactly
    the keys of ``models``, and each model's ``action_vocab`` is ``vocab``; no field is reassigned."""

    vocab: List[str]
    classes: List[str]
    models: Dict[str, ClassModel]

    def __post_init__(self) -> None:
        if not isinstance(self.vocab, list) or not _distinct_names(self.vocab):
            raise ValueError("vocab must be a list of distinct non-empty strings")
        classes = self.classes  # unlike an action, a class may be named ""
        strings = isinstance(classes, list) and all(isinstance(name, str) for name in classes)
        if not strings or len(set(classes)) < len(classes):
            raise ValueError("classes must be a list of distinct strings")
        missing = [name for name in self.classes if name not in self.models]
        if missing:
            raise ValueError(f"classes without a model: {missing}")
        unnamed = [name for name in self.models if name not in self.classes]
        if unnamed:
            raise ValueError(f"models not named in classes: {unnamed}")
        for name in self.classes:
            own = self.models[name].action_vocab
            if own != tuple(self.vocab):
                raise ValueError(f"model {name!r} has action vocabulary {list(own)}, not {self.vocab}")

    def model_for(self, name: str) -> ClassModel:
        if name not in self.models:
            raise UnknownClass(f"no class {name!r}; the bundle has {', '.join(map(repr, self.classes)) or 'none'}")
        return self.models[name]


def _array(items: Iterable[str], pad: str) -> str:
    """JSON texts ``items`` as a list laid out at indent ``pad``, as ``json.dumps(..., indent=2)`` does."""
    inner = "\n" + pad + "  "
    text = ("," + inner).join(items)
    return "[" + inner + text + "\n" + pad + "]" if text else "[]"


def _object(pairs: Iterable[Tuple[str, str]], pad: str) -> str:
    """Keys with JSON texts as an object laid out at indent ``pad``, as ``json.dumps(..., indent=2)`` does."""
    inner = "\n" + pad + "  "
    text = ("," + inner).join([f"{_string(key)}: {value}" for key, value in pairs])
    return "{" + inner + text + "\n" + pad + "}" if text else "{}"


def _reals_text(values, pad: str) -> str:
    """Floats as a list of ``.17g`` strings, text that round-trips each double."""
    return _array([f'"{v:.17g}"' for v in values], pad)


def _encode_model(model: ClassModel, pad: str) -> str:
    inner, row, cell = pad + "  ", pad + "    ", pad + "      "
    # every phi entry has one layout: laid out once, with a %s for each value
    entry = _object([(name, "%s") for name in ("i", "j", "constraint", "probs")], row)
    phi_entries = []
    for (i, j, bits), probs in sorted(model.phi.items()):
        phi_entries.append(entry % (i, j, _string(_CONSTRAINT_TEXT[bits]), _reals_text(probs, cell)))
    links = [_array((str(i), str(j)), row) for i, j in model.structure.sorted_links()]
    sizes = [(str(size), str(count)) for size, count in sorted(model.size_histogram.items())]
    return _object(
        (
            ("k_star", str(model.k_star)),
            ("ell", str(model.ell)),
            ("alpha", _reals_text(model.alpha.tolist(), inner)),
            ("beta", _array([_reals_text(values, row) for values in model.beta.tolist()], inner)),
            ("theta", _array([_reals_text(values, row) for values in model.theta.tolist()], inner)),
            ("structure", _array(links, inner)),
            ("phi", _array(phi_entries, inner)),
            ("size_histogram", _object(sizes, inner)),
        ),
        pad,
    )


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
# and the spelling save_bundle writes for each bits
_CONSTRAINT_TEXT = {bits: text for text, bits in _CONSTRAINT_BITS.items()}


def _constraint(text) -> int:
    bits = _CONSTRAINT_BITS.get(text)
    if bits is None:
        raise ValueError(f"expected a non-empty constraint in canonical order, not {text!r}")
    return bits


def _decode_model(obj: Mapping[str, object], vocab: Sequence[str]) -> ClassModel:
    phi = {}
    for entry in obj["phi"]:
        key = (entry["i"], entry["j"], _constraint(entry["constraint"]))
        if key in phi:
            raise ValueError(f"phi key {key} repeats")
        phi[key] = _reals(entry["probs"])
    sizes = obj["size_histogram"]
    if any(size != str(int(size)) for size in sizes):
        raise ValueError(f"size histogram keys must be integers in plain decimal, not {list(sizes)}")
    return ClassModel(
        k_star=obj["k_star"],
        ell=obj["ell"],
        alpha=_reals(obj["alpha"]),
        beta=[_reals(row) for row in obj["beta"]],
        theta=[_reals(row) for row in obj["theta"]],
        structure=StructureMask.of(obj["structure"]),
        phi=phi,
        action_vocab=tuple(vocab),
        size_histogram={int(size): count for size, count in sizes.items()},
    )


def _object_without_repeats(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    """A JSON object's pairs as a dict, unless a key repeats: ``json`` would keep its last value."""
    document = dict(pairs)
    if len(document) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise BundleInvalid(f"model bundle repeats the key {repeated!r} in one object")
    return document


def save_bundle(path, bundle: ModelBundle) -> None:
    """Write a bundle; identical parameters give byte-identical files.  A bundle and its models are
    checked when they are made, so this checks nothing and :func:`load_bundle` reads back all it writes."""
    models = [(name, _encode_model(bundle.models[name], "    ")) for name in bundle.classes]
    text = _object(
        (
            ("schema_version", str(SCHEMA_VERSION)),
            ("vocab", _array(map(_string, bundle.vocab), "  ")),
            ("classes", _array(map(_string, bundle.classes), "  ")),
            ("models", _object(models, "  ")),
        ),
        "",
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def load_bundle(path) -> ModelBundle:
    """Read a bundle written by :func:`save_bundle`; raise
    :class:`~ibgn.errors.BundleInvalid` for text that is not JSON or nests too
    deeply, for a key repeated in one object, for another schema version or
    shape, for ``models`` entries that ``classes`` does not name, for a real,
    constraint or size key not written as ``save_bundle`` does, for a repeated
    phi key, or for what :class:`ClassModel`, :class:`StructureMask` or
    :class:`ModelBundle` refuses (integer fields are checked there)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle, object_pairs_hook=_object_without_repeats)
        except BundleInvalid:
            raise
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
        if not isinstance(classes, list):
            raise ValueError("classes must be a list of distinct strings")  # before it is iterated
        models = {name: _decode_model(document["models"][name], vocab) for name in classes}
        if len(document["models"]) != len(models):
            raise ValueError(f"models not named in classes: {[k for k in document['models'] if k not in models]}")
        return ModelBundle(vocab=vocab, classes=classes, models=models)
    except KeyError as exc:
        raise BundleInvalid(f"model bundle has no entry {exc}") from exc
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise BundleInvalid(f"malformed model bundle: {exc}") from exc
