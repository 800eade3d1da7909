"""One integer rule for every type that holds an integer: an ``int`` or numpy integer is taken,
anything else (a bool, a float even when whole, a string, None) is refused with ``ValueError``,
never truncated."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ibgn import FULL_SET, ModelBundle, RelationSet, StructureMask, load_bundle, save_bundle
from conftest import uniform_model

MODEL = uniform_model(vocab=("a", "b", "c"), k_star=4)


def _phi_key(i, j):
    return next(iter(dataclasses.replace(MODEL, phi={(i, j, FULL_SET.bits): [1 / 7] * 7}).phi))


# each integer field: a function that makes its holder with ``value`` there and reads back what it stored
HOLDERS = {
    "relation_bits": lambda value: RelationSet(value).bits,
    "mask_link": lambda value: next(iter(StructureMask(frozenset({(0, value)})).links))[1],
    "mask_of_link": lambda value: StructureMask.of([(value, 5)]).sorted_links()[0][0],
    "k_star_and_ell": lambda value: dataclasses.replace(uniform_model(k_star=3), k_star=value, ell=value).ell,
    "phi_i": lambda value: _phi_key(value, 1)[0],
    "phi_j": lambda value: _phi_key(1, value)[1],
    "size_key": lambda value: next(iter(dataclasses.replace(MODEL, size_histogram={value: 1}).size_histogram)),
    "size_count": lambda value: dataclasses.replace(MODEL, size_histogram={1: value}).size_histogram[1],
}
ACCEPTED = [3, np.int64(3)]
REFUSED = [True, 1.9, 4.0, "1", None]


@pytest.mark.parametrize("value", ACCEPTED + REFUSED, ids=lambda value: f"{type(value).__name__}-{value}")
@pytest.mark.parametrize("field", HOLDERS)
def test_one_integer_rule(field, value):
    if any(value is accepted for accepted in ACCEPTED):
        assert HOLDERS[field](value) == 3
    else:
        with pytest.raises(ValueError):
            HOLDERS[field](value)


def test_numpy_links_and_sizes_save_as_plain_ints_and_load_as_int(tmp_path):
    plain = dataclasses.replace(MODEL, structure=StructureMask.of([(0, 1), (1, 3)]), size_histogram={2: 3, 4: 1})
    numpy = dataclasses.replace(
        MODEL,
        structure=StructureMask.of([(np.int64(0), np.int32(1)), (np.int64(1), np.int64(3))]),
        size_histogram={np.int64(2): np.int64(3), np.int16(4): np.int8(1)},
    )
    for name, model in (("plain", plain), ("numpy", numpy)):
        save_bundle(tmp_path / f"{name}.json", ModelBundle(list(model.action_vocab), ["c"], {"c": model}))
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "numpy.json").read_bytes()
    loaded = load_bundle(tmp_path / "numpy.json").models["c"]
    for model in (numpy, loaded):
        assert model.structure == plain.structure and model.size_histogram == plain.size_histogram
        assert all(type(n) is int for link in model.structure.links for n in link)
        assert all(type(n) is int for item in model.size_histogram.items() for n in item)
