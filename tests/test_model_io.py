"""Model bundle serialization: exact round trips, stable bytes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ibgn import ModelBundle, load_bundle, save_bundle
from ibgn.errors import BundleInvalid, UnknownClass
from ibgn.model_io import SCHEMA_VERSION
from conftest import MALFORMED_BUNDLE_CASES, malformed_bundle, phi_is_float_tuples, random_model, two_class_models


# The exact text each malformed case of make_bundle's document raises.
MALFORMED = "malformed model bundle: "
MALFORMED_BUNDLE_MESSAGES = {
    "no_models": "model bundle has no entry 'models'",
    "top_level_list": "model bundle must be a JSON object, not list",
    "class_without_model": "model bundle has no entry 'ghost'",
    "model_without_phi": "model bundle has no entry 'phi'",
    "classes_not_a_list": MALFORMED + "classes must be a list of distinct strings",
    "vocab_a_string": MALFORMED + "vocab must be a list of distinct non-empty strings",
    "vocab_not_strings": MALFORMED + "vocab must be a list of distinct non-empty strings",
    "vocab_repeated": MALFORMED + "vocab must be a list of distinct non-empty strings",
    "vocab_empty_name": MALFORMED + "vocab must be a list of distinct non-empty strings",
    "classes_repeated": MALFORMED + "classes must be a list of distinct strings",
    "nan_phi": MALFORMED + "phi vector for (1, 1, 127) must be finite",
    "nan_alpha": MALFORMED + "alpha must be finite",
    "inf_beta": MALFORMED + "beta must be finite",
    "vocab_empty_list": MALFORMED + "empty action vocabulary",
    "negative_alpha": MALFORMED + "alpha must be a positive vector of length ell",
    "negative_theta": MALFORMED + "theta must be a non-negative (ell, M) matrix",
    "phi_i_past_vocab": MALFORMED + "phi key (5, 1) outside the vocabulary",
    "k_star_float": MALFORMED + "expected an integer, not 5.9",
    "k_star_string": MALFORMED + "expected an integer, not '5'",
    "size_count_float": MALFORMED + "expected an integer, not 2.7",
    "size_count_bool": MALFORMED + "expected an integer, not True",
    "size_key_padded": MALFORMED + "size histogram keys must be integers in plain decimal, not ['4', '5', '03']",
    "structure_float": MALFORMED + "expected an integer, not 1.9",
    "phi_i_float": MALFORMED + "expected an integer, not 1.5",
    "phi_key_repeated": MALFORMED + "phi key (1, 1, 127) repeats",
    "alpha_bool": MALFORMED + "sequence item 0: expected str instance, bool found",
    "alpha_text": MALFORMED + "expected a list of reals, not '11111'",
    "beta_underscore": MALFORMED + "reals must be strings without whitespace or underscores, not "
        "['1_0.5', '0.5', '0.5', '0.5']",
    "theta_padded": MALFORMED + "reals must be strings without whitespace or underscores, not "
        "[' 0.59999999999999998', '0.39999999999800001', '9.9999999999999998e-13', '9.9999999999999998e-13']",
    "phi_probs_number": MALFORMED + "sequence item 0: expected str instance, float found",
    "model_without_class": MALFORMED + "models not named in classes: ['ghost', 'junk']",
    "constraint_reordered": MALFORMED + "expected a non-empty constraint in canonical order, not 'eq,f,c,s,o,m,b'",
    "constraint_spaced": MALFORMED
        + "expected a non-empty constraint in canonical order, not ' b , m , o , s , c , f , eq'",
    "constraint_repeated": MALFORMED + "expected a non-empty constraint in canonical order, not 'b,b,m,o,s,c,f,eq'",
    "constraint_empty": MALFORMED + "expected a non-empty constraint in canonical order, not ''",
}


def make_bundle(seed=0):
    models = two_class_models()
    models["wild"] = random_model(np.random.default_rng(seed), vocab_size=4, k_star=5)
    # share the vocabulary so the bundle is coherent
    import dataclasses

    models["wild"] = dataclasses.replace(
        models["wild"], action_vocab=models["assemble"].action_vocab
    )
    return ModelBundle(
        vocab=list(models["assemble"].action_vocab),
        classes=list(models),
        models=models,
    )


class TestRoundTrip:
    def test_arrays_round_trip_bit_exactly(self, tmp_path):
        bundle = make_bundle()
        path = tmp_path / "bundle.json"
        save_bundle(path, bundle)
        loaded = load_bundle(path)
        assert loaded.vocab == bundle.vocab
        assert loaded.classes == bundle.classes
        for name in bundle.classes:
            a, b = bundle.models[name], loaded.models[name]
            assert a.k_star == b.k_star and a.ell == b.ell
            np.testing.assert_array_equal(a.alpha, b.alpha)
            np.testing.assert_array_equal(a.beta, b.beta)
            np.testing.assert_array_equal(a.theta, b.theta)
            assert a.structure == b.structure
            assert a.size_histogram == b.size_histogram
            assert set(a.phi) == set(b.phi)
            for key in a.phi:
                np.testing.assert_array_equal(a.phi[key], b.phi[key])

    def test_load_save_reproduces_bytes_with_float_tuple_phi(self, tmp_path):
        bundle = make_bundle()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(p1, bundle)
        loaded = load_bundle(p1)
        assert all(model.phi and phi_is_float_tuples(model) for model in loaded.models.values())
        save_bundle(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_awkward_floats_survive(self, tmp_path):
        import dataclasses

        bundle = make_bundle()
        model = bundle.models["assemble"]
        alpha = model.alpha.copy()
        alpha[0] = 1.0 / 3.0
        alpha[1] = np.nextafter(1.0, 2.0)
        bundle.models["assemble"] = dataclasses.replace(model, alpha=alpha)
        path = tmp_path / "bundle.json"
        save_bundle(path, bundle)
        loaded = load_bundle(path)
        np.testing.assert_array_equal(loaded.models["assemble"].alpha, alpha)

    def test_save_is_byte_deterministic(self, tmp_path):
        bundle = make_bundle()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(p1, bundle)
        save_bundle(p2, bundle)
        assert p1.read_bytes() == p2.read_bytes()

    def test_document_shape(self, tmp_path):
        bundle = make_bundle()
        path = tmp_path / "bundle.json"
        save_bundle(path, bundle)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["classes"] == bundle.classes
        model_doc = doc["models"]["assemble"]
        assert isinstance(model_doc["alpha"][0], str)  # decimal text, not binary
        assert model_doc["structure"] == [[i, i + 1] for i in range(4)]
        entry = model_doc["phi"][0]
        assert set(entry) == {"i", "j", "constraint", "probs"}


class TestErrors:
    def test_unknown_class(self):
        bundle = make_bundle()
        with pytest.raises(UnknownClass):
            bundle.model_for("nonexistent")
        assert bundle.model_for("brew") is bundle.models["brew"]

    def test_unknown_class_message_names_the_bundle_classes(self):
        with pytest.raises(UnknownClass) as err:
            ModelBundle(["a"], ["x", "y"], {}).model_for("zz")
        assert str(err.value) == "no class 'zz'; the bundle has 'x', 'y'"
        with pytest.raises(UnknownClass) as err:
            ModelBundle([], [], {}).model_for("zz")
        assert str(err.value) == "no class 'zz'; the bundle has none"

    def test_wrong_schema_version(self, tmp_path):
        bundle = make_bundle()
        path = tmp_path / "bundle.json"
        save_bundle(path, bundle)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_bundle(path)

    @pytest.mark.parametrize(
        "text",
        ["hello", '{"schema_version": 1', '{"a": ' * 100_000 + "1" + "}" * 100_000, "1" * 5000],
        ids=["not_json", "truncated", "deeply_nested", "too_many_digits"],
    )
    def test_unreadable_json_is_typed(self, tmp_path, text):
        path = tmp_path / "bundle.json"
        path.write_text(text)
        with pytest.raises(BundleInvalid):
            load_bundle(path)

    def test_parameter_beyond_a_double_is_typed(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(path, make_bundle())
        doc = json.loads(path.read_text())
        doc["models"]["brew"]["alpha"][0] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(BundleInvalid):
            load_bundle(path)

    @pytest.mark.parametrize("case", MALFORMED_BUNDLE_CASES)
    def test_malformed_bundle_is_typed(self, tmp_path, case):
        path = tmp_path / "bundle.json"
        save_bundle(path, make_bundle())
        path.write_text(json.dumps(malformed_bundle(json.loads(path.read_text()), case)))
        with pytest.raises(BundleInvalid) as excinfo:
            load_bundle(path)
        assert str(excinfo.value) == MALFORMED_BUNDLE_MESSAGES[case]

    def test_every_malformed_case_has_a_pinned_message(self):
        assert tuple(MALFORMED_BUNDLE_MESSAGES) == MALFORMED_BUNDLE_CASES
