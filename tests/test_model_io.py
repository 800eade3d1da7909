"""Model bundle serialization: exact round trips, stable bytes."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from ibgn import FULL_SET, ModelBundle, RelationSet, StructureMask, load_bundle, save_bundle
from ibgn.errors import BundleInvalid, UnknownClass
from ibgn.model_io import SCHEMA_VERSION
from conftest import (
    MALFORMED_BUNDLE_CASES,
    malformed_bundle,
    phi_is_float_tuples,
    random_model,
    two_class_models,
    uniform_model,
)


# The exact text each malformed case of make_bundle's document raises.
MALFORMED = "malformed model bundle: "
MALFORMED_BUNDLE_MESSAGES = {
    "no_models": "model bundle has no entry 'models'",
    "top_level_list": "model bundle must be a JSON object, not list",
    "class_without_model": "model bundle has no entry 'ghost'",
    "model_without_phi": "model bundle has no entry 'phi'",
    "classes_not_a_list": MALFORMED + "classes must be a list of distinct strings",
    "vocab_a_string": MALFORMED + "vocab must be a list of distinct non-empty strings",
    "vocab_not_strings": MALFORMED + "action vocabulary must be distinct non-empty strings, not [1, 2, 3, 4]",
    "vocab_repeated": MALFORMED
        + "action vocabulary must be distinct non-empty strings, not ['reach', 'grasp', 'pour', 'reach']",
    "vocab_empty_name": MALFORMED
        + "action vocabulary must be distinct non-empty strings, not ['', 'grasp', 'pour', 'stir']",
    "classes_repeated": MALFORMED + "classes must be a list of distinct strings",
    "nan_phi": MALFORMED + "phi vector for (1, 1, 127) must be finite",
    "nan_alpha": MALFORMED + "alpha must be finite",
    "inf_beta": MALFORMED + "beta must be finite",
    "vocab_empty_list": MALFORMED + "empty action vocabulary",
    "negative_alpha": MALFORMED + "alpha must be a positive vector of length ell",
    "negative_theta": MALFORMED + "theta must be a non-negative (ell, M) matrix",
    "phi_i_past_vocab": MALFORMED + "phi key (5, 1) outside the vocabulary",
    "k_star_float": MALFORMED + "table budget 5.2 must be an integer equal to k_star 5.9 >= 1",
    "k_star_string": MALFORMED + "table budget 5 must be an integer equal to k_star '5' >= 1",
    "size_count_float": MALFORMED + "bad size histogram entry 3: 2.7",
    "size_count_bool": MALFORMED + "bad size histogram entry 3: True",
    "size_key_padded": MALFORMED + "size histogram keys must be integers in plain decimal, not ['4', '5', '03']",
    "structure_float": MALFORMED + "bad structure link (0, 1.9)",
    "phi_i_float": MALFORMED + "phi key (1.5, 1) outside the vocabulary",
    "phi_key_repeated": MALFORMED + "phi key (1, 1, 127) repeats",
    "size_key_repeated": "model bundle repeats the key '5' in one object",
    "k_star_repeated": "model bundle repeats the key 'k_star' in one object",
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


def written_text(tmp_path, bundle) -> str:
    """The file ``save_bundle`` writes for ``bundle``, which must be ASCII."""
    path = tmp_path / "bundle.json"
    save_bundle(path, bundle)
    return path.read_bytes().decode("ascii")


def one_model_bundle(model) -> ModelBundle:
    return ModelBundle(vocab=list(model.action_vocab), classes=["only"], models={"only": model})


# names that json escapes: quote, backslash, control characters, non-ASCII and a non-BMP character
AWKWARD_NAMES = ('say "hi"', "back\\slash", "tab\there\nline\x00\x1f\x7f", "caf\u00e9", "smile \U0001F600", "/")


class TestLayout:
    """The file is ``json.dumps(document, indent=2)`` plus a newline, byte for byte."""

    @staticmethod
    def assert_json_layout(text: str) -> None:
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    def test_escaped_names(self, tmp_path):
        model = uniform_model(vocab=AWKWARD_NAMES, k_star=3, structure="chain")
        models = {name: model for name in reversed(AWKWARD_NAMES)}
        text = written_text(tmp_path, ModelBundle(list(AWKWARD_NAMES), list(models), models))
        self.assert_json_layout(text)
        assert "\\ud83d\\ude00" in text  # the non-BMP character as a surrogate pair
        loaded = load_bundle(tmp_path / "bundle.json")
        assert loaded.vocab == list(AWKWARD_NAMES) and loaded.classes == list(models)

    def test_empty_structure_and_no_phi(self, tmp_path):
        model = dataclasses.replace(uniform_model(k_star=1), structure=StructureMask.of([]))
        text = written_text(tmp_path, one_model_bundle(model))
        self.assert_json_layout(text)
        assert '"structure": [],' in text and '"phi": [],' in text
        assert load_bundle(tmp_path / "bundle.json").models["only"].structure == StructureMask.of([])

    def test_empty_containers(self, tmp_path):
        text = written_text(tmp_path, ModelBundle([], [], {}))
        self.assert_json_layout(text)
        assert '"vocab": [],' in text and '"models": {}' in text
        # a model with empty rows or an empty size histogram cannot be made, so it is never written
        with pytest.raises(ValueError, match="empty action vocabulary"):
            dataclasses.replace(uniform_model(k_star=1), beta=np.empty((1, 0)), theta=np.empty((1, 0)), action_vocab=())
        with pytest.raises(ValueError, match="size histogram is empty"):
            dataclasses.replace(uniform_model(k_star=1), size_histogram={})

    def test_every_constraint_spelling(self, tmp_path):
        spellings = {bits: RelationSet(bits).text() for bits in range(1, FULL_SET.bits + 1)}
        phi = {(1, 2, bits): [1.0 / bits.bit_count()] * bits.bit_count() for bits in spellings}
        model = dataclasses.replace(uniform_model(k_star=4), phi=phi)
        text = written_text(tmp_path, one_model_bundle(model))
        self.assert_json_layout(text)
        written = [entry["constraint"] for entry in json.loads(text)["models"]["only"]["phi"]]
        assert written == [spellings[bits] for bits in sorted(spellings)]
        save_bundle(tmp_path / "again.json", load_bundle(tmp_path / "bundle.json"))
        assert (tmp_path / "again.json").read_text() == text

    def test_extreme_floats(self, tmp_path):
        model = uniform_model(k_star=3)
        alpha = np.array([5e-324, 1e300, 1.0 / 3.0])
        beta = np.array([[1e300, 5e-324], [0.5, 0.5], [2.5, 1e-300]])
        theta = np.array([[1.0, -0.0], [5e-324, 1.0], [0.5, 0.5]])
        phi = {(1, 2, 0b11): (1.0, -0.0), (2, 1, 0b101): (5e-324, 1.0), (2, 2, 0b1): (1.0,)}
        model = dataclasses.replace(model, alpha=alpha, beta=beta, theta=theta, phi=phi)
        text = written_text(tmp_path, one_model_bundle(model))
        self.assert_json_layout(text)
        assert '"-0"' in text and '"4.9406564584124654e-324"' in text and '"1.0000000000000001e+300"' in text
        loaded = load_bundle(tmp_path / "bundle.json").models["only"]
        for name in ("alpha", "beta", "theta"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()
        assert {key: [v.hex() for v in vec] for key, vec in loaded.phi.items()} == {
            key: [v.hex() for v in vec] for key, vec in model.phi.items()
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_random_models(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        vocab = [f"act{i}" for i in range(3)]
        models = {f"class{n}": random_model(rng, vocab_size=3, k_star=int(rng.integers(1, 7))) for n in range(3)}
        self.assert_json_layout(written_text(tmp_path, ModelBundle(vocab, list(models), models)))


class TestErrors:
    def test_unknown_class(self):
        bundle = make_bundle()
        with pytest.raises(UnknownClass):
            bundle.model_for("nonexistent")
        assert bundle.model_for("brew") is bundle.models["brew"]

    def test_unknown_class_message_names_the_bundle_classes(self):
        model = uniform_model(vocab=("a",))
        bundle = ModelBundle(["a"], ["x", "y"], {"x": model, "y": model})
        with pytest.raises(UnknownClass) as err:
            bundle.model_for("zz")
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


def two_class_bundle(vocab=None, classes=None, **changes) -> ModelBundle:
    """The two-class bundle with ``changes`` made to its "brew" model, every model's action
    vocabulary set to ``vocab`` and ``classes`` (default: the models' names) listing them."""
    models = two_class_models()
    vocab = list(models["brew"].action_vocab) if vocab is None else vocab
    models = {
        name: dataclasses.replace(model, action_vocab=tuple(vocab), **(changes if name == "brew" else {}))
        for name, model in models.items()
    }
    return ModelBundle(vocab, list(models) if classes is None else classes, models)


VOCAB_RULE = "action vocabulary must be distinct non-empty strings, not "
CLASSES_RULE = "classes must be a list of distinct strings"

# bundles that break a rule, each built as a caller would build it, with the text it raises
UNWRITABLE_BUNDLES = {
    "vocab_repeated": (
        lambda: two_class_bundle(vocab=["reach", "grasp", "pour", "reach"]),
        VOCAB_RULE + "['reach', 'grasp', 'pour', 'reach']",
    ),
    "vocab_empty_name": (
        lambda: two_class_bundle(vocab=["reach", "", "pour", "stir"]), VOCAB_RULE + "['reach', '', 'pour', 'stir']"
    ),
    "theta_rows_sum_to_half": (
        lambda: two_class_bundle(theta=two_class_models()["brew"].theta / 2), "theta rows must sum to 1"
    ),
    "size_histogram_empty": (lambda: two_class_bundle(size_histogram={}), "size histogram is empty"),
    "phi_action_past_vocab": (
        lambda: two_class_bundle(phi={(5, 1, FULL_SET.bits): [1 / 7] * 7}), "phi key (5, 1) outside the vocabulary"
    ),
    "k_star_float": (
        lambda: two_class_bundle(k_star=5.0), "table budget 5 must be an integer equal to k_star 5.0 >= 1"
    ),
    "alpha_negative": (
        lambda: two_class_bundle(alpha=-np.ones(5)), "alpha must be a positive vector of length ell"
    ),
    "class_not_a_string": (
        lambda: ModelBundle(["a"], ["x", 7], {"x": uniform_model(("a",)), 7: uniform_model(("a",))}), CLASSES_RULE
    ),
    "class_repeated": (lambda: two_class_bundle(classes=["assemble", "brew", "assemble"]), CLASSES_RULE),
    "class_without_model": (
        lambda: two_class_bundle(classes=["assemble", "brew", "ghost"]), "classes without a model: ['ghost']"
    ),
    "model_without_class": (
        lambda: two_class_bundle(classes=["brew"]), "models not named in classes: ['assemble']"
    ),
    "model_vocab_renamed": (
        lambda: ModelBundle(["x", "y"], ["only"], {"only": uniform_model(("a", "b"))}),
        "model 'only' has action vocabulary ['a', 'b'], not ['x', 'y']",
    ),
    "model_vocab_wider": (
        lambda: ModelBundle(["a", "b"], ["only"], {"only": uniform_model(("a", "b", "c"))}),
        "model 'only' has action vocabulary ['a', 'b', 'c'], not ['a', 'b']",
    ),
    **{
        f"constraint_bits_{bits}": (
            lambda bits=bits: two_class_bundle(phi={(1, 2, bits): (1.0,)}),
            f"phi key (1, 2, {bits}) has constraint bits outside 1..127",
        )
        for bits in (0, 128, -1)
    },
}


class TestWritersAndReadersAgree:
    """Every bundle save_bundle writes, load_bundle reads back; what load_bundle would
    refuse cannot be made, so it never reaches a file."""

    @pytest.mark.parametrize("case", list(UNWRITABLE_BUNDLES))
    def test_a_bundle_that_breaks_a_rule_is_refused_before_any_file_is_written(self, tmp_path, case):
        build, message = UNWRITABLE_BUNDLES[case]
        path = tmp_path / "bundle.json"
        path.write_text("kept")
        with pytest.raises(ValueError) as excinfo:
            save_bundle(path, build())
        assert str(excinfo.value) == message
        assert path.read_text() == "kept"

    @pytest.mark.parametrize("seed", [None, *range(4)])
    def test_a_written_bundle_reads_back_to_the_same_bytes(self, tmp_path, seed):
        if seed is None:
            bundle = two_class_bundle()
        else:
            rng = np.random.default_rng(seed)
            models = {f"class{n}": random_model(rng, vocab_size=3, k_star=int(rng.integers(1, 7))) for n in range(3)}
            bundle = ModelBundle([f"act{i}" for i in range(3)], list(models), models)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_bundle(first, bundle)
        save_bundle(second, load_bundle(first))
        assert first.read_bytes() == second.read_bytes()
