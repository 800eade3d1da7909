"""Byte-identity guard: fixed inputs and seeds give files with pinned sha256 digests.

A change that is meant to alter sampled outputs updates the digests below in
the same commit, so the change shows in review; any other change keeps them.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from ibgn import ModelBundle, StructureMask, save_bundle, save_instances
from ibgn.cli import main
from ibgn.dataset import build_synthetic_corpus
from conftest import two_class_models

CORPUS_SHA256 = "a362c4cf1dd2e9051a9039a3d85eb6dff1ba7b5e3fe266604a36e29425351a18"

BUNDLE_SHA256 = {
    "chain": "4a03a6b0dc87428b3c671012952470abc29aa0ea26c37ed0fd3d3377ad069617",
    "full": "8f9b59d70a88d2f5e308847a544db702cc2df3b8a2b02318b0d3601fbfe6a764",
}

GENERATE_SHA256 = {
    ("chain", None): "660b0b03ce7c9a4a60554b3e1c776b2893aef1802d99f123fa4ac6341d7a1424",
    ("chain", "5"): "f051beed5f2bdbe709b9643b70293c6d3a32275204dbbe0b78ffc2c58002a35f",
    ("full", None): "65586472877ecd13282bee4d3a000ab79324d898e7e9757f27863d56b49ab335",
    ("full", "5"): "b1031975a65fd616434fb36769201a99e9f4fa38a49cbcb7aa63f1c9f36e9c39",
}

# ``ibgn train`` on the corpus above with a small schedule, under --jobs 1 and 2, then ``ibgn predict`` on it
TRAIN_SHA256 = {
    "chain": "11735c9b46470c184e21fd39c70becfd8928b86233933ca716f9c563f097edee",
    "learned": "29a4f09e87a057100f6c620a0ad37c17bf3a3c614b21ecf11f480b20f28389e4",
}

PREDICT_SHA256 = {
    "chain": "499f48febbc719b6fa340e91022d8699d4a2bb3040108501a688c4f628f0c258",
    "learned": "742eb6503ce6198510cf51ded5c193807086e9435f14aef87c0f2b7af24da3d0",
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The seed-1001 two-class corpus, 15 instances per class."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    save_instances(build_synthetic_corpus(two_class_models(), 15, seed=1001), path)
    return path


def test_synthetic_corpus_bytes(corpus):
    assert sha256_of(corpus) == CORPUS_SHA256


@pytest.mark.parametrize("structure", list(TRAIN_SHA256))
def test_train_and_predict_bytes(corpus, tmp_path, structure):
    schedule = ["--structure", structure, "--iters", "40", "--burnin", "10", "--avg-window", "30", "--seed", "3"]
    for jobs in ("1", "2"):
        bundle = tmp_path / f"bundle_jobs{jobs}.json"
        assert main(["train", "--input", str(corpus), "--out", str(bundle), "--jobs", jobs] + schedule) == 0
        assert sha256_of(bundle) == TRAIN_SHA256[structure]
    out = tmp_path / "predictions.csv"
    assert main(["predict", "--model", str(bundle), "--input", str(corpus), "--out", str(out)]) == 0
    assert sha256_of(out) == PREDICT_SHA256[structure]


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """The two-class bundle under its chain mask and under the full mask."""
    models = two_class_models()
    paths = {}
    for structure in ("chain", "full"):
        masked = {
            name: dataclasses.replace(model, structure=getattr(StructureMask, structure)(model.k_star))
            for name, model in models.items()
        }
        path = tmp_path_factory.mktemp(structure) / "bundle.json"
        vocab = list(masked["brew"].action_vocab)
        save_bundle(path, ModelBundle(vocab=vocab, classes=list(masked), models=masked))
        paths[structure] = path
    return paths


@pytest.mark.parametrize("structure", ["chain", "full"])
def test_bundle_bytes(bundles, structure):
    assert sha256_of(bundles[structure]) == BUNDLE_SHA256[structure]


@pytest.mark.parametrize("structure, size", list(GENERATE_SHA256))
def test_generate_bytes(bundles, tmp_path, structure, size):
    out = tmp_path / "generated.jsonl"
    sized = [] if size is None else ["--size", size]
    argv = ["generate", "--model", str(bundles[structure]), "--class", "brew", "--count", "40", "--seed", "4"]
    assert main(argv + sized + ["--out", str(out)]) == 0
    assert sha256_of(out) == GENERATE_SHA256[(structure, size)]
