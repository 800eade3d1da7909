"""Fuzzing the CLI's input handling: mutated corpora and bundles end in exit
code 0, or in exit code 1 with a single ``error:`` line — never a traceback."""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ibgn import save_bundle, save_instances, train_bundle
from ibgn.cli import main
from ibgn.dataset import build_synthetic_corpus
from conftest import tiny_config, two_class_models

FUZZ_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# edge values a loader must reject: numbers beyond a double, float words
# (bundles spell floats as strings), empty strings
edge_values = st.sampled_from([10**400, -(10**400), "nan", "inf", "1e400", ""])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | edge_values,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of a valid corpus and bundle, their documents, and the files a mutant and its output go to."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = build_synthetic_corpus(two_class_models(k_star=4), per_class=3, seed=5)
    save_instances(corpus, root / "corpus.jsonl")
    save_bundle(root / "bundle.json", train_bundle(corpus, tiny_config(structure="full"), [0]))
    return {
        "corpus": root / "corpus.jsonl",
        "bundle": root / "bundle.json",
        "records": [json.loads(line) for line in (root / "corpus.jsonl").read_text().splitlines()],
        "document": json.loads((root / "bundle.json").read_text()),
        "mutant": root / "mutant",
        "out": root / "out",
    }


def mutate_document(data, document):
    """Replace or delete one value on a random path through ``document``."""
    document = copy.deepcopy(document)
    parent, key, node = None, None, document
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        return data.draw(json_values)
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(json_values)
    return document


def mutate_text(data, text):
    """Delete a slice of ``text`` and insert a random string, or brackets
    nested deeper than the interpreter's recursion limit, in its place."""
    start = data.draw(st.integers(0, len(text)))
    stop = data.draw(st.integers(start, min(len(text), start + 8)))
    insert = data.draw(st.text(max_size=6) | st.sampled_from(["[" * 100_000, "{\"a\": " * 100_000]))
    return text[:start] + insert + text[stop:]


def run_cli(argv):
    """``main(argv)`` must return 0, or 1 with exactly one ``error:`` line on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()


def corpus_commands(files):
    mutant, out = str(files["mutant"]), str(files["out"])
    return [
        ["algebra", "check", mutant],
        ["predict", "--model", str(files["bundle"]), "--input", mutant, "--out", out],
        ["perturb", "--input", mutant, "--kind", "durations", "--rate", "0.5", "--out", out],
        ["train", "--input", mutant, "--out", out, "--iters", "3", "--burnin", "1",
         "--avg-window", "2"],
    ]


def bundle_commands(files):
    mutant, out = str(files["mutant"]), str(files["out"])
    classes = files["document"]["classes"]
    return [
        ["predict", "--model", mutant, "--input", str(files["corpus"]), "--out", out],
        ["generate", "--model", mutant, "--class", classes[0], "--count", "2", "--out", out],
    ]


@FUZZ_SETTINGS
@given(data=st.data())
def test_mutated_corpus_fails_cleanly(files, data):
    lines = [json.dumps(record) for record in files["records"]]
    index = data.draw(st.integers(0, len(lines) - 1))
    if data.draw(st.booleans()):
        lines[index] = json.dumps(mutate_document(data, files["records"][index]))
    else:
        lines[index] = mutate_text(data, lines[index])
    files["mutant"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    run_cli(data.draw(st.sampled_from(corpus_commands(files))))


@FUZZ_SETTINGS
@given(data=st.data())
def test_mutated_bundle_fails_cleanly(files, data):
    if data.draw(st.booleans()):
        text = json.dumps(mutate_document(data, files["document"]))
    else:
        text = mutate_text(data, files["bundle"].read_text())
    files["mutant"].write_text(text, encoding="utf-8")
    run_cli(data.draw(st.sampled_from(bundle_commands(files))))


# one numeric flag at a time, at edge values; never a large --jobs, which could start that many processes
FLOATS = ("nan", "inf", "-inf", "-1.0", "0.0", "1e-320", "1e308")
# the refit's clamp bounds, now constants: whatever the value, the flag is a usage error
REMOVED_FLOAT_FLAGS = ("--clamp-lo", "--clamp-hi")
SHORT_RUN = ["--iters", "3", "--burnin", "1", "--avg-window", "2"]
FLAG_CASES = (
    [(command, flag, value) for command in ("train", "eval")
     for flag in ("--rho", "--alpha-init", "--beta-init", *REMOVED_FLOAT_FLAGS) for value in FLOATS]
    + [(command, "--rate", value)
       for command in ("perturb-labels", "perturb-durations", "eval-labels", "eval-durations") for value in FLOATS]
    + [(command, flag, value) for command in ("train", "eval")
       for flag in ("--iters", "--burnin", "--avg-window") for value in ("-1", "0")]
    + [("generate", "--count", value) for value in ("-1", "0")]
    + [(command, flag, value) for command in ("train", "eval") for flag in ("--jobs", "--seed")
       for value in ("-1", "0")]
    + [(command, "--seed", value) for command in ("generate", "perturb-durations") for value in ("-1", "0")]
    + [("generate", "--size", value) for value in ("-1", "0", str(10**6))]
    + [("eval", "--folds", value) for value in ("-1", "0", str(10**6))]
)


def flag_commands(files):
    """Valid argv per command on the fuzz corpus and bundle; a flag appended
    later overrides the same flag here (argparse keeps the last value)."""
    corpus, bundle, out = str(files["corpus"]), str(files["bundle"]), str(files["out"])
    evaluate = ["eval", "--input", corpus, "--folds", "2", *SHORT_RUN]
    return {
        "train": ["train", "--input", corpus, "--out", out, *SHORT_RUN],
        "eval": evaluate,
        "eval-labels": evaluate + ["--perturb", "labels", "--rate", "0.5"],
        "eval-durations": evaluate + ["--perturb", "durations", "--rate", "0.5"],
        "perturb-labels": ["perturb", "--input", corpus, "--kind", "labels", "--rate", "0.5", "--out", out],
        "perturb-durations": ["perturb", "--input", corpus, "--kind", "durations", "--rate", "0.5", "--out", out],
        "predict": ["predict", "--model", bundle, "--input", corpus, "--out", out],
        "generate": ["generate", "--model", bundle, "--class", files["document"]["classes"][0],
                     "--count", "2", "--out", out],
        "algebra": ["algebra", "check", corpus],
    }


@pytest.mark.parametrize("command, flag, value", FLAG_CASES)
def test_numeric_flag_fails_cleanly(files, command, flag, value):
    argv = flag_commands(files)[command] + [f"{flag}={value}"]
    if flag not in REMOVED_FLOAT_FLAGS:
        run_cli(argv)
        return
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert err.getvalue().splitlines()[-1].endswith(f"error: unrecognized arguments: {flag}={value}")


@pytest.mark.parametrize("command", ["train", "eval", "eval-labels", "eval-durations", "perturb-labels",
                                     "perturb-durations", "predict", "generate", "algebra"])
def test_flag_commands_succeed_unmodified(files, command):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(flag_commands(files)[command]) == 0
