"""Command-line interface: subcommands, file contracts, determinism."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ibgn import (
    ModelBundle, StructureMask, TrainConfig, load_bundle, load_instances, save_bundle,
    save_instances,
)
from ibgn import cli
from ibgn.cli import _config_from_args, build_parser, main
from ibgn.dataset import build_synthetic_corpus
from conftest import (
    MALFORMED_BUNDLE_CASES, child_env, malformed_bundle, random_model, two_class_models,
)

README = Path(__file__).resolve().parent.parent / "README.md"
TRAIN_FLAGS = [
    "--structure", "chain", "--iters", "30", "--burnin", "5", "--avg-window", "20",
]


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    corpus = build_synthetic_corpus(two_class_models(k_star=4), per_class=8, seed=13)
    save_instances(corpus, path)
    return path


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory, corpus_path):
    path = tmp_path_factory.mktemp("model") / "bundle.json"
    code = main(
        ["train", "--input", str(corpus_path), "--out", str(path), *TRAIN_FLAGS]
    )
    assert code == 0
    return path


class TestTrain:
    def test_summary_lines_and_loadable_bundle(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "bundle.json"
        code = main(
            ["train", "--input", str(corpus_path), "--out", str(out), *TRAIN_FLAGS]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("assemble: k_star=")
        assert lines[1].startswith("brew: k_star=")
        assert "occupied_tables=" in lines[0]
        bundle = load_bundle(out)
        assert bundle.classes == ["assemble", "brew"]

    def test_byte_identical_across_runs_and_jobs(self, corpus_path, tmp_path, capsys):
        outs = [tmp_path / f"b{i}.json" for i in range(3)]
        summaries = []
        for out, jobs in zip(outs, ("1", "1", "2")):
            code = main(
                [
                    "train", "--input", str(corpus_path), "--out", str(out),
                    "--jobs", jobs, "--seed", "4", *TRAIN_FLAGS,
                ]
            )
            assert code == 0
            summaries.append(capsys.readouterr().out)
        blobs = [out.read_bytes() for out in outs]
        assert blobs[0] == blobs[1] == blobs[2]
        assert summaries[0] == summaries[1] == summaries[2]

    def test_different_seed_changes_output(self, corpus_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["train", "--input", str(corpus_path), "--out", str(a), *TRAIN_FLAGS])
        main(
            ["train", "--input", str(corpus_path), "--out", str(b), "--seed", "9",
             *TRAIN_FLAGS]
        )
        assert a.read_bytes() != b.read_bytes()

    def test_unlabeled_corpus_fails(self, tmp_path, capsys):
        data = tmp_path / "in.jsonl"
        data.write_text(
            '{"intervals": [{"action": "a", "start": 0, "end": 1}]}\n'
        )
        code = main(
            ["train", "--input", str(data), "--out", str(tmp_path / "o.json"),
             *TRAIN_FLAGS]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["train", "--input", str(tmp_path / "nope.jsonl"),
             "--out", str(tmp_path / "o.json"), *TRAIN_FLAGS]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_every_training_flag_sets_its_config_field(self):
        args = build_parser().parse_args(
            ["train", "--input", "in.jsonl", "--out", "out.json", "--structure", "full",
             "--iters", "70", "--burnin", "20", "--avg-window", "30", "--rho", "0.25",
             "--alpha-init", "2.5", "--beta-init", "0.75"]
        )
        assert _config_from_args(args) == TrainConfig(
            iterations=70, burn_in=20, avg_window=30, structure="full", rho=0.25,
            alpha_init=2.5, beta_init=0.75,
        )

    def test_invalid_config_fails_cleanly(self, corpus_path, tmp_path, capsys):
        code = main(
            ["train", "--input", str(corpus_path), "--out", str(tmp_path / "o.json"),
             "--iters", "10", "--burnin", "9", "--avg-window", "5"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_overflowing_rho_names_the_flag(self, corpus_path, tmp_path, capsys):
        code = main(
            ["train", "--input", str(corpus_path), "--out", str(tmp_path / "o.json"),
             *TRAIN_FLAGS, "--rho", "1e308"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rho" in err


class TestPredict:
    def test_labeled_input_gets_truth_column_and_accuracy(
        self, corpus_path, bundle_path, tmp_path, capsys
    ):
        out = tmp_path / "pred.csv"
        code = main(
            ["predict", "--model", str(bundle_path), "--input", str(corpus_path),
             "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy" in stdout
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "index", "predicted", "true", "score_assemble", "score_brew", "margin",
        ]
        assert len(rows) == 17  # header + 16 instances
        for i, row in enumerate(rows[1:]):
            assert row[0] == str(i)
            assert row[1] in ("assemble", "brew")
            float(row[3]), float(row[4]), float(row[5])  # parse cleanly

    def test_accuracy_line_matches_csv(self, corpus_path, bundle_path, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        main(
            ["predict", "--model", str(bundle_path), "--input", str(corpus_path),
             "--out", str(out)]
        )
        stdout = capsys.readouterr().out.strip()
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        hits = sum(row[1] == row[2] for row in rows)
        assert stdout.endswith(f"({hits}/{len(rows)})")

    def test_unlabeled_input_has_no_truth_column(self, bundle_path, tmp_path, capsys):
        data = tmp_path / "in.jsonl"
        data.write_text(
            '{"intervals": [{"action": "reach", "start": 0, "end": 1}, '
            '{"action": "grasp", "start": 2, "end": 3}]}\n'
        )
        out = tmp_path / "pred.csv"
        code = main(
            ["predict", "--model", str(bundle_path), "--input", str(data),
             "--out", str(out)]
        )
        assert code == 0
        assert "accuracy" not in capsys.readouterr().out
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["index", "predicted", "score_assemble", "score_brew", "margin"]
        assert len(rows) == 2

    def test_empty_input_writes_header_only(self, bundle_path, tmp_path, capsys):
        data = tmp_path / "in.jsonl"
        data.write_text("")
        out = tmp_path / "pred.csv"
        code = main(
            ["predict", "--model", str(bundle_path), "--input", str(data),
             "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1


    @pytest.mark.parametrize("case", MALFORMED_BUNDLE_CASES)
    def test_malformed_bundle_fails_cleanly(self, corpus_path, tmp_path, capsys, case):
        models = two_class_models(k_star=4)
        path = tmp_path / "bundle.json"
        save_bundle(path, ModelBundle(["reach", "grasp", "pour", "stir"], list(models), models))
        path.write_text(json.dumps(malformed_bundle(json.loads(path.read_text()), case)))
        code = main(
            ["predict", "--model", str(path), "--input", str(corpus_path),
             "--out", str(tmp_path / "pred.csv")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "text", ["hello", '{"a": ' * 100_000 + "1" + "}" * 100_000], ids=["not_json", "deeply_nested"]
    )
    def test_unreadable_bundle_fails_cleanly(self, corpus_path, tmp_path, capsys, text):
        path = tmp_path / "bundle.json"
        path.write_text(text)
        code = main(
            ["predict", "--model", str(path), "--input", str(corpus_path),
             "--out", str(tmp_path / "pred.csv")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: model bundle ") and err.count("\n") == 1


class TestEval:
    def test_report_and_confusion(self, corpus_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        confusion_path = tmp_path / "confusion.csv"
        code = main(
            ["eval", "--input", str(corpus_path), "--folds", "2",
             "--out-report", str(report_path), "--out-confusion", str(confusion_path),
             *TRAIN_FLAGS]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "fold 0: accuracy" in stdout
        assert "fold 1: accuracy" in stdout
        assert "mean accuracy" in stdout

        report = json.loads(report_path.read_text())
        assert len(report["folds"]) == 2
        mean = sum(float(a) for a in report["folds"]) / 2
        assert float(report["mean_accuracy"]) == pytest.approx(mean)
        assert report["config"]["folds"] == 2
        assert report["config"]["structure"] == "chain"
        assert report["config"]["perturb"] is None

        with open(confusion_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["true\\predicted", "assemble", "brew"]
        assert [row[0] for row in rows[1:]] == ["assemble", "brew"]
        # every instance lands in the confusion matrix exactly once
        assert sum(int(cell) for row in rows[1:] for cell in row[1:]) == 16
        for row in rows[1:]:
            assert sum(int(cell) for cell in row[1:]) == 8

    def test_perturbed_eval_runs_and_echoes_rate(self, corpus_path, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            ["eval", "--input", str(corpus_path), "--folds", "2",
             "--perturb", "labels", "--rate", "0.3",
             "--out-report", str(report_path), *TRAIN_FLAGS]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["perturb"] == "labels"
        assert report["config"]["rate"] == 0.3

    def test_report_holds_every_training_setting(self, corpus_path, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            ["eval", "--input", str(corpus_path), "--folds", "2", "--rho", "0.5",
             "--out-report", str(report_path), *TRAIN_FLAGS]
        )
        assert code == 0
        config = json.loads(report_path.read_text())["config"]
        expected = dataclasses.asdict(
            TrainConfig(iterations=30, burn_in=5, avg_window=20, structure="chain", rho=0.5)
        )
        assert {key: config[key] for key in expected} == expected
        assert config["rho"] == 0.5

    @pytest.mark.parametrize(
        "half", [["--rate", "0.9"], ["--perturb", "labels"]], ids=["rate_alone", "perturb_alone"]
    )
    def test_perturb_and_rate_only_together(self, corpus_path, tmp_path, capsys, half):
        report_path = tmp_path / "report.json"
        code = main(
            ["eval", "--input", str(corpus_path), "--folds", "2", *half,
             "--out-report", str(report_path), *TRAIN_FLAGS]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --perturb and --rate go together\n"
        assert captured.out == ""
        assert not report_path.exists()

    def test_too_many_folds_fails_cleanly(self, corpus_path, tmp_path, capsys):
        code = main(
            ["eval", "--input", str(corpus_path), "--folds", "20", *TRAIN_FLAGS]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, rate", [("labels", "2"), ("durations", "-0.5"), ("durations", "nan")]
    )
    def test_bad_rate_fails_before_training(self, corpus_path, monkeypatch, capsys, kind, rate):
        def no_training(*args, **kwargs):
            raise AssertionError("eval trained a fold before checking --rate")

        monkeypatch.setattr(cli, "train_bundle", no_training)
        code = main(
            ["eval", "--input", str(corpus_path), "--folds", "2",
             "--perturb", kind, "--rate", rate, *TRAIN_FLAGS]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestGenerate:
    def test_fixed_size(self, bundle_path, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        code = main(
            ["generate", "--model", str(bundle_path), "--class", "brew",
             "--count", "5", "--size", "3", "--out", str(out)]
        )
        assert code == 0
        assert "generated 5" in capsys.readouterr().out
        corpus = load_instances(out)
        assert len(corpus) == 5
        for inst in corpus.instances:
            assert inst.label == "brew"
            assert len(inst) == 3

    def test_sizes_from_histogram(self, bundle_path, tmp_path):
        out = tmp_path / "gen.jsonl"
        main(
            ["generate", "--model", str(bundle_path), "--class", "assemble",
             "--count", "12", "--out", str(out)]
        )
        bundle = load_bundle(bundle_path)
        allowed = set(bundle.models["assemble"].size_histogram)
        corpus = load_instances(out)
        assert {len(inst) for inst in corpus.instances} <= allowed

    def test_deterministic_per_seed(self, bundle_path, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            main(
                ["generate", "--model", str(bundle_path), "--class", "brew",
                 "--count", "4", "--seed", "8", "--out", str(out)]
            )
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_class_fails_cleanly(self, bundle_path, tmp_path, capsys):
        code = main(
            ["generate", "--model", str(bundle_path), "--class", "ghost",
             "--count", "1", "--out", str(tmp_path / "gen.jsonl")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_class_names_it_and_the_bundle_classes(self, bundle_path, tmp_path, capsys):
        # UnknownClass is a KeyError, whose own str() would print only "'zz'"
        out = tmp_path / "gen.jsonl"
        code = main(["generate", "--model", str(bundle_path), "--class", "zz", "--count", "1", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no class 'zz'; the bundle has 'assemble', 'brew'\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--count", "-2"]], ids=["negative_count"])
    def test_bad_counts_fail_cleanly(self, bundle_path, tmp_path, capsys, flags):
        out = tmp_path / "gen.jsonl"
        code = main(["generate", "--model", str(bundle_path), "--class", "brew", *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --")
        assert not out.exists()

    def test_unrealizable_network_fails_cleanly(self, tmp_path, capsys):
        # a valid bundle whose mask is neither a chain nor full: with this
        # seed the sampled 5-node network passes every constraint check but
        # has no placement on a timeline
        model = dataclasses.replace(
            random_model(np.random.default_rng([5, 1]), 3, 5),
            structure=StructureMask.of([(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]),
        )
        path = tmp_path / "bundle.json"
        save_bundle(path, ModelBundle(vocab=list(model.action_vocab), classes=["c"], models={"c": model}))
        code = main(
            ["generate", "--model", str(path), "--class", "c", "--size", "5", "--seed", "5",
             "--count", "1", "--out", str(tmp_path / "gen.jsonl")]
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestPerturb:
    def test_labels(self, corpus_path, tmp_path):
        out = tmp_path / "pert.jsonl"
        code = main(
            ["perturb", "--input", str(corpus_path), "--kind", "labels",
             "--rate", "1.0", "--out", str(out)]
        )
        assert code == 0
        before = load_instances(corpus_path)
        after = load_instances(out)
        assert len(after) == len(before)
        # reloading re-interns vocabularies, so compare action names
        changed = sum(
            before.vocab[ivb.action - 1] != after.vocab[iva.action - 1]
            for b, a in zip(before.instances, after.instances)
            for ivb, iva in zip(b.intervals, a.intervals)
        )
        assert changed == sum(len(inst.intervals) for inst in before.instances)

    def test_durations(self, corpus_path, tmp_path):
        out = tmp_path / "pert.jsonl"
        code = main(
            ["perturb", "--input", str(corpus_path), "--kind", "durations",
             "--rate", "0.5", "--out", str(out)]
        )
        assert code == 0
        after = load_instances(out)
        for inst in after.instances:
            for iv in inst.intervals:
                assert iv.start < iv.end

    def test_durations_past_the_largest_float_fail_cleanly(self, tmp_path, capsys):
        corpus = tmp_path / "huge.jsonl"
        corpus.write_text('{"label":"a","intervals":[{"action":"x","start":1.7e308,"end":1.79e308}]}\n')
        out = tmp_path / "pert.jsonl"
        code = main(
            ["perturb", "--input", str(corpus), "--kind", "durations",
             "--rate", "1.0", "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "non-finite endpoint" in err[0]
        assert not out.exists()


class TestAlgebra:
    def test_compose(self, capsys):
        assert main(["algebra", "compose", "m", "s"]) == 0
        assert capsys.readouterr().out.strip() == "m"
        assert main(["algebra", "compose", "s", "f"]) == 0
        assert capsys.readouterr().out.strip() == "b,m,o"

    def test_compose_rejects_non_symbols(self, capsys):
        assert main(["algebra", "compose", "q", "s"]) == 1
        capsys.readouterr()
        assert main(["algebra", "compose", "b,m", "s"]) == 1

    def test_classes(self, capsys):
        assert main(["algebra", "classes"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 11
        assert lines[0] == "1\tb"
        assert lines[7] == "8\tb,m,o"
        assert lines[10] == "11\tb,m,o,s,c,f,eq"

    def test_check(self, corpus_path, capsys):
        assert main(["algebra", "check", str(corpus_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 16
        assert all(line.endswith(": consistent") for line in lines)

    def test_check_deeply_nested_corpus_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        assert main(["algebra", "check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 1: JSON nested too deeply\n"


class RecordingNamespace(argparse.Namespace):
    """A namespace that records the name of each public attribute read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            super().__getattribute__("_reads").add(name)
        return super().__getattribute__(name)


def every_flag_argv(corpus_path, bundle_path, out_dir):
    """One argv per command, passing every flag that command accepts."""
    corpus, bundle = str(corpus_path), str(bundle_path)
    training = [*TRAIN_FLAGS, "--rho", "0.5", "--alpha-init", "1.5", "--beta-init", "0.25",
                "--jobs", "1", "--seed", "3"]
    return {
        "train": ["train", "--input", corpus, "--out", str(out_dir / "bundle.json"), *training],
        "predict": ["predict", "--model", bundle, "--input", corpus, "--out", str(out_dir / "pred.csv")],
        "eval": ["eval", "--input", corpus, "--folds", "2", "--out-report", str(out_dir / "report.json"),
                 "--out-confusion", str(out_dir / "confusion.csv"), "--perturb", "durations",
                 "--rate", "0.3", *training],
        "generate": ["generate", "--model", bundle, "--class", "brew", "--count", "2", "--size", "3",
                     "--out", str(out_dir / "gen.jsonl"), "--seed", "3"],
        "perturb": ["perturb", "--input", corpus, "--kind", "labels", "--rate", "0.3",
                    "--out", str(out_dir / "noisy.jsonl"), "--seed", "3"],
        "algebra-compose": ["algebra", "compose", "b", "m"],
        "algebra-classes": ["algebra", "classes"],
        "algebra-check": ["algebra", "check", corpus],
    }


# flags that were accepted and never read, and the refit's clamp bounds, now
# constants; each ends in a usage error
REMOVED_FLAGS = (
    [(command, flag) for command in ("predict", "algebra-compose", "algebra-classes", "algebra-check")
     for flag in ("--jobs", "--seed")]
    + [("generate", "--jobs"), ("perturb", "--jobs"), ("train", "--clamp-lo"), ("eval", "--clamp-hi")]
)


class TestFlags:
    @pytest.mark.parametrize(
        "command", ["train", "predict", "eval", "generate", "perturb", "algebra-compose",
                    "algebra-classes", "algebra-check"],
    )
    def test_every_accepted_flag_is_read(self, corpus_path, bundle_path, tmp_path, capsys, command):
        argv = every_flag_argv(corpus_path, bundle_path, tmp_path)[command]
        args = build_parser().parse_args(argv, namespace=RecordingNamespace())
        args._reads.clear()
        assert args.func(args) == 0
        dests = {name for name in vars(args) if not name.startswith("_")}
        unread = dests - args._reads - {"func", "command", "algebra_op"}
        assert not unread, f"{command} accepts but never reads {sorted(unread)}"

    @pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
    def test_removed_flag_is_a_usage_error(self, corpus_path, bundle_path, tmp_path, capsys, command, flag):
        argv = every_flag_argv(corpus_path, bundle_path, tmp_path)[command]
        with pytest.raises(SystemExit) as exc_info:
            main(argv + [flag, "1"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def readme_synopsis_flags():
    """Per command, the flags the README "CLI" synopsis names; ``eval``'s
    ``[training flags as above]`` stands for the bracketed flags of ``train``."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    synopsis = section.split("```sh\n", 1)[1].split("```", 1)[0]
    flags, training = {}, set()
    for line in synopsis.splitlines():
        if line.startswith("ibgn "):
            name = line.split()[1]
            command = flags.setdefault(name, set())
        command.update(re.findall(r"--[a-z][a-z-]*", line))
        if name == "train":
            training.update(re.findall(r"--[a-z][a-z-]*", "".join(re.findall(r"\[[^]]*\]", line))))
        if "[training flags as above]" in line:
            command.update(training)
    return flags


def parser_flags():
    """Per command, the flags ``build_parser()`` accepts, without ``--help``."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }


class TestReadme:
    def test_synopsis_names_exactly_the_parser_flags(self):
        assert readme_synopsis_flags() == parser_flags()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ibgn", "algebra", "compose", "eq", "c"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "c"

    def test_main_leaves_the_root_logger_alone(self):
        script = (
            "import logging; from ibgn.cli import main; "
            "main(['algebra', 'compose', 'b', 'b']); print(len(logging.getLogger().handlers))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["b", "0"]

    def test_train_in_process_leaves_stderr_empty(self, corpus_path, tmp_path):
        """``IBGN_LOG`` once switched on a stderr line; it switches on nothing."""
        out = tmp_path / "bundle.json"
        argv = ["train", "--input", str(corpus_path), "--out", str(out), *TRAIN_FLAGS]
        proc = subprocess.run(
            [sys.executable, "-c", f"from ibgn.cli import main; raise SystemExit(main({argv!r}))"],
            capture_output=True,
            text=True,
            env=child_env(IBGN_LOG="info"),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("assemble: k_star=")
        assert proc.stderr == ""
