"""Command-line interface.

Subcommands: ``train``, ``predict``, ``eval``, ``generate``, ``perturb`` and
``algebra``.  Each accepts only the flags it reads: ``train``, ``eval``,
``generate`` and ``perturb`` take ``--seed`` (default 0), and ``train`` and
``eval`` take ``--jobs`` (default 1) and one flag per ``TrainConfig`` field;
the refit's clamp bounds are constants with no flag.  Identical inputs,
flags and seed produce byte-identical output files regardless of
``--jobs``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from typing import List, Optional, Sequence

import numpy as np

from .algebra import RelationSet, compose, enumerate_composition_classes
from .classify import predict
from .dataset import (
    Corpus,
    kfold_split,
    load_instances,
    perturb_durations,
    perturb_labels,
    save_instances,
)
from .errors import IbgnError
from .generate import sample_instance
from .learning import _STRUCTURE_MODES, TrainConfig, train_bundle
from .model_io import ModelBundle, _fmt, load_bundle, save_bundle
from .network import check_consistency, instance_to_network

__all__ = ["main"]

def _config_from_args(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)})


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = load_instances(args.input)
    config = _config_from_args(args)
    bundle = train_bundle(corpus, config, [args.seed], args.jobs)
    save_bundle(args.out, bundle)
    for name in bundle.classes:
        model = bundle.models[name]
        print(f"{name}: k_star={model.k_star} links={len(model.structure)} occupied_tables={model.occupied_tables}")
    return 0


def _prediction_rows(bundle: ModelBundle, corpus: Corpus):
    models = [(name, bundle.models[name]) for name in bundle.classes]
    for index, instance in enumerate(corpus.instances):
        yield index, instance, predict(models, instance, corpus.vocab)


def _cmd_predict(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.model)
    corpus = load_instances(args.input)
    with_truth = bool(corpus.instances) and corpus.labeled
    header = ["index", "predicted"]
    if with_truth:
        header.append("true")
    header += [f"score_{name}" for name in bundle.classes] + ["margin"]
    hits = 0
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for index, instance, result in _prediction_rows(bundle, corpus):
            row = [index, result.label]
            if with_truth:
                row.append(instance.label)
                hits += int(result.label == instance.label)
            row += [_fmt(s) for s in result.scores] + [_fmt(result.margin)]
            writer.writerow(row)
    if with_truth:
        total = len(corpus.instances)
        print(f"accuracy {hits / total:.4f} ({hits}/{total})")
    return 0


def _perturb_corpus(corpus: Corpus, kind: str, rate: float, seed_key) -> Corpus:
    if kind == "labels":
        return perturb_labels(corpus, rate, seed_key)
    return perturb_durations(corpus, rate, seed_key)


def _cmd_eval(args: argparse.Namespace) -> int:
    if (args.perturb is None) != (args.rate is None):
        raise ValueError("--perturb and --rate go together")
    corpus = load_instances(args.input)
    config = _config_from_args(args)
    splits = kfold_split(corpus, args.folds, args.seed)
    classes = corpus.classes
    confusion = {true: {pred: 0 for pred in classes} for true in classes}
    fold_accuracies: List[float] = []
    accuracy_total = 0.0  # left to right: from Python 3.12 on, builtin sum() compensates
    for fold, (train_part, test_part) in enumerate(splits):
        if args.perturb:
            test_part = _perturb_corpus(test_part, args.perturb, args.rate, [args.seed, 101, fold])
        bundle = train_bundle(train_part, config, [args.seed, fold], args.jobs)
        hits = 0
        for _index, instance, result in _prediction_rows(bundle, test_part):
            confusion[instance.label][result.label] += 1
            hits += int(result.label == instance.label)
        accuracy = hits / len(test_part.instances)
        fold_accuracies.append(accuracy)
        accuracy_total += accuracy
        print(f"fold {fold}: accuracy {accuracy:.4f}")
    mean_accuracy = accuracy_total / len(fold_accuracies)
    print(f"mean accuracy {mean_accuracy:.4f}")
    if args.out_report:
        report = {
            "folds": [_fmt(a) for a in fold_accuracies],
            "mean_accuracy": _fmt(mean_accuracy),
            "config": {
                "input": str(args.input),
                "folds": args.folds,
                "seed": args.seed,
                **dataclasses.asdict(config),
                "perturb": args.perturb,
                "rate": args.rate,
            },
        }
        with open(args.out_report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if args.out_confusion:
        with open(args.out_confusion, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["true\\predicted"] + classes)
            for true in classes:
                writer.writerow([true] + [confusion[true][pred] for pred in classes])
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError(f"--count must not be negative, got {args.count}")
    bundle = load_bundle(args.model)
    model = bundle.model_for(args.class_name)
    rng = np.random.default_rng(args.seed)
    instances = [
        sample_instance(model, rng, label=args.class_name, size=args.size) for _ in range(args.count)
    ]
    save_instances(
        Corpus(instances=instances, vocab=list(bundle.vocab), classes=[args.class_name]),
        args.out,
    )
    print(f"generated {len(instances)} instances of class {args.class_name!r}")
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    corpus = load_instances(args.input)
    save_instances(_perturb_corpus(corpus, args.kind, args.rate, args.seed), args.out)
    return 0


def _cmd_algebra(args: argparse.Namespace) -> int:
    if args.algebra_op == "compose":
        pair = []
        for text in (args.r1, args.r2):
            members = RelationSet.from_text(text).members
            if len(members) != 1:
                raise ValueError(f"{text!r} is not a single relation symbol")
            pair.append(members[0])
        print(compose(pair[0], pair[1]).text())
    elif args.algebra_op == "classes":
        for cls in enumerate_composition_classes():
            print(f"{cls.index}\t{cls.members.text()}")
    else:  # check
        corpus = load_instances(args.file)
        for index, instance in enumerate(corpus.instances):
            report = check_consistency(instance_to_network(instance))
            if report.consistent:
                print(f"{index}: consistent")
            else:
                triangles = " ".join(f"({i},{j},{k})" for i, j, k in report.violations)
                print(f"{index}: inconsistent {triangles}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_seed(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")


def _add_train_options(sub: argparse.ArgumentParser) -> None:
    """One flag per :class:`TrainConfig` field, stored under the field's name, then ``--jobs`` and ``--seed``."""
    default = TrainConfig()
    sub.add_argument("--structure", choices=_STRUCTURE_MODES, default=default.structure, dest="structure")
    sub.add_argument(
        "--iters", type=int, default=default.iterations, dest="iterations", metavar="ITERS",
        help="total iterations: burn-in and window Gibbs sweeps, then refit steps",
    )
    sub.add_argument("--burnin", type=int, default=default.burn_in, dest="burn_in", metavar="BURNIN")
    sub.add_argument("--avg-window", type=int, default=default.avg_window, dest="avg_window")
    sub.add_argument("--rho", type=float, default=default.rho, dest="rho", help="relation-count smoothing")
    sub.add_argument("--alpha-init", type=float, default=default.alpha_init, dest="alpha_init")
    sub.add_argument("--beta-init", type=float, default=default.beta_init, dest="beta_init")
    sub.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    _add_seed(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibgn",
        description="Interval-network generative models for activity recognition",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="fit per-class models from a JSONL corpus")
    train.add_argument("--input", required=True)
    train.add_argument("--out", required=True, help="model bundle path (JSON)")
    _add_train_options(train)
    train.set_defaults(func=_cmd_train)

    pred = commands.add_parser("predict", help="classify instances with a trained bundle")
    pred.add_argument("--model", required=True)
    pred.add_argument("--input", required=True)
    pred.add_argument("--out", required=True, help="predictions CSV path")
    pred.set_defaults(func=_cmd_predict)

    ev = commands.add_parser("eval", help="stratified cross-validation")
    ev.add_argument("--input", required=True)
    ev.add_argument("--folds", type=int, default=5)
    ev.add_argument("--out-report", dest="out_report", help="report JSON path")
    ev.add_argument("--out-confusion", dest="out_confusion", help="confusion CSV path")
    ev.add_argument("--perturb", choices=("labels", "durations"), help="perturb test folds")
    ev.add_argument("--rate", type=float, help="perturbation rate (with --perturb)")
    _add_train_options(ev)
    ev.set_defaults(func=_cmd_eval)

    gen = commands.add_parser(
        "generate",
        help="sample synthetic instances from one class",
        description="Sample synthetic instances from one class of a bundle.  Only the class's "
        "structure links fix relations: a bundle without links (what --structure learned "
        "often gives) places every interval at [0, 1], so every pair is eq.",
    )
    gen.add_argument("--model", required=True)
    gen.add_argument("--class", dest="class_name", required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--size", type=int, help="fixed instance size (default: model's size histogram)")
    gen.add_argument("--out", required=True)
    _add_seed(gen)
    gen.set_defaults(func=_cmd_generate)

    pert = commands.add_parser("perturb", help="write a perturbed copy of a corpus")
    pert.add_argument("--input", required=True)
    pert.add_argument("--kind", choices=("labels", "durations"), required=True)
    pert.add_argument("--rate", type=float, required=True)
    pert.add_argument("--out", required=True)
    _add_seed(pert)
    pert.set_defaults(func=_cmd_perturb)

    alg = commands.add_parser("algebra", help="relation-algebra utilities")
    alg_ops = alg.add_subparsers(dest="algebra_op", required=True)
    alg_compose = alg_ops.add_parser("compose", help="compose two relation symbols")
    alg_compose.add_argument("r1")
    alg_compose.add_argument("r2")
    alg_ops.add_parser("classes", help="list the 11 composition classes")
    alg_check = alg_ops.add_parser("check", help="consistency-check a JSONL corpus")
    alg_check.add_argument("file")
    alg.set_defaults(func=_cmd_algebra)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IbgnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
