"""Corpus I/O, stratified folds, perturbation harnesses, synthetic corpora."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibgn import (
    Instance,
    Interval,
    build_synthetic_corpus,
    check_consistency,
    instance_to_network,
    kfold_split,
    load_instances,
    perturb_durations,
    perturb_labels,
    save_instances,
)
from ibgn.dataset import Corpus
from ibgn.errors import DegenerateInterval, EmptyCorpus, InsufficientClassInstances, ParseError
from conftest import is_canonical, two_class_models


def write_lines(tmp_path, *lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def record(label, *triples):
    rec = {} if label is None else {"label": label}
    rec["intervals"] = [
        {"action": a, "start": s, "end": e} for a, s, e in triples
    ]
    return json.dumps(rec)


# corpora that load_instances would refuse or read differently, with the text save_instances raises
UNWRITABLE_CORPORA = {
    "vocab_repeated": (  # would load back as actions [1, 1]
        Corpus([Instance("w", (Interval(1, 0.0, 1.0), Interval(2, 0.5, 2.0)))], ["a", "a"], ["w"]),
        "vocab must be distinct non-empty strings, not ['a', 'a']",
    ),
    "vocab_empty_name": (
        Corpus([Instance("w", (Interval(1, 0.0, 1.0),))], [""], ["w"]),
        "vocab must be distinct non-empty strings, not ['']",
    ),
    "start_not_before_end": (
        Corpus([Instance("w", (Interval(1, 0.0, 1.0), Interval(1, 2.0, 2.0)))], ["a"], ["w"]),
        "interval [2.0, 2.0] of action 1 has start >= end",
    ),
    "label_not_a_string": (
        Corpus([Instance(7, (Interval(1, 0.0, 1.0),))], ["a"], [7]),
        "label 7 is not a string",
    ),
}


class TestLoadInstances:
    def test_round_trip_vocab_and_classes_in_first_appearance_order(self, tmp_path):
        path = write_lines(
            tmp_path,
            record("make_tea", ("boil", 0, 2), ("pour", 3, 4)),
            record("make_coffee", ("grind", 0, 1), ("boil", 1, 3)),
            record("make_tea", ("pour", 0, 5)),
        )
        corpus = load_instances(path)
        assert corpus.vocab == ["boil", "pour", "grind"]
        assert corpus.classes == ["make_tea", "make_coffee"]
        assert len(corpus) == 3
        assert corpus.instances[0].intervals[0].action == 1
        assert corpus.instances[1].intervals[0].action == 3

    def test_instances_are_canonicalized(self, tmp_path):
        path = write_lines(
            tmp_path, record(None, ("b", 5, 6), ("a", 0, 4), ("a", 0, 2))
        )
        corpus = load_instances(path)
        times = [iv.times for iv in corpus.instances[0].intervals]
        assert times == [(0.0, 2.0), (0.0, 4.0), (5.0, 6.0)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loaded_instances_match_canonicalized_records(self, tmp_path, seed):
        """Records on a small integer grid (so many intervals tie on (start, end) across
        actions), timestamps written as ints, floats and -0.0: each loaded instance is the
        record's ``Instance(...).canonicalized()``, ties in file order, every sign kept."""
        rng = np.random.default_rng(seed)
        names = ["pour", "stir", "lift"]

        def timestamp(value):
            form = int(rng.integers(3))
            if value == 0 and form == 0:
                return -0.0
            return value if form == 1 else float(value)

        lines = []
        for _ in range(150):
            intervals = []
            for _ in range(int(rng.integers(0, 7))):
                start = int(rng.integers(0, 3))
                intervals.append({
                    "action": names[int(rng.integers(len(names)))],
                    "start": timestamp(start),
                    "end": timestamp(start + int(rng.integers(1, 3))),
                })
            rec = {"intervals": intervals}
            if rng.random() < 0.8:
                rec["label"] = ["x", "y"][int(rng.integers(2))]
            lines.append(json.dumps(rec))
        corpus = load_instances(write_lines(tmp_path, *lines))

        ids, ties = {}, 0
        for line, loaded in zip(lines, corpus.instances, strict=True):
            parsed = json.loads(line)
            intervals = [
                Interval(ids.setdefault(e["action"], len(ids) + 1), float(e["start"]), float(e["end"]))
                for e in parsed["intervals"]
            ]
            expected = Instance(parsed.get("label"), tuple(intervals)).canonicalized()
            file_order = sorted(range(len(intervals)), key=lambda i: (intervals[i].times, i))
            ties += len(intervals) - len({iv.times for iv in intervals})
            assert loaded == expected
            assert loaded.intervals == tuple(intervals[i] for i in file_order)
            assert [(iv.action, iv.start.hex(), iv.end.hex()) for iv in loaded.intervals] == [
                (iv.action, iv.start.hex(), iv.end.hex()) for iv in expected.intervals
            ]
            assert all(type(iv.start) is float and type(iv.end) is float for iv in loaded.intervals)
        assert corpus.vocab == list(ids)
        assert ties > 50
        assert any(iv.start.hex() == "-0x0.0p+0" for inst in corpus.instances for iv in inst.intervals)

    def test_blank_lines_skipped(self, tmp_path):
        path = write_lines(tmp_path, record(None, ("a", 0, 1)), "", "   ")
        assert len(load_instances(path)) == 1

    def test_missing_label_maps_to_none(self, tmp_path):
        path = write_lines(tmp_path, record(None, ("a", 0, 1)))
        corpus = load_instances(path)
        assert corpus.instances[0].label is None
        assert corpus.classes == []
        assert not corpus.labeled

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("{not json", "line 2"),
            ('{"label": "x"}', "line 2"),
            ('{"label": 3, "intervals": []}', "line 2"),
            ('{"intervals": [{"action": 5, "start": 0, "end": 1}]}', "line 2"),
            ('{"intervals": [{"action": "a", "start": true, "end": 1}]}', "line 2"),
            ('{"intervals": [{"action": "a", "end": 1}]}', "line 2"),
            ('{"intervals": [{"action": "a", "start": NaN, "end": 1}]}', "line 2"),
            ('{"intervals": [{"action": "", "start": 0, "end": 1}]}', "line 2"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, line, fragment):
        path = write_lines(tmp_path, record(None, ("a", 0, 1)), line)
        with pytest.raises(ParseError) as err:
            load_instances(path)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "zeros,fragment", [(400, "line 2: end must be finite"), (5000, "line 2: invalid JSON")],
        ids=["beyond_a_double", "beyond_the_digit_limit"],
    )
    def test_long_number_is_a_parse_error(self, tmp_path, zeros, fragment):
        line = '{"intervals": [{"action": "a", "start": 0, "end": 1%s}]}' % ("0" * zeros)
        path = write_lines(tmp_path, record(None, ("a", 0, 1)), line)
        with pytest.raises(ParseError, match=fragment):
            load_instances(path)

    def test_deep_nesting_is_a_parse_error(self, tmp_path):
        path = write_lines(tmp_path, record(None, ("a", 0, 1)), "[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParseError, match="line 2: JSON nested too deeply"):
            load_instances(path)

    @pytest.mark.parametrize(
        "line, error, message",
        [
            ("{not json", ParseError, "invalid JSON (Expecting property name enclosed in double quotes)"),
            ('{"label": "x"}', ParseError, "record must be an object with an 'intervals' list"),
            ("[]", ParseError, "record must be an object with an 'intervals' list"),
            ('{"intervals": {}}', ParseError, "record must be an object with an 'intervals' list"),
            ('{"label": 3, "intervals": []}', ParseError, "label must be a string, got 3"),
            ('{"intervals": ["a"]}', ParseError, "interval must be an object with a non-empty string 'action'"),
            ('{"intervals": [{"action": 5, "start": 0, "end": 1}]}', ParseError,
             "interval must be an object with a non-empty string 'action'"),
            ('{"intervals": [{"action": "", "start": 0, "end": 1}]}', ParseError,
             "interval must be an object with a non-empty string 'action'"),
            ('{"intervals": [{"action": "a", "start": true, "end": 1}]}', ParseError, "start must be a number, got True"),
            ('{"intervals": [{"action": "a", "end": 1}]}', ParseError, "start must be a number, got None"),
            ('{"intervals": [{"action": "a", "start": 0, "end": "1"}]}', ParseError, "end must be a number, got '1'"),
            ('{"intervals": [{"action": "a", "start": NaN, "end": 1}]}', ParseError, "start must be finite, got nan"),
            ('{"intervals": [{"action": "a", "start": Infinity, "end": 1}]}', ParseError, "start must be finite, got inf"),
            ('{"intervals": [{"action": "a", "start": 0, "end": -Infinity}]}', ParseError, "end must be finite, got -inf"),
            ('{"intervals": [{"action": "a", "start": 1e400, "end": 1}]}', ParseError, "start must be finite, got inf"),
            ('{"intervals": [{"action": "a", "start": 0, "end": 1%s}]}' % ("0" * 400), ParseError,
             "end must be finite, got 1%s" % ("0" * 400)),
            ('{"intervals": [{"action": "a", "start": 2, "end": 2}]}', DegenerateInterval,
             "interval [2.0, 2.0] of action 'a' has start >= end"),
            ('{"intervals": [{"action": "a", "start": 2.5, "end": -1e300}]}', DegenerateInterval,
             "interval [2.5, -1e+300] of action 'a' has start >= end"),
        ],
    )
    def test_malformed_records_keep_their_error_type_message_and_line(self, tmp_path, line, error, message):
        path = write_lines(tmp_path, record(None, ("a", 0, 1)), "", line, record(None, ("a", 0, 1)))
        with pytest.raises(error) as err:
            load_instances(path)
        assert type(err.value) is error
        assert str(err.value) == f"line 3: {message}"
        if error is ParseError:
            assert err.value.line_no == 3

    def test_degenerate_interval_carries_line_number(self, tmp_path):
        path = write_lines(
            tmp_path, record(None, ("a", 0, 1)), record(None, ("a", 2, 2))
        )
        with pytest.raises(DegenerateInterval) as err:
            load_instances(path)
        assert "line 2" in str(err.value)

    def test_save_load_round_trip_is_identity(self, tmp_path):
        path = write_lines(
            tmp_path,
            record("w", ("a", 0, 1.5), ("b", 0.25, 3)),
            record(None, ("b", 1, 2)),
        )
        corpus = load_instances(path)
        out = tmp_path / "again.jsonl"
        save_instances(corpus, out)
        reloaded = load_instances(out)
        assert reloaded.instances == corpus.instances
        assert reloaded.vocab == corpus.vocab
        assert reloaded.classes == corpus.classes

    def test_save_refuses_non_finite_times_before_writing(self, tmp_path):
        finite = Instance("a", (Interval(1, 0.0, 1.0),))
        corpus = Corpus([finite, Instance("a", (Interval(1, 0.0, math.inf),))], ["x"], ["a"])
        with pytest.raises(ValueError):
            save_instances(corpus, tmp_path / "inf.jsonl")
        assert not (tmp_path / "inf.jsonl").exists()

    @pytest.mark.parametrize("action", [0, -1, 3])
    def test_save_refuses_action_ids_outside_the_vocabulary_before_writing(self, tmp_path, action):
        valid = Instance("a", (Interval(1, 0.0, 1.0),))
        corpus = Corpus([valid, Instance("a", (Interval(action, 0.0, 1.0),))], ["lift", "drop"], ["a"])
        with pytest.raises(ValueError, match=f"action id {action} "):
            save_instances(corpus, tmp_path / "bad.jsonl")
        assert not (tmp_path / "bad.jsonl").exists()

    @pytest.mark.parametrize("case", list(UNWRITABLE_CORPORA))
    def test_save_refuses_what_load_would_refuse_or_read_differently(self, tmp_path, case):
        corpus, message = UNWRITABLE_CORPORA[case]
        path = tmp_path / "corpus.jsonl"
        path.write_text("kept")
        with pytest.raises(ValueError) as excinfo:
            save_instances(corpus, path)
        assert str(excinfo.value) == message
        assert path.read_text() == "kept"

    @pytest.mark.parametrize("seed", range(3))
    def test_saved_corpus_reads_back_to_the_same_bytes(self, tmp_path, seed):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_instances(build_synthetic_corpus(two_class_models(), per_class=5, seed=seed), first)
        save_instances(load_instances(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_save_is_byte_stable(self, tmp_path):
        corpus = build_synthetic_corpus(two_class_models(), per_class=5, seed=11)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_instances(corpus, first)
        save_instances(corpus, second)
        assert first.read_bytes() == second.read_bytes()


class TestKfoldSplit:
    def _corpus(self, counts):
        instances = []
        for name, count in counts.items():
            for i in range(count):
                instances.append(
                    Instance(
                        label=name,
                        intervals=(Interval(1, float(i), float(i) + 1.0),),
                    )
                )
        return Corpus(instances=instances, vocab=["a"], classes=list(counts))

    def test_partitions_are_disjoint_and_cover(self):
        corpus = self._corpus({"x": 7, "y": 5})
        splits = kfold_split(corpus, folds=3, seed=1)
        assert len(splits) == 3
        all_instances = set(corpus.instances)
        for train, test in splits:
            assert set(train.instances) | set(test.instances) == all_instances
            assert not set(train.instances) & set(test.instances)
            assert train.vocab == corpus.vocab and train.classes == corpus.classes

    def test_stratified_counts(self):
        corpus = self._corpus({"x": 9, "y": 6})
        for _train, test in kfold_split(corpus, folds=3, seed=0):
            by_class = test.by_class()
            assert len(by_class["x"]) == 3
            assert len(by_class["y"]) == 2

    def test_deterministic_per_seed(self):
        corpus = self._corpus({"x": 8, "y": 4})
        a = kfold_split(corpus, folds=2, seed=5)
        b = kfold_split(corpus, folds=2, seed=5)
        assert [(t.instances, s.instances) for t, s in a] == [
            (t.instances, s.instances) for t, s in b
        ]

    def test_too_few_instances_rejected(self):
        corpus = self._corpus({"x": 5, "y": 2})
        with pytest.raises(InsufficientClassInstances):
            kfold_split(corpus, folds=3)

    def test_unlabeled_rejected(self):
        corpus = Corpus(
            instances=[Instance(label=None, intervals=(Interval(1, 0.0, 1.0),))],
            vocab=["a"],
            classes=[],
        )
        with pytest.raises(ValueError):
            kfold_split(corpus, folds=2)

    def test_single_fold_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(self._corpus({"x": 4}), folds=1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            kfold_split(Corpus(), 2)


class TestPerturbLabels:
    def _corpus(self, seed=0):
        return build_synthetic_corpus(two_class_models(), per_class=6, seed=seed)

    def test_rate_zero_is_identity(self):
        corpus = self._corpus()
        out = perturb_labels(corpus, 0.0, seed=1)
        assert out.instances == corpus.instances

    def test_rate_one_changes_every_action(self):
        corpus = self._corpus()
        out = perturb_labels(corpus, 1.0, seed=1)
        for before, after in zip(corpus.instances, out.instances):
            for ivb, iva in zip(before.intervals, after.intervals):
                assert iva.action != ivb.action
                assert 1 <= iva.action <= len(corpus.vocab)
                assert (iva.start, iva.end) == (ivb.start, ivb.end)

    def test_timestamps_and_labels_survive(self):
        corpus = self._corpus()
        out = perturb_labels(corpus, 0.5, seed=2)
        for before, after in zip(corpus.instances, out.instances):
            assert after.label == before.label
            assert [iv.times for iv in after.intervals] == [
                iv.times for iv in before.intervals
            ]

    def test_deterministic_per_seed(self):
        corpus = self._corpus()
        assert (
            perturb_labels(corpus, 0.4, seed=9).instances
            == perturb_labels(corpus, 0.4, seed=9).instances
        )

    def test_single_action_vocab_is_noop(self):
        corpus = Corpus(
            instances=[Instance(label=None, intervals=(Interval(1, 0.0, 1.0),))],
            vocab=["only"],
            classes=[],
        )
        out = perturb_labels(corpus, 1.0, seed=0)
        assert out.instances == corpus.instances

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            perturb_labels(self._corpus(), 1.5)


class TestPerturbDurations:
    def _corpus(self, seed=0):
        return build_synthetic_corpus(two_class_models(), per_class=6, seed=seed)

    def test_rate_zero_keeps_timestamps(self):
        corpus = self._corpus()
        out = perturb_durations(corpus, 0.0, seed=3)
        for before, after in zip(corpus.instances, out.instances):
            assert [iv.times for iv in after.intervals] == [
                iv.times for iv in before.intervals
            ]

    def test_outputs_remain_valid_and_canonical(self):
        # the subnormal interval: at rate 1 the jitter often lands both
        # endpoints on one value, and the repair must widen it again
        tiny = Corpus([Instance("a", (Interval(1, 0.0, 5e-324),))], ["x"], ["a"])
        outs = [perturb_durations(self._corpus(), 0.6, seed=4)]
        outs += [perturb_durations(tiny, 1.0, seed=seed) for seed in range(50)]
        for inst in (inst for out in outs for inst in out.instances):
            assert is_canonical(inst)
            for iv in inst.intervals:
                assert iv.start < iv.end
            # still a well-formed network
            assert check_consistency(instance_to_network(inst)).consistent

    def test_action_multiset_preserved(self):
        corpus = self._corpus()
        out = perturb_durations(corpus, 0.4, seed=5)
        for before, after in zip(corpus.instances, out.instances):
            assert sorted(iv.action for iv in after.intervals) == sorted(
                iv.action for iv in before.intervals
            )

    def test_jitter_bounded_by_rate_times_length(self):
        corpus = self._corpus()
        rate = 0.25
        out = perturb_durations(corpus, rate, seed=6)
        for before, after in zip(corpus.instances, out.instances):
            # compare as multisets of (action, midpoint-ish) — canonical order
            # may reshuffle, so check each new interval is within reach of one
            # original of the same action
            used = set()
            for iva in after.intervals:
                ok = False
                for idx, ivb in enumerate(before.intervals):
                    if idx in used or ivb.action != iva.action:
                        continue
                    reach = rate * (ivb.end - ivb.start)
                    lo = sorted([iva.start, iva.end])
                    if (
                        abs(lo[0] - ivb.start) <= 2 * reach + 1e-9
                        and abs(lo[1] - ivb.end) <= 2 * reach + 1e-9
                    ):
                        used.add(idx)
                        ok = True
                        break
                assert ok

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            perturb_durations(self._corpus(), -0.1)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 1e308])
    def test_non_finite_jitter_range_rejected(self, rate):
        with pytest.raises(ValueError, match="non-finite jitter range"):
            perturb_durations(self._corpus(), rate)

    @pytest.mark.parametrize("seed", [1, 5, 7, 8])
    def test_endpoint_jittered_past_the_largest_float_rejected(self, seed):
        corpus = Corpus([Instance("a", (Interval(1, 1.7e308, 1.79e308),))], ["x"], ["a"])
        with pytest.raises(ValueError, match=r"\[1\.7e\+308, 1\.79e\+308\] to a non-finite endpoint"):
            perturb_durations(corpus, 1.0, seed=seed)


class TestBuildSyntheticCorpus:
    def test_counts_labels_and_consistency(self):
        models = two_class_models()
        corpus = build_synthetic_corpus(models, per_class=8, seed=21)
        assert len(corpus) == 16
        assert corpus.classes == list(models)
        assert corpus.vocab == list(models["assemble"].action_vocab)
        for inst in corpus.instances:
            assert inst.label in models
            assert is_canonical(inst)
            assert check_consistency(instance_to_network(inst)).consistent

    def test_sizes_come_from_histogram(self):
        models = two_class_models(k_star=5)
        corpus = build_synthetic_corpus(models, per_class=30, seed=22)
        allowed = set(models["assemble"].size_histogram)
        assert {len(inst) for inst in corpus.instances} <= allowed

    def test_deterministic_per_seed(self):
        models = two_class_models()
        a = build_synthetic_corpus(models, per_class=4, seed=33)
        b = build_synthetic_corpus(models, per_class=4, seed=33)
        assert a.instances == b.instances

    def test_mismatched_vocabularies_rejected(self):
        import dataclasses

        models = two_class_models()
        models["brew"] = dataclasses.replace(
            models["brew"], action_vocab=("w", "x", "y", "z")
        )
        with pytest.raises(ValueError):
            build_synthetic_corpus(models, per_class=2, seed=0)

    def test_empty_model_map_rejected(self):
        with pytest.raises(EmptyCorpus):
            build_synthetic_corpus({}, per_class=2, seed=0)

    def test_zero_per_class_rejected(self):
        with pytest.raises(ValueError):
            build_synthetic_corpus(two_class_models(), 0)
