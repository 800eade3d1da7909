"""``load_instances`` against a reference loader that parses with ``json.loads``.

The reference below is the loader as it was before it parsed each line with one
``raw_decode``, checked float endpoints by one chained comparison and shared equal
intervals.  Both must read every file to the same corpus, floats compared by
``.hex()`` so that a zero's sign counts, or raise the same exception type with
the same message and line number.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List

import numpy as np
import pytest

from ibgn import Instance, Interval, load_instances
from ibgn.dataset import Corpus
from ibgn.errors import DegenerateInterval, ParseError
from ibgn.network import _canonical_key


def _reference_number(value, line_no: int, what: str) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(line_no, f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(line_no, f"{what} must be finite, got {value!r}")
    return number


def reference_load_instances(path) -> Corpus:
    instances: List[Instance] = []
    vocab: List[str] = []
    action_ids: Dict[str, int] = {}
    classes: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise ParseError(line_no, "JSON nested too deeply") from exc
            except ValueError as exc:
                raise ParseError(line_no, f"invalid JSON ({exc})") from exc
            if not isinstance(record, dict) or not isinstance(record.get("intervals"), list):
                raise ParseError(line_no, "record must be an object with an 'intervals' list")
            label = record.get("label")
            if label is not None and not isinstance(label, str):
                raise ParseError(line_no, f"label must be a string, got {label!r}")
            intervals = []
            for entry in record["intervals"]:
                name = entry.get("action") if isinstance(entry, dict) else None
                if not isinstance(name, str) or not name:
                    raise ParseError(line_no, "interval must be an object with a non-empty string 'action'")
                start = _reference_number(entry.get("start"), line_no, "start")
                end = _reference_number(entry.get("end"), line_no, "end")
                if start >= end:
                    raise DegenerateInterval(
                        f"line {line_no}: interval [{start}, {end}] of "
                        f"action {name!r} has start >= end"
                    )
                action = action_ids.get(name)
                if action is None:
                    action = action_ids[name] = len(vocab) + 1
                    vocab.append(name)
                intervals.append(Interval(action, start, end))
            if label is not None:
                label = classes.setdefault(label, label)
            intervals.sort(key=_canonical_key)
            instances.append(Instance(label, tuple(intervals)))
    return Corpus(instances=instances, vocab=vocab, classes=list(classes))


def outcome(load, path):
    """What ``load(path)`` gives: the corpus with every float as ``.hex()`` text, or the error."""
    try:
        corpus = load(path)
    except Exception as exc:  # every exception either loader raises is compared
        return ("error", type(exc), str(exc), getattr(exc, "line_no", None))
    instances = [
        (inst.label, [(iv.action, type(iv.action), iv.start.hex(), iv.end.hex()) for iv in inst.intervals])
        for inst in corpus.instances
    ]
    return ("corpus", corpus.vocab, corpus.classes, instances)


def write_text(tmp_path, text, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def assert_same(path):
    expected = outcome(reference_load_instances, path)
    assert outcome(load_instances, path) == expected
    return expected


def interval(action, start, end):
    return {"action": action, "start": start, "end": end}


GOOD = json.dumps({"label": "w", "intervals": [interval("a", 0.0, 1.0)]})
LONG_END = '{"intervals": [{"action": "a", "start": 0, "end": 1%s}]}'

# each file's lines; every case must load the same corpus or raise the same error
CASES = {
    "signed_zeros_of_one_action": [
        json.dumps({"intervals": [interval("a", -0.0, 1.0), interval("a", 0.0, 1.0)]}),
        json.dumps({"intervals": [interval("a", 0.0, 1.0), interval("a", -0.0, 1.0)]}),
        json.dumps({"intervals": [interval("a", -2.0, 0.0), interval("a", -2.0, -0.0)]}),
        json.dumps({"intervals": [interval("a", -0.0, 2.0), interval("b", -0.0, 2.0)]}),
    ],
    "int_timestamps": [
        json.dumps({"intervals": [interval("a", 0, 3), interval("a", 0.0, 3.0), interval("a", 0, 3.0)]}),
        json.dumps({"intervals": [interval("a", -1, 0), interval("b", 2, 7)]}),
    ],
    "overflowing_float": [GOOD, '{"intervals": [{"action": "a", "start": 0, "end": 1e400}]}'],
    "overflowing_integer": [GOOD, LONG_END % ("0" * 399)],  # a 400-digit integer
    "integer_past_the_digit_limit": [GOOD, LONG_END % ("0" * 5000)],
    "byte_order_mark": ["\ufeff" + GOOD],
    "byte_order_mark_after_a_space": [GOOD, " \ufeff" + GOOD],
    "leading_form_feed": [GOOD, "\x0c" + GOOD],
    "form_feed_only_line": [GOOD, "\x0c", GOOD],
    "trailing_form_feed": [GOOD, GOOD + "\x0c"],
    "json_whitespace_around_the_record": [" \t" + GOOD + " \t\r"],
    "text_after_the_record": [GOOD, GOOD + " x"],
    "second_record_on_the_line": [GOOD, GOOD + GOOD],
    "deep_nesting": [GOOD, "[" * 100_000 + "]" * 100_000],
    "deep_nesting_inside_a_record": [GOOD, '{"intervals": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    "true_start": [GOOD, json.dumps({"intervals": [interval("a", True, 1.0)]})],
    "true_end_after_float_start": [GOOD, json.dumps({"intervals": [interval("a", 0.0, True)]})],
    "null_end": [GOOD, json.dumps({"intervals": [interval("a", 0.0, None)]})],
    "string_start": [GOOD, json.dumps({"intervals": [interval("a", "0", 1.0)]})],
    "nan_start": [GOOD, '{"intervals": [{"action": "a", "start": NaN, "end": 1.0}]}'],
    "nan_end": [GOOD, '{"intervals": [{"action": "a", "start": 0.0, "end": NaN}]}'],
    "infinite_end": [GOOD, '{"intervals": [{"action": "a", "start": 0.0, "end": Infinity}]}'],
    "minus_infinite_start": [GOOD, '{"intervals": [{"action": "a", "start": -Infinity, "end": 1.0}]}'],
    "start_after_end": [GOOD, json.dumps({"intervals": [interval("a", 2.0, 1.0)]})],
    "start_equal_to_end": [GOOD, json.dumps({"intervals": [interval("a", 1.0, 1.0)]})],
    "signed_zero_start_equal_to_end": [GOOD, json.dumps({"intervals": [interval("a", -0.0, 0.0)]})],
    "degenerate_after_a_bad_start": [GOOD, json.dumps({"intervals": [interval("a", None, -1.0)]})],
    "intervals_repeated_across_lines": [
        json.dumps({"label": "x", "intervals": [interval("b", 1.0, 2.0), interval("a", 0.0, 1.0)]}),
        json.dumps({"label": "y", "intervals": [interval("a", 0.0, 1.0), interval("b", 1.0, 2.0)]}),
        json.dumps({"label": "x", "intervals": [interval("b", 1.0, 2.0), interval("b", 1.0, 2.0)]}),
        "",
        json.dumps({"intervals": [interval("c", 1.0, 2.0), interval("a", 0.0, 1.0)]}),
    ],
    "not_an_object": [GOOD, "[1, 2]"],
    "label_not_a_string": [GOOD, json.dumps({"label": 3, "intervals": []})],
    "entry_not_an_object": [GOOD, json.dumps({"intervals": [[0.0, 1.0]]})],
}


@pytest.mark.parametrize("lines", CASES.values(), ids=list(CASES))
def test_loader_matches_the_reference(tmp_path, lines):
    assert_same(write_text(tmp_path, "\n".join(lines) + "\n"))


def test_the_cases_reach_both_outcomes_and_keep_every_zero_sign(tmp_path):
    kinds = {}
    for name, lines in CASES.items():
        kinds[name] = assert_same(write_text(tmp_path, "\n".join(lines) + "\n", name=f"{name}.jsonl"))
    bom = "line 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"
    assert kinds["byte_order_mark"][1:] == (ParseError, bom, 1)
    assert kinds["text_after_the_record"][2] == "line 2: invalid JSON (Extra data)"
    assert kinds["overflowing_integer"][2].startswith("line 2: end must be finite")
    assert kinds["deep_nesting_inside_a_record"][2] == "line 2: JSON nested too deeply"
    assert kinds["signed_zero_start_equal_to_end"][1] is DegenerateInterval
    first_two = kinds["signed_zeros_of_one_action"][3][:2]  # -0.0 ties with 0.0, so file order holds
    assert [intervals[0][2] for _, intervals in first_two] == ["-0x0.0p+0", "0x0.0p+0"]
    assert sum(kind == "corpus" for kind, *_ in kinds.values()) >= 5


def test_equal_intervals_are_one_object_and_signed_zeros_are_not(tmp_path):
    lines = CASES["intervals_repeated_across_lines"] + CASES["signed_zeros_of_one_action"]
    corpus = load_instances(write_text(tmp_path, "\n".join(lines) + "\n"))
    by_value: Dict[tuple, set] = {}
    for inst in corpus.instances:
        for iv in inst.intervals:
            by_value.setdefault((iv.action, iv.start.hex(), iv.end.hex()), set()).add(id(iv))
    assert all(len(objects) == 1 for objects in by_value.values())
    a = corpus.vocab.index("a") + 1
    assert {(a, "-0x0.0p+0", "0x1.0000000000000p+0"), (a, "0x0.0p+0", "0x1.0000000000000p+0")} <= set(by_value)


def _random_value(rng, value, faulty):
    """``value`` written as a float, an int where it is whole or a signed zero; in a faulty
    file, now and then a value both loaders refuse."""
    form = rng.random()
    if faulty and form < 0.02:
        return [True, None, "1", math.nan, math.inf][int(rng.integers(5))]
    if value == 0 and form < 0.3:
        return -0.0
    if float(value).is_integer() and form < 0.5:
        return int(value)
    return float(value)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_random_corpora_match_the_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    names = ["pour", "stir", "lift", "boil"]
    errors = corpora = 0
    for trial in range(24):
        faulty = trial % 3 == 2
        lines = []
        for _ in range(int(rng.integers(1, 40))):
            entries = []
            for _ in range(int(rng.integers(0, 6))):
                start = float(rng.integers(-2, 4)) + (0.5 if rng.random() < 0.2 else 0.0)
                end = start + float(rng.integers(0 if faulty and rng.random() < 0.02 else 1, 3))
                name = names[int(rng.integers(len(names)))]
                entries.append(interval(name, _random_value(rng, start, faulty), _random_value(rng, end, faulty)))
            rec = {"intervals": entries}
            if rng.random() < 0.8:
                rec["label"] = ["x", "y", "z"][int(rng.integers(3))]
            text = json.dumps(rec)
            spacing = rng.random()
            if spacing < 0.05:
                text = " \t" + text + "\r "
            elif spacing < 0.07:
                text = ""
            lines.append(text)
        result = assert_same(write_text(tmp_path, "\n".join(lines) + "\n", name=f"random{trial}.jsonl"))
        errors += result[0] == "error"
        corpora += result[0] == "corpus"
    assert errors > 0 and corpora > 0
