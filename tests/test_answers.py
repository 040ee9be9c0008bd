"""Tests for the diff routine of ``tools/answers.py``, the two-tree answer differ."""

import importlib.util
import math
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "answers.py")
_SPEC = importlib.util.spec_from_file_location("answers", _PATH)
answers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(answers)


def test_diff_names_each_changed_key_with_its_largest_relative_change():
    parent = {"capacity": 10.0, "tree": "p(L0)", "same": [1, 2],
              "rows": [{"swaps": 1.0, "purifications": 2.0}, {"swaps": 1.0, "purifications": 4.0}],
              "gone": 1, "flag": True, "zero": 0.0}
    child = {"capacity": 10.0, "tree": "p(p(L0))", "same": [1, 2],
             "rows": [{"swaps": 1.0, "purifications": 3.0}, {"swaps": 1.0, "purifications": 5.0}],
             "new": 1, "flag": 1, "zero": 1e-9}
    assert answers.diff(parent, child) == {
        "flag": [1, None, None],  # a boolean is not a number
        "gone": [1, None, None],
        "new": [1, None, None],
        "rows[].purifications": [2, 0.5, (2.0, 3.0)],
        "tree": [1, None, None],
        "zero": [1, math.inf, (0.0, 1e-9)],
    }


def test_diff_of_equal_documents_is_empty_and_nan_matches_nan():
    doc = {"a": [{"b": 1.5}], "c": None, "d": float("nan")}
    assert answers.diff(doc, {"a": [{"b": 1.5}], "c": None, "d": float("nan")}) == {}
    assert answers.diff([1, 2], [1, 2, 3]) == {"[] (length)": [1, None, None]}


def test_report_prints_same_bytes_or_the_changed_keys():
    same = (0, b'{"x": 1.0}\n')
    assert answers.report("a.json", same, same) == ["a.json: same bytes"]
    assert answers.report("a.json", same, (0, b'{"x": 1.25}\n')) == [
        "a.json: differs", "  x: 1 value, largest relative change 0.25 (1.0 -> 1.25)"]
    assert answers.report("a.json", same, (2, b"error: bad\n")) == [
        "a.json: differs", "  exit status: 0 -> 2", "  output is not JSON on both sides"]

