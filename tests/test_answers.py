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


def test_a_command_that_fails_the_same_way_in_both_trees_fails_the_tool(monkeypatch, capsys):
    failed = (2, b"Traceback (most recent call last):\nValueError: bad\n")
    assert answers.report("a.json", failed, failed) == [
        "a.json: fails the same way in both trees", "  exit status: 2", "  ValueError: bad"]
    counted = (3, b'{"failed": 1}\n')  # a report that counts failed instances passes
    assert answers.report("a.json", counted, counted) == ["a.json: same bytes"]
    results = {name: (0, b"{}\n") for name, _ in answers.commands()}
    results["topo.json"] = failed
    monkeypatch.setattr(answers, "run_tree", lambda tree, workdir: results)
    assert answers.main(["src", "src"]) == 1
    assert "topo.json: fails the same way in both trees" in capsys.readouterr().out
    results["topo.json"] = (0, b"{}\n")
    assert answers.main(["src", "src"]) == 0


def test_commands_name_each_output_once_and_record_no_clock():
    # one list of seeded outputs: each file is written once, every output
    # that would hold a clock reading is asked for without it, and no
    # command passes --f0, which only run takes
    listed = answers.commands()
    names = [name for name, _ in listed]
    assert len(set(names)) == len(names)
    for name, argv in listed:
        assert "--f0" not in argv
        if argv[0] in ("run", "oracle") or argv[:2] == ["cache", "solve"]:
            assert "--no-timings" in argv, name
