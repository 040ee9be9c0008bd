"""Every command's output goes through one write: ``--out FILE`` holds the
bytes the command prints without ``--out``, and ``--out -`` prints them."""

from __future__ import annotations

import json

import pytest

from entflow.cli import main

# each command reads what an earlier one wrote in the same directory
_COMMANDS = (
    ("topo.json", ["topo", "gen", "--nodes", "20", "--seed", "7"]),
    ("toy.json", ["run", "intro-toy", "--no-timings", "--grid-size", "20"]),
    ("cache.json", ["cache", "build", "--topology", "topo.json", "--demands", "n0,n13",
                    "--grid-size", "20"]),
    ("answer.json", ["cache", "solve", "--cache", "cache.json", "--demand", "n0,n13",
                     "--no-timings"]),
    ("oracle.json", ["oracle", "--topology", "topo.json", "--demand", "n0,n3", "--grid-size",
                     "4", "--no-timings"]),
)


def test_out_file_holds_the_bytes_each_command_prints(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    for out, argv in _COMMANDS:
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed.endswith("\n")
        assert main([*argv, "--out", out]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / out).read_bytes() == printed.encode()
        assert main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out == printed


@pytest.mark.parametrize("out", [None, "-", "answer.json"])
def test_an_oracle_demand_with_no_path_writes_nothing(out, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two-parts.json").write_text(json.dumps({
        "nodes": ["a", "b", "c", "d"],
        "edges": [{"u": "a", "v": "b", "length_km": 50}, {"u": "c", "v": "d", "length_km": 50}],
    }))
    capsys.readouterr()
    argv = ["oracle", "--topology", "two-parts.json", "--demand", "a,c"]
    assert main(argv if out is None else [*argv, "--out", out]) == 2
    assert capsys.readouterr() == ("", "no path between a and c\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["two-parts.json"]
