"""Tests for the experiment harness, report emission, and the CLI."""

import csv
import io
import json
import re

import pytest

from entflow import lp
from entflow.cli import build_parser, main
from entflow.experiments import (
    COLUMNS,
    ExperimentConfig,
    Report,
    emit_report,
    run_experiment,
)
from entflow.lp import LPSolveError
from entflow.orchestrator import PlannerConfig
from entflow.physics import NoiseParams


def _cfg(kind, **kw):
    base = dict(
        kind=kind,
        seed=1,
        topology_nodes=30,
        pairs_per_length=2,
        path_lengths=(3,),
        grid_size=8,
        grid_sizes=(4, 8),
        chain_nodes=4,
        repetitions=2,
        network_sizes=(12,),
        scale_path_lengths=(2, 3),
        distance_range_km=(20.0, 80.0),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="benchmark", strategies=("bad",))
    with pytest.raises(ValueError):
        ExperimentConfig(kind="sweep-flb", f_lb_step=-0.1)
    with pytest.raises(ValueError, match=r"^chain_nodes must be >= 2, got 1$"):
        ExperimentConfig(kind="sweep-resolution", chain_nodes=1)
    # a configuration error exits 2, before any instance runs
    assert main(["run", "sweep-flb", "--chain-nodes", "1"]) == 2


@pytest.mark.parametrize("f_lb", [0.5, 1.0, 1.5, 0.2, -0.9, float("nan")])
def test_config_rejects_f_lb_outside_the_rate_dp_range(f_lb):
    with pytest.raises(ValueError, match=r"^f_lb must be in \(0\.5, 1\), got "):
        ExperimentConfig(kind="benchmark", f_lb=f_lb)
    assert ExperimentConfig(kind="benchmark", f_lb=0.51).f_lb == 0.51


def test_cli_run_with_f_lb_outside_the_range_exits_2(capsys):
    capsys.readouterr()
    assert main(["run", "benchmark", "--f-lb", "1.5", "--topology-nodes", "20",
                 "--pairs", "2", "--path-lengths", "3", "--grid-size", "10"]) == 2
    assert "error: f_lb must be in (0.5, 1), got 1.5" in capsys.readouterr().err


def test_benchmark_rows_and_aggregates():
    report = run_experiment(_cfg("benchmark"))
    assert report.failures == 0
    assert report.rows
    for row in report.rows:
        assert set(row) == set(COLUMNS)
        assert row["experiment"] == "benchmark"
        assert row["strategy"] in ("rate-dp", "rate-lp", "ec-lp", "ec-dp")
    assert report.aggregates  # per-(length, strategy) means


def test_benchmark_deterministic_without_timings():
    cfg = _cfg("benchmark", record_timings=False)
    a = emit_report(run_experiment(cfg))
    b = emit_report(run_experiment(cfg))
    assert a == b
    # Timing columns are nulled out.
    doc = json.loads(a)
    assert all(row["server_time_s"] is None for row in doc["rows"])


def test_sweep_flb_rows():
    cfg = _cfg("sweep-flb", f_lb_start=0.85, f_lb_stop=0.9, f_lb_step=0.025,
               strategies=("rate-lp", "ec-dp"))
    report = run_experiment(cfg)
    assert report.failures == 0
    bounds = sorted({row["f_lb"] for row in report.rows if row["strategy"] == "rate-lp"})
    assert bounds == pytest.approx([0.85, 0.875, 0.9])


def test_sweep_resolution_rows():
    report = run_experiment(_cfg("sweep-resolution"))
    assert report.failures == 0
    sizes = {row["grid_size"] for row in report.rows}
    assert sizes == {4, 8}
    assert all(row["vertices"] > 0 and row["edges"] > 0 for row in report.rows)


def test_scale_path_and_network():
    rep_path = run_experiment(_cfg("scale-path"))
    assert rep_path.failures == 0
    assert {row["path_length"] for row in rep_path.rows} == {2, 3}
    rep_net = run_experiment(_cfg("scale-network"))
    assert rep_net.failures == 0
    assert rep_net.aggregates


@pytest.mark.parametrize(
    "kind", ["benchmark", "sweep-flb", "scale-path", "scale-network", "intro-toy"]
)
def test_a_refused_lp_is_a_counted_failure(kind, monkeypatch, tmp_path):
    def refuse(*args):
        raise LPSolveError("not optimal: refused")

    monkeypatch.setattr(lp, "_check_optimality", refuse)
    assert run_experiment(_cfg(kind)).failures > 0
    out = tmp_path / "report.json"
    # only benchmark reads these options; the other kinds refuse them
    sizes = ["--topology-nodes", "30", "--path-lengths", "3"] if kind == "benchmark" else []
    assert main(["run", kind, "--no-timings", *sizes, "--pairs", "2", "--grid-size", "8",
                 "--repetitions", "1", "--chain-nodes", "3", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["failures"] > 0


_UNREAD = [["--topology-nodes", "30"], ["--path-lengths", "3,4"], ["--topology", "topo.json"],
           ["--grid-sizes", "10,20"]]


@pytest.mark.parametrize("kind, option", [
    pytest.param(kind, option, id=f"{kind}-option{i}") for i, option in enumerate(_UNREAD)
    for kind in ["scale-path", "scale-network", "sweep-flb", "sweep-resolution", "intro-toy"]
    if (kind, option[0]) != ("sweep-resolution", "--grid-sizes")
])
def test_scale_kinds_refuse_the_sizes_they_do_not_use(kind, option, capsys):
    # only benchmark reads the topology and its path lengths: scale-path runs
    # its own path lengths, scale-network its own topologies and the other
    # kinds their own chains; only sweep-resolution reads the grid sizes. An
    # option a kind would ignore exits 2 and is named
    assert main(["run", kind, "--no-timings", *option]) == 2
    assert capsys.readouterr().err == f"error: run {kind} takes no {option[0]}\n"


def test_sweep_resolution_runs_the_grid_sizes_it_is_given(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "sweep-resolution", "--no-timings", "--grid-sizes", "4,6",
                 "--chain-nodes", "3", "--repetitions", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["grid_sizes"] == [4, 6]
    assert {row["grid_size"] for row in report["rows"]} == {4, 6}


def test_run_records_the_default_topology_nodes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "intro-toy", "--no-timings", "--grid-size", "8",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["topology_nodes"] == 100


def test_intro_toy_objective_ordering():
    report = run_experiment(_cfg("intro-toy", grid_size=100))
    by_fixture = {row["fixture"]: row for row in report.rows}
    assert set(by_fixture) == {"max-egr", "max-fidelity", "max-capacity"}
    egr = by_fixture["max-egr"]
    fid = by_fixture["max-fidelity"]
    cap = by_fixture["max-capacity"]
    assert egr["egr"] > fid["egr"]
    assert fid["fidelity"] > egr["fidelity"]
    assert cap["capacity"] >= max(egr["capacity"], fid["capacity"])


def test_emit_report_csv_round_trip():
    report = run_experiment(_cfg("intro-toy"))
    text = emit_report(report, format="csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(COLUMNS)
    assert len(rows) == 1 + len(report.rows)
    # None becomes the empty cell; floats keep 6 significant digits.
    s_idx = list(COLUMNS).index("s")
    assert all(r[s_idx] == "" for r in rows[1:])
    with pytest.raises(ValueError):
        emit_report(report, format="xml")


def test_emit_report_json_is_strict():
    report = Report(config=_cfg("benchmark"))
    report.rows.append({col: None for col in COLUMNS})
    report.rows[0]["capacity"] = float("nan")
    with pytest.raises(ValueError):
        emit_report(report)  # NaN must not leak into JSON output


def test_cli_topo_gen_validate_and_run(tmp_path):
    topo_file = tmp_path / "topo.json"
    assert main(["topo", "gen", "--nodes", "12", "--seed", "4",
                 "--out", str(topo_file)]) == 0
    assert main(["topo", "validate", "--topology", str(topo_file)]) == 0
    report_file = tmp_path / "report.json"
    rc = main(["run", "intro-toy", "--grid-size", "40",
               "--out", str(report_file)])
    assert rc == 0
    doc = json.loads(report_file.read_text())
    assert doc["failures"] == 0 and len(doc["rows"]) == 3


def test_cli_cache_and_oracle(tmp_path):
    topo_file = tmp_path / "topo.json"
    topo_file.write_text(json.dumps({
        "nodes": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "length_km": 60},
                  {"u": "b", "v": "c", "length_km": 60}],
    }))
    cache_file = tmp_path / "cache.json"
    assert main(["cache", "build", "--topology", str(topo_file),
                 "--demands", "a,c", "--grid-size", "20",
                 "--out", str(cache_file)]) == 0
    answer_file = tmp_path / "answer.json"
    assert main(["cache", "solve", "--cache", str(cache_file),
                 "--demand", "a,c", "--out", str(answer_file)]) == 0
    answer = json.loads(answer_file.read_text())
    assert answer["cached"] is True
    assert answer["scheme"]["capacity"] > 0.0
    oracle_file = tmp_path / "oracle.json"
    assert main(["oracle", "--topology", str(topo_file), "--demand", "a,c",
                 "--grid-size", "4", "--out", str(oracle_file)]) == 0
    oracle_doc = json.loads(oracle_file.read_text())
    assert oracle_doc["strategy"] == "oracle"
    assert oracle_doc["capacity"] > 0.0


def test_cli_config_errors_exit_2(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["topo", "validate", "--topology", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["topo", "validate", "--topology", str(bad)]) == 2
    assert main(["run", "benchmark", "--strategies", "nope",
                 "--topology-nodes", "10"]) == 2


def test_cli_cache_build_rejects_a_malformed_demand(tmp_path, capsys):
    topo_file = tmp_path / "topo.json"
    topo_file.write_text(json.dumps({
        "nodes": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "length_km": 60},
                  {"u": "b", "v": "c", "length_km": 60}],
    }))
    capsys.readouterr()
    assert main(["cache", "build", "--topology", str(topo_file), "--demands", "a,c;b"]) == 2
    assert "error: demand must be 's,d'" in capsys.readouterr().err


def test_cli_oracle_grid_size_defaults_to_6_and_rejects_larger(tmp_path, capsys):
    topo_file = tmp_path / "topo.json"
    topo_file.write_text(json.dumps({
        "nodes": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "length_km": 30.0},
                  {"u": "b", "v": "c", "length_km": 40.0}],
    }))
    base = ["oracle", "--topology", str(topo_file), "--demand", "a,c"]
    plain, six = tmp_path / "plain.json", tmp_path / "six.json"
    assert main(base + ["--out", str(plain)]) == 0
    assert main(base + ["--grid-size", "6", "--out", str(six)]) == 0
    untimed = [
        {k: v for k, v in json.loads(f.read_text()).items() if not k.endswith("_time_s")}
        for f in (plain, six)
    ]
    assert untimed[0] == untimed[1]
    assert untimed[0]["grid_size"] == 6
    capsys.readouterr()
    assert main(base + ["--grid-size", "7"]) == 2
    assert "6 values" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("pairs_per_length", 0, "pairs_per_length must be >= 1, got 0"),
    ("pairs_per_length", -2, "pairs_per_length must be >= 1, got -2"),
    ("repetitions", 0, "repetitions must be >= 1, got 0"),
    ("path_lengths", (1,), "path_lengths must each be >= 2, got (1,)"),
    ("path_lengths", (3, 0, 5), "path_lengths must each be >= 2, got (3, 0, 5)"),
])
def test_config_refuses_counts_that_select_nothing(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(kind="benchmark", **{field: value})


@pytest.mark.parametrize("argv, message", [
    (["benchmark", "--pairs", "0"], "pairs_per_length must be >= 1, got 0"),
    (["sweep-flb", "--repetitions", "0"], "repetitions must be >= 1, got 0"),
    (["benchmark", "--path-lengths", "1"], "path_lengths must each be >= 2, got (1,)"),
])
def test_cli_run_with_a_count_that_selects_nothing_exits_2(argv, message, capsys):
    # each used to run: an empty report, or (s, s) pairs that all failed
    capsys.readouterr()
    assert main(["run", *argv, "--no-timings"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind, option", [
    ("sweep-resolution", "--grid-sizes"), ("benchmark", "--path-lengths"),
])
def test_cli_run_refuses_an_empty_list_option(kind, option, capsys):
    # an empty list selects nothing; it is not taken for the default list
    capsys.readouterr()
    try:
        code = main(["run", kind, "--no-timings", option, ""])
    except SystemExit as exc:  # argparse refuses a malformed option this way
        code = exc.code
    assert code == 2
    assert option in capsys.readouterr().err


def test_parser_leaves_an_option_not_given_absent():
    assert vars(build_parser().parse_args(["run", "benchmark"])) == {
        "command": "run", "kind": "benchmark",
    }
    given = vars(build_parser().parse_args(["run", "sweep-flb", "--pairs", "3", "--no-timings"]))
    assert given == {"command": "run", "kind": "sweep-flb", "pairs_per_length": 3,
                     "record_timings": False}


def test_run_given_no_option_records_the_config_defaults(capsys):
    # the CLI holds no default of its own: what the report records is the config's
    capsys.readouterr()
    assert main(["run", "intro-toy", "--no-timings"]) == 0
    expected = ExperimentConfig(kind="intro-toy", record_timings=False).to_json()
    assert json.loads(capsys.readouterr().out)["config"] == json.loads(json.dumps(expected))


def test_cache_build_given_no_option_records_the_planner_defaults(tmp_path, capsys):
    topo_file = tmp_path / "topo.json"
    topo_file.write_text(json.dumps({
        "nodes": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "length_km": 60},
                  {"u": "b", "v": "c", "length_km": 60}],
    }))
    capsys.readouterr()
    assert main(["cache", "build", "--topology", str(topo_file), "--demands", "a,c"]) == 0
    expected = PlannerConfig().to_json()
    assert json.loads(capsys.readouterr().out)["config"] == json.loads(json.dumps(expected))
