"""Tests for the experiment harness, report emission, and the CLI."""

import csv
import io
import json
import re
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from entflow import hypergraph, lp
from entflow.cli import build_parser, main
from entflow.experiments import (
    COLUMNS,
    ExperimentConfig,
    Report,
    _draw_chain,
    _sample_pairs,
    RUNNERS,
    emit_report,
    run_experiment,
    settings_read,
)
from entflow.hypergraph import FidelityGrid, build_pruned_hypergraph
from entflow.lp import SCHEME_METRICS, LPSolveError
from entflow.orchestrator import PlannerConfig
from entflow.physics import NoiseParams
from entflow.strategies import STRATEGIES, run_strategy
from entflow.topology import generate_gabriel


_ON_HYPERGRAPHS = tuple(name for name in STRATEGIES if name != "rate-dp")


def _cfg(kind, **kw):
    """A small config of ``kind``: each setting below that the kind reads,
    and ``kw``."""
    base = dict(
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
    _, reads = settings_read(kind, kw.get("topology_path"))
    return ExperimentConfig(kind=kind, **{k: v for k, v in base.items() if k in reads} | kw)


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


def test_a_benchmark_builds_each_model_of_a_pair_once():
    # rate-lp and ec-lp share the standard lattice: 2 builds per pair, not 3
    hypergraph.BUILD_COUNTER.reset()
    report = run_experiment(_cfg("benchmark", path_lengths=(3, 4), record_timings=False))
    assert report.failures == 0
    assert len(report.rows) == 4 * 4  # 2 pairs per length, 4 strategies each
    assert hypergraph.BUILD_COUNTER.count == 8


def test_rows_that_share_a_model_report_its_one_build_time():
    report = run_experiment(_cfg("benchmark"))
    for s, d in {(row["s"], row["d"]) for row in report.rows}:
        time = {row["strategy"]: row["server_time_s"] for row in report.rows
                if (row["s"], row["d"]) == (s, d)}
        assert time["rate-lp"] == time["ec-lp"] > 0.0
        assert time["ec-dp"] > 0.0 and time["rate-dp"] == 0.0


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


def test_scale_path_rows_report_the_pruned_build_of_each_path():
    config = _cfg("scale-path", scale_path_lengths=(2, 3, 5))
    report = run_experiment(config)
    assert report.failures == 0
    rng, grid = np.random.default_rng([config.seed, 3]), FidelityGrid.uniform(config.grid_size)
    for row, length in zip(report.rows, config.scale_path_lengths, strict=True):
        path = _draw_chain(config, rng, length, name=f"p{length}_")
        stats = build_pruned_hypergraph(path, grid, config.noise, config.purify_model).stats()
        assert (row["path_length"], row["builder"], row["vertices"], row["edges"]) == (
            length, "pruned", stats.num_vertices, stats.num_edges)
    result = run_strategy("ec-dp", path, grid, noise=config.noise)
    assert result.stats == stats
    # the counts ride on the result, not in its document
    assert list(result.to_json()) == ["strategy", *SCHEME_METRICS, "server_time_s",
                                      "solver_time_s", "grid_size", "f_lb", "purify_model"]
    assert run_strategy("rate-dp", path, grid).stats is None


def test_config_refuses_an_unknown_purification_model():
    with pytest.raises(ValueError, match=r"^purify_model must be one of "
                                         r"\('ideal-dejmps', 'as-printed'\), got 'bogus'$"):
        ExperimentConfig(kind="intro-toy", purify_model="bogus")


_CHECK_S = 0.05  # the time each patched hypergraph check sleeps


@pytest.fixture
def slow_checks(monkeypatch):
    """Every hypergraph made takes at least ``_CHECK_S`` longer to check."""
    check = hypergraph._check_references

    def slow(*args):
        time.sleep(_CHECK_S)
        check(*args)

    monkeypatch.setattr(hypergraph, "_check_references", slow)


@pytest.mark.parametrize("name", _ON_HYPERGRAPHS)
def test_a_strategy_server_time_includes_the_hypergraph_checks(name, slow_checks):
    result = run_strategy(name, make_chain([40.0, 60.0]), FidelityGrid.uniform(8))
    assert result.server_time_s >= _CHECK_S


@pytest.mark.parametrize("kind, options", [
    ("sweep-resolution", {"grid_sizes": (4,)}),
    ("scale-path", {"scale_path_lengths": (3,)}),
    ("scale-network", {}),
    ("sweep-flb", {"repetitions": 1, "f_lb_start": 0.9, "f_lb_stop": 0.9,
                   "strategies": _ON_HYPERGRAPHS}),
    ("benchmark", {"pairs_per_length": 1, "strategies": _ON_HYPERGRAPHS}),
    ("intro-toy", {}),
])
def test_every_reported_server_time_includes_the_hypergraph_checks(kind, options, slow_checks):
    # rate-dp builds no hypergraph: its rows are left out of the two kinds
    # that read strategies
    report = run_experiment(_cfg(kind, **options))
    assert report.failures == 0 and report.rows
    assert min(row["server_time_s"] for row in report.rows) >= _CHECK_S


@pytest.mark.parametrize(
    "kind", ["benchmark", "sweep-flb", "scale-path", "scale-network", "intro-toy"]
)
def test_a_refused_lp_is_a_counted_failure(kind, monkeypatch, tmp_path):
    def refuse(*args):
        raise LPSolveError("not optimal: refused")

    monkeypatch.setattr(lp, "_check_optimality", refuse)
    assert run_experiment(_cfg(kind)).failures > 0
    out = tmp_path / "report.json"
    # each kind is given only the options it reads; it refuses the others
    flags = {"benchmark": ["--topology-nodes", "30", "--path-lengths", "3", "--pairs", "2"],
             "sweep-flb": ["--repetitions", "1", "--chain-nodes", "3"],
             "scale-network": ["--pairs", "2"]}.get(kind, [])
    assert main(["run", kind, "--no-timings", *flags, "--grid-size", "8",
                 "--out", str(out)]) == 3
    assert json.loads(out.read_text())["failures"] > 0


def test_sweep_resolution_runs_the_grid_sizes_it_is_given(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "sweep-resolution", "--no-timings", "--grid-sizes", "4,6",
                 "--chain-nodes", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["grid_sizes"] == [4, 6]
    assert {row["grid_size"] for row in report["rows"]} == {4, 6}


# a value other than its default for each setting, noise by its fields
_SET = {
    "seed": 1, "topology_path": "topo.json", "topology_nodes": 50, "pairs_per_length": 2,
    "path_lengths": (3,), "grid_size": 8, "grid_sizes": (8,), "f_lb": 0.9,
    "f_lb_start": 0.9, "f_lb_stop": 0.95, "f_lb_step": 0.01, "strategies": ("ec-dp",),
    "purify_model": "as-printed", "record_timings": False, "chain_nodes": 3,
    "repetitions": 2, "network_sizes": (30,), "scale_path_lengths": (3,),
    "distance_range_km": (30.0, 90.0), "bbox_km": 400.0,
    "p1": 0.99, "p2": 0.99, "eta": 0.99, "f0": 0.9,
}
_FILE_FIXES = ("topology_nodes", "bbox_km", "distance_range_km", "f0")
_UNREAD_SETTINGS = [(kind, name) for kind in RUNNERS for name in _SET
                    if name not in settings_read(kind, None)[1]]
_RUN_FLAGS = build_parser().run_flags


def _setting(name):
    """The config keywords that set ``name`` to its ``_SET`` value."""
    if name in {f.name for f in fields(NoiseParams)}:
        return {"noise": NoiseParams(**{name: _SET[name]})}
    return {name: _SET[name]}


def _option(dest):
    """The ``run`` option that sets ``dest`` to its ``_SET`` value."""
    value = _SET[dest]
    return [_RUN_FLAGS[dest], ",".join(map(str, value)) if isinstance(value, tuple) else str(value)]


def test_every_setting_has_a_value_and_69_of_144_pairs_are_read():
    noise = {f.name for f in fields(NoiseParams)}
    assert set(_SET) == {f.name for f in fields(ExperimentConfig)} - {"kind", "noise"} | noise
    assert len(RUNNERS) * len(_SET) - len(_UNREAD_SETTINGS) == 69


def _read_by_a_run(config):
    """The settings one run of ``config`` reads: each field read on a copy of
    it, or on that copy's own noise, once both are made. The noise is
    followed by identity, as ``replace`` makes another of its class."""
    reads, watched = set(), []

    class Noise(NoiseParams):
        def __getattribute__(self, name):
            if watched and self is watched[0]:
                reads.add(name)
            return super().__getattribute__(name)

    class Config(ExperimentConfig):
        def __getattribute__(self, name):
            if watched:
                reads.add(name)
            return super().__getattribute__(name)

    noise = Noise(**{f.name: getattr(config.noise, f.name) for f in fields(NoiseParams)})
    copy = Config(**{f.name: getattr(config, f.name) for f in fields(config)} | {"noise": noise})
    watched.append(noise)
    assert run_experiment(copy).failures == 0
    return reads & {"kind", *_SET}


@pytest.mark.parametrize("kind, from_file", [*((kind, False) for kind in RUNNERS),
                                             ("benchmark", True)])
def test_each_runner_reads_exactly_its_table_entry(kind, from_file, tmp_path):
    settings = {"sweep-flb": {"repetitions": 1, "f_lb_start": 0.9, "f_lb_stop": 0.9}}.get(kind, {})
    if from_file:
        settings["topology_path"] = path = str(tmp_path / "topo.json")
        assert main(["topo", "gen", "--nodes", "20", "--seed", "7", "--out", path]) == 0
    expected = settings_read(kind, settings.get("topology_path"))[1]
    assert _read_by_a_run(_cfg(kind, **settings)) == expected


@pytest.mark.parametrize("kind, name", _UNREAD_SETTINGS)
def test_the_config_refuses_each_setting_its_kind_does_not_read(kind, name):
    with pytest.raises(ValueError, match=f"^{kind} takes no {name}$"):
        ExperimentConfig(kind=kind, **_setting(name))


@pytest.mark.parametrize("name", _FILE_FIXES)
def test_a_benchmark_from_a_topology_file_refuses_what_the_file_fixes(name, capsys):
    # these were recorded in the report but changed none of its rows
    with pytest.raises(ValueError, match=f"^benchmark from a topology file takes no {name}$"):
        ExperimentConfig(kind="benchmark", topology_path="topo.json", **_setting(name))
    if name in _RUN_FLAGS:
        capsys.readouterr()
        assert main(["run", "benchmark", "--topology", "topo.json", *_option(name)]) == 2
        assert capsys.readouterr().err == (
            f"error: run benchmark from a topology file takes no {_RUN_FLAGS[name]}\n")


@pytest.mark.parametrize("kind, dest", [(kind, dest) for kind, dest in _UNREAD_SETTINGS
                                        if dest in _RUN_FLAGS])
def test_run_refuses_each_option_its_kind_does_not_read(kind, dest, capsys):
    capsys.readouterr()
    assert main(["run", kind, *_option(dest)]) == 2
    assert capsys.readouterr().err == f"error: run {kind} takes no {_RUN_FLAGS[dest]}\n"


def test_scale_path_refuses_strategies(capsys):
    # it times ec-dp only: given rate-dp, it used to exit 0 with ec-dp rows
    capsys.readouterr()
    assert main(["run", "scale-path", "--no-timings", "--strategies", "rate-dp"]) == 2
    assert capsys.readouterr().err == "error: run scale-path takes no --strategies\n"


def test_intro_toy_refuses_f0(capsys):
    # it runs at f0 0.95: given 0.9, it used to record 0.9 and run at 0.95
    capsys.readouterr()
    assert main(["run", "intro-toy", "--no-timings", "--f0", "0.9"]) == 2
    assert capsys.readouterr().err == "error: run intro-toy takes no --f0\n"


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


def test_cli_topo_gen_draws_lengths_from_the_distance_range(tmp_path, capsys):
    topo_file = tmp_path / "topo.json"
    assert main(["topo", "gen", "--nodes", "12", "--seed", "4", "--distance-range", "30,45",
                 "--out", str(topo_file)]) == 0
    lengths = [edge["length_km"] for edge in json.loads(topo_file.read_text())["edges"]]
    assert lengths and all(30.0 <= km <= 45.0 for km in lengths)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:  # argparse refuses a malformed option this way
        main(["topo", "gen", "--nodes", "12", "--distance-range", "20"])
    assert exc.value.code == 2
    assert "range must be 'lo,hi'" in capsys.readouterr().err


@pytest.mark.parametrize("option, name", [
    pytest.param("--distance-range=nan,inf", "distance_range_km", id="nan-inf-range"),
    pytest.param("--distance-range=50,20", "distance_range_km", id="reversed-range"),
    pytest.param("--distance-range=-5,10", "distance_range_km", id="negative-range"),
    pytest.param("--bbox-km=0", "bbox_km", id="zero-bbox"),
    pytest.param("--bbox-km=nan", "bbox_km", id="nan-bbox"),
    pytest.param("--bbox-km=inf", "bbox_km", id="infinite-bbox"),
])
def test_cli_topo_gen_refuses_a_range_it_cannot_sample_from(capsys, option, name):
    capsys.readouterr()
    assert main(["topo", "gen", "--nodes", "6", "--seed", "1", option]) == 2
    assert f"error: {name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("bbox_km", float("nan")), ("bbox_km", -1.0), ("distance_range_km", (50.0, 20.0)),
    ("distance_range_km", (0.0, 10.0)), ("distance_range_km", (20.0, float("inf"))),
])
def test_config_refuses_a_range_generate_gabriel_refuses(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ExperimentConfig(kind="benchmark", **{field: value})


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


def test_cache_solve_without_timings_prints_the_same_bytes(tmp_path):
    topo_file = tmp_path / "topo.json"
    topo_file.write_text(json.dumps({
        "nodes": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "length_km": 60},
                  {"u": "b", "v": "c", "length_km": 60}],
    }))
    cache_file = tmp_path / "cache.json"
    assert main(["cache", "build", "--topology", str(topo_file), "--demands", "a,c",
                 "--grid-size", "20", "--out", str(cache_file)]) == 0
    texts = []
    for name in ("first.json", "second.json", "timed.json"):
        out = tmp_path / name
        flags = [] if name == "timed.json" else ["--no-timings"]
        assert main(["cache", "solve", "--cache", str(cache_file), "--demand", "a,c",
                     *flags, "--out", str(out)]) == 0
        texts.append(out.read_text())
    untimed, again, timed = texts
    assert untimed == again
    doc = json.loads(timed)
    assert doc.pop("solver_time_s") >= 0.0
    assert json.loads(untimed) == doc  # only the time is left out, in the same key order
    assert list(json.loads(untimed)) == list(doc)


def test_oracle_without_timings_prints_the_same_bytes(tmp_path):
    topo_file = tmp_path / "topo.json"
    topo_file.write_text(json.dumps({
        "nodes": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "length_km": 60},
                  {"u": "b", "v": "c", "length_km": 60}],
    }))
    texts = []
    for name in ("first.json", "second.json", "timed.json"):
        out = tmp_path / name
        flags = [] if name == "timed.json" else ["--no-timings"]
        assert main(["oracle", "--topology", str(topo_file), "--demand", "a,c", "--grid-size", "4",
                     *flags, "--out", str(out)]) == 0
        texts.append(out.read_text())
    untimed, again, timed = texts
    assert untimed == again
    doc = json.loads(timed)
    assert doc.pop("server_time_s") >= 0.0 and doc.pop("solver_time_s") >= 0.0
    assert list(json.loads(untimed).items()) == list(doc.items())  # only the times left out


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
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("seed", True, "seed must be a non-negative integer, got True"),
    ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
    ("grid_size", 0, "grid_size must be >= 1, got 0"),
    ("grid_size", True, "grid_size must be an integer, got True"),
    ("grid_size", 8.0, "grid_size must be an integer, got 8.0"),
    ("grid_sizes", (8, 0), "grid_sizes must each be >= 1, got (8, 0)"),
    ("grid_sizes", (8, 2.5), "grid_sizes must each be an integer, got (8, 2.5)"),
    ("topology_nodes", 1, "topology_nodes must be >= 2, got 1"),
])
def test_config_refuses_counts_that_select_nothing(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(kind="benchmark", **{field: value})


@pytest.mark.parametrize("argv, message", [
    (["benchmark", "--pairs", "0"], "pairs_per_length must be >= 1, got 0"),
    (["sweep-flb", "--repetitions", "0"], "repetitions must be >= 1, got 0"),
    (["benchmark", "--path-lengths", "1"], "path_lengths must each be >= 2, got (1,)"),
    (["benchmark", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    (["intro-toy", "--grid-size", "0"], "grid_size must be >= 1, got 0"),
    (["sweep-resolution", "--grid-sizes", "8,0"], "grid_sizes must each be >= 1, got (8, 0)"),
    (["benchmark", "--topology-nodes", "1"], "topology_nodes must be >= 2, got 1"),
])
def test_cli_run_with_a_count_that_selects_nothing_exits_2(argv, message, capsys):
    # each used to run: an empty report, or (s, s) pairs that all failed
    capsys.readouterr()
    assert main(["run", *argv, "--no-timings"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_topo_gen_with_a_negative_seed_exits_2(capsys):
    # it used to exit 2 with numpy's "expected non-negative integer"
    capsys.readouterr()
    assert main(["topo", "gen", "--nodes", "6", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"


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


def _sample_pairs_by_bfs(topology, path_nodes, count, rng):
    """The pair sampler as a breadth-first search from each source, to
    check the library's hop distances against."""
    by_source = {}
    for s in topology.nodes:
        level, frontier = {s: 0}, [s]
        while frontier and level[frontier[0]] < path_nodes - 1:
            nxt = []
            for u in frontier:
                for v in topology.neighbors(u):
                    if v not in level:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        exact = sorted(v for v, d in level.items() if d == path_nodes - 1)
        if exact:
            by_source[s] = exact
    sources, pairs, seen, attempts = sorted(by_source), [], set(), 0
    while sources and len(pairs) < count and attempts < count * 50:
        attempts += 1
        s = sources[int(rng.integers(len(sources)))]
        d = by_source[s][int(rng.integers(len(by_source[s])))]
        if (s, d) not in seen and (d, s) not in seen:
            seen.add((s, d))
            pairs.append((s, d))
    return pairs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 10), st.integers(1, 8))
def test_sample_pairs_equals_a_per_source_bfs(seed, nodes, path_nodes, count):
    topo = generate_gabriel(nodes, seed)
    assert _sample_pairs(topo, path_nodes, count, np.random.default_rng([seed, path_nodes])) \
        == _sample_pairs_by_bfs(topo, path_nodes, count, np.random.default_rng([seed, path_nodes]))
