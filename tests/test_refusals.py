"""Refusals, each reached through the public API or the CLI, with its error
type and its whole message; and the rules each stated once: a path has at
least two nodes, a solve answers or raises, and ``f_lb`` is a real number."""

import json
import re

import numpy as np
import pytest

from conftest import make_chain
from entflow.capacity import pair_capacity_bounds
from entflow.cli import main
from entflow.experiments import ExperimentConfig
from entflow.hypergraph import FidelityGrid, HypergraphError, build_pruned_hypergraph
from entflow.lp import (
    LPError,
    LPProblem,
    LPSolveError,
    _simplex_maximize,
    formulate_lp,
    parse_lp,
    solve_lp,
)
from entflow.orchestrator import PlannerConfig
from entflow.physics import DEFAULT_NOISE, chain_swap_fidelity
from entflow.strategies import (
    OracleBoundsError,
    brute_force_oracle,
    oracle_best_single,
    run_rate_dp,
)
from entflow.topology import (
    Edge,
    Path,
    Topology,
    TopologyValidationError,
    generate_gabriel,
    k_shortest_paths,
)

_AB, _BC = Edge("a", "b", 10.0), Edge("b", "c", 10.0)
_TOPOLOGY = Topology(["a", "b", "c"], [_AB, _BC])
_BAD_BOUNDS = "maximize\n obj: 1.0 r_0\nsubject to\n a: 1.0 r_0 <= 1.0\nbounds\n r_0 >= 0\nend\n"

# id -> (call, error type, whole message)
REFUSALS = {
    "capacity-fidelity": (lambda: pair_capacity_bounds(1.5), ValueError,
                          "fidelity must be in [0, 1], got 1.5"),
    "config-no-strategies": (lambda: ExperimentConfig(kind="benchmark", strategies=()),
                             ValueError, "strategies must be nonempty"),
    "grid-empty": (lambda: FidelityGrid(()), HypergraphError,
                   "grid must contain at least one value"),
    "grid-size-0": (lambda: FidelityGrid.uniform(0), HypergraphError, "grid size must be >= 1"),
    "lp-objective-length": (lambda: LPProblem(2, [1.0], [], [], []), LPError,
                            "objective length disagrees with variable count"),
    "lp-rhs-count": (lambda: LPProblem(1, [1.0], [[(0, 1.0)]], [1.0, 2.0], ["a"]), LPError,
                     "row data lengths disagree"),
    "lp-row-count": (lambda: LPProblem(1, [1.0], [[(0, 1.0)], []], [1.0], ["a"]), LPError,
                     "row data lengths disagree"),
    "lp-forced-zero-bool": (lambda: LPProblem(2, [1.0, 1.0], [], [], [], frozenset({True})),
                            LPError, "forced_zero entry True is not an integer"),
    "lp-forced-zero-float": (lambda: LPProblem(2, [1.0, 1.0], [], [], [], frozenset({1.0})),
                             LPError, "forced_zero entry 1.0 is not an integer"),
    "lp-term-float-variable": (lambda: LPProblem(2, [1.0, 1.0], [[(1.5, 1.0)]], [1.0], ["a"]),
                               LPError, "row a: term 0: variable 1.5 is not an integer"),
    "lp-term-bool-variable": (
        lambda: LPProblem(2, [1.0, 1.0], [[(0, 1.0)], [(0, 1.0), (True, 1.0)]], [1.0, 1.0],
                          ["a", "b"]),
        LPError, "row b: term 1: variable True is not an integer"),
    "lp-term-string-coefficient": (lambda: LPProblem(1, [1.0], [[(0, "2")]], [1.0], ["a"]),
                                   LPError, "row a: term 0: coefficient '2' is not a real number"),
    "lp-term-bool-coefficient": (lambda: LPProblem(1, [1.0], [[(0, False)]], [1.0], ["a"]),
                                 LPError, "row a: term 0: coefficient False is not a real number"),
    "lp-negative-rhs-simplex": (
        lambda: solve_lp(LPProblem(1, [1.0], [[(0, 1.0)]], [-1.0], ["a"]), "simplex"),
        LPError, "tableau simplex requires nonnegative rhs"),
    "lp-unbounded-simplex": (
        lambda: _simplex_maximize(np.ones(1), np.zeros((1, 1)), np.ones(1)),
        LPSolveError, "built-in solver: problem is unbounded"),
    "lp-text-bounds-line": (lambda: parse_lp(_BAD_BOUNDS), LPError,
                            "cannot parse bounds line 'r_0 >= 0'"),
    "physics-no-fidelity": (lambda: chain_swap_fidelity([]), ValueError,
                            "need at least one input fidelity"),
    "rate-dp-f-lb-range": (lambda: run_rate_dp(make_chain([50.0]), FidelityGrid.uniform(8), 1.5),
                           ValueError, "f_lb must be in (0.5, 1), got 1.5"),
    "path-count": (lambda: Path(("a", "b"), (), 0.0), TopologyValidationError,
                   "path node count must be edge count + 1"),
    "path-repeated-node": (lambda: Path(("a", "b", "a"), (_AB, _AB), 20.0),
                           TopologyValidationError, "path must be simple (no repeated nodes)"),
    "gabriel-one-node": (lambda: generate_gabriel(1, 0), ValueError,
                         "need at least 2 nodes, got 1"),
    "paths-weight": (lambda: k_shortest_paths(_TOPOLOGY, "a", "c", 1, weight="miles"),
                     ValueError, "unknown weight mode 'miles'"),
    "paths-count-0": (lambda: k_shortest_paths(_TOPOLOGY, "a", "c", 0), ValueError,
                      "path count must be >= 1"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_a_refusal_names_what_it_refuses(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integer_and_float_scalars_are_read_as_their_values():
    plain = LPProblem(2, [1.0, 1.0], [[(0, 1.0), (1, 2)]], [1.0], ["a"], frozenset({1}))
    terms = [(np.int32(0), np.float32(1.0)), (np.uint8(1), np.int64(2))]
    scalars = LPProblem(2, [1.0, 1.0], [terms], [1.0], ["a"], frozenset({np.int64(1)}))
    assert scalars.rows == plain.rows and scalars.forced_zero == plain.forced_zero
    got, want = solve_lp(scalars), solve_lp(plain)
    assert (got.objective_value, got.rates.tolist()) == (want.objective_value, want.rates.tolist())


@pytest.mark.parametrize("nodes", [(), ("a",)])
def test_a_path_has_at_least_two_nodes(nodes):
    # a one-node path used to reach run_rate_dp, which raised a bare KeyError
    with pytest.raises(TopologyValidationError, match=r"^path must have at least 2 nodes$"):
        Path(nodes, (), 0.0)
    with pytest.raises(TopologyValidationError, match=r"^path must have at least 2 nodes$"):
        make_chain([])


def test_an_infeasible_problem_with_no_variable_is_refused_by_each_method():
    # the row 0 <= -1: it used to answer 0.0, from a shortcut that ran no check
    problem = LPProblem(0, [], [[]], [-1.0], ["r"])
    with pytest.raises(LPSolveError, match=r"^constraint violated: row r has lhs 0\.0 > "):
        solve_lp(problem, "highs")
    with pytest.raises(LPError, match=r"^tableau simplex requires nonnegative rhs$"):
        solve_lp(problem, "simplex")


@pytest.mark.parametrize("method", ["highs", "simplex"])
def test_an_empty_problem_answers_zero(method):
    solution = solve_lp(LPProblem(0, [], [], [], []), method)
    assert (solution.objective_value, len(solution.rates), solution.iterations) == (0.0, 0, 0)
    assert solution.method == method


@pytest.mark.parametrize("f_lb", [True, False, "0.9", None])
def test_formulate_lp_refuses_an_f_lb_that_is_not_a_real_number(f_lb):
    # True used to be read as 1.0: it forced all but one end edge to zero
    hg = build_pruned_hypergraph(make_chain([50.0, 60.0]), FidelityGrid.uniform(10),
                                 DEFAULT_NOISE)
    with pytest.raises(LPError, match=f"^f_lb must be a real number, got {re.escape(repr(f_lb))}$"):
        formulate_lp(hg, "end-rate", f_lb)


def test_rate_dp_and_the_config_refuse_an_f_lb_that_is_not_a_real_number():
    # each used to raise a bare TypeError from the range comparison
    message = r"^f_lb must be a real number, got '0\.9'$"
    with pytest.raises(ValueError, match=message):
        run_rate_dp(make_chain([50.0]), FidelityGrid.uniform(8), "0.9")
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(kind="intro-toy", f_lb="0.9")


@pytest.mark.parametrize("settings, message", [
    ({"repetitions": "2"}, "repetitions must be an integer, got '2'"),
    ({"f_lb_step": "0.01"}, "f_lb_step must be a real number, got '0.01'"),
], ids=["repetitions", "f_lb_step"])
def test_config_refuses_a_string_for_a_number(settings, message):
    # each used to raise a bare TypeError from the range comparison
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(kind="sweep-flb", **settings)


@pytest.mark.parametrize("field, value", [
    ("scale_path_lengths", (1,)), ("scale_path_lengths", (True,)),
    ("scale_path_lengths", (3, 0)), ("network_sizes", (1,)), ("network_sizes", (30, 1)),
])
def test_config_refuses_a_node_count_below_2(field, value):
    # the scale-path ones used to run as failed instances, and scale-network
    # raised generate_gabriel's error in the middle of the run
    message = f"{field} must each be >= 2, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(kind="scale-path", **{field: value})


@pytest.mark.parametrize("settings, message", [
    ({"f_lb_start": 0.3}, "f_lb_start must be in (0.5, 1), got 0.3"),
    ({"f_lb_start": float("nan")}, "f_lb_start must be in (0.5, 1), got nan"),
    ({"f_lb_stop": 1.0}, "f_lb_stop must be in (0.5, 1), got 1.0"),
    ({"f_lb_step": float("nan")}, "f_lb_step must be finite and > 0, got nan"),
    ({"f_lb_step": float("inf")}, "f_lb_step must be finite and > 0, got inf"),
    ({"f_lb_step": 0.0}, "f_lb_step must be finite and > 0, got 0.0"),
    ({"f_lb_start": 0.95, "f_lb_stop": 0.9}, "invalid f_lb sweep range: f_lb_stop < f_lb_start"),
], ids=["start-0.3", "start-nan", "stop-1", "step-nan", "step-inf", "step-0", "stop-below-start"])
def test_config_refuses_a_sweep_it_cannot_run(settings, message):
    # a start of 0.3 used to fail every fixture, a NaN step to run one point,
    # and a NaN start to write an empty report that counted no failure
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(kind="sweep-flb", **settings)


@pytest.mark.parametrize("step", [1e-20, 5e-324])
def test_config_refuses_a_sweep_of_more_than_10000_points(step):
    # a step below half an ulp of the start left the summed sweep point where
    # it was, so the run appended to its list forever
    start, stop = 0.51, 0.51 + 9999 * 1e-5
    assert ExperimentConfig(kind="sweep-flb", f_lb_start=start, f_lb_stop=stop, f_lb_step=1e-5)
    with pytest.raises(ValueError, match=r"^f_lb_step must give at most 10000 sweep points, "
                                         r"got 10001$"):
        ExperimentConfig(kind="sweep-flb", f_lb_start=start, f_lb_stop=stop + 1e-5,
                         f_lb_step=1e-5)
    with pytest.raises(ValueError, match=r"^f_lb_step must give at most 10000 sweep points, "
                                         r"got (\d{20}|inf)$"):
        ExperimentConfig(kind="sweep-flb", f_lb_step=step)


@pytest.mark.parametrize("settings, message", [
    ({"n_candidates": "6"}, "n_candidates must be an integer, got '6'"),
    ({"k_keep": True}, "k_keep must be an integer, got True"),
    ({"latency_budget_s": "0.5"}, "latency_budget_s must be a real number, got '0.5'"),
], ids=["n_candidates", "k_keep", "latency_budget_s"])
def test_planner_config_refuses_a_count_or_budget_of_the_wrong_type(settings, message):
    # a string raised a bare TypeError from the range comparison, and True was read as 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PlannerConfig(**settings)


@pytest.mark.parametrize("oracle, bound", [
    (brute_force_oracle, "max_purify_rounds"),
    (oracle_best_single, "max_purify_rounds"),
    (brute_force_oracle, "max_ensembles"),
], ids=["brute-force-rounds", "best-single-rounds", "brute-force-ensembles"])
@pytest.mark.parametrize("value", [True, 1.5, "2"])
def test_oracle_refuses_a_bound_that_is_not_an_integer(oracle, bound, value):
    # True was read as 1, and 1.5 or "2" raised a bare TypeError
    message = f"{bound} must be an integer, got {value!r}"
    with pytest.raises(OracleBoundsError, match=f"^{re.escape(message)}$"):
        oracle(make_chain([50.0]), FidelityGrid.uniform(4), **{bound: value})


@pytest.mark.parametrize("n", [True, 2.5, "3", None])
def test_generate_gabriel_refuses_a_node_count_that_is_not_an_integer(n):
    # True was read as a count of 1, and the others raised a bare TypeError
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
        generate_gabriel(n, 0)


def test_oracle_on_a_demand_with_no_path_exits_2(tmp_path, capsys):
    topo_file = tmp_path / "two-parts.json"
    topo_file.write_text(json.dumps({
        "nodes": ["a", "b", "c", "d"],
        "edges": [{"u": "a", "v": "b", "length_km": 50}, {"u": "c", "v": "d", "length_km": 50}],
    }))
    capsys.readouterr()
    assert main(["oracle", "--topology", str(topo_file), "--demand", "a,c"]) == 2
    assert capsys.readouterr().err == "no path between a and c\n"


def test_benchmark_reads_a_topology_file(tmp_path):
    topo = generate_gabriel(12, 5)
    topo_file = tmp_path / "topo.json"
    topo_file.write_text(json.dumps({
        "nodes": [*map("m{}".format, range(12))],
        "edges": [{"u": "m" + e.u[1:], "v": "m" + e.v[1:], "length_km": e.length_km}
                  for e in topo.edges],
    }))
    reports = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        assert main(["run", "benchmark", "--topology", str(topo_file), "--no-timings",
                     "--seed", "3", "--pairs", "2", "--path-lengths", "3", "--grid-size", "16",
                     "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["config"]["topology_path"] == str(topo_file) and doc["failures"] == 0
    assert doc["rows"] and all(row["s"].startswith("m") and row["d"].startswith("m")
                               for row in doc["rows"])


@pytest.mark.parametrize("settings, message", [
    ({"path_lengths": 5}, "path_lengths must be tuple[int, ...], got 5"),
    ({"grid_sizes": 10}, "grid_sizes must be tuple[int, ...], got 10"),
    ({"strategies": "ec-dp"}, "strategies must be tuple[str, ...], got 'ec-dp'"),
    ({"record_timings": "no"}, "record_timings must be bool, got 'no'"),
    ({"topology_path": 7}, "topology_path must be str | None, got 7"),
], ids=["path_lengths", "grid_sizes", "strategies", "record_timings", "topology_path"])
def test_config_refuses_a_value_not_of_its_declared_type(settings, message):
    # the tuples used to be accepted (run_experiment then raised a bare
    # TypeError) or read by the letter (unknown strategy 'e'), "no" was
    # recorded as true, and 7 was opened as a file descriptor
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(kind="benchmark", **settings)


@pytest.mark.parametrize("settings, message", [
    ({"bbox_km": "5"}, "bbox_km must be a real number, got '5'"),
    ({"distance_range_km": ("a", "b")}, "distance_range_km must be a real number, got 'a'"),
    ({"distance_range_km": (20.0, True)}, "distance_range_km must be a real number, got True"),
    ({"distance_range_km": 50}, "distance_range_km must be a pair (lo, hi), got 50"),
    ({"distance_range_km": (20.0, 50.0, 80.0)},
     "distance_range_km must be a pair (lo, hi), got (20.0, 50.0, 80.0)"),
], ids=["bbox-string", "range-strings", "range-bool", "range-int", "range-triple"])
def test_gabriel_ranges_are_read_as_numbers_before_they_are_compared(settings, message):
    # each used to raise a bare TypeError that named no field
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_gabriel(6, 0, **settings)
    config_message = message
    if settings.get("distance_range_km") == 50:  # the config refuses it by its declared type
        config_message = "distance_range_km must be tuple[float, float], got 50"
    with pytest.raises(ValueError, match=f"^{re.escape(config_message)}$"):
        ExperimentConfig(kind="benchmark", **settings)


@pytest.mark.parametrize("bbox_km", [1e308, 1e-300])
def test_topo_gen_refuses_a_box_qhull_cannot_triangulate(bbox_km, capsys):
    # scipy's QhullError used to escape: exit 1 with a traceback
    message = re.escape(f"bbox_km {bbox_km} is too small or too large: Qhull cannot "
                        "triangulate points in that box (") + r"QH\d+\)"
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_gabriel(20, 7, bbox_km=bbox_km)
    capsys.readouterr()
    assert main(["topo", "gen", "--nodes", "20", "--seed", "7", "--bbox-km", str(bbox_km)]) == 2
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
