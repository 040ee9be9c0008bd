"""Refusals, each reached through the public API or the CLI, with its error
type and its whole message; and the rules each stated once: a path has at
least two nodes, a solve answers or raises, and ``f_lb`` is a real number."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from entflow.capacity import pair_capacity_bounds
from entflow.cli import main
from entflow.experiments import ExperimentConfig
from entflow.hypergraph import FidelityGrid, Hypergraph, HypergraphError, build_pruned_hypergraph
from entflow.lp import (
    LPError,
    LPProblem,
    LPSolveError,
    _simplex_maximize,
    export_lp,
    formulate_lp,
    parse_lp,
    solve_lp,
)
from entflow.orchestrator import CacheError, PlannerConfig, load_cache, outer_loop_update, save_cache
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


def _one_row(objective=1.0, variable=0, rhs=1.0, name="a", num_vars=1) -> LPProblem:
    """The problem max objective r_0, r_variable <= rhs (row ``name``)."""
    return LPProblem(num_vars, [objective], [[(variable, 1.0)]], [rhs], [name])


def _hypergraph_with_limit(limit) -> Hypergraph:
    """A hypergraph read from a document whose link n0|n1 has limit ``limit``."""
    doc = build_pruned_hypergraph(make_chain([50.0, 60.0]), FidelityGrid.uniform(8),
                                  DEFAULT_NOISE).to_json()
    doc["link_limits"]["n0|n1"] = limit
    return Hypergraph.from_json(json.loads(json.dumps(doc)))


def _hypergraph_with_limit_key(key) -> Hypergraph:
    """A pruned build's hypergraph, made again with one more link limit, under ``key``."""
    hg = build_pruned_hypergraph(make_chain([50.0, 60.0]), FidelityGrid.uniform(8),
                                 DEFAULT_NOISE)
    return Hypergraph(hg.columns, hg.grid, hg.noise, {**hg.link_limits, key: 1.0}, hg.builder,
                      hg.purify_model)


def _cache_with_limit(limit):
    """A cache read from a document whose first entry's link a|b has limit ``limit``."""
    cache = outer_loop_update(_TOPOLOGY, [("a", "c")], PlannerConfig(grid=FidelityGrid.uniform(8)))
    doc = json.loads(save_cache(cache))
    doc["entries"][0]["hypergraph"]["link_limits"]["a|b"] = limit
    return load_cache(json.dumps(doc))

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
    "lp-num-vars-bool": (lambda: _one_row(num_vars=True), LPError,
                         "num_vars must be an integer, got True"),
    "lp-objective-string": (lambda: _one_row(objective="2"), LPError,
                            "objective coefficient of r_0 '2' is not a real number"),
    "lp-objective-bool": (lambda: _one_row(objective=True), LPError,
                          "objective coefficient of r_0 True is not a real number"),
    "lp-objective-none": (lambda: _one_row(objective=None), LPError,
                          "objective coefficient of r_0 None is not a real number"),
    "lp-objective-not-a-number": (lambda: _one_row(objective="abc"), LPError,
                                  "objective coefficient of r_0 'abc' is not a real number"),
    "lp-rhs-bool": (lambda: _one_row(rhs=True), LPError, "row a: rhs True is not a real number"),
    "lp-row-name-int": (lambda: _one_row(name=5), LPError,
                        "row_names entry 0: 5 is not a string"),
    # an int no float holds: its repr is not shown, as past 4300 digits it raises
    "lp-objective-10**400": (lambda: _one_row(objective=10**400), LPError,
                             "objective coefficient of r_0 is too large for a float"),
    "lp-rhs-10**400": (lambda: _one_row(rhs=10**400), LPError,
                       "row a: rhs is too large for a float"),
    "lp-term-coefficient-10**400": (lambda: LPProblem(1, [1.0], [[(0, 10**400)]], [1.0], ["a"]),
                                    LPError, "row a: term 0: coefficient is too large for a float"),
    "lp-term-variable-2**64": (lambda: _one_row(variable=2**64), LPError,
                               f"row a: variable r_{2**64} outside [0, 1)"),
    "lp-term-variable--2**64": (lambda: _one_row(variable=-2**64), LPError,
                                f"row a: variable r_{-2**64} outside [0, 1)"),
    "lp-text-name-line-break": (lambda: export_lp(_one_row(name="a\nb")), LPError,
                                "row 0: name 'a\\nb' cannot be written: it would not read back"),
    "lp-text-name-space": (lambda: export_lp(_one_row(name="a ")), LPError,
                           "row 0: name 'a ' cannot be written: it would not read back"),
    "lp-negative-rhs-simplex": (
        lambda: solve_lp(LPProblem(1, [1.0], [[(0, 1.0)]], [-1.0], ["a"]), "simplex"),
        LPError, "tableau simplex requires nonnegative rhs"),
    "lp-unbounded-simplex": (
        lambda: _simplex_maximize(np.ones(1), np.zeros((1, 1)), np.ones(1)),
        LPSolveError, "built-in solver: problem is unbounded"),
    "lp-text-bounds-line": (lambda: parse_lp(_BAD_BOUNDS), LPError,
                            "cannot parse bounds line 'r_0 >= 0'"),
    "hypergraph-limit-true": (lambda: _hypergraph_with_limit(True), HypergraphError,
                              "link 'n0|n1': limit must be a real number, got True"),
    "hypergraph-limit-string": (lambda: _hypergraph_with_limit("5"), HypergraphError,
                                "link 'n0|n1': limit must be a real number, got '5'"),
    "hypergraph-limit-10**400": (lambda: _hypergraph_with_limit(10**400), HypergraphError,
                                 "link 'n0|n1': limit is too large for a float"),
    "hypergraph-limit-key-int": (lambda: _hypergraph_with_limit_key(5), HypergraphError,
                                 "link limit key 5 is not a string"),
    "cache-limit-true": (lambda: _cache_with_limit(True), CacheError,
                         "corrupt cache document: entry ('a', 'c'): link 'a|b': limit must be "
                         "a real number, got True"),
    "cache-limit-string": (lambda: _cache_with_limit("5"), CacheError,
                           "corrupt cache document: entry ('a', 'c'): link 'a|b': limit must be "
                           "a real number, got '5'"),
    "cache-limit-10**400": (lambda: _cache_with_limit(10**400), CacheError,
                            "corrupt cache document: entry ('a', 'c'): link 'a|b': limit is too "
                            "large for a float"),
    "edge-length-10**400": (lambda: Edge("a", "b", 10**400), TopologyValidationError,
                            "edge 'a'-'b': length_km is too large for a float"),
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


@st.composite
def _row_problems(draw) -> tuple:
    """The arguments of a problem built from rows, every entry valid."""
    n = draw(st.integers(1, 4))
    number = st.one_of(st.floats(-10.0, 10.0), st.integers(-10, 10))
    rows = draw(st.lists(st.lists(st.tuples(st.integers(0, n - 1), number), max_size=4),
                         max_size=4))
    m = len(rows)
    return (n, draw(st.lists(number, min_size=n, max_size=n)), rows,
            draw(st.lists(number, min_size=m, max_size=m)),
            draw(st.lists(st.text(max_size=3), min_size=m, max_size=m)),
            draw(st.frozensets(st.integers(0, n - 1))))


# not a real number, or not one a float can hold
_NOT_A_FLOAT = ["2", "abc", True, None, math.nan, math.inf, -math.inf, 10**400]
# per argument, entries it refuses (a forced_zero entry is added)
_BAD_ENTRIES = {
    "objective": _NOT_A_FLOAT, "rhs": _NOT_A_FLOAT, "coefficient": _NOT_A_FLOAT,
    "variable": [1.5, True, "0", None, -1, 4, 2**64, -2**64],
    "row_names": [5, None, b"a", 1.5],
    "forced_zero": [True, 1.5, "0", None, -1, 4],
}


@settings(max_examples=300, deadline=None)
@given(_row_problems(), st.data())
def test_a_bad_entry_is_refused_when_the_problem_is_made_naming_its_argument(args, data):
    n, objective, rows, rhs, names, forced = args
    rows = [list(row) for row in rows]
    targets = ["objective", "forced_zero", *(["rhs", "row_names"] if rows else ()),
               *(["variable", "coefficient"] if any(rows) else ())]
    target = data.draw(st.sampled_from(targets))
    bad = data.draw(st.sampled_from(_BAD_ENTRIES[target]))
    if bad == 4:
        bad = n  # the first variable index out of range
    if target == "objective":
        j = data.draw(st.integers(0, n - 1))
        objective = [*objective[:j], bad, *objective[j + 1:]]
        named = f"objective coefficient of r_{j} "
    elif target == "forced_zero":
        forced = (forced - {bad}) | {bad}  # True replaces 1
        named = "forced_zero "
    elif target in ("rhs", "row_names"):
        i = data.draw(st.integers(0, len(rows) - 1))
        if target == "rhs":
            rhs = [*rhs[:i], bad, *rhs[i + 1:]]
            named = f"row {names[i]}: rhs "
        else:
            names = [*names[:i], bad, *names[i + 1:]]
            named = f"row_names entry {i}: "
    else:
        i = data.draw(st.sampled_from([i for i, row in enumerate(rows) if row]))
        t = data.draw(st.integers(0, len(rows[i]) - 1))
        var, coef = rows[i][t]
        rows[i][t] = (bad, coef) if target == "variable" else (var, bad)
        named = f"row {names[i]}: "
    with pytest.raises(LPError) as info:
        LPProblem(n, objective, rows, rhs, names, forced)
    message = str(info.value)
    assert message.startswith(named), (target, message)
    if target in ("variable", "coefficient"):
        assert target in message.removeprefix(named)


@settings(max_examples=150, deadline=None)
@given(_row_problems(), st.sampled_from(["highs", "simplex", "bogus"]))
def test_a_solve_refuses_no_input_of_a_problem_that_was_made(args, method):
    # a solve checks its answer; of its input only the method name and, for
    # the tableau, a nonnegative rhs
    problem = LPProblem(*args)
    try:
        solve_lp(problem, method)
    except LPSolveError:
        pass
    except LPError as exc:
        if method == "bogus":
            assert str(exc) == "unknown method 'bogus'"
        else:
            assert str(exc) == "tableau simplex requires nonnegative rhs" and method == "simplex"
            assert min(args[3]) < 0
    else:
        assert method != "bogus"


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
