"""The direct HiGHS backend against the linprog call it replaced.

``solve_lp(method="highs")`` runs one compiled HiGHS model per
hypergraph, on its live columns and the rows they touch. The references
below are ``scipy.optimize.linprog`` on the objective and matrix with
the forced-zero variables dropped: on the whole problem, or on the same
live part at the solve's dual tolerance, both with primal simplex, which
a solve runs first. Rates must match bit for bit, and objective,
iteration count and status exactly.
"""

import random
import re
import sys
import threading
import types

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning, linprog

from conftest import make_chain, make_topology
from entflow import lp
from entflow.hypergraph import (
    OP_CODE,
    FidelityGrid,
    build_pruned_hypergraph,
    build_standard_hypergraph,
    synthesize_multipath,
)
from entflow.lp import (
    EMPTY_SCHEME,
    LPError,
    LPProblem,
    LPSolveError,
    RateLP,
    _problem_matrices,
    export_lp,
    extract_scheme,
    formulate_lp,
    parse_lp,
    solve_lp,
)
from entflow.physics import DEFAULT_NOISE, PURIFY_MODELS


def _linprog(*args, options=None, **kw):
    """``linprog`` with HiGHS's primal simplex (``simplex_strategy`` 4), the
    strategy a solve runs first. scipy does not know the option and hands
    it to HiGHS verbatim, with a warning that says so."""
    options = {**(options or {}), "simplex_strategy": 4}
    with pytest.warns(OptimizeWarning, match=r"'simplex_strategy': 4\}\. .* HiGHS verbatim"):
        return linprog(*args, method="highs", options=options, **kw)


def _linprog_answer(problem):
    """(status, objective, rates, iterations) as the linprog path gave them."""
    c, a = _problem_matrices(problem)
    res = _linprog(-c, A_ub=a, b_ub=problem.rhs, bounds=(0, None))
    assert res.status == 0, res.message
    x = res.x.copy()
    x[list(problem.forced_zero)] = 0.0
    return "optimal", float(c @ res.x), x, int(res.nit)


def _live_answer(problem):
    """The linprog answer on the live part of a hypergraph's model, at the
    dual tolerance of the direct solve, with exact zeros off it."""
    base = problem._base
    c, a = _problem_matrices(problem)
    tolerance = lp._HIGHS_OPTIONS["dual_feasibility_tolerance"]
    res = _linprog(-c[base.live], A_ub=a[base.live_rows][:, base.live],
                   b_ub=problem.rhs[base.live_rows], bounds=(0, None),
                   options={"dual_feasibility_tolerance": tolerance})
    assert res.status == 0, res.message
    x = np.zeros(problem.num_vars)
    x[base.live] = res.x
    x[list(problem.forced_zero)] = 0.0
    return "optimal", float(c @ x), x, int(res.nit)


def _answer(solution):
    return solution.status, solution.objective_value, solution.rates, solution.iterations


def _assert_same(got, want):
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2].dtype == want[2].dtype and got[2].tobytes() == want[2].tobytes()
    assert got[3] == want[3]


def _assert_matches_linprog(problem):
    solution = solve_lp(problem, method="highs")
    assert solution.method == "highs"
    _assert_same(_answer(solution), _linprog_answer(problem))
    return solution


def _assert_matches_live_linprog(problem):
    solution = solve_lp(problem, method="highs")
    assert solution.method == "highs"
    _assert_same(_answer(solution), _live_answer(problem))


lengths = st.lists(st.floats(min_value=20.0, max_value=150.0), min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(
    lengths,
    st.integers(min_value=2, max_value=40),
    st.sampled_from(PURIFY_MODELS),
    st.floats(min_value=0.5, max_value=1.0),
)
def test_pruned_chains_match_linprog(lengths_km, size, model, f_lb):
    hg = build_pruned_hypergraph(make_chain(lengths_km), FidelityGrid.uniform(size),
                                 DEFAULT_NOISE, model)
    _assert_matches_live_linprog(formulate_lp(hg, "ensemble-capacity"))
    _assert_matches_live_linprog(formulate_lp(hg, "end-rate", f_lb))


@pytest.mark.parametrize("lengths_km,size", [([60.0, 80.0], 8), ([50.0, 60.0, 70.0], 12)])
def test_standard_lattices_match_linprog(lengths_km, size):
    hg = build_standard_hypergraph(make_chain(lengths_km), FidelityGrid.uniform(size),
                                   DEFAULT_NOISE)
    _assert_matches_live_linprog(formulate_lp(hg, "ensemble-capacity"))
    for f_lb in (0.5, 0.85, 0.93):
        _assert_matches_live_linprog(formulate_lp(hg, "end-rate", f_lb))


def _multipath():
    topo = make_topology([("s", "a", 40.0), ("a", "d", 50.0), ("a", "b", 30.0),
                          ("b", "d", 35.0), ("s", "c", 60.0), ("c", "d", 45.0)])
    grid = FidelityGrid.uniform(16)
    paths = [["s", "a", "d"], ["s", "a", "b", "d"], ["s", "c", "d"]]
    return synthesize_multipath([
        build_pruned_hypergraph(topo.path_from_nodes(p), grid, DEFAULT_NOISE) for p in paths
    ])


def test_synthesized_multipath_matches_linprog():
    hg = _multipath()
    assert len(hg.link_limits) == 6  # link s-a is shared by two paths
    assert _assert_matches_linprog(formulate_lp(hg, "ensemble-capacity")).objective_value > 0.0
    for f_lb in (0.7, 0.9):
        _assert_matches_linprog(formulate_lp(hg, "end-rate", f_lb))


def test_parsed_problem_matches_linprog():
    hg = build_standard_hypergraph(make_chain([60.0, 60.0]), FidelityGrid.uniform(10),
                                   DEFAULT_NOISE)
    clone = parse_lp(export_lp(formulate_lp(hg, "end-rate", f_lb=0.87)))
    assert clone.forced_zero
    _assert_matches_linprog(clone)


def test_no_solver_state_leaks_between_points():
    # the hypergraph's cached model, f_lb points in shuffled order, each
    # against a fresh model of the same live part: no solve changes the
    # cached model
    hg = build_standard_hypergraph(make_chain([50.0, 70.0, 60.0]), FidelityGrid.uniform(14),
                                   DEFAULT_NOISE)
    points = [0.5, 0.8, 0.85, 0.88, 0.91, 0.94, 0.97]
    random.Random(3).shuffle(points)
    problems = [formulate_lp(hg, "ensemble-capacity")]
    problems += [formulate_lp(hg, "end-rate", f_lb) for f_lb in points]
    for problem in problems + problems[::-1]:
        assert problem._base is hg.rate_lp
        cached = solve_lp(problem, method="highs")
        fresh = solve_lp(LPProblem._sharing(RateLP.of(hg), problem.objective,
                                            problem.forced_zero), method="highs")
        _assert_same(_answer(cached), _answer(fresh))


def test_threads_sharing_one_model_get_the_serial_answers():
    path, grid = make_chain([60.0, 70.0, 80.0]), FidelityGrid.uniform(24)
    points = [0.82, 0.86, 0.9, 0.94, 0.97]
    serial_hg = build_pruned_hypergraph(path, grid, DEFAULT_NOISE)
    serial = [_answer(solve_lp(formulate_lp(serial_hg, "end-rate", f), method="highs"))
              for f in points]
    hg = build_pruned_hypergraph(path, grid, DEFAULT_NOISE)
    errors: list[BaseException] = []
    answers: list[list] = [[], []]

    def solve(slot: int) -> None:
        try:
            for i in range(50):
                k = (i + 2 * slot) % len(points)  # the two threads ask for different points
                problem = formulate_lp(hg, "end-rate", points[k])
                answers[slot].append((k, _answer(solve_lp(problem, method="highs"))))
        except BaseException as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=solve, args=(slot,)) for slot in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads between the model's calls
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [len(a) for a in answers] == [50, 50]
    for k, got in answers[0] + answers[1]:
        _assert_same(got, serial[k])


# --- edge cases --------------------------------------------------------------


@pytest.fixture(params=["direct"])
def backend(request):
    """The HiGHS path under test: the direct bindings, the only one."""
    return request.param


def _problem(num_vars, objective, rows, rhs, names, **kw):
    return LPProblem(
        num_vars=num_vars, objective=np.asarray(objective, dtype=float),
        rows=rows, rhs=np.asarray(rhs, dtype=float), row_names=names, **kw,
    )


def test_zero_rows_with_a_positive_objective_is_unbounded(backend):
    with pytest.raises(LPSolveError, match="^HiGHS: problem is unbounded$"):
        solve_lp(_problem(2, [1.0, 0.0], [], [], []), method="highs")


def test_negative_rhs_is_infeasible(backend):
    with pytest.raises(LPSolveError, match="^HiGHS: problem is infeasible$"):
        solve_lp(_problem(1, [1.0], [[(0, 1.0)]], [-1.0], ["r"]), method="highs")


def test_every_end_edge_forced_to_zero(backend):
    hg = build_pruned_hypergraph(make_chain([70.0, 70.0]), FidelityGrid.uniform(10),
                                 DEFAULT_NOISE)
    problem = formulate_lp(hg, "end-rate", f_lb=1.0)
    assert problem.forced_zero == set(np.flatnonzero(hg.columns.op == OP_CODE["end"]).tolist())
    solution = solve_lp(problem, method="highs")
    assert solution.objective_value == 0.0
    assert extract_scheme(hg, solution) == EMPTY_SCHEME


def test_infinite_objective_coefficient_is_rejected(backend):
    problem = _problem(2, [1.0, np.inf], [[(0, 1.0), (1, 1.0)]], [1.0], ["cap"])
    for method in ("highs", "simplex"):  # the same refusal from either solver
        with pytest.raises(LPError, match="^objective coefficient of r_1 is not finite$"):
            solve_lp(problem, method=method)


def test_infinite_rhs_is_rejected(backend):
    problem = _problem(1, [1.0], [[(0, 1.0)], [(0, 2.0)]], [1.0, np.inf], ["a", "b"])
    for method in ("highs", "simplex"):
        with pytest.raises(LPError, match="^row b: rhs is not finite$"):
            solve_lp(problem, method=method)


def test_no_variables(backend):
    solution = solve_lp(_problem(0, [], [], [], []), method="highs")
    assert (solution.status, solution.objective_value, len(solution.rates)) == ("optimal", 0.0, 0)


def test_formulated_problems_share_the_hypergraphs_rate_lp():
    hg = build_pruned_hypergraph(make_chain([60.0, 70.0]), FidelityGrid.uniform(12),
                                 DEFAULT_NOISE)
    for problem in (formulate_lp(hg, "ensemble-capacity"), formulate_lp(hg, "end-rate", 0.9)):
        assert problem._base is hg.rate_lp
        assert problem.matrix is hg.rate_lp.matrix
        assert problem.rhs is hg.rate_lp.rhs
        assert problem.row_names == list(hg.rate_lp.row_names)


def test_row_built_problem_compiles_one_model(monkeypatch):
    compiled = []

    def counting_compile(*args):
        compiled.append(1)
        return compile_highs(*args)

    compile_highs = lp._compile_highs
    monkeypatch.setattr(lp, "_compile_highs", counting_compile)
    problem = _problem(2, [1.0, 2.0], [[(0, 1.0), (1, 1.0)], [(1, 3.0)]], [4.0, 3.0], ["a", "b"])
    first, second = (solve_lp(problem, method="highs") for _ in range(2))
    _assert_same(_answer(first), _answer(second))
    _assert_same(_answer(first), _linprog_answer(problem))
    assert len(compiled) == 1


def test_binding_check_names_what_is_missing(monkeypatch):
    _highspy = pytest.importorskip("scipy.optimize._highspy")
    assert lp._highs_bindings() is lp._HIGHS is _highspy._core
    version = re.escape(scipy.__version__)
    # a module without the classes and methods the solve calls
    monkeypatch.setattr(_highspy, "_core", types.SimpleNamespace(_Highs=object))
    with pytest.raises(ImportError, match=f"^scipy {version} lacks _highspy._core.HighsLp,"):
        lp._highs_bindings()
    core = types.SimpleNamespace(**{name: object for name in (
        "_Highs", "HighsLp", "MatrixFormat", "HighsModelStatus", "HighsStatus")})
    monkeypatch.setattr(_highspy, "_core", core)
    with pytest.raises(ImportError, match=r"lacks _highspy._core._Highs.setOptionValue,"):
        lp._highs_bindings()
    # no module at all
    monkeypatch.delattr(_highspy, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(ImportError, match=r"lacks scipy.optimize._highspy._core,"):
        lp._highs_bindings()
