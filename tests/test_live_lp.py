"""The live rate LP: trimmed HiGHS models, their tolerance and their certificate.

A hypergraph's HiGHS model holds only its live edges and the rows they
touch; the live edges must be the ones plain loops over the edge
records find. Its answer must be the optimum of the full problem: within
1e-9 of a full-model solve at 1e-10 primal and dual tolerances, exactly
zero on every dead edge and feasible on the full matrix. A solve runs
primal simplex; when the checks refuse its answer, it runs dual simplex
on the same model, counts the iterations of both runs and returns the
dual answer, or raises the dual run's refusal.
"""

import gc
import math
import re
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import _problem_matrices, edge_records, hypergraphs, make_chain, make_topology
from entflow import lp
from entflow.experiments import ExperimentConfig, Report, run_experiment
from entflow.hypergraph import (
    OP_CODE,
    FidelityGrid,
    Hypergraph,
    build_pruned_hypergraph,
    build_standard_hypergraph,
    synthesize_multipath,
)
from entflow.lp import (
    DUAL_SIMPLEX,
    PRIMAL_SIMPLEX,
    LPProblem,
    LPSolveError,
    _check_solution,
    _compile_highs,
    export_lp,
    formulate_lp,
    solve_lp,
)
from entflow.orchestrator import PlannerConfig, inner_loop_request, outer_loop_update
from entflow.physics import DEFAULT_NOISE, PURIFY_MODELS
from entflow.topology import generate_gabriel
from test_golden_builds import GOLDEN, GOLDEN_STANDARD


def _sweep_flb(fixture: int, f_lb: float) -> Report:
    """rate-lp report of one point of ``run sweep-flb --seed 3`` (6-node
    chains, grid 100): the fixtures are drawn in order, so draw up to it."""
    return run_experiment(ExperimentConfig(
        kind="sweep-flb", seed=3, repetitions=fixture + 1, f_lb_start=f_lb, f_lb_stop=f_lb,
        strategies=("rate-lp",), record_timings=False,
    ))


def _sweep_flb_egr(fixture: int, f_lb: float) -> float:
    rows = _sweep_flb(fixture, f_lb).rows
    return next(row["egr"] for row in rows if row["fixture"] == fixture)


@pytest.mark.parametrize("fixture,f_lb,optimum", [
    (2, 0.98, 0.006688033891220213),  # 0.0066787 (1.4e-3 short) at the 1e-7 default
    (0, 0.975, 0.0417392585193229),
])
def test_sweep_flb_points_reach_the_full_model_optimum(fixture, f_lb, optimum):
    assert _sweep_flb_egr(fixture, f_lb) == pytest.approx(optimum, rel=1e-9)


def test_the_default_dual_tolerance_fails_the_certificate(monkeypatch, caplog):
    monkeypatch.setitem(lp._HIGHS_OPTIONS, "dual_feasibility_tolerance", 1e-7)
    report = _sweep_flb(0, 0.975)
    # the refused fixture is counted and logged, and gives no rows
    assert (report.failures, report.rows) == (1, [])
    [message] = [r.getMessage() for r in caplog.records if r.name == "entflow.experiments"]
    assert re.match(r"sweep-flb fixture 0 failed: LPSolveError: not optimal: the gap bound "
                    r".* edge r_\d+ has", message)


def _full_optimum(problem):
    """The objective of the whole problem at 1e-10 primal and dual tolerances."""
    c, a = _problem_matrices(problem)
    res = linprog(-c, A_ub=a, b_ub=problem.rhs, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return -res.fun


def _live_reference(hg):
    """The live edges by plain loops over the edge records."""
    edges = edge_records(hg)
    made, grew = {0}, True
    while grew:
        new = {e.output for e in edges if made.issuperset(e.inputs)} - made
        made, grew = made | new, bool(new)
    ready = [made.issuperset(e.inputs) for e in edges]
    wanted, grew = {1}, True
    while grew:
        new = {v for e, r in zip(edges, ready) if r and e.output in wanted
               for v in e.inputs} - wanted
        wanted, grew = wanted | new, bool(new)
    return [i for i, (e, r) in enumerate(zip(edges, ready)) if r and e.output in wanted]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["pruned", "standard"]),
    st.lists(st.floats(min_value=20.0, max_value=150.0), min_size=1, max_size=4),
    st.integers(min_value=2, max_value=30),
    st.sampled_from(PURIFY_MODELS),
    st.one_of(st.none(), st.floats(min_value=0.5, max_value=1.0)),
)
def test_live_answer_is_the_full_optimum(builder, lengths_km, size, model, f_lb):
    if builder == "standard":
        lengths_km, size = lengths_km[:3], min(size, 12)
    build = build_pruned_hypergraph if builder == "pruned" else build_standard_hypergraph
    hg = build(make_chain(lengths_km), FidelityGrid.uniform(size), DEFAULT_NOISE, model)
    problem = (formulate_lp(hg, "ensemble-capacity") if f_lb is None
               else formulate_lp(hg, "end-rate", f_lb))
    assert hg.rate_lp.live.tolist() == _live_reference(hg)
    solution = solve_lp(problem)
    assert solution.method == "highs"
    assert solution.objective_value == pytest.approx(_full_optimum(problem), rel=1e-9, abs=1e-15)
    dead = np.ones(problem.num_vars, bool)
    dead[hg.rate_lp.live] = False
    assert np.all(solution.rates[dead] == 0.0)
    x = solution.rates
    assert np.all(x >= 0.0)
    assert np.all(problem.matrix @ x <= problem.rhs + 1e-9 * max(1.0, float(problem.rhs.max())))


# --- only the live part is assembled ------------------------------------------


def _whole_matrix(hg):
    """The constraint matrix, assembled from the edge records by loops: 1 in
    the flow row of each input, minus the credit in the output's and 1 in a
    start edge's link row, summed and sorted by the (data, ij) constructor."""
    flow_rows = len(hg.columns.exact_fidelity) - 2
    link = {key: i for i, key in enumerate(hg.link_keys)}
    terms, edges = [], edge_records(hg)
    for j, e in enumerate(edges):
        terms += [(vi - 2, j, 1.0) for vi in e.inputs if vi >= 2]
        if e.output >= 2:
            terms.append((e.output - 2, j, -(0.5 * e.p_succ if e.op == "purify" else 1.0)))
        if e.op == "start":
            terms.append((flow_rows + link[e.link_key], j, 1.0))
    row, col, data = np.array(terms, dtype=float).reshape(-1, 3).T
    return sp.csr_matrix((data, (row.astype(np.int64), col.astype(np.int64))),
                         shape=(flow_rows + len(hg.link_keys), len(edges)))


def _assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist(), name


def _assert_live_part_is_the_restricted_matrix(hg):
    """``hg.rate_lp``'s live columns, live rows, part and compiled HiGHS
    arrays equal those of the whole matrix restricted to the live edges."""
    base, matrix = hg.rate_lp, _whole_matrix(hg)
    live = np.array(_live_reference(hg), np.int64)
    live_rows = np.unique(matrix.tocsc()[:, live].indices)
    assert (base.live.tolist(), base.live_rows.tolist()) == (live.tolist(), live_rows.tolist())
    part = matrix[live_rows][:, live]
    _assert_same_csr(base.part, part)
    limits = [hg.link_limits[k] for k in hg.link_keys]
    rhs = np.concatenate([np.zeros(matrix.shape[0] - len(limits)), limits])
    assert base.rhs.tolist() == rhs.tolist()
    ours = _compile_highs(base.part, base.rhs[base.live_rows])  # as a HiGHS solve compiles it
    theirs = _compile_highs(part, rhs[live_rows])
    for name in ("start_", "index_", "value_"):
        assert getattr(ours.a_matrix_, name) == getattr(theirs.a_matrix_, name), name
    assert ours.row_upper_ == theirs.row_upper_
    assert base._matrix is None  # nothing above read the whole matrix
    _assert_same_csr(base.matrix, matrix)
    assert base.matrix is base.matrix


@settings(max_examples=40, deadline=None)
@given(hypergraphs())
def test_the_live_part_is_the_whole_matrix_restricted_to_the_live_edges(hg):
    _assert_live_part_is_the_restricted_matrix(hg)


@pytest.mark.parametrize("builder, seed, nodes, model, size", [
    *(("pruned", *key) for key in sorted(GOLDEN)),
    *(("standard", *key) for key in sorted(GOLDEN_STANDARD)),
])
def test_the_live_part_of_golden_builds(builder, seed, nodes, model, size):
    # the chains of the golden digests
    lengths = np.random.default_rng(seed).uniform(20.0, 150.0, size=nodes - 1)
    build = build_pruned_hypergraph if builder == "pruned" else build_standard_hypergraph
    hg = build(make_chain(lengths, name=f"g{seed}_"), FidelityGrid.uniform(size), DEFAULT_NOISE,
               model)
    _assert_live_part_is_the_restricted_matrix(hg)


def test_the_live_part_of_the_golden_synthesis():
    topo = make_topology([("s", "a", 40.0), ("a", "d", 50.0), ("a", "b", 30.0),
                          ("b", "d", 35.0), ("s", "c", 60.0), ("c", "d", 45.0)])
    grid = FidelityGrid.uniform(60)
    paths = [["s", "a", "d"], ["s", "a", "b", "d"], ["s", "c", "d"]]
    _assert_live_part_is_the_restricted_matrix(synthesize_multipath([
        build_pruned_hypergraph(topo.path_from_nodes(p), grid, DEFAULT_NOISE) for p in paths
    ]))


def test_a_graph_with_nothing_live_formulates_and_solves_to_zero():
    hg = build_standard_hypergraph(make_chain([60.0, 80.0]), FidelityGrid.uniform(6),
                                   DEFAULT_NOISE)
    cols = hg.columns
    keep = cols.op != OP_CODE["end"]  # nothing reaches the sink
    cut = replace(cols, **{name: getattr(cols, name)[keep]
                           for name in ("op", "input0", "input1", "output", "rate_bound")})
    hg = Hypergraph(cut, hg.grid, hg.noise, hg.link_limits, hg.builder, hg.purify_model)
    _assert_live_part_is_the_restricted_matrix(hg)
    assert hg.rate_lp.part.shape == (0, 0)
    for problem in (formulate_lp(hg, "ensemble-capacity"), formulate_lp(hg, "end-rate", 0.5)):
        solution = solve_lp(problem)
        assert problem.num_vars == len(cut.op) > 0
        assert (solution.objective_value, solution.rates.tolist()) == (0.0, [0.0] * len(cut.op))
        assert export_lp(problem).startswith("maximize\n obj: 0\nsubject to\n")


def test_a_highs_solve_reads_only_the_live_part():
    hg = build_standard_hypergraph(make_chain([60.0, 80.0]), FidelityGrid.uniform(12),
                                   DEFAULT_NOISE)
    for problem in (formulate_lp(hg, "ensemble-capacity"), formulate_lp(hg, "end-rate", 0.6)):
        assert solve_lp(problem).objective_value > 0.0
    assert hg.rate_lp._matrix is None
    assert problem.matrix is hg.rate_lp.matrix is hg.rate_lp._matrix


def test_concurrent_first_reads_share_one_whole_matrix(monkeypatch):
    built = []
    terms = lp._terms

    def counting(*args):
        if isinstance(args[-1], slice):  # the whole matrix, not the live part
            built.append(1)
        return terms(*args)

    monkeypatch.setattr(lp, "_terms", counting)
    hg = build_standard_hypergraph(make_chain([60.0, 80.0]), FidelityGrid.uniform(12),
                                   DEFAULT_NOISE)
    problems = [formulate_lp(hg, "ensemble-capacity") for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            matrices = list(pool.map(lambda problem: problem.matrix, problems, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 1
    assert all(matrix is hg.rate_lp.matrix for matrix in matrices)


def test_a_solved_hypergraph_is_freed_by_reference_counting():
    # a RateLP that held its hypergraph, for example in the builder of its
    # whole matrix, would keep every graph alive until a cyclic collection
    gc.disable()
    try:
        hg = build_standard_hypergraph(make_chain([60.0, 80.0]), FidelityGrid.uniform(12),
                                       DEFAULT_NOISE)
        problem = formulate_lp(hg, "ensemble-capacity")
        assert solve_lp(problem).objective_value > 0.0
        assert problem.matrix.shape == (problem.num_rows, problem.num_vars)
        graph, base = weakref.ref(hg), weakref.ref(hg.rate_lp)
        del hg, problem
        assert graph() is None and base() is None
    finally:
        gc.enable()


# --- the feasibility check of an answer zero off the live columns --------------


def _refusal(problem, x):
    with pytest.raises(LPSolveError) as exc:
        _check_solution(problem, x)
    return str(exc.value)


def _as_rows(problem):
    """The problem built from its rows: no live part, so its check reads the whole matrix."""
    return LPProblem(problem.num_vars, problem.objective, problem.rows, problem.rhs,
                     problem.row_names, problem.forced_zero)


def _lattice_problem():
    hg = build_standard_hypergraph(make_chain([60.0, 80.0]), FidelityGrid.uniform(12),
                                   DEFAULT_NOISE)
    return hg, formulate_lp(hg, "ensemble-capacity")


def test_rate_on_a_dead_edge_is_refused_naming_the_edge():
    hg, problem = _lattice_problem()
    base, cols = hg.rate_lp, hg.columns
    x = solve_lp(problem).rates
    # a dead swap that draws on a vertex whose row no live edge touches
    dead = np.setdiff1d(np.flatnonzero(cols.op == OP_CODE["swap"]), base.live)
    e = next(e for e in dead.tolist() if cols.input0[e] - 2 not in base.live_rows)
    x[e] = 1.0
    assert _refusal(problem, x) == (f"rate 1.0 for r_{e} in solution, an edge that can carry "
                                    "no flow to the sink")
    assert base._matrix is None  # refused without the whole matrix


def test_a_live_row_violation_names_the_row_and_numbers_of_the_whole_check():
    hg, problem = _lattice_problem()
    base = hg.rate_lp
    start = next(j for j in base.live.tolist() if hg.link[j] >= 0)
    key = hg.link_keys[hg.link[start]]
    limit = hg.link_limits[key]
    x = np.zeros(problem.num_vars)
    x[start] = 2.0 * limit  # its start row goes down, its link row over by the limit
    message = _refusal(problem, x)
    assert base._matrix is None  # the live rows were enough
    assert message == (f"constraint violated: row l_{key} has lhs {2.0 * limit!r} > limit "
                       f"{limit!r} (by {limit:.3e})")
    assert message == _refusal(_as_rows(problem), x)
    for seed in range(5):
        x = np.zeros(problem.num_vars)
        x[base.live] = np.random.default_rng(seed).uniform(0.0, base.rate_cap, len(base.live))
        assert _refusal(problem, x) == _refusal(_as_rows(problem), x)


@pytest.mark.parametrize("bad", ["nan", "negative", "row"])
def test_a_bad_live_rate_from_highs_is_refused_naming_its_global_column(monkeypatch, bad):
    hg, problem = _lattice_problem()
    base, cols = hg.rate_lp, hg.columns
    # a live swap, at a place in the live columns other than its own index
    j, e = next((j, e) for j, e in enumerate(base.live.tolist())
                if cols.op[e] == OP_CODE["swap"] and j != e)
    value = {"nan": math.nan, "negative": -1.0, "row": 1.0}[bad]
    answers = []
    solve_highs = lp.RateLP.solve_highs

    def corrupting(self, cost, upper, strategy=PRIMAL_SIMPLEX):
        x, y, iterations = solve_highs(self, cost, upper, strategy)
        assert len(cost) == len(x) == len(base.live)  # the solve hands over the live columns
        x[:] = 0.0
        x[j] = value  # alone, it draws its value from both input rows, which nothing feeds
        answers.append(x.copy())
        return x, y, iterations

    monkeypatch.setattr(lp.RateLP, "solve_highs", corrupting)
    with pytest.raises(LPSolveError) as exc:
        solve_lp(problem)
    assert len(answers) == 2  # primal refused, then dual
    assert base._matrix is None  # checked on the live part only
    row = min(cols.input0[e], cols.input1[e])  # of two equal violations, the first row
    assert str(exc.value) == {
        "nan": f"non-finite rate nan for r_{e} in solution",
        "negative": f"negative rate -1.000e+00 for r_{e} in solution",
        "row": f"constraint violated: row v_{row} has lhs 1.0 > limit 0.0 (by 1.000e+00)",
    }[bad]
    whole = np.zeros(problem.num_vars)
    whole[base.live] = answers[-1]
    assert str(exc.value) == _refusal(_as_rows(problem), whole)  # as the whole-matrix check says


def test_row_built_problems_keep_every_column_and_skip_the_certificate():
    # r_1 feeds nothing the objective reads, so a hypergraph would drop it
    problem = LPProblem(num_vars=2, objective=np.array([1.0, 0.0]),
                        rows=[[(0, 1.0), (1, 1.0)]], rhs=np.array([4.0]), row_names=["cap"])
    base = problem._base  # its live part is all of it
    assert (base.live.tolist(), base.live_rows.tolist(), base.rate_cap) == ([0, 1], [0], None)
    solution = solve_lp(problem)
    assert (solution.method, solution.objective_value) == ("highs", 4.0)


def test_auto_runs_highs_on_small_problems_too():
    hg = build_pruned_hypergraph(make_chain([60.0]), FidelityGrid.uniform(4), DEFAULT_NOISE)
    assert formulate_lp(hg, "ensemble-capacity").num_vars < 20
    assert solve_lp(formulate_lp(hg, "ensemble-capacity")).method == "highs"


# --- primal first, dual when the checks refuse --------------------------------


@pytest.fixture
def highs_runs(monkeypatch):
    """Every HiGHS run of the test, as (strategy, iterations)."""
    runs = []
    solve_highs = lp.RateLP.solve_highs

    def recording(self, cost, upper, strategy=PRIMAL_SIMPLEX):
        x, y, iterations = solve_highs(self, cost, upper, strategy)
        runs.append((strategy, iterations))
        return x, y, iterations

    monkeypatch.setattr(lp.RateLP, "solve_highs", recording)
    return runs


def _dual_only(problem):
    """The objective and rates of one dual simplex run, as a solve returns them."""
    forced = lp._forced_mask(problem)
    c, live = np.where(forced, 0.0, problem.objective), problem._base.live
    x = np.zeros(problem.num_vars)
    x[live], _, _ = problem._base.solve_highs(-c[live], np.where(forced, 0.0, np.inf)[live],
                                              DUAL_SIMPLEX)
    objective = float(c @ x)
    x[forced] = 0.0
    return objective, x


def _scale_network_entry():
    """The cache of ``run scale-network --seed 3``'s 100-node network for its
    demand n93 -> n24, whose primal answer fails the certificate: a gap bound
    of 2.6e-10 from a reduced cost of 4.1e-15 times a rate cap of 62,262."""
    config = ExperimentConfig(kind="scale-network", seed=3)
    topo = generate_gabriel(100, 3, bbox_km=config.bbox_km,
                            distance_range_km=config.distance_range_km, f0=config.noise.f0)
    planner = PlannerConfig(grid=FidelityGrid.uniform(config.grid_size), noise=config.noise,
                            purify_model=config.purify_model)
    return outer_loop_update(topo, [("n93", "n24")], planner)


def test_a_refused_primal_answer_is_replaced_by_the_dual_one(highs_runs):
    cache = _scale_network_entry()
    assert inner_loop_request(cache, "n93", "n24").scheme.capacity > 0.0
    assert [strategy for strategy, _ in highs_runs] == [PRIMAL_SIMPLEX, DUAL_SIMPLEX]
    problem = formulate_lp(cache.entries[("n93", "n24")].hypergraph, "ensemble-capacity")
    del highs_runs[:]
    solution = solve_lp(problem)
    assert [strategy for strategy, _ in highs_runs] == [PRIMAL_SIMPLEX, DUAL_SIMPLEX]
    assert solution.iterations == sum(iterations for _, iterations in highs_runs)
    objective, rates = _dual_only(problem)
    assert np.float64(solution.objective_value).tobytes() == np.float64(objective).tobytes()
    assert solution.rates.tobytes() == rates.tobytes()


def _small_problem():
    hg = build_pruned_hypergraph(make_chain([60.0, 70.0, 80.0]), FidelityGrid.uniform(24),
                                 DEFAULT_NOISE)
    return formulate_lp(hg, "end-rate", 0.9)


def test_a_refusal_of_the_primal_answer_runs_dual_once(monkeypatch, highs_runs):
    check = lp._check_optimality

    def refuse_the_first_answer(*args):
        if len(highs_runs) == 1:
            raise LPSolveError("not optimal: refused")
        check(*args)

    monkeypatch.setattr(lp, "_check_optimality", refuse_the_first_answer)
    problem = _small_problem()
    solution = solve_lp(problem)
    assert [strategy for strategy, _ in highs_runs] == [PRIMAL_SIMPLEX, DUAL_SIMPLEX]
    assert solution.iterations == sum(iterations for _, iterations in highs_runs)
    objective, rates = _dual_only(problem)
    assert (solution.objective_value, solution.rates.tobytes()) == (objective, rates.tobytes())


def test_when_both_answers_are_refused_the_dual_refusal_is_raised(monkeypatch, highs_runs):
    def refuse(*args):
        raise LPSolveError(f"not optimal: refusal {len(highs_runs)}")

    monkeypatch.setattr(lp, "_check_optimality", refuse)
    with pytest.raises(LPSolveError, match="^not optimal: refusal 2$"):
        solve_lp(_small_problem())
    assert [strategy for strategy, _ in highs_runs] == [PRIMAL_SIMPLEX, DUAL_SIMPLEX]
