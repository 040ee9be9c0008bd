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

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import make_chain
from entflow import lp
from entflow.experiments import ExperimentConfig, Report, run_experiment
from entflow.hypergraph import FidelityGrid, build_pruned_hypergraph, build_standard_hypergraph
from entflow.lp import (
    DUAL_SIMPLEX,
    PRIMAL_SIMPLEX,
    LPProblem,
    LPSolveError,
    _problem_matrices,
    formulate_lp,
    solve_lp,
)
from entflow.orchestrator import PlannerConfig, inner_loop_request, outer_loop_update
from entflow.physics import DEFAULT_NOISE, PURIFY_MODELS
from entflow.topology import generate_gabriel


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
    made, grew = {0}, True
    while grew:
        new = {e.output for e in hg.edges if made.issuperset(e.inputs)} - made
        made, grew = made | new, bool(new)
    ready = [made.issuperset(e.inputs) for e in hg.edges]
    wanted, grew = {1}, True
    while grew:
        new = {v for e, r in zip(hg.edges, ready) if r and e.output in wanted
               for v in e.inputs} - wanted
        wanted, grew = wanted | new, bool(new)
    return [i for i, (e, r) in enumerate(zip(hg.edges, ready)) if r and e.output in wanted]


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


def test_row_built_problems_keep_every_column_and_skip_the_certificate():
    # r_1 feeds nothing the objective reads, so a hypergraph would drop it
    problem = LPProblem(num_vars=2, objective=np.array([1.0, 0.0]),
                        rows=[[(0, 1.0), (1, 1.0)]], rhs=np.array([4.0]), row_names=["cap"])
    assert problem._base.live is None and problem._base.rate_cap is None
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
    c = np.where(forced, 0.0, problem.objective)
    x, _, _ = problem._base.solve_highs(-c, np.where(forced, 0.0, np.inf), DUAL_SIMPLEX)
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
