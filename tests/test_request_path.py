"""The per-request steps of a rate-LP answer against the steps they replaced.

The references below copy the steps a request took before each solving
thread kept one HiGHS solver and each rate LP kept the presolve of an
objective it solves repeatedly: a new solver per solve, given the
options, the compiled model and every column's cost and bounds, run with
presolve and dropped; an objective and forced set computed over the
whole edge table; and each vertex's producer picked by a max over its
list of producers. The kept-solver and kept-presolve paths must give the
same rates, row prices and iteration counts, and the same objectives,
forced sets and schemes, bit for bit.
"""

import gc
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hypergraphs, make_chain
from entflow import lp
from entflow.hypergraph import (
    OP_CODE,
    OP_NAMES,
    FidelityGrid,
    Hypergraph,
    build_pruned_hypergraph,
    build_standard_hypergraph,
)
from entflow.lp import (
    DUAL_SIMPLEX,
    PRIMAL_SIMPLEX,
    RATE_EPS,
    DistributionScheme,
    LPError,
    LPProblem,
    LPSolution,
    LPSolveError,
    ProtocolFlow,
    _compile_highs,
    _forced_mask,
    extract_scheme,
    formulate_lp,
    solve_lp,
)
from entflow.physics import DEFAULT_NOISE

# --- reference: a fresh solver per solve, every column sent --------------------


def _fresh_solve(base, cost, upper, strategy=PRIMAL_SIMPLEX):
    n, y = len(cost), np.zeros(base.shape[0])
    if n == 0:
        return np.zeros(0), y, 0
    solver = lp._HIGHS._Highs()
    for key, value in lp._HIGHS_OPTIONS.items():
        solver.setOptionValue(key, value)
    solver.setOptionValue("simplex_strategy", strategy)
    assert solver.passModel(_compile_highs(base.part, base.rhs[base.live_rows])) != \
        lp._HIGHS.HighsStatus.kError
    index = np.arange(n, dtype=np.int32)
    solver.changeColsCost(n, index, cost)
    solver.changeColsBounds(n, index, np.zeros(n), upper)
    solver.run()
    assert solver.getModelStatus() == lp._HIGHS.HighsModelStatus.kOptimal
    info = solver.getInfo()
    iterations = int(info.simplex_iteration_count or info.ipm_iteration_count)
    solution = solver.getSolution()
    y[base.live_rows] = np.maximum(0.0, -np.fromiter(solution.row_dual, np.float64))
    return np.fromiter(solution.col_value, np.float64, n), y, iterations


def _costs(problem):
    """The cost and upper bounds ``solve_lp`` gives ``RateLP.solve_highs``."""
    live = problem._base.live
    fixed = _forced_mask(problem)[live]
    return -np.where(fixed, 0.0, problem.objective[live]), np.where(fixed, 0.0, np.inf)


def _assert_same_run(got, want):
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got[2] == want[2]


def _check_against_fresh(problem, strategy=PRIMAL_SIMPLEX):
    cost, upper = _costs(problem)
    want = _fresh_solve(problem._base, cost, upper, strategy)
    _assert_same_run(problem._base.solve_highs(cost, upper, strategy), want)
    return want


def _pruned(lengths_km=(40.0, 90.0, 60.0, 70.0), size=20):
    return build_pruned_hypergraph(make_chain(list(lengths_km)), FidelityGrid.uniform(size),
                                   DEFAULT_NOISE)


def _row_built(seed):
    """A bounded problem from rows: a capacity row over every variable."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 25)), int(rng.integers(0, 10))
    rows = [[(j, float(c)) for j, c in enumerate(rng.uniform(0.5, 2.0, size=n))]]
    rows += [
        [(j, float(c)) for j, c in enumerate(rng.uniform(-1.0, 2.0, size=n)) if abs(c) > 0.3]
        for _ in range(m)
    ]
    rhs = rng.uniform(0.0, 10.0, size=m + 1)
    forced = frozenset(np.flatnonzero(rng.random(n) < 0.3).tolist())
    return LPProblem(n, rng.uniform(-1.0, 3.0, size=n), rows, rhs,
                     [f"c_{i}" for i in range(m + 1)], forced)


# --- the kept solver --------------------------------------------------------------


def test_each_solving_thread_makes_one_solver_and_every_run_is_cold(monkeypatch):
    problem = formulate_lp(_pruned(), "end-rate", 0.8)
    cost, upper = _costs(problem)
    want = _fresh_solve(problem._base, cost, upper)
    assert want[2] > 0  # a run warm from the last basis would take 0 iterations
    made = []
    highs = lp._HIGHS._Highs

    def counting():
        # the thread, not its ident, which a later thread may reuse
        made.append(threading.current_thread())
        return highs()

    monkeypatch.setattr(lp._HIGHS, "_Highs", counting)
    monkeypatch.delattr(lp._THREAD, "solver", raising=False)  # this thread's, if any
    answers = []

    def solve_n(part=problem._base, n=4):
        answers.extend(part.solve_highs(cost, upper) for _ in range(n))

    solve_n()
    # the thread's solver, then the presolve kept on the first repeat
    main = threading.current_thread()
    assert made == [main, main]
    assert problem._base._presolved.reduced is not None
    threads = [threading.Thread(target=solve_n) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    # one solver for each new thread, and no second presolve
    assert len(made) == 4 and len(set(made)) == 3
    # a part solved once keeps no presolve; its first repeat makes one
    other = formulate_lp(_pruned(), "end-rate", 0.8)._base
    solve_n(other, 1)
    assert len(made) == 4 and other._presolved is None
    solve_n(other, 2)
    assert made[4:] == [main] and other._presolved.reduced is not None
    assert len(answers) == 15
    for got in answers:
        _assert_same_run(got, want)


def _repeat_against_fresh(problem, strategy, times=3):
    cost, upper = _costs(problem)
    want = _fresh_solve(problem._base, cost, upper, strategy)
    for _ in range(times):
        _assert_same_run(problem._base.solve_highs(cost, upper, strategy), want)


@st.composite
def repeated_problems(draw):
    """A hypergraph's two problems and a row-built one."""
    hg = draw(hypergraphs())
    return (formulate_lp(hg, "ensemble-capacity"),
            formulate_lp(hg, "end-rate", draw(st.floats(min_value=0.5, max_value=1.0))),
            _row_built(draw(st.integers(min_value=0, max_value=2**32 - 1))))


@settings(max_examples=25, deadline=None)
@given(repeated_problems())
def test_a_repeated_objective_through_its_kept_presolve_matches_fresh_solvers(problems):
    for problem in problems:
        for strategy in (PRIMAL_SIMPLEX, DUAL_SIMPLEX):
            _repeat_against_fresh(problem, strategy)


def test_two_threads_repeating_one_objective_get_a_fresh_solvers_answer():
    problem = formulate_lp(_pruned(), "ensemble-capacity")
    cost, upper = _costs(problem)
    want = _fresh_solve(problem._base, cost, upper)
    errors, answers = [], []

    def repeat():
        try:
            answers.extend(problem._base.solve_highs(cost, upper) for _ in range(20))
        except BaseException as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=repeat) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads between the solver's calls
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(answers) == 40
    assert problem._base._presolved.reduced is not None
    for got in answers:
        _assert_same_run(got, want)


def test_an_answer_that_needs_a_clean_up_iteration_takes_the_plain_path():
    problem = formulate_lp(_pruned(), "ensemble-capacity")
    base, (cost, upper) = problem._base, _costs(problem)
    want = _fresh_solve(base, cost, upper)
    for _ in range(2):
        base.solve_highs(cost, upper)
    kept = base._presolved
    # a reduced model with zero costs: its optimal basis is not the objective's
    wrong = kept.highs.getPresolvedLp()
    wrong.col_cost_ = np.zeros(wrong.num_col_)
    kept.reduced = wrong
    _assert_same_run(base.solve_highs(cost, upper), want)
    assert kept.highs.getModelStatus() == lp._HIGHS.HighsModelStatus.kIterationLimit


# row-built problems whose presolve does not leave a reduced model
@pytest.mark.parametrize("seed,status", [(2, "kReducedToEmpty"), (174, "kNotReduced")])
def test_a_presolve_that_does_not_reduce_keeps_the_plain_path(seed, status):
    problem = _row_built(seed)
    _repeat_against_fresh(problem, PRIMAL_SIMPLEX)
    kept = problem._base._presolved
    assert kept.highs.getModelPresolveStatus().name == status and kept.reduced is None


def test_presolve_set_off_keeps_no_presolve(monkeypatch):
    monkeypatch.setitem(lp._HIGHS_OPTIONS, "presolve", "off")
    problem = formulate_lp(_pruned(), "ensemble-capacity")
    _repeat_against_fresh(problem, PRIMAL_SIMPLEX)
    assert problem._base._presolved is None


@st.composite
def solve_steps(draw):
    """One solve: a hypergraph's problem or a row-built one, with a strategy."""
    strategy = draw(st.sampled_from((PRIMAL_SIMPLEX, DUAL_SIMPLEX)))
    if draw(st.booleans()):
        return _row_built(draw(st.integers(min_value=0, max_value=2**32 - 1))), strategy
    hg = draw(hypergraphs())
    if draw(st.booleans()):
        return formulate_lp(hg, "ensemble-capacity"), strategy
    return formulate_lp(hg, "end-rate", draw(st.floats(min_value=0.5, max_value=1.0))), strategy


@settings(max_examples=25, deadline=None)
@given(st.lists(solve_steps(), min_size=1, max_size=5))
def test_a_sequence_of_solves_on_the_kept_solver_matches_fresh_solvers(steps):
    for problem, strategy in steps:
        _check_against_fresh(problem, strategy)


@pytest.mark.parametrize("rows,rhs,match", [
    ([[(0, -1.0)]], [1.0], "unbounded"),
    ([[(0, 1.0)]], [-1.0], "infeasible"),
])
def test_a_refused_status_leaves_the_next_answer_unchanged(rows, rhs, match):
    problem = formulate_lp(_pruned(), "ensemble-capacity")
    _check_against_fresh(problem)
    bad = LPProblem(1, np.ones(1), rows, np.array(rhs), ["c_0"])
    with pytest.raises(LPSolveError, match=f"^HiGHS: problem is {match}$"):
        bad._base.solve_highs(-bad.objective, np.full(1, np.inf))
    _check_against_fresh(problem)
    _check_against_fresh(problem, DUAL_SIMPLEX)


def test_options_reach_every_solve_and_none_carries_over(monkeypatch):
    problem = formulate_lp(_pruned(), "ensemble-capacity")
    cold = _check_against_fresh(problem)
    monkeypatch.setitem(lp._HIGHS_OPTIONS, "presolve", "off")
    assert _check_against_fresh(problem)[2] != cold[2]  # the change shows
    # an option set for one solve only, then taken out again
    monkeypatch.setitem(lp._HIGHS_OPTIONS, "simplex_iteration_limit", 0)
    with pytest.raises(LPSolveError, match="model status kIterationLimit"):
        solve_lp(problem)
    monkeypatch.undo()
    _assert_same_run(_check_against_fresh(problem), cold)


# --- reference: the objective over the whole table -------------------------------


def _table_objective(hg, objective, f_lb):
    cols = hg.columns
    is_end = cols.op == OP_CODE["end"]
    forced = np.zeros(0, np.int64)
    if objective == "ensemble-capacity":
        c = np.where(is_end, hg.capacity_coeff, 0.0)
    else:
        above = cols.exact_fidelity[cols.input0] >= f_lb
        c = (is_end & above).astype(np.float64)
        forced = np.flatnonzero(is_end & ~above)
    return c, frozenset(forced.tolist())


def _assert_same_objective(hg, objective, f_lb=None):
    problem = formulate_lp(hg, objective, f_lb)
    c, forced = _table_objective(hg, objective, f_lb)
    assert problem.objective.dtype == c.dtype and problem.objective.tobytes() == c.tobytes()
    assert problem.forced_zero == forced
    assert all(type(i) is int for i in problem.forced_zero)


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), st.floats(min_value=0.5, max_value=1.0), st.data())
def test_the_objective_from_the_end_constants_matches_the_table_formula(hg, f_lb, data):
    _assert_same_objective(hg, "ensemble-capacity")
    for bound in (f_lb, 0.5, 1.0, -math.inf, math.inf):
        _assert_same_objective(hg, "end-rate", bound)
    fidelities = hg.rate_lp.ends[1]
    if len(fidelities):  # a bound exactly on an end fidelity keeps that end
        _assert_same_objective(hg, "end-rate", data.draw(st.sampled_from(fidelities.tolist())))


@pytest.mark.parametrize("cut", ["start", "end"])
def test_the_objective_of_a_graph_with_nothing_live(cut):
    hg = build_standard_hypergraph(make_chain([60.0, 80.0]), FidelityGrid.uniform(6),
                                   DEFAULT_NOISE)
    cols = hg.columns
    keep = cols.op != OP_CODE[cut]
    trimmed = replace(cols, **{name: getattr(cols, name)[keep]
                               for name in ("op", "input0", "input1", "output", "rate_bound")})
    hg = Hypergraph(trimmed, hg.grid, hg.noise, hg.link_limits, hg.builder, hg.purify_model)
    assert len(hg.rate_lp.live) == 0
    assert len(hg.rate_lp.ends[0]) == (0 if cut == "end" else 6)
    _assert_same_objective(hg, "ensemble-capacity")
    for f_lb in (0.5, 0.8, 1.0):
        _assert_same_objective(hg, "end-rate", f_lb)


@pytest.mark.parametrize("f_lb", [float("nan"), np.float64("nan"), [0.9], "0.9"])
def test_a_nan_f_lb_is_refused_naming_it(f_lb):
    hg = _pruned()
    with pytest.raises(LPError, match="f_lb"):
        formulate_lp(hg, "end-rate", f_lb)
    # ensemble capacity reads no bound
    assert solve_lp(formulate_lp(hg, "ensemble-capacity", f_lb)).objective_value > 0.0


def test_infinite_bounds_keep_every_end_or_none():
    hg = _pruned()
    ends = frozenset(hg.rate_lp.ends[0].tolist())
    assert ends
    assert formulate_lp(hg, "end-rate", math.inf).forced_zero == ends
    assert solve_lp(formulate_lp(hg, "end-rate", math.inf)).objective_value == 0.0
    assert formulate_lp(hg, "end-rate", -math.inf).forced_zero == frozenset()
    assert solve_lp(formulate_lp(hg, "end-rate", -math.inf)).objective_value > 0.0


# --- reference: each vertex's producer from its list of producers ----------------


def _ref_trace_tree(hg, producers, vertex, memo):
    if vertex in memo:
        return memo[vertex]
    cands = producers.get(vertex)
    if not cands:
        memo[vertex] = "?"
        return "?"
    _, _, op, inputs = max(cands)  # the top rate, then the lowest index
    if op == "start":
        text = "link({}|{})".format(*hg.columns.pair(vertex))
    else:
        parts = [_ref_trace_tree(hg, producers, vi, memo) for vi in inputs]
        text = f"{op}({', '.join(parts)})"
    memo[vertex] = text
    return text


def _ref_extract(hg, solution, tie=-1):
    """The scheme by the producer-list rule; ``tie=1`` takes the highest
    index among producers of equal rate instead of the lowest."""
    cols = hg.columns
    ids = np.flatnonzero(solution.rates > RATE_EPS)
    columns = (solution.rates, cols.op, cols.input0, cols.input1, cols.output)
    active = [
        (ei, r, OP_NAMES[op], [in0] if in1 < 0 else [in0, in1], out)
        for ei, r, op, in0, in1, out in zip(ids.tolist(), *(c[ids].tolist() for c in columns))
    ]
    producers = {}
    for ei, r, op, inputs, out in active:
        producers.setdefault(out, []).append((r, tie * ei, op, inputs))
    protocols, memo = [], {}
    swap_rate = pur_rate = 0.0
    for _, r, op, inputs, _ in active:
        if op == "swap":
            swap_rate += r
        elif op == "purify":
            pur_rate += r
        elif op == "end":
            protocols.append(ProtocolFlow(
                fidelity=float(cols.exact_fidelity[inputs[0]]), rate=r,
                tree=_ref_trace_tree(hg, producers, inputs[0], memo)))
    return DistributionScheme.from_flows(protocols, swap_rate, pur_rate)


def _rated(rates):
    return LPSolution(0.0, np.asarray(rates, np.float64), 0, "highs")


def test_tied_producers_name_the_tree_by_the_lower_edge_index():
    hg = build_standard_hypergraph(make_chain([60.0, 80.0]), FidelityGrid.uniform(8),
                                   DEFAULT_NOISE)
    cols = hg.columns
    # every edge at one rate: each vertex with several producers is a tie
    solution = _rated(np.ones(len(cols.op)))
    assert len(np.unique(cols.output)) < len(cols.op)
    scheme = extract_scheme(hg, solution)
    assert scheme == _ref_extract(hg, solution)
    # the ties decide some tree: the highest index would name another
    assert scheme != _ref_extract(hg, solution, tie=1)


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_extraction_matches_the_producer_list_rule(hg, seed):
    rng = np.random.default_rng(seed)
    # rates from a small set, so many producers of one vertex tie
    rates = rng.choice([0.0, RATE_EPS, 0.5, 1.0], size=len(hg.columns.op))
    solution = _rated(rates)
    assert extract_scheme(hg, solution) == _ref_extract(hg, solution)
    solution = solve_lp(formulate_lp(hg, "ensemble-capacity"))
    assert extract_scheme(hg, solution) == _ref_extract(hg, solution)


def test_extraction_leaves_no_garbage_cycle():
    # a cycle would hold every tree text of the answer until a collection
    hg = _pruned()
    solution = solve_lp(formulate_lp(hg, "ensemble-capacity"))
    gc.collect()
    gc.disable()
    try:
        assert extract_scheme(hg, solution).egr > 0.0
        assert gc.collect() == 0
    finally:
        gc.enable()
