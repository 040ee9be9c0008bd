"""``solve_lp`` against the wrapper logic it folded in.

The references below copy the solve steps ``solve_lp`` used to spread
over a HiGHS wrapper and the forced-zero handling around it: copy the
objective and zero the forced entries in place, give every variable an
infinite upper bound and the forced ones 0, run ``RateLP.solve_highs``,
take the objective, then zero the forced rates in place. The simplex
reference drops the forced columns from the matrix the same way. The
one-mask solve must give the same rates, objective, iteration count
and method bit for bit, with forced rates of exactly 0.0. On a
hypergraph the tableau solves only the live part, so on a standard
lattice, where most columns are dead, it may pivot less often than the
whole-matrix reference, never more.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from entflow.hypergraph import FidelityGrid, build_pruned_hypergraph, build_standard_hypergraph
from entflow.lp import LPError, LPProblem, _simplex_maximize, formulate_lp, solve_lp
from entflow.physics import DEFAULT_NOISE, PURIFY_MODELS

SIMPLEX_MAX_VARS = 400  # the dense tableau is only run on the small draws

# --- reference: the per-step forced-zero handling ------------------------------


def _forced_indices(problem):
    return np.fromiter(problem.forced_zero, np.int64, len(problem.forced_zero))


def _ref_highs(problem):
    c = problem.objective.copy()
    upper = np.full(problem.num_vars, np.inf)
    if problem.forced_zero:
        forced = _forced_indices(problem)
        c[forced] = 0.0
        upper[forced] = 0.0
    live = problem._base.live
    x = np.zeros(problem.num_vars)
    x[live], _, iters = problem._base.solve_highs(-c[live], upper[live])
    obj = float(c @ x)
    if problem.forced_zero:
        x = x.copy()
        x[list(problem.forced_zero)] = 0.0
    return obj, x, iters, "highs"


def _ref_simplex(problem):
    a = problem.matrix
    c = problem.objective.copy()
    keep = np.ones(len(a.indices), bool)
    if problem.forced_zero:
        forced = _forced_indices(problem)
        c[forced] = 0.0
        is_forced = np.zeros(problem.num_vars, bool)
        is_forced[forced] = True
        keep = ~is_forced[a.indices]
    kept = np.concatenate([[0], np.cumsum(keep)])
    mat = sp.csr_matrix((a.data[keep], a.indices[keep], kept[a.indptr]), shape=a.shape)
    mat.sum_duplicates()
    x, obj, iters = _simplex_maximize(c, mat.toarray(), problem.rhs)
    if problem.forced_zero:
        x = x.copy()
        x[list(problem.forced_zero)] = 0.0
    return obj, x, iters, "simplex"


# --- comparison ---------------------------------------------------------------


def _assert_identical(problem, method):
    want = (_ref_highs if method == "highs" else _ref_simplex)(problem)
    got = solve_lp(problem, method=method)
    assert np.float64(got.objective_value).tobytes() == np.float64(want[0]).tobytes()
    assert got.rates.dtype == want[1].dtype and got.rates.tobytes() == want[1].tobytes()
    assert got.iterations == want[2]
    assert got.method == want[3]
    forced = sorted(problem.forced_zero)
    assert got.rates[forced].tobytes() == np.zeros(len(forced)).tobytes()


def _assert_identical_solves(problem):
    _assert_identical(problem, "highs")
    if problem.num_vars <= SIMPLEX_MAX_VARS:
        _assert_identical(problem, "simplex")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=20.0, max_value=150.0), min_size=1, max_size=4),
    st.integers(min_value=2, max_value=30),
    st.sampled_from(PURIFY_MODELS),
    st.floats(min_value=0.5, max_value=1.0),
)
def test_pruned_chain_solves_match_the_reference(lengths_km, size, model, f_lb):
    hg = build_pruned_hypergraph(make_chain(lengths_km), FidelityGrid.uniform(size),
                                 DEFAULT_NOISE, model)
    _assert_identical_solves(formulate_lp(hg, "ensemble-capacity"))
    _assert_identical_solves(formulate_lp(hg, "end-rate", f_lb))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([build_pruned_hypergraph, build_standard_hypergraph]),
    st.lists(st.floats(min_value=10.0, max_value=120.0), min_size=1, max_size=4),
    st.floats(min_value=0.85, max_value=0.99),
    st.integers(min_value=2, max_value=8),
    st.sampled_from(PURIFY_MODELS),
    st.one_of(st.none(), st.floats(min_value=0.5, max_value=1.0)),
)
def test_the_tableau_on_the_live_part_matches_the_whole_matrix(build, lengths_km, f0, size,
                                                                model, f_lb):
    hg = build(make_chain(lengths_km, f0=f0), FidelityGrid.uniform(size), DEFAULT_NOISE, model)
    problem = (formulate_lp(hg, "ensemble-capacity") if f_lb is None
               else formulate_lp(hg, "end-rate", f_lb))
    got = solve_lp(problem, method="simplex")
    assert hg.rate_lp._matrix is None  # the solve read only the live part
    dead = np.ones(problem.num_vars, bool)
    dead[hg.rate_lp.live] = False
    assert got.rates[dead].tobytes() == np.zeros(int(dead.sum())).tobytes()
    want = _ref_simplex(problem)
    assert np.float64(got.objective_value).tobytes() == np.float64(want[0]).tobytes()
    assert got.rates.tobytes() == want[1].tobytes()
    assert got.iterations <= want[2]
    assert got.method == want[3]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_row_built_solves_match_the_reference(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 25)), int(rng.integers(0, 10))
    # a capacity row over every variable keeps the problem bounded
    rows = [[(j, float(c)) for j, c in enumerate(rng.uniform(0.5, 2.0, size=n))]]
    rows += [
        [(j, float(c)) for j, c in enumerate(rng.uniform(-1.0, 2.0, size=n)) if abs(c) > 0.3]
        for _ in range(m)
    ]
    rhs = rng.uniform(0.0, 10.0, size=m + 1)
    rhs[rng.random(m + 1) < 0.2] = 0.0
    objective = rng.uniform(-1.0, 3.0, size=n)
    forced = frozenset(np.flatnonzero(rng.random(n) < rng.uniform(0.0, 0.7)).tolist())
    problem = LPProblem(num_vars=n, objective=objective, rows=rows, rhs=rhs,
                        row_names=[f"c_{i}" for i in range(m + 1)], forced_zero=forced)
    _assert_identical_solves(problem)


@pytest.mark.parametrize("method", ["bogus", "auto", "HiGHS", ""])
def test_unknown_methods_are_rejected_before_any_solve(method):
    empty = LPProblem(0, np.zeros(0), [], np.zeros(0), [])
    one = LPProblem(1, np.ones(1), [[(0, 1.0)]], np.ones(1), ["c_0"])
    for problem in (empty, one):
        with pytest.raises(LPError, match=f"^unknown method {method!r}$"):
            solve_lp(problem, method=method)
