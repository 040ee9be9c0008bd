"""Rate-allocation linear programs over operation hypergraphs.

One decision variable per hyper-edge (its execution rate, pairs/s).
Constraints: a flow row per link-state vertex (consumption cannot exceed
production, with purification crediting half its success-weighted rate)
and a generation-limit row per physical link. Objectives: aggregate
ensemble capacity of the end edges, or total end rate restricted to end
fidelities above a lower bound.

The constraint matrix, rhs and row names depend only on the hypergraph;
only the objective and the forced-zero set change with the objective and
``f_lb``. ``Hypergraph.rate_lp`` builds that constant part once per
hypergraph (a ``RateLP``) from its edge table (``Hypergraph.columns``),
and every problem formulated from the hypergraph shares it. Scheme
extraction reads the same table, for the edges with positive rate only.

Every solve runs HiGHS (Huangfu & Hall 2018), driven through scipy's
private bindings (``scipy.optimize._highspy._core``), checked once at
import: a missing module, class or method raises ``ImportError`` naming
it. A deterministic dense tableau simplex (``method="simplex"``) is kept
to cross-check it on small problems.
Every problem owns one ``RateLP``: a problem formulated from a
hypergraph shares ``hg.rate_lp``, and a problem built from row lists or
parsed text builds its own once. A ``RateLP`` compiles one HiGHS model (a
``HighsLp``) on its first HiGHS solve and keeps it, behind a lock. Each
solve loads that model into a new solver, sets the costs, gives the
forced-zero variables an upper bound of 0 and runs cold with presolve;
the solver is dropped after the solve. HiGHS runs primal simplex first;
when the checks refuse its answer, the same cold solve runs again with
dual simplex, and that answer is checked in turn.

A hypergraph's model holds only its live part: the edges whose inputs
can all be produced from the source through live edges and whose output
leads to the sink, and the rows they touch. Every other edge is zero in
some optimum, so the rates of the full problem are the live rates with
exact zeros elsewhere (the classic presolve reduction of Andersen &
Andersen 1995, done once per hypergraph instead of once per solve).
``matrix``, ``rhs``, ``row_names``, the feasibility check and the
interchange format keep the full problem. HiGHS runs at a dual
feasibility tolerance of 1e-10: at the 1e-7 default, lattice LPs whose
link prices are tiny (one delivered pair costing about 1e6 swaps)
stopped up to 1.4e-3 below the optimum. A hypergraph solve is then
certified from HiGHS's row prices (``_check_optimality``). The objective
is the optimum's; the rates are one optimal vertex's, which the simplex
strategy picks among many.

A plain-text interchange format allows cross-checking one backend
against the other, or against external tools.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.sparse as sp

from .capacity import EnsembleSpec, ensemble_capacity
from .hypergraph import OP_CODE, OP_NAMES, Hypergraph, HypergraphColumns

OBJECTIVE_KINDS = ("ensemble-capacity", "end-rate")

RATE_EPS = 1e-9
FEAS_TOL = 1e-6
# A hypergraph solve fails when its optimality-gap bound exceeds GAP_REL
# times the objective, or times GAP_FLOOR for objectives below it. Lattice
# and planner solves bound at most 7e-12 relative; at the 1e-7 default dual
# tolerance, 21 of 190 sweep-flb lattice LPs bound 3.3e-5 or more. Zero
# objectives bound exactly 0; the smallest nonzero objective seen was 3.2e-3.
GAP_REL = 1e-9
GAP_FLOOR = 1e-6
_SIMPLEX_TOL = 1e-9  # pricing, ratio-test and rhs tolerance of the tableau simplex


def _highs_bindings():
    """scipy's private HiGHS module, with every class and method the solve calls.

    Raises ``ImportError`` naming the first one missing.
    """

    def missing(name: str) -> ImportError:
        return ImportError(f"scipy {scipy.__version__} lacks {name}, which the HiGHS solve calls")

    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        raise missing("scipy.optimize._highspy._core") from exc
    for name in ("_Highs", "HighsLp", "MatrixFormat", "HighsModelStatus", "HighsStatus"):
        if not hasattr(_core, name):
            raise missing(f"_highspy._core.{name}")
    for method in ("setOptionValue", "passModel", "changeColsCost", "changeColsBounds", "run",
                   "getModelStatus", "getInfo", "getSolution"):
        if not hasattr(_core._Highs, method):
            raise missing(f"_highspy._core._Highs.{method}")
    return _core


_HIGHS = _highs_bindings()
# the options scipy's HiGHS interface sets: quiet, presolve on; and a dual
# tolerance far below the default 1e-7, which is large beside the link prices
# of lattice LPs and let them stop short of the optimum
_HIGHS_OPTIONS = {
    "output_flag": False,
    "log_to_console": False,
    "presolve": "on",
    "highs_debug_level": 0,  # none
    "dual_feasibility_tolerance": 1e-10,
}
# HiGHS simplex_strategy values. A hypergraph solve runs primal simplex, and
# re-runs cold with dual simplex only when the checks refuse the primal answer:
# primal took 5.4 ms per planner solve against dual's 8.1 (best of 5 on a
# 2-core Xeon), and its answer failed the certificate on 1 of 1,875 LPs
# measured (a gap bound of 2.6e-10 against a limit of 2.9e-12, from a reduced
# cost of 4.1e-15 times the rate cap)
PRIMAL_SIMPLEX, DUAL_SIMPLEX = 4, 1


class LPError(ValueError):
    """Raised for malformed problems or documents."""


class LPSolveError(RuntimeError):
    """Raised when a solve fails numerically or is infeasible/unbounded."""


class LPProblem:
    """max c.x subject to A x <= rhs, x >= 0, selected x forced to 0.

    ``A`` is one CSR matrix (``matrix``), built from ``rows``: per row,
    a list of ``(variable, coefficient)`` terms, kept in the given order.
    The ``rows`` attribute is a view derived from the matrix.
    Forced-zero variables keep their terms; the solve drops them. The
    matrix, rhs and row names live in the problem's ``RateLP``, built
    once here and checked, or shared from a hypergraph by ``formulate_lp``.
    """

    def __init__(
        self,
        num_vars: int,
        objective: np.ndarray,
        rows: list[list[tuple[int, float]]],
        rhs: np.ndarray,
        row_names: list[str],
        forced_zero: frozenset[int] = frozenset(),
    ) -> None:
        self.objective = np.asarray(objective, dtype=float)
        self.forced_zero = forced_zero
        rhs = np.asarray(rhs, dtype=float)
        if len(rhs) != len(row_names):
            raise LPError("row data lengths disagree")
        if len(self.objective) != num_vars:
            raise LPError("objective length disagrees with variable count")
        if len(rows) != len(row_names):
            raise LPError("row data lengths disagree")
        self._base = RateLP(_rows_matrix(rows, num_vars), rhs, tuple(row_names), None, None, None)
        self._validate()

    @classmethod
    def _sharing(
        cls, base: RateLP, objective: np.ndarray, forced_zero: frozenset[int]
    ) -> LPProblem:
        """A problem on ``base`` as it is: a hypergraph's part, checked when built."""
        problem = cls.__new__(cls)
        problem._base, problem.objective, problem.forced_zero = base, objective, forced_zero
        return problem

    def _validate(self) -> None:
        a, n = self.matrix, self.num_vars
        bad = np.flatnonzero((a.indices < 0) | (a.indices >= n) | np.isnan(a.data))
        if len(bad):
            k = int(bad[0])
            row = self.row_names[int(np.searchsorted(a.indptr, k, side="right")) - 1]
            var, coef = int(a.indices[k]), float(a.data[k])
            if not 0 <= var < n:
                raise LPError(f"row {row}: variable r_{var} outside [0, {n})")
            raise LPError(f"row {row}: coefficient {coef!r} of r_{var} is NaN")
        outside = sorted(i for i in self.forced_zero if not 0 <= i < n)
        if outside:
            raise LPError(f"forced_zero index {outside[0]} outside [0, {n})")
        nan_obj = np.flatnonzero(np.isnan(self.objective))
        if len(nan_obj):
            raise LPError(f"objective coefficient of r_{int(nan_obj[0])} is NaN")
        nan_rhs = np.flatnonzero(np.isnan(self.rhs))
        if len(nan_rhs):
            raise LPError(f"row {self.row_names[int(nan_rhs[0])]}: rhs is NaN")

    @property
    def matrix(self) -> sp.csr_matrix:
        return self._base.matrix

    @property
    def rhs(self) -> np.ndarray:
        return self._base.rhs

    @property
    def row_names(self) -> list[str]:
        return list(self._base.row_names)

    @property
    def num_vars(self) -> int:
        return self.matrix.shape[1]

    @property
    def num_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def rows(self) -> list[list[tuple[int, float]]]:
        """Per row, its ``(variable, coefficient)`` terms in matrix order."""
        ptr = self.matrix.indptr.tolist()
        terms = list(zip(self.matrix.indices.tolist(), self.matrix.data.tolist()))
        return [terms[lo:hi] for lo, hi in zip(ptr, ptr[1:])]


def _rows_matrix(rows: list[list[tuple[int, float]]], num_vars: int) -> sp.csr_matrix:
    """CSR matrix with the terms of each row in the given order."""
    indptr = np.zeros(len(rows) + 1, np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    terms = [term for row in rows for term in row]
    indices = np.fromiter((var for var, _ in terms), np.int64, len(terms))
    data = np.fromiter((coef for _, coef in terms), np.float64, len(terms))
    return sp.csr_matrix((data, indices, indptr), shape=(len(rows), num_vars))


@dataclass(frozen=True)
class LPSolution:
    status: str  # optimal | infeasible | unbounded
    objective_value: float
    rates: np.ndarray
    iterations: int
    method: str


class RateLP:
    """The part of a hypergraph's rate LP that no objective changes.

    The constraint matrix (CSR, read-only), the rhs (read-only) and the
    row names, plus the HiGHS model compiled from them on the first HiGHS
    solve. ``Hypergraph.rate_lp`` keeps one per hypergraph, so it lives
    and dies with the hypergraph.

    A hypergraph's part also names its ``live`` columns and the rows they
    touch (``live_rows``), whose submatrix ``part`` alone makes the HiGHS
    model, and ``rate_cap``, a bound on every feasible rate. A part built
    from rows has none of them (None, and ``part`` is the matrix): its
    model holds the whole problem and nothing certifies it.
    """

    def __init__(
        self,
        matrix: sp.csr_matrix,
        rhs: np.ndarray,
        row_names: tuple[str, ...],
        live: np.ndarray | None,
        live_rows: np.ndarray | None,
        rate_cap: float | None,
    ) -> None:
        self.matrix = matrix
        self.rhs = rhs
        self.row_names = row_names
        self.live = live
        self.live_rows = live_rows
        self.part = matrix if live is None else matrix[live_rows][:, live]
        self.rate_cap = rate_cap
        self._lock = threading.Lock()
        self._model = None

    @classmethod
    def of(cls, hg: Hypergraph) -> RateLP:
        """Flow row per link-state vertex, in vertex order: total out-rate
        minus in-credit <= 0; then one generation-limit row per physical link."""
        cols = hg.columns  # every start link has a limit: checked at construction
        n = len(cols.op)
        # vertices 0 and 1 are the source and sink; vertex vi >= 2 has row vi - 2
        link_vertices = np.arange(2, len(cols.exact_fidelity))
        edge = np.arange(n)
        uses0 = cols.input0 >= 2
        uses1 = cols.input1 >= 2  # -1 for one-input ops
        feeds = cols.output >= 2
        credit = np.where(cols.op == OP_CODE["purify"], 0.5 * cols.p_succ, 1.0)
        starts = np.flatnonzero(cols.link >= 0)
        row = np.concatenate([
            cols.input0[uses0] - 2,
            cols.input1[uses1] - 2,
            cols.output[feeds] - 2,
            len(link_vertices) + cols.link[starts],
        ])
        col = np.concatenate([edge[uses0], edge[uses1], edge[feeds], starts])
        data = np.concatenate([
            np.ones(int(uses0.sum()) + int(uses1.sum())), -credit[feeds], np.ones(len(starts)),
        ])
        num_rows = len(link_vertices) + len(cols.link_keys)
        # the (data, ij) constructor sorts each row by variable and sums the two
        # terms of a purification that draws both inputs from one vertex
        matrix = sp.csr_matrix((data, (row, col)), shape=(num_rows, n))
        limits = np.array([hg.link_limits[k] for k in cols.link_keys], np.float64)
        rhs = np.concatenate([np.zeros(len(link_vertices)), limits])
        is_live = _live_edges(cols)
        live, touched = np.flatnonzero(is_live), np.unique(row[is_live[col]])
        for array in (matrix.data, matrix.indices, matrix.indptr, rhs, live, touched):
            array.flags.writeable = False  # shared by every problem of the hypergraph
        names = [f"v_{vi}" for vi in link_vertices.tolist()] + [f"l_{k}" for k in cols.link_keys]
        # every edge consumes at least as many pairs as it makes, so no rate
        # exceeds the pairs the links generate
        return cls(matrix, rhs, tuple(names), live, touched, float(limits.sum()))

    def solve_highs(self, cost: np.ndarray, upper: np.ndarray, strategy: int = PRIMAL_SIMPLEX):
        """Cold HiGHS run of min cost.x, Ax <= rhs, 0 <= x <= upper, with the
        simplex ``strategy`` (``PRIMAL_SIMPLEX`` or ``DUAL_SIMPLEX``).

        The model is compiled on the first call and kept. Each call loads
        it into a new solver, which starts cold and is freed on return: a
        solver that has run keeps its working memory, about 230 bytes per
        nonzero, until it is destroyed, even after ``clearSolver``.
        Returns the solution (exact zeros off the live columns), the row
        prices y = max(0, -row dual) (zeros off the model's rows) and the
        iteration count.
        """
        cols = slice(None) if self.live is None else self.live
        rows = slice(None) if self.live_rows is None else self.live_rows
        x, y = np.zeros(self.matrix.shape[1]), np.zeros(self.matrix.shape[0])
        cost, upper = cost[cols], upper[cols]
        n = len(cost)
        if n == 0:  # nothing is live: HiGHS would call the model empty
            return x, y, 0
        solver = _HIGHS._Highs()
        for key, value in _HIGHS_OPTIONS.items():
            solver.setOptionValue(key, value)
        solver.setOptionValue("simplex_strategy", strategy)
        with self._lock:
            if self._model is None:
                self._model = _compile_highs(self.part, self.rhs[rows])
            loaded = solver.passModel(self._model)
        if loaded == _HIGHS.HighsStatus.kError:
            raise LPSolveError("HiGHS rejected the model")
        index = np.arange(n, dtype=np.int32)
        solver.changeColsCost(n, index, cost)
        solver.changeColsBounds(n, index, np.zeros(n), upper)
        solver.run()
        status, statuses = solver.getModelStatus(), _HIGHS.HighsModelStatus
        # the statuses scipy's HiGHS interface reads as infeasible and as unbounded
        if status in (statuses.kInfeasible, statuses.kModelError):
            raise LPSolveError("HiGHS: problem is infeasible")
        if status == statuses.kUnbounded:
            raise LPSolveError("HiGHS: problem is unbounded")
        if status != statuses.kOptimal:
            raise LPSolveError(f"HiGHS failed: model status {status.name}")
        info = solver.getInfo()
        # scipy's count: simplex iterations, or IPM ones if there were none
        iterations = int(info.simplex_iteration_count or info.ipm_iteration_count)
        solution = solver.getSolution()
        x[cols] = np.fromiter(solution.col_value, np.float64, n)
        y[rows] = np.maximum(0.0, -np.fromiter(solution.row_dual, np.float64))
        return x, y, iterations


def _live_edges(cols: HypergraphColumns) -> np.ndarray:
    """Per edge, whether it can carry flow to the sink: each input can be
    produced from the source through live edges, and its output leads to
    the sink. One forward and one backward fixed-point sweep."""
    nv = len(cols.exact_fidelity)
    two = cols.input1 >= 0
    other = np.where(two, cols.input1, cols.input0)
    made = np.zeros(nv, bool)
    made[0] = True  # the source
    count = 1
    while True:
        ready = made[cols.input0] & made[other]
        made[cols.output[ready]] = True
        count, before = np.count_nonzero(made), count
        if count == before:
            break
    wanted = np.zeros(nv, bool)
    wanted[1] = True  # the sink
    count = 1
    while True:
        live = ready & wanted[cols.output]
        wanted[cols.input0[live]] = True
        wanted[cols.input1[live & two]] = True
        count, before = np.count_nonzero(wanted), count
        if count == before:
            return live


def _compile_highs(matrix: sp.csr_matrix, rhs: np.ndarray):
    """The HiGHS model (a ``HighsLp``) of Ax <= rhs, x >= 0 with zero costs."""
    a = matrix.tocsc()
    a.sum_duplicates()
    m, n = a.shape
    lp = _HIGHS.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = _HIGHS.MatrixFormat.kColwise
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data
    lp.col_cost_ = np.zeros(n)
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, np.inf)
    lp.row_lower_ = np.full(m, -np.inf)
    lp.row_upper_ = np.array(rhs, dtype=np.float64)
    return lp


def formulate_lp(
    hg: Hypergraph, objective: str, f_lb: float | None = None
) -> LPProblem:
    """Build the rate LP for a hypergraph.

    ``ensemble-capacity`` weights each end edge by its per-pair capacity;
    ``end-rate`` maximizes total end rate and requires ``f_lb``, forcing
    end edges below the bound to zero rate. The matrix, rhs and row names
    come from ``hg.rate_lp``; only the objective and the forced-zero set
    are built here.
    """
    if objective not in OBJECTIVE_KINDS:
        raise LPError(f"unknown objective {objective!r}")
    if objective == "end-rate" and f_lb is None:
        raise LPError("end-rate objective requires a fidelity lower bound")

    cols = hg.columns
    is_end = cols.op == OP_CODE["end"]
    forced = np.zeros(0, np.int64)
    if objective == "ensemble-capacity":
        c = np.where(is_end, cols.capacity_coeff, 0.0)
    else:
        above = cols.exact_fidelity[cols.input0] >= f_lb
        c = (is_end & above).astype(np.float64)
        forced = np.flatnonzero(is_end & ~above)
    return LPProblem._sharing(hg.rate_lp, c, frozenset(forced.tolist()))


def _simplex_maximize(
    c: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[str, np.ndarray, float, int]:
    """Dense tableau simplex for max c.x, Ax <= b, x >= 0, b >= 0.

    Nonnegative rhs means the slack basis is feasible, so no phase 1 is
    needed. Dantzig pricing with a switch to Bland's rule after a long
    degenerate streak guards against cycling; both rules are
    deterministic.
    """
    m, n = a.shape
    if np.any(b < -_SIMPLEX_TOL):
        raise LPError("tableau simplex requires nonnegative rhs")
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = np.maximum(b, 0.0)
    tableau[m, :n] = -c
    basis = list(range(n, n + m))

    max_iter = 200 * (m + n) + 1000
    bland_after = 20 * (m + n) + 200
    iters = 0
    while True:
        red = tableau[m, :-1]
        if iters < bland_after:
            j = int(np.argmin(red))
            if red[j] >= -_SIMPLEX_TOL:
                break
        else:
            neg = np.nonzero(red < -_SIMPLEX_TOL)[0]
            if len(neg) == 0:
                break
            j = int(neg[0])
        col = tableau[:m, j]
        pos = np.nonzero(col > _SIMPLEX_TOL)[0]
        if len(pos) == 0:
            return "unbounded", np.zeros(n), float("inf"), iters
        ratios = tableau[pos, -1] / col[pos]
        best = ratios.min()
        # tie-break on smallest leaving basis index (anti-cycling)
        cand = pos[ratios <= best + _SIMPLEX_TOL * max(1.0, abs(best))]
        i = int(min(cand, key=lambda r: basis[r]))
        pivot = tableau[i, j]
        tableau[i, :] /= pivot
        for r in range(m + 1):
            if r != i and tableau[r, j] != 0.0:
                tableau[r, :] -= tableau[r, j] * tableau[i, :]
        basis[i] = j
        iters += 1
        if iters > max_iter:
            raise LPSolveError("simplex iteration limit exceeded")

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tableau[i, -1]
    return "optimal", x, float(c @ x), iters


def _forced_mask(problem: LPProblem) -> np.ndarray:
    """Per variable, whether the problem forces it to zero."""
    forced = np.zeros(problem.num_vars, bool)
    forced[list(problem.forced_zero)] = True
    return forced


def _problem_matrices(problem: LPProblem) -> tuple[np.ndarray, sp.csr_matrix]:
    """Objective and canonical CSR matrix with forced-zero variables dropped."""
    a, forced = problem.matrix, _forced_mask(problem)
    keep = ~forced[a.indices]
    kept = np.concatenate([[0], np.cumsum(keep)])
    mat = sp.csr_matrix((a.data[keep], a.indices[keep], kept[a.indptr]), shape=a.shape)
    mat.sum_duplicates()
    return np.where(forced, 0.0, problem.objective), mat


def solve_lp(problem: LPProblem, method: str = "highs") -> LPSolution:
    """Solve deterministically; verifies feasibility of the answer, and the
    optimality of a HiGHS answer on a hypergraph.

    ``method``: ``highs``, the default, or ``simplex``, the built-in dense
    tableau, kept to cross-check HiGHS on small problems. HiGHS runs
    primal simplex, then dual simplex if the checks refuse the primal
    answer; the iteration count covers both runs.
    """
    if method not in ("highs", "simplex"):
        raise LPError(f"unknown method {method!r}")
    if problem.num_vars == 0:
        return LPSolution("optimal", 0.0, np.zeros(0), 0, method)

    # HiGHS would read an infinite cost or rhs as a special value, and the
    # tableau would carry it into its answer, not raise
    bad = np.flatnonzero(~np.isfinite(problem.objective))
    if len(bad):
        raise LPError(f"objective coefficient of r_{int(bad[0])} is not finite")
    bad = np.flatnonzero(~np.isfinite(problem.rhs))
    if len(bad):
        raise LPError(f"row {problem.row_names[int(bad[0])]}: rhs is not finite")
    forced = _forced_mask(problem)
    if method == "simplex":
        c, a = _problem_matrices(problem)
        status, x, obj, iters = _simplex_maximize(c, a.toarray(), problem.rhs)
        if status != "optimal":
            raise LPSolveError(f"built-in solver: problem is {status}")
        x[forced] = 0.0
        _check_solution(problem, x)
        return LPSolution("optimal", obj, x, iters, method)

    c = np.where(forced, 0.0, problem.objective)
    upper = np.where(forced, 0.0, np.inf)
    iters = 0
    for strategy in (PRIMAL_SIMPLEX, DUAL_SIMPLEX):
        x, y, run_iters = problem._base.solve_highs(-c, upper, strategy)
        iters += run_iters
        obj = float(c @ x)
        x[forced] = 0.0
        try:
            _check_solution(problem, x)
            _check_optimality(problem, forced, c, obj, y)
            break
        except LPSolveError:
            if strategy == DUAL_SIMPLEX:
                raise
    return LPSolution("optimal", obj, x, iters, method)


def _check_solution(problem: LPProblem, x: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise LPSolveError(f"non-finite rate {float(x[bad[0]])!r} for r_{bad[0]} in solution")
    bad = np.flatnonzero(x < -RATE_EPS)
    if len(bad):
        raise LPSolveError(f"negative rate {float(x[bad[0]]):.3e} for r_{bad[0]} in solution")
    if not problem.num_rows:
        return
    rhs = problem.rhs
    lhs = problem.matrix @ x
    violated = lhs > rhs + FEAS_TOL * max(1.0, float(np.max(np.abs(rhs))))
    if violated.any():
        i = int(np.argmax(np.where(violated, lhs - rhs, -np.inf)))
        raise LPSolveError(
            f"constraint violated: row {problem.row_names[i]} has lhs {float(lhs[i])!r} "
            f"> limit {float(rhs[i])!r} (by {lhs[i] - rhs[i]:.3e})"
        )


def _check_optimality(
    problem: LPProblem, forced: np.ndarray, c: np.ndarray, objective: float, y: np.ndarray
) -> None:
    """Bound how far ``objective`` can lie below the optimum; raise if too far.

    Only a hypergraph's problem has the bound: every feasible rate is at
    most its ``rate_cap`` G. For row prices y >= 0 and reduced costs
    d = c - A'y, any feasible x' has c.x' <= b.y + G * sum(max(0, d_j))
    over the live columns not forced to zero, which are the only ones
    that can be nonzero in an optimum. A d_j within the rounding of its
    terms counts as 0. A bound above ``GAP_REL`` times the objective (or
    ``GAP_FLOOR``) names the edge with the worst reduced cost.
    """
    base = problem._base
    if base.rate_cap is None:
        return
    cost, price = c[base.live], y[base.live_rows]
    excess = np.where(forced[base.live], 0.0, cost - base.part.T @ price)
    # each d_j sums at most four terms: its cost, two inputs and an output
    rounding = 4 * np.finfo(np.float64).eps * (np.abs(cost) + abs(base.part).T @ price)
    over = np.where(excess > rounding, excess, 0.0)
    gap = float(problem.rhs @ y) - objective + base.rate_cap * float(over.sum())
    limit = GAP_REL * max(abs(objective), GAP_FLOOR)
    if gap > limit:
        j = int(np.argmax(excess))
        raise LPSolveError(
            f"not optimal: the gap bound {gap:.3e} exceeds {limit:.3e}; edge "
            f"r_{int(base.live[j])} has reduced cost {excess[j]:.3e} against a rate cap "
            f"of {base.rate_cap!r}"
        )


def _fmt(value: float) -> str:
    return repr(float(value))


def export_lp(problem: LPProblem) -> str:
    """Serialize to the plain-text interchange format.

    Layout: a ``maximize`` section with one ``obj:`` line, a ``subject
    to`` section with one named row per line (terms joined by `` + ``,
    coefficients possibly negative), an optional ``bounds`` section
    listing only variables fixed to zero (all others are >= 0), and a
    closing ``end``. Variables are named ``r_<index>``.
    """
    lines = ["maximize"]
    terms = [
        f"{_fmt(coef)} r_{i}" for i, coef in enumerate(problem.objective) if coef != 0.0
    ]
    lines.append(" obj: " + (" + ".join(terms) if terms else "0"))
    lines.append("subject to")
    for name, row, limit in zip(problem.row_names, problem.rows, problem.rhs):
        body = " + ".join(f"{_fmt(coef)} r_{var}" for var, coef in row) or "0"
        lines.append(f" {name}: {body} <= {_fmt(limit)}")
    if problem.forced_zero:
        lines.append("bounds")
        for var in sorted(problem.forced_zero):
            lines.append(f" r_{var} = 0")
    lines.append("end")
    return "\n".join(lines) + "\n"


_TERM_RE = re.compile(r"^\s*(?P<coef>[-+]?[0-9.eE+-]+)\s+r_(?P<var>\d+)\s*$")


def _parse_terms(body: str, where: str) -> list[tuple[int, float]]:
    body = body.strip()
    if body == "0":
        return []
    out = []
    for term in body.split(" + "):
        m = _TERM_RE.match(term)
        if not m:
            raise LPError(f"cannot parse term {term!r} in {where}")
        out.append((int(m.group("var")), float(m.group("coef"))))
    return out


def parse_lp(text: str) -> LPProblem:
    """Parse the interchange format back into an LPProblem."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "maximize":
        raise LPError("document must start with 'maximize'")
    i = 1
    if i >= len(lines) or not lines[i].strip().startswith("obj:"):
        raise LPError("missing objective line")
    obj_terms = _parse_terms(lines[i].strip()[4:], "objective")
    i += 1
    if i >= len(lines) or lines[i].strip() != "subject to":
        raise LPError("missing 'subject to' section")
    i += 1
    rows, rhs, names = [], [], []
    forced: set[int] = set()
    section = "rows"
    max_var = max((v for v, _ in obj_terms), default=-1)
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped == "end":
            break
        if stripped == "bounds":
            section = "bounds"
            i += 1
            continue
        if section == "rows":
            if ":" not in stripped or "<=" not in stripped:
                raise LPError(f"cannot parse constraint line {stripped!r}")
            name, rest = stripped.split(":", 1)
            body, limit = rest.rsplit("<=", 1)
            terms = _parse_terms(body, f"row {name}")
            rows.append(terms)
            rhs.append(float(limit))
            names.append(name.strip())
            max_var = max([max_var] + [v for v, _ in terms])
        else:
            m = re.match(r"^r_(\d+)\s*=\s*0$", stripped)
            if not m:
                raise LPError(f"cannot parse bounds line {stripped!r}")
            var = int(m.group(1))
            forced.add(var)
            max_var = max(max_var, var)
        i += 1
    else:
        raise LPError("missing 'end'")
    n = max_var + 1
    c = np.zeros(n)
    for var, coef in obj_terms:
        c[var] = coef
    return LPProblem(
        num_vars=n, objective=c, rows=rows, rhs=np.array(rhs),
        row_names=names, forced_zero=frozenset(forced),
    )


@dataclass(frozen=True)
class ProtocolFlow:
    """One delivered ensemble and a representative operation tree."""

    fidelity: float
    rate: float
    tree: str


@dataclass(frozen=True)
class DistributionScheme:
    """Solved allocation: delivered ensembles plus aggregate metrics."""

    protocols: tuple[ProtocolFlow, ...]
    ensembles: EnsembleSpec
    egr: float
    fidelity: float
    capacity: float
    swaps: float
    purifications: float
    pairs: int

    @classmethod
    def from_flows(
        cls, protocols: list[ProtocolFlow], swap_rate: float, purify_rate: float
    ) -> DistributionScheme:
        """Aggregate delivered flows: swap and purification counts are the
        total operation rates per delivered pair. ``EMPTY_SCHEME`` when
        nothing is delivered."""
        entries = tuple((p.fidelity, p.rate) for p in protocols)
        egr = sum(r for _, r in entries)
        if egr <= 0.0:
            return EMPTY_SCHEME
        spec = EnsembleSpec(entries)
        return cls(
            protocols=tuple(protocols),
            ensembles=spec,
            egr=egr,
            fidelity=sum(f * r for f, r in entries) / egr,
            capacity=ensemble_capacity(spec),
            swaps=swap_rate / egr,
            purifications=purify_rate / egr,
            pairs=len(entries),
        )

    def to_json(self) -> dict:
        return {
            "egr": self.egr,
            "fidelity": self.fidelity,
            "capacity": self.capacity,
            "swaps": self.swaps,
            "purifications": self.purifications,
            "pairs": self.pairs,
            "ensembles": [[f, r] for f, r in self.ensembles.entries],
            "protocols": [
                {"fidelity": p.fidelity, "rate": p.rate, "tree": p.tree}
                for p in self.protocols
            ],
        }


EMPTY_SCHEME = DistributionScheme(
    protocols=(), ensembles=EnsembleSpec(()), egr=0.0, fidelity=0.0,
    capacity=0.0, swaps=0.0, purifications=0.0, pairs=0,
)


def _trace_tree(
    hg: Hypergraph, producers: dict[int, list[tuple]], vertex: int, memo: dict[int, str]
) -> str:
    """Representative max-rate production tree for a vertex, as text.

    ``producers`` lists, per vertex, the edges with positive rate into it
    as (rate, -edge index, op, inputs), so the max has the top rate, then
    the lowest index."""
    if vertex in memo:
        return memo[vertex]
    memo[vertex] = "..."  # cycle guard; never hit on a valid DAG
    cands = producers.get(vertex)
    if not cands:
        memo[vertex] = "?"
        return "?"
    _, _, op, inputs = max(cands)
    if op == "start":
        text = f"link({hg.columns.u[vertex]}|{hg.columns.v[vertex]})"
    else:
        parts = [_trace_tree(hg, producers, vi, memo) for vi in inputs]
        text = f"{op}({', '.join(parts)})"
    memo[vertex] = text
    return text


def extract_scheme(hg: Hypergraph, solution: LPSolution) -> DistributionScheme:
    """Read a solved LP back into delivered ensembles and metrics.

    Swap/purify counts are rate-weighted: total operation rate divided by
    total end rate, so fractional values are expected for mixtures.
    """
    if solution.status != "optimal":
        raise LPError("scheme extraction requires an optimal solution")
    cols = hg.columns
    # only edges with positive rate can carry flow or appear in a tree
    ids = np.flatnonzero(solution.rates > RATE_EPS)
    columns = (solution.rates, cols.op, cols.input0, cols.input1, cols.output)
    active = [
        (ei, r, OP_NAMES[op], [in0] if in1 < 0 else [in0, in1], out)
        for ei, r, op, in0, in1, out in zip(ids.tolist(), *(c[ids].tolist() for c in columns))
    ]
    producers: dict[int, list[tuple]] = {}
    for ei, r, op, inputs, out in active:
        producers.setdefault(out, []).append((r, -ei, op, inputs))
    protocols: list[ProtocolFlow] = []
    memo: dict[int, str] = {}
    swap_rate = 0.0
    pur_rate = 0.0
    for _, r, op, inputs, _ in active:
        if op == "swap":
            swap_rate += r
        elif op == "purify":
            pur_rate += r
        elif op == "end":
            protocols.append(
                ProtocolFlow(
                    fidelity=float(cols.exact_fidelity[inputs[0]]), rate=r,
                    tree=_trace_tree(hg, producers, inputs[0], memo),
                )
            )
    return DistributionScheme.from_flows(protocols, swap_rate, pur_rate)
