"""Rate-allocation linear programs over operation hypergraphs.

One decision variable per hyper-edge (its execution rate, pairs/s).
Constraints: a flow row per link-state vertex (consumption cannot exceed
production, a purification crediting ``PURIFY_CREDIT`` pairs per successful
attempt) and a generation-limit row per physical link. Objectives: aggregate
ensemble capacity of the end edges, or total end rate restricted to end
fidelities above a lower bound.

The constraint matrix, rhs and row names depend only on the hypergraph;
only the objective and the forced-zero set change with the objective and
``f_lb``. ``Hypergraph.rate_lp`` builds that constant part once per
hypergraph (a ``RateLP``) from its edge table (``Hypergraph.columns``),
and every problem formulated from the hypergraph shares it. Scheme
extraction reads the same table, for the edges with positive rate only.

A solve runs HiGHS (Huangfu & Hall 2018), driven through scipy's
private bindings (``scipy.optimize._highspy._core``), checked once at
import: a missing module, class or method raises ``ImportError`` naming
it. A deterministic dense tableau simplex (``method="simplex"``) is kept
to cross-check it on small problems. Every problem owns one ``RateLP``:
one formulated from a hypergraph shares ``hg.rate_lp``, checked with the
hypergraph; one built from row lists or parsed text checks its arguments
once, when made, and builds its own, all live. No solve re-checks them. A
``RateLP`` compiles one HiGHS model (a ``HighsLp``) on its first HiGHS
solve and keeps it, behind a lock. Each solving thread keeps
one HiGHS solver. A solve resets the solver's options and sets them
again, loads the model into it, which discards the last basis and
solution, sets the nonzero costs, gives the forced-zero variables an
upper bound of 0 and runs cold with presolve, primal simplex first; when
the checks refuse its answer, the same cold solve runs again with dual
simplex, checked in turn. A ``RateLP`` asked to repeat its last solve
presolves that objective once and keeps the HiGHS instance that did it:
each repeat runs the reduced model cold, presolve off, and postsolves on
the kept instance, as a run with presolve does (see ``solve_highs``).

A hypergraph's model holds only its live part: the edges whose inputs
can all be produced from the source through live edges and whose output
leads to the sink, and the rows they touch. Every other edge is zero in
some optimum, so the rates of the full problem are the live rates with
exact zeros elsewhere (the classic presolve reduction of Andersen &
Andersen 1995, done once per hypergraph instead of once per solve). Only
the live part is assembled with the rhs and row names, and both backends
solve it: costs and the forced mask are set on the live columns, and the
answer, zero elsewhere by construction, is checked on the live rows; an
answer with rate off them is refused. The full ``matrix`` is built on
its first read, by ``LPProblem.matrix``, ``rows`` and the interchange
format only. HiGHS runs at a dual feasibility tolerance of 1e-10: at the
1e-7 default, lattice LPs whose link prices are tiny (one delivered pair
costing about 1e6 swaps) stopped up to 1.4e-3 below the optimum. A
hypergraph solve is then certified from HiGHS's row prices
(``_check_optimality``). The objective is the optimum's; the rates are
one optimal vertex's, which the simplex strategy picks among many.

A plain-text interchange format allows cross-checking one backend
against the other, or against external tools.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
import scipy
import scipy.sparse as sp

from .capacity import EnsembleSpec, ensemble_capacity
from .hypergraph import OP_CODE, OP_NAMES, SINK, Hypergraph, HypergraphColumns
from .physics import PURIFY_CREDIT, check_int, check_real

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
    for name in ("_Highs", "HighsLp", "MatrixFormat", "HighsModelStatus", "HighsStatus",
                 "HighsPresolveStatus"):
        if not hasattr(_core, name):
            raise missing(f"_highspy._core.{name}")
    for method in ("setOptionValue", "resetOptions", "passModel", "changeColsCost",
                   "changeColsBounds", "run", "getModelStatus", "getInfo", "getSolution",
                   "presolve", "getModelPresolveStatus", "getPresolvedLp", "getBasis",
                   "postsolve"):
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
# one HiGHS solver per solving thread, made on the thread's first solve: solvers
# kept per hypergraph would hold their working memory for the graph's life. A
# hypergraph keeps only the presolve of an objective solved twice in a row
# (``_Presolved``, about 0.7 MB after its first postsolve); a first solve, a
# presolve status other than kReduced, and presolve off keep the plain path
_THREAD = threading.local()


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
    matrix, rhs and row names live in the problem's ``RateLP``, built here,
    where every argument is checked once (``LPError`` names the first bad
    entry), or shared by ``formulate_lp`` from a hypergraph, checked when
    made. A solve re-checks neither.
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
        n = check_int(num_vars, "num_vars", LPError)
        if len(objective) != n:
            raise LPError("objective length disagrees with variable count")
        if not len(rows) == len(rhs) == len(row_names):
            raise LPError("row data lengths disagree")
        indptr = np.zeros(len(rows) + 1, np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        terms = [term for row in rows for term in row]
        variables, coefs = [var for var, _ in terms], [coef for _, coef in terms]

        def row(k: int) -> int:  # the row that holds term k
            return int(np.searchsorted(indptr, k, side="right")) - 1

        def term(k: int) -> str:
            return f"row {row_names[row(k)]}: term {k - indptr[row(k)]}"

        entries = (
            (row_names, str, lambda i: f"row_names entry {i}:"),
            (objective, Real, lambda j: f"objective coefficient of r_{j}"),
            (rhs, Real, lambda i: f"row {row_names[i]}: rhs"),
            (variables, Integral, lambda k: f"{term(k)}: variable"),
            (coefs, Real, lambda k: f"{term(k)}: coefficient"),
        )
        for values, kind, subject in entries:  # each entry's type, before any conversion
            first = _first_wrong(values, kind)
            if first:
                raise LPError(f"{subject(first[0])} {first[1]!r} is not {_KIND_NAMES[kind]}")
        try:
            objective, rhs = np.asarray(objective, dtype=float), np.asarray(rhs, dtype=float)
            data = np.fromiter(coefs, np.float64, len(terms))
        except OverflowError:  # an int no float can hold: name the first
            for values, kind, subject in entries:
                for place, value in enumerate(values if kind is Real else ()):
                    try:
                        float(value)
                    except OverflowError:  # not shown: an int of over 4300 digits has no repr
                        raise LPError(f"{subject(place)} is too large for a float") from None
            raise
        bad = ~np.isfinite(data)
        if terms and not (0 <= min(variables) and max(variables) < n):  # before any conversion
            bad |= np.fromiter((not 0 <= var < n for var in variables), bool, len(terms))
        for k in np.flatnonzero(bad)[:1]:  # the first bad term, if any
            where, var = f"row {row_names[row(k)]}", int(variables[k])
            if not 0 <= var < n:
                raise LPError(f"{where}: variable r_{var} outside [0, {n})")
            what = "NaN" if np.isnan(data[k]) else "infinite"
            raise LPError(f"{where}: coefficient {float(data[k])!r} of r_{var} is {what}")
        wrong = _wrong_types(forced_zero, Integral)
        if wrong:
            entry = min(repr(i) for i in forced_zero if type(i) in wrong)
            raise LPError(f"forced_zero entry {entry} is not an integer")
        outside = sorted(i for i in forced_zero if not 0 <= i < n)
        if outside:
            raise LPError(f"forced_zero index {outside[0]} outside [0, {n})")
        # HiGHS would read an infinite cost or rhs as a special value, and the
        # tableau would carry it into its answer
        for test, what in ((np.isnan, "NaN"), (np.isinf, "not finite")):
            for j in np.flatnonzero(test(objective))[:1]:
                raise LPError(f"objective coefficient of r_{j} is {what}")
            for i in np.flatnonzero(test(rhs))[:1]:
                raise LPError(f"row {row_names[i]}: rhs is {what}")
        matrix = sp.csr_matrix((data, np.fromiter(variables, np.int64, len(terms)), indptr),
                               shape=(len(rows), n))
        self.objective, self.forced_zero = objective, forced_zero
        self._base = RateLP(n, rhs, tuple(row_names), matrix, np.arange(n), np.arange(len(rhs)))

    @classmethod
    def _sharing(
        cls, base: RateLP, objective: np.ndarray, forced_zero: frozenset[int]
    ) -> LPProblem:
        """A problem on ``base`` as it is: a hypergraph's part, checked when built."""
        problem = cls.__new__(cls)
        problem._base, problem.objective, problem.forced_zero = base, objective, forced_zero
        return problem

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
        return self._base.shape[1]

    @property
    def num_rows(self) -> int:
        return self._base.shape[0]

    @property
    def rows(self) -> list[list[tuple[int, float]]]:
        """Per row, its ``(variable, coefficient)`` terms in matrix order."""
        ptr = self.matrix.indptr.tolist()
        terms = list(zip(self.matrix.indices.tolist(), self.matrix.data.tolist()))
        return [terms[lo:hi] for lo, hi in zip(ptr, ptr[1:])]


_KIND_NAMES = {str: "a string", Real: "a real number", Integral: "an integer"}


def _wrong_types(values, kind: type) -> set[type]:
    """The types among ``values`` that are not ``kind``, a boolean being no
    number; each distinct type is tested once."""
    return {t for t in set(map(type, values)) if issubclass(t, bool) or not issubclass(t, kind)}


def _first_wrong(values, kind: type) -> tuple | None:
    """(place, value) of the first of ``values`` of a ``_wrong_types`` type, or
    None; a numpy array whose dtype is a ``kind`` is not read entry by entry."""
    if isinstance(values, np.ndarray) and issubclass(values.dtype.type, kind):
        return None
    wrong = _wrong_types(values, kind)
    return next((kv for kv in enumerate(values) if type(kv[1]) in wrong), None) if wrong else None


@dataclass(frozen=True)
class LPSolution:
    """An optimal solution: a solve that finds none raises ``LPSolveError``."""

    objective_value: float
    rates: np.ndarray
    iterations: int
    method: str


class RateLP:
    """The part of a hypergraph's rate LP that no objective changes.

    Its ``shape`` (rows, variables), matrix (CSR), rhs and row names, all
    read-only, and the HiGHS model compiled on the first HiGHS solve. One
    per hypergraph (``Hypergraph.rate_lp``), it lives and dies with it.

    It names its ``live`` columns and the rows they touch (``live_rows``),
    whose submatrix ``part`` alone is solved, by either backend, and checks
    an answer (zero off the live columns), and the certificate's transposes
    of ``part`` and ``abs(part)`` (``part_t``, ``abs_part_t``). A hypergraph's
    part also has ``rate_cap``, a bound on every feasible rate; ``matrix``
    is built from ``table`` on first read; ``ends`` holds the end edges,
    their input fidelities and capacity coefficients, for ``formulate_lp``.
    A part built from rows has no ``table``: its live part is all of it
    (``part`` is the matrix), and with no ``rate_cap`` nothing certifies it.
    """

    def __init__(self, num_vars: int, rhs: np.ndarray, row_names: tuple[str, ...],
                 part: sp.csr_matrix, live: np.ndarray, live_rows: np.ndarray,
                 rate_cap: float | None = None, table: tuple | None = None,
                 ends: tuple | None = None) -> None:
        self.shape, self.rhs, self.row_names, self.part = (len(rhs), num_vars), rhs, row_names, part
        self.live, self.live_rows, self.rate_cap, self.ends = live, live_rows, rate_cap, ends
        magnitude = np.abs(part.data)
        magnitude.flags.writeable = False
        self.part_t = part.T
        self.abs_part_t = sp.csr_matrix((magnitude, part.indices, part.indptr), part.shape).T
        self._table, self._matrix = table, (part if table is None else None)
        self._lock, self._model = threading.Lock(), None
        # the key of the last HiGHS solve, and the presolve kept for a repeated one
        self._last, self._presolved = None, None

    @property
    def matrix(self) -> sp.csr_matrix:
        with self._lock:
            if self._matrix is None:
                # the (data, ij) constructor sorts each row by variable and sums the
                # two terms of a purification that draws both inputs from one vertex
                matrix = sp.csr_matrix(_terms(*self._table, slice(None)), shape=self.shape)
                for array in (matrix.data, matrix.indices, matrix.indptr):
                    array.flags.writeable = False
                self._matrix = matrix
            return self._matrix

    @classmethod
    def of(cls, hg: Hypergraph) -> RateLP:
        """Flow row per link-state vertex, in vertex order: total out-rate
        minus in-credit <= 0; then one generation-limit row per physical link.
        Only the live edges' terms are assembled, into ``part``."""
        flow_rows = len(hg.columns.exact_fidelity) - 2  # none for the source or the sink
        # not hg: a RateLP holding it would make a cycle that outlives its last reference
        table = (hg.columns, hg.p_succ, hg.link, flow_rows)
        live = np.flatnonzero(_live_edges(hg.columns))
        data, (row, col) = _terms(*table, live)
        touched = np.unique(row)
        part = sp.csr_matrix((data, (np.searchsorted(touched, row), col)),
                             shape=(len(touched), len(live)))
        limits = np.array([hg.link_limits[k] for k in hg.link_keys], np.float64)
        rhs = np.concatenate([np.zeros(flow_rows), limits])
        end = np.flatnonzero(hg.columns.op == OP_CODE["end"])
        ends = (end, hg.columns.exact_fidelity[hg.columns.input0[end]], hg.capacity_coeff[end])
        for array in (part.data, part.indices, part.indptr, rhs, live, touched, *ends):
            array.flags.writeable = False  # shared by every problem of the hypergraph
        names = [f"v_{vi}" for vi in range(2, flow_rows + 2)] + [f"l_{k}" for k in hg.link_keys]
        # each edge draws its rate from each input and makes at most its rate in
        # pairs (PURIFY_CREDIT <= 1), so no rate exceeds the pairs the links generate
        return cls(len(hg.columns.op), rhs, tuple(names), part, live, touched,
                   float(limits.sum()), table, ends)

    def solve_highs(self, cost: np.ndarray, upper: np.ndarray, strategy: int = PRIMAL_SIMPLEX):
        """Cold HiGHS run of min cost.x, Ax <= rhs, 0 <= x <= upper, with the
        simplex ``strategy`` (``PRIMAL_SIMPLEX`` or ``DUAL_SIMPLEX``), on the
        ``live`` columns: ``cost`` and ``upper`` cover them, and so does x.

        The model is compiled on the first call and kept. Each call loads
        it into its thread's solver, made on the thread's first call; the
        load discards the last basis, so every run is cold. Between calls
        the solver keeps its working memory, sized by the largest model it
        has run: about 1.5 MB of RSS after the largest of the benchmark's
        planner models (2,631 live nonzeros), 0.7 MB after one grid-60
        lattice model, freed when the thread ends.

        A call that repeats the last one on this part (the same
        ``_HIGHS_OPTIONS``, ``cost`` bytes and ``upper`` bytes, compared
        under the lock) presolves once (``_Presolved``) and keeps that
        until another objective repeats. Each call with that objective
        runs the reduced model cold in the thread's solver with presolve
        off, and postsolves on the kept instance under the lock. A run
        with presolve takes these steps itself, so x, y and the iteration
        count are a fresh solver's. The whole model runs instead on a
        first call, when presolve is off in ``_HIGHS_OPTIONS``, when the
        presolve status is not ``kReduced`` (not reduced, reduced to
        empty, infeasible or unbounded), and when the reduced answer does
        not postsolve to an optimum without a clean-up iteration. A kept
        presolve holds about 0.25 MB of RSS, and 0.47 MB more after its
        first postsolve (mean over the benchmark's 12 planner models).
        Returns x, the row prices y = max(0, -row dual) over every row
        (zeros off the live ones) and the iteration count.
        """
        n, y = len(self.live), np.zeros(self.shape[0])
        if n == 0:  # nothing is live: HiGHS would call the model empty
            return np.zeros(0), y, 0
        key = (tuple(_HIGHS_OPTIONS.items()), cost.tobytes(), upper.tobytes())
        with self._lock:
            if self._model is None:
                self._model = _compile_highs(self.part, self.rhs[self.live_rows])
            kept = self._presolved
            if kept is None or kept.key != key:
                kept = None
                if key == self._last and _HIGHS_OPTIONS["presolve"] == "on":
                    kept = self._presolved = _Presolved(key, self._model, cost, upper)
            self._last = key
        answer = kept.solve(strategy, self._lock) if kept else None
        if answer is None:
            solver = _thread_solver(strategy)
            with self._lock:
                _load(solver, self._model, cost, upper)
            solver.run()
            status, statuses = solver.getModelStatus(), _HIGHS.HighsModelStatus
            # the statuses scipy's HiGHS interface reads as infeasible and as unbounded
            if status in (statuses.kInfeasible, statuses.kModelError):
                raise LPSolveError("HiGHS: problem is infeasible")
            if status == statuses.kUnbounded:
                raise LPSolveError("HiGHS: problem is unbounded")
            if status != statuses.kOptimal:
                raise LPSolveError(f"HiGHS failed: model status {status.name}")
            answer = _answer(solver, solver)
        x, row_dual, iterations = answer
        y[self.live_rows] = np.maximum(0.0, -row_dual)
        return x, y, iterations


class _Presolved:
    """A HiGHS instance holding one objective's model after its presolve,
    and the reduced model (a ``HighsLp``) the presolve left, or None when
    the presolve did not reduce the model. Kept by a ``RateLP`` for the
    objective it solves repeatedly, it lives and dies with it. Its size is
    given in ``RateLP.solve_highs``; most of it comes from the first
    postsolve, which factors the whole model."""

    def __init__(self, key: tuple, model, cost: np.ndarray, upper: np.ndarray) -> None:
        self.key, self.highs, self.reduced = key, _HIGHS._Highs(), None
        _configure(self.highs)
        _load(self.highs, model, cost, upper)
        self.highs.presolve()
        if self.highs.getModelPresolveStatus() == _HIGHS.HighsPresolveStatus.kReduced:
            self.reduced = self.highs.getPresolvedLp()
            # the postsolve cleans up with simplex on the whole model; a clean-up
            # that needs an iteration, which a fresh run would count, stops instead.
            # A run with presolve also hands the clean-up the pivot threshold its
            # reduced solve ended with, which the bindings do not expose; it moves
            # from the option's only on numerical trouble
            self.highs.setOptionValue("simplex_iteration_limit", 0)

    def solve(self, strategy: int, lock: threading.Lock):
        """(x, row duals, iterations) of a cold run of the reduced model by the
        thread's solver, postsolved under ``lock``; None when there is no
        reduced model or its answer does not postsolve to an optimum."""
        if self.reduced is None:
            return None
        solver = _thread_solver(strategy)
        solver.setOptionValue("presolve", "off")
        with lock:
            loaded = solver.passModel(self.reduced)
        if loaded == _HIGHS.HighsStatus.kError:
            return None
        solver.run()
        if solver.getModelStatus() != _HIGHS.HighsModelStatus.kOptimal:
            return None
        with lock:
            self.highs.postsolve(solver.getSolution(), solver.getBasis())
            if self.highs.getModelStatus() != _HIGHS.HighsModelStatus.kOptimal:
                return None
            return _answer(self.highs, solver)


def _configure(highs) -> None:
    """Give ``highs`` the ``_HIGHS_OPTIONS``, and no option of an earlier solve."""
    highs.resetOptions()
    for key, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(key, value)


def _thread_solver(strategy: int):
    """This thread's HiGHS solver, made on its first call, set up for ``strategy``."""
    solver = getattr(_THREAD, "solver", None)
    if solver is None:
        solver = _THREAD.solver = _HIGHS._Highs()
    _configure(solver)
    solver.setOptionValue("simplex_strategy", strategy)
    return solver


def _load(highs, model, cost: np.ndarray, upper: np.ndarray) -> None:
    """Load ``model`` into ``highs`` with the given costs and upper bounds."""
    if highs.passModel(model) == _HIGHS.HighsStatus.kError:
        raise LPSolveError("HiGHS rejected the model")
    # the model holds cost 0 and bounds [0, inf): send only the columns that differ
    index = np.flatnonzero(cost).astype(np.int32)
    if len(index):
        highs.changeColsCost(len(index), index, cost[index])
    index = np.flatnonzero(upper != np.inf).astype(np.int32)
    if len(index):
        highs.changeColsBounds(len(index), index, np.zeros(len(index)), upper[index])


def _answer(highs, ran) -> tuple[np.ndarray, np.ndarray, int]:
    """The column values and row duals of ``highs``'s solution, and the
    iterations of ``ran``'s last run."""
    info, solution = ran.getInfo(), highs.getSolution()
    # scipy's count: simplex iterations, or IPM ones if there were none
    return (np.fromiter(solution.col_value, np.float64),
            np.fromiter(solution.row_dual, np.float64),
            int(info.simplex_iteration_count or info.ipm_iteration_count))


def _terms(cols: HypergraphColumns, p_succ: np.ndarray, link: np.ndarray, flow_rows: int,
           edges) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(value, (row, column)) of the terms of ``edges`` (an index into the
    table), columns numbered over them: 1 in each input's flow row (vi - 2
    for vertex vi), minus the credit (``PURIFY_CREDIT * p`` for a purify
    edge, else 1) in the output's, 1 in a start edge's link row."""
    in0, in1, out, op, p, lk = (a[edges] for a in (cols.input0, cols.input1, cols.output,
                                                   cols.op, p_succ, link))
    uses0, uses1, feeds = in0 >= 2, in1 >= 2, out >= 2  # input1 is -1 for one-input ops
    credit = np.where(op == OP_CODE["purify"], PURIFY_CREDIT * p, 1.0)
    starts = np.flatnonzero(lk >= 0)
    row = np.concatenate([in0[uses0] - 2, in1[uses1] - 2, out[feeds] - 2, flow_rows + lk[starts]])
    col = np.concatenate([*map(np.flatnonzero, (uses0, uses1, feeds)), starts])
    data = np.concatenate([np.ones(int(uses0.sum()) + int(uses1.sum())), -credit[feeds],
                           np.ones(len(starts))])
    return data, (row, col)


def _live_edges(cols: HypergraphColumns) -> np.ndarray:
    """Per edge, whether it can carry flow to the sink: each input can be
    produced from the source through live edges, and its output leads to
    the sink. Each direction sweeps the edge table until nothing changes:
    13 forward and 4 backward sweeps on a 6-node standard lattice at grid 60."""
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
    are built here, scattered from ``hg.rate_lp.ends``.
    """
    if objective not in OBJECTIVE_KINDS:
        raise LPError(f"unknown objective {objective!r}")
    if objective == "end-rate" and np.isnan(check_real(f_lb, "f_lb", LPError)):
        raise LPError(f"f_lb must not be NaN, got {f_lb!r}")

    base = hg.rate_lp
    ends, fidelity, capacity = base.ends
    c, forced = np.zeros(base.shape[1]), ends[:0]
    if objective == "ensemble-capacity":
        c[ends] = capacity
    else:
        above = fidelity >= f_lb
        c[ends[above]] = 1.0
        forced = ends[~above]
    return LPProblem._sharing(base, c, frozenset(forced.tolist()))


def _simplex_maximize(
    c: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, float, int]:
    """Dense tableau simplex for max c.x, Ax <= b, x >= 0, b >= 0: the optimal
    x, c.x and the iteration count; ``LPSolveError`` when unbounded.

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
        neg = np.flatnonzero(red < -_SIMPLEX_TOL)  # none in an empty problem
        if len(neg) == 0:
            break
        j = int(np.argmin(red)) if iters < bland_after else int(neg[0])
        col = tableau[:m, j]
        pos = np.nonzero(col > _SIMPLEX_TOL)[0]
        if len(pos) == 0:
            raise LPSolveError("built-in solver: problem is unbounded")
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
    return x, float(c @ x), iters


def _forced_mask(problem: LPProblem) -> np.ndarray:
    """Per variable, whether the problem forces it to zero."""
    forced = np.zeros(problem.num_vars, bool)
    forced[list(problem.forced_zero)] = True
    return forced


def solve_lp(problem: LPProblem, method: str = "highs") -> LPSolution:
    """Solve deterministically: an optimal ``LPSolution``, or an error. Only
    ``method`` and the tableau's nonnegative rhs are checked before a
    backend runs (the problem was checked when made); then the answer's
    feasibility, and the optimality of a HiGHS answer on a hypergraph. A
    problem with no variables is checked like any other.

    ``method``: ``highs``, the default, or ``simplex``, the built-in dense
    tableau, kept to cross-check HiGHS on small problems. Both solve the
    live part (``RateLP.part``), the tableau without the forced columns
    (cost 0, no terms: they never enter); the whole matrix is built only
    for ``LPProblem.matrix``, ``rows`` and ``export_lp``. HiGHS runs
    primal simplex, then dual simplex if the checks refuse the primal
    answer; the iteration count covers both runs. The objective value is
    a dot product over every column (the tableau's with forced entries
    zeroed), whose summation order the live part does not change.
    """
    if method not in ("highs", "simplex"):
        raise LPError(f"unknown method {method!r}")
    base, forced = problem._base, _forced_mask(problem)
    fixed = forced[base.live]
    cost = np.where(fixed, 0.0, problem.objective[base.live])
    if method == "simplex":
        kept, x_live = ~fixed, np.zeros(len(base.live))
        x_live[kept], _, steps = _simplex_maximize(cost[kept], base.part.toarray()[:, kept],
                                                   base.rhs[base.live_rows])
        runs, objective = [(x_live, None, steps)], np.where(forced, 0.0, problem.objective)
    else:
        upper, objective = np.where(fixed, 0.0, np.inf), problem.objective
        # lazily: the dual run is made only when the checks refuse the primal answer
        runs = (base.solve_highs(-cost, upper, s) for s in (PRIMAL_SIMPLEX, DUAL_SIMPLEX))
    iters = 0
    for x_live, y, run_iters in runs:
        iters += run_iters
        x = np.zeros(problem.num_vars)
        x[base.live] = np.where(fixed, 0.0, x_live)
        obj = float(objective @ x)
        try:
            _check_solution(problem, x)
            if y is not None:
                _check_optimality(problem, fixed, cost, obj, y)
            return LPSolution(obj, x, iters, method)
        except LPSolveError as exc:
            refusal = exc
    raise refusal


def _check_solution(problem: LPProblem, x: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise LPSolveError(f"non-finite rate {float(x[bad[0]])!r} for r_{bad[0]} in solution")
    bad = np.flatnonzero(x < -RATE_EPS)
    if len(bad):
        raise LPSolveError(f"negative rate {float(x[bad[0]]):.3e} for r_{bad[0]} in solution")
    base, rhs = problem._base, problem.rhs
    if np.count_nonzero(x[base.live]) != np.count_nonzero(x):
        off = x.copy()
        off[base.live] = 0.0
        j = int(np.flatnonzero(off)[0])
        raise LPSolveError(f"rate {float(x[j])!r} for r_{j} in solution, an edge that can "
                           "carry no flow to the sink")
    if not problem.num_rows:
        return
    # an x zero off the live columns gives every other row lhs exactly 0 <= rhs,
    # and each live row the full product's lhs, less only its terms a * 0.0 (a
    # row-built problem's live part is its whole matrix)
    rows, lhs = base.live_rows, base.part @ x[base.live]
    violated = lhs > rhs[rows] + FEAS_TOL * max(1.0, float(np.max(np.abs(rhs))))
    if violated.any():
        i = int(np.argmax(np.where(violated, lhs - rhs[rows], -np.inf)))
        raise LPSolveError(
            f"constraint violated: row {base.row_names[rows[i]]} has lhs {float(lhs[i])!r} "
            f"> limit {float(rhs[rows[i]])!r} (by {lhs[i] - rhs[rows[i]]:.3e})"
        )


def _check_optimality(
    problem: LPProblem, fixed: np.ndarray, cost: np.ndarray, objective: float, y: np.ndarray
) -> None:
    """Bound how far ``objective`` can lie below the optimum; raise if too far.

    Only a hypergraph's problem has the bound: every feasible rate is at
    most its ``rate_cap`` G. For row prices y >= 0 and reduced costs
    d = c - A'y, any feasible x' has c.x' <= b.y + G * sum(max(0, d_j))
    over the live columns not forced to zero, the only ones that can be
    nonzero in an optimum (``cost`` and ``fixed`` are c and the forced
    mask there). A d_j within the rounding of its terms counts as 0. A
    bound above ``GAP_REL`` times the objective (or ``GAP_FLOOR``) names
    the edge with the worst reduced cost.
    """
    base = problem._base
    if base.rate_cap is None:
        return
    price = y[base.live_rows]
    excess = np.where(fixed, 0.0, cost - base.part_t @ price)
    # each d_j sums at most four terms: its cost, two inputs and an output
    rounding = 4 * np.finfo(np.float64).eps * (np.abs(cost) + base.abs_part_t @ price)
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
    closing ``end``. Variables are named ``r_<index>``. A row name that
    ``str.strip`` or ``str.splitlines`` would change cannot be read back,
    so it is refused with ``LPError`` naming the row's index.
    """
    for i, name in enumerate(problem.row_names):
        if name.strip() != name or "".join(name.splitlines()) != name:
            raise LPError(f"row {i}: name {name!r} cannot be written: it would not read back")
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


# a coefficient is a decimal number with an optional exponent, which float() always reads
_TERM_RE = re.compile(r"^\s*(?P<coef>[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)\s+r_(?P<var>\d+)\s*$")


def _index(digits: str, limit: int, where: str) -> int:
    """Variable index ``digits``, refused unless below ``limit``, the document's
    length, before anything is sized by it. ``export_lp`` names every variable
    that has a term, each in at least four characters, so where every variable
    has one (as in the builders' and the oracle's problems) no index it writes
    reaches the length of its text."""
    index = digits.lstrip("0") or "0"
    if len(index) > len(str(limit)) or int(index) >= limit:
        raise LPError(f"variable r_{digits} in {where}: index at or above the "
                      f"document's {limit} characters")
    return int(index)


def _parse_terms(body: str, where: str, limit: int) -> list[tuple[int, float]]:
    body = body.strip()
    if body == "0":
        return []
    out = []
    for term in body.split(" + "):
        m = _TERM_RE.match(term)
        if not m:
            raise LPError(f"cannot parse term {term!r} in {where}")
        out.append((_index(m.group("var"), limit, where), float(m.group("coef"))))
    return out


def parse_lp(text: str) -> LPProblem:
    """Parse the interchange format back into an LPProblem; a variable index
    at or above the text's length in characters is refused (see ``_index``)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "maximize":
        raise LPError("document must start with 'maximize'")
    i = 1
    if i >= len(lines) or not lines[i].strip().startswith("obj:"):
        raise LPError("missing objective line")
    obj_terms = _parse_terms(lines[i].strip()[4:], "objective", len(text))
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
            # no term holds a colon or "<=", so a row name may hold either
            head, sep, limit = stripped.rpartition("<=")
            name, colon, body = head.rpartition(":")
            if not (sep and colon):
                raise LPError(f"cannot parse constraint line {stripped!r}")
            terms = _parse_terms(body, f"row {name}", len(text))
            rows.append(terms)
            try:
                rhs.append(float(limit))
            except ValueError:
                raise LPError(f"row {name.strip()}: cannot parse limit {limit.strip()!r}") from None
            names.append(name.strip())
            max_var = max([max_var] + [v for v, _ in terms])
        else:
            m = re.match(r"^r_(\d+)\s*=\s*0$", stripped)
            if not m:
                raise LPError(f"cannot parse bounds line {stripped!r}")
            var = _index(m.group(1), len(text), "bounds")
            forced.add(var)
            max_var = max(max_var, var)
        i += 1
    else:
        raise LPError("missing 'end'")
    n = max_var + 1
    c = np.zeros(n)
    for var, coef in obj_terms:
        c[var] += coef  # a repeated variable counts every term, as in a row
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


# what a solved scheme reports of itself, in report order
SCHEME_METRICS = ("egr", "fidelity", "capacity", "swaps", "purifications", "pairs")


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

    def metrics(self) -> dict:
        """The scheme's ``SCHEME_METRICS``, by name, in that order."""
        return {name: getattr(self, name) for name in SCHEME_METRICS}

    def to_json(self) -> dict:
        return {
            **self.metrics(),
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


def extract_scheme(hg: Hypergraph, solution: LPSolution) -> DistributionScheme:
    """Read a solved LP back into delivered ensembles and metrics.

    Swap/purify counts are rate-weighted: total operation rate divided by
    total end rate, so fractional values are expected for mixtures.
    """
    cols = hg.columns
    # only edges with positive rate can carry flow or appear in a tree
    ids = np.flatnonzero(solution.rates > RATE_EPS)
    rates, out = solution.rates[ids], cols.output[ids]
    # each vertex's producer, the top rate, then the lowest index, sorts last
    # among the vertex's edges, so the dict keeps it; vertices come in order
    order = np.lexsort((-np.arange(len(ids)), rates, out))
    producer = dict(zip(out[order].tolist(), order.tolist()))
    producer.pop(SINK, None)  # an end edge makes the sink, and no tree reads its text
    rates, op, in0, in1 = (a.tolist() for a in (rates, *(c[ids] for c in (
        cols.op, cols.input0, cols.input1))))
    # each vertex's tree text, once, in vertex order: an input is numbered
    # below its output, so its text is there first
    texts: dict[int, str] = {}
    for vertex, k in producer.items():
        if op[k] == OP_CODE["start"]:
            texts[vertex] = f"link({'|'.join(cols.pair(vertex))})"
        else:
            inputs = (in0[k],) if in1[k] < 0 else (in0[k], in1[k])
            texts[vertex] = f"{OP_NAMES[op[k]]}({', '.join(texts.get(vi, '?') for vi in inputs)})"

    protocols: list[ProtocolFlow] = []
    swap_rate = 0.0
    pur_rate = 0.0
    for r, o, vi in zip(rates, op, in0):
        if o == OP_CODE["swap"]:
            swap_rate += r
        elif o == OP_CODE["purify"]:
            pur_rate += r
        elif o == OP_CODE["end"]:
            protocols.append(ProtocolFlow(fidelity=float(cols.exact_fidelity[vi]), rate=r,
                                          tree=texts.get(vi, "?")))
    return DistributionScheme.from_flows(protocols, swap_rate, pur_rate)
