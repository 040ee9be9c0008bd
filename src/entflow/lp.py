"""Rate-allocation linear programs over operation hypergraphs.

One decision variable per hyper-edge (its execution rate, pairs/s).
Constraints: a flow row per link-state vertex (consumption cannot exceed
production, with purification crediting half its success-weighted rate)
and a generation-limit row per physical link. Objectives: aggregate
ensemble capacity of the end edges, or total end rate restricted to end
fidelities above a lower bound.

Two solver backends: a deterministic dense tableau simplex (small
problems, no dependencies beyond numpy) and scipy's HiGHS interface for
larger instances. A plain-text interchange format allows cross-checking
one backend against the other, or against external tools.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .capacity import EnsembleSpec, ensemble_capacity
from .hypergraph import OP_CODE, Hypergraph

OBJECTIVE_KINDS = ("ensemble-capacity", "end-rate")
LP_METHODS = ("auto", "simplex", "highs")

RATE_EPS = 1e-9
FEAS_TOL = 1e-6


class LPError(ValueError):
    """Raised for malformed problems or documents."""


class LPSolveError(RuntimeError):
    """Raised when a solve fails numerically or is infeasible/unbounded."""


class LPProblem:
    """max c.x subject to A x <= rhs, x >= 0, selected x forced to 0.

    ``A`` is one CSR matrix (``matrix``), given as such or as ``rows``:
    per row, a list of ``(variable, coefficient)`` terms, kept in the
    given order. The ``rows`` attribute is a view derived from the matrix.
    Forced-zero variables keep their terms; the solve drops them.
    """

    def __init__(
        self,
        num_vars: int,
        objective: np.ndarray,
        rows: list[list[tuple[int, float]]] | sp.csr_matrix,
        rhs: np.ndarray,
        row_names: list[str],
        forced_zero: frozenset[int] = frozenset(),
        objective_kind: str = "generic",
        f_lb: float | None = None,
    ) -> None:
        self.num_vars = num_vars
        self.objective = np.asarray(objective, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.row_names = row_names
        self.forced_zero = forced_zero
        self.objective_kind = objective_kind
        self.f_lb = f_lb
        if len(self.rhs) != len(row_names):
            raise LPError("row data lengths disagree")
        if len(self.objective) != num_vars:
            raise LPError("objective length disagrees with variable count")
        if sp.issparse(rows):
            self.matrix = sp.csr_matrix(rows)
            if self.matrix.shape != (len(row_names), num_vars):
                raise LPError("matrix shape disagrees with rows and variables")
        else:
            if len(rows) != len(row_names):
                raise LPError("row data lengths disagree")
            self.matrix = _rows_matrix(rows, num_vars)
        self._validate()

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
    wall_time_s: float
    method: str


def formulate_lp(
    hg: Hypergraph, objective: str, f_lb: float | None = None
) -> LPProblem:
    """Build the rate LP for a hypergraph.

    ``ensemble-capacity`` weights each end edge by its per-pair capacity;
    ``end-rate`` maximizes total end rate and requires ``f_lb``, forcing
    end edges below the bound to zero rate.
    """
    if objective not in OBJECTIVE_KINDS:
        raise LPError(f"unknown objective {objective!r}")
    if objective == "end-rate" and f_lb is None:
        raise LPError("end-rate objective requires a fidelity lower bound")

    cols = hg.columns
    missing = [key for key in cols.link_keys if key not in hg.link_limits]
    if missing:
        raise LPError(f"start edge references unknown physical link {missing[0]}")
    n = len(cols.op)
    is_end = cols.op == OP_CODE["end"]
    forced = np.zeros(0, np.int64)
    if objective == "ensemble-capacity":
        c = np.where(is_end, cols.capacity_coeff, 0.0)
    else:
        above = cols.exact_fidelity[cols.input0] >= f_lb
        c = (is_end & above).astype(np.float64)
        forced = np.flatnonzero(is_end & ~above)

    # flow row per link-state vertex, in vertex order: total out-rate minus
    # in-credit <= 0; then one generation-limit row per physical link
    link_vertices = np.flatnonzero(cols.is_link)
    vertex_row = np.cumsum(cols.is_link) - 1
    edge = np.arange(n)
    uses0 = cols.is_link[cols.input0]
    uses1 = (cols.input1 >= 0) & cols.is_link[cols.input1]
    feeds = cols.is_link[cols.output]
    credit = np.where(cols.op == OP_CODE["purify"], 0.5 * cols.p_succ, 1.0)
    starts = np.flatnonzero(cols.link >= 0)
    row = np.concatenate([
        vertex_row[cols.input0[uses0]],
        vertex_row[cols.input1[uses1]],
        vertex_row[cols.output[feeds]],
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
    rhs = np.concatenate([np.zeros(len(link_vertices)), [hg.link_limits[k] for k in cols.link_keys]])
    names = [f"v_{vi}" for vi in link_vertices.tolist()] + [f"l_{k}" for k in cols.link_keys]

    return LPProblem(
        num_vars=n, objective=c, rows=matrix, rhs=rhs,
        row_names=names, forced_zero=frozenset(forced.tolist()),
        objective_kind=objective, f_lb=f_lb,
    )


def _simplex_maximize(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float = 1e-9
) -> tuple[str, np.ndarray, float, int]:
    """Dense tableau simplex for max c.x, Ax <= b, x >= 0, b >= 0.

    Nonnegative rhs means the slack basis is feasible, so no phase 1 is
    needed. Dantzig pricing with a switch to Bland's rule after a long
    degenerate streak guards against cycling; both rules are
    deterministic.
    """
    m, n = a.shape
    if np.any(b < -tol):
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
            if red[j] >= -tol:
                break
        else:
            neg = np.nonzero(red < -tol)[0]
            if len(neg) == 0:
                break
            j = int(neg[0])
        col = tableau[:m, j]
        pos = np.nonzero(col > tol)[0]
        if len(pos) == 0:
            return "unbounded", np.zeros(n), float("inf"), iters
        ratios = tableau[pos, -1] / col[pos]
        best = ratios.min()
        # tie-break on smallest leaving basis index (anti-cycling)
        cand = pos[ratios <= best + tol * max(1.0, abs(best))]
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


def _problem_matrices(problem: LPProblem) -> tuple[np.ndarray, sp.csr_matrix]:
    """Objective and canonical CSR matrix with forced-zero variables dropped."""
    a = problem.matrix
    c = problem.objective.copy()
    keep = np.ones(len(a.indices), bool)
    if problem.forced_zero:
        forced = np.fromiter(problem.forced_zero, np.int64, len(problem.forced_zero))
        c[forced] = 0.0
        is_forced = np.zeros(problem.num_vars, bool)
        is_forced[forced] = True
        keep = ~is_forced[a.indices]
    kept = np.concatenate([[0], np.cumsum(keep)])
    mat = sp.csr_matrix((a.data[keep], a.indices[keep], kept[a.indptr]), shape=a.shape)
    mat.sum_duplicates()
    return c, mat


def solve_lp(problem: LPProblem, method: str = "auto") -> LPSolution:
    """Solve deterministically; verifies feasibility of the answer.

    ``method``: ``simplex`` (built-in), ``highs`` (scipy), or ``auto``
    (built-in for small dense sizes, HiGHS otherwise).
    """
    auto = method == "auto"
    if auto:
        method = "simplex" if problem.num_vars * max(problem.num_rows, 1) <= 200_000 else "highs"
    t0 = time.perf_counter()
    if problem.num_vars == 0:
        return LPSolution("optimal", 0.0, np.zeros(0), 0, time.perf_counter() - t0, method)

    if method == "simplex":
        c, a = _problem_matrices(problem)
        try:
            status, x, obj, iters = _simplex_maximize(c, a.toarray(), problem.rhs)
        except LPSolveError:
            if not auto:
                raise
            # Degenerate instances can stall the dense tableau; fall back
            # to the sparse backend rather than failing the request.
            return solve_lp(problem, method="highs")
        if status != "optimal":
            raise LPSolveError(f"built-in solver: problem is {status}")
    elif method == "highs":
        c, a = _problem_matrices(problem)
        res = linprog(
            -c, A_ub=a, b_ub=problem.rhs, bounds=(0, None), method="highs"
        )
        if res.status == 2:
            raise LPSolveError("HiGHS: problem is infeasible")
        if res.status == 3:
            raise LPSolveError("HiGHS: problem is unbounded")
        if not res.success:
            raise LPSolveError(f"HiGHS failed: {res.message}")
        x = res.x
        obj = float(c @ x)
        iters = int(res.nit)
        status = "optimal"
    else:
        raise LPError(f"unknown method {method!r}")

    if problem.forced_zero:
        x = x.copy()
        x[list(problem.forced_zero)] = 0.0
    wall = time.perf_counter() - t0
    _check_solution(problem, x)
    return LPSolution(status, obj, x, iters, wall, method)


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
    hg: Hypergraph,
    rates: np.ndarray,
    producers: dict[int, list[int]],
    vertex: int,
    memo: dict[int, str],
) -> str:
    """Representative max-rate production tree for a vertex, as text.

    ``producers`` lists, per vertex, the edges with positive rate into it.
    """
    if vertex in memo:
        return memo[vertex]
    memo[vertex] = "..."  # cycle guard; never hit on a valid DAG
    cands = producers.get(vertex)
    if not cands:
        memo[vertex] = "?"
        return "?"
    ei = max(cands, key=lambda e: (rates[e], -e))
    e = hg.edges[ei]
    if e.op == "start":
        v = hg.vertices[vertex]
        text = f"link({v.u}|{v.v})"
    else:
        parts = [_trace_tree(hg, rates, producers, vi, memo) for vi in e.inputs]
        text = f"{e.op}({', '.join(parts)})"
    memo[vertex] = text
    return text


def extract_scheme(hg: Hypergraph, solution: LPSolution) -> DistributionScheme:
    """Read a solved LP back into delivered ensembles and metrics.

    Swap/purify counts are rate-weighted: total operation rate divided by
    total end rate, so fractional values are expected for mixtures.
    """
    if solution.status != "optimal":
        raise LPError("scheme extraction requires an optimal solution")
    rates = solution.rates
    entries: list[tuple[float, float]] = []
    protocols: list[ProtocolFlow] = []
    # only edges with positive rate can carry flow or appear in a tree
    active = [(ei, hg.edges[ei]) for ei in np.flatnonzero(rates > RATE_EPS).tolist()]
    producers: dict[int, list[int]] = {}
    for ei, e in active:
        producers.setdefault(e.output, []).append(ei)
    memo: dict[int, str] = {}
    swap_rate = 0.0
    pur_rate = 0.0
    for ei, e in active:
        r = float(rates[ei])
        if e.op == "swap":
            swap_rate += r
        elif e.op == "purify":
            pur_rate += r
        elif e.op == "end":
            vin = e.inputs[0]
            f = hg.vertices[vin].exact_fidelity
            entries.append((f, r))
            protocols.append(
                ProtocolFlow(
                    fidelity=f, rate=r,
                    tree=_trace_tree(hg, rates, producers, vin, memo),
                )
            )
    egr = sum(r for _, r in entries)
    if egr <= 0.0:
        return EMPTY_SCHEME
    spec = EnsembleSpec(tuple(entries))
    return DistributionScheme(
        protocols=tuple(protocols),
        ensembles=spec,
        egr=egr,
        fidelity=sum(f * r for f, r in entries) / egr,
        capacity=ensemble_capacity(spec),
        swaps=swap_rate / egr,
        purifications=pur_rate / egr,
        pairs=len(entries),
    )
