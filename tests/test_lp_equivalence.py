"""The CSR rate LP against a per-row reference formulation.

The reference functions below are the row-list formulation, the per-term
matrix assembly, the row-by-row feasibility check and the full-edge
scheme extraction that the CSR code replaced. The CSR code must give the
same matrices, vectors, names and schemes bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _problem_matrices,
    doc_column,
    edge_records,
    make_chain,
    make_topology,
    set_doc_column,
)
from entflow.capacity import EnsembleSpec, ensemble_capacity
from entflow.hypergraph import (
    OP_CODE,
    OP_NAMES,
    FidelityGrid,
    Hypergraph,
    HypergraphError,
    build_pruned_hypergraph,
    build_standard_hypergraph,
    synthesize_multipath,
)
from entflow.lp import (
    EMPTY_SCHEME,
    FEAS_TOL,
    RATE_EPS,
    DistributionScheme,
    LPProblem,
    LPSolveError,
    ProtocolFlow,
    _check_solution,
    export_lp,
    extract_scheme,
    formulate_lp,
    parse_lp,
    solve_lp,
)
from entflow.physics import DEFAULT_NOISE, PURIFY_MODELS

# --- reference: per-row formulation, assembly, check and extraction ---------


def _ref_formulate(hg, objective, f_lb):
    fidelity = hg.columns.exact_fidelity.tolist()
    edges = edge_records(hg)
    n = len(edges)
    c = np.zeros(n)
    forced = set()
    for ei, e in enumerate(edges):
        if e.op != "end":
            continue
        if objective == "ensemble-capacity":
            c[ei] = e.capacity_coeff
        elif fidelity[e.inputs[0]] >= f_lb:
            c[ei] = 1.0
        else:
            forced.add(ei)
    rows, rhs, names = [], [], []
    per_vertex = {vi: {} for vi in range(2, len(fidelity))}  # the link vertices
    for ei, e in enumerate(edges):
        for vi in e.inputs:
            if vi in per_vertex:
                per_vertex[vi][ei] = per_vertex[vi].get(ei, 0.0) + 1.0
        if e.output in per_vertex:
            credit = 0.5 * e.p_succ if e.op == "purify" else 1.0
            row = per_vertex[e.output]
            row[ei] = row.get(ei, 0.0) - credit
    for vi in sorted(per_vertex):
        rows.append(sorted(per_vertex[vi].items()))
        rhs.append(0.0)
        names.append(f"v_{vi}")
    per_link = {}
    for ei, e in enumerate(edges):
        if e.op == "start" and e.link_key is not None:
            per_link.setdefault(e.link_key, []).append((ei, 1.0))
    for key in sorted(per_link):
        rows.append(per_link[key])
        rhs.append(hg.link_limits[key])
        names.append(f"l_{key}")
    return c, rows, np.array(rhs), names, frozenset(forced)


def _ref_matrices(num_vars, objective, rows, forced):
    data, ri, ci = [], [], []
    for r, row in enumerate(rows):
        for var, coef in row:
            if var in forced:
                continue
            ri.append(r)
            ci.append(var)
            data.append(coef)
    mat = sp.coo_matrix((data, (ri, ci)), shape=(len(rows), num_vars)).tocsr()
    c = objective.copy()
    if forced:
        c[list(forced)] = 0.0
    return c, mat


def _ref_check(rows, rhs, x):
    """True when the row-by-row check accepts ``x``."""
    if np.any(x < -RATE_EPS):
        return False
    scale = max(1.0, float(np.max(np.abs(rhs))) if len(rows) else 1.0)
    for row, limit in zip(rows, rhs):
        if sum(coef * x[var] for var, coef in row) > limit + FEAS_TOL * scale:
            return False
    return True


def _ref_tree(hg, edges, rates, producers, vertex, memo):
    if vertex in memo:
        return memo[vertex]
    memo[vertex] = "..."
    cands = [ei for ei in producers.get(vertex, ()) if rates[ei] > RATE_EPS]
    if not cands:
        memo[vertex] = "?"
        return "?"
    e = edges[max(cands, key=lambda k: (rates[k], -k))]
    if e.op == "start":
        u, v = hg.columns.pair(vertex)
        text = f"link({u}|{v})"
    else:
        parts = [_ref_tree(hg, edges, rates, producers, vi, memo) for vi in e.inputs]
        text = f"{e.op}({', '.join(parts)})"
    memo[vertex] = text
    return text


def _ref_extract(hg, rates):
    fidelity = hg.columns.exact_fidelity.tolist()
    entries, protocols, producers, memo = [], [], {}, {}
    edges = edge_records(hg)
    for ei, e in enumerate(edges):
        producers.setdefault(e.output, []).append(ei)
    swap_rate = pur_rate = 0.0
    for ei, e in enumerate(edges):
        r = float(rates[ei])
        if r <= RATE_EPS:
            continue
        if e.op == "swap":
            swap_rate += r
        elif e.op == "purify":
            pur_rate += r
        elif e.op == "end":
            f = fidelity[e.inputs[0]]
            entries.append((f, r))
            protocols.append(ProtocolFlow(fidelity=f, rate=r, tree=_ref_tree(
                hg, edges, rates, producers, e.inputs[0], memo)))
    egr = sum(r for _, r in entries)
    if egr <= 0.0:
        return EMPTY_SCHEME
    spec = EnsembleSpec(tuple(entries))
    return DistributionScheme(
        protocols=tuple(protocols), ensembles=spec, egr=egr,
        fidelity=sum(f * r for f, r in entries) / egr, capacity=ensemble_capacity(spec),
        swaps=swap_rate / egr, purifications=pur_rate / egr, pairs=len(entries),
    )


# --- comparison ---------------------------------------------------------------


def _same_csr(a, b):
    for field in ("indptr", "indices", "data"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
    assert a.shape == b.shape


def _assert_equivalent(hg, objective, f_lb):
    problem = formulate_lp(hg, objective, f_lb)
    c, rows, rhs, names, forced = _ref_formulate(hg, objective, f_lb)
    assert problem.num_vars == len(hg.columns.op)
    assert problem.objective.tobytes() == c.tobytes()
    assert problem.rhs.tobytes() == rhs.tobytes()
    assert problem.row_names == names
    assert problem.forced_zero == forced
    assert problem.rows == rows
    ref_c, ref_mat = _ref_matrices(problem.num_vars, c, rows, forced)
    got_c, got_mat = _problem_matrices(problem)
    assert got_c.tobytes() == ref_c.tobytes()
    _same_csr(got_mat, ref_mat)
    assert parse_lp(export_lp(problem)).rows == problem.rows
    solution = solve_lp(problem)
    assert extract_scheme(hg, solution) == _ref_extract(hg, solution.rates)
    return problem, solution


lengths = st.lists(st.floats(min_value=20.0, max_value=150.0), min_size=1, max_size=5)


@settings(max_examples=30, deadline=None)
@given(
    lengths,
    st.integers(min_value=2, max_value=40),
    st.sampled_from(PURIFY_MODELS),
    st.floats(min_value=0.5, max_value=1.0),
)
def test_pruned_chains_match_reference(lengths_km, size, model, f_lb):
    hg = build_pruned_hypergraph(make_chain(lengths_km), FidelityGrid.uniform(size),
                                 DEFAULT_NOISE, model)
    _assert_equivalent(hg, "ensemble-capacity", None)
    _assert_equivalent(hg, "end-rate", f_lb)


@pytest.mark.parametrize("lengths_km,size,model", [
    ([70.0], 5, "ideal-dejmps"),
    ([60.0, 80.0], 8, "ideal-dejmps"),
    ([50.0, 60.0, 70.0], 10, "as-printed"),
    ([40.0, 90.0, 60.0], 12, "ideal-dejmps"),
])
def test_standard_lattices_match_reference(lengths_km, size, model):
    hg = build_standard_hypergraph(make_chain(lengths_km), FidelityGrid.uniform(size),
                                   DEFAULT_NOISE, model)
    _assert_equivalent(hg, "ensemble-capacity", None)
    rng = np.random.default_rng(size)
    for f_lb in (0.5, *rng.uniform(0.6, 0.99, size=3)):
        _assert_equivalent(hg, "end-rate", float(f_lb))


def test_synthesized_multipath_matches_reference():
    topo = make_topology([("s", "a", 40.0), ("a", "d", 50.0), ("a", "b", 30.0),
                          ("b", "d", 35.0), ("s", "c", 60.0), ("c", "d", 45.0)])
    grid = FidelityGrid.uniform(16)
    paths = [["s", "a", "d"], ["s", "a", "b", "d"], ["s", "c", "d"]]
    hg = synthesize_multipath([
        build_pruned_hypergraph(topo.path_from_nodes(p), grid, DEFAULT_NOISE) for p in paths
    ])
    assert len(hg.link_limits) == 6  # link s-a is shared by two paths
    problem, solution = _assert_equivalent(hg, "ensemble-capacity", None)
    assert solution.objective_value > 0.0
    for f_lb in (0.7, 0.85, 0.95):
        _assert_equivalent(hg, "end-rate", f_lb)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_matvec_check_agrees_with_row_by_row_check(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 30)), int(rng.integers(1, 12))
    rows = [
        [(j, float(c)) for j, c in enumerate(rng.uniform(-1.0, 2.0, size=n)) if abs(c) > 0.2]
        for _ in range(m)
    ]
    x = rng.uniform(0.0, 5.0, size=n)
    lhs = np.array([sum(c * x[j] for j, c in row) for row in rows])
    # each row sits clearly inside its limit, or clearly inside or outside
    margin = rng.uniform(0.01, 1.0, size=m)
    for rhs in (lhs + margin, lhs + margin * rng.choice([-1.0, 1.0], size=m)):
        problem = LPProblem(num_vars=n, objective=np.zeros(n), rows=rows, rhs=rhs,
                            row_names=[f"c_{i}" for i in range(m)])
        for vec in (x, -x):
            accepted = _ref_check(rows, rhs, vec)
            try:
                _check_solution(problem, vec)
            except LPSolveError:
                assert not accepted
            else:
                assert accepted


def test_columns_reject_edges_outside_the_op_vocabulary():
    hg = build_pruned_hypergraph(make_chain([50.0]), FidelityGrid.uniform(4), DEFAULT_NOISE)
    # an edge appended to the document's table: of an unknown op, or an end with two inputs
    end = {"input0": 2, "output": 1, "rate_bound": np.nan}
    for bad, match in (({**end, "op": len(OP_NAMES), "input1": -1}, "unknown op 4"),
                       ({**end, "op": OP_CODE["end"], "input1": 2}, r"end takes 1 input\(s\)")):
        doc = hg.to_json()
        for name, value in bad.items():
            set_doc_column(doc, name, np.append(doc_column(doc, name), value))
        with pytest.raises(HypergraphError, match=match):
            odd = Hypergraph.from_json(doc)
            formulate_lp(odd, "ensemble-capacity")
