"""Shared fixture builders for the test suite."""

from __future__ import annotations

import base64
import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from hypothesis import settings
from hypothesis import strategies as st

from entflow.hypergraph import (
    DOCUMENT_COLUMNS,
    OP_NAMES,
    FidelityGrid,
    _derived,
    build_pruned_hypergraph,
    build_standard_hypergraph,
    synthesize_multipath,
)
from entflow.lp import LPProblem, _forced_mask
from entflow.physics import DEFAULT_NOISE, PURIFY_MODELS
from entflow.topology import Edge, Path, Topology

# CI keeps no example database, so a failing property prints the
# @reproduce_failure blob that replays it: pytest --hypothesis-profile=ci
settings.register_profile("ci", print_blob=True)


def make_chain(lengths_km, f0: float = 0.98, r_local: float = 12000.0,
               alpha: float = 0.21, name: str = "n") -> Path:
    """Linear repeater chain as a Path."""
    nodes = [f"{name}{i}" for i in range(len(lengths_km) + 1)]
    edges = [
        Edge(u=nodes[i], v=nodes[i + 1], length_km=float(lengths_km[i]),
             r_local=r_local, alpha_db_per_km=alpha, f0=f0)
        for i in range(len(lengths_km))
    ]
    return Topology(nodes, edges).path_from_nodes(nodes)


def make_topology(edge_specs, f0: float = 0.98) -> Topology:
    """Topology from (u, v, length_km) triples."""
    nodes = sorted({n for u, v, _ in edge_specs for n in (u, v)})
    edges = [Edge(u=u, v=v, length_km=float(km), f0=f0) for u, v, km in edge_specs]
    return Topology(nodes, edges)


def dead_link_build():
    """The pruned build of a chain a-e whose middle links b-c and c-d have f0
    0.88, below its grid [0.9, 1]: no vertex lies on node c."""
    nodes = list("abcde")
    edges = [Edge(u=u, v=v, length_km=50.0, f0=f0)
             for u, v, f0 in zip(nodes, nodes[1:], (0.98, 0.88, 0.88, 0.98))]
    grid = FidelityGrid(tuple(float(x) for x in np.linspace(0.9, 1.0, 20)))
    return build_pruned_hypergraph(Topology(nodes, edges).path_from_nodes(nodes), grid,
                                   DEFAULT_NOISE)


def _problem_matrices(problem: LPProblem) -> tuple[np.ndarray, sp.csr_matrix]:
    """Objective and canonical CSR matrix with forced-zero variables dropped."""
    a, forced = problem.matrix, _forced_mask(problem)
    keep = ~forced[a.indices]
    kept = np.concatenate([[0], np.cumsum(keep)])
    mat = sp.csr_matrix((a.data[keep], a.indices[keep], kept[a.indptr]), shape=a.shape)
    mat.sum_duplicates()
    return np.where(forced, 0.0, problem.objective), mat


def doc_column(doc: dict, name: str) -> np.ndarray:
    """One column of a hypergraph document, decoded into a writable array."""
    return np.frombuffer(base64.b64decode(doc["columns"][name]), DOCUMENT_COLUMNS[name]).copy()


def set_doc_column(doc: dict, name: str, values) -> None:
    """Store ``values`` as one column of a hypergraph document."""
    doc["columns"][name] = base64.b64encode(
        np.asarray(values, DOCUMENT_COLUMNS[name]).tobytes()).decode()


# the per-edge columns a document held before they were derived from the
# vertices, in their stored dtypes
OLDER_COLUMNS = {"p_succ": "<f8", "capacity_coeff": "<f8", "link": "<i8"}


def add_older_columns(doc: dict, hg, **values) -> dict:
    """``doc`` with the ``OLDER_COLUMNS`` added: ``hg``'s derived arrays, as
    an older writer stored them, or the arrays given as ``values``."""
    for name, dtype in OLDER_COLUMNS.items():
        column = values.get(name, getattr(hg, name))
        doc["columns"][name] = base64.b64encode(np.asarray(column, dtype).tobytes()).decode()
    return doc


class EdgeRecord(NamedTuple):
    """One edge as a record, in the fields, order and values of the record
    view the package once held; the golden digests were recorded from these."""

    op: str  # start | swap | purify | end
    inputs: tuple[int, ...]
    output: int
    p_succ: float
    link_key: str | None
    capacity_coeff: float
    rate_bound: float | None


def edge_records(hg, cols=None) -> list[EdgeRecord]:
    """The edges of ``hg`` as records, each field read off its table and its
    ``_derived`` arrays; ``cols`` stands in for the table, under the grid,
    noise, model and link keys of ``hg``."""
    cols = hg.columns if cols is None else cols
    p_succ, capacity_coeff, link = _derived(cols, hg.link_keys, hg.noise, hg.purify_model)
    keys = (*hg.link_keys, None)  # a link of -1 reads None
    return [EdgeRecord(OP_NAMES[op], (in0,) if in1 == -1 else (in0, in1), out, p, keys[k], c,
                       None if math.isnan(r) else r)
            for op, in0, in1, out, p, k, c, r in zip(
                cols.op.tolist(), cols.input0.tolist(), cols.input1.tolist(),
                cols.output.tolist(), p_succ.tolist(), link.tolist(), capacity_coeff.tolist(),
                cols.rate_bound.tolist())]


DIAMOND_PATHS = (("s", "a", "d"), ("s", "b", "d"), ("s", "a", "b", "d"))


@st.composite
def hypergraphs(draw):
    """A pruned or standard chain build, or a synthesis of diamond paths
    (two of which share the link s-a)."""
    kind = draw(st.sampled_from(["pruned", "standard", "synthesis"]))
    model = draw(st.sampled_from(PURIFY_MODELS))
    km = st.floats(min_value=20.0, max_value=150.0)
    if kind == "synthesis":
        a, b, c, d, e = draw(st.lists(km, min_size=5, max_size=5))
        topo = make_topology([("s", "a", a), ("a", "d", b), ("s", "b", c), ("b", "d", d),
                              ("a", "b", e)])
        paths = draw(st.lists(st.sampled_from(DIAMOND_PATHS), min_size=1, max_size=3,
                              unique=True))
        grid = FidelityGrid.uniform(draw(st.integers(min_value=2, max_value=40)))
        return synthesize_multipath([
            build_pruned_hypergraph(topo.path_from_nodes(list(p)), grid, DEFAULT_NOISE, model)
            for p in paths
        ])
    lengths = draw(st.lists(km, min_size=1, max_size=3 if kind == "standard" else 5))
    if kind == "standard":
        grid = FidelityGrid.uniform(draw(st.integers(min_value=1, max_value=12)))
        return build_standard_hypergraph(make_chain(lengths), grid, DEFAULT_NOISE, model)
    grid = FidelityGrid.uniform(draw(st.integers(min_value=1, max_value=60)))
    return build_pruned_hypergraph(make_chain(lengths), grid, DEFAULT_NOISE, model)
