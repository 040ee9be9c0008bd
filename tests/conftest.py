"""Shared fixture builders for the test suite."""

from __future__ import annotations

import base64

import numpy as np

from entflow.hypergraph import DOCUMENT_COLUMNS
from entflow.topology import Edge, Path, Topology


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
