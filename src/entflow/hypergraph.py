"""Operation hypergraphs over repeater paths.

Vertices are (node-pair, fidelity) link states plus a source and a sink;
hyper-edges are start/swap/purify/end operations carrying LP rate
variables. A hypergraph holds both once, in one table (``HypergraphColumns``)
that every reader uses; vertex kinds and buckets, and the ``vertices`` and
``edges`` records, are derived from it. Every hypergraph is checked when made.

Two builders are provided: the standard builder enumerates the full
discretized lattice (edge count grows as |V|^3 |F|^2), and the pruned
builder runs a dynamic program that keeps one best-rate incumbent per
(node-pair, fidelity-bucket) with its exact continuous fidelity (edge
count O(|V|^2 |F|)). Multi-path synthesis unions per-path hypergraphs
while pooling generation limits of shared physical links.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right, insort
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .capacity import pair_capacity
from .physics import (
    EventCounter,
    NoiseParams,
    _check_fidelity,
    dejmps,
    gate_factor,
    purify,
    purify_model_is_symmetric,
    werner_swap,
)
from .topology import Path, link_egr

if TYPE_CHECKING:
    from .lp import RateLP

SOURCE = 0
SINK = 1

SERIALIZATION_VERSION = 1

OP_NAMES = ("start", "swap", "purify", "end")  # per HypergraphColumns.op code
OP_CODE = {op: code for code, op in enumerate(OP_NAMES)}
_ARITY = (1, 2, 2, 1)  # inputs per op code
_EDGE_DTYPES = {  # the per-edge columns of HypergraphColumns
    "op": np.int8, "input0": np.int64, "input1": np.int64, "output": np.int64, "p_succ": float,
    "capacity_coeff": float, "rate_bound": float, "link": np.int64,
}


class HypergraphError(ValueError):
    """Raised for invalid builder inputs or corrupt serialized documents."""


@dataclass(frozen=True)
class FidelityGrid:
    """Sorted fidelity values inside [0.5, 1] used for discretization.

    Bucket k is the half-open interval [values[k], values[k+1]), with the
    last bucket closed at 1.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise HypergraphError("grid must contain at least one value")
        prev = None
        for v in self.values:
            if not 0.5 <= v <= 1.0:
                raise HypergraphError(f"grid value {v} outside [0.5, 1]")
            if prev is not None and v <= prev:
                raise HypergraphError("grid values must be strictly increasing")
            prev = v

    @classmethod
    def uniform(cls, size: int = 100) -> FidelityGrid:
        if size < 1:
            raise HypergraphError("grid size must be >= 1")
        return cls(tuple(float(x) for x in np.linspace(0.5, 1.0, size)))

    @property
    def resolution(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values)

    def round_down_index(self, f: float) -> int:
        """Largest k with values[k] <= f, or -1 below the grid."""
        return bisect_right(self.values, f) - 1


class HyperVertex(NamedTuple):
    """One vertex as a record, in the field order of a serialized vertex row."""

    u: str
    v: str
    exact_fidelity: float
    bucket: int  # grid round-down of exact_fidelity; -1 below the grid
    kind: str  # source (vertex 0) | sink (vertex 1) | link


class HyperEdge(NamedTuple):
    """One edge as a record, in the field order of a serialized edge row."""

    op: str  # start | swap | purify | end
    inputs: tuple[int, ...]
    output: int
    p_succ: float = 1.0
    link_key: str | None = None
    capacity_coeff: float = 0.0
    rate_bound: float | None = None


@dataclass(frozen=True)
class HypergraphStats:
    num_vertices: int
    num_edges: int
    edges_by_op: dict[str, int]
    build_time_s: float


@dataclass(frozen=True)
class HypergraphColumns:
    """The hypergraph as columns: one entry per edge, then per vertex. Vertex
    0 is the source and vertex 1 the sink (the endpoints at fidelity 0)."""

    op: np.ndarray  # OP_CODE of each edge
    input0: np.ndarray
    input1: np.ndarray  # -1 for one-input ops
    output: np.ndarray
    p_succ: np.ndarray
    capacity_coeff: np.ndarray
    rate_bound: np.ndarray  # NaN: no bound
    link: np.ndarray  # start edges: index into link_keys; -1 elsewhere
    link_keys: tuple[str, ...]  # sorted keys of the links that start edges name
    u: tuple[str, ...]  # per vertex: its node pair (u, v)
    v: tuple[str, ...]
    exact_fidelity: np.ndarray

    def __post_init__(self) -> None:
        # held by the hypergraph and shared by every LP built from it
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def _columns(vertices: tuple, link_keys: list, blocks: list) -> HypergraphColumns:
    """The columns of edge blocks (each maps every name of ``_EDGE_DTYPES``
    to a sequence), concatenated in order, over vertices (u, v, exact_fidelity)."""
    edges = {name: np.concatenate([np.asarray(block[name], dtype) for block in blocks])
             for name, dtype in _EDGE_DTYPES.items()}
    u, v, fidelity = vertices
    return HypergraphColumns(**edges, link_keys=tuple(link_keys), u=tuple(u), v=tuple(v),
                             exact_fidelity=np.array(fidelity, float))


def _by_column(edges: list[tuple]) -> dict:
    """The block of per-edge tuples in ``_EDGE_DTYPES`` order."""
    return dict(zip(_EDGE_DTYPES, zip(*edges))) if edges else dict.fromkeys(_EDGE_DTYPES, ())


def _from_rows(
    vertex_rows, rows, grid: FidelityGrid, endpoints: tuple[str, str]
) -> HypergraphColumns:
    """Columns of vertex and edge rows in the serialized field order, from
    a document or ``HyperVertex`` and ``HyperEdge`` records: the only place
    records become columns. Rows the columns cannot hold as given, a kind
    or bucket other than the one the table derives, a node name that is
    not a string and a source or sink pair other than ``endpoints`` are
    rejected."""
    if len(vertex_rows) < 2:
        raise HypergraphError("vertices must start with source and sink")
    nf = grid.resolution
    for vi, (u, v, f, b, kind) in enumerate(vertex_rows):
        if kind != ("source", "sink", "link")[min(vi, 2)]:
            raise HypergraphError(f"vertex {vi}: kind {kind!r} is not 'link'" if vi >= 2
                                  else "vertices must start with source and sink")
        for name in (u, v):
            if not isinstance(name, str):
                raise HypergraphError(f"vertex {vi}: node name {name!r} is not a string")
        if vi < 2 and (u, v) != endpoints:
            raise HypergraphError(f"vertex {vi}: node pair {(u, v)!r} is not the endpoints "
                                  f"{endpoints!r}")
        if isinstance(f, bool) or not isinstance(f, (int, float)) or not 0.0 <= f <= 1.0:
            raise HypergraphError(f"vertex {vi}: exact_fidelity {f!r} is not a real in [0, 1]")
        if isinstance(b, bool) or not isinstance(b, int) or not -1 <= b < nf:
            raise HypergraphError(f"vertex {vi}: bucket {b!r} is not an int in [-1, {nf})")
        if b != grid.round_down_index(f):
            raise HypergraphError(f"vertex {vi}: bucket {b} is not the round-down of {f!r}")
    edges, keys = [], []
    for ei, (op, inputs, output, p_succ, link_key, capacity_coeff, rate_bound) in enumerate(rows):
        code = OP_CODE.get(op)
        if code is None:
            raise HypergraphError(f"edge {ei}: unknown op {op!r}")
        arity = _ARITY[code]
        if len(inputs) != arity:
            raise HypergraphError(f"edge {ei}: {op} takes {arity} input(s), got {len(inputs)}")
        for vi in (*inputs, output):
            if not isinstance(vi, int) or isinstance(vi, bool):
                raise HypergraphError(f"edge {ei}: vertex {vi!r} is not an index")
        for name, x in (("p_succ", p_succ), ("capacity_coeff", capacity_coeff),
                        ("rate_bound", 0.0 if rate_bound is None else rate_bound)):
            if not isinstance(x, (int, float)) or isinstance(x, bool) or math.isnan(x):
                raise HypergraphError(f"edge {ei}: {name} {x!r} is not a number")
        if link_key is not None and op != "start":
            raise HypergraphError(f"edge {ei}: {op} edge names link {link_key!r}")
        keys.append(link_key)
        edges.append((code, inputs[0], inputs[1] if arity == 2 else -1, output, p_succ,
                      capacity_coeff, math.nan if rate_bound is None else rate_bound, -1))
    link_keys = sorted({key for key in keys if key is not None})
    link_of = {key: i for i, key in enumerate(link_keys)}
    block = _by_column(edges)
    block["link"] = [link_of.get(key, -1) for key in keys]
    return _columns(tuple(zip(*vertex_rows))[:3], link_keys, [block])


BUILD_COUNTER = EventCounter()  # hypergraph builder invocations


class Hypergraph:
    """Immutable operation hypergraph. Index 0 is the source, 1 the sink.

    ``edges`` is the table, which holds the vertices (``vertices`` is then
    None), or edge rows in the serialized field order (such as ``HyperEdge``
    records), which become the table with the vertex rows ``vertices``."""

    def __init__(
        self,
        vertices: list | None,
        edges: HypergraphColumns | list,
        grid: FidelityGrid,
        noise: NoiseParams,
        link_limits: dict[str, float],
        endpoints: tuple[str, str],
        builder: str,
        purify_model: str,
        build_time_s: float = 0.0,
    ) -> None:
        if vertices is not None:
            edges = _from_rows(vertices, edges, grid, endpoints)
        self.columns = edges
        self.grid = grid
        self.noise = noise
        self.link_limits = dict(link_limits)
        self.endpoints = endpoints
        self.builder = builder
        self.purify_model = purify_model
        self.build_time_s = build_time_s
        _check_references(self.columns, self.link_limits)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Reject cycles: in the vertex -> edge -> vertex digraph (vertices
        first, then edges) every strongly connected component is one node."""
        cols = self.columns
        n, m = len(cols.exact_fidelity), len(cols.op)
        edge_nodes = n + np.arange(m)
        two = cols.input1 >= 0
        tail = np.concatenate([cols.input0, cols.input1[two], edge_nodes])
        head = np.concatenate([edge_nodes, edge_nodes[two], cols.output])
        graph = sp.csr_matrix((np.ones(len(tail)), (tail, head)), shape=(n + m, n + m))
        components, _ = connected_components(graph, directed=True, connection="strong")
        if components != n + m:
            raise HypergraphError("hypergraph contains a cycle")

    @cached_property
    def vertices(self) -> tuple[HyperVertex, ...]:
        """The vertices as records, derived from the columns on first use."""
        return tuple(map(HyperVertex._make, zip(*_vertex_fields(self.columns, self.grid))))

    @cached_property
    def edges(self) -> tuple[HyperEdge, ...]:
        """The edges as records, derived from the columns on first use."""
        return tuple(map(HyperEdge._make, zip(*_edge_fields(self.columns))))

    @cached_property
    def rate_lp(self) -> RateLP:
        """The objective-free part of the rate LP and its solver model, built
        on first use and shared by every problem formulated from this graph."""
        from .lp import RateLP  # lp imports this module

        return RateLP.of(self)

    def stats(self) -> HypergraphStats:
        counts = np.bincount(self.columns.op, minlength=len(OP_NAMES)).tolist()
        return HypergraphStats(
            num_vertices=len(self.columns.exact_fidelity),
            num_edges=len(self.columns.op),
            edges_by_op=dict(zip(OP_NAMES, counts)),
            build_time_s=self.build_time_s,
        )

    def end_edges(self) -> list[tuple[int, HyperEdge]]:
        ends = np.flatnonzero(self.columns.op == OP_CODE["end"]).tolist()
        return [(i, self.edges[i]) for i in ends]

    def to_json(self) -> dict:
        return {
            "version": SERIALIZATION_VERSION,
            "builder": self.builder,
            "purify_model": self.purify_model,
            "endpoints": list(self.endpoints),
            "grid": list(self.grid.values),
            "noise": asdict(self.noise),
            "link_limits": self.link_limits,
            "build_time_s": self.build_time_s,
            "vertices": [list(row) for row in zip(*_vertex_fields(self.columns, self.grid))],
            "edges": [[op, list(inputs), out, p, key, cap, rate]
                      for op, inputs, out, p, key, cap, rate in zip(*_edge_fields(self.columns))],
        }

    @classmethod
    def from_json(cls, doc: dict) -> Hypergraph:
        try:
            if doc["version"] != SERIALIZATION_VERSION:
                raise HypergraphError(f"unsupported version {doc['version']!r}")
            return cls(
                vertices=doc["vertices"],
                edges=doc["edges"],
                grid=FidelityGrid(tuple(doc["grid"])),
                noise=NoiseParams(**doc["noise"]),
                link_limits=dict(doc["link_limits"]),
                endpoints=tuple(doc["endpoints"]),
                builder=doc["builder"],
                purify_model=doc["purify_model"],
                build_time_s=doc["build_time_s"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, HypergraphError):
                raise
            raise HypergraphError(f"corrupt hypergraph document: {exc}") from exc

    def to_json_text(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def from_json_text(cls, text: str) -> Hypergraph:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise HypergraphError(f"corrupt hypergraph document: {exc}") from exc
        return cls.from_json(doc)


def _vertex_fields(cols: HypergraphColumns, grid: FidelityGrid) -> list[list]:
    """The serialized vertex fields (u, v, exact_fidelity, bucket, kind),
    one list each; the bucket and kind are derived."""
    bucket = np.searchsorted(grid.as_array(), cols.exact_fidelity, side="right") - 1
    kind = ["source", "sink"] + ["link"] * (len(bucket) - 2)
    return [list(cols.u), list(cols.v), cols.exact_fidelity.tolist(), bucket.tolist(), kind]


def _edge_fields(cols: HypergraphColumns, ids=slice(None)) -> list[list]:
    """The serialized edge fields (op, inputs, output, p_succ, link_key,
    capacity_coeff, rate_bound), one list each, of all edges or ``ids``."""
    keys = (*cols.link_keys, None)  # a link of -1 reads None
    ops = cols.op[ids].tolist()
    pairs = zip(ops, cols.input0[ids].tolist(), cols.input1[ids].tolist())
    return [
        [OP_NAMES[op] for op in ops], [(in0, in1)[: _ARITY[op]] for op, in0, in1 in pairs],
        cols.output[ids].tolist(), cols.p_succ[ids].tolist(),
        [keys[link] for link in cols.link[ids].tolist()], cols.capacity_coeff[ids].tolist(),
        [None if math.isnan(rate) else rate for rate in cols.rate_bound[ids].tolist()],
    ]


def _check_references(cols: HypergraphColumns, link_limits: dict[str, float]) -> None:
    """Reject what no builder emits: a vertex index outside the vertices,
    p_succ outside (0, 1], capacity_coeff outside [0, 1], a negative or
    infinite rate bound, a start link without a limit and a limit that is
    not finite and positive. An edge error names the first such edge."""
    for key, limit in link_limits.items():
        if not (math.isfinite(limit) and limit > 0.0):
            raise HypergraphError(f"link {key!r}: limit {limit!r} is not finite and positive")
    n = len(cols.exact_fidelity)
    two = (cols.op == OP_CODE["swap"]) | (cols.op == OP_CODE["purify"])
    vertex = np.column_stack([cols.input0, np.where(two, cols.input1, 0), cols.output])
    limited = np.array([key in link_limits for key in cols.link_keys] + [False])  # link -1: False
    bad = {  # what no builder emits -> the edges that have it
        f"vertex outside [0, {n})": ((vertex < 0) | (vertex >= n)).any(axis=1),
        "p_succ outside (0, 1]": ~((cols.p_succ > 0.0) & (cols.p_succ <= 1.0)),
        "capacity_coeff outside [0, 1]":
            ~((cols.capacity_coeff >= 0.0) & (cols.capacity_coeff <= 1.0)),
        "negative or infinite rate_bound": (cols.rate_bound < 0.0) | (cols.rate_bound == math.inf),
        "start link without a limit": (cols.op == OP_CODE["start"]) & ~limited[cols.link],
    }
    for what, mask in bad.items():
        hits = np.flatnonzero(mask)
        if len(hits):
            edge = HyperEdge._make(next(zip(*_edge_fields(cols, hits[:1]))))
            raise HypergraphError(f"edge {hits[0]}: {what}: {edge}")


def _swap_table(grid: FidelityGrid, noise: NoiseParams) -> tuple[np.ndarray, np.ndarray]:
    """(output fidelity, round-down bucket) for every grid value pair."""
    vals = grid.as_array()
    f_out = werner_swap(vals[:, None], vals[None, :], gate_factor(noise))
    idx = np.searchsorted(vals, f_out, side="right") - 1
    return f_out, idx


def _purify_table(
    grid: FidelityGrid, noise: NoiseParams, purify_model: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(output fidelity, success prob, round-down bucket) per value pair."""
    vals = grid.as_array()
    n = len(vals)
    f_out = np.empty((n, n))
    p_succ = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            f_out[a, b], p_succ[a, b] = purify(vals[a], vals[b], noise, purify_model)
    idx = np.searchsorted(vals, f_out, side="right") - 1
    return f_out, p_succ, idx


def _edge_block(op: str, input0: np.ndarray, output: np.ndarray, **fields) -> dict:
    """Columns of a run of edges of one op; a scalar holds for every edge."""
    values = {"op": OP_CODE[op], "input0": input0, "input1": -1, "output": output,
              "p_succ": 1.0, "capacity_coeff": 0.0, "rate_bound": math.nan, "link": -1,
              **fields}
    return {name: np.broadcast_to(value, len(input0)) for name, value in values.items()}


def build_standard_hypergraph(
    path: Path,
    grid: FidelityGrid,
    noise: NoiseParams,
    purify_model: str = "ideal-dejmps",
) -> Hypergraph:
    """Full discretized lattice: every node pair at every grid value.

    Operation outputs are rounded DOWN to the grid (systematic pessimism);
    purifications whose rounded output does not strictly exceed both input
    buckets are dropped, which keeps the span-then-fidelity order acyclic.
    Edges come in blocks: starts by link, swaps by (i, j, w) then input
    buckets, purifications by pair then input buckets, ends by bucket.
    """
    BUILD_COUNTER.tick()
    t0 = time.perf_counter()
    m = path.num_nodes
    if m < 2:
        raise HypergraphError("path must have at least 2 nodes")
    nodes = path.nodes
    nf = grid.resolution

    # pair (i, j) holds vertices base[(i, j)] + bucket
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    base = {pair: 2 + p * nf for p, pair in enumerate(pairs)}
    vertices = (  # u, v and exact_fidelity; the source and sink come first
        [nodes[0]] * 2 + [nodes[i] for i, _ in pairs for _ in range(nf)],
        [nodes[-1]] * 2 + [nodes[j] for _, j in pairs for _ in range(nf)],
        [0.0, 0.0, *grid.values * len(pairs)],
    )

    k0 = [grid.round_down_index(phys.f0) for phys in path.edges]
    linked = [t for t in range(m - 1) if k0[t] >= 0]  # f0 below the grid generates nothing
    link_limits = {path.edges[t].key: link_egr(path.edges[t]) for t in linked}
    keys = sorted(link_limits)
    starts = _edge_block(
        "start", np.full(len(linked), SOURCE), [base[(t, t + 1)] + k0[t] for t in linked],
        rate_bound=list(link_limits.values()), link=[keys.index(key) for key in link_limits],
    )

    _, swap_idx = _swap_table(grid, noise)
    ka, kb = np.nonzero(swap_idx >= 0)
    # per (i, j, w): the bases of (i, w), (w, j) and (i, j)
    spans = np.array(
        [(base[(i, w)], base[(w, j)], base[(i, j)])
         for i in range(m) for j in range(i + 2, m) for w in range(i + 1, j)],
        np.int64,
    ).reshape(-1, 3, 1)
    swaps = _edge_block(
        "swap", (spans[:, 0] + ka).ravel(), (spans[:, 2] + swap_idx[ka, kb]).ravel(),
        input1=(spans[:, 1] + kb).ravel(),
    )

    _, pur_p, pur_idx = _purify_table(grid, noise, purify_model)
    ka_grid, kb_grid = np.meshgrid(np.arange(nf), np.arange(nf), indexing="ij")
    valid = pur_idx > np.maximum(ka_grid, kb_grid)
    if purify_model_is_symmetric(purify_model):
        valid &= ka_grid <= kb_grid
    pa, pb = np.nonzero(valid)
    bases = np.array([base[pair] for pair in pairs], np.int64)[:, None]
    purifies = _edge_block(
        "purify", (bases + pa).ravel(), (bases + pur_idx[pa, pb]).ravel(),
        input1=(bases + pb).ravel(), p_succ=np.tile(pur_p[pa, pb], len(pairs)),
    )

    ends = _edge_block(
        "end", base[(0, m - 1)] + np.arange(nf), np.full(nf, SINK),
        capacity_coeff=np.array([pair_capacity(f) for f in grid.values]),
    )

    return Hypergraph(
        vertices=None, edges=_columns(vertices, keys, [starts, swaps, purifies, ends]),
        grid=grid, noise=noise, link_limits=link_limits, endpoints=(nodes[0], nodes[-1]),
        builder="standard", purify_model=purify_model,
        build_time_s=time.perf_counter() - t0,
    )


@dataclass
class _Incumbent:
    exact_fidelity: float
    rate: float
    op: str  # start | swap | purify
    inputs: tuple[tuple[tuple[int, int], int], ...] = ()  # ((i, j), bucket) refs
    p_succ: float = 1.0
    link_key: str | None = None


def _better(cand_rate: float, cand_f: float, inc: _Incumbent | None) -> bool:
    # replacement rule: strictly better rate, else equal rate and higher fidelity
    if inc is None:
        return True
    if cand_rate != inc.rate:
        return cand_rate > inc.rate
    return cand_f > inc.exact_fidelity


def _purify_block(
    block: dict[int, _Incumbent],
    pair: tuple[int, int],
    grid: FidelityGrid,
    noise: NoiseParams,
    purify_model: str,
) -> None:
    """One increasing-bucket purification sweep over a node-pair block.

    Candidates always land in a strictly higher bucket than both inputs,
    so a single ascending pass over the occupied buckets also captures
    cascaded purification: a bucket filled during the sweep is inserted
    ahead of the cursor, and every bucket behind it is final.
    """
    ideal = purify_model == "ideal-dejmps"
    occupied = sorted(block)
    pos = 0
    while pos < len(occupied):
        k = occupied[pos]
        high = block[k]
        f_hi = high.exact_fidelity
        if ideal:
            _check_fidelity("f1", f_hi)  # every low was a high before
        for k1 in occupied[: pos + 1]:
            low = block[k1]
            f_lo = low.exact_fidelity
            if ideal:
                f_new, p = dejmps(f_hi, f_lo)
            else:
                f_new, p = purify(f_hi, f_lo, noise, purify_model)
            if f_new <= max(f_hi, f_lo):
                continue
            kn = grid.round_down_index(f_new)
            if kn <= k:
                continue  # must move up a bucket or the DAG order breaks
            if k1 == k:
                # both inputs drawn from one pool: half are attempts
                r_new = 0.5 * high.rate * p
            else:
                r_new = min(high.rate, low.rate) * p
            inc = block.get(kn)
            if _better(r_new, f_new, inc):
                if inc is None:
                    insort(occupied, kn)
                block[kn] = _Incumbent(
                    exact_fidelity=f_new, rate=r_new, op="purify",
                    inputs=((pair, k), (pair, k1)), p_succ=p,
                )
        pos += 1


def build_pruned_hypergraph(
    path: Path,
    grid: FidelityGrid,
    noise: NoiseParams,
    purify_model: str = "ideal-dejmps",
) -> Hypergraph:
    """Dynamic-programming builder with fidelity bucketing.

    Per (node-pair, bucket) at most one incumbent survives, holding its
    exact continuous fidelity and the best rate found; a candidate
    replaces the incumbent only on a strict rate improvement (fidelity
    breaks ties). Spans are processed bottom-up: swap combinations first,
    then a purification sweep within the block.
    """
    BUILD_COUNTER.tick()
    t0 = time.perf_counter()
    m = path.num_nodes
    if m < 2:
        raise HypergraphError("path must have at least 2 nodes")
    nodes = path.nodes

    blocks: dict[tuple[int, int], dict[int, _Incumbent]] = {}
    link_limits: dict[str, float] = {}

    for t, phys in enumerate(path.edges):
        k0 = grid.round_down_index(phys.f0)
        block: dict[int, _Incumbent] = {}
        if k0 >= 0:
            r_e = link_egr(phys)
            link_limits[phys.key] = r_e
            block[k0] = _Incumbent(
                exact_fidelity=phys.f0, rate=r_e, op="start", link_key=phys.key
            )
            _purify_block(block, (t, t + 1), grid, noise, purify_model)
        blocks[(t, t + 1)] = block

    vals_min = grid.values[0]
    g = gate_factor(noise)
    for span in range(2, m):
        for i in range(m - span):
            j = i + span
            block: dict[int, _Incumbent] = {}
            for w in range(i + 1, j):
                left = blocks[(i, w)]
                right = blocks[(w, j)]
                for ka, a in left.items():
                    for kb, b in right.items():
                        f_new = werner_swap(a.exact_fidelity, b.exact_fidelity, g)
                        if f_new < vals_min:
                            continue
                        r_new = min(a.rate, b.rate)
                        kn = grid.round_down_index(f_new)
                        if _better(r_new, f_new, block.get(kn)):
                            block[kn] = _Incumbent(
                                exact_fidelity=f_new, rate=r_new, op="swap",
                                inputs=(((i, w), ka), ((w, j), kb)),
                            )
            _purify_block(block, (i, j), grid, noise, purify_model)
            blocks[(i, j)] = block

    # Blocks were filled span by span, left to right, and every input of an
    # incumbent is in a shorter span or a lower bucket of its own pair, so
    # one pass in that order numbers each input before its consumer.
    keys = sorted(link_limits)
    vertices = [(nodes[0], nodes[-1], 0.0)] * 2  # (u, v, exact_fidelity): source, sink
    vidx: dict[tuple[tuple[int, int], int], int] = {}
    edges = []  # per edge, its values in _EDGE_DTYPES order
    for pair, block in blocks.items():
        for bucket in sorted(block):
            inc = block[bucket]
            out = vidx[(pair, bucket)] = len(vertices)
            vertices.append((nodes[pair[0]], nodes[pair[1]], inc.exact_fidelity))
            if inc.op == "start":
                edges.append((OP_CODE["start"], SOURCE, -1, out, 1.0, 0.0, inc.rate,
                              keys.index(inc.link_key)))
            else:  # a swap or a purification: two inputs
                in0, in1 = (vidx[ref] for ref in inc.inputs)
                edges.append((OP_CODE[inc.op], in0, in1, out, inc.p_succ, 0.0, inc.rate, -1))

    for bucket in sorted(blocks[(0, m - 1)]):
        inc = blocks[(0, m - 1)][bucket]
        edges.append((OP_CODE["end"], vidx[((0, m - 1), bucket)], -1, SINK, 1.0,
                      pair_capacity(inc.exact_fidelity), inc.rate, -1))

    return Hypergraph(
        vertices=None, edges=_columns(tuple(zip(*vertices)), keys, [_by_column(edges)]),
        grid=grid, noise=noise, link_limits=link_limits, endpoints=(nodes[0], nodes[-1]),
        builder="pruned", purify_model=purify_model,
        build_time_s=time.perf_counter() - t0,
    )


def best_dp_estimate(hg: Hypergraph) -> float:
    """Outer-loop ranking score: best end incumbent rate x pair capacity."""
    cols = hg.columns
    ends = (cols.op == OP_CODE["end"]) & ~np.isnan(cols.rate_bound)
    return max([0.0, *(cols.rate_bound[ends] * cols.capacity_coeff[ends]).tolist()])


def synthesize_multipath(hypergraphs: list[Hypergraph]) -> Hypergraph:
    """Disjoint union of per-path hypergraphs with pooled link limits.

    Vertices are never merged across paths; only start edges referencing
    the same physical link share one generation-limit group, plus a single
    shared source and sink.
    """
    if not hypergraphs:
        raise HypergraphError("need at least one hypergraph")
    first = hypergraphs[0]
    for hg in hypergraphs[1:]:
        if hg.endpoints != first.endpoints:
            raise HypergraphError("mismatched endpoints")
        if hg.grid.values != first.grid.values:
            raise HypergraphError("mismatched grids")
        if hg.noise != first.noise:
            raise HypergraphError("mismatched noise parameters")
        if hg.purify_model != first.purify_model:
            raise HypergraphError("mismatched purification models")

    BUILD_COUNTER.tick()
    t0 = time.perf_counter()
    s, d = first.endpoints
    u, v, fidelity = [s, s], [d, d], [np.zeros(2)]  # the source and sink
    link_limits: dict[str, float] = {}
    keys = sorted({key for hg in hypergraphs for key in hg.columns.link_keys})
    code = {key: i for i, key in enumerate(keys)}
    blocks = []
    for hg in hypergraphs:
        cols = hg.columns
        offset = len(u) - 2
        u.extend(cols.u[2:])
        v.extend(cols.v[2:])
        fidelity.append(cols.exact_fidelity[2:])
        block = {name: getattr(cols, name) for name in _EDGE_DTYPES}
        for name in ("input0", "input1", "output"):
            # source, sink and the -1 of a missing input keep their index
            block[name] = np.where(block[name] >= 2, block[name] + offset, block[name])
        # the appended -1 is what a link of -1 (no link) reads
        block["link"] = np.array([code[key] for key in cols.link_keys] + [-1])[cols.link]
        blocks.append(block)
        for key, limit in hg.link_limits.items():
            if key in link_limits and abs(link_limits[key] - limit) > 1e-9:
                raise HypergraphError(f"conflicting limits for physical link {key}")
            link_limits[key] = limit

    return Hypergraph(
        vertices=None, edges=_columns((u, v, np.concatenate(fidelity)), keys, blocks),
        grid=first.grid, noise=first.noise, link_limits=link_limits, endpoints=first.endpoints,
        builder="synthesis", purify_model=first.purify_model,
        build_time_s=time.perf_counter() - t0,
    )
