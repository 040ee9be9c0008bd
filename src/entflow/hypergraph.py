"""Operation hypergraphs over repeater paths.

Vertices are (node-pair, fidelity) link states plus a source and a sink;
hyper-edges are start/swap/purify/end operations carrying LP rate
variables. A hypergraph is made from one table (``HypergraphColumns``) that
holds both and that every reader uses; vertex kinds and buckets, and the
``edges`` records, are derived from it. Every hypergraph is checked when made.
Every builder numbers its table topologically (each input of an edge before
its output, the sink last), so the check refuses a cycle with one rank rule.
Its one JSON document (``Hypergraph.to_json``) holds the table as base64
columns; a planner cache stores each entry as such a document.

Two builders are provided: the standard builder enumerates the full
discretized lattice (edge count grows as |V|^3 |F|^2), numbering its node
pairs by span, then by left node, and the pruned builder runs a dynamic
program that keeps one best-rate incumbent per (node-pair, fidelity-bucket)
with its exact continuous fidelity (edge count O(|V|^2 |F|)). Multi-path
synthesis unions per-path hypergraphs while pooling generation limits of
shared physical links.
"""

from __future__ import annotations

import base64
import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .capacity import pair_capacity
from .physics import (
    CLAMP_EVENTS,
    EventCounter,
    NoiseParams,
    _check_fidelity,
    as_printed_fidelity,
    as_printed_success,
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

DEFAULT_GRID_SIZE = 100  # values in the default FidelityGrid.uniform grid
_SWEEP_SLACK = 1e-12  # far above the DEJMPS kernel's float error (~3e-16); see _purify_sweep

OP_NAMES = ("start", "swap", "purify", "end")  # per HypergraphColumns.op code
OP_CODE = {op: code for code, op in enumerate(OP_NAMES)}
_ARITY = (1, 2, 2, 1)  # inputs per op code
_EDGE_DTYPES = {  # the per-edge columns of HypergraphColumns
    "op": np.int8, "input0": np.int64, "input1": np.int64, "output": np.int64, "p_succ": float,
    "capacity_coeff": float, "rate_bound": float, "link": np.int64,
}

DOCUMENT_VERSION = 2  # of Hypergraph.to_json and of a planner cache, which holds such documents
# each HypergraphColumns array in a document, base64 of its bytes in this
# dtype; u and v index the document's sorted node names
DOCUMENT_COLUMNS = {name: np.dtype(code) for name, code in (
    ("op", "<i1"), ("input0", "<i8"), ("input1", "<i8"), ("output", "<i8"), ("p_succ", "<f8"),
    ("capacity_coeff", "<f8"), ("rate_bound", "<f8"), ("link", "<i8"), ("exact_fidelity", "<f8"),
    ("u", "<i4"), ("v", "<i4"))}


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
    def uniform(cls, size: int = DEFAULT_GRID_SIZE) -> FidelityGrid:
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


class HyperEdge(NamedTuple):
    """One edge as a record, derived from the columns."""

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


BUILD_COUNTER = EventCounter()  # hypergraph builder invocations


class Hypergraph:
    """Immutable operation hypergraph made from its table ``columns``.
    Index 0 is the source, 1 the sink."""

    def __init__(
        self,
        columns: HypergraphColumns,
        grid: FidelityGrid,
        noise: NoiseParams,
        link_limits: dict[str, float],
        endpoints: tuple[str, str],
        builder: str,
        purify_model: str,
        build_time_s: float = 0.0,
    ) -> None:
        self.columns = columns
        self.grid = grid
        self.noise = noise
        self.link_limits = dict(link_limits)
        self.endpoints = endpoints
        self.builder = builder
        self.purify_model = purify_model
        self.build_time_s = build_time_s
        _check_columns(self.columns, self.endpoints)
        _check_references(self.columns, self.link_limits)

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

    def to_json(self) -> dict:
        """The document: the grid, noise and purification model, then the
        rest of the hypergraph, its table as base64 columns in the
        ``DOCUMENT_COLUMNS`` dtypes with u and v as indices into ``nodes``."""
        cols = self.columns
        nodes = sorted({*cols.u, *cols.v})
        index = {name: i for i, name in enumerate(nodes)}
        arrays = {**vars(cols), "u": [index[n] for n in cols.u], "v": [index[n] for n in cols.v]}
        return {
            "version": DOCUMENT_VERSION, "grid": list(self.grid.values),
            "noise": asdict(self.noise), "purify_model": self.purify_model,
            "builder": self.builder, "build_time_s": self.build_time_s,
            "endpoints": list(self.endpoints), "link_limits": dict(self.link_limits),
            "nodes": nodes, "link_keys": list(cols.link_keys),
            "columns": {name: base64.b64encode(np.asarray(arrays[name], dtype).tobytes()).decode()
                        for name, dtype in DOCUMENT_COLUMNS.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> Hypergraph:
        """The hypergraph of a ``to_json`` document, checked as every
        hypergraph is; decoding rejects a column whose bytes are not whole
        entries and a node index outside ``nodes``."""
        try:
            if doc["version"] != DOCUMENT_VERSION:
                raise HypergraphError(f"unsupported version {doc['version']!r}")
            nodes, columns = doc["nodes"], {}
            for name, dtype in DOCUMENT_COLUMNS.items():
                data = base64.b64decode(doc["columns"][name], validate=True)
                if len(data) % dtype.itemsize:
                    raise HypergraphError(f"column {name}: {len(data)} bytes, not a multiple of "
                                          f"{dtype.itemsize}")
                columns[name] = np.frombuffer(data, dtype)
            for name in ("u", "v"):
                bad = np.flatnonzero((columns[name] < 0) | (columns[name] >= len(nodes)))
                if len(bad):
                    raise HypergraphError(f"vertex {bad[0]}: {name} {columns[name][bad[0]].item()} "
                                          f"is not an index into the {len(nodes)} nodes")
                columns[name] = tuple(map(nodes.__getitem__, columns[name].tolist()))
            return cls(
                HypergraphColumns(**columns, link_keys=tuple(doc["link_keys"])),
                FidelityGrid(tuple(doc["grid"])), NoiseParams(**doc["noise"]),
                dict(doc["link_limits"]), tuple(doc["endpoints"]), doc["builder"],
                doc["purify_model"], doc["build_time_s"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, HypergraphError):
                raise
            raise HypergraphError(f"corrupt hypergraph document: {exc}") from exc


def _edge_fields(cols: HypergraphColumns, ids=slice(None)) -> list[list]:
    """The ``HyperEdge`` fields (op, inputs, output, p_succ, link_key,
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


def _check_columns(cols: HypergraphColumns, endpoints: tuple[str, str]) -> None:
    """Reject columns no builder emits, before anything indexes by them; an
    error names the rule and the first entry that breaks it."""
    for names, ref in ((_EDGE_DTYPES, "op"), (("u", "v"), "exact_fidelity")):
        for name in names:
            if len(getattr(cols, name)) != len(getattr(cols, ref)):
                raise HypergraphError(f"column {name}: {len(getattr(cols, name))} entries, "
                                      f"column {ref} {len(getattr(cols, ref))}")
    if len(cols.u) < 2:
        raise HypergraphError("vertices must start with source and sink")
    op, link, f, nk = cols.op, cols.link, cols.exact_fidelity, len(cols.link_keys)
    one = (op == OP_CODE["start"]) | (op == OP_CODE["end"])  # the one-input ops
    for bad, message in (  # the entries that break a rule -> the error for the first
        ((op < 0) | (op >= len(OP_NAMES)), lambda e: f"edge {e}: unknown op {op[e].item()}"),
        (one != (cols.input1 == -1),  # a mismatch has the other arity
         lambda e: f"edge {e}: {OP_NAMES[op[e]]} takes {_ARITY[op[e]]} input(s), "
                   f"got {3 - _ARITY[op[e]]}"),
        ((link < -1) | (link >= nk), lambda e: f"edge {e}: link {link[e].item()} is not -1 "
                                               f"or an index into the {nk} link_keys"),
        ((link >= 0) & (op != OP_CODE["start"]),
         lambda e: f"edge {e}: {OP_NAMES[op[e]]} edge names link {cols.link_keys[link[e]]!r}"),
        (~((f >= 0.0) & (f <= 1.0)),  # NaN included
         lambda vi: f"vertex {vi}: exact_fidelity {f[vi].item()!r} is not a real in [0, 1]"),
    ):
        if bad.any():
            raise HypergraphError(message(np.flatnonzero(bad)[0].item()))
    if set(map(type, cols.u + cols.v)) != {str}:
        vi, name = next((vi, name) for vi, pair in enumerate(zip(cols.u, cols.v))
                        for name in pair if type(name) is not str)
        raise HypergraphError(f"vertex {vi}: node name {name!r} is not a string")
    for vi in (SOURCE, SINK):
        if (cols.u[vi], cols.v[vi]) != endpoints:
            raise HypergraphError(f"vertex {vi}: node pair {(cols.u[vi], cols.v[vi])!r} is not "
                                  f"the endpoints {endpoints!r}")


def _check_references(cols: HypergraphColumns, link_limits: dict[str, float]) -> None:
    """Reject what no builder emits: a vertex index outside the vertices, an
    input not numbered below its output, p_succ outside (0, 1],
    capacity_coeff outside [0, 1], a negative or infinite rate bound, a start
    link without a limit and a limit that is not finite and positive. An edge
    error names the first such edge.

    Every builder numbers its table topologically: with the sink ranked last
    (as n), each input of an edge ranks below its output, so 0, 2, ..., n - 1,
    1 is a topological order and the table has no cycle. This rank rule is the
    whole cycle check, so a table numbered another way is refused."""
    for key, limit in link_limits.items():
        if not (math.isfinite(limit) and limit > 0.0):
            raise HypergraphError(f"link {key!r}: limit {limit!r} is not finite and positive")
    n = len(cols.exact_fidelity)
    two = (cols.op == OP_CODE["swap"]) | (cols.op == OP_CODE["purify"])
    vertex = np.column_stack([cols.input0, np.where(two, cols.input1, 0), cols.output])
    rank = np.where(vertex == SINK, n, vertex)
    limited = np.array([key in link_limits for key in cols.link_keys] + [False])  # link -1: False
    bad = {  # what no builder emits -> the edges that have it
        f"vertex outside [0, {n})": ((vertex < 0) | (vertex >= n)).any(axis=1),
        "input not numbered below its output (out of topological order, or contains a cycle)":
            (rank[:, :2] >= rank[:, 2:]).any(axis=1),
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
    # unchecked: FidelityGrid holds every value inside [0.5, 1]
    if purify_model == "ideal-dejmps":
        f_out, p_succ = dejmps(vals[:, None], vals[None, :])
    else:  # as-printed; each clamped output is one clamp event
        p_succ = as_printed_success(vals[:, None], vals[None, :], noise)  # at least 1/2
        raw = as_printed_fidelity(vals[:, None], vals[None, :], p_succ, noise)
        f_out = np.clip(raw, 0.0, 1.0)
        CLAMP_EVENTS.tick(int(np.count_nonzero((raw < 0.0) | (raw > 1.0))))
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
    buckets are dropped. Pairs are numbered by span, then by left node, each
    with its buckets ascending, the order in which the pruned builder
    finishes its blocks; a swap's inputs lie in shorter spans and a
    purification's output in a higher bucket of its pair, so the table is
    numbered topologically. Edges come in blocks: starts by link, swaps by
    (i, j, w) then input buckets, purifications by pair then input buckets,
    ends by bucket.
    """
    BUILD_COUNTER.tick()
    t0 = time.perf_counter()
    m = path.num_nodes
    if m < 2:
        raise HypergraphError("path must have at least 2 nodes")
    nodes = path.nodes
    nf = grid.resolution

    # pair (i, j) holds vertices base[(i, j)] + bucket
    pairs = [(i, i + span) for span in range(1, m) for i in range(m - span)]
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
        columns=_columns(vertices, keys, [starts, swaps, purifies, ends]),
        grid=grid, noise=noise, link_limits=link_limits, endpoints=(nodes[0], nodes[-1]),
        builder="standard", purify_model=purify_model,
        build_time_s=time.perf_counter() - t0,
    )


def _purify_sweep(
    block: dict[int, tuple], grid: FidelityGrid, noise: NoiseParams, purify_model: str
) -> None:
    """One increasing-bucket purification sweep over a node-pair block.

    ``block`` maps each occupied bucket to its incumbent, the tuple (exact
    fidelity, rate, op code, input0, input1, p_succ, link); a purification
    names its inputs by their buckets in the block. Candidates always land
    in a strictly higher bucket than both inputs, so a single ascending pass
    over the occupied buckets also captures cascaded purification: a bucket
    filled during the sweep is inserted ahead of the cursor, and every
    bucket behind it is final. A row scans partners from the cursor down,
    and under ideal DEJMPS stops at the first output over ``_SWEEP_SLACK``
    below the next bucket: d f'/d f2 has numerator 42 f1 - 12 f1^2 - 3 >=
    6.75 on [1/4, 1]. As-printed calls can each clamp, so they never stop.
    """
    ideal = purify_model == "ideal-dejmps"
    vals = grid.values
    occupied = sorted(block)  # and, in step, each bucket's fidelity and rate
    fid, rate = [block[k][0] for k in occupied], [block[k][1] for k in occupied]
    pos = 0
    while pos < len(occupied):
        k, f_hi, r_hi = occupied[pos], fid[pos], rate[pos]
        up = vals[k + 1] if k + 1 < len(vals) else math.inf  # bottom of the next bucket
        if ideal:
            _check_fidelity("f1", f_hi)  # every low was a high before
        floor = up - _SWEEP_SLACK if ideal else -math.inf
        row = []
        for j in range(pos, -1, -1):  # partners from the cursor down
            f_new, p = dejmps(f_hi, fid[j]) if ideal else purify(f_hi, fid[j], noise, purify_model)
            if f_new < floor:
                break  # and so would every lower partner
            row.append((j, f_new, p))
        for j, f_new, p in reversed(row):  # inserts land above the cursor, not at j
            if f_new < up:
                continue  # must move up a bucket or the DAG order breaks
            k1 = occupied[j]
            kn = bisect_right(vals, f_new) - 1
            # both inputs drawn from one pool: half are attempts
            r_new = (0.5 * r_hi if k1 == k else min(r_hi, rate[j])) * p
            inc = block.get(kn)
            if inc is not None and (r_new < inc[1] or (r_new == inc[1] and f_new <= inc[0])):
                continue  # not strictly better: the incumbent stays
            at = bisect_left(occupied, kn)
            if inc is None:
                occupied.insert(at, kn)
                fid.insert(at, f_new)
                rate.insert(at, r_new)
            else:
                fid[at], rate[at] = f_new, r_new
            block[kn] = (f_new, r_new, OP_CODE["purify"], k, k1, p, -1)
        pos += 1


def _span_winners(
    key: np.ndarray, size: int, rate: np.ndarray, fidelity: np.ndarray
) -> np.ndarray:
    """The winning candidate of each key in [0, ``size``), in order of the
    key's first candidate: the highest rate, then the highest fidelity, and
    of exact ties the first candidate."""
    n = len(key)
    top = np.full(size, -np.inf)
    np.maximum.at(top, key, rate)
    c = np.flatnonzero(rate == top[key])  # candidates at their key's top rate
    top[:] = -np.inf
    np.maximum.at(top, key[c], fidelity[c])
    c = c[fidelity[c] == top[key[c]]]  # ... and then at its top fidelity
    win, first = np.full(size, n), np.full(size, n)
    np.minimum.at(win, key[c], c)
    np.minimum.at(first, key, np.arange(n))
    held = np.flatnonzero(first < n)
    return win[held[np.argsort(first[held])]]


def build_pruned_hypergraph(
    path: Path,
    grid: FidelityGrid,
    noise: NoiseParams,
    purify_model: str = "ideal-dejmps",
) -> Hypergraph:
    """Dynamic-programming builder with fidelity bucketing.

    Per (node-pair, bucket) at most one incumbent survives, holding its
    exact continuous fidelity and the best rate found. Spans are processed
    bottom-up: swap combinations first, then a purification sweep within
    the block. A candidate replaces the incumbent only on a strictly higher
    rate, or an equal rate and a strictly higher fidelity, so of exact ties
    the first candidate wins. The swap candidates of pair (i, j) come w
    ascending, then each input block in its insertion order: its swap
    buckets in order of their first candidate, then the buckets made by
    purification in the order they were made. That order fixes the output.
    """
    BUILD_COUNTER.tick()
    t0 = time.perf_counter()
    m = path.num_nodes
    if m < 2:
        raise HypergraphError("path must have at least 2 nodes")
    nodes = path.nodes
    k0 = [grid.round_down_index(phys.f0) for phys in path.edges]
    link_limits = {phys.key: link_egr(phys) for phys, k in zip(path.edges, k0) if k >= 0}
    keys = sorted(link_limits)

    vertices = [(nodes[0], nodes[-1], 0.0)] * 2  # (u, v, exact_fidelity): source, sink
    edges = []  # per edge, its values in _EDGE_DTYPES order
    pool = ([], [], [])  # vertex, fidelity and rate of each finished incumbent
    slot = {}  # finished pair -> (start, size) of its incumbents in pool, in insertion order

    def finish(pair: tuple[int, int], block: dict[int, tuple]) -> None:
        # Blocks finish span by span, left to right, and every input of an
        # incumbent is in a shorter span or a lower bucket of its own pair,
        # so numbering each block's buckets in ascending order as it
        # finishes numbers each input before its consumer.
        _purify_sweep(block, grid, noise, purify_model)
        vertex = {k: len(vertices) + rank for rank, k in enumerate(sorted(block))}
        for k, out in vertex.items():
            f, r, op, in0, in1, p, link = block[k]
            if op == OP_CODE["purify"]:
                in0, in1 = vertex[in0], vertex[in1]
            vertices.append((nodes[pair[0]], nodes[pair[1]], f))
            edges.append((op, in0, in1, out, p, 0.0, r, link))
        slot[pair] = (len(pool[0]), len(block))
        pool[0].extend(map(vertex.get, block))
        pool[1].extend(inc[0] for inc in block.values())
        pool[2].extend(inc[1] for inc in block.values())

    for t, phys in enumerate(path.edges):
        block = {}
        if k0[t] >= 0:
            block[k0[t]] = (phys.f0, link_limits[phys.key], OP_CODE["start"], SOURCE, -1, 1.0,
                            keys.index(phys.key))
        finish((t, t + 1), block)

    vals, nf, g = grid.as_array(), grid.resolution, gate_factor(noise)
    for span in range(2, m):
        # every swap candidate of the span at once: per (i, w) each left
        # incumbent of (i, w) with each right one of (w, i + span)
        vid, fid, rate = (np.array(column) for column in pool)
        triples = [(i, w) for i in range(m - span) for w in range(i + 1, i + span)]
        l0, nl = np.array([slot[(i, w)] for i, w in triples]).T
        r0, nr = np.array([slot[(w, i + span)] for i, w in triples]).T
        n = nl * nr
        at = np.repeat(np.arange(len(triples)), n)  # the triple of each candidate
        c = np.arange(len(at)) - (np.cumsum(n) - n)[at]  # its place in the triple
        left, right = l0[at] + c // nr[at], r0[at] + c % nr[at]
        f = werner_swap(fid[left], fid[right], g)
        bucket = np.searchsorted(vals, f, side="right") - 1
        kept = bucket >= 0  # below the grid: dropped
        left, right, f, bucket = left[kept], right[kept], f[kept], bucket[kept]
        owner = np.array([i for i, _ in triples], np.int64)[at[kept]]
        r = np.minimum(rate[left], rate[right])
        win = _span_winners(owner * nf + bucket, (m - span) * nf, r, f)
        blocks = {i: {} for i in range(m - span)}
        for i, k, fw, rw, in0, in1 in zip(*(a[win].tolist() for a in (owner, bucket, f, r)),
                                           vid[left[win]].tolist(), vid[right[win]].tolist()):
            blocks[i][k] = (fw, rw, OP_CODE["swap"], in0, in1, 1.0, -1)
        for i, block in blocks.items():
            finish((i, i + span), block)

    start, size = slot[(0, m - 1)]
    for out, f, r in sorted(zip(*(column[start:start + size] for column in pool))):
        edges.append((OP_CODE["end"], out, -1, SINK, 1.0, pair_capacity(f), r, -1))

    return Hypergraph(
        columns=_columns(tuple(zip(*vertices)), keys, [_by_column(edges)]),
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
        columns=_columns((u, v, np.concatenate(fidelity)), keys, blocks),
        grid=first.grid, noise=first.noise, link_limits=link_limits, endpoints=first.endpoints,
        builder="synthesis", purify_model=first.purify_model,
        build_time_s=time.perf_counter() - t0,
    )
