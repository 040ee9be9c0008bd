"""Operation hypergraphs over repeater paths.

Vertices are (node-pair, fidelity) link states plus a source and a sink;
hyper-edges are start/swap/purify/end operations carrying LP rate
variables. A hypergraph is made from one table (``HypergraphColumns``) that
holds both as its builder chose them and that every reader uses; vertex kinds
and buckets, the endpoints, the link keys and each edge's success
probability, capacity coefficient and link (``_derived``) follow from it.
Every hypergraph is checked when made.
Every builder numbers its table topologically (each input of an edge before
its output, the sink last), so the check refuses a cycle with one rank rule.
Its one JSON document (``Hypergraph.to_json``) holds the table as it is; a
planner cache stores each entry as such a document. A hypergraph holds no
clock reading, so equal inputs give equal documents; a caller that reports a
build time measures it around the whole call, checks included.

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
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from functools import cached_property
from numbers import Real
from typing import TYPE_CHECKING

import numpy as np

from .capacity import pair_capacity
from .physics import (
    CLAMP_EVENTS,
    DEFAULT_PURIFY_MODEL,
    PURIFY_CREDIT,
    EventCounter,
    NoiseParams,
    _check_fidelity,
    check_int,
    check_purify_model,
    dejmps,
    gate_factor,
    purify,
    purify_map,
    purify_model_is_symmetric,
    werner_swap,
)
from .topology import Path, link_egr, link_key

if TYPE_CHECKING:
    from .lp import RateLP

SOURCE = 0
SINK = 1

DEFAULT_GRID_SIZE = 100  # values in the default FidelityGrid.uniform grid
_SWEEP_SLACK = 1e-12  # far above the DEJMPS kernel's float error (~3e-16); see _purify_sweep
_RATE_SLACK = 1e-12  # relative; far above a sweep rate's float error (a few ulps); see _purify_sweep

OP_NAMES = ("start", "swap", "purify", "end")  # per HypergraphColumns.op code
OP_CODE = {op: code for code, op in enumerate(OP_NAMES)}
_ARITY = (1, 2, 2, 1)  # inputs per op code
# the dtype of each HypergraphColumns array, the per-edge columns first
_COLUMN_DTYPES = {name: np.dtype(code) for name, code in (
    ("op", "i1"), ("input0", "i8"), ("input1", "i8"), ("output", "i8"),
    ("rate_bound", "f8"), ("exact_fidelity", "f8"), ("u", "i4"), ("v", "i4"))}
_EDGE_DTYPES = dict(list(_COLUMN_DTYPES.items())[:5])  # the per-edge columns

DOCUMENT_VERSION = 2  # of Hypergraph.to_json and of a planner cache, which holds such documents
# each HypergraphColumns array in a document, base64 of its bytes in the
# little-endian form of its dtype; u and v index the document's node names, its ``nodes``
DOCUMENT_COLUMNS = {name: dtype.newbyteorder("<") for name, dtype in _COLUMN_DTYPES.items()}


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
        for k, v in enumerate(self.values):
            if isinstance(v, bool) or not isinstance(v, Real):
                raise HypergraphError(f"grid value {k}: {v!r} is not a number")
            if not 0.5 <= v <= 1.0:
                raise HypergraphError(f"grid value {v} outside [0.5, 1]")
            if prev is not None and v <= prev:
                raise HypergraphError("grid values must be strictly increasing")
            prev = v

    @classmethod
    def uniform(cls, size: int = DEFAULT_GRID_SIZE) -> FidelityGrid:
        if check_int(size, "grid size", HypergraphError) < 1:
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


@dataclass(frozen=True)
class HypergraphStats:
    num_vertices: int
    num_edges: int
    edges_by_op: dict[str, int]


@dataclass(frozen=True)
class HypergraphColumns:
    """The hypergraph as columns: one entry per edge, then per vertex. Vertex
    0 is the source and vertex 1 the sink (the endpoints at fidelity 0).
    Only a builder's choices are stored: ``_derived`` gives the rest."""

    op: np.ndarray  # OP_CODE of each edge
    input0: np.ndarray
    input1: np.ndarray  # -1 for one-input ops
    output: np.ndarray
    rate_bound: np.ndarray  # NaN: no bound
    nodes: tuple[str, ...]  # sorted, each the node of some vertex
    u: np.ndarray  # per vertex: its node pair (u, v), indices into nodes
    v: np.ndarray
    exact_fidelity: np.ndarray

    def __post_init__(self) -> None:
        # held by the hypergraph and shared by every LP built from it
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def pair(self, vertex: int) -> tuple[str, str]:
        """The node names of a vertex's pair."""
        return self.nodes[self.u[vertex]], self.nodes[self.v[vertex]]


def _columns(names: list | tuple, vertices: tuple, blocks: list) -> HypergraphColumns:
    """The columns of edge blocks (each maps every name of ``_EDGE_DTYPES``
    to a sequence), concatenated in order, over vertices (u, v, exact_fidelity),
    u and v renumbered from ``names`` into the sorted names some vertex uses."""
    edges = {name: np.concatenate([np.asarray(block[name], dtype) for block in blocks])
             for name, dtype in _EDGE_DTYPES.items()}
    u, v, fidelity = vertices
    used = np.unique(np.concatenate([u, v])).tolist()
    nodes = sorted({names[i] for i in used})  # a name may repeat in ``names``
    index = np.zeros(len(names), _COLUMN_DTYPES["u"])
    index[used] = [nodes.index(names[i]) for i in used]
    return HypergraphColumns(**edges, nodes=tuple(nodes), u=index.take(u), v=index.take(v),
                             exact_fidelity=np.array(fidelity, _COLUMN_DTYPES["exact_fidelity"]))


BUILD_COUNTER = EventCounter()  # hypergraph builder invocations


class Hypergraph:
    """Immutable operation hypergraph made from its table ``columns``. Index
    0 is the source, 1 the sink; ``link_keys``, ``endpoints`` and the
    read-only per-edge ``p_succ``, ``capacity_coeff`` and ``link`` are derived."""

    def __init__(
        self,
        columns: HypergraphColumns,
        grid: FidelityGrid,
        noise: NoiseParams,
        link_limits: dict[str, float],
        builder: str,
        purify_model: str,
    ) -> None:
        check_purify_model(purify_model)
        for key, limit in link_limits.items():
            if not (math.isfinite(limit) and limit > 0.0):
                raise HypergraphError(f"link {key!r}: limit {limit!r} is not finite and positive")
        self.columns = columns
        self.grid = grid
        self.noise = noise
        self.link_limits = dict(link_limits)
        self.link_keys = tuple(sorted(self.link_limits))  # what the derived link indexes
        self.builder = builder
        self.purify_model = purify_model
        _check_columns(columns)
        _check_references(columns)
        self.endpoints = columns.pair(SOURCE)
        self.p_succ, self.capacity_coeff, self.link = _derived(
            columns, self.link_keys, noise, purify_model)

    @property
    def edges(self) -> np.ndarray:
        # the op column, read only by perfbench/, for len(): ROADMAP item 22's benchmark
        # PR moves its four reads to len(columns.op), then deletes this name
        return self.columns.op

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
        )

    def to_json(self) -> dict:
        """The document: the grid, noise and purification model, then the
        rest of the hypergraph, its table as ``nodes`` and base64 columns in
        the ``DOCUMENT_COLUMNS`` dtypes."""
        cols = self.columns
        return {
            "version": DOCUMENT_VERSION, "grid": list(self.grid.values),
            "noise": asdict(self.noise), "purify_model": self.purify_model,
            "builder": self.builder, "link_limits": dict(self.link_limits), "nodes": [*cols.nodes],
            "columns": {name: base64.b64encode(np.asarray(getattr(cols, name), dtype).tobytes())
                        .decode() for name, dtype in DOCUMENT_COLUMNS.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> Hypergraph:
        """The hypergraph of a ``to_json`` document, checked as every
        hypergraph is; decoding rejects a column whose bytes are not whole
        entries, and ignores what older documents hold that is now derived:
        ``endpoints``, ``link_keys`` and the p_succ, capacity_coeff and link
        columns."""
        try:
            if doc["version"] != DOCUMENT_VERSION:
                raise HypergraphError(f"unsupported version {doc['version']!r}")
            columns = {}
            for name, dtype in DOCUMENT_COLUMNS.items():
                data = base64.b64decode(doc["columns"][name], validate=True)
                if len(data) % dtype.itemsize:
                    raise HypergraphError(f"column {name}: {len(data)} bytes, not a multiple of "
                                          f"{dtype.itemsize}")
                columns[name] = np.frombuffer(data, dtype)
            if type(doc["nodes"]) is not list:  # a string would read as one name per letter
                raise HypergraphError(f"nodes is a {type(doc['nodes']).__name__}, not a list")
            return cls(HypergraphColumns(**columns, nodes=tuple(doc["nodes"])),
                       FidelityGrid(tuple(doc["grid"])), NoiseParams(**doc["noise"]),
                       dict(doc["link_limits"]), doc["builder"], doc["purify_model"])
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            if isinstance(exc, HypergraphError):
                raise
            raise HypergraphError(f"corrupt hypergraph document: {exc}") from exc


def _derived(cols: HypergraphColumns, link_keys: tuple, noise: NoiseParams,
             purify_model: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per edge of a checked table, read-only: (p_succ, capacity_coeff, link),
    the kernel's success probability on a purification's inputs, the
    ``pair_capacity`` of an end edge's input and the index into ``link_keys``
    of a start edge's output pair (1, 0 and -1 elsewhere). A start edge into
    a pair with no link limit is refused."""
    f, n = cols.exact_fidelity, len(cols.op)
    p_succ, capacity_coeff, link = np.ones(n), np.zeros(n), np.full(n, -1, np.int64)
    e = np.flatnonzero(cols.op == OP_CODE["purify"])
    # no clamp event: the builder counted its own
    p_succ[e] = purify_map(f[cols.input0[e]], f[cols.input1[e]], noise, purify_model)[1]
    e = np.flatnonzero(cols.op == OP_CODE["end"])
    capacity_coeff[e] = [pair_capacity(fi) for fi in f[cols.input0[e]].tolist()]
    index = {key: i for i, key in enumerate(link_keys)}
    starts = np.flatnonzero(cols.op == OP_CODE["start"])
    out = cols.output[starts]  # each start edge's pair, read once
    for e, a, b in zip(starts.tolist(), cols.u[out].tolist(), cols.v[out].tolist()):
        pair = cols.nodes[a], cols.nodes[b]
        link[e] = k = index.get(link_key(*pair), -1)
        if k < 0:
            raise HypergraphError(f"edge {e}: start edge into {pair!r}, which has no link limit")
    for array in (p_succ, capacity_coeff, link):
        array.flags.writeable = False  # shared by every LP of the hypergraph
    return p_succ, capacity_coeff, link


def _check_columns(cols: HypergraphColumns) -> None:
    """Reject columns no builder emits, before anything indexes by them; an
    error names the rule and the first entry that breaks it."""
    for names, ref in ((_EDGE_DTYPES, "op"), (("u", "v"), "exact_fidelity")):
        for name in names:
            if len(getattr(cols, name)) != len(getattr(cols, ref)):
                raise HypergraphError(f"column {name}: {len(getattr(cols, name))} entries, "
                                      f"column {ref} {len(getattr(cols, ref))}")
    if len(cols.u) < 2:
        raise HypergraphError("vertices must start with source and sink")
    op, f, u, v, n = cols.op, cols.exact_fidelity, cols.u, cols.v, len(cols.nodes)
    off = [k for k, name in enumerate(cols.nodes) if type(name) is not str]  # each name once
    one = (op == OP_CODE["start"]) | (op == OP_CODE["end"])  # the one-input ops
    for bad, message in (  # the entries that break a rule -> the error for the first
        ((op < 0) | (op >= len(OP_NAMES)), lambda e: f"edge {e}: unknown op {op[e].item()}"),
        (one != (cols.input1 == -1),  # a mismatch has the other arity
         lambda e: f"edge {e}: {OP_NAMES[op[e]]} takes {_ARITY[op[e]]} input(s), "
                   f"got {3 - _ARITY[op[e]]}"),
        (~((f >= 0.0) & (f <= 1.0)),  # NaN included
         lambda vi: f"vertex {vi}: exact_fidelity {f[vi].item()!r} is not a real in [0, 1]"),
        ((u < 0) | (u >= n),
         lambda vi: f"vertex {vi}: u {u[vi]} is not an index into the {n} nodes"),
        ((v < 0) | (v >= n),
         lambda vi: f"vertex {vi}: v {v[vi]} is not an index into the {n} nodes"),
        (np.isin(u, off) | np.isin(v, off) if off else np.False_,  # on a name not a string
         lambda vi: f"vertex {vi}: node name "
                    f"{cols.nodes[u[vi] if u[vi] in off else v[vi]]!r} is not a string"),
    ):
        if bad.any():
            raise HypergraphError(message(np.flatnonzero(bad)[0].item()))
    ends, sink = (cols.pair(vi) for vi in (SOURCE, SINK))
    if sink != ends:
        raise HypergraphError(f"vertex {SINK}: node pair {sink!r} is not the endpoints {ends!r}")
    used = np.zeros(n, bool)  # as the builders write nodes: sorted, distinct, each on a vertex
    used[u] = used[v] = True
    for k, name in enumerate(cols.nodes):
        if not used[k] or k and name <= cols.nodes[k - 1]:
            raise HypergraphError(f"nodes[{k}] {name!r} " + (
                f"is not above {cols.nodes[k - 1]!r}: names must be strictly increasing"
                if used[k] else "is on no vertex"))


def _check_references(cols: HypergraphColumns) -> None:
    """Reject what no builder emits: a vertex index outside the vertices, an
    input not numbered below its output and a negative or infinite rate
    bound. An error names the first such edge by its stored columns.

    Every builder numbers its table topologically: with the sink ranked last
    (as n), each input of an edge ranks below its output, so 0, 2, ..., n - 1,
    1 is a topological order and the table has no cycle. This rank rule is the
    whole cycle check, so a table numbered another way is refused."""
    n = len(cols.exact_fidelity)
    two = (cols.op == OP_CODE["swap"]) | (cols.op == OP_CODE["purify"])
    vertices = (cols.input0, np.where(two, cols.input1, 0), cols.output)
    in0, in1, out = (np.where(v == SINK, n, v) for v in vertices)  # their ranks
    bad = {  # what no builder emits -> the edges that have it
        f"vertex outside [0, {n})": np.logical_or.reduce([(v < 0) | (v >= n) for v in vertices]),
        "input not numbered below its output (out of topological order, or contains a cycle)":
            (in0 >= out) | (in1 >= out),
        "negative or infinite rate_bound": (cols.rate_bound < 0.0) | (cols.rate_bound == math.inf),
    }
    for what, mask in bad.items():
        hits = np.flatnonzero(mask)
        if len(hits):
            stored = {name: getattr(cols, name)[hits[0]].item() for name in _EDGE_DTYPES}
            raise HypergraphError(f"edge {hits[0]}: {what}: {stored}")


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
    f_out, p_succ, clamped = purify_map(vals[:, None], vals[None, :], noise, purify_model)
    CLAMP_EVENTS.tick(int(np.count_nonzero(clamped)))  # one event per clamped entry
    idx = np.searchsorted(vals, f_out, side="right") - 1
    return f_out, p_succ, idx


def _edge_block(op: str, input0: np.ndarray, output: np.ndarray, **fields) -> dict:
    """Columns of a run of edges of one op; a scalar holds for every edge."""
    values = {"op": OP_CODE[op], "input0": input0, "input1": -1, "output": output,
              "rate_bound": math.nan, **fields}
    return {name: np.broadcast_to(value, len(input0)) for name, value in values.items()}


def _on_grid_links(path: Path, grid: FidelityGrid) -> tuple[list[int], dict[str, float]]:
    """Each link's f0 bucket (-1 below the grid), and by key, in link order,
    the generation limit of each link on the grid: a link whose f0 lies
    below the grid generates nothing."""
    k0 = [grid.round_down_index(phys.f0) for phys in path.edges]
    return k0, {phys.key: link_egr(phys) for phys, k in zip(path.edges, k0) if k >= 0}


def build_standard_hypergraph(
    path: Path,
    grid: FidelityGrid,
    noise: NoiseParams,
    purify_model: str = DEFAULT_PURIFY_MODEL,
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
    m, nf = path.num_nodes, grid.resolution

    # pair (i, j) holds vertices base[(i, j)] + bucket
    pairs = [(i, i + span) for span in range(1, m) for i in range(m - span)]
    base = {pair: 2 + p * nf for p, pair in enumerate(pairs)}
    left, right = np.array(pairs).repeat(nf, axis=0).T  # the path nodes of each vertex
    vertices = (np.r_[0, 0, left], np.r_[m - 1, m - 1, right],  # source and sink first
                [0.0, 0.0, *grid.values * len(pairs)])

    k0, link_limits = _on_grid_links(path, grid)
    starts = _edge_block("start", np.full(len(link_limits), SOURCE),
                         [base[(t, t + 1)] + k for t, k in enumerate(k0) if k >= 0],
                         rate_bound=list(link_limits.values()))

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

    symmetric = purify_model_is_symmetric(purify_model)  # refuses an unknown model
    _, _, pur_idx = _purify_table(grid, noise, purify_model)
    ka_grid, kb_grid = np.meshgrid(np.arange(nf), np.arange(nf), indexing="ij")
    valid = pur_idx > np.maximum(ka_grid, kb_grid)
    if symmetric:
        valid &= ka_grid <= kb_grid
    pa, pb = np.nonzero(valid)
    bases = np.array([base[pair] for pair in pairs], np.int64)[:, None]
    purifies = _edge_block("purify", (bases + pa).ravel(), (bases + pur_idx[pa, pb]).ravel(),
                           input1=(bases + pb).ravel())

    ends = _edge_block("end", base[(0, m - 1)] + np.arange(nf), np.full(nf, SINK))

    return Hypergraph(_columns(path.nodes, vertices, [starts, swaps, purifies, ends]), grid,
                      noise, link_limits, builder="standard", purify_model=purify_model)


def _purify_sweep(
    block: list[list], base: int, grid: FidelityGrid, noise: NoiseParams, purify_model: str
) -> list[int]:
    """One increasing-bucket purification sweep over a node-pair block.

    ``block`` is the block as six columns sorted by bucket: (bucket, exact
    fidelity, rate, op code, input0, input1), each a list, one entry per
    incumbent. Its incumbents make vertices ``base``, ``base`` + 1, ... in
    that order, so a purification names its inputs as ``base`` plus their
    positions. The sweep inserts and replaces incumbents in place and
    returns the buckets it made, in the order made. Candidates always land
    in a strictly higher bucket than both inputs, so a single ascending pass
    over the occupied buckets also captures cascaded purification: a bucket
    filled during the sweep is inserted ahead of the cursor, and every
    bucket behind it is final, positions included. A row scans partners from
    the cursor down, self-purification first. Under ideal DEJMPS, both the
    output f' and the success probability p rise with the partner's
    fidelity on [1/4, 1]: d f'/d f2 has numerator 42 f1 - 12 f1^2 - 3 >=
    6.75 and d p/d f2 is (8 f1 - 2) / 9 >= 0. So the self-purification
    bounds the row: no candidate lands above the bucket of its output plus
    ``_SWEEP_SLACK``, nor beats credit r_hi p_self by a factor over 1 +
    ``_RATE_SLACK``. Let b be the first bucket above the cursor's that is
    empty or held at a rate within that bound (the held buckets above the
    cursor are read by position). A row with b above that top bucket can win
    nothing; any other stops at the first output over ``_SWEEP_SLACK`` below
    the bottom of bucket b, as every lower partner lands under b, where the
    held rates beat it. As-printed calls can each clamp, so they never stop.

    Under ideal DEJMPS the fidelities a block enters with are checked once,
    in bucket order; the rows the sweep adds need no check. Each is a
    candidate with f' >= vals[k + 1] >= 1/2, and f' <= 1 in the kernel's
    rounding: each term the denominator adds to the numerator's f1 f2 is
    >= 0, and 5.0 (1 - f1)(1 - f2) / 9 >= (1 - f1)(1 - f2) / 9 under
    monotone rounding, so the numerator never exceeds the denominator. The
    as-printed ``purify`` checks every call.
    """
    bucket, fid, rate, op, input0, input1 = block
    ideal = purify_model == "ideal-dejmps"
    credit = 2.0 * PURIFY_CREDIT  # twice the LP's credit: ROADMAP item 21's discrepancy
    vals = grid.values
    made = []
    if ideal:
        for f in fid:
            _check_fidelity("f1", f)
    for pos, k in enumerate(bucket):  # reaches the buckets filled ahead of the cursor
        f_hi, r_hi = fid[pos], rate[pos]
        up = vals[k + 1] if k + 1 < len(vals) else math.inf  # bottom of the next bucket
        if ideal:
            f_new, p = dejmps(f_hi, f_hi)
            bound = r_hi * credit * p * (1.0 + _RATE_SLACK)  # no candidate's rate exceeds it
            top = bisect_right(vals, f_new + _SWEEP_SLACK) - 1  # no candidate lands above it
            b, at = k + 1, pos + 1  # a bucket up, and the position that holds it if held
            while b <= top and at < len(bucket) and bucket[at] == b and rate[at] > bound:
                b, at = b + 1, at + 1  # held at a rate no candidate reaches
            if b > top:
                continue  # the row can win nothing
            floor = vals[b] - _SWEEP_SLACK
        else:
            f_new, p = purify(f_hi, f_hi, noise, purify_model)
            floor = -math.inf
        row = []
        for j in range(pos, -1, -1):  # partners from the cursor down
            if j < pos:  # the self-purification was made above
                f_new, p = (dejmps(f_hi, fid[j]) if ideal
                            else purify(f_hi, fid[j], noise, purify_model))
            if f_new < floor:
                break  # and so would every lower partner
            row.append((j, f_new, p))
        for j, f_new, p in reversed(row):  # inserts land above the cursor, not at j
            if f_new < up:
                continue  # must move up a bucket or the DAG order breaks
            kn = bisect_right(vals, f_new) - 1
            # both inputs drawn from one pool: half are attempts
            r_new = (0.5 * r_hi if j == pos else min(r_hi, rate[j])) * credit * p
            at = bisect_left(bucket, kn)
            if at == len(bucket) or bucket[at] != kn:  # a bucket the sweep makes
                made.append(kn)
                for column in block:
                    column.insert(at, kn)  # the bucket, and a place for each value set below
            elif r_new < rate[at] or (r_new == rate[at] and f_new <= fid[at]):
                continue  # not strictly better: the incumbent stays
            fid[at], rate[at], op[at], input0[at], input1[at] = (
                f_new, r_new, OP_CODE["purify"], base + pos, base + j)
    return made


def _span_pairs(l0, nl, r0, nr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(run, left index, right index) of every pair of run k's left entries
    [l0[k], l0[k] + nl[k]) and right ones [r0[k], r0[k] + nr[k]), run by run
    and left-major; right runs of size 1 spell out the left runs."""
    n = nl * nr
    at = np.repeat(np.arange(len(n)), n)  # the run of each pair
    c = np.arange(len(at)) - (np.cumsum(n) - n)[at]  # its place in the run
    return at, l0[at] + c // nr[at], r0[at] + c % nr[at]


def _span_swaps(m: int, span: int, slot: dict, fidelity, g: float, vals) -> tuple:
    """(owner i, left entry, right entry, output fidelity, round-down bucket)
    of each swap into pair (i, i + ``span``) that lands on the grid ``vals``:
    per (i, w), w ascending, each entry of (i, w) with each one of (w, i +
    span), left-major. ``slot`` maps a pair to the (start, size) of its
    entries in ``fidelity``."""
    triples = [(i, w) for i in range(m - span) for w in range(i + 1, i + span)]
    at, left, right = _span_pairs(*np.array([slot[(i, w)] for i, w in triples]).T,
                                  *np.array([slot[(w, i + span)] for i, w in triples]).T)
    f = werner_swap(fidelity[left], fidelity[right], g)
    bucket = np.searchsorted(vals, f, side="right") - 1
    kept = bucket >= 0  # below the grid: dropped
    owner = np.array([i for i, _ in triples], np.int64)[at[kept]]
    return owner, left[kept], right[kept], f[kept], bucket[kept]


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
    purify_model: str = DEFAULT_PURIFY_MODEL,
) -> Hypergraph:
    """Dynamic-programming builder with fidelity bucketing.

    Per (node-pair, bucket) at most one incumbent survives, holding its
    exact continuous fidelity and the best rate found. Spans are processed
    bottom-up: swap combinations first, then a purification sweep within
    the block. A candidate replaces the incumbent only on a strictly higher
    rate, or an equal rate and a strictly higher fidelity, so of exact ties
    the first candidate wins. A block is one set of columns sorted by
    bucket (see ``_purify_sweep``): a span's swap winners reach that order
    by one argsort of (left node, bucket), sliced per left node, and a
    finished block extends the table's columns as it is. The swap
    candidates of pair (i, j) come w ascending, then each input block in
    its pool order, recorded as each span finishes: its swap buckets in
    order of their first candidate, then the buckets made by purification
    in the order they were made. That order fixes the output.
    """
    BUILD_COUNTER.tick()
    m, vals, nf, g = path.num_nodes, grid.as_array(), grid.resolution, gate_factor(noise)
    k0, link_limits = _on_grid_links(path, grid)

    # the table as columns: per vertex its exact fidelity, source and sink
    # first; per edge but the ends its rate, op and inputs, edge e making
    # vertex 2 + e (each vertex's pair follows from slot)
    fidelity, rate, op, input0, input1 = [0.0, 0.0], [], [], [], []
    # the pool as arrays: the vertices of the finished blocks, each block's in pool
    # order, and each vertex's fidelity and each edge's rate
    vid, fid, rates = np.empty(0, np.int64), np.empty(0), np.empty(0)
    slot = {}  # finished pair -> (start, size) of its vertices in vid, in vertex order

    for span in range(1, m):
        if span == 1:  # the links: each block holds its start edge, if any
            firsts = [[k] if k >= 0 else [] for k in k0]
            blocks = [[[k], [phys.f0], [link_limits[phys.key]], [OP_CODE["start"]], [SOURCE], [-1]]
                      if k >= 0 else [[], [], [], [], [], []] for phys, k in zip(path.edges, k0)]
        else:
            # each grows by what the previous span added
            fid, rates = (np.concatenate([a, np.array(column[len(a):], a.dtype)])
                          for a, column in ((fid, fidelity), (rates, rate)))
            # every swap candidate of the span at once, on exact fidelities
            owner, left, right, f, bucket = _span_swaps(m, span, slot, fid[vid], g, vals)
            r = np.minimum(rates[vid[left] - 2], rates[vid[right] - 2])
            key = owner * nf + bucket
            win = _span_winners(key, (m - span) * nf, r, f)
            s = win[np.argsort(key[win])]  # the winners by (owner, bucket)
            first, bk, fw, rw, in0, in1 = (a.tolist() for a in (
                bucket[win], bucket[s], f[s], r[s], vid[left[s]], vid[right[s]]))
            ends = np.cumsum(np.bincount(owner[s], minlength=m - span)).tolist()
            cuts = [*zip([0, *ends], ends)]  # each block's winners in s, and in win: both by owner
            firsts = [first[a:b] for a, b in cuts]
            blocks = [[bk[a:b], fw[a:b], rw[a:b], [OP_CODE["swap"]] * (b - a), in0[a:b], in1[a:b]]
                      for a, b in cuts]
        # Blocks finish span by span, left to right, and every input of an
        # incumbent is in a shorter span or a lower bucket of its own pair,
        # so numbering each block's buckets in ascending order as it
        # finishes numbers each input before its consumer. Block i of the
        # span is pair (i, i + span), and firsts[i] holds its swap (or start)
        # buckets in order of their first candidate, which with the buckets the
        # sweep made, in the order made, is the block's pool order.
        pool, base = [], len(fidelity)
        for i, (block, first) in enumerate(zip(blocks, firsts)):
            made = _purify_sweep(block, base, grid, noise, purify_model)
            slot[(i, i + span)] = (len(vid) + len(pool), len(block[0]))
            pool += [base + bisect_left(block[0], k) for k in first + made]  # their vertices
            base += len(block[0])
            _, fb, rb, ob, i0, i1 = block
            fidelity += fb
            rate += rb
            op += ob
            input0 += i0
            input1 += i1
        vid = np.concatenate([vid, np.array(pool, np.int64)])

    n, size = len(fidelity), slot[(0, m - 1)][1]  # the last block finished holds the last vertices
    pairs = np.array([(0, m - 1), (0, m - 1), *slot])  # source, sink, then the blocks
    u, v = pairs.repeat([1, 1, *(size for _, size in slot.values())], axis=0).T
    edges = {"op": op, "input0": input0, "input1": input1, "output": np.arange(2, n),
             "rate_bound": rate}
    ends = _edge_block("end", np.arange(n - size, n), SINK, rate_bound=rate[len(rate) - size:])
    return Hypergraph(_columns(path.nodes, (u, v, fidelity), [edges, ends]), grid, noise,
                      link_limits, builder="pruned", purify_model=purify_model)


def best_dp_estimate(hg: Hypergraph) -> float:
    """Outer-loop ranking score: best end incumbent rate x pair capacity."""
    cols = hg.columns
    ends = (cols.op == OP_CODE["end"]) & ~np.isnan(cols.rate_bound)
    return max([0.0, *(cols.rate_bound[ends] * hg.capacity_coeff[ends]).tolist()])


def synthesize_multipath(hypergraphs: list[Hypergraph]) -> Hypergraph:
    """Disjoint union of per-path hypergraphs with pooled link limits.

    Vertices are never merged across paths; only start edges referencing
    the same physical link share one generation-limit group, plus a single
    shared source and sink.
    """
    if not hypergraphs:
        raise HypergraphError("need at least one hypergraph")
    first = hypergraphs[0]
    link_limits: dict[str, float] = {}
    for hg in hypergraphs:
        if hg.endpoints != first.endpoints:
            raise HypergraphError("mismatched endpoints")
        if hg.grid.values != first.grid.values:
            raise HypergraphError("mismatched grids")
        if hg.noise != first.noise:
            raise HypergraphError("mismatched noise parameters")
        if hg.purify_model != first.purify_model:
            raise HypergraphError("mismatched purification models")
        for key, limit in hg.link_limits.items():
            if key in link_limits and abs(link_limits[key] - limit) > 1e-9:
                raise HypergraphError(f"conflicting limits for physical link {key}")
            link_limits[key] = limit

    BUILD_COUNTER.tick()
    # u and v index the nodes of every input in turn; _columns merges them
    u, v, fidelity = [first.columns.u[:2]], [first.columns.v[:2]], [np.zeros(2)]  # source, sink
    names, blocks, offset = [], [], 0
    for hg in hypergraphs:
        cols = hg.columns
        u.append(cols.u[2:] + len(names))
        v.append(cols.v[2:] + len(names))
        names += cols.nodes
        fidelity.append(cols.exact_fidelity[2:])
        block = {name: getattr(cols, name) for name in _EDGE_DTYPES}
        for name in ("input0", "input1", "output"):
            # source, sink and the -1 of a missing input keep their index
            block[name] = np.where(block[name] >= 2, block[name] + offset, block[name])
        blocks.append(block)
        offset += len(cols.exact_fidelity) - 2

    vertices = tuple(map(np.concatenate, (u, v, fidelity)))
    return Hypergraph(_columns(names, vertices, blocks), first.grid, first.noise, link_limits,
                      builder="synthesis", purify_model=first.purify_model)
