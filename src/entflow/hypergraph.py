"""Operation hypergraphs over repeater paths.

Vertices are (node-pair, fidelity) link states plus a source and a sink;
hyper-edges are start/swap/purify/end operations carrying LP rate
variables. Two builders are provided: the standard builder enumerates the
full discretized lattice (edge count grows as |V|^3 |F|^2), and the
pruned builder runs a dynamic program that keeps one best-rate incumbent
per (node-pair, fidelity-bucket) with its exact continuous fidelity
(edge count O(|V|^2 |F|)). Multi-path synthesis unions per-path
hypergraphs while pooling generation limits of shared physical links.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right, insort
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

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

_OP_ARITY = {"start": 1, "swap": 2, "purify": 2, "end": 1}  # inputs per op
OP_CODE = {op: code for code, op in enumerate(_OP_ARITY)}  # op -> HypergraphColumns.op


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


@dataclass(frozen=True)
class HyperVertex:
    u: str
    v: str
    exact_fidelity: float
    bucket: int
    kind: str  # source | sink | link


@dataclass(frozen=True, slots=True)
class HyperEdge:
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
    """The hypergraph as numpy columns: one entry per edge, then per vertex."""

    op: np.ndarray  # OP_CODE of each edge
    input0: np.ndarray
    input1: np.ndarray  # -1 for one-input ops
    output: np.ndarray
    p_succ: np.ndarray
    capacity_coeff: np.ndarray
    link: np.ndarray  # start edges: index into link_keys; -1 elsewhere
    link_keys: tuple[str, ...]  # sorted keys of the links that start edges name
    is_link: np.ndarray  # per vertex: kind == "link"
    exact_fidelity: np.ndarray  # per vertex

    def __post_init__(self) -> None:
        # cached on the hypergraph and shared by every LP built from it
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


BUILD_COUNTER = EventCounter()  # hypergraph builder invocations


class Hypergraph:
    """Immutable operation hypergraph. Index 0 is the source, 1 the sink."""

    def __init__(
        self,
        vertices: list[HyperVertex],
        edges: list[HyperEdge],
        grid: FidelityGrid,
        noise: NoiseParams,
        link_limits: dict[str, float],
        endpoints: tuple[str, str],
        builder: str,
        purify_model: str,
        build_time_s: float = 0.0,
    ) -> None:
        if len(vertices) < 2 or vertices[0].kind != "source" or vertices[1].kind != "sink":
            raise HypergraphError("vertices must start with source and sink")
        for vi, v in enumerate(vertices[2:], start=2):
            if v.kind != "link":
                raise HypergraphError(f"vertex {vi}: kind {v.kind!r} is not 'link'")
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.grid = grid
        self.noise = noise
        self.link_limits = dict(link_limits)
        self.endpoints = endpoints
        self.builder = builder
        self.purify_model = purify_model
        self.build_time_s = build_time_s
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Reject cycles: in the vertex -> edge -> vertex digraph (vertices
        first, then edges) every strongly connected component is one node."""
        n, m = len(self.vertices), len(self.edges)
        arity = np.fromiter((len(e.inputs) for e in self.edges), np.int64, m)
        inputs = chain.from_iterable(e.inputs for e in self.edges)
        edge_nodes = n + np.arange(m)
        tail = np.concatenate([np.fromiter(inputs, np.int64, int(arity.sum())), edge_nodes])
        head = np.concatenate([
            np.repeat(edge_nodes, arity),
            np.fromiter((e.output for e in self.edges), np.int64, m),
        ])
        graph = sp.csr_matrix((np.ones(len(tail)), (tail, head)), shape=(n + m, n + m))
        components, _ = connected_components(graph, directed=True, connection="strong")
        if components != n + m:
            raise HypergraphError("hypergraph contains a cycle")

    @cached_property
    def columns(self) -> HypergraphColumns:
        """Numpy columns of the edges and vertices, built on first use."""
        edges, m = self.edges, len(self.edges)
        try:
            op = np.fromiter((OP_CODE[e.op] for e in edges), np.int8, m)
        except KeyError as exc:
            raise HypergraphError(f"unknown op {exc.args[0]!r}") from None
        arity = np.fromiter((len(e.inputs) for e in edges), np.int64, m)
        if m and (arity.min() < 1 or arity.max() > 2):
            raise HypergraphError("every edge takes one or two inputs")
        flat = np.fromiter(chain.from_iterable(e.inputs for e in edges), np.int64, int(arity.sum()))
        first = np.cumsum(arity) - arity
        two = arity == 2
        input1 = np.full(m, -1, np.int64)
        input1[two] = flat[first[two] + 1]
        keys = sorted({e.link_key for e in edges if e.op == "start" and e.link_key is not None})
        code = {key: i for i, key in enumerate(keys)}
        return HypergraphColumns(
            op=op,
            input0=flat[first],
            input1=input1,
            output=np.fromiter((e.output for e in edges), np.int64, m),
            p_succ=np.fromiter((e.p_succ for e in edges), np.float64, m),
            capacity_coeff=np.fromiter((e.capacity_coeff for e in edges), np.float64, m),
            link=np.fromiter(
                (code.get(e.link_key, -1) if e.op == "start" else -1 for e in edges), np.int64, m
            ),
            link_keys=tuple(keys),
            is_link=np.fromiter((v.kind == "link" for v in self.vertices), bool, len(self.vertices)),
            exact_fidelity=np.fromiter(
                (v.exact_fidelity for v in self.vertices), np.float64, len(self.vertices)
            ),
        )

    @cached_property
    def rate_lp(self) -> RateLP:
        """The objective-free part of the rate LP and its solver model, built
        on first use and shared by every problem formulated from this graph."""
        from .lp import RateLP  # lp imports this module

        return RateLP.of(self)

    def stats(self) -> HypergraphStats:
        by_op = dict.fromkeys(_OP_ARITY, 0)
        for e in self.edges:
            by_op[e.op] = by_op.get(e.op, 0) + 1
        return HypergraphStats(
            num_vertices=len(self.vertices),
            num_edges=len(self.edges),
            edges_by_op=by_op,
            build_time_s=self.build_time_s,
        )

    def end_edges(self) -> list[tuple[int, HyperEdge]]:
        return [(i, e) for i, e in enumerate(self.edges) if e.op == "end"]

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
            "vertices": [
                [v.u, v.v, v.exact_fidelity, v.bucket, v.kind] for v in self.vertices
            ],
            "edges": [
                [e.op, list(e.inputs), e.output, e.p_succ, e.link_key, e.capacity_coeff, e.rate_bound]
                for e in self.edges
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> Hypergraph:
        try:
            if doc["version"] != SERIALIZATION_VERSION:
                raise HypergraphError(f"unsupported version {doc['version']!r}")
            vertices = [
                HyperVertex(u=u, v=v, exact_fidelity=f, bucket=b, kind=k)
                for u, v, f, b, k in doc["vertices"]
            ]
            edges = [
                HyperEdge(
                    op=op,
                    inputs=tuple(inputs),
                    output=output,
                    p_succ=p_succ,
                    link_key=link_key,
                    capacity_coeff=cap,
                    rate_bound=rb,
                )
                for op, inputs, output, p_succ, link_key, cap, rb in doc["edges"]
            ]
            link_limits = dict(doc["link_limits"])
            _check_references(len(vertices), edges, link_limits)
            return cls(
                vertices=vertices,
                edges=edges,
                grid=FidelityGrid(tuple(doc["grid"])),
                noise=NoiseParams(**doc["noise"]),
                link_limits=link_limits,
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


def _check_references(
    num_vertices: int, edges: list[HyperEdge], link_limits: dict[str, float]
) -> None:
    """Reject ops, vertex indices, probabilities and limits no builder emits."""
    for key, limit in link_limits.items():
        if not (math.isfinite(limit) and limit > 0.0):
            raise HypergraphError(f"link {key!r}: limit {limit!r} is not finite and positive")
    for ei, e in enumerate(edges):
        arity = _OP_ARITY.get(e.op)
        if arity is None:
            raise HypergraphError(f"edge {ei}: unknown op {e.op!r}")
        if len(e.inputs) != arity:
            raise HypergraphError(
                f"edge {ei}: {e.op} takes {arity} input(s), got {len(e.inputs)}"
            )
        for vi in (*e.inputs, e.output):
            if not (isinstance(vi, int) and 0 <= vi < num_vertices):
                raise HypergraphError(f"edge {ei}: vertex {vi!r} outside [0, {num_vertices})")
        if not 0.0 < e.p_succ <= 1.0:
            raise HypergraphError(f"edge {ei}: p_succ {e.p_succ!r} outside (0, 1]")
        if e.op == "start" and e.link_key not in link_limits:
            raise HypergraphError(f"edge {ei}: start link {e.link_key!r} has no limit")


def _source_sink(s: str, d: str) -> list[HyperVertex]:
    return [
        HyperVertex(u=s, v=d, exact_fidelity=0.0, bucket=-1, kind="source"),
        HyperVertex(u=s, v=d, exact_fidelity=0.0, bucket=-1, kind="sink"),
    ]


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
    """
    BUILD_COUNTER.tick()
    t0 = time.perf_counter()
    m = path.num_nodes
    if m < 2:
        raise HypergraphError("path must have at least 2 nodes")
    nodes = path.nodes
    nf = grid.resolution

    vertices = _source_sink(nodes[0], nodes[-1])
    vidx: dict[tuple[int, int, int], int] = {}
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(nf):
                vidx[(i, j, k)] = len(vertices)
                vertices.append(
                    HyperVertex(
                        u=nodes[i], v=nodes[j], exact_fidelity=grid.values[k],
                        bucket=k, kind="link",
                    )
                )

    edges: list[HyperEdge] = []
    link_limits: dict[str, float] = {}

    for t, phys in enumerate(path.edges):
        k0 = grid.round_down_index(phys.f0)
        if k0 < 0:
            continue  # f0 below the grid generates no usable state
        r_e = link_egr(phys)
        link_limits[phys.key] = r_e
        edges.append(
            HyperEdge(op="start", inputs=(SOURCE,), output=vidx[(t, t + 1, k0)],
                      link_key=phys.key, rate_bound=r_e)
        )

    _, swap_idx = _swap_table(grid, noise)
    swap_pairs = np.argwhere(swap_idx >= 0)
    for i in range(m):
        for j in range(i + 2, m):
            for w in range(i + 1, j):
                for ka, kb in swap_pairs:
                    edges.append(
                        HyperEdge(
                            op="swap",
                            inputs=(vidx[(i, w, ka)], vidx[(w, j, kb)]),
                            output=vidx[(i, j, swap_idx[ka, kb])],
                        )
                    )

    _, pur_p, pur_idx = _purify_table(grid, noise, purify_model)
    ka_grid, kb_grid = np.meshgrid(np.arange(nf), np.arange(nf), indexing="ij")
    valid = pur_idx > np.maximum(ka_grid, kb_grid)
    if purify_model_is_symmetric(purify_model):
        valid &= ka_grid <= kb_grid
    pur_pairs = np.argwhere(valid)
    for i in range(m):
        for j in range(i + 1, m):
            for ka, kb in pur_pairs:
                edges.append(
                    HyperEdge(
                        op="purify",
                        inputs=(vidx[(i, j, ka)], vidx[(i, j, kb)]),
                        output=vidx[(i, j, pur_idx[ka, kb])],
                        p_succ=float(pur_p[ka, kb]),
                    )
                )

    for k in range(nf):
        edges.append(
            HyperEdge(op="end", inputs=(vidx[(0, m - 1, k)],), output=SINK,
                      capacity_coeff=pair_capacity(grid.values[k]))
        )

    return Hypergraph(
        vertices=vertices, edges=edges, grid=grid, noise=noise,
        link_limits=link_limits, endpoints=(nodes[0], nodes[-1]),
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
    vertices = _source_sink(nodes[0], nodes[-1])
    vidx: dict[tuple[tuple[int, int], int], int] = {}
    edges: list[HyperEdge] = []
    for pair, block in blocks.items():
        for bucket in sorted(block):
            inc = block[bucket]
            out = vidx[(pair, bucket)] = len(vertices)
            vertices.append(
                HyperVertex(
                    u=nodes[pair[0]], v=nodes[pair[1]],
                    exact_fidelity=inc.exact_fidelity, bucket=bucket, kind="link",
                )
            )
            if inc.op == "start":
                edges.append(
                    HyperEdge(op="start", inputs=(SOURCE,), output=out,
                              link_key=inc.link_key, rate_bound=inc.rate)
                )
            else:
                edges.append(
                    HyperEdge(
                        op=inc.op,
                        inputs=tuple(vidx[ref] for ref in inc.inputs),
                        output=out,
                        p_succ=inc.p_succ,
                        rate_bound=inc.rate,
                    )
                )

    for bucket in sorted(blocks[(0, m - 1)]):
        inc = blocks[(0, m - 1)][bucket]
        edges.append(
            HyperEdge(op="end", inputs=(vidx[((0, m - 1), bucket)],), output=SINK,
                      capacity_coeff=pair_capacity(inc.exact_fidelity),
                      rate_bound=inc.rate)
        )

    return Hypergraph(
        vertices=vertices, edges=edges, grid=grid, noise=noise,
        link_limits=link_limits, endpoints=(nodes[0], nodes[-1]),
        builder="pruned", purify_model=purify_model,
        build_time_s=time.perf_counter() - t0,
    )


def best_dp_estimate(hg: Hypergraph) -> float:
    """Outer-loop ranking score: best end incumbent rate x pair capacity."""
    best = 0.0
    for _, e in hg.end_edges():
        if e.rate_bound is None:
            continue
        best = max(best, e.rate_bound * e.capacity_coeff)
    return best


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
    vertices = _source_sink(*first.endpoints)
    edges: list[HyperEdge] = []
    link_limits: dict[str, float] = {}
    for hg in hypergraphs:
        offset = len(vertices) - 2
        for v in hg.vertices[2:]:
            vertices.append(v)

        def remap(idx: int) -> int:
            return idx if idx in (SOURCE, SINK) else idx + offset

        for e in hg.edges:
            edges.append(
                HyperEdge(
                    op=e.op,
                    inputs=tuple(remap(i) for i in e.inputs),
                    output=remap(e.output),
                    p_succ=e.p_succ,
                    link_key=e.link_key,
                    capacity_coeff=e.capacity_coeff,
                    rate_bound=e.rate_bound,
                )
            )
        for key, limit in hg.link_limits.items():
            if key in link_limits and abs(link_limits[key] - limit) > 1e-9:
                raise HypergraphError(f"conflicting limits for physical link {key}")
            link_limits[key] = limit

    return Hypergraph(
        vertices=vertices, edges=edges, grid=first.grid, noise=first.noise,
        link_limits=link_limits, endpoints=first.endpoints,
        builder="synthesis", purify_model=first.purify_model,
        build_time_s=time.perf_counter() - t0,
    )
