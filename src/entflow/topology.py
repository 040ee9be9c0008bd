"""Network graph model, ingestion/generation, link rates, and path search."""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .physics import DEFAULT_NOISE

DEFAULT_R_LOCAL = 12000.0  # pairs/s at zero distance
DEFAULT_ALPHA = 0.21  # dB/km fiber attenuation
DEFAULT_BBOX_KM = 500.0  # side of the square generate_gabriel places nodes in
PATH_WEIGHTS = ("km", "hops")


class TopologyParseError(ValueError):
    """Raised for malformed topology documents."""


class TopologyValidationError(ValueError):
    """Raised for structurally invalid topologies."""


@dataclass(frozen=True)
class Edge:
    u: str
    v: str
    length_km: float
    r_local: float = DEFAULT_R_LOCAL
    alpha_db_per_km: float = DEFAULT_ALPHA
    f0: float = DEFAULT_NOISE.f0  # base generated-pair fidelity

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise TopologyValidationError(f"self-loop on node {self.u!r}")
        if not self.length_km > 0:
            raise TopologyValidationError(
                f"edge {self.u!r}-{self.v!r}: length must be positive, got {self.length_km}"
            )
        if not self.r_local > 0:
            raise TopologyValidationError(
                f"edge {self.u!r}-{self.v!r}: r_local must be positive"
            )
        if not self.alpha_db_per_km > 0:
            raise TopologyValidationError(
                f"edge {self.u!r}-{self.v!r}: alpha must be positive"
            )
        if not 0.5 < self.f0 <= 1.0:
            raise TopologyValidationError(
                f"edge {self.u!r}-{self.v!r}: f0 must be in (0.5, 1], got {self.f0}"
            )

    @property
    def key(self) -> str:
        """Canonical undirected identifier for resource-pool grouping."""
        a, b = sorted((self.u, self.v))
        return f"{a}|{b}"


def link_egr(edge: Edge) -> float:
    """Mean generation rate of a physical link in pairs/s."""
    return edge.r_local * math.exp(-edge.alpha_db_per_km * edge.length_km / 10.0)


@dataclass(frozen=True)
class Path:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    total_length_km: float

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.edges) + 1:
            raise TopologyValidationError("path node count must be edge count + 1")
        if len(set(self.nodes)) != len(self.nodes):
            raise TopologyValidationError("path must be simple (no repeated nodes)")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


class Topology:
    """Undirected simple graph of repeaters and fiber links. Immutable."""

    def __init__(self, nodes, edges) -> None:
        self.nodes: tuple[str, ...] = tuple(nodes)
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise TopologyValidationError("duplicate node id")
        adj: dict[str, dict[str, Edge]] = {n: {} for n in self.nodes}
        for e in edges:
            for endpoint in (e.u, e.v):
                if endpoint not in node_set:
                    raise TopologyValidationError(f"edge references unknown node {endpoint!r}")
            if e.v in adj[e.u]:
                raise TopologyValidationError(f"duplicate edge {e.u!r}-{e.v!r}")
            adj[e.u][e.v] = e
            adj[e.v][e.u] = e
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._adj = adj

    def neighbors(self, node: str):
        return self._adj[node].keys()

    def edge_between(self, u: str, v: str) -> Edge | None:
        return self._adj.get(u, {}).get(v)

    def has_node(self, node: str) -> bool:
        return node in self._adj

    def path_from_nodes(self, nodes) -> Path:
        nodes = tuple(nodes)
        edges = []
        for a, b in zip(nodes, nodes[1:]):
            e = self.edge_between(a, b)
            if e is None:
                raise TopologyValidationError(f"nodes {a!r} and {b!r} are not adjacent")
            edges.append(e)
        return Path(nodes, tuple(edges), sum(e.length_km for e in edges))


def load_topology(text: str) -> Topology:
    """Load a JSON topology document.

    Schema: {"defaults": {"r_local", "alpha", "f0"}, "nodes": [...],
    "edges": [{"u", "v", "length_km", "r_local"?, "alpha"?, "f0"?}, ...]}.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TopologyParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise TopologyParseError("document must be an object with 'nodes' and 'edges'")
    defaults = doc.get("defaults", {})
    r_local = float(defaults.get("r_local", DEFAULT_R_LOCAL))
    alpha = float(defaults.get("alpha", DEFAULT_ALPHA))
    f0 = float(defaults.get("f0", DEFAULT_NOISE.f0))
    nodes = [str(n) for n in doc["nodes"]]
    edges = []
    for item in doc["edges"]:
        try:
            edge = Edge(
                u=str(item["u"]),
                v=str(item["v"]),
                length_km=float(item["length_km"]),
                r_local=float(item.get("r_local", r_local)),
                alpha_db_per_km=float(item.get("alpha", alpha)),
                f0=float(item.get("f0", f0)),
            )
        except KeyError as exc:
            raise TopologyParseError(f"edge missing field {exc}") from exc
        edges.append(edge)
    return Topology(nodes, edges)


def read_topology_file(path: str) -> Topology:
    """Read a topology file: GML when the name ends in ``.gml``, else JSON."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".gml"):
        return load_gml(text)
    return load_topology(text)


_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')


def load_gml(text: str, default_length_km: float = 1.0) -> Topology:
    """Minimal GML reader for Topology-Zoo-style files.

    Recognizes graph/node/edge blocks with id/label/source/target and an
    optional per-edge ``length`` attribute; unknown keys are ignored.
    """
    tokens = _GML_TOKEN.findall(text)
    pos = 0

    def parse_value():
        nonlocal pos
        tok = tokens[pos]
        if tok == "[":
            pos += 1
            block = []
            while pos < len(tokens) and tokens[pos] != "]":
                key = tokens[pos]
                pos += 1
                if pos >= len(tokens):
                    raise TopologyParseError("unexpected end of GML document")
                block.append((key.lower(), parse_value()))
            if pos >= len(tokens):
                raise TopologyParseError("unterminated GML block")
            pos += 1  # consume ]
            return block
        pos += 1
        if tok.startswith('"'):
            return tok.strip('"')
        return tok

    graph_block = None
    while pos < len(tokens):
        key = tokens[pos]
        pos += 1
        if pos >= len(tokens):
            break
        value = parse_value()
        if key.lower() == "graph" and isinstance(value, list):
            graph_block = value
            break
    if graph_block is None:
        raise TopologyParseError("no 'graph' block found")

    id_to_name: dict[str, str] = {}
    raw_edges = []
    for key, value in graph_block:
        if key == "node" and isinstance(value, list):
            attrs = dict(value)
            if "id" not in attrs:
                raise TopologyParseError("GML node without id")
            node_id = str(attrs["id"])
            id_to_name[node_id] = str(attrs.get("label", node_id))
        elif key == "edge" and isinstance(value, list):
            attrs = dict(value)
            if "source" not in attrs or "target" not in attrs:
                raise TopologyParseError("GML edge without source/target")
            raw_edges.append(attrs)

    names = list(id_to_name.values())
    if len(set(names)) != len(names):
        # fall back to ids when labels collide
        id_to_name = {k: k for k in id_to_name}
    edges = []
    seen = set()
    for attrs in raw_edges:
        u = id_to_name.get(str(attrs["source"]))
        v = id_to_name.get(str(attrs["target"]))
        if u is None or v is None:
            raise TopologyValidationError("GML edge references unknown node id")
        key = tuple(sorted((u, v)))
        if key in seen:
            continue  # Topology Zoo files may repeat parallel links
        seen.add(key)
        length = float(attrs.get("length", default_length_km))
        edges.append(Edge(u=u, v=v, length_km=length))
    return Topology(sorted(id_to_name.values()), edges)


def _gabriel_edges(points: np.ndarray) -> list[tuple[int, int]]:
    """Gabriel edges: Delaunay edges whose diameter disk holds no other point.

    Every Gabriel edge is a Delaunay edge, so the triangulation supplies all
    candidates. Two points have no triangulation and one edge.
    """
    if len(points) == 2:
        return [(0, 1)]
    from scipy.spatial import Delaunay, cKDTree

    tri = Delaunay(points)
    candidates = set()
    for simplex in tri.simplices:
        for a in range(3):
            for b in range(a + 1, 3):
                i, j = int(simplex[a]), int(simplex[b])
                candidates.add((min(i, j), max(i, j)))
    tree = cKDTree(points)
    edges = []
    for i, j in sorted(candidates):
        mid = 0.5 * (points[i] + points[j])
        r = 0.5 * float(np.linalg.norm(points[i] - points[j]))
        blockers = tree.query_ball_point(mid, r * (1.0 - 1e-12))
        if all(k in (i, j) for k in blockers):
            edges.append((i, j))
    return edges


def generate_gabriel(
    n: int,
    seed: int,
    bbox_km: float = DEFAULT_BBOX_KM,
    distance_range_km: tuple[float, float] | None = None,
    f0: float = DEFAULT_NOISE.f0,
) -> Topology:
    """Random Gabriel graph over n uniform points in a square box.

    An edge (u, v) is kept iff the disk with diameter uv contains no third
    point. When ``distance_range_km`` is given, edge lengths are resampled
    uniformly from that range instead of using Euclidean distances.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, bbox_km, size=(n, 2))
    pairs = _gabriel_edges(points)
    names = [f"n{i}" for i in range(n)]
    edges = []
    for i, j in sorted(pairs):
        length = float(np.linalg.norm(points[i] - points[j]))
        if distance_range_km is not None:
            lo, hi = distance_range_km
            length = float(rng.uniform(lo, hi))
        edges.append(Edge(u=names[i], v=names[j], length_km=length, f0=f0))
    return Topology(names, edges)


def _edge_weight(edge: Edge, weight: str) -> float:
    if weight == "km":
        return edge.length_km
    if weight == "hops":
        return 1.0
    raise ValueError(f"unknown weight mode {weight!r}")


def _dijkstra(
    topology: Topology,
    s: str,
    d: str,
    weight: str,
    banned_edges: set[frozenset] | None = None,
    banned_nodes: set[str] | None = None,
) -> tuple[float, tuple[str, ...]] | None:
    """Shortest path with lexicographic node-sequence tie-break."""
    banned_edges = banned_edges or set()
    banned_nodes = banned_nodes or set()
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (s,))]
    settled: set[str] = set()
    while heap:
        dist, nodes = heapq.heappop(heap)
        tail = nodes[-1]
        if tail == d:
            return dist, nodes
        if tail in settled:
            continue
        settled.add(tail)
        for nb in sorted(topology.neighbors(tail)):
            if nb in settled or nb in banned_nodes or nb in nodes:
                continue
            if frozenset((tail, nb)) in banned_edges:
                continue
            edge = topology.edge_between(tail, nb)
            heapq.heappush(heap, (dist + _edge_weight(edge, weight), nodes + (nb,)))
    return None


def k_shortest_paths(
    topology: Topology, s: str, d: str, n: int, weight: str = "km"
) -> list[Path]:
    """Up to n loopless shortest paths (Yen), sorted by (length, node seq)."""
    if not topology.has_node(s) or not topology.has_node(d):
        raise TopologyValidationError(f"unknown endpoint {s!r} or {d!r}")
    if s == d:
        raise ValueError("source and destination must differ")
    if n < 1:
        raise ValueError("path count must be >= 1")

    first = _dijkstra(topology, s, d, weight)
    if first is None:
        return []
    found: list[tuple[float, tuple[str, ...]]] = [first]
    candidates: list[tuple[float, tuple[str, ...]]] = []
    seen_candidates: set[tuple[str, ...]] = set()

    while len(found) < n:
        _, prev_nodes = found[-1]
        for i in range(len(prev_nodes) - 1):
            root = prev_nodes[: i + 1]
            spur = prev_nodes[i]
            banned_edges = set()
            for _, p in found:
                if p[: i + 1] == root and len(p) > i + 1:
                    banned_edges.add(frozenset((p[i], p[i + 1])))
            banned_nodes = set(root[:-1])
            spur_result = _dijkstra(topology, spur, d, weight, banned_edges, banned_nodes)
            if spur_result is None:
                continue
            spur_dist, spur_nodes = spur_result
            total_nodes = root[:-1] + spur_nodes
            if total_nodes in seen_candidates or any(p == total_nodes for _, p in found):
                continue
            root_dist = sum(
                _edge_weight(topology.edge_between(a, b), weight)
                for a, b in zip(root, root[1:])
            )
            seen_candidates.add(total_nodes)
            heapq.heappush(candidates, (root_dist + spur_dist, total_nodes))
        if not candidates:
            break
        found.append(heapq.heappop(candidates))

    found.sort(key=lambda item: (item[0], item[1]))
    return [topology.path_from_nodes(nodes) for _, nodes in found]
