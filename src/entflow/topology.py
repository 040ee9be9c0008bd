"""Network graph model, ingestion/generation, link rates, and path search."""

from __future__ import annotations

import heapq
import json
import math
import re
from collections.abc import Collection
from dataclasses import dataclass
from itertools import accumulate
from numbers import Integral

import numpy as np

from .physics import DEFAULT_NOISE, check_int, check_real

DEFAULT_R_LOCAL = 12000.0  # pairs/s at zero distance
DEFAULT_ALPHA = 0.21  # dB/km fiber attenuation
DEFAULT_BBOX_KM = 500.0  # side of the square generate_gabriel places nodes in


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
        if not self._real("length_km") > 0:
            raise TopologyValidationError(
                f"edge {self.u!r}-{self.v!r}: length must be positive, got {self.length_km}"
            )
        if not self._real("r_local") > 0:
            raise TopologyValidationError(
                f"edge {self.u!r}-{self.v!r}: r_local must be positive"
            )
        if not self._real("alpha_db_per_km") > 0:
            raise TopologyValidationError(
                f"edge {self.u!r}-{self.v!r}: alpha must be positive"
            )
        if not 0.5 < self._real("f0") <= 1.0:
            raise TopologyValidationError(
                f"edge {self.u!r}-{self.v!r}: f0 must be in (0.5, 1], got {self.f0}"
            )
        for name in ("length_km", "r_local", "alpha_db_per_km"):
            if not math.isfinite(getattr(self, name)):  # an infinite link limit or rate
                raise TopologyValidationError(
                    f"edge {self.u!r}-{self.v!r}: {name} must be finite, got {getattr(self, name)}"
                )
        if not link_egr(self) > 0:  # exp underflows on a long or lossy link
            raise TopologyValidationError(
                f"edge {self.u!r}-{self.v!r}: link rate underflows to {link_egr(self)} pairs/s "
                f"at length_km {self.length_km} and alpha_db_per_km {self.alpha_db_per_km}"
            )

    def _real(self, name: str) -> float:
        """Field ``name``, refused naming the edge unless it is a real number."""
        return check_real(getattr(self, name), f"edge {self.u!r}-{self.v!r}: {name}",
                          TopologyValidationError)

    @property
    def key(self) -> str:
        """Canonical undirected identifier for resource-pool grouping."""
        return link_key(self.u, self.v)


def link_key(u: str, v: str) -> str:
    """The key of the physical link between nodes u and v, in either order."""
    return "|".join(sorted((u, v)))


def link_egr(edge: Edge) -> float:
    """Mean generation rate of a physical link in pairs/s."""
    return edge.r_local * math.exp(-edge.alpha_db_per_km * edge.length_km / 10.0)


@dataclass(frozen=True)
class Path:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    total_length_km: float

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise TopologyValidationError("path must have at least 2 nodes")
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


def _typed(value, kind: type, what: str):
    """``value``, refused unless it is a ``kind`` (a string is not a list of letters)."""
    if not isinstance(value, kind):
        raise TopologyParseError(f"{what} is a {type(value).__name__}, not a {kind.__name__}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float, refused naming ``what`` when it is not a number
    (a boolean is not one)."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise TopologyParseError(f"{what}: {value!r} is not a number")


def _name(value, what: str) -> str:
    """``value`` as a node name: a string, or a number as its ``str``; anything
    else, a boolean included, is refused naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TopologyParseError(f"{what}: {value!r} is not a string or number")
    return str(value)


# an edge's optional fields and their values when neither it nor its document gives one
_EDGE_DEFAULTS = {"r_local": DEFAULT_R_LOCAL, "alpha": DEFAULT_ALPHA, "f0": DEFAULT_NOISE.f0}


def _edge(k: int, item, defaults: dict = _EDGE_DEFAULTS) -> Edge:
    """Edge ``k`` of a JSON or GML document from the object ``item``: ``u``,
    ``v``, ``length_km`` and, else from ``defaults``, each of its optional
    fields. A field missing or of the wrong type is refused, naming it."""
    try:
        u = _name(_typed(item, dict, f"edge {k}")["u"], f"edge {k}: u")
        v = _name(item["v"], f"edge {k}: v")
        where = f"edge {k} ({u!r}-{v!r})"
        return Edge(u, v, _number(item["length_km"], f"{where}: length_km"),
                    *(_number(item.get(f, d), f"{where}: {f}") for f, d in defaults.items()))
    except KeyError as exc:
        raise TopologyParseError(f"edge missing field {exc}") from exc


def load_topology(text: str) -> Topology:
    """Load a JSON topology document.

    Schema: {"defaults": {"r_local", "alpha", "f0"}, "nodes": [...],
    "edges": [{"u", "v", "length_km", "r_local"?, "alpha"?, "f0"?}, ...]}.
    A field of the wrong JSON type is refused, naming it.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int of too many digits, or deep nesting
        raise TopologyParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise TopologyParseError("document must be an object with 'nodes' and 'edges'")
    given = _typed(doc.get("defaults", {}), dict, "defaults")
    defaults = {f: _number(given.get(f, d), f"defaults: {f}") for f, d in _EDGE_DEFAULTS.items()}
    nodes = [_name(n, f"node {k}") for k, n in enumerate(_typed(doc["nodes"], list, "nodes"))]
    edges = [_edge(k, item, defaults) for k, item in enumerate(_typed(doc["edges"], list, "edges"))]
    return Topology(nodes, edges)


def read_topology_file(path: str) -> Topology:
    """Read a topology file: GML when the name ends in ``.gml``, else JSON."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".gml"):
        return load_gml(text)
    return load_topology(text)


_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')


class _GmlBlock(list):
    """A GML block's (key, value) pairs, shown as ``[...]`` however deep they nest."""

    def __repr__(self) -> str:
        return "[...]"


def load_gml(text: str, default_length_km: float = 1.0) -> Topology:
    """Minimal GML reader for Topology-Zoo-style files.

    Recognizes graph/node/edge blocks with id/label/source/target and an
    optional per-edge ``length`` attribute; unknown keys are ignored. The
    document must be key-value pairs in balanced blocks.
    """
    open_blocks, key = [_GmlBlock()], None  # the document, then each block still open
    for match in _GML_TOKEN.finditer(text):
        tok = match.group()
        if key is not None and tok != "]":  # key's value: a scalar, or a block that opens
            value = _GmlBlock() if tok == "[" else tok.strip('"') if tok.startswith('"') else tok
            open_blocks[-1].append((key, value))
            if tok == "[":
                open_blocks.append(value)
            key = None
        elif key is None and tok not in ("[", "]"):
            key = tok.lower()
        elif key is None and tok == "]" and len(open_blocks) > 1:
            open_blocks.pop()
        else:
            raise TopologyParseError(f"unexpected {tok!r} at character {match.start()} of GML")
    if key is not None:
        raise TopologyParseError("unexpected end of GML document")
    if len(open_blocks) > 1:
        raise TopologyParseError("unterminated GML block")
    graph = next((v for k, v in open_blocks[0] if k == "graph" and isinstance(v, list)), None)
    if graph is None:
        raise TopologyParseError("no 'graph' block found")

    id_to_name: dict[str, str] = {}
    raw_edges = []
    for key, value in graph:
        if key == "node" and isinstance(value, list):
            attrs = dict(value)
            if "id" not in attrs:
                raise TopologyParseError("GML node without id")
            node_id = _name(attrs["id"], "GML node id")
            if node_id in id_to_name:
                raise TopologyParseError(f"GML node id {node_id!r} appears twice")
            id_to_name[node_id] = _name(attrs.get("label", node_id), f"GML node {node_id!r}: label")
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
    for k, attrs in enumerate(raw_edges):
        for side in ("source", "target"):  # a value is a string or a block, which no id is
            if not isinstance(attrs[side], str) or attrs[side] not in id_to_name:
                raise TopologyValidationError(
                    f"GML edge {k}: {side} {attrs[side]!r} is not a node id")
        u, v = id_to_name[attrs["source"]], id_to_name[attrs["target"]]
        key = tuple(sorted((u, v)))
        if key in seen:
            continue  # Topology Zoo files may repeat parallel links
        seen.add(key)
        length = attrs.get("length", default_length_km)
        edges.append(_edge(k, {"u": u, "v": v, "length_km": length}))
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
    if check_int(n, "n") < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    check_seed(seed)
    check_gabriel_ranges(bbox_km, distance_range_km)
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, bbox_km, size=(n, 2))
    from scipy.spatial import QhullError

    try:
        pairs = _gabriel_edges(points)
    except QhullError as exc:  # a box side out of the range Qhull's arithmetic handles
        raise ValueError(f"bbox_km {bbox_km} is too small or too large: Qhull cannot "
                         f"triangulate points in that box ({str(exc).split()[0]})") from exc
    names = [f"n{i}" for i in range(n)]
    edges = []
    for i, j in sorted(pairs):
        length = float(np.linalg.norm(points[i] - points[j]))
        if distance_range_km is not None:
            lo, hi = distance_range_km
            length = float(rng.uniform(lo, hi))
        edges.append(Edge(u=names[i], v=names[j], length_km=length, f0=f0))
    return Topology(names, edges)


def check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative integer, a boolean included."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def check_gabriel_ranges(bbox_km: float, distance_range_km: tuple[float, float] | None) -> None:
    """Refuse a box side or an edge-length range ``generate_gabriel`` cannot sample from."""
    if not 0.0 < check_real(bbox_km, "bbox_km") < math.inf:  # NaN included
        raise ValueError(f"bbox_km must be finite and > 0, got {bbox_km}")
    if distance_range_km is None:  # Euclidean lengths
        return
    if not isinstance(distance_range_km, tuple | list) or len(distance_range_km) != 2:
        raise ValueError(f"distance_range_km must be a pair (lo, hi), got {distance_range_km!r}")
    lo, hi = (check_real(bound, "distance_range_km") for bound in distance_range_km)
    if not 0.0 < lo <= hi < math.inf:
        raise ValueError(f"distance_range_km must be finite with 0 < lo <= hi, got {(lo, hi)}")


_WEIGHTS = {"km": lambda edge: edge.length_km, "hops": lambda edge: 1.0}  # mode -> edge weight


def _dijkstra(
    adj: dict[str, list[tuple[str, float]]],
    s: str,
    d: str,
    banned_edges: Collection[tuple[str, str]] = frozenset(),
    banned_nodes: Collection[str] = frozenset(),
) -> tuple[float, tuple[str, ...]] | None:
    """Shortest path with lexicographic node-sequence tie-break. ``adj``
    lists each node's neighbors by name with their edge weights; an edge
    (tail, head) in ``banned_edges`` is not taken from tail to head."""
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
        for nb, w in adj[tail]:
            # each node of ``nodes`` is settled, so no path revisits a node
            if nb in settled or nb in banned_nodes or (tail, nb) in banned_edges:
                continue
            heapq.heappush(heap, (dist + w, nodes + (nb,)))
    return None


def k_shortest_paths(
    topology: Topology, s: str, d: str, n: int, weight: str = "km"
) -> list[Path]:
    """Up to n loopless shortest paths (Yen), sorted by (length, node seq)."""
    if not topology.has_node(s) or not topology.has_node(d):
        raise TopologyValidationError(f"unknown endpoint {s!r} or {d!r}")
    if s == d:
        raise ValueError("source and destination must differ")
    if check_int(n, "path count", TopologyValidationError) < 1:
        raise ValueError("path count must be >= 1")
    if weight not in _WEIGHTS:
        raise ValueError(f"unknown weight mode {weight!r}")
    length = _WEIGHTS[weight]
    adj = {node: sorted((nb, length(edge)) for nb, edge in topology._adj[node].items())
           for node in topology.nodes}

    first = _dijkstra(adj, s, d)
    if first is None:
        return []
    found: list[tuple[float, tuple[str, ...]]] = [first]
    candidates: list[tuple[float, tuple[str, ...]]] = []
    seen = {first[1]}  # every path found or pushed as a candidate

    while len(found) < n:
        _, prev_nodes = found[-1]
        # the length of each root, summed from s as a search sums it
        root_dists = list(accumulate(
            (length(topology.edge_between(a, b)) for a, b in zip(prev_nodes, prev_nodes[1:])),
            initial=0))
        for i in range(len(prev_nodes) - 1):
            root = prev_nodes[: i + 1]
            spur = prev_nodes[i]  # not d, so each found path with this root goes on
            banned_edges = {(spur, p[i + 1]) for _, p in found if p[: i + 1] == root}
            spur_result = _dijkstra(adj, spur, d, banned_edges, set(root[:-1]))
            if spur_result is None:
                continue
            spur_dist, spur_nodes = spur_result
            total_nodes = root[:-1] + spur_nodes
            if total_nodes in seen:
                continue
            seen.add(total_nodes)
            heapq.heappush(candidates, (root_dists[i] + spur_dist, total_nodes))
        if not candidates:
            break
        found.append(heapq.heappop(candidates))

    found.sort(key=lambda item: (item[0], item[1]))
    return [topology.path_from_nodes(nodes) for _, nodes in found]
