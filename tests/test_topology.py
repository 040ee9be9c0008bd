"""Tests for topology parsing, generation and path search."""

import itertools
import json
import math

import numpy as np
import pytest

from entflow.cli import main
from entflow.topology import (
    Edge,
    Topology,
    TopologyParseError,
    TopologyValidationError,
    generate_gabriel,
    k_shortest_paths,
    link_egr,
    load_gml,
    load_topology,
)


def test_edge_validation():
    with pytest.raises(TopologyValidationError):
        Edge(u="a", v="a", length_km=1.0)
    with pytest.raises(TopologyValidationError):
        Edge(u="a", v="b", length_km=0.0)
    with pytest.raises(TopologyValidationError):
        Edge(u="a", v="b", length_km=1.0, f0=0.5)


@pytest.mark.parametrize("field", ["length_km", "r_local", "alpha_db_per_km"])
def test_edge_refuses_an_infinite_field(field):
    with pytest.raises(TopologyValidationError, match=f"'a'-'b': {field} must be finite, got inf"):
        Edge(**{"u": "a", "v": "b", "length_km": 1.0, field: math.inf})


def test_edge_keeps_its_refusal_messages():
    for fields, message in (
        ({"length_km": math.nan}, "edge 'a'-'b': length must be positive, got nan"),
        ({"length_km": -math.inf}, "edge 'a'-'b': length must be positive, got -inf"),
        ({"length_km": 1.0, "r_local": -math.inf}, "edge 'a'-'b': r_local must be positive"),
        ({"length_km": math.inf, "r_local": 0.0}, "edge 'a'-'b': r_local must be positive"),
        ({"length_km": 1.0, "alpha_db_per_km": 0.0}, "edge 'a'-'b': alpha must be positive"),
    ):
        with pytest.raises(TopologyValidationError) as info:
            Edge(u="a", v="b", **fields)
        assert str(info.value) == message


def test_edge_key_is_order_invariant():
    assert Edge(u="b", v="a", length_km=1.0).key == Edge(u="a", v="b", length_km=1.0).key


def test_link_egr_reference_value():
    # [PAPER] 70 km fibre at 12000 attempts/s and 0.21 dB/km.
    edge = Edge(u="a", v="b", length_km=70.0)
    assert link_egr(edge) == pytest.approx(2759.2, abs=0.5)
    # [DERIVED] Closed form cross-check with independent constants.
    assert link_egr(edge) == pytest.approx(12000.0 * math.exp(-0.21 * 7.0), rel=1e-12)


def test_load_topology_with_defaults():
    doc = {
        "defaults": {"r_local": 5000, "f0": 0.95},
        "nodes": ["a", "b", "c"],
        "edges": [
            {"u": "a", "v": "b", "length_km": 10},
            {"u": "b", "v": "c", "length_km": 20, "f0": 0.99},
        ],
    }
    topo = load_topology(json.dumps(doc))
    ab = topo.edge_between("a", "b")
    bc = topo.edge_between("b", "c")
    assert ab.r_local == 5000 and ab.f0 == 0.95
    assert bc.f0 == 0.99
    assert topo.edge_between("a", "c") is None


def test_load_topology_errors():
    with pytest.raises(TopologyParseError):
        load_topology("not json")
    with pytest.raises(TopologyParseError):
        load_topology(json.dumps({"nodes": ["a"]}))
    with pytest.raises(TopologyParseError):
        load_topology(json.dumps({"nodes": ["a", "b"], "edges": [{"u": "a"}]}))


def _doc(edges, **fields) -> str:
    return json.dumps({"nodes": ["a", "b"], "edges": edges, **fields})


def _edge(**fields) -> dict:
    return {"u": "a", "v": "b", "length_km": 10, **fields}


# documents the JSON reader refuses -> its error and the message
MALFORMED = {
    "nodes-a-string": ('{"nodes": "ab", "edges": []}', TopologyParseError,
                       "nodes is a str, not a list"),
    "edges-an-object": (_doc({"u": "a", "v": "b"}), TopologyParseError,
                        "edges is a dict, not a list"),
    "edge-a-list": (_doc([["a", "b", 10]]), TopologyParseError, "edge 0 is a list, not a dict"),
    "defaults-a-list": (_doc([], defaults=[]), TopologyParseError,
                        "defaults is a list, not a dict"),
    "r-local-inf": (_doc([_edge(r_local="inf")]), TopologyValidationError,
                    "edge 'a'-'b': r_local must be finite, got inf"),
    "length-inf": (_doc([_edge(length_km="inf")]), TopologyValidationError,
                   "edge 'a'-'b': length_km must be finite, got inf"),
    "alpha-overflows": (_doc([_edge(alpha=1e400)]), TopologyValidationError,
                        "edge 'a'-'b': alpha_db_per_km must be finite, got inf"),
    "length-not-a-number": (_doc([_edge(length_km="abc")]), TopologyParseError,
                            "edge 0 ('a'-'b'): length_km: 'abc' is not a number"),
    "f0-null": (_doc([_edge(), _edge(u="b", v="c", f0=None)]), TopologyParseError,
                "edge 1 ('b'-'c'): f0: None is not a number"),
    "length-a-list": (_doc([_edge(length_km=[1])]), TopologyParseError,
                      "edge 0 ('a'-'b'): length_km: [1] is not a number"),
    "default-not-a-number": (_doc([], defaults={"r_local": "fast"}), TopologyParseError,
                             "defaults: r_local: 'fast' is not a number"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_load_topology_refuses_a_malformed_document_naming_it(case):
    text, error, message = MALFORMED[case]
    with pytest.raises(error) as info:
        load_topology(text)
    assert str(info.value) == message


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_topo_validate_refuses_a_malformed_document_with_exit_2(case, tmp_path, capsys):
    text, _, message = MALFORMED[case]
    path = tmp_path / "topo.json"
    path.write_text(text)
    assert main(["topo", "validate", "--topology", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and "Traceback" not in err


def test_load_topology_keeps_its_refusal_messages():
    for text, message in (
        (json.dumps({"nodes": ["a"]}), "document must be an object with 'nodes' and 'edges'"),
        (_doc([{"u": "a"}]), "edge missing field 'v'"),
        (_doc([{"u": "a", "v": "b"}]), "edge missing field 'length_km'"),
    ):
        with pytest.raises(TopologyParseError) as info:
            load_topology(text)
        assert str(info.value) == message


GML_DOC = """
graph [
  node [ id 0 label "alpha" ]
  node [ id 1 label "beta" ]
  node [ id 2 label "gamma" ]
  edge [ source 0 target 1 ]
  edge [ source 1 target 2 ]
  edge [ source 0 target 1 ]
]
"""


def test_load_gml_basic():
    topo = load_gml(GML_DOC, default_length_km=25.0)
    assert sorted(topo.nodes) == ["alpha", "beta", "gamma"]
    # Duplicate parallel edge collapses to one undirected link.
    assert len(topo.edges) == 2
    assert topo.edge_between("alpha", "beta").length_km == 25.0


def test_path_from_nodes_validation():
    topo = load_topology(json.dumps({
        "nodes": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "length_km": 1},
                  {"u": "b", "v": "c", "length_km": 1}],
    }))
    path = topo.path_from_nodes(["a", "b", "c"])
    assert path.num_nodes == 3
    with pytest.raises(TopologyValidationError):
        topo.path_from_nodes(["a", "c"])  # no such edge


def _gabriel_property_holds(points: np.ndarray, edges: set[tuple[int, int]]) -> bool:
    """Brute-force re-check of the Gabriel condition for every node pair."""
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            mid = (points[i] + points[j]) / 2.0
            radius = np.linalg.norm(points[i] - points[j]) / 2.0
            blocked = any(
                k not in (i, j) and np.linalg.norm(points[k] - mid) < radius - 1e-9
                for k in range(n)
            )
            if blocked == ((i, j) in edges):
                return False
    return True


def test_gabriel_matches_definition():
    # [DERIVED] Rebuild the point set with the generator's seeding scheme
    # and verify the edge set against the textbook definition.
    topo = generate_gabriel(20, seed=7)
    rng = np.random.default_rng(7)
    points = rng.uniform(0.0, 500.0, size=(20, 2))
    edges = {tuple(sorted((int(e.u[1:]), int(e.v[1:])))) for e in topo.edges}
    assert _gabriel_property_holds(points, edges)


@pytest.mark.parametrize("n", [2, 3, 64, 65, 90])
def test_gabriel_matches_definition_at_any_size(n):
    topo = generate_gabriel(n, seed=n)
    points = np.random.default_rng(n).uniform(0.0, 500.0, size=(n, 2))
    edges = {tuple(sorted((int(e.u[1:]), int(e.v[1:])))) for e in topo.edges}
    assert _gabriel_property_holds(points, edges)


def test_gabriel_deterministic_and_connected():
    a = generate_gabriel(30, seed=3)
    b = generate_gabriel(30, seed=3)
    assert [(e.u, e.v, e.length_km) for e in a.edges] == [
        (e.u, e.v, e.length_km) for e in b.edges
    ]
    # Gabriel graphs contain the Euclidean MST, so they are connected.
    assert k_shortest_paths(a, "n0", "n17", 1) != []


def test_gabriel_distance_resampling():
    topo = generate_gabriel(30, seed=5, distance_range_km=(20.0, 80.0))
    assert all(20.0 <= e.length_km <= 80.0 for e in topo.edges)


def _all_simple_paths(topo: Topology, s: str, d: str):
    out = []

    def walk(nodes):
        tail = nodes[-1]
        if tail == d:
            length = sum(
                topo.edge_between(a, b).length_km for a, b in zip(nodes, nodes[1:])
            )
            out.append((length, tuple(nodes)))
            return
        for nb in topo.neighbors(tail):
            if nb not in nodes:
                walk(nodes + [nb])

    walk([s])
    return sorted(out)


def test_yen_matches_exhaustive_enumeration():
    # [DERIVED] Small enough to enumerate every simple path.
    doc = {"nodes": list("abcdef"), "edges": [
        {"u": "a", "v": "b", "length_km": 3},
        {"u": "b", "v": "c", "length_km": 4},
        {"u": "a", "v": "d", "length_km": 2},
        {"u": "d", "v": "e", "length_km": 2},
        {"u": "e", "v": "c", "length_km": 4},
        {"u": "b", "v": "e", "length_km": 1},
        {"u": "d", "v": "f", "length_km": 9},
        {"u": "f", "v": "c", "length_km": 1},
    ]}
    topo = load_topology(json.dumps(doc))
    expected = _all_simple_paths(topo, "a", "c")
    for k in (1, 3, len(expected)):
        got = k_shortest_paths(topo, "a", "c", k)
        assert [tuple(p.nodes) for p in got] == [nodes for _, nodes in expected[:k]]


def test_yen_requests_beyond_supply():
    doc = {"nodes": ["a", "b"], "edges": [{"u": "a", "v": "b", "length_km": 1}]}
    topo = load_topology(json.dumps(doc))
    assert len(k_shortest_paths(topo, "a", "b", 10)) == 1
    with pytest.raises(ValueError):
        k_shortest_paths(topo, "a", "a", 1)
    with pytest.raises(TopologyValidationError):
        k_shortest_paths(topo, "a", "zzz", 1)


def test_yen_hop_weight_mode():
    doc = {"nodes": ["a", "b", "c"], "edges": [
        {"u": "a", "v": "c", "length_km": 100},
        {"u": "a", "v": "b", "length_km": 1},
        {"u": "b", "v": "c", "length_km": 1},
    ]}
    topo = load_topology(json.dumps(doc))
    by_km = k_shortest_paths(topo, "a", "c", 1, weight="km")[0]
    by_hops = k_shortest_paths(topo, "a", "c", 1, weight="hops")[0]
    assert tuple(by_km.nodes) == ("a", "b", "c")
    assert tuple(by_hops.nodes) == ("a", "c")
