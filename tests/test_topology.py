"""Tests for topology parsing, generation and path search."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # json.dumps writes math.inf as Infinity, which the JSON reader reads as a number
    "r-local-inf": (_doc([_edge(r_local=math.inf)]), TopologyValidationError,
                    "edge 'a'-'b': r_local must be finite, got inf"),
    "length-inf": (_doc([_edge(length_km=math.inf)]), TopologyValidationError,
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
    # a string is not a JSON number, though float() would read these two
    "length-a-string": (_doc([_edge(length_km="50")]), TopologyParseError,
                        "edge 0 ('a'-'b'): length_km: '50' is not a number"),
    "default-a-string": (_doc([_edge()], defaults={"f0": " 0.9 "}), TopologyParseError,
                         "defaults: f0: ' 0.9 ' is not a number"),
    "r-local-inf-string": (_doc([_edge(r_local="inf")]), TopologyParseError,
                           "edge 0 ('a'-'b'): r_local: 'inf' is not a number"),
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


# JSON documents with a boolean where a number belongs -> the message
BOOLEAN_NUMBERS = {
    "length-and-f0-true": (_doc([_edge(length_km=True, f0=True)]),
                           "edge 0 ('a'-'b'): length_km: True is not a number"),
    "f0-true": (_doc([_edge(f0=True)]), "edge 0 ('a'-'b'): f0: True is not a number"),
    "default-false": (_doc([_edge()], defaults={"alpha": False}),
                      "defaults: alpha: False is not a number"),
}


@pytest.mark.parametrize("case", BOOLEAN_NUMBERS)
def test_load_topology_refuses_a_boolean_number_naming_the_field(case):
    text, message = BOOLEAN_NUMBERS[case]
    with pytest.raises(TopologyParseError) as info:
        load_topology(text)
    assert str(info.value) == message


def test_cli_topo_validate_refuses_a_boolean_length_with_exit_2(tmp_path, capsys):
    text, message = BOOLEAN_NUMBERS["length-and-f0-true"]
    path = tmp_path / "topo.json"
    path.write_text(text)
    assert main(["topo", "validate", "--topology", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and "Traceback" not in err


@pytest.mark.parametrize("field", ["length_km", "r_local", "alpha_db_per_km", "f0"])
def test_edge_refuses_a_boolean_field(field):
    with pytest.raises(TopologyValidationError) as info:
        Edge(**{"u": "a", "v": "b", "length_km": 10.0, field: True})
    assert str(info.value) == f"edge 'a'-'b': {field} must be a real number, got True"


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


def _all_simple_paths(topo: Topology, s: str, d: str, weight: str = "km"):
    out = []

    def walk(nodes):
        tail = nodes[-1]
        if tail == d:
            length = sum(
                topo.edge_between(a, b).length_km if weight == "km" else 1.0
                for a, b in zip(nodes, nodes[1:])
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


@st.composite
def _small_graphs(draw):
    """A graph of 3-7 nodes, each edge of an integer length 1-4 (so that
    lengths tie exactly), and two distinct nodes of it."""
    names = [f"n{i}" for i in range(draw(st.integers(3, 7)))]
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = [Edge(a, b, float(draw(st.integers(1, 4)))) for a, b in chosen]
    s, d = draw(st.permutations(names))[:2]
    return Topology(names, edges), s, d


@settings(deadline=None)
@given(_small_graphs(), st.sampled_from(["km", "hops"]), st.sampled_from([1, 3, 6, 50]))
def test_yen_matches_exhaustive_enumeration_on_generated_graphs(case, weight, k):
    topo, s, d = case
    expected = _all_simple_paths(topo, s, d, weight)
    got = k_shortest_paths(topo, s, d, k, weight=weight)
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


def test_edge_refuses_a_field_that_is_not_a_real_number():
    for fields, message in (
        ({"length_km": 10.0, "f0": "x"}, "edge 'a'-'b': f0 must be a real number, got 'x'"),
        ({"length_km": "10"}, "edge 'a'-'b': length_km must be a real number, got '10'"),
        ({"length_km": 10.0, "r_local": None},
         "edge 'a'-'b': r_local must be a real number, got None"),
        # a field out of range keeps its message when a later one is not a number
        ({"length_km": -1.0, "f0": "x"}, "edge 'a'-'b': length must be positive, got -1.0"),
    ):
        with pytest.raises(TopologyValidationError) as info:
            Edge(u="a", v="b", **fields)
        assert str(info.value) == message


def test_edge_refuses_a_link_rate_that_underflows_to_zero():
    # exp(-0.21 * 40000 / 10) is below the smallest double
    with pytest.raises(TopologyValidationError) as info:
        Edge(u="a", v="b", length_km=40000.0)
    assert str(info.value) == ("edge 'a'-'b': link rate underflows to 0.0 pairs/s "
                               "at length_km 40000.0 and alpha_db_per_km 0.21")
    assert link_egr(Edge(u="a", v="b", length_km=3000.0)) > 0.0


def test_topology_refuses_a_duplicate_node_an_unknown_endpoint_and_a_duplicate_edge():
    ab = Edge(u="a", v="b", length_km=1.0)
    for nodes, edges, message in (
        (["a", "b", "a"], [], "duplicate node id"),
        (["a", "b"], [Edge(u="a", v="c", length_km=1.0)], "edge references unknown node 'c'"),
        (["a", "b"], [ab, Edge(u="b", v="a", length_km=2.0)], "duplicate edge 'b'-'a'"),
    ):
        with pytest.raises(TopologyValidationError) as info:
            Topology(nodes, edges)
        assert str(info.value) == message


@pytest.mark.parametrize("count", [2.5, math.nan, "2", None])
def test_k_shortest_paths_refuses_a_count_that_is_not_an_integer(count):
    topo = load_topology(_doc([_edge()]))
    with pytest.raises(TopologyValidationError, match="^path count must be an integer, got "):
        k_shortest_paths(topo, "a", "b", count)
    assert len(k_shortest_paths(topo, "a", "b", np.int64(2))) == 1


@pytest.mark.parametrize("count", [True, False])
def test_k_shortest_paths_refuses_a_boolean_count(count):
    topo = load_topology(_doc([_edge()]))
    with pytest.raises(TopologyValidationError) as info:
        k_shortest_paths(topo, "a", "b", count)
    assert str(info.value) == f"path count must be an integer, got {count!r}"


# node names the JSON reader refuses -> the message
BAD_NAMES = {
    "node-null": ('{"nodes": [null, {"x": 1}], "edges": []}',
                  "node 0: None is not a string or number"),
    "node-object": ('{"nodes": ["a", {"x": 1}], "edges": []}',
                    "node 1: {'x': 1} is not a string or number"),
    "node-boolean": ('{"nodes": ["a", true], "edges": []}',
                     "node 1: True is not a string or number"),
    "endpoint-null": (_doc([_edge(u=None)]), "edge 0: u: None is not a string or number"),
    "endpoint-boolean": (_doc([_edge(v=False)]), "edge 0: v: False is not a string or number"),
    "endpoint-list": (_doc([_edge(), _edge(u=["a"])]),
                      "edge 1: u: ['a'] is not a string or number"),
}


@pytest.mark.parametrize("case", BAD_NAMES)
def test_load_topology_refuses_a_node_name_that_is_not_a_string_or_number(case):
    text, message = BAD_NAMES[case]
    with pytest.raises(TopologyParseError) as info:
        load_topology(text)
    assert str(info.value) == message


def test_load_topology_reads_a_numeric_node_name_as_its_str():
    topo = load_topology(json.dumps({"nodes": [1, 2.5, "c"], "edges": [
        {"u": 1, "v": 2.5, "length_km": 3}, {"u": "2.5", "v": "c", "length_km": 4}]}))
    assert topo.nodes == ("1", "2.5", "c")
    assert [(e.u, e.v) for e in topo.edges] == [("1", "2.5"), ("2.5", "c")]


def test_load_topology_refuses_json_nested_too_deep_for_the_decoder():
    with pytest.raises(TopologyParseError, match="^invalid JSON: maximum recursion depth"):
        load_topology("[" * 100_000 + "]" * 100_000)


def _gml(*edge_fields: str, nodes: str = 'node [ id 0 label "a" ] node [ id 1 label "b" ]') -> str:
    return f"graph [ {nodes} " + " ".join(f"edge [ {f} ]" for f in edge_fields) + " ]"


def _deep(depth: int) -> str:
    """A balanced GML block nested ``depth`` deep."""
    return "[ x " * depth + "1" + " ]" * depth


# GML documents the reader refuses -> its error and the message
GML_MALFORMED = {
    "length-not-a-number": (_gml("source 0 target 1 length abc"), TopologyParseError,
                            "edge 0 ('a'-'b'): length_km: 'abc' is not a number"),
    "length-a-block": (_gml("source 1 target 0 length [ x 1 ]", "source 0 target 1 length 2"),
                       TopologyParseError, "edge 0 ('b'-'a'): length_km: [...] is not a number"),
    "length-nested-deep": (_gml("source 0 target 1 length " + _deep(100_000)), TopologyParseError,
                           "edge 0 ('a'-'b'): length_km: [...] is not a number"),
    "length-inf": (_gml("source 0 target 1 length inf"), TopologyValidationError,
                   "edge 'a'-'b': length_km must be finite, got inf"),
    "length-underflows": (_gml("source 0 target 1 length 1e5"), TopologyValidationError,
                          "edge 'a'-'b': link rate underflows to 0.0 pairs/s "
                          "at length_km 100000.0 and alpha_db_per_km 0.21"),
    "id-repeated": (_gml(nodes='node [ id 0 label "a" ] node [ id 0 label "b" ]'),
                    TopologyParseError, "GML node id '0' appears twice"),
    "id-a-block": (_gml(nodes="node [ id " + _deep(100_000) + " ]"), TopologyParseError,
                   "GML node id: [...] is not a string or number"),
    "label-a-block": (_gml(nodes="node [ id 0 label [ x 1 ] ]"), TopologyParseError,
                      "GML node '0': label: [...] is not a string or number"),
    "stray-close": (_gml() + " ]", TopologyParseError,
                    "unexpected ']' at character 59 of GML"),
    "tail-without-value": (_gml() + " Creator", TopologyParseError,
                           "unexpected end of GML document"),
    "block-without-key": ("[ x 1 ] " + _gml(), TopologyParseError,
                          "unexpected '[' at character 0 of GML"),
    "key-without-value": ("graph [ node [ id ] ]", TopologyParseError,
                          "unexpected ']' at character 18 of GML"),
    "deep-tail-without-value": ("graph [ node [ id 0 ] x " + "[ x " * 5000, TopologyParseError,
                                "unexpected end of GML document"),
    "unclosed": ("graph [ node [ id 0 ] " + "x [ " * 5000, TopologyParseError,
                 "unterminated GML block"),
}


@pytest.mark.parametrize("case", GML_MALFORMED)
def test_load_gml_refuses_a_malformed_document_naming_it(case):
    text, error, message = GML_MALFORMED[case]
    with pytest.raises(error) as info:
        load_gml(text)
    assert str(info.value) == message


@pytest.mark.parametrize("case", ["length-not-a-number", "id-repeated", "stray-close"])
def test_cli_topo_validate_refuses_a_malformed_gml_document_with_exit_2(case, tmp_path, capsys):
    text, _, message = GML_MALFORMED[case]
    path = tmp_path / "topo.gml"
    path.write_text(text)
    assert main(["topo", "validate", "--topology", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and "Traceback" not in err


@pytest.mark.parametrize("case", ["node-null", "endpoint-boolean"])
def test_cli_topo_validate_refuses_a_bad_node_name_with_exit_2(case, tmp_path, capsys):
    text, message = BAD_NAMES[case]
    path = tmp_path / "topo.json"
    path.write_text(text)
    assert main(["topo", "validate", "--topology", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and "Traceback" not in err


# GML documents with an edge end that is not a node id -> the message
GML_UNKNOWN_IDS = {
    "target-unknown": (_gml("source 0 target 7"), "GML edge 0: target '7' is not a node id"),
    "source-a-block": (_gml("source [ x 1 ] target 1"),
                       "GML edge 0: source [...] is not a node id"),
    "second-edge": (_gml("source 0 target 1", "source 1 target x"),
                    "GML edge 1: target 'x' is not a node id"),
    # a block is no id, even beside a node whose quoted id reads as one
    "block-beside-its-text": (_gml("source 1 target [ x 1 ]",
                                   nodes='node [ id 1 ] node [ id "[...]" ]'),
                              "GML edge 0: target [...] is not a node id"),
}


@pytest.mark.parametrize("case", GML_UNKNOWN_IDS)
def test_load_gml_names_the_edge_side_and_id_it_cannot_resolve(case):
    text, message = GML_UNKNOWN_IDS[case]
    with pytest.raises(TopologyValidationError) as info:
        load_gml(text)
    assert str(info.value) == message


def test_cli_topo_validate_refuses_an_unknown_gml_id_with_exit_2(tmp_path, capsys):
    text, message = GML_UNKNOWN_IDS["target-unknown"]
    path = tmp_path / "topo.gml"
    path.write_text(text)
    assert main(["topo", "validate", "--topology", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and "Traceback" not in err


def test_cli_topo_validate_reads_a_gml_file(tmp_path, capsys):
    path = tmp_path / "topo.gml"
    path.write_text(GML_DOC)
    assert main(["topo", "validate", "--topology", str(path)]) == 0
    assert capsys.readouterr().out == "ok: 3 nodes, 2 edges\n"


def test_load_gml_reads_a_block_nested_100000_deep():
    topo = load_gml(_gml("source 0 target 1 length 5 extra " + _deep(100_000)))
    assert topo.nodes == ("a", "b") and topo.edge_between("a", "b").length_km == 5.0


def _reference_load_gml(text: str, default_length_km: float = 1.0) -> Topology:
    """The recursive GML reader this package had before its flat one, kept
    as the reference a valid document must load the same under."""
    tokens = re.findall(r'"[^"]*"|\[|\]|[^\s\[\]]+', text)
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


def _key(draw, name: str) -> str:
    """``name`` as a GML key, in a case the reader folds."""
    return draw(st.sampled_from((name, name.upper(), name.capitalize())))


def _scalar(draw, text: str) -> str:
    """``text`` as a GML value, quoted or, when it has no space, maybe bare."""
    return text if " " not in text and draw(st.booleans()) else f'"{text}"'


UNKNOWN = ('Country "Xland"', "graphics [ x 1.5 y -2 ]", "extra [ a [ b 1 ] c 2 ]", "weight 3")


@st.composite
def gml_documents(draw):
    """A valid Topology-Zoo-style document: maybe a header, labels that may
    collide (so the reader falls back to ids), parallel and reversed links,
    unknown scalar and nested keys, quoted values and keys in any case."""
    n = draw(st.integers(2, 7))
    ids = [str(i) for i in draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))]
    entries = []
    for node_id in ids:
        fields = [f"{_key(draw, 'id')} {_scalar(draw, node_id)}"]
        label = draw(st.none() | st.sampled_from(("alpha", "beta", "a b", "Gamma", "7")))
        if label is not None:
            fields.append(f"{_key(draw, 'label')} {_scalar(draw, label)}")
        fields += draw(st.lists(st.sampled_from(UNKNOWN), max_size=2))
        entries.append(f"{_key(draw, 'node')} [ {' '.join(draw(st.permutations(fields)))} ]")
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    lengths = st.none() | st.integers(1, 400).map(str) | st.floats(0.5, 400.0).map(repr)
    for u, v in draw(st.lists(pairs, max_size=12)):
        fields = [f"{_key(draw, 'source')} {u}", f"{_key(draw, 'target')} {v}"]
        length = draw(lengths)
        if length is not None:
            fields.append(f"{_key(draw, 'length')} {_scalar(draw, length)}")
        fields += draw(st.lists(st.sampled_from(UNKNOWN), max_size=2))
        entries.append(f"{_key(draw, 'edge')} [ {' '.join(draw(st.permutations(fields)))} ]")
    entries += draw(st.lists(st.sampled_from(("directed 0", "multigraph 1", 'label "net"')),
                             max_size=2))
    header = draw(st.sampled_from(("", 'Creator "entflow" Version 1 ', "Version 2.2 ")))
    body = "\n  ".join(draw(st.permutations(entries)))
    return f"{header}{_key(draw, 'graph')} [\n  {body}\n]\n"


@settings(max_examples=200, deadline=None)
@given(gml_documents(), st.sampled_from((1.0, 25.0)))
def test_load_gml_equals_the_recursive_reader_on_valid_documents(text, default_length_km):
    expected = _reference_load_gml(text, default_length_km)
    got = load_gml(text, default_length_km)
    assert got.nodes == expected.nodes
    assert got.edges == expected.edges  # every Edge field
