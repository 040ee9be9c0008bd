"""Tests for the operation-hypergraph builders and serialization."""

import json
from dataclasses import asdict, fields, replace
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import doc_column, make_chain, make_topology, set_doc_column
from entflow.capacity import pair_capacity
from entflow.hypergraph import (
    BUILD_COUNTER,
    DOCUMENT_COLUMNS,
    SINK,
    SOURCE,
    FidelityGrid,
    OP_CODE,
    Hypergraph,
    HypergraphColumns,
    HypergraphError,
    best_dp_estimate,
    build_pruned_hypergraph,
    build_standard_hypergraph,
    synthesize_multipath,
)
from entflow.lp import extract_scheme, formulate_lp, solve_lp
from entflow.orchestrator import PlannerConfig, load_cache, outer_loop_update, save_cache
from entflow.physics import DEFAULT_NOISE, PURIFY_MODELS, swap_fidelity
from entflow.topology import Edge, Topology, link_egr


def test_grid_validation_and_round_down():
    grid = FidelityGrid.uniform(6)
    assert grid.resolution == 6
    assert grid.values[0] == 0.5 and grid.values[-1] == 1.0
    # [TRIVIAL] Half-open bucket semantics.
    assert grid.round_down_index(0.5) == 0
    assert grid.round_down_index(1.0) == 5
    assert grid.round_down_index(0.59) == 0
    assert grid.round_down_index(0.6) == 1
    assert grid.round_down_index(0.49) == -1
    with pytest.raises(HypergraphError):
        FidelityGrid((0.6, 0.6))
    with pytest.raises(HypergraphError):
        FidelityGrid((0.4, 0.9))


def test_standard_three_node_coarse_grid_counts():
    # [DERIVED] Hand enumeration for a 2-link chain on the grid {0.5, 1.0}
    # with f0 = 0.98: both links land in bucket 0; of the four swap input
    # combinations only (1, 1) rounds to a valid bucket; no purification
    # strictly climbs a bucket on this grid.
    path = make_chain([70.0, 70.0], f0=0.98)
    hg = build_standard_hypergraph(path, FidelityGrid.uniform(2), DEFAULT_NOISE)
    stats = hg.stats()
    assert stats.num_vertices == 2 + 3 * 2  # source, sink, 3 pairs x 2 buckets
    assert stats.edges_by_op == {"start": 2, "swap": 1, "purify": 0, "end": 2}


def test_two_node_pruned_equals_standard_on_single_value_grid():
    # [TRIVIAL] With one grid value there is nothing to prune.
    path = make_chain([70.0])
    grid = FidelityGrid.uniform(1)
    a = build_standard_hypergraph(path, grid, DEFAULT_NOISE)
    b = build_pruned_hypergraph(path, grid, DEFAULT_NOISE)
    assert a.stats().edges_by_op == b.stats().edges_by_op
    assert a.stats().num_vertices == b.stats().num_vertices


def test_pruned_never_larger_than_standard():
    for n_links, size in [(2, 5), (3, 10), (4, 8)]:
        path = make_chain([60.0] * n_links)
        grid = FidelityGrid.uniform(size)
        std = build_standard_hypergraph(path, grid, DEFAULT_NOISE).stats()
        pru = build_pruned_hypergraph(path, grid, DEFAULT_NOISE).stats()
        assert pru.num_edges <= std.num_edges
        assert pru.num_vertices <= std.num_vertices


def test_pruned_rate_propagation_is_exact():
    # [DERIVED] 2-link chain with unequal link rates: the end-to-end
    # incumbent carries exactly the bottleneck generation rate and the
    # continuous (unbucketed) swapped fidelity.
    e1 = Edge(u="x0", v="x1", length_km=1.0, r_local=1000.0, alpha_db_per_km=1e-9)
    e2 = Edge(u="x1", v="x2", length_km=1.0, r_local=500.0, alpha_db_per_km=1e-9)
    topo = Topology(["x0", "x1", "x2"], [e1, e2])
    path = topo.path_from_nodes(["x0", "x1", "x2"])
    hg = build_pruned_hypergraph(path, FidelityGrid.uniform(4), DEFAULT_NOISE)
    cols = hg.columns
    ends = np.flatnonzero(cols.op == OP_CODE["end"])
    assert len(ends) == 1
    end = ends[0]
    fidelity = cols.exact_fidelity[cols.input0[end]]
    assert cols.rate_bound[end] == min(link_egr(e1), link_egr(e2))
    assert fidelity == pytest.approx(swap_fidelity(0.98, 0.98), rel=1e-12)
    assert cols.capacity_coeff[end] == pytest.approx(pair_capacity(fidelity), rel=1e-12)
    assert best_dp_estimate(hg) == pytest.approx(
        cols.rate_bound[end] * cols.capacity_coeff[end], rel=1e-12
    )


def test_build_counter_instrumentation():
    path = make_chain([70.0, 70.0])
    grid = FidelityGrid.uniform(4)
    BUILD_COUNTER.reset()
    build_standard_hypergraph(path, grid, DEFAULT_NOISE)
    build_pruned_hypergraph(path, grid, DEFAULT_NOISE)
    assert BUILD_COUNTER.count == 2


def test_asymmetric_purify_model_builds():
    path = make_chain([50.0, 50.0], f0=0.9)
    hg = build_standard_hypergraph(
        path, FidelityGrid.uniform(8), DEFAULT_NOISE, purify_model="as-printed"
    )
    assert hg.purify_model == "as-printed"
    assert hg.stats().num_edges > 0


# four vertices on the pair (a, b) and two purifications, 2 -> 3 and
# 3 -> 2, that form a cycle; u and v index the nodes (a, b)
_CYCLE = {"op": [OP_CODE["purify"]] * 2, "input0": [2, 3], "input1": [2, 3], "output": [3, 2],
          "p_succ": [0.9, 0.9], "capacity_coeff": [0.0, 0.0], "rate_bound": [np.nan, np.nan],
          "link": [-1, -1], "exact_fidelity": [0.0, 0.0, 0.9, 0.95], "u": [0] * 4, "v": [1] * 4}


def _cycle_document():
    """The document of the ``_CYCLE`` table."""
    doc = {"version": 2, "grid": list(FidelityGrid.uniform(2).values),
           "noise": asdict(DEFAULT_NOISE), "purify_model": "ideal-dejmps", "builder": "standard",
           "build_time_s": 0.0, "endpoints": ["a", "b"], "link_limits": {}, "nodes": ["a", "b"],
           "link_keys": [], "columns": {}}
    for name, values in _CYCLE.items():
        set_doc_column(doc, name, values)
    return doc


def test_cycle_detection():
    edges = {name: np.array(_CYCLE[name], dtype) for name, dtype in DOCUMENT_COLUMNS.items()
             if name not in ("u", "v", "exact_fidelity")}
    cols = HypergraphColumns(**edges, link_keys=(), u=("a",) * 4, v=("b",) * 4,
                             exact_fidelity=np.array(_CYCLE["exact_fidelity"]))
    with pytest.raises(HypergraphError, match="contains a cycle"):
        Hypergraph(cols, FidelityGrid.uniform(2), DEFAULT_NOISE, {}, ("a", "b"), "standard",
                   "ideal-dejmps")


def test_cycle_detection_on_consistent_vertex_rows():
    # the table of test_cycle_detection, as a document
    with pytest.raises(HypergraphError, match="contains a cycle"):
        Hypergraph.from_json(_cycle_document())


def _has_cycle(n, input0, input1, output):
    """Kahn's algorithm on the vertex digraph, each input to its edge's output."""
    arcs = [(i, o) for i0, i1, o in zip(input0, input1, output) for i in (i0, i1) if i >= 0]
    indegree = [0] * n
    for _, o in arcs:
        indegree[o] += 1
    ready = [v for v in range(n) if indegree[v] == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for i, o in arcs:
            if i == v:
                indegree[o] -= 1
                if indegree[o] == 0:
                    ready.append(o)
    return done < n


@st.composite
def _small_tables(draw):
    """Vertex count and (input0, input1, output) of a few edges, drawn by
    rank in the order 0, 2, ..., n - 1, 1, mostly with inputs ranked below
    the output, so that many tables are numbered topologically and some not."""
    n = draw(st.integers(min_value=2, max_value=6))
    vertex = [SOURCE, *range(2, n), SINK]  # by rank
    ranks = st.integers(0, n - 1)
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        out = draw(ranks)
        below = st.integers(0, out - 1) if out and draw(st.integers(0, 5)) else ranks
        in1 = draw(below) if draw(st.booleans()) else None
        edges.append((vertex[draw(below)], -1 if in1 is None else vertex[in1], vertex[out]))
    return n, np.array(edges, np.int64).reshape(-1, 3).T


@settings(max_examples=100, deadline=None)
@given(_small_tables())
def test_acyclic_short_path_agrees_with_the_component_search(table):
    # the search runs exactly when some edge does not rank its inputs below
    # its output (the sink ranked last), and either way a table is refused
    # exactly when it has a cycle
    n, (input0, input1, output) = table
    rank = [0, n - 1, *range(1, n - 1)]  # by vertex
    numbered = all(rank[i] < rank[o] for i0, i1, o in zip(input0, input1, output)
                   for i in (i0, i1) if i >= 0)
    cols = SimpleNamespace(input0=input0, input1=input1, output=output,
                           exact_fidelity=np.zeros(n), op=np.zeros(len(output), np.int8))
    with patch("entflow.hypergraph.connected_components", wraps=connected_components) as scc:
        try:
            Hypergraph._check_acyclic(SimpleNamespace(columns=cols))
            refused = False
        except HypergraphError as exc:
            assert str(exc) == "hypergraph contains a cycle"
            refused = True
    assert scc.called == (not numbered)
    assert refused == _has_cycle(n, input0.tolist(), input1.tolist(), output.tolist())


def test_one_back_edge_in_a_numbered_table_is_a_cycle():
    hg = build_pruned_hypergraph(make_chain([40.0, 60.0, 50.0]), FidelityGrid.uniform(10),
                                 DEFAULT_NOISE)
    cols = hg.columns
    swap = np.flatnonzero(cols.op == OP_CODE["swap"])[0]
    low, high = cols.input0[swap], cols.output[swap]
    back = {"op": OP_CODE["purify"], "input0": high, "input1": high, "output": low,
            "p_succ": 0.9, "capacity_coeff": 0.0, "rate_bound": np.nan, "link": -1}
    looped = replace(cols, **{name: np.append(getattr(cols, name), value)
                              for name, value in back.items()})
    with pytest.raises(HypergraphError, match="^hypergraph contains a cycle$"):
        Hypergraph(looped, hg.grid, hg.noise, hg.link_limits, hg.endpoints, hg.builder,
                   hg.purify_model)


def _text_round_trip(hg):
    """The hypergraph of its document written as JSON text and read back."""
    return Hypergraph.from_json(json.loads(json.dumps(hg.to_json())))


@pytest.mark.parametrize("model", PURIFY_MODELS)
def test_pruned_and_synthesized_tables_are_numbered_topologically(model):
    # they, their documents and a planner cache of them are accepted without
    # the component search, which the standard lattice still needs
    grid = FidelityGrid.uniform(20)
    topo = make_topology([("s", "a", 50.0), ("a", "d", 60.0), ("s", "b", 70.0), ("b", "d", 40.0),
                          ("a", "b", 30.0)])
    paths = [topo.path_from_nodes(list(p)) for p in _DIAMOND_PATHS]
    config = PlannerConfig(n_candidates=3, k_keep=2, grid=grid, purify_model=model)
    with patch("entflow.hypergraph.connected_components",
               side_effect=AssertionError("component search")):
        pruned = [build_pruned_hypergraph(p, grid, DEFAULT_NOISE, model) for p in paths]
        for hg in [*pruned, synthesize_multipath(pruned)]:
            _text_round_trip(hg)
        load_cache(save_cache(outer_loop_update(topo, [("s", "d")], config)))
        with pytest.raises(AssertionError, match="component search"):
            build_standard_hypergraph(paths[0], grid, DEFAULT_NOISE, model)


def test_builds_synthesis_and_serialization_make_no_vertex_records():
    grid = FidelityGrid.uniform(10)
    topo = make_topology([("s", "a", 50.0), ("a", "d", 60.0), ("s", "b", 70.0), ("b", "d", 40.0)])
    paths = [topo.path_from_nodes(p) for p in (["s", "a", "d"], ["s", "b", "d"])]
    pruned = [build_pruned_hypergraph(p, grid, DEFAULT_NOISE) for p in paths]
    standard = build_standard_hypergraph(paths[0], grid, DEFAULT_NOISE)
    merged = synthesize_multipath(pruned)
    built = [*pruned, standard, merged]
    clones = [_text_round_trip(hg) for hg in built]
    for hg in built + clones:
        extract_scheme(hg, solve_lp(formulate_lp(hg, "ensemble-capacity")))


def _assert_same_columns(hg, clone):
    for field in fields(HypergraphColumns):
        a, b = getattr(hg.columns, field.name), getattr(clone.columns, field.name)
        if isinstance(a, np.ndarray):
            # bytes compare NaN rate bounds too
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), field.name
            assert not a.flags.writeable and not b.flags.writeable
        else:
            assert a == b


def test_json_round_trip_is_lossless():
    path = make_chain([60.0, 80.0, 55.0], f0=0.97)
    hg = build_pruned_hypergraph(path, FidelityGrid.uniform(12), DEFAULT_NOISE)
    clone = _text_round_trip(hg)
    # Exact equality across text serialization, every column bit for bit.
    _assert_same_columns(hg, clone)
    assert clone.edges == hg.edges
    assert clone.grid.values == hg.grid.values
    assert clone.link_limits == hg.link_limits
    assert clone.endpoints == hg.endpoints


def test_from_json_rejects_bad_version():
    # 1 is the version of the deleted row documents
    path = make_chain([60.0])
    hg = build_pruned_hypergraph(path, FidelityGrid.uniform(4), DEFAULT_NOISE)
    for version in (1, 999):
        doc = hg.to_json()
        doc["version"] = version
        with pytest.raises(HypergraphError, match=f"^unsupported version {version}$"):
            Hypergraph.from_json(doc)


def test_synthesis_pools_shared_links_and_remaps():
    topo = Topology(
        ["s", "a", "b", "d"],
        [Edge(u="s", v="a", length_km=50.0), Edge(u="a", v="d", length_km=50.0),
         Edge(u="s", v="b", length_km=60.0), Edge(u="b", v="d", length_km=60.0)],
    )
    grid = FidelityGrid.uniform(8)
    p1 = topo.path_from_nodes(["s", "a", "d"])
    p2 = topo.path_from_nodes(["s", "b", "d"])
    h1 = build_pruned_hypergraph(p1, grid, DEFAULT_NOISE)
    h2 = build_pruned_hypergraph(p2, grid, DEFAULT_NOISE)
    merged = synthesize_multipath([h1, h2])
    assert merged.stats().num_vertices == (
        h1.stats().num_vertices + h2.stats().num_vertices - 2
    )
    assert set(merged.link_limits) == set(h1.link_limits) | set(h2.link_limits)
    cols = merged.columns
    for vi in (SOURCE, SINK):  # the endpoints' pair at fidelity 0
        assert (cols.u[vi], cols.v[vi], cols.exact_fidelity[vi]) == ("s", "d", 0.0)
    # Single-input synthesis is structurally identical to the input.
    solo = synthesize_multipath([h1])
    assert solo.stats().edges_by_op == h1.stats().edges_by_op


def _edit_edge(op, name, value):
    """Corruption: set one column of the first ``op`` edge in a document."""
    def corrupt(doc):
        column = doc_column(doc, name)
        column[np.flatnonzero(doc_column(doc, "op") == OP_CODE[op])[0]] = value
        set_doc_column(doc, name, column)
    return corrupt


def _set_limits(value):
    def corrupt(doc):
        for key in doc["link_limits"]:
            doc["link_limits"][key] = value
    return corrupt


def _drop_a_limit(doc):
    doc["link_limits"].popitem()


def _edit_vertex_3(name, value):
    """Corruption: set one column (u, v or exact_fidelity) of vertex 3."""
    def corrupt(doc):
        column = doc_column(doc, name)
        column[3] = value(doc) if callable(value) else value
        set_doc_column(doc, name, column)
    return corrupt


def _new_node(node):
    """The index of ``node``, appended to a document's node names."""
    def index(doc):
        doc["nodes"].append(node)
        return len(doc["nodes"]) - 1
    return index


def _rename_source(doc):
    u = doc_column(doc, "u")
    u[0] = doc_column(doc, "v")[3]
    set_doc_column(doc, "u", u)


@pytest.mark.parametrize("corrupt", [
    pytest.param(_edit_edge("swap", "input1", 99999), id="input-above-range"),
    pytest.param(_edit_edge("end", "output", -1), id="output-below-range"),
    pytest.param(_edit_edge("swap", "op", 7), id="unknown-op"),
    pytest.param(_edit_edge("swap", "input1", -1), id="swap-with-one-input"),
    pytest.param(_edit_edge("end", "input1", 2), id="end-with-two-inputs"),
    pytest.param(_edit_edge("start", "p_succ", 0.0), id="p-succ-zero"),
    pytest.param(_edit_edge("start", "p_succ", 1.5), id="p-succ-above-one"),
    pytest.param(_set_limits(float("nan")), id="nan-limit"),
    pytest.param(_set_limits(float("inf")), id="infinite-limit"),
    pytest.param(_set_limits(-5.0), id="negative-limit"),
    pytest.param(_drop_a_limit, id="start-link-without-limit"),
    pytest.param(_edit_edge("end", "capacity_coeff", -3.0), id="negative-capacity-coeff"),
    pytest.param(_edit_edge("end", "capacity_coeff", float("nan")), id="nan-capacity-coeff"),
    pytest.param(_edit_edge("swap", "link", 0), id="link-key-on-swap"),
    pytest.param(_edit_vertex_3("exact_fidelity", 1.7), id="fidelity-above-one"),
    pytest.param(_edit_vertex_3("u", _new_node(42)), id="numeric-node-name"),
    pytest.param(_edit_vertex_3("v", _new_node(None)), id="missing-node-name"),
    pytest.param(_rename_source, id="source-pair-other-than-the-endpoints"),
])
def test_from_json_rejects_invalid_documents(corrupt):
    hg = build_standard_hypergraph(make_chain([60.0, 80.0]), FidelityGrid.uniform(6), DEFAULT_NOISE)
    doc = hg.to_json()
    corrupt(doc)
    with pytest.raises(HypergraphError):
        Hypergraph.from_json(json.loads(json.dumps(doc)))


_DIAMOND_PATHS = (("s", "a", "d"), ("s", "b", "d"), ("s", "a", "b", "d"))


@st.composite
def _hypergraphs(draw):
    """A pruned or standard chain build, or a synthesis of diamond paths
    (two of which share the link s-a)."""
    kind = draw(st.sampled_from(["pruned", "standard", "synthesis"]))
    model = draw(st.sampled_from(PURIFY_MODELS))
    km = st.floats(min_value=20.0, max_value=150.0)
    if kind == "synthesis":
        a, b, c, d, e = draw(st.lists(km, min_size=5, max_size=5))
        topo = make_topology([("s", "a", a), ("a", "d", b), ("s", "b", c), ("b", "d", d),
                              ("a", "b", e)])
        paths = draw(st.lists(st.sampled_from(_DIAMOND_PATHS), min_size=1, max_size=3,
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


@settings(max_examples=40, deadline=None)
@given(_hypergraphs())
def test_json_round_trip_keeps_the_columns_byte_for_byte(hg):
    clone = _text_round_trip(hg)
    _assert_same_columns(hg, clone)
    for name in ("grid", "noise", "link_limits", "endpoints", "builder", "purify_model"):
        assert getattr(clone, name) == getattr(hg, name), name
    assert json.dumps(clone.to_json()) == json.dumps(hg.to_json())
    with pytest.raises(ValueError):
        clone.columns.rate_bound[:1] = 0.0
