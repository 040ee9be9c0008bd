"""Tests for the operation-hypergraph builders and serialization."""

import json
import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DIAMOND_PATHS,
    OLDER_COLUMNS,
    add_older_columns,
    dead_link_build,
    doc_column,
    edge_records,
    hypergraphs,
    make_chain,
    make_topology,
    set_doc_column,
)
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
    _check_references,
    best_dp_estimate,
    build_pruned_hypergraph,
    build_standard_hypergraph,
    synthesize_multipath,
)
from entflow.lp import extract_scheme, formulate_lp, solve_lp
from entflow.orchestrator import PlannerConfig, load_cache, outer_loop_update, save_cache
from entflow.physics import (
    CLAMP_EVENTS,
    DEFAULT_NOISE,
    PURIFY_MODELS,
    NoiseParams,
    purify,
    swap_fidelity,
)
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


@pytest.mark.parametrize("size", ["10", 2.5, None])
def test_uniform_grid_refuses_a_size_that_is_not_an_integer(size):
    with pytest.raises(HypergraphError) as info:
        FidelityGrid.uniform(size)
    assert str(info.value) == f"grid size must be an integer, got {size!r}"


@pytest.mark.parametrize("size", [True, False])
def test_uniform_grid_refuses_a_boolean_size(size):
    with pytest.raises(HypergraphError) as info:
        FidelityGrid.uniform(size)
    assert str(info.value) == f"grid size must be an integer, got {size!r}"


@pytest.mark.parametrize("values,message", [
    ((0.5, True), "grid value 1: True is not a number"),
    ((False,), "grid value 0: False is not a number"),
    ((0.5, "0.75"), "grid value 1: '0.75' is not a number"),
])
def test_grid_refuses_a_value_that_is_not_a_number_naming_its_index(values, message):
    with pytest.raises(HypergraphError) as info:
        FidelityGrid(values)
    assert str(info.value) == message


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
    assert hg.capacity_coeff[end] == pytest.approx(pair_capacity(fidelity), rel=1e-12)
    assert best_dp_estimate(hg) == pytest.approx(
        cols.rate_bound[end] * hg.capacity_coeff[end], rel=1e-12
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
          "rate_bound": [np.nan, np.nan], "exact_fidelity": [0.0, 0.0, 0.9, 0.95],
          "u": [0] * 4, "v": [1] * 4}


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
    cols = HypergraphColumns(**edges, nodes=("a", "b"), u=np.zeros(4, np.int32),
                             v=np.ones(4, np.int32),
                             exact_fidelity=np.array(_CYCLE["exact_fidelity"]))
    with pytest.raises(HypergraphError, match="contains a cycle"):
        Hypergraph(cols, FidelityGrid.uniform(2), DEFAULT_NOISE, {}, "standard", "ideal-dejmps")


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
    # the rank rule is the whole cycle check: a table is accepted exactly
    # when every edge ranks its inputs below its output (the sink ranked
    # last), a refusal names the first edge that does not, and every table
    # that has a cycle (by Kahn's search) is refused
    n, (input0, input1, output) = table
    rank = [0, n - 1, *range(1, n - 1)]  # by vertex
    late = [e for e, (i0, i1, o) in enumerate(zip(input0, input1, output))
            if any(rank[i] >= rank[o] for i in (i0, i1) if i >= 0)]
    cols = HypergraphColumns(
        op=np.where(input1 < 0, OP_CODE["end"], OP_CODE["swap"]).astype(np.int8), input0=input0,
        input1=input1, output=output, rate_bound=np.full(len(output), np.nan),
        nodes=("a", "b"), u=np.zeros(n, np.int32), v=np.ones(n, np.int32),
        exact_fidelity=np.zeros(n))
    try:
        _check_references(cols)
        refused = False
    except HypergraphError as exc:
        assert late and str(exc).startswith(f"edge {late[0]}: ")
        assert "contains a cycle" in str(exc)
        refused = True
    assert refused == bool(late)
    if _has_cycle(n, input0.tolist(), input1.tolist(), output.tolist()):
        assert refused


def test_one_back_edge_in_a_numbered_table_is_a_cycle():
    hg = build_pruned_hypergraph(make_chain([40.0, 60.0, 50.0]), FidelityGrid.uniform(10),
                                 DEFAULT_NOISE)
    cols = hg.columns
    swap = np.flatnonzero(cols.op == OP_CODE["swap"])[0]
    low, high = cols.input0[swap], cols.output[swap]
    back = {"op": OP_CODE["purify"], "input0": high, "input1": high, "output": low,
            "rate_bound": np.nan}
    looped = replace(cols, **{name: np.append(getattr(cols, name), value)
                              for name, value in back.items()})
    # the appended back edge is the only one out of order, and it is named
    with pytest.raises(HypergraphError, match=f"^edge {len(cols.op)}: .*contains a cycle"):
        Hypergraph(looped, hg.grid, hg.noise, hg.link_limits, hg.builder, hg.purify_model)


def _edited(cols, *edits):
    """``cols`` with each (op, column, value) edit made to the first edge of that op."""
    for op, name, value in edits:
        column = getattr(cols, name).copy()
        column[np.flatnonzero(cols.op == OP_CODE[op])[0]] = value
        cols = replace(cols, **{name: column})
    return cols


# the standard build of a 60 km + 80 km chain at grid 2: 8 vertices and the
# edges start 0 -> 2, start 0 -> 4, swap (3, 5) -> 6, end 6 -> 1, end 7 -> 1
@pytest.mark.parametrize("edits, message", [
    ([("swap", "input1", 99999)],
     "edge 2: vertex outside [0, 8): "
     "{'op': 1, 'input0': 3, 'input1': 99999, 'output': 6, 'rate_bound': nan}"),
    ([("end", "output", -1)],
     "edge 3: vertex outside [0, 8): "
     "{'op': 3, 'input0': 6, 'input1': -1, 'output': -1, 'rate_bound': nan}"),
    ([("start", "rate_bound", -2.5)],
     "edge 0: negative or infinite rate_bound: "
     "{'op': 0, 'input0': 0, 'input1': -1, 'output': 2, 'rate_bound': -2.5}"),
    ([("end", "rate_bound", np.inf)],
     "edge 3: negative or infinite rate_bound: "
     "{'op': 3, 'input0': 6, 'input1': -1, 'output': 1, 'rate_bound': inf}"),
    # the rules are checked in order, each over every edge: a later edge that
    # breaks an earlier rule is named before an earlier edge that breaks a later one
    ([("start", "rate_bound", -1.0), ("end", "output", 17)],
     "edge 3: vertex outside [0, 8): "
     "{'op': 3, 'input0': 6, 'input1': -1, 'output': 17, 'rate_bound': nan}"),
    ([("start", "rate_bound", -1.0), ("end", "output", 0)],
     "edge 3: input not numbered below its output (out of topological order, or contains a "
     "cycle): {'op': 3, 'input0': 6, 'input1': -1, 'output': 0, 'rate_bound': nan}"),
    ([("end", "output", 0), ("swap", "input0", 8)],
     "edge 2: vertex outside [0, 8): "
     "{'op': 1, 'input0': 8, 'input1': 5, 'output': 6, 'rate_bound': nan}"),
], ids=["swap-input1", "end-output", "negative-bound", "infinite-bound", "outside-first",
        "order-second", "outside-before-order"])
def test_reference_refusals_name_the_first_edge_of_the_first_rule(edits, message):
    hg = build_standard_hypergraph(make_chain([60.0, 80.0]), FidelityGrid.uniform(2),
                                   DEFAULT_NOISE)
    with pytest.raises(HypergraphError) as exc:
        Hypergraph(_edited(hg.columns, *edits), hg.grid, hg.noise, hg.link_limits, hg.builder,
                   hg.purify_model)
    assert str(exc.value) == message


def _text_round_trip(hg):
    """The hypergraph of its document written as JSON text and read back."""
    return Hypergraph.from_json(json.loads(json.dumps(hg.to_json())))


def _assert_numbered(hg):
    """Each input of every edge of ``hg`` ranks below its output, with the
    sink ranked last."""
    cols = hg.columns
    n = len(cols.exact_fidelity)
    rank = [np.where(v == SINK, n, v) for v in (cols.input0, cols.input1, cols.output)]
    assert (np.maximum(rank[0], rank[1]) < rank[2]).all()


@pytest.mark.parametrize("model", PURIFY_MODELS)
def test_pruned_and_synthesized_tables_are_numbered_topologically(model):
    # every builder's table, its document and a planner cache of such tables
    # are numbered topologically, standard lattices included
    grid = FidelityGrid.uniform(20)
    topo = make_topology([("s", "a", 50.0), ("a", "d", 60.0), ("s", "b", 70.0), ("b", "d", 40.0),
                          ("a", "b", 30.0)])
    paths = [topo.path_from_nodes(list(p)) for p in DIAMOND_PATHS]
    config = PlannerConfig(n_candidates=3, k_keep=2, grid=grid, purify_model=model)
    pruned = [build_pruned_hypergraph(p, grid, DEFAULT_NOISE, model) for p in paths]
    standard = [build_standard_hypergraph(p, grid, DEFAULT_NOISE, model) for p in paths]
    for hg in [*pruned, *standard, synthesize_multipath(pruned)]:
        _assert_numbered(hg)
        _assert_numbered(_text_round_trip(hg))
    loaded = load_cache(save_cache(outer_loop_update(topo, [("s", "d")], config)))
    assert loaded.entries
    for entry in loaded.entries.values():
        _assert_numbered(entry.hypergraph)


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


_BUILDS = {
    "standard": build_standard_hypergraph,
    "pruned": build_pruned_hypergraph,
    "synthesis": lambda path, grid, noise, model: synthesize_multipath(
        [build_pruned_hypergraph(path, grid, noise, model)]),
}


@pytest.mark.parametrize("model", PURIFY_MODELS)
@pytest.mark.parametrize("builder", _BUILDS)
def test_two_builds_of_one_path_have_equal_documents(builder, model):
    # a hypergraph holds no clock reading: its document depends on its inputs only
    path, grid = make_chain([60.0, 80.0, 55.0], f0=0.97), FidelityGrid.uniform(12)
    first, second = (_BUILDS[builder](path, grid, DEFAULT_NOISE, model) for _ in range(2))
    assert json.dumps(first.to_json()) == json.dumps(second.to_json())


def test_edges_is_the_read_only_op_column_the_benchmark_counts():
    # perfbench takes len(hg.edges) of built, synthesized and reloaded graphs
    grid = FidelityGrid.uniform(10)
    topo = make_topology([("s", "a", 50.0), ("a", "d", 60.0), ("s", "b", 70.0), ("b", "d", 40.0)])
    paths = [topo.path_from_nodes(p) for p in (["s", "a", "d"], ["s", "b", "d"])]
    pruned = [build_pruned_hypergraph(p, grid, DEFAULT_NOISE) for p in paths]
    config = PlannerConfig(n_candidates=2, k_keep=2, grid=grid)
    loaded = load_cache(save_cache(outer_loop_update(topo, [("s", "d")], config)))
    for hg in [build_standard_hypergraph(paths[0], grid, DEFAULT_NOISE), pruned[0],
               synthesize_multipath(pruned), loaded.entries[("s", "d")].hypergraph]:
        assert hg.edges is hg.columns.op
        assert not hg.edges.flags.writeable
        with pytest.raises(AttributeError):
            hg.edges = hg.columns.input0
        assert len(hg.edges) == hg.stats().num_edges


_UNKNOWN_MODEL = r"purify_model must be one of \('ideal-dejmps', 'as-printed'\), got 'bogus'$"


def test_standard_builder_refuses_an_unknown_purification_model_before_any_work():
    CLAMP_EVENTS.reset()
    with pytest.raises(ValueError, match="^" + _UNKNOWN_MODEL):
        build_standard_hypergraph(make_chain([50.0, 50.0]), FidelityGrid.uniform(20),
                                  DEFAULT_NOISE, "bogus")
    assert CLAMP_EVENTS.count == 0


def test_hypergraph_refuses_an_unknown_purification_model():
    # every link is below the grid, so the builder makes no purification
    # call that would refuse the model: the hypergraph itself refuses it
    path, grid = make_chain([50.0, 50.0], f0=0.9), FidelityGrid((0.95, 1.0))
    with pytest.raises(ValueError, match="^" + _UNKNOWN_MODEL):
        build_pruned_hypergraph(path, grid, DEFAULT_NOISE, "bogus")
    doc = build_pruned_hypergraph(path, grid, DEFAULT_NOISE).to_json()
    with pytest.raises(HypergraphError, match="^corrupt hypergraph document: " + _UNKNOWN_MODEL):
        Hypergraph.from_json({**doc, "purify_model": "bogus"})


def test_json_round_trip_is_lossless():
    path = make_chain([60.0, 80.0, 55.0], f0=0.97)
    hg = build_pruned_hypergraph(path, FidelityGrid.uniform(12), DEFAULT_NOISE)
    clone = _text_round_trip(hg)
    # Exact equality across text serialization, every column bit for bit.
    _assert_same_columns(hg, clone)
    assert edge_records(clone) == edge_records(hg)
    assert clone.grid.values == hg.grid.values
    assert clone.link_limits == hg.link_limits
    assert clone.endpoints == hg.endpoints


def _capacity(doc):
    return solve_lp(formulate_lp(Hypergraph.from_json(doc), "ensemble-capacity")).objective_value


@pytest.mark.parametrize("keys", [
    pytest.param(lambda keys: keys[::-1], id="reversed"),
    pytest.param(lambda keys: [*keys[:-1], keys[-2]], id="duplicated"),
    pytest.param(lambda keys: ["a|z", *keys], id="extra-key-without-a-limit"),
])
def test_stored_link_keys_and_endpoints_are_ignored(keys):
    # a document in the older format also held the endpoints and the link
    # keys; the link column indexes the sorted keys of the limits whatever it says
    hg = build_pruned_hypergraph(make_chain([40.0, 90.0, 60.0]), FidelityGrid.uniform(30),
                                 DEFAULT_NOISE)
    doc = hg.to_json()
    clean = {**doc, "endpoints": list(hg.endpoints), "link_keys": sorted(doc["link_limits"])}
    assert _capacity(clean) == _capacity(doc) == pytest.approx(544.8588, rel=1e-6)
    assert _capacity({**clean, "link_keys": keys(clean["link_keys"])}) == _capacity(doc)


def test_from_json_rejects_a_start_edge_without_a_link():
    hg = build_pruned_hypergraph(make_chain([60.0, 80.0]), FidelityGrid.uniform(6), DEFAULT_NOISE)
    doc = hg.to_json()
    # the first start edge now makes a pair of the span (n0, n2), which no link joins
    pairs = [*map(hg.columns.pair, range(len(hg.columns.u)))]
    _edit_edge("start", "output", pairs.index(("n0", "n2"), 2))(doc)
    with pytest.raises(HypergraphError, match=r"^edge 0: start edge into \('n0', 'n2'\), which "
                                              "has no link limit$"):
        Hypergraph.from_json(doc)


def _three_paths():
    """The synthesis of pruned builds of s-a-d, s-a-b-d and s-c-d at grid 30."""
    topo = make_topology([("s", "a", 40.0), ("a", "d", 50.0), ("a", "b", 30.0),
                          ("b", "d", 35.0), ("s", "c", 60.0), ("c", "d", 45.0)])
    grid = FidelityGrid.uniform(30)
    paths = [topo.path_from_nodes(list(nodes)) for nodes in ("sad", "sabd", "scd")]
    return synthesize_multipath([build_pruned_hypergraph(p, grid, DEFAULT_NOISE) for p in paths])


@pytest.mark.parametrize("op, name, change", [
    pytest.param("end", "capacity_coeff", lambda c: c[::-1], id="end-capacity-coeff-reversed"),
    pytest.param("purify", "p_succ", lambda c: c / 2, id="purify-p-succ-halved"),
    pytest.param("start", "link", lambda c: c[::-1], id="start-link-reversed"),
])
def test_stored_derived_columns_are_ignored(op, name, change):
    # a document in the older format also held p_succ, capacity_coeff and
    # link; whatever they say, the answer follows from the vertices
    hg = _three_paths()
    column = getattr(hg, name).copy()
    of_op = np.flatnonzero(hg.columns.op == OP_CODE[op])
    column[of_op] = change(column[of_op])
    assert not np.array_equal(column, getattr(hg, name))  # the edit changes the column
    clean = add_older_columns(hg.to_json(), hg)
    corrupt = add_older_columns(hg.to_json(), hg, **{name: column})
    assert _capacity(corrupt) == _capacity(clean) == _capacity(hg.to_json())
    assert _capacity(clean) == pytest.approx(4853.38, abs=0.005)


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
        assert (*cols.pair(vi), cols.exact_fidelity[vi]) == ("s", "d", 0.0)
    # Single-input synthesis is structurally identical to the input.
    solo = synthesize_multipath([h1])
    assert solo.stats().edges_by_op == h1.stats().edges_by_op


def _sad(grid=FidelityGrid.uniform(8), noise=DEFAULT_NOISE, model="ideal-dejmps", sa_km=50.0,
         nodes=("s", "a", "d")):
    """The pruned build of a path over s-a (``sa_km`` long), a-d and s-b-d."""
    topo = make_topology([("s", "a", sa_km), ("a", "d", 50.0), ("s", "b", 60.0), ("b", "d", 60.0)])
    return build_pruned_hypergraph(topo.path_from_nodes(list(nodes)), grid, noise, model)


@pytest.mark.parametrize("other, match", [
    pytest.param(lambda: _sad(nodes=("s", "a")), "^mismatched endpoints$", id="endpoints"),
    pytest.param(lambda: _sad(grid=FidelityGrid.uniform(9)), "^mismatched grids$", id="grids"),
    pytest.param(lambda: _sad(noise=NoiseParams(p2=0.99)), "^mismatched noise parameters$",
                 id="noise"),
    pytest.param(lambda: _sad(model="as-printed"), "^mismatched purification models$",
                 id="purify-models"),
    pytest.param(lambda: _sad(sa_km=70.0), r"^conflicting limits for physical link a\|s$",
                 id="limits"),
])
def test_synthesis_refuses_hypergraphs_that_disagree(other, match):
    with pytest.raises(HypergraphError, match=match):
        synthesize_multipath([_sad(), other()])


def test_synthesis_refuses_an_empty_list():
    with pytest.raises(HypergraphError, match="^need at least one hypergraph$"):
        synthesize_multipath([])


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
    pytest.param(_set_limits(float("nan")), id="nan-limit"),
    pytest.param(_set_limits(float("inf")), id="infinite-limit"),
    pytest.param(_set_limits(-5.0), id="negative-limit"),
    pytest.param(_drop_a_limit, id="start-link-without-limit"),
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


def _reverse_nodes(doc):
    """Corruption: the node names in reverse, each vertex keeping its pair."""
    last = len(doc["nodes"]) - 1
    doc["nodes"].reverse()
    for name in ("u", "v"):
        set_doc_column(doc, name, last - doc_column(doc, name))


def _repeat_last_node(doc):
    """Corruption: the last node name twice, the sink's v on the second."""
    doc["nodes"].append(doc["nodes"][-1])
    v = doc_column(doc, "v")
    v[SINK] = len(doc["nodes"]) - 1
    set_doc_column(doc, "v", v)


def _insert_unused_node(doc):
    """Corruption: a name no vertex is on, in order after the first name."""
    doc["nodes"].insert(1, doc["nodes"][0] + "5")
    for name in ("u", "v"):
        column = doc_column(doc, name)
        set_doc_column(doc, name, column + (column >= 1))


# each loads with the same vertex pairs, but in no form a builder writes
@pytest.mark.parametrize("corrupt, message", [
    pytest.param(_reverse_nodes, "nodes[1] 'n1' is not above 'n2': names must be strictly "
                 "increasing", id="unsorted"),
    pytest.param(_repeat_last_node, "nodes[3] 'n2' is not above 'n2': names must be strictly "
                 "increasing", id="repeated"),
    pytest.param(_insert_unused_node, "nodes[1] 'n05' is on no vertex", id="unused"),
])
def test_from_json_refuses_nodes_a_builder_does_not_write(corrupt, message):
    hg = build_standard_hypergraph(make_chain([60.0, 80.0]), FidelityGrid.uniform(6), DEFAULT_NOISE)
    doc = hg.to_json()
    corrupt(doc)
    with pytest.raises(HypergraphError, match=f"^{re.escape(message)}$"):
        Hypergraph.from_json(json.loads(json.dumps(doc)))


@settings(max_examples=40, deadline=None)
@given(hypergraphs())
@example(dead_link_build())  # no vertex on node c: its name is left out
def test_json_round_trip_keeps_the_columns_byte_for_byte(hg):
    clone = _text_round_trip(hg)
    _assert_same_columns(hg, clone)
    cols = hg.columns
    used = {*cols.u.tolist(), *cols.v.tolist()}
    assert cols.nodes == tuple(sorted(cols.nodes[i] for i in used))  # the names some vertex uses
    assert (cols.u.dtype, cols.v.dtype) == (np.int32, np.int32)
    for name in ("grid", "noise", "link_limits", "link_keys", "endpoints", "builder",
                 "purify_model"):
        assert getattr(clone, name) == getattr(hg, name), name
    # both derived, neither stored
    assert hg.link_keys == tuple(sorted(hg.link_limits))
    assert hg.endpoints == hg.columns.pair(SOURCE)
    assert not {"link_keys", "endpoints"} & hg.to_json().keys()
    assert json.dumps(clone.to_json()) == json.dumps(hg.to_json())
    with pytest.raises(ValueError):
        clone.columns.rate_bound[:1] = 0.0


@settings(max_examples=40, deadline=None)
@given(hypergraphs())
def test_derived_fields_equal_their_scalar_references(hg):
    # bit for bit: the kernel's success probability on a purification's
    # inputs, in input0/input1 order, pair_capacity of an end edge's input
    # and the link key of a start edge's output pair; the defaults elsewhere
    cols, f = hg.columns, hg.columns.exact_fidelity.tolist()
    for e, (op, in0, in1, out) in enumerate(zip(cols.op.tolist(), cols.input0.tolist(),
                                                cols.input1.tolist(), cols.output.tolist())):
        expected = [1.0, 0.0, -1]  # p_succ, capacity_coeff, link
        if op == OP_CODE["purify"]:
            expected[0] = purify(f[in0], f[in1], hg.noise, hg.purify_model)[1]
        elif op == OP_CODE["end"]:
            expected[1] = pair_capacity(f[in0])
        elif op == OP_CODE["start"]:
            expected[2] = hg.link_keys.index(Edge(*cols.pair(out), 1.0).key)
        assert [hg.p_succ[e], hg.capacity_coeff[e], hg.link[e]] == expected, e
    for name in OLDER_COLUMNS:
        assert not getattr(hg, name).flags.writeable, name  # every LP of the graph shares it
    assert not OLDER_COLUMNS.keys() & hg.to_json()["columns"].keys()
    assert [*hg.to_json()["columns"]] == [*DOCUMENT_COLUMNS]
