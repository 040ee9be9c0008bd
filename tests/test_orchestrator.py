"""Tests for the two-loop planning controller and its cache."""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OLDER_COLUMNS, add_older_columns, doc_column, set_doc_column
from entflow.hypergraph import BUILD_COUNTER, OP_CODE, FidelityGrid, Hypergraph, HypergraphError
from entflow.orchestrator import (
    Cache,
    CacheError,
    PlannerConfig,
    inner_loop_request,
    load_cache,
    outer_loop_update,
    save_cache,
)
from entflow.physics import PURIFY_MODELS, NoiseParams
from entflow.topology import Edge, Topology, link_key


def _square_topology():
    """Two node-disjoint routes s-a-d (100 km) and s-b-d (140 km)."""
    return Topology(
        ["s", "a", "b", "d"],
        [Edge(u="s", v="a", length_km=50.0), Edge(u="a", v="d", length_km=50.0),
         Edge(u="s", v="b", length_km=70.0), Edge(u="b", v="d", length_km=70.0)],
    )


def _config(**kw):
    base = dict(n_candidates=4, k_keep=2, grid=FidelityGrid.uniform(20))
    base.update(kw)
    return PlannerConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(k_keep=5, n_candidates=3)
    with pytest.raises(ValueError):
        PlannerConfig(latency_budget_s=2.0)


def test_config_json_round_trip():
    cfg = _config(latency_budget_s=0.5)
    clone = PlannerConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert clone == cfg


def test_config_json_refuses_a_boolean_grid_value():
    doc = json.loads(json.dumps(_config().to_json()))
    doc["grid"] = [0.5, 0.75, True]
    with pytest.raises(HypergraphError, match=r"^grid value 2: True is not a number$"):
        PlannerConfig.from_json(doc)


def test_outer_loop_ranks_and_keeps_k():
    topo = _square_topology()
    cache = outer_loop_update(topo, [("s", "d")], _config())
    entry = cache.entries[("s", "d")]
    assert len(entry.estimates) == 2  # only two simple routes exist
    scores = [score for score, _ in entry.estimates]
    assert scores == sorted(scores, reverse=True)
    # The shorter (higher-rate) route must rank first.
    assert entry.estimates[0][1] == ("s", "a", "d")
    assert entry.hypergraph is not None


def test_more_paths_never_hurt():
    # [DERIVED] Adding a disjoint route can only add feasible flow.
    topo = _square_topology()
    one = outer_loop_update(topo, [("s", "d")], _config(k_keep=1))
    two = outer_loop_update(topo, [("s", "d")], _config(k_keep=2))
    cap1 = inner_loop_request(one, "s", "d").scheme.capacity
    cap2 = inner_loop_request(two, "s", "d").scheme.capacity
    assert cap2 >= cap1 - 1e-9 * max(1.0, cap1)
    assert cap1 > 0.0


def test_disjoint_routes_add_up():
    # [DERIVED] With node-disjoint routes and no shared links, the merged
    # optimum equals the sum of the single-route optima.
    topo = _square_topology()
    cfg = _config()
    both = inner_loop_request(
        outer_loop_update(topo, [("s", "d")], cfg), "s", "d"
    ).scheme.capacity
    # Restrict to each route alone via k_keep=1 on subgraphs.
    short = Topology(["s", "a", "d"], [topo.edge_between("s", "a"),
                                       topo.edge_between("a", "d")])
    long = Topology(["s", "b", "d"], [topo.edge_between("s", "b"),
                                      topo.edge_between("b", "d")])
    cap_short = inner_loop_request(
        outer_loop_update(short, [("s", "d")], cfg), "s", "d").scheme.capacity
    cap_long = inner_loop_request(
        outer_loop_update(long, [("s", "d")], cfg), "s", "d").scheme.capacity
    assert both == pytest.approx(cap_short + cap_long, rel=1e-9)


def test_inner_loop_does_not_construct():
    topo = _square_topology()
    cache = outer_loop_update(topo, [("s", "d")], _config())
    BUILD_COUNTER.reset()
    res = inner_loop_request(cache, "s", "d")
    assert BUILD_COUNTER.count == 0
    assert res.cached and res.scheme.capacity > 0.0


def test_inner_loop_determinism():
    topo = _square_topology()
    cache = outer_loop_update(topo, [("s", "d")], _config())
    a = inner_loop_request(cache, "s", "d")
    b = inner_loop_request(cache, "s", "d")
    assert json.dumps(a.scheme.to_json(), sort_keys=True) == json.dumps(
        b.scheme.to_json(), sort_keys=True
    )


def test_inner_loop_cache_misses():
    topo = _square_topology()
    cache = outer_loop_update(topo, [("s", "d")], _config())
    miss = inner_loop_request(cache, "a", "b")
    assert not miss.cached
    assert miss.diagnostic == "not cached"
    assert miss.scheme.capacity == 0.0


def test_two_outer_loop_runs_save_to_the_same_text():
    # a cache holds no clock reading, so a seeded build is byte-reproducible
    first, second = (
        save_cache(outer_loop_update(_square_topology(), [("s", "d"), ("a", "b")], _config()))
        for _ in range(2)
    )
    assert first == second


def test_a_cache_with_the_removed_keys_loads_and_answers_the_same():
    # a cache written while entries held their build times and the config
    # held t_cut_s and path_weight: the reader ignores those keys
    cache = outer_loop_update(_square_topology(), [("s", "d"), ("a", "b")], _config())
    text = save_cache(cache)
    doc = json.loads(text)
    doc["config"].update(t_cut_s=None, path_weight="km")
    for item in doc["entries"]:
        item["server_time_s"] = 0.25
        item["hypergraph"]["build_time_s"] = 0.125
    loaded = load_cache(json.dumps(doc))
    assert save_cache(loaded) == text
    for s, d in cache.entries:
        a = inner_loop_request(cache, s, d).scheme.to_json()
        b = inner_loop_request(loaded, s, d).scheme.to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_inner_loop_reports_disconnected_demand():
    topo = Topology(["s", "a", "b", "d"], [Edge(u="s", v="a", length_km=50.0),
                                         Edge(u="b", v="d", length_km=50.0)])
    cache = load_cache(save_cache(outer_loop_update(topo, [("s", "d")], _config())))
    assert cache.entries[("s", "d")].hypergraph is None
    res = inner_loop_request(cache, "s", "d")
    assert res.cached
    assert res.diagnostic == "no path available"
    assert res.scheme.capacity == 0.0


def test_outer_loop_requires_demands():
    with pytest.raises(ValueError):
        outer_loop_update(_square_topology(), [], _config())


def test_cache_round_trip():
    topo = _square_topology()
    cache = outer_loop_update(topo, [("s", "d"), ("a", "b")], _config())
    clone = load_cache(save_cache(cache))
    assert clone.config == cache.config
    assert set(clone.entries) == set(cache.entries)
    before = inner_loop_request(cache, "s", "d").scheme.capacity
    after = inner_loop_request(clone, "s", "d").scheme.capacity
    assert after == pytest.approx(before, rel=1e-12)


def test_cache_rejects_corrupt_documents():
    topo = _square_topology()
    cache = outer_loop_update(topo, [("s", "d")], _config())
    text = save_cache(cache)
    with pytest.raises(CacheError):
        load_cache(text[: len(text) // 2])  # truncated
    doc = json.loads(text)
    doc["version"] = 99
    with pytest.raises(CacheError):
        load_cache(json.dumps(doc))
    del doc["version"]
    with pytest.raises(CacheError):
        load_cache(json.dumps(doc))


def test_load_cache_rejects_invalid_hypergraph():
    cache = outer_loop_update(_square_topology(), [("s", "d")], _config())
    doc = json.loads(save_cache(cache))
    limits = doc["entries"][0]["hypergraph"]["link_limits"]
    for key in limits:
        limits[key] = float("nan")
    with pytest.raises(CacheError, match="limit"):
        load_cache(json.dumps(doc))


@pytest.mark.parametrize("field", ["purify_model"])
def test_config_rejects_unknown_names(field):
    with pytest.raises(ValueError, match=field):
        _config(**{field: "bogus"})
    doc = json.loads(save_cache(outer_loop_update(_square_topology(), [("s", "d")], _config())))
    doc["config"][field] = "bogus"
    with pytest.raises(CacheError, match=field):
        load_cache(json.dumps(doc))


def test_load_cache_rejects_cyclic_hypergraph():
    topo = Topology(["x0", "x1", "x2"], [Edge(u="x0", v="x1", length_km=30.0),
                                         Edge(u="x1", v="x2", length_km=30.0)])
    cache = outer_loop_update(topo, [("x0", "x2")], _config())
    hg_doc = cache.entries[("x0", "x2")].hypergraph.to_json()
    doc = json.loads(save_cache(cache))
    for stored in (hg_doc, doc["entries"][0]["hypergraph"]):
        output = doc_column(stored, "output")
        swap = np.flatnonzero(doc_column(stored, "op") == OP_CODE["swap"])[0]
        output[swap] = doc_column(stored, "input0")[swap]  # the swap outputs into its own input
        set_doc_column(stored, "output", output)
    with pytest.raises(HypergraphError, match="cycle"):
        Hypergraph.from_json(hg_doc)
    with pytest.raises(CacheError, match="cycle"):
        load_cache(json.dumps(doc))


def test_inner_loop_raises_on_a_real_build(monkeypatch):
    import entflow.orchestrator as orchestrator
    from entflow.hypergraph import build_pruned_hypergraph

    topo = _square_topology()
    cache = outer_loop_update(topo, [("s", "d")], _config())
    formulate = orchestrator.formulate_lp
    path = topo.path_from_nodes(["s", "a", "d"])

    def formulate_after_building(hg, objective):
        build_pruned_hypergraph(path, cache.config.grid, cache.config.noise)
        return formulate(hg, objective)

    monkeypatch.setattr(orchestrator, "formulate_lp", formulate_after_building)
    with pytest.raises(RuntimeError, match="inner loop performed hypergraph construction"):
        inner_loop_request(cache, "s", "d")


def test_concurrent_outer_refresh_raises_no_false_alarm():
    import sys
    import threading

    topo = _square_topology()
    cfg = _config()
    cache = outer_loop_update(topo, [("s", "d")], cfg)
    builds_before = BUILD_COUNTER.count
    started = threading.Event()
    done = threading.Event()
    served = []
    errors = []

    def refresh():
        started.set()
        while not done.is_set():
            outer_loop_update(topo, [("s", "d"), ("a", "b")], cfg)

    def serve():
        try:
            assert started.wait(timeout=30)
            for _ in range(50):
                served.append(inner_loop_request(cache, "s", "d").scheme.capacity)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=refresh), threading.Thread(target=serve)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # let the threads interleave between builds
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(served) == 50 and min(served) > 0.0
    assert BUILD_COUNTER.count > builds_before  # the refresher built meanwhile


def _saved_square_doc():
    """A saved cache of the s-d demand of the square topology, parsed."""
    return json.loads(save_cache(outer_loop_update(_square_topology(), [("s", "d")], _config())))


def _edit_column(name, at, value):
    """Corruption: set entry ``at`` of one stored column."""
    def corrupt(hg_doc):
        column = doc_column(hg_doc, name)
        column[at] = value
        set_doc_column(hg_doc, name, column)
    return corrupt


def test_load_cache_rejects_a_vertex_fidelity_outside_the_unit_interval():
    doc = _saved_square_doc()
    _edit_column("exact_fidelity", 2, 1.7)(doc["entries"][0]["hypergraph"])
    with pytest.raises(CacheError, match=r"vertex 2: exact_fidelity 1\.7 is not a real in \[0, 1\]"):
        load_cache(json.dumps(doc))


def test_load_cache_rejects_a_vertex_name_that_is_not_a_string():
    doc = _saved_square_doc()
    hg_doc = doc["entries"][0]["hypergraph"]
    hg_doc["nodes"].append(42)  # was printed as link(42|...)
    _edit_column("u", 2, len(hg_doc["nodes"]) - 1)(hg_doc)
    with pytest.raises(CacheError, match="vertex 2: node name 42 is not a string"):
        load_cache(json.dumps(doc))


def test_load_cache_rejects_a_sink_pair_other_than_the_endpoints():
    doc = _saved_square_doc()
    hg_doc = doc["entries"][0]["hypergraph"]
    u, v = doc_column(hg_doc, "u"), doc_column(hg_doc, "v")
    u[1], v[1] = v[1], u[1]
    set_doc_column(hg_doc, "u", u)
    set_doc_column(hg_doc, "v", v)
    with pytest.raises(CacheError, match=r"vertex 1: node pair \('d', 's'\) is not the "
                                         r"endpoints \('s', 'd'\)"):
        load_cache(json.dumps(doc))


def _first(op):
    """The index of the first stored edge of one op."""
    return lambda hg_doc: int(np.flatnonzero(doc_column(hg_doc, "op") == OP_CODE[op])[0])


def _edit_edge_of(op, name, value):
    """Corruption: set one column of the first edge of ``op``."""
    def corrupt(hg_doc):
        _edit_column(name, _first(op)(hg_doc), value(hg_doc) if callable(value) else value)(hg_doc)
    return corrupt


def _append_byte(hg_doc):
    hg_doc["columns"]["input0"] = base64.b64encode(
        base64.b64decode(hg_doc["columns"]["input0"]) + b"\0").decode()


def _drop_last(*names):
    def corrupt(hg_doc):
        for name in names:
            set_doc_column(hg_doc, name, doc_column(hg_doc, name)[:-1])
    return corrupt


def _keep_one_vertex(hg_doc):
    for name in ("u", "v", "exact_fidelity"):
        set_doc_column(hg_doc, name, doc_column(hg_doc, name)[:1])


def _rename_node(old, new):
    def corrupt(hg_doc):
        hg_doc["nodes"][hg_doc["nodes"].index(old)] = new
        # and in the link limits, so that every start edge keeps its limit
        hg_doc["link_limits"] = {
            link_key(*(new if n == old else n for n in key.split("|"))): limit
            for key, limit in hg_doc["link_limits"].items()}
    return corrupt


def _join_nodes(hg_doc):
    hg_doc["nodes"] = "".join(hg_doc["nodes"])  # one letter each, so each letter reads as a name


# each rule a v2 load enforces, with the entry, the column and the first bad index
@pytest.mark.parametrize("corrupt, match", [
    pytest.param(_append_byte, r"entry \('s', 'd'\): column input0: \d+ bytes, not a multiple of 8",
                 id="ragged-bytes"),
    pytest.param(_drop_last("rate_bound"), r"column rate_bound: (\d+) entries, column op \d+",
                 id="unequal-edge-columns"),
    pytest.param(_drop_last("v"), r"column v: \d+ entries, column exact_fidelity \d+",
                 id="unequal-vertex-columns"),
    pytest.param(_keep_one_vertex, "vertices must start with source and sink", id="one-vertex"),
    pytest.param(_edit_column("op", 3, 7), "edge 3: unknown op 7", id="op-code-above-range"),
    pytest.param(_edit_column("op", 3, -1), "edge 3: unknown op -1", id="op-code-below-range"),
    pytest.param(_edit_edge_of("swap", "input1", -1), r"edge \d+: swap takes 2 input\(s\), got 1",
                 id="swap-with-one-input"),
    pytest.param(_edit_edge_of("end", "input1", 2), r"edge \d+: end takes 1 input\(s\), got 2",
                 id="end-with-two-inputs"),
    pytest.param(_edit_column("exact_fidelity", 3, float("nan")),
                 r"vertex 3: exact_fidelity nan is not a real in \[0, 1\]", id="nan-fidelity"),
    pytest.param(_edit_column("exact_fidelity", 4, -0.5),
                 r"vertex 4: exact_fidelity -0\.5 is not a real in \[0, 1\]",
                 id="negative-fidelity"),
    pytest.param(_edit_column("v", 4, 4), "vertex 4: v 4 is not an index into the 4 nodes",
                 id="node-index-past-nodes"),
    pytest.param(_edit_column("u", 3, -1), "vertex 3: u -1 is not an index into the 4 nodes",
                 id="negative-node-index"),
    pytest.param(_edit_column("u", 0, 0), r"vertex 1: node pair \('s', 'd'\) is not the endpoints "
                 r"\('a', 'd'\)", id="source-pair-other-than-the-endpoints"),
    pytest.param(_rename_node("a", "a2"), r"entry \('s', 'd'\): node 'a2' is not on its first 2 "
                 "estimated paths", id="node-off-the-kept-paths"),
    pytest.param(_join_nodes, "nodes is a str, not a list",
                 id="nodes-joined-into-one-string"),
])
def test_load_cache_rejects_bad_columns(corrupt, match):
    doc = _saved_square_doc()
    corrupt(doc["entries"][0]["hypergraph"])
    with pytest.raises(CacheError, match=match) as caught:
        load_cache(json.dumps(doc))
    assert "entry ('s', 'd'): " in str(caught.value)


def test_load_cache_rejects_a_version_1_cache():
    doc = _saved_square_doc()
    doc["version"] = 1
    with pytest.raises(CacheError, match="unsupported cache version 1"):
        load_cache(json.dumps(doc))


def test_load_cache_rejects_a_node_off_the_first_k_paths_of_the_config():
    doc = _saved_square_doc()
    doc["config"]["k_keep"] = 1  # the entry was synthesized from both routes
    with pytest.raises(CacheError, match=r"entry \('s', 'd'\): node 'b' is not on its first 1 "
                                         "estimated paths"):
        load_cache(json.dumps(doc))


@pytest.mark.parametrize("index, edit, message", [
    (0, lambda e: ["abc", e[1]], "score must be a real number, got 'abc'"),
    (1, lambda e: [True, e[1]], "score must be a real number, got True"),
    (1, lambda e: [float("nan"), e[1]], "score nan is not at most the one before it, {before!r}"),
    (1, lambda e: [1e9, e[1]], "score 1000000000.0 is not at most the one before it, {before!r}"),
    (0, lambda e: [e[0], "sad"], "nodes 'sad' are not a list of node names"),
    (1, lambda e: [e[0], ["s", 7, "d"]], "nodes ['s', 7, 'd'] are not a list of node names"),
], ids=["score-string", "score-bool", "score-nan", "scores-ascend", "nodes-string",
        "nodes-int"])
def test_load_cache_refuses_an_estimate_it_cannot_rank(index, edit, message):
    # each used to load, and all answered the same: a string of nodes was read
    # as a path of its letters, and out-of-order scores made the k_keep node
    # check read other paths than the kept ones
    doc = _saved_square_doc()
    estimates = doc["entries"][0]["estimates"]
    before = estimates[0][0]
    estimates[index] = edit(estimates[index])
    with pytest.raises(CacheError) as info:
        load_cache(json.dumps(doc))
    assert str(info.value) == f"entry ('s', 'd'): estimate {index}: " + message.format(before=before)


@pytest.mark.parametrize("field, value, message", [
    ("k_keep", True, "k_keep must be an integer, got True"),
    ("k_keep", 2.5, "k_keep must be an integer, got 2.5"),
    ("n_candidates", 6.0, "n_candidates must be an integer, got 6.0"),
    ("latency_budget_s", True, "latency_budget_s must be a real number, got True"),
], ids=["k_keep-true", "k_keep-2.5", "n_candidates-6.0", "latency_budget_s-true"])
def test_load_cache_refuses_a_config_count_or_budget_of_the_wrong_type(field, value, message):
    # k_keep true was read as 1 and refused as a node off the first "True"
    # paths, 2.5 with a bare slice error; the other two loaded and answered
    doc = _saved_square_doc()
    doc["config"][field] = value
    with pytest.raises(CacheError) as info:
        load_cache(json.dumps(doc))
    assert str(info.value) == f"corrupt cache document: {message}"


@pytest.mark.parametrize("field, value", [
    ("grid", FidelityGrid.uniform(10)),
    ("noise", NoiseParams(p2=0.99)),
    ("purify_model", "as-printed"),
])
def test_save_cache_rejects_a_hypergraph_that_disagrees_with_the_config(field, value):
    cache = outer_loop_update(_square_topology(), [("s", "d")], _config())
    cache.config = _config(**{field: value})
    with pytest.raises(CacheError, match=rf"entry \('s', 'd'\): its hypergraph's {field} is not "
                                         "the config's"):
        save_cache(cache)


def _two_demand_doc():
    """A saved cache of the s-d and a-b demands of the square topology."""
    cache = outer_loop_update(_square_topology(), [("s", "d"), ("a", "b")], _config())
    return json.loads(save_cache(cache))


def test_load_cache_rejects_an_entry_whose_hypergraph_connects_other_endpoints():
    doc = _two_demand_doc()
    entry = next(e for e in doc["entries"] if (e["s"], e["d"]) == ("a", "b"))
    entry["s"], entry["d"] = "d", "a"  # relabelled: the a-b model would answer d-a
    with pytest.raises(CacheError, match=r"entry \('d', 'a'\): its hypergraph connects \('a', 'b'\)"):
        load_cache(json.dumps(doc))


def test_load_cache_reads_a_cache_that_stores_endpoints_and_link_keys():
    # caches written before both were derived also stored them per entry
    doc = _two_demand_doc()
    cache = load_cache(json.dumps(doc))
    for item in doc["entries"]:
        hg_doc = item["hypergraph"]
        hg_doc["endpoints"] = [item["s"], item["d"]]
        hg_doc["link_keys"] = sorted(hg_doc["link_limits"])
    older = load_cache(json.dumps(doc))
    assert save_cache(older) == save_cache(cache)
    for s, d in cache.entries:
        a = inner_loop_request(cache, s, d).scheme.to_json()
        b = inner_loop_request(older, s, d).scheme.to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_load_cache_reads_a_cache_that_stores_the_derived_columns():
    # caches written before p_succ, capacity_coeff and link were derived
    # from the vertices also stored them, as columns of each entry
    doc = _two_demand_doc()
    cache = load_cache(json.dumps(doc))
    for item in doc["entries"]:
        add_older_columns(item["hypergraph"], cache.entries[(item["s"], item["d"])].hypergraph)
        assert OLDER_COLUMNS.keys() <= item["hypergraph"]["columns"].keys()
    older = load_cache(json.dumps(doc))
    assert save_cache(older) == save_cache(cache)
    for s, d in cache.entries:
        a = inner_loop_request(cache, s, d).scheme.to_json()
        b = inner_loop_request(older, s, d).scheme.to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_load_cache_rejects_a_demand_that_appears_twice():
    doc = _two_demand_doc()
    doc["entries"].append(doc["entries"][0])
    with pytest.raises(CacheError, match="appears twice"):
        load_cache(json.dumps(doc))


def test_no_vertex_records_on_build_solve_save_or_load():
    cache = outer_loop_update(_square_topology(), [("s", "d"), ("a", "b")], _config())
    kept = [e.hypergraph for e in cache.entries.values()]
    loaded = load_cache(save_cache(cache))
    for s, d in cache.entries:
        assert inner_loop_request(loaded, s, d).scheme.capacity > 0.0
        assert inner_loop_request(cache, s, d).scheme.capacity > 0.0
    for hg in kept + [e.hypergraph for e in loaded.entries.values()]:
        assert "vertices" not in hg.__dict__


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from(PURIFY_MODELS),
    size=st.integers(min_value=2, max_value=40),
    k_keep=st.integers(min_value=1, max_value=3),
    km=st.lists(st.floats(min_value=20.0, max_value=140.0), min_size=6, max_size=6),
)
def test_cache_round_trip_keeps_every_column_and_answer(model, size, k_keep, km):
    topo = Topology(["s", "a", "b", "d"], [
        Edge(u="s", v="a", length_km=km[0]), Edge(u="a", v="d", length_km=km[1]),
        Edge(u="s", v="b", length_km=km[2]), Edge(u="b", v="d", length_km=km[3]),
        Edge(u="a", v="b", length_km=km[4]), Edge(u="s", v="d", length_km=km[5] + 150.0),
    ])
    config = _config(n_candidates=3, k_keep=k_keep, grid=FidelityGrid.uniform(size),
                     purify_model=model)
    cache = outer_loop_update(topo, [("s", "d"), ("a", "b"), ("d", "s")], config)
    text = save_cache(cache)
    clone = load_cache(text)
    assert save_cache(clone) == text
    assert clone.config == cache.config
    assert set(clone.entries) == set(cache.entries)
    for key, entry in cache.entries.items():
        copy = clone.entries[key]
        assert copy.estimates == entry.estimates
        assert (copy.hypergraph is None) == (entry.hypergraph is None)
        if entry.hypergraph is None:
            continue
        for name, value in vars(entry.hypergraph.columns).items():
            loaded = getattr(copy.hypergraph.columns, name)
            if isinstance(value, np.ndarray):
                assert (loaded.dtype, loaded.tobytes()) == (value.dtype, value.tobytes()), name
            else:
                assert loaded == value, name
        for name in ("grid", "noise", "purify_model", "link_limits", "endpoints", "builder"):
            assert getattr(copy.hypergraph, name) == getattr(entry.hypergraph, name), name
        a = inner_loop_request(cache, *key).scheme.to_json()
        b = inner_loop_request(clone, *key).scheme.to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert not {"vertices", "edges"} & vars(copy.hypergraph).keys()  # no records made
