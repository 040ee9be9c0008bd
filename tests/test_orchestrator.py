"""Tests for the two-loop planning controller and its cache."""

import json

import pytest

from entflow.hypergraph import BUILD_COUNTER, FidelityGrid, Hypergraph, HypergraphError
from entflow.orchestrator import (
    Cache,
    CacheError,
    PlannerConfig,
    inner_loop_request,
    load_cache,
    outer_loop_update,
    save_cache,
)
from entflow.topology import Edge, Topology


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
    cfg = _config(t_cut_s=0.5)
    clone = PlannerConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert clone == cfg


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


def test_inner_loop_reports_exceeded_coherence_budget():
    cache = outer_loop_update(_square_topology(), [("s", "d")], _config(t_cut_s=1e-12))
    res = inner_loop_request(cache, "s", "d")
    assert res.diagnostic == "coherence budget exceeded"
    assert res.cached and not res.over_budget
    assert res.scheme.capacity > 0.0


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


@pytest.mark.parametrize("field", ["purify_model", "path_weight"])
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
    doc = json.loads(save_cache(cache))
    hg_doc = doc["entries"][0]["hypergraph"]
    swap = next(e for e in hg_doc["edges"] if e[0] == "swap")
    swap[2] = swap[1][0]  # the swap now outputs into its own input
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


def test_load_cache_rejects_unknown_vertex_kind():
    doc = json.loads(save_cache(outer_loop_update(_square_topology(), [("s", "d")], _config())))
    doc["entries"][0]["hypergraph"]["vertices"][2][4] = "bogus"
    with pytest.raises(CacheError, match="vertex 2: kind 'bogus'"):
        load_cache(json.dumps(doc))


def test_load_cache_rejects_a_vertex_fidelity_outside_the_unit_interval():
    doc = json.loads(save_cache(outer_loop_update(_square_topology(), [("s", "d")], _config())))
    doc["entries"][0]["hypergraph"]["vertices"][2][2] = 1.7
    with pytest.raises(CacheError, match=r"vertex 2: exact_fidelity 1\.7 is not a real in \[0, 1\]"):
        load_cache(json.dumps(doc))


def test_load_cache_rejects_a_vertex_name_that_is_not_a_string():
    doc = json.loads(save_cache(outer_loop_update(_square_topology(), [("s", "d")], _config())))
    doc["entries"][0]["hypergraph"]["vertices"][2][0] = 42  # was printed as link(42|...)
    with pytest.raises(CacheError, match="vertex 2: node name 42 is not a string"):
        load_cache(json.dumps(doc))


def test_load_cache_rejects_a_sink_pair_other_than_the_endpoints():
    doc = json.loads(save_cache(outer_loop_update(_square_topology(), [("s", "d")], _config())))
    doc["entries"][0]["hypergraph"]["vertices"][1][:2] = ["d", "s"]
    with pytest.raises(CacheError, match=r"vertex 1: node pair \('d', 's'\) is not the "
                                         r"endpoints \('s', 'd'\)"):
        load_cache(json.dumps(doc))


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
