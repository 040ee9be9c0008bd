"""Planner invariants on generated topologies and paths.

Each holds on every input, not only on the fixtures: scaling every link
limit scales the ensemble capacity; the order of the demands does not
change the cache; renaming the nodes, in an order-reversing map, keeps
the kept paths and the answers; and the standard lattice of a path and
of its reverse give the same optima. Objectives are compared within
1e-12 relative, as HiGHS may take another pivot sequence on a reordered
or rescaled model; rates and counts are not compared, as it may also
return another optimal vertex.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from entflow.hypergraph import FidelityGrid, Hypergraph, build_standard_hypergraph
from entflow.lp import formulate_lp, solve_lp
from entflow.orchestrator import (
    PlannerConfig,
    inner_loop_request,
    outer_loop_update,
    save_cache,
)
from entflow.physics import DEFAULT_NOISE
from entflow.topology import Edge, Path, Topology, generate_gabriel

REL = 1e-12


@st.composite
def planner_inputs(draw):
    """A Gabriel topology of 8-12 nodes, a planner config at grid 10-16, and
    2-4 distinct demands."""
    topo = generate_gabriel(draw(st.integers(8, 12)), draw(st.integers(0, 2**16)),
                            distance_range_km=(20.0, 120.0))
    config = PlannerConfig(n_candidates=4, k_keep=2,
                           grid=FidelityGrid.uniform(draw(st.integers(10, 16))))
    pairs = st.tuples(st.sampled_from(topo.nodes), st.sampled_from(topo.nodes))
    demands = draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), min_size=2, max_size=4,
                            unique_by=lambda p: frozenset(p)))
    return topo, config, demands


def _capacity(hg: Hypergraph) -> float:
    return solve_lp(formulate_lp(hg, "ensemble-capacity")).objective_value


@settings(max_examples=15, deadline=None)
@given(planner_inputs(), st.floats(0.1, 10.0))
def test_scaling_the_link_limits_scales_the_capacity(inputs, factor):
    topo, config, demands = inputs
    for entry in outer_loop_update(topo, demands, config).entries.values():
        if entry.hypergraph is None:
            continue
        doc = entry.hypergraph.to_json()
        doc["link_limits"] = {k: factor * v for k, v in doc["link_limits"].items()}
        scaled = _capacity(Hypergraph.from_json(doc))
        assert scaled == pytest.approx(factor * _capacity(entry.hypergraph), rel=REL, abs=0)


@settings(max_examples=10, deadline=None)
@given(planner_inputs(), st.randoms(use_true_random=False))
def test_the_order_of_the_demands_leaves_the_cache_text(inputs, rng):
    topo, config, demands = inputs
    shuffled = rng.sample(demands, len(demands))
    assert save_cache(outer_loop_update(topo, shuffled, config)) == \
        save_cache(outer_loop_update(topo, demands, config))


@settings(max_examples=15, deadline=None)
@given(planner_inputs())
def test_an_order_reversing_rename_keeps_the_kept_paths_and_the_answers(inputs):
    topo, config, demands = inputs
    names = sorted(topo.nodes)
    rename = {name: f"x{len(names) - k:03d}" for k, name in enumerate(names)}
    renamed = Topology([rename[n] for n in topo.nodes], [
        Edge(rename[e.u], rename[e.v], e.length_km, e.r_local, e.alpha_db_per_km, e.f0)
        for e in topo.edges])
    cache = outer_loop_update(topo, demands, config)
    other = outer_loop_update(renamed, [(rename[s], rename[d]) for s, d in demands], config)
    for (s, d), entry in cache.entries.items():
        kept = [tuple(rename[n] for n in nodes) for _, nodes in entry.estimates[:config.k_keep]]
        assert [nodes for _, nodes in other.entries[(rename[s], rename[d])].estimates[
            :config.k_keep]] == kept
        want = inner_loop_request(cache, s, d).scheme
        got = inner_loop_request(other, rename[s], rename[d]).scheme
        assert got.capacity == pytest.approx(want.capacity, rel=REL, abs=0)
        assert got.egr == pytest.approx(want.egr, rel=REL, abs=0)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(20.0, 150.0), min_size=1, max_size=3), st.integers(10, 16),
       st.floats(0.6, 0.95))
def test_a_path_and_its_reverse_give_the_same_standard_optima(lengths, size, f_lb):
    grid, path = FidelityGrid.uniform(size), make_chain(lengths)
    reverse = Path(path.nodes[::-1], path.edges[::-1], path.total_length_km)
    forward, backward = (build_standard_hypergraph(p, grid, DEFAULT_NOISE) for p in (path, reverse))
    for objective in ("ensemble-capacity", "end-rate"):
        want = solve_lp(formulate_lp(forward, objective, f_lb)).objective_value
        got = solve_lp(formulate_lp(backward, objective, f_lb)).objective_value
        assert got == pytest.approx(want, rel=REL, abs=0)
