"""Pinned bytes of hypergraph documents and of a planner cache.

Each digest is the sha256 of ``json.dumps(hg.to_json())`` of one build, or
of the ``save_cache`` text of a small planner cache, recorded before the
hypergraph table held its node pairs as indices into its node names. A
change to how the table is held must leave every document byte unchanged.
"""

import hashlib
import json

import pytest

from conftest import dead_link_build, make_chain, make_topology
from entflow.hypergraph import (
    FidelityGrid,
    build_pruned_hypergraph,
    build_standard_hypergraph,
    synthesize_multipath,
)
from entflow.orchestrator import PlannerConfig, outer_loop_update, save_cache
from entflow.physics import DEFAULT_NOISE
from entflow.topology import Edge, Topology


def _synthesis():
    topo = make_topology([("s", "a", 40.0), ("a", "d", 50.0), ("a", "b", 30.0),
                          ("b", "d", 35.0), ("s", "c", 60.0), ("c", "d", 45.0)])
    grid = FidelityGrid.uniform(30)
    return synthesize_multipath([build_pruned_hypergraph(topo.path_from_nodes(list(p)), grid,
                                                         DEFAULT_NOISE)
                                 for p in ("sad", "sabd", "scd")])


BUILDS = {
    "standard": lambda: build_standard_hypergraph(make_chain([60.0, 80.0, 45.0]),
                                                  FidelityGrid.uniform(12), DEFAULT_NOISE),
    "pruned": lambda: build_pruned_hypergraph(make_chain([40.0, 90.0, 60.0, 30.0]),
                                              FidelityGrid.uniform(40), DEFAULT_NOISE),
    "synthesis": _synthesis,
    "dead-link": dead_link_build,
}

DOCUMENT_SHA256 = {
    "standard": "78eb1b1623b32db2d9ef99dee66f14459d1ca8ecb602d14374fab8ddccd69619",
    "pruned": "b211e9db4173dbfd071a0ca1c205a0830e11194aaa33cc6bad671bed26b2e969",
    "synthesis": "2c3f0ba675723e5e153c7a4003926175028975e2f088ae483d60ef225c641080",
    "dead-link": "4350aac87dbaae1f31a37f21f4cb667363cde404b1713f378f102e8ebe20da60",
}

CACHE_SHA256 = "da9521dd773b325351fe3487f8d197b682ecb2e90684e008a2d3b4391a8aae23"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_document_bytes_are_pinned(name):
    assert _sha256(json.dumps(BUILDS[name]().to_json())) == DOCUMENT_SHA256[name]


def test_planner_cache_text_is_pinned():
    # the two node-disjoint routes s-a-d and s-b-d, two demands
    topo = Topology(
        ["s", "a", "b", "d"],
        [Edge(u="s", v="a", length_km=50.0), Edge(u="a", v="d", length_km=50.0),
         Edge(u="s", v="b", length_km=70.0), Edge(u="b", v="d", length_km=70.0)],
    )
    config = PlannerConfig(n_candidates=4, k_keep=2, grid=FidelityGrid.uniform(20))
    assert _sha256(save_cache(outer_loop_update(topo, [("s", "d"), ("a", "b")], config))) == \
        CACHE_SHA256
