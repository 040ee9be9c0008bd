"""Benchmark inputs and their reference answers.

The planner fixture (inner-serve and outer-refresh) is the acceptance
criterion-8 shape and is the same for every seed: a 40-node Gabriel
graph and 12 demands whose hop-shortest paths have 5, 6 or 7 nodes, four
each. The seed orders the requests and the refreshes. Drawing a fresh
graph per seed moved one 12-demand outer pass between 5.3 s and 13.4 s
across seeds 2-6, a spread no admissible regression bound can absorb.

The lattice fixture is drawn from the seed: 6-node chains with link
lengths in 20-150 km and f_lb points from the criterion-6 sweep. The
standard lattice has the same size for every chain, so seeds change the
numbers solved, not the amount of work.
"""

from __future__ import annotations

import json
import os

import numpy as np

from entflow import FidelityGrid, PlannerConfig, Topology, generate_gabriel
from entflow.topology import Edge

TOPOLOGY_NODES = 40
TOPOLOGY_SEED = 2
DEMAND_SEED = 8
DEMAND_PATH_NODES = (5, 6, 7)
DEMANDS_PER_LENGTH = 4

CHAIN_NODES = 6
CHAIN_KM = (20.0, 150.0)
CHAIN_F0 = 0.98
LATTICE_GRID = 60
POINTS_PER_CHAIN = 6
# the criterion-6 sweep values from 0.815 to 0.95
F_LB_CHOICES = tuple(round(0.815 + 0.005 * i, 10) for i in range(28))

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def planner_config() -> PlannerConfig:
    return PlannerConfig(n_candidates=6, k_keep=3, grid=FidelityGrid.uniform(100))


def planner_topology() -> Topology:
    return generate_gabriel(TOPOLOGY_NODES, seed=TOPOLOGY_SEED)


def _hop_levels(topology: Topology, source: str, depth: int) -> dict[str, int]:
    level = {source: 0}
    frontier = [source]
    for hops in range(1, depth + 1):
        nxt = []
        for u in frontier:
            for v in sorted(topology.neighbors(u)):
                if v not in level:
                    level[v] = hops
                    nxt.append(v)
        frontier = nxt
    return level


def planner_demands(topology: Topology) -> list[tuple[str, str]]:
    """Four distinct pairs per hop-shortest path size, fixed by DEMAND_SEED."""
    rng = np.random.default_rng(DEMAND_SEED)
    demands: list[tuple[str, str]] = []
    for nodes in DEMAND_PATH_NODES:
        pairs = []
        for s in topology.nodes:
            level = _hop_levels(topology, s, nodes - 1)
            pairs.extend((s, d) for d, hops in sorted(level.items())
                         if hops == nodes - 1 and s < d)
        picks = rng.choice(len(pairs), size=DEMANDS_PER_LENGTH, replace=False)
        demands.extend(pairs[int(i)] for i in sorted(picks))
    return demands


def request_order(demands: list[tuple[str, str]], seed: int, round_: int) -> list[tuple[str, str]]:
    """Seeded permutation of the demands for one round-robin round or pass."""
    rng = np.random.default_rng([seed, round_])
    return [demands[int(i)] for i in rng.permutation(len(demands))]


def lattice_grid() -> FidelityGrid:
    return FidelityGrid.uniform(LATTICE_GRID)


def lattice_chain(seed: int, index: int):
    """(path, f_lb points) of chain ``index`` for ``seed``."""
    rng = np.random.default_rng([seed, index])
    lengths = rng.uniform(*CHAIN_KM, size=CHAIN_NODES - 1)
    names = [f"c{index}_{i}" for i in range(CHAIN_NODES)]
    edges = [
        Edge(u=names[i], v=names[i + 1], length_km=float(km), f0=CHAIN_F0)
        for i, km in enumerate(lengths)
    ]
    points = sorted(
        F_LB_CHOICES[int(i)]
        for i in rng.choice(len(F_LB_CHOICES), size=POINTS_PER_CHAIN, replace=False)
    )
    return Topology(names, edges).path_from_nodes(names), points


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def demand_key(s: str, d: str) -> str:
    return f"{s}|{d}"


def close(value: float, reference: float, rel: float = 1e-6) -> bool:
    """Criterion-10 tolerance: absolute gap within rel * max(1, |reference|)."""
    return abs(value - reference) <= rel * max(1.0, abs(reference))
