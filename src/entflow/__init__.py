"""Entanglement distribution planning over quantum repeater networks."""

from .capacity import EnsembleSpec, ensemble_capacity, pair_capacity, pair_capacity_bounds
from .hypergraph import (
    FidelityGrid,
    Hypergraph,
    build_pruned_hypergraph,
    build_standard_hypergraph,
    synthesize_multipath,
)
from .lp import (
    DistributionScheme,
    LPProblem,
    LPSolution,
    export_lp,
    extract_scheme,
    formulate_lp,
    parse_lp,
    solve_lp,
)
from .orchestrator import (
    Cache,
    PlannerConfig,
    inner_loop_request,
    load_cache,
    outer_loop_update,
    save_cache,
)
from .physics import NoiseParams, chain_swap_fidelity, purify, swap_fidelity
from .strategies import (
    StrategyResult,
    brute_force_oracle,
    run_rate_dp,
    run_strategy,
)
from .topology import (
    Edge,
    Path,
    Topology,
    generate_gabriel,
    k_shortest_paths,
    link_egr,
    load_gml,
    load_topology,
)

__version__ = "0.1.0"

__all__ = [
    "Cache",
    "DistributionScheme",
    "Edge",
    "EnsembleSpec",
    "FidelityGrid",
    "Hypergraph",
    "LPProblem",
    "LPSolution",
    "NoiseParams",
    "Path",
    "PlannerConfig",
    "StrategyResult",
    "Topology",
    "brute_force_oracle",
    "build_pruned_hypergraph",
    "build_standard_hypergraph",
    "chain_swap_fidelity",
    "ensemble_capacity",
    "export_lp",
    "extract_scheme",
    "formulate_lp",
    "generate_gabriel",
    "inner_loop_request",
    "k_shortest_paths",
    "link_egr",
    "load_cache",
    "load_gml",
    "load_topology",
    "outer_loop_update",
    "pair_capacity",
    "pair_capacity_bounds",
    "parse_lp",
    "purify",
    "run_rate_dp",
    "run_strategy",
    "save_cache",
    "solve_lp",
    "swap_fidelity",
    "synthesize_multipath",
]
