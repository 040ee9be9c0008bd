"""Regenerate perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

Writes the planner answers (one per demand, the same for every seed)
and the lattice answers of chains 0-5 of seeds 0-19.
Run it only on a commit whose answers are trusted: the benchmark checks
every later commit against this file.
"""

from __future__ import annotations

import json
import os
import sys

from run import use_checkout_src

SEEDS = range(20)
CHAINS = 6  # per seed; an untraced 15-second run gets through 3-6


def planner_reference() -> dict:
    from entflow import orchestrator

    import fixtures

    topo = fixtures.planner_topology()
    demands = fixtures.planner_demands(topo)
    cache = orchestrator.outer_loop_update(topo, demands, fixtures.planner_config())
    answers = {}
    for s, d in demands:
        entry = cache.entries[(s, d)]
        answers[fixtures.demand_key(s, d)] = {
            "capacity": orchestrator.inner_loop_request(cache, s, d).scheme.capacity,
            "estimates": [[score, list(nodes)] for score, nodes in entry.estimates],
            "edges": len(entry.hypergraph.edges) if entry.hypergraph else 0,
        }
    return {"demands": [fixtures.demand_key(s, d) for s, d in demands], "answers": answers}


def lattice_reference(seed: int, chains: int) -> list[dict]:
    from entflow import hypergraph, lp, strategies
    from entflow.physics import DEFAULT_NOISE

    import fixtures

    grid = fixtures.lattice_grid()
    out = []
    for index in range(chains):
        path, points = fixtures.lattice_chain(seed, index)
        std = hypergraph.build_standard_hypergraph(path, grid, DEFAULT_NOISE)
        pruned = hypergraph.build_pruned_hypergraph(path, grid, DEFAULT_NOISE)
        doc = {}
        for name, hg in (("ec_lp", std), ("ec_dp", pruned)):
            sol = lp.solve_lp(lp.formulate_lp(hg, "ensemble-capacity"))
            doc[name] = lp.extract_scheme(hg, sol).capacity
        doc["points"] = []
        for f_lb in points:
            sol = lp.solve_lp(lp.formulate_lp(std, "end-rate", f_lb=f_lb))
            doc["points"].append([
                f_lb,
                lp.extract_scheme(std, sol).egr,
                strategies.run_rate_dp(path, grid, f_lb, DEFAULT_NOISE).egr,
            ])
        out.append(doc)
    return out


def main() -> int:
    use_checkout_src()
    import fixtures

    doc = {"planner": planner_reference(), "lattice": {}}
    for seed in SEEDS:
        doc["lattice"][str(seed)] = lattice_reference(seed, CHAINS)
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    with open(fixtures.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(fixtures.REFERENCE_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
