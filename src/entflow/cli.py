"""Command-line harness.

Commands:
  topo gen | topo validate
  run benchmark|sweep-flb|sweep-resolution|scale-path|scale-network|intro-toy
  cache build | cache solve
  oracle

Exit codes: 0 success, 2 configuration error, 3 completed with skipped
instances. --seed is taken by run and topo gen, --f-lb by run only;
run, cache build and oracle take --grid-size and --purify-model. The
oracle's --grid-size defaults to its largest grid, 6 values, and a larger
value exits 2, as do --max-ensembles below 1, --f-lb outside (0.5, 1) and
--topology, --topology-nodes or --path-lengths on any run kind but
benchmark, the only one that reads them.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .experiments import EXPERIMENT_KINDS, ExperimentConfig, emit_report, run_experiment
from .hypergraph import FidelityGrid
from .orchestrator import (
    PlannerConfig,
    inner_loop_request,
    load_cache,
    outer_loop_update,
    save_cache,
)
from .physics import DEFAULT_NOISE, PURIFY_MODELS, NoiseParams
from .strategies import ORACLE_MAX_GRID, STRATEGY_NAMES, brute_force_oracle
from .topology import generate_gabriel, k_shortest_paths, read_topology_file

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTANCE_FAILURES = 3


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_demand(value: str) -> tuple[str, str]:
    parts = value.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("demand must be 's,d'")
    return parts[0].strip(), parts[1].strip()


def _parse_range(value: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("range must be 'lo,hi'")
    return float(parts[0]), float(parts[1])


def _noise_from_args(args) -> NoiseParams:
    return NoiseParams(p1=args.p1, p2=args.p2, eta=args.eta, f0=args.f0)


def _add_noise_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p1", type=float, default=DEFAULT_NOISE.p1)
    parser.add_argument("--p2", type=float, default=DEFAULT_NOISE.p2)
    parser.add_argument("--eta", type=float, default=DEFAULT_NOISE.eta)
    parser.add_argument("--f0", type=float, default=DEFAULT_NOISE.f0)


def _add_seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-size", type=int, default=100)
    parser.add_argument("--purify-model", choices=PURIFY_MODELS, default="ideal-dejmps")
    parser.add_argument("--out", default=None)
    _add_noise_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entflow",
        description="Entanglement distribution planning over repeater networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topo", help="topology generation and validation")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)
    gen = topo_sub.add_parser("gen", help="generate a random Gabriel-graph topology")
    gen.add_argument("--nodes", type=int, required=True)
    _add_seed_flag(gen)
    gen.add_argument("--bbox-km", type=float, default=500.0)
    gen.add_argument("--distance-range", type=_parse_range, default=None)
    gen.add_argument("--f0", type=float, default=DEFAULT_NOISE.f0)
    gen.add_argument("--out", default=None)
    val = topo_sub.add_parser("validate", help="parse and validate a topology file")
    val.add_argument("--topology", required=True)

    run = sub.add_parser("run", help="run an experiment and emit a report")
    run.add_argument("kind", choices=EXPERIMENT_KINDS)
    run.add_argument("--topology", default=None)
    run.add_argument("--topology-nodes", type=int,
                     help=f"default {ExperimentConfig.topology_nodes}")
    run.add_argument("--strategies", default=",".join(STRATEGY_NAMES))
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--path-lengths", default=None, help="comma-separated node counts")
    run.add_argument("--grid-sizes", default=None, help="comma-separated grid sizes")
    run.add_argument("--repetitions", type=int, default=5)
    run.add_argument("--chain-nodes", type=int, default=6)
    run.add_argument("--no-timings", action="store_true",
                     help="omit wall-clock columns for reproducible reports")
    _add_seed_flag(run)
    run.add_argument("--f-lb", type=float, default=0.87)
    _add_common_flags(run)

    cache = sub.add_parser("cache", help="two-loop planner cache operations")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cb = cache_sub.add_parser("build", help="outer loop: build and store the cache")
    cb.add_argument("--topology", required=True)
    cb.add_argument("--demands", required=True,
                    help="semicolon-separated list of s,d pairs")
    cb.add_argument("--n-candidates", type=int, default=6)
    cb.add_argument("--k-keep", type=int, default=3)
    cb.add_argument("--latency-budget", type=float, default=1.0)
    _add_common_flags(cb)
    cs = cache_sub.add_parser("solve", help="inner loop: answer one demand")
    cs.add_argument("--cache", required=True)
    cs.add_argument("--demand", type=_parse_demand, required=True)
    cs.add_argument("--out", default=None)

    orc = sub.add_parser("oracle", help="exhaustive check on a tiny demand")
    orc.add_argument("--topology", required=True)
    orc.add_argument("--demand", type=_parse_demand, required=True)
    orc.add_argument("--max-purify-rounds", type=int, default=2)
    orc.add_argument("--max-ensembles", type=int, default=None)
    _add_common_flags(orc)
    orc.set_defaults(grid_size=ORACLE_MAX_GRID)

    return parser


def _cmd_topo(args) -> int:
    if args.topo_command == "gen":
        topo = generate_gabriel(
            args.nodes, args.seed, bbox_km=args.bbox_km,
            distance_range_km=args.distance_range, f0=args.f0,
        )
        doc = {
            "defaults": {"f0": args.f0},
            "nodes": list(topo.nodes),
            "edges": [
                {"u": e.u, "v": e.v, "length_km": e.length_km}
                for e in topo.edges
            ],
        }
        _write_out(json.dumps(doc, indent=2) + "\n", args.out)
        return EXIT_OK
    topo = read_topology_file(args.topology)
    print(f"ok: {len(topo.nodes)} nodes, {len(topo.edges)} edges")
    return EXIT_OK


def _cmd_run(args) -> int:
    for option, reader in (("topology", "benchmark"), ("topology_nodes", "benchmark"),
                           ("path_lengths", "benchmark"), ("grid_sizes", "sweep-resolution")):
        if args.kind != reader and getattr(args, option) is not None:
            raise ValueError(f"run {args.kind} takes no --{option.replace('_', '-')}")
    kwargs = {}
    if args.topology_nodes is not None:
        kwargs["topology_nodes"] = args.topology_nodes
    if args.path_lengths:
        kwargs["path_lengths"] = tuple(int(x) for x in args.path_lengths.split(","))
    if args.grid_sizes:
        kwargs["grid_sizes"] = tuple(int(x) for x in args.grid_sizes.split(","))
    config = ExperimentConfig(
        kind=args.kind,
        seed=args.seed,
        topology_path=args.topology,
        pairs_per_length=args.pairs,
        grid_size=args.grid_size,
        f_lb=args.f_lb,
        strategies=tuple(s.strip() for s in args.strategies.split(",") if s.strip()),
        noise=_noise_from_args(args),
        purify_model=args.purify_model,
        record_timings=not args.no_timings,
        chain_nodes=args.chain_nodes,
        repetitions=args.repetitions,
        **kwargs,
    )
    report = run_experiment(config)
    _write_out(emit_report(report, args.format), args.out)
    return EXIT_INSTANCE_FAILURES if report.failures else EXIT_OK


def _cmd_cache(args) -> int:
    if args.cache_command == "build":
        topo = read_topology_file(args.topology)
        demands = [_parse_demand(part) for part in args.demands.split(";") if part]
        config = PlannerConfig(
            n_candidates=args.n_candidates,
            k_keep=args.k_keep,
            grid=FidelityGrid.uniform(args.grid_size),
            noise=_noise_from_args(args),
            purify_model=args.purify_model,
            latency_budget_s=args.latency_budget,
        )
        cache = outer_loop_update(topo, demands, config)
        _write_out(save_cache(cache) + "\n", args.out)
        return EXIT_OK
    with open(args.cache) as fh:
        cache = load_cache(fh.read())
    s, d = args.demand
    result = inner_loop_request(cache, s, d)
    doc = {
        "s": s,
        "d": d,
        "cached": result.cached,
        "over_budget": result.over_budget,
        "diagnostic": result.diagnostic,
        "solver_time_s": result.solver_time_s,
        "scheme": result.scheme.to_json(),
    }
    _write_out(json.dumps(doc) + "\n", args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    topo = read_topology_file(args.topology)
    s, d = args.demand
    paths = k_shortest_paths(topo, s, d, 1, weight="hops")
    if not paths:
        print(f"no path between {s} and {d}", file=sys.stderr)
        return EXIT_CONFIG
    result = brute_force_oracle(
        paths[0], FidelityGrid.uniform(args.grid_size), _noise_from_args(args),
        max_purify_rounds=args.max_purify_rounds,
        max_ensembles=args.max_ensembles,
        purify_model=args.purify_model,
    )
    _write_out(json.dumps(result.to_json()) + "\n", args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        if args.command == "topo":
            return _cmd_topo(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        raise AssertionError("unreachable")
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
