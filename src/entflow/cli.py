"""Command-line harness.

Commands:
  topo gen | topo validate
  run benchmark|sweep-flb|sweep-resolution|scale-path|scale-network|intro-toy
  cache build | cache solve
  oracle

Each command's text goes to --out FILE, else to stdout (--out - too).
--no-timings nulls run's ``experiments.TIME_COLUMNS`` in each report row;
cache solve drops solver_time_s, and oracle server_time_s and solver_time_s.

Each option sets the config field or function parameter it names, and an
option not given takes the default of the config or function it sets.
The only defaults held here are topo gen's seed 0 and f0 and the oracle's
grid size, its largest grid of 6 values. Exit codes: 0 success, 2
configuration error, 3 completed with skipped instances. Exit 2 follows
an empty list option, a count or --seed ``ExperimentConfig`` refuses,
--f-lb outside (0.5, 1), an oracle --grid-size above 6 or --max-ensembles
below 1, a run option its kind does not read (``experiments.RUNNERS``),
and --f0 on cache build or oracle, which read each link's f0 from their
topology file.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields

from .experiments import (RUNNERS, TIME_COLUMNS, ExperimentConfig, emit_report, run_experiment,
                          settings_read)
from .hypergraph import FidelityGrid
from .orchestrator import (
    PlannerConfig,
    inner_loop_request,
    load_cache,
    outer_loop_update,
    save_cache,
)
from .physics import DEFAULT_NOISE, PURIFY_MODELS, NoiseParams
from .strategies import ORACLE_MAX_GRID, brute_force_oracle
from .topology import generate_gabriel, k_shortest_paths, read_topology_file

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTANCE_FAILURES = 3

_NOISE_FIELDS = tuple(f.name for f in fields(NoiseParams))
# every command with --grid-size takes these; f0 is each link's, which cache build
# and the oracle read from their topology file, so only run takes --f0
_GATE_FIELDS = tuple(name for name in _NOISE_FIELDS if name != "f0")


class _Parser(argparse.ArgumentParser):
    """A parser that, like each of its subparsers, leaves an option not given absent."""

    def __init__(self, **kwargs) -> None:
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _take(given: dict, names) -> dict:
    """Remove the options among ``names`` from ``given`` and return them."""
    return {name: given.pop(name) for name in names if name in given}


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


def _parse_ints(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}") from None


def _parse_names(value: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in value.split(",") if s.strip())


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-size", type=int)
    parser.add_argument("--purify-model", choices=PURIFY_MODELS)
    parser.add_argument("--out")
    for name in _GATE_FIELDS:
        parser.add_argument(f"--{name}", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entflow",
        description="Entanglement distribution planning over repeater networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topo", help="topology generation and validation")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)
    gen = topo_sub.add_parser("gen", help="generate a random Gabriel-graph topology")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--bbox-km", type=float)
    gen.add_argument("--distance-range", dest="distance_range_km", metavar="DISTANCE_RANGE",
                     type=_parse_range)
    gen.add_argument("--f0", type=float, default=DEFAULT_NOISE.f0)
    gen.add_argument("--out")
    val = topo_sub.add_parser("validate", help="parse and validate a topology file")
    val.add_argument("--topology", required=True)

    run = sub.add_parser("run", help="run an experiment and emit a report")
    run.add_argument("kind", choices=tuple(RUNNERS))
    run.add_argument("--topology", dest="topology_path", metavar="TOPOLOGY")
    run.add_argument("--topology-nodes", type=int,
                     help=f"default {ExperimentConfig.topology_nodes}")
    run.add_argument("--strategies", type=_parse_names)
    run.add_argument("--format", choices=("json", "csv"))
    run.add_argument("--pairs", dest="pairs_per_length", metavar="PAIRS", type=int)
    run.add_argument("--path-lengths", type=_parse_ints, help="comma-separated node counts")
    run.add_argument("--grid-sizes", type=_parse_ints, help="comma-separated grid sizes")
    run.add_argument("--repetitions", type=int)
    run.add_argument("--chain-nodes", type=int)
    run.add_argument("--no-timings", dest="record_timings", action="store_false",
                     help="omit wall-clock columns for reproducible reports")
    run.add_argument("--seed", type=int)
    run.add_argument("--f-lb", type=float)
    _add_common_flags(run)
    run.add_argument("--f0", type=float)
    parser.run_flags = {a.dest: a.option_strings[0] for a in run._actions if a.option_strings}

    cache = sub.add_parser("cache", help="two-loop planner cache operations")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cb = cache_sub.add_parser("build", help="outer loop: build and store the cache")
    cb.add_argument("--topology", required=True)
    cb.add_argument("--demands", required=True,
                    help="semicolon-separated list of s,d pairs")
    cb.add_argument("--n-candidates", type=int)
    cb.add_argument("--k-keep", type=int)
    cb.add_argument("--latency-budget", dest="latency_budget_s", metavar="LATENCY_BUDGET",
                    type=float)
    _add_common_flags(cb)
    cs = cache_sub.add_parser("solve", help="inner loop: answer one demand")
    cs.add_argument("--cache", required=True)
    cs.add_argument("--demand", type=_parse_demand, required=True)
    cs.add_argument("--no-timings", dest="record_timings", action="store_false",
                    help="omit solver_time_s, so the same request prints the same bytes")
    cs.add_argument("--out")

    orc = sub.add_parser("oracle", help="exhaustive check on a tiny demand")
    orc.add_argument("--topology", required=True)
    orc.add_argument("--demand", type=_parse_demand, required=True)
    orc.add_argument("--max-purify-rounds", type=int)
    orc.add_argument("--max-ensembles", type=int)
    orc.add_argument("--no-timings", dest="record_timings", action="store_false",
                     help="omit server_time_s and solver_time_s, so the same run prints the "
                          "same bytes")
    _add_common_flags(orc)
    orc.set_defaults(grid_size=ORACLE_MAX_GRID)

    return parser


def _cmd_topo(given: dict, parser: argparse.ArgumentParser) -> tuple[str, int]:
    if given.pop("topo_command") == "validate":
        topo = read_topology_file(given["topology"])
        return f"ok: {len(topo.nodes)} nodes, {len(topo.edges)} edges\n", EXIT_OK
    topo = generate_gabriel(given.pop("nodes"), **given)
    doc = {
        "defaults": {"f0": given["f0"]},
        "nodes": list(topo.nodes),
        "edges": [{"u": e.u, "v": e.v, "length_km": e.length_km} for e in topo.edges],
    }
    return json.dumps(doc, indent=2) + "\n", EXIT_OK


def _cmd_run(given: dict, parser: argparse.ArgumentParser) -> tuple[str, int]:
    report_format = _take(given, ("format",))
    run, reads = settings_read(given["kind"], given.get("topology_path"))
    for dest, flag in parser.run_flags.items():  # in the parser's order
        if dest in given and dest not in reads:
            raise ValueError(f"run {run} takes no {flag}")
    noise = NoiseParams(**_take(given, _NOISE_FIELDS))
    report = run_experiment(ExperimentConfig(**given, noise=noise))
    return (emit_report(report, **report_format),
            EXIT_INSTANCE_FAILURES if report.failures else EXIT_OK)


def _untimed(doc: dict, timed: bool) -> dict:
    """``doc`` as it is when ``timed``, else without the clock fields ``TIME_COLUMNS`` names."""
    return doc if timed else {key: value for key, value in doc.items() if key not in TIME_COLUMNS}


def _cmd_cache(given: dict, parser: argparse.ArgumentParser) -> tuple[str, int]:
    if given.pop("cache_command") == "build":
        topo = read_topology_file(given.pop("topology"))
        demands = [_parse_demand(part) for part in given.pop("demands").split(";") if part]
        if "grid_size" in given:
            given["grid"] = FidelityGrid.uniform(given.pop("grid_size"))
        noise = NoiseParams(**_take(given, _GATE_FIELDS))
        cache = outer_loop_update(topo, demands, PlannerConfig(**given, noise=noise))
        return save_cache(cache) + "\n", EXIT_OK
    with open(given["cache"]) as fh:
        cache = load_cache(fh.read())
    s, d = given["demand"]
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
    return json.dumps(_untimed(doc, given.get("record_timings", True))) + "\n", EXIT_OK


def _cmd_oracle(given: dict, parser: argparse.ArgumentParser) -> tuple[str | None, int]:
    topo = read_topology_file(given.pop("topology"))
    s, d = given.pop("demand")
    timed = given.pop("record_timings", True)
    paths = k_shortest_paths(topo, s, d, 1, weight="hops")
    if not paths:
        print(f"no path between {s} and {d}", file=sys.stderr)
        return None, EXIT_CONFIG
    grid = FidelityGrid.uniform(given.pop("grid_size"))
    noise = NoiseParams(**_take(given, _GATE_FIELDS))
    doc = brute_force_oracle(paths[0], grid, noise, **given).to_json()
    return json.dumps(_untimed(doc, timed)) + "\n", EXIT_OK


_COMMANDS = {"topo": _cmd_topo, "run": _cmd_run, "cache": _cmd_cache, "oracle": _cmd_oracle}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        parser = build_parser()
        given = vars(parser.parse_args(argv))
        out = given.pop("out", None)
        text, code = _COMMANDS[given.pop("command")](given, parser)
        if text is not None:
            _write_out(text, out)
        return code
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
