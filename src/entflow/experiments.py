"""Seeded experiment harness and machine-readable reports.

Experiment kinds:

* ``benchmark``        -- all strategies over sampled node pairs grouped
                          by shortest-path node count.
* ``sweep-flb``        -- capacity of each strategy across a fidelity
                          lower-bound sweep on fixture chains.
* ``sweep-resolution`` -- builder size/time signatures across grid sizes.
* ``scale-path``       -- pruned build + solve times across path lengths.
* ``scale-network``    -- outer/inner loop times across topology sizes.
* ``intro-toy``        -- a 4-link chain solved under three objectives
                          (max capacity, max fidelity, max rate).

Reports are deterministic under a fixed config seed; timing columns are
populated only when ``record_timings`` is set (reproducibility checks
compare reports with timings off).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .hypergraph import (
    DEFAULT_GRID_SIZE,
    FidelityGrid,
    build_pruned_hypergraph,
    build_standard_hypergraph,
)
from .orchestrator import PlannerConfig, inner_loop_request, outer_loop_update
from .physics import DEFAULT_NOISE, NoiseParams
from .strategies import (
    DEFAULT_F_LB,
    LP_STRATEGIES,
    STRATEGY_NAMES,
    StrategyResult,
    _lp_strategy,
    run_rate_dp,
    run_strategy,
)
from .topology import (
    DEFAULT_BBOX_KM,
    Edge,
    Path,
    Topology,
    generate_gabriel,
    k_shortest_paths,
    read_topology_file,
)

log = logging.getLogger(__name__)

EXPERIMENT_KINDS = (
    "benchmark",
    "sweep-flb",
    "sweep-resolution",
    "scale-path",
    "scale-network",
    "intro-toy",
)

COLUMNS = (
    "experiment",
    "fixture",
    "path_length",
    "s",
    "d",
    "strategy",
    "grid_size",
    "f_lb",
    "builder",
    "vertices",
    "edges",
    "egr",
    "fidelity",
    "capacity",
    "swaps",
    "purifications",
    "pairs",
    "server_time_s",
    "solver_time_s",
)

INTRO_TOY_F0 = 0.95
INTRO_TOY_LINKS = 4
INTRO_TOY_LINK_KM = 70.0
INTRO_TOY_MAX_FID_LB = 0.95
INTRO_TOY_MIN_FID_LB = 0.51


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 0
    topology_path: str | None = None
    topology_nodes: int = 100
    pairs_per_length: int = 10
    path_lengths: tuple[int, ...] = (3, 5, 7, 10)
    grid_size: int = DEFAULT_GRID_SIZE
    grid_sizes: tuple[int, ...] = (10, 20, 40, 80)
    f_lb: float = DEFAULT_F_LB
    f_lb_start: float = 0.815
    f_lb_stop: float = 0.995
    f_lb_step: float = 0.005
    strategies: tuple[str, ...] = STRATEGY_NAMES
    noise: NoiseParams = DEFAULT_NOISE
    purify_model: str = "ideal-dejmps"
    record_timings: bool = True
    chain_nodes: int = 6
    repetitions: int = 5
    network_sizes: tuple[int, ...] = (30, 60, 100)
    scale_path_lengths: tuple[int, ...] = tuple(range(2, 11))
    distance_range_km: tuple[float, float] = (20.0, 150.0)
    bbox_km: float = DEFAULT_BBOX_KM

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for name in ("path_lengths", "grid_sizes", "strategies", "network_sizes"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        for s in self.strategies:
            if s not in STRATEGY_NAMES:
                raise ValueError(f"unknown strategy {s!r}")
        if self.f_lb_step <= 0 or self.f_lb_stop < self.f_lb_start:
            raise ValueError("invalid f_lb sweep range")
        if not 0.5 < self.f_lb < 1.0:  # the range rate-dp requires
            raise ValueError(f"f_lb must be in (0.5, 1), got {self.f_lb}")
        # counts that select nothing are configuration errors, not failed instances
        for name, least in (("chain_nodes", 2), ("pairs_per_length", 1), ("repetitions", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if min(self.path_lengths) < 2:
            raise ValueError(f"path_lengths must each be >= 2, got {self.path_lengths}")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    config: ExperimentConfig
    rows: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    failures: int = 0

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "columns": list(COLUMNS),
            "rows": self.rows,
            "aggregates": self.aggregates,
            "failures": self.failures,
        }


def emit_report(report: Report, format: str = "json") -> str:
    """Serialize a report; CSV keeps 6 significant digits, JSON is exact."""
    if format == "json":
        return json.dumps(report.to_json(), sort_keys=True, allow_nan=False) + "\n"
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in report.rows:
        out = []
        for col in COLUMNS:
            value = row.get(col)
            if value is None or (isinstance(value, float) and math.isnan(value)):
                out.append("")
            elif isinstance(value, float):
                out.append(format_float(value))
            else:
                out.append(str(value))
        writer.writerow(out)
    return buf.getvalue()


def format_float(value: float) -> str:
    return f"{value:.6g}"


@contextmanager
def _instance(report: Report, name: str) -> Iterator[None]:
    """Run the block as one instance: an exception it raises is logged with
    its type, counted in ``report.failures`` and not raised, so the run goes on."""
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - failed instances are counted
        log.warning("%s failed: %s: %s", name, type(exc).__name__, exc)
        report.failures += 1


def _row(**kwargs) -> dict:
    row = {col: None for col in COLUMNS}
    for key, value in kwargs.items():
        if key not in row:
            raise KeyError(f"unknown report column {key!r}")
        row[key] = value
    return row


def _strategy_row(
    config: ExperimentConfig, result: StrategyResult, **extra
) -> dict:
    sc = result.scheme
    return _row(
        experiment=config.kind,
        strategy=result.strategy,
        grid_size=result.grid_size,
        f_lb=result.f_lb,
        egr=sc.egr,
        fidelity=sc.fidelity,
        capacity=sc.capacity,
        swaps=sc.swaps,
        purifications=sc.purifications,
        pairs=sc.pairs,
        server_time_s=result.server_time_s if config.record_timings else None,
        solver_time_s=result.solver_time_s if config.record_timings else None,
        **extra,
    )


def _load_or_generate_topology(config: ExperimentConfig, seed: int) -> Topology:
    if config.topology_path:
        return read_topology_file(config.topology_path)
    return generate_gabriel(
        config.topology_nodes,
        seed,
        bbox_km=config.bbox_km,
        distance_range_km=config.distance_range_km,
        f0=config.noise.f0,
    )


def _chain(
    lengths_km: list[float], f0: float, name: str = "c"
) -> Path:
    nodes = [f"{name}{i}" for i in range(len(lengths_km) + 1)]
    edges = [
        Edge(u=nodes[i], v=nodes[i + 1], length_km=lengths_km[i], f0=f0)
        for i in range(len(lengths_km))
    ]
    topo = Topology(nodes, edges)
    return topo.path_from_nodes(nodes)


def _sample_pairs(
    topology: Topology, path_nodes: int, count: int, rng: np.random.Generator
) -> list[tuple[str, str]]:
    """Node pairs whose hop-shortest path has exactly ``path_nodes`` nodes."""
    hops_wanted = path_nodes - 1
    by_source: dict[str, list[str]] = {}
    for s in topology.nodes:
        # BFS levels
        level = {s: 0}
        frontier = [s]
        depth = 0
        while frontier and depth < hops_wanted:
            depth += 1
            nxt = []
            for u in frontier:
                for v in topology.neighbors(u):
                    if v not in level:
                        level[v] = depth
                        nxt.append(v)
            frontier = nxt
        exact = sorted(v for v, dd in level.items() if dd == hops_wanted)
        if exact:
            by_source[s] = exact
    sources = sorted(by_source)
    if not sources:
        return []
    pairs: list[tuple[str, str]] = []
    seen = set()
    attempts = 0
    while len(pairs) < count and attempts < count * 50:
        attempts += 1
        s = sources[int(rng.integers(len(sources)))]
        targets = by_source[s]
        d = targets[int(rng.integers(len(targets)))]
        if (s, d) in seen or (d, s) in seen:
            continue
        seen.add((s, d))
        pairs.append((s, d))
    return pairs


def run_experiment(config: ExperimentConfig) -> Report:
    runner = {
        "benchmark": _run_benchmark,
        "sweep-flb": _run_sweep_flb,
        "sweep-resolution": _run_sweep_resolution,
        "scale-path": _run_scale_path,
        "scale-network": _run_scale_network,
        "intro-toy": _run_intro_toy,
    }[config.kind]
    return runner(config)


def _run_benchmark(config: ExperimentConfig) -> Report:
    report = Report(config=config)
    topo = _load_or_generate_topology(config, config.seed)
    grid = FidelityGrid.uniform(config.grid_size)
    for length in config.path_lengths:
        rng = np.random.default_rng([config.seed, length])
        for s, d in _sample_pairs(topo, length, config.pairs_per_length, rng):
            with _instance(report, f"benchmark instance ({s}, {d})"):
                path = k_shortest_paths(topo, s, d, 1, weight="hops")[0]
                results = [
                    run_strategy(
                        name, path, grid, config.f_lb, config.noise, config.purify_model
                    )
                    for name in config.strategies
                ]
                report.rows.extend(
                    [_strategy_row(config, result, s=s, d=d, path_length=length)
                     for result in results]
                )

    # aggregate mean capacity per (path length, strategy) and improvement
    # relative to the rate-dp mean
    means: dict[tuple[int, str], float] = {}
    for length in config.path_lengths:
        for name in config.strategies:
            caps = [
                r["capacity"]
                for r in report.rows
                if r["path_length"] == length and r["strategy"] == name
            ]
            if caps:
                means[(length, name)] = float(np.mean(caps))
    agg = {}
    for (length, name), mean in sorted(means.items()):
        entry = {"mean_capacity": mean}
        base = means.get((length, "rate-dp"))
        if base and base > 0:
            entry["improvement_vs_rate_dp"] = (mean - base) / base
        agg[f"{length}/{name}"] = entry
    report.aggregates = agg
    return report


def _f_lb_values(config: ExperimentConfig) -> list[float]:
    out = []
    value = config.f_lb_start
    while value <= config.f_lb_stop + 1e-12:
        out.append(round(value, 10))
        value += config.f_lb_step
    return out


def _run_sweep_flb(config: ExperimentConfig) -> Report:
    report = Report(config=config)
    rng = np.random.default_rng([config.seed, 1])
    lo, hi = config.distance_range_km
    sweep = _f_lb_values(config)
    for fixture in range(config.repetitions):
        lengths = [float(rng.uniform(lo, hi)) for _ in range(config.chain_nodes - 1)]
        path = _chain(lengths, config.noise.f0, name=f"f{fixture}_")
        grid = FidelityGrid.uniform(config.grid_size)
        with _instance(report, f"sweep-flb fixture {fixture}"):
            # hypergraphs do not depend on f_lb: one per builder, built once per fixture
            builds = dict.fromkeys(LP_STRATEGIES[name][0] for name in config.strategies
                                   if name in LP_STRATEGIES)
            hgs = {build: build(path, grid, config.noise, config.purify_model)
                   for build in builds}
            rows = []
            for f_lb in sweep:
                for name in config.strategies:
                    if name == "rate-dp":
                        result = run_rate_dp(path, grid, f_lb, config.noise, config.purify_model)
                    else:
                        result = _lp_strategy(name, hgs[LP_STRATEGIES[name][0]], f_lb)
                    # every row carries the sweep point, ec-* rows included
                    rows.append(_strategy_row(
                        config, replace(result, f_lb=f_lb),
                        fixture=fixture, path_length=config.chain_nodes,
                    ))
            report.rows.extend(rows)
    return report


def _run_sweep_resolution(config: ExperimentConfig) -> Report:
    report = Report(config=config)
    rng = np.random.default_rng([config.seed, 2])
    lo, hi = config.distance_range_km
    lengths = [float(rng.uniform(lo, hi)) for _ in range(config.chain_nodes - 1)]
    path = _chain(lengths, config.noise.f0)
    for size in config.grid_sizes:
        grid = FidelityGrid.uniform(size)
        for builder, build in (
            ("standard", build_standard_hypergraph),
            ("pruned", build_pruned_hypergraph),
        ):
            with _instance(report, f"sweep-resolution {builder} build at grid size {size}"):
                stats = build(path, grid, config.noise, config.purify_model).stats()
                report.rows.append(
                    _row(
                        experiment=config.kind,
                        path_length=config.chain_nodes,
                        grid_size=size,
                        builder=builder,
                        vertices=stats.num_vertices,
                        edges=stats.num_edges,
                        server_time_s=stats.build_time_s if config.record_timings else None,
                    )
                )
    return report


def _percentiles(values: list[float]) -> dict:
    if not values:
        return {}
    arr = np.array(values)
    return {
        "p1": float(np.percentile(arr, 1)),
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
    }


def _run_scale_path(config: ExperimentConfig) -> Report:
    report = Report(config=config)
    rng = np.random.default_rng([config.seed, 3])
    lo, hi = config.distance_range_km
    grid = FidelityGrid.uniform(config.grid_size)
    solver_times = []
    server_times = []
    for length in config.scale_path_lengths:
        lengths = [float(rng.uniform(lo, hi)) for _ in range(length - 1)]
        path = _chain(lengths, config.noise.f0, name=f"p{length}_")
        with _instance(report, f"scale-path length {length}"):
            hg = build_pruned_hypergraph(path, grid, config.noise, config.purify_model)
            result = _lp_strategy("ec-dp", hg)
            stats = hg.stats()
            server_times.append(result.server_time_s)
            solver_times.append(result.solver_time_s)
            report.rows.append(_strategy_row(
                config, result, path_length=length, builder="pruned",
                vertices=stats.num_vertices, edges=stats.num_edges,
            ))
    if config.record_timings:
        report.aggregates = {
            "server_time_s": _percentiles(server_times),
            "solver_time_s": _percentiles(solver_times),
        }
    return report


def _run_scale_network(config: ExperimentConfig) -> Report:
    report = Report(config=config)
    grid = FidelityGrid.uniform(config.grid_size)
    solver_times = []
    server_times = []
    for size in config.network_sizes:
        topo = generate_gabriel(
            size, config.seed, bbox_km=config.bbox_km,
            distance_range_km=config.distance_range_km, f0=config.noise.f0,
        )
        rng = np.random.default_rng([config.seed, 4, size])
        nodes = list(topo.nodes)
        demands = []
        while len(demands) < config.pairs_per_length and len(demands) < size:
            s = nodes[int(rng.integers(len(nodes)))]
            d = nodes[int(rng.integers(len(nodes)))]
            if s != d and (s, d) not in demands:
                demands.append((s, d))
        planner = PlannerConfig(
            grid=grid, noise=config.noise, purify_model=config.purify_model
        )
        with _instance(report, f"scale-network outer loop at {size} nodes"):
            cache = outer_loop_update(topo, demands, planner)
            for s, d in demands:
                with _instance(report, f"scale-network request ({s}, {d}) at {size} nodes"):
                    entry = cache.entries[(s, d)]
                    result = inner_loop_request(cache, s, d)
                    server_times.append(entry.server_time_s)
                    solver_times.append(result.solver_time_s)
                    report.rows.append(_strategy_row(config, StrategyResult(
                        strategy="ec-dp", scheme=result.scheme,
                        server_time_s=entry.server_time_s, solver_time_s=result.solver_time_s,
                        grid_size=config.grid_size, f_lb=None, purify_model=config.purify_model,
                    ), fixture=size, s=s, d=d))
    if config.record_timings:
        report.aggregates = {
            "server_time_s": _percentiles(server_times),
            "solver_time_s": _percentiles(solver_times),
        }
    return report


def _run_intro_toy(config: ExperimentConfig) -> Report:
    """Equal-link chain solved under three objectives.

    The three rows answer "what should this network maximize": raw rate
    (fidelity bound just above the grid floor), end fidelity (bound at
    0.95), or aggregate capacity.
    """
    report = Report(config=config)
    noise = replace(config.noise, f0=INTRO_TOY_F0)
    path = _chain([INTRO_TOY_LINK_KM] * INTRO_TOY_LINKS, noise.f0, name="t")
    grid = FidelityGrid.uniform(config.grid_size)
    objectives = (
        ("max-egr", "rate-lp", INTRO_TOY_MIN_FID_LB),
        ("max-fidelity", "rate-lp", INTRO_TOY_MAX_FID_LB),
        ("max-capacity", "ec-dp", DEFAULT_F_LB),  # ec-dp ignores its f_lb
    )
    for label, strategy, f_lb in objectives:
        with _instance(report, f"intro-toy objective {label}"):
            result = run_strategy(strategy, path, grid, f_lb, noise, config.purify_model)
            report.rows.append(
                _strategy_row(
                    config, result, fixture=label, path_length=INTRO_TOY_LINKS + 1
                )
            )
    return report
