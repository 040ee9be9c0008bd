"""Seeded experiment harness and machine-readable reports.

Each experiment kind is a key of ``RUNNERS``, beside what it runs and the
settings it reads. Reports are deterministic under a fixed config seed;
timing columns are populated only when ``record_timings`` is set
(reproducibility checks compare reports with timings off).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Integral, Real

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path

from .hypergraph import (
    DEFAULT_GRID_SIZE,
    FidelityGrid,
    build_pruned_hypergraph,
    build_standard_hypergraph,
)
from .lp import SCHEME_METRICS
from .orchestrator import PlannerConfig, inner_loop_request, outer_loop_update
from .physics import (
    DEFAULT_NOISE,
    DEFAULT_PURIFY_MODEL,
    NoiseParams,
    check_purify_model,
    check_real,
)
from .strategies import (
    DEFAULT_F_LB,
    STRATEGY_NAMES,
    StrategyResult,
    _timed,
    check_f_lb,
    run_points,
    run_strategy,
)
from .topology import (
    DEFAULT_BBOX_KM,
    Edge,
    Path,
    Topology,
    check_gabriel_ranges,
    check_seed,
    generate_gabriel,
    k_shortest_paths,
    read_topology_file,
)

log = logging.getLogger(__name__)

TIME_COLUMNS = ("server_time_s", "solver_time_s")  # None in a row when timings are off
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
    *SCHEME_METRICS,
    *TIME_COLUMNS,
)

INTRO_TOY_F0 = 0.95
INTRO_TOY_LINKS = 4
INTRO_TOY_LINK_KM = 70.0
INTRO_TOY_MAX_FID_LB = 0.95
INTRO_TOY_MIN_FID_LB = 0.51
MAX_SWEEP_POINTS = 10_000  # 270 times the paper's 37-point f_lb sweep
# a config field's declared type, up to its brackets -> what its value must be
_DECLARED = {"str": str, "str | None": (str, type(None)), "bool": bool, "tuple": tuple,
             "NoiseParams": NoiseParams}


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
    purify_model: str = DEFAULT_PURIFY_MODEL
    record_timings: bool = True
    chain_nodes: int = 6
    repetitions: int = 5
    network_sizes: tuple[int, ...] = (30, 60, 100)
    scale_path_lengths: tuple[int, ...] = tuple(range(2, 11))
    distance_range_km: tuple[float, float] = (20.0, 150.0)
    bbox_km: float = DEFAULT_BBOX_KM

    def __post_init__(self) -> None:
        for f in fields(self):  # of its declared type; each number is checked below
            value = getattr(self, f.name)
            if not isinstance(value, _DECLARED.get(f.type.split("[")[0], object)):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if self.kind not in RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for name in ("path_lengths", "grid_sizes", "strategies", "network_sizes"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        for s in self.strategies:
            if s not in STRATEGY_NAMES:
                raise ValueError(f"unknown strategy {s!r}")
        check_purify_model(self.purify_model)
        check_gabriel_ranges(self.bbox_km, self.distance_range_km)
        for name in ("f_lb", "f_lb_start", "f_lb_stop"):
            check_f_lb(getattr(self, name), name)
        if not 0 < check_real(self.f_lb_step, "f_lb_step") < math.inf:
            raise ValueError(f"f_lb_step must be finite and > 0, got {self.f_lb_step}")
        if self.f_lb_stop < self.f_lb_start:
            raise ValueError("invalid f_lb sweep range: f_lb_stop < f_lb_start")
        if (points := _sweep_size(self)) > MAX_SWEEP_POINTS:
            raise ValueError(
                f"f_lb_step must give at most {MAX_SWEEP_POINTS} sweep points, got {points}")
        check_seed(self.seed)
        # counts that select nothing are configuration errors, not failed instances
        for name, least in (("chain_nodes", 2), ("topology_nodes", 2), ("pairs_per_length", 1),
                            ("repetitions", 1), ("grid_size", 1), ("grid_sizes", 1),
                            ("path_lengths", 2), ("scale_path_lengths", 2),
                            ("network_sizes", 2)):
            value = getattr(self, name)
            each = " each" if isinstance(value, tuple) else ""
            for n in value if each else (value,):
                if isinstance(n, Real) and n < least:  # a string is refused below, not compared
                    raise ValueError(f"{name} must{each} be >= {least}, got {value}")
                if isinstance(n, bool) or not isinstance(n, Integral):
                    raise ValueError(f"{name} must{each} be an integer, got {value!r}")
        run, reads = settings_read(self.kind, self.topology_path)
        for owner in (self, self.noise):  # a setting is set when it is not its default
            for f in fields(owner):
                if f.name not in reads | {"noise"} and getattr(owner, f.name) != f.default:
                    raise ValueError(f"{run} takes no {f.name}")

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
    """``result.to_json()`` cut to ``COLUMNS``, its times None unless recorded."""
    doc = {key: value for key, value in result.to_json().items() if key in COLUMNS}
    if not config.record_timings:
        doc.update(dict.fromkeys(TIME_COLUMNS))
    return _row(experiment=config.kind, **doc, **extra)


def _gabriel(config: ExperimentConfig, nodes: int) -> Topology:
    """The run's Gabriel topology of ``nodes`` nodes."""
    return generate_gabriel(nodes, config.seed, bbox_km=config.bbox_km,
                            distance_range_km=config.distance_range_km, f0=config.noise.f0)


def _draw_chain(config: ExperimentConfig, rng: np.random.Generator, nodes: int,
                name: str = "c") -> Path:
    """A fixture chain of ``nodes`` nodes, its link lengths drawn from ``rng``."""
    lo, hi = config.distance_range_km
    return _chain([float(rng.uniform(lo, hi)) for _ in range(nodes - 1)], config.noise.f0, name)


def _chain(lengths_km: list[float], f0: float, name: str = "c") -> Path:
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
    names = sorted(topology.nodes)
    index = {name: k for k, name in enumerate(names)}
    ends = np.array([(index[e.u], index[e.v]) for e in topology.edges], np.int64).reshape(-1, 2)
    adjacency = csr_array((np.ones(len(ends)), ends.T), shape=(len(names), len(names)))
    hops = shortest_path(adjacency, method="D", directed=False, unweighted=True)
    by_source = {}  # each source -> its targets at exactly that many hops, sorted
    for k, row in enumerate(hops == path_nodes - 1):
        if row.any():
            by_source[names[k]] = [names[j] for j in np.flatnonzero(row).tolist()]
    sources, pairs, seen, attempts = list(by_source), [], set(), 0
    while sources and len(pairs) < count and attempts < count * 50:
        attempts += 1
        s = sources[int(rng.integers(len(sources)))]
        targets = by_source[s]
        d = targets[int(rng.integers(len(targets)))]
        if (s, d) in seen or (d, s) in seen:
            continue
        seen.add((s, d))
        pairs.append((s, d))
    return pairs


def _run_benchmark(config: ExperimentConfig, grid: FidelityGrid, report: Report) -> None:
    topo = (read_topology_file(config.topology_path) if config.topology_path
            else _gabriel(config, config.topology_nodes))
    points = [(name, config.f_lb) for name in config.strategies]
    for length in config.path_lengths:
        rng = np.random.default_rng([config.seed, length])
        for s, d in _sample_pairs(topo, length, config.pairs_per_length, rng):
            with _instance(report, f"benchmark instance ({s}, {d})"):
                path = k_shortest_paths(topo, s, d, 1, weight="hops")[0]
                results = run_points(path, grid, points, config.noise, config.purify_model)
                report.rows.extend([_strategy_row(config, result, s=s, d=d, path_length=length)
                                    for result in results])

    # aggregate mean capacity per (path length, strategy) and improvement
    # relative to the rate-dp mean
    caps = {}
    for row in report.rows:
        caps.setdefault((row["path_length"], row["strategy"]), []).append(row["capacity"])
    means = {key: float(np.mean(values)) for key, values in caps.items()}
    agg = {}
    for (length, name), mean in sorted(means.items()):
        entry = {"mean_capacity": mean}
        base = means.get((length, "rate-dp"))
        if base and base > 0:
            entry["improvement_vs_rate_dp"] = (mean - base) / base
        agg[f"{length}/{name}"] = entry
    report.aggregates = agg


def _sweep_size(config: ExperimentConfig) -> int | float:
    """The number of points of the f_lb sweep, inf for a step too small to count by."""
    span = (config.f_lb_stop - config.f_lb_start + 1e-12) / config.f_lb_step
    return int(span) + 1 if span < math.inf else span


def _run_sweep_flb(config: ExperimentConfig, grid: FidelityGrid, report: Report) -> None:
    rng = np.random.default_rng([config.seed, 1])
    points = [(name, round(config.f_lb_start + k * config.f_lb_step, 10))
              for k in range(_sweep_size(config)) for name in config.strategies]
    for fixture in range(config.repetitions):
        path = _draw_chain(config, rng, config.chain_nodes, name=f"f{fixture}_")
        with _instance(report, f"sweep-flb fixture {fixture}"):
            results = run_points(path, grid, points, config.noise, config.purify_model)
            # every row carries the sweep point, ec-* rows included
            report.rows.extend([_strategy_row(
                config, replace(result, f_lb=f_lb), fixture=fixture, path_length=config.chain_nodes,
            ) for result, (_, f_lb) in zip(results, points)])


def _run_sweep_resolution(config: ExperimentConfig, _: None, report: Report) -> None:
    path = _draw_chain(config, np.random.default_rng([config.seed, 2]), config.chain_nodes)
    for size in config.grid_sizes:
        grid = FidelityGrid.uniform(size)
        for builder, build in (
            ("standard", build_standard_hypergraph),
            ("pruned", build_pruned_hypergraph),
        ):
            with _instance(report, f"sweep-resolution {builder} build at grid size {size}"):
                hg, build_s = _timed(build, path, grid, config.noise, config.purify_model)
                stats = hg.stats()
                report.rows.append(
                    _row(
                        experiment=config.kind,
                        path_length=config.chain_nodes,
                        grid_size=size,
                        builder=builder,
                        vertices=stats.num_vertices,
                        edges=stats.num_edges,
                        server_time_s=build_s if config.record_timings else None,
                    )
                )


def _time_percentiles(report: Report) -> None:
    """Give ``report``, when timings are recorded, the 1st, 50th and 99th
    percentiles of each time column over its rows as its aggregates."""
    if report.config.record_timings:
        for column in TIME_COLUMNS:
            times = [row[column] for row in report.rows]
            report.aggregates[column] = (
                {f"p{q}": float(np.percentile(times, q)) for q in (1, 50, 99)} if times else {})


def _run_scale_path(config: ExperimentConfig, grid: FidelityGrid, report: Report) -> None:
    rng = np.random.default_rng([config.seed, 3])
    for length in config.scale_path_lengths:
        path = _draw_chain(config, rng, length, name=f"p{length}_")
        with _instance(report, f"scale-path length {length}"):
            result, = run_points(path, grid, [("ec-dp", None)], config.noise, config.purify_model)
            report.rows.append(_strategy_row(
                config, result, path_length=length, builder="pruned",
                vertices=result.stats.num_vertices, edges=result.stats.num_edges,
            ))
    _time_percentiles(report)


def _run_scale_network(config: ExperimentConfig, grid: FidelityGrid, report: Report) -> None:
    for size in config.network_sizes:
        topo = _gabriel(config, size)
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
            # one refresh per demand, so each row's server time is its own
            refreshes = {demand: _timed(outer_loop_update, topo, [demand], planner)
                         for demand in demands}
            for s, d in demands:
                with _instance(report, f"scale-network request ({s}, {d}) at {size} nodes"):
                    cache, refresh_s = refreshes[(s, d)]
                    result = inner_loop_request(cache, s, d)
                    report.rows.append(_strategy_row(config, StrategyResult(
                        strategy="ec-dp", scheme=result.scheme,
                        server_time_s=refresh_s, solver_time_s=result.solver_time_s,
                        grid_size=config.grid_size, f_lb=None, purify_model=config.purify_model,
                    ), fixture=size, s=s, d=d))
    _time_percentiles(report)


def _run_intro_toy(config: ExperimentConfig, grid: FidelityGrid, report: Report) -> None:
    """Equal-link chain solved under three objectives.

    The three rows answer "what should this network maximize": raw rate
    (fidelity bound just above the grid floor), end fidelity (bound at
    0.95), or aggregate capacity.
    """
    noise = replace(config.noise, f0=INTRO_TOY_F0)
    path = _chain([INTRO_TOY_LINK_KM] * INTRO_TOY_LINKS, noise.f0, name="t")
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


# each kind, its runner and the settings it reads, noise by its fields; every
# kind reads kind and record_timings, and each that draws its links, _DRAWS.
# A runner fills the report ``run_experiment`` hands it, on the grid of
# grid_size when it reads that setting
_DRAWS = {"seed", "distance_range_km", "p1", "p2", "eta", "f0", "purify_model"}
RUNNERS = {
    # all strategies over sampled node pairs grouped by shortest-path node count
    "benchmark": (_run_benchmark, _DRAWS | {
        "topology_path", "topology_nodes", "bbox_km", "pairs_per_length", "path_lengths",
        "grid_size", "f_lb", "strategies"}),
    # capacity of each strategy across a fidelity lower-bound sweep on fixture chains
    "sweep-flb": (_run_sweep_flb, _DRAWS | {
        "chain_nodes", "repetitions", "grid_size", "f_lb_start", "f_lb_stop", "f_lb_step",
        "strategies"}),
    # builder size/time signatures across grid sizes
    "sweep-resolution": (_run_sweep_resolution, _DRAWS | {"chain_nodes", "grid_sizes"}),
    # pruned build + ec-dp solve times across path lengths
    "scale-path": (_run_scale_path, _DRAWS | {"scale_path_lengths", "grid_size"}),
    # outer/inner loop times across topology sizes
    "scale-network": (_run_scale_network, _DRAWS | {
        "network_sizes", "bbox_km", "pairs_per_length", "grid_size"}),
    # a 4-link chain at f0 0.95 solved for max capacity, max fidelity and max rate
    "intro-toy": (_run_intro_toy, {"p1", "p2", "eta", "purify_model", "grid_size"}),
}


def settings_read(kind: str, topology_path: str | None) -> tuple[str, set[str]]:
    """A run of ``kind`` as a refusal names it, and the settings it reads."""
    reads = RUNNERS[kind][1] | {"kind", "record_timings"}
    if topology_path and "topology_path" in reads:  # the file fixes the four below
        return f"{kind} from a topology file", reads - {
            "topology_nodes", "bbox_km", "distance_range_km", "f0"}
    return kind, reads


def run_experiment(config: ExperimentConfig) -> Report:
    """Run ``config``'s kind, on the grid of ``config.grid_size`` if it reads
    that, and return its report."""
    runner, reads = RUNNERS[config.kind]
    grid = FidelityGrid.uniform(config.grid_size) if "grid_size" in reads else None
    report = Report(config=config)
    runner(config, grid, report)
    return report
