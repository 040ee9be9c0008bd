"""Two-loop planning controller.

The outer loop runs per demand pair: enumerate candidate paths, score
each with a cheap dynamic-programming capacity estimate, keep the top K,
synthesize their pruned hypergraphs into one cached model. The inner loop
answers requests against that immutable cache: retrieve, solve the
capacity LP, extract a scheme, all without constructing any hypergraph
(instrumented and enforced).
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .hypergraph import (
    BUILD_COUNTER,
    FidelityGrid,
    Hypergraph,
    HypergraphColumns,
    HypergraphError,
    best_dp_estimate,
    build_pruned_hypergraph,
    synthesize_multipath,
)
from .lp import EMPTY_SCHEME, DistributionScheme, extract_scheme, formulate_lp, solve_lp
from .physics import DEFAULT_NOISE, PURIFY_MODELS, NoiseParams
from .topology import PATH_WEIGHTS, Topology, k_shortest_paths

CACHE_VERSION = 2
# each stored HypergraphColumns array, base64 of its bytes in this dtype;
# u and v index the entry's sorted node names
CACHE_COLUMNS = {name: np.dtype(code) for name, code in (
    ("op", "<i1"), ("input0", "<i8"), ("input1", "<i8"), ("output", "<i8"), ("p_succ", "<f8"),
    ("capacity_coeff", "<f8"), ("rate_bound", "<f8"), ("link", "<i8"), ("exact_fidelity", "<f8"),
    ("u", "<i4"), ("v", "<i4"))}


class CacheError(ValueError):
    """Raised for corrupt or incompatible cache documents."""


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs of the two-loop controller."""

    n_candidates: int = 6
    k_keep: int = 3
    grid: FidelityGrid = field(default_factory=lambda: FidelityGrid.uniform(100))
    noise: NoiseParams = DEFAULT_NOISE
    purify_model: str = "ideal-dejmps"
    latency_budget_s: float = 1.0
    t_cut_s: float | None = None
    path_weight: str = "km"

    def __post_init__(self) -> None:
        if not 1 <= self.k_keep <= self.n_candidates:
            raise ValueError("need 1 <= k_keep <= n_candidates")
        if not 0.01 <= self.latency_budget_s <= 1.0:
            raise ValueError("latency budget must be within [0.01, 1.0] s")
        for name, allowed in (("purify_model", PURIFY_MODELS), ("path_weight", PATH_WEIGHTS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")

    def to_json(self) -> dict:
        return {**asdict(self), "grid": list(self.grid.values)}

    @classmethod
    def from_json(cls, doc: dict) -> PlannerConfig:
        values = {f.name: doc[f.name] for f in fields(cls)}  # every field required
        values["grid"] = FidelityGrid(tuple(values["grid"]))
        values["noise"] = NoiseParams(**values["noise"])
        return cls(**values)


@dataclass(frozen=True)
class CacheEntry:
    hypergraph: Hypergraph | None
    estimates: tuple[tuple[float, tuple[str, ...]], ...]  # (score, path nodes), desc
    server_time_s: float


@dataclass
class Cache:
    config: PlannerConfig
    entries: dict[tuple[str, str], CacheEntry] = field(default_factory=dict)


@dataclass(frozen=True)
class InnerResult:
    scheme: DistributionScheme
    solver_time_s: float
    cached: bool
    over_budget: bool
    diagnostic: str = ""


def outer_loop_update(
    topology: Topology, demands: list[tuple[str, str]], config: PlannerConfig
) -> Cache:
    """Build the per-demand cache: rank candidate paths, keep K, synthesize."""
    if not demands:
        raise ValueError("need at least one demand pair")
    cache = Cache(config=config)
    for s, d in demands:
        t0 = time.perf_counter()
        paths = k_shortest_paths(topology, s, d, config.n_candidates, config.path_weight)
        scored = []
        for path in paths:
            hg = build_pruned_hypergraph(path, config.grid, config.noise, config.purify_model)
            scored.append((best_dp_estimate(hg), path, hg))
        # higher estimate first; shorter path breaks ties deterministically
        scored.sort(key=lambda item: (-item[0], item[1].total_length_km, item[1].nodes))
        kept = scored[: config.k_keep]
        if kept:
            synthesized = synthesize_multipath([hg for _, _, hg in kept])
        else:
            synthesized = None
        cache.entries[(s, d)] = CacheEntry(
            hypergraph=synthesized,
            estimates=tuple((score, path.nodes) for score, path, _ in scored),
            server_time_s=time.perf_counter() - t0,
        )
    return cache


def inner_loop_request(cache: Cache, s: str, d: str) -> InnerResult:
    """Solve one demand against the cache; no construction may happen.

    The guard reads the calling thread's build tally, so an outer loop
    refreshing in another thread does not trip it.
    """
    builds_before = BUILD_COUNTER.thread_count
    entry = cache.entries.get((s, d))
    if entry is None or entry.hypergraph is None:
        return InnerResult(
            scheme=EMPTY_SCHEME, solver_time_s=0.0, cached=entry is not None,
            over_budget=False,
            diagnostic="not cached" if entry is None else "no path available",
        )
    t0 = time.perf_counter()
    problem = formulate_lp(entry.hypergraph, "ensemble-capacity")
    solution = solve_lp(problem)
    scheme = extract_scheme(entry.hypergraph, solution)
    solver_time = time.perf_counter() - t0
    if BUILD_COUNTER.thread_count != builds_before:
        raise RuntimeError("inner loop performed hypergraph construction")
    over = solver_time > cache.config.latency_budget_s
    diag = ""
    if cache.config.t_cut_s is not None and solver_time > cache.config.t_cut_s:
        diag = "coherence budget exceeded"
    return InnerResult(
        scheme=scheme, solver_time_s=solver_time, cached=True,
        over_budget=over, diagnostic=diag,
    )


def _hypergraph_doc(demand: tuple[str, str], hg: Hypergraph, config: PlannerConfig) -> dict:
    for name in ("grid", "noise", "purify_model"):  # stored once, in the config
        if getattr(hg, name) != getattr(config, name):
            raise CacheError(f"entry {demand}: its hypergraph's {name} is not the config's")
    cols = hg.columns
    nodes = sorted({*cols.u, *cols.v})
    index = {name: i for i, name in enumerate(nodes)}
    arrays = {**vars(cols), "u": [index[n] for n in cols.u], "v": [index[n] for n in cols.v]}
    return {
        "builder": hg.builder, "build_time_s": hg.build_time_s, "endpoints": list(hg.endpoints),
        "link_limits": hg.link_limits, "nodes": nodes, "link_keys": list(cols.link_keys),
        "columns": {name: base64.b64encode(np.asarray(arrays[name], dtype).tobytes()).decode()
                    for name, dtype in CACHE_COLUMNS.items()},
    }


def _load_hypergraph(doc: dict, config: PlannerConfig) -> Hypergraph:
    nodes, columns = doc["nodes"], {}
    for name, dtype in CACHE_COLUMNS.items():
        data = base64.b64decode(doc["columns"][name], validate=True)
        if len(data) % dtype.itemsize:
            raise HypergraphError(f"column {name}: {len(data)} bytes, not a multiple of "
                                  f"{dtype.itemsize}")
        columns[name] = np.frombuffer(data, dtype)
    for name in ("u", "v"):
        bad = np.flatnonzero((columns[name] < 0) | (columns[name] >= len(nodes)))
        if len(bad):
            raise HypergraphError(f"vertex {bad[0]}: {name} {columns[name][bad[0]].item()} is "
                                  f"not an index into the {len(nodes)} nodes")
        columns[name] = tuple(map(nodes.__getitem__, columns[name].tolist()))
    return Hypergraph(
        HypergraphColumns(**columns, link_keys=tuple(doc["link_keys"])), config.grid,
        config.noise, dict(doc["link_limits"]), tuple(doc["endpoints"]), doc["builder"],
        config.purify_model, doc["build_time_s"],
    )


def save_cache(cache: Cache) -> str:
    """The cache as one JSON document: the config once, and per entry its
    estimates and its hypergraph's ``CACHE_COLUMNS``."""
    doc = {
        "version": CACHE_VERSION,
        "config": cache.config.to_json(),
        "entries": [
            {
                "s": s,
                "d": d,
                "hypergraph": _hypergraph_doc((s, d), entry.hypergraph, cache.config)
                if entry.hypergraph else None,
                "estimates": [[score, list(nodes)] for score, nodes in entry.estimates],
                "server_time_s": entry.server_time_s,
            }
            for (s, d), entry in sorted(cache.entries.items())
        ],
    }
    return json.dumps(doc)


def load_cache(text: str) -> Cache:
    """A cache that ``save_cache`` wrote. Each hypergraph is checked as every
    hypergraph is, and must connect its entry's demand through nodes of the
    entry's first ``k_keep`` estimated paths. An error names the entry."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CacheError(f"corrupt cache document: {exc}") from exc
    where = ""  # the entry being read
    try:
        if doc["version"] != CACHE_VERSION:
            raise CacheError(f"unsupported cache version {doc['version']!r}")
        cache = Cache(config=PlannerConfig.from_json(doc["config"]))
        for item in doc["entries"]:
            demand = (item["s"], item["d"])
            where = f"entry {demand}: "
            if demand in cache.entries:
                raise CacheError(f"{where}the demand appears twice")
            estimates = tuple((score, tuple(nodes)) for score, nodes in item["estimates"])
            hg = _load_hypergraph(item["hypergraph"], cache.config) if item["hypergraph"] else None
            if hg is not None and hg.endpoints != demand:
                raise CacheError(f"{where}its hypergraph connects {hg.endpoints}")
            kept = {node for _, nodes in estimates[: cache.config.k_keep] for node in nodes}
            for node in item["hypergraph"]["nodes"] if hg is not None else ():
                if node not in kept:
                    raise CacheError(f"{where}node {node!r} is not on its first "
                                     f"{cache.config.k_keep} estimated paths")
            cache.entries[demand] = CacheEntry(hg, estimates, item["server_time_s"])
        return cache
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CacheError):
            raise
        raise CacheError(f"corrupt cache document: {where}{exc}") from exc
