"""Single-path planning strategies and the exhaustive desk-scale oracle.

Four strategies share one result shape:

* ``rate-dp`` -- discretized dynamic program restricted to entanglement
  pumping, array code span by span, maximizing delivered rate above a
  fidelity bound; emits one protocol.
* ``rate-lp`` -- standard hypergraph, maximize end rate above the bound.
* ``ec-lp``   -- standard hypergraph, maximize ensemble capacity.
* ``ec-dp``   -- pruned (exact-fidelity incumbent) hypergraph, maximize
  ensemble capacity; this is the planner's single-path core.

``STRATEGIES`` gives each its model of a path and its answer at one
``f_lb`` on that model; ``run_points`` alone runs them.

The brute-force oracle enumerates every swap order with bounded
purification rounds at each tree slot by span, as the dynamic programs
build: each span's variants are evaluated once, at exact fidelities,
and combined into the longer spans' swaps. A protocol is dropped once a
swap or a purification leaves [0.25, 1]. It solves a small LP over the
enumerated set. It exists to certify the hypergraph/LP pipeline
on tiny instances, so its rate accounting matches the LP's flow rows:
a swap consumes its rate from both inputs, a purification consumes its
rate from both inputs and credits ``PURIFY_CREDIT`` times the success-
weighted rate; it counts swaps and purifications per delivered pair.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .capacity import EnsembleSpec, ensemble_capacity, pair_capacity
from .hypergraph import (
    FidelityGrid,
    Hypergraph,
    HypergraphStats,
    _on_grid_links,
    _span_pairs,
    _span_swaps,
    _span_winners,
    build_pruned_hypergraph,
    build_standard_hypergraph,
)
from .lp import (
    EMPTY_SCHEME,
    RATE_EPS,
    DistributionScheme,
    LPProblem,
    ProtocolFlow,
    extract_scheme,
    formulate_lp,
    solve_lp,
)
from .physics import (
    CLAMP_EVENTS,
    DEFAULT_NOISE,
    DEFAULT_PURIFY_MODEL,
    PURIFY_CREDIT,
    NoiseParams,
    check_int,
    check_purify_model,
    check_real,
    gate_factor,
    purify,
    purify_map,
    werner_swap,
)
from .topology import Path, link_egr

DEFAULT_F_LB = 0.87

ORACLE_MAX_GRID = 6  # largest grid resolution the oracle enumerates
_MAX_PUMP_ROUNDS = 64  # deepest pumping a rate-dp state is extended to


def check_f_lb(f_lb, name: str = "f_lb") -> None:
    """Refuse an ``f_lb`` rate-dp cannot use, naming it ``name``: one that is
    not a real number, or lies outside (0.5, 1)."""
    if not 0.5 < check_real(f_lb, name) < 1.0:
        raise ValueError(f"{name} must be in (0.5, 1), got {f_lb}")


class OracleBoundsError(ValueError):
    """Raised when oracle inputs exceed its enumeration bounds."""


@dataclass(frozen=True)
class StrategyResult:
    strategy: str
    scheme: DistributionScheme
    server_time_s: float  # model construction: the caller times the build, checks included
    solver_time_s: float  # LP or DP optimization
    grid_size: int
    f_lb: float | None
    purify_model: str
    stats: HypergraphStats | None = None  # of the solved hypergraph; not in to_json

    @property
    def egr(self) -> float:
        return self.scheme.egr

    @property
    def capacity(self) -> float:
        return self.scheme.capacity

    @property
    def fidelity(self) -> float:
        return self.scheme.fidelity

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            **self.scheme.metrics(),
            "server_time_s": self.server_time_s,
            "solver_time_s": self.solver_time_s,
            "grid_size": self.grid_size,
            "f_lb": self.f_lb,
            "purify_model": self.purify_model,
        }


def _timed(fn, *args):
    """``fn(*args)`` and the seconds the call took, all its checks included."""
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


def _lp_strategy(
    objective: str, name: str, hg: Hypergraph, build_s: float, f_lb: float | None
) -> StrategyResult:
    """Solve an already built hypergraph under ``objective``; ``build_s``, the
    caller's time for the build, is the server time. ``f_lb`` binds end-rate
    only: other results carry None."""
    if objective != "end-rate":
        f_lb = None
    t0 = time.perf_counter()
    problem = formulate_lp(hg, objective, f_lb)
    solution = solve_lp(problem)
    solver_time = time.perf_counter() - t0
    scheme = extract_scheme(hg, solution)
    return StrategyResult(
        strategy=name, scheme=scheme, server_time_s=build_s,
        solver_time_s=solver_time, grid_size=hg.grid.resolution, f_lb=f_lb,
        purify_model=hg.purify_model, stats=hg.stats(),
    )


def _pump_chain(b: int, grid: FidelityGrid, noise: NoiseParams,
                purify_model: str) -> list[tuple[int, float, float]]:
    """Pumping chain of base bucket ``b``, one row per depth (0 is the base
    state itself) until the grid stalls: (bucket, c, prefix).

    Pumping round t consumes the round t-1 state plus an equal rate of
    fresh base states, crediting ``PURIFY_CREDIT`` times the success-weighted
    rate. For a base production rate B split optimally, depth T delivers
    B * c_T / (1 + sum_{t<T} c_t) with c_t the product of the per-round
    factors ``PURIFY_CREDIT`` p (c_0 = 1, every later one at most
    ``PURIFY_CREDIT``); prefix is that sum.
    """
    vals = grid.values  # grid values need no check
    rows = [(b, 1.0, 0.0)]  # which those formulas leave as it is
    cur, c, prefix = b, 1.0, 1.0
    for _ in range(_MAX_PUMP_ROUNDS):
        f_new, p, clamped = purify_map(vals[cur], vals[b], noise, purify_model)
        if clamped:
            CLAMP_EVENTS.tick()  # once per clamped chain round
        kn = grid.round_down_index(f_new)
        if kn <= cur:
            break
        c *= PURIFY_CREDIT * p
        rows.append((kn, c, prefix))
        prefix, cur = prefix + c, kn
    return rows


def _pumped(path: Path, grid: FidelityGrid, noise: NoiseParams, purify_model: str) -> tuple:
    """rate-dp's model of ``path``: the pumping-restricted dynamic program on
    the round-down grid, as (grid, purify_model, bucket, rate, swaps, purs)
    of the (s, d) states it keeps. Every state it reaches is also a feasible
    flow of the standard-hypergraph rate LP, so rate-lp dominates rate-dp.

    It runs span by span on arrays, as the pruned builder does: every swap
    of two finished states (from one pool), each expanded into its pumping
    variants by the chain of its base bucket (``_pump_chain``, made once
    per call per base bucket that occurs). Per (node pair, bucket) the
    first candidate at the top rate survives, candidates coming w, left
    state, right state, then depth ascending. Under ``as-printed``
    ``CLAMP_EVENTS`` ticks once per clamped chain round, not per candidate.
    """
    check_purify_model(purify_model)
    m, nf, vals, g = path.num_nodes, grid.resolution, grid.as_array(), gate_factor(noise)
    k0, link_limits = _on_grid_links(path, grid)
    chains = [np.zeros(0, np.int64), *np.zeros((2, 0))]  # every chain's bucket, c, prefix
    start, size = np.zeros(nf, np.int64), np.zeros(nf, np.int64)  # each base bucket's rows
    pool = [np.zeros(0, np.int64), *np.zeros((3, 0))]  # bucket, rate, swaps, purs per state
    slot = {}  # finished pair -> (start, size) of its states in pool, in insertion order
    for span in range(1, m):
        bucket, rate, swaps, purs = pool
        if span == 1:  # per link on the grid its base state
            owner = np.flatnonzero(np.array(k0) >= 0)
            bucket, rate = np.array(k0)[owner], np.array([*link_limits.values()])
            swaps = purs = np.zeros(len(owner))
        else:  # every swap of two finished states, on their grid values
            owner, left, right, _, bucket = _span_swaps(m, span, slot, vals[bucket], g, vals)
            rate = np.minimum(rate[left], rate[right])
            swaps, purs = swaps[left] + swaps[right] + 1.0, purs[left] + purs[right]
        rows = []  # of the chains this span adds
        for b in np.unique(bucket[size[bucket] == 0]).tolist():
            chain = _pump_chain(b, grid, noise, purify_model)
            start[b], size[b] = len(chains[0]) + len(rows), len(chain)
            rows += chain
        if rows:
            chains = [np.concatenate([a, column]) for a, column in zip(chains, zip(*rows))]
        cand, row, _ = _span_pairs(start[bucket], size[bucket], bucket, np.ones_like(bucket))
        kb, c, prefix = (column[row] for column in chains)
        denom = 1.0 + prefix
        rate = rate[cand] * c / denom
        consumed = denom / c  # base states per delivered pair
        swaps, purs = swaps[cand] * consumed, purs[cand] * consumed + prefix / c
        kept = (c == 1.0) | ~(rate <= 0.0)  # the base state stays; a round at rate 0 ends its chain
        owner, kb, rate, swaps, purs = (a[kept] for a in (owner[cand], kb, rate, swaps, purs))
        win = _span_winners(owner * nf + kb, (m - span) * nf, rate, vals[kb])
        counts = np.bincount(owner[win], minlength=m - span).tolist()
        for i, n in enumerate(counts):
            slot[(i, i + span)] = (len(pool[0]) + sum(counts[:i]), n)
        pool = [np.concatenate([a, b[win]]) for a, b in zip(pool, (kb, rate, swaps, purs))]
    lo, n = slot[(0, m - 1)]
    return grid, purify_model, *(a[lo:lo + n] for a in pool)


def _pick(name: str, pumped: tuple, solver_s: float, f_lb: float) -> StrategyResult:
    """rate-dp's one protocol: of the ``_pumped`` states whose grid fidelity
    clears ``f_lb``, the first at the top rate; ``solver_s``, the program's
    time, is the solver time."""
    check_f_lb(f_lb)
    grid, purify_model, bucket, rate, swaps, purs = pumped
    eligible = np.flatnonzero(grid.as_array()[bucket] >= f_lb)
    if not len(eligible):
        scheme = EMPTY_SCHEME
    else:
        best = eligible[np.argmax(rate[eligible])]  # the first at the top rate
        f, r = grid.values[bucket[best]], rate[best].item()
        spec = EnsembleSpec(((f, r),))
        scheme = DistributionScheme(
            protocols=(ProtocolFlow(fidelity=f, rate=r, tree="pumping-dp"),), ensembles=spec,
            egr=r, fidelity=f, capacity=ensemble_capacity(spec), swaps=swaps[best].item(),
            purifications=purs[best].item(), pairs=1,
        )
    return StrategyResult(
        strategy=name, scheme=scheme, server_time_s=0.0, solver_time_s=solver_s,
        grid_size=grid.resolution, f_lb=f_lb, purify_model=purify_model,
    )


# strategy -> (its model of a path, its answer at one f_lb on that model)
STRATEGIES = {
    "rate-dp": (_pumped, _pick),
    "rate-lp": (build_standard_hypergraph, partial(_lp_strategy, "end-rate")),
    "ec-lp": (build_standard_hypergraph, partial(_lp_strategy, "ensemble-capacity")),
    "ec-dp": (build_pruned_hypergraph, partial(_lp_strategy, "ensemble-capacity")),
}
STRATEGY_NAMES = tuple(STRATEGIES)


def run_points(
    path: Path,
    grid: FidelityGrid,
    points: Iterable[tuple[str, float]],
    noise: NoiseParams = DEFAULT_NOISE,
    purify_model: str = DEFAULT_PURIFY_MODEL,
) -> Iterator[StrategyResult]:
    """Yield the result of each ``(strategy, f_lb)`` point on ``path``, in order.
    A model depends on neither the objective nor ``f_lb``: each is made once,
    on its first point, and the results on it share its time."""
    models = {}  # model function -> (model, seconds)
    for name, f_lb in points:
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
        model, answer = STRATEGIES[name]
        if model not in models:
            models[model] = _timed(model, path, grid, noise, purify_model)
        yield answer(name, *models[model], f_lb)


def run_strategy(
    name: str,
    path: Path,
    grid: FidelityGrid,
    f_lb: float = DEFAULT_F_LB,
    noise: NoiseParams = DEFAULT_NOISE,
    purify_model: str = DEFAULT_PURIFY_MODEL,
) -> StrategyResult:
    return next(run_points(path, grid, [(name, f_lb)], noise, purify_model))


# (path, grid, f_lb, noise, purify_model): rate-dp at one f_lb, its program run per call
run_rate_dp = partial(run_strategy, "rate-dp")


# --- brute-force oracle ---------------------------------------------------

@dataclass(frozen=True)
class _Proto:
    fidelity: float
    usage: tuple[float, ...]  # base pairs consumed per delivered pair, per link
    swaps: float  # swaps per delivered pair
    purifications: float  # purification attempts per delivered pair
    tree: str


def _protocols(path: Path, noise: NoiseParams, max_purify_rounds: int, purify_model: str):
    """Yield (exact fidelity, per-link usage, swaps, purifications, tree) of
    every bounded protocol on ``path``, counts per delivered pair.

    It enumerates by span of links [lo, hi): a link is its own base; a
    longer span's bases swap each variant of [lo, w) with each of [w, hi),
    splits w ascending; each base is followed by its 1 to
    ``max_purify_rounds`` purification rounds, whose attempt draws two
    pairs, credited ``PURIFY_CREDIT`` p. A variant is dropped, with all it
    would grow into, once a swap (gate factor below 0 for eta < 0.5) or a
    purification (the clamped as-printed map) leaves [0.25, 1].
    """
    g = gate_factor(noise)

    def span(lo: int, hi: int):
        if hi - lo == 1:
            bases = [(path.edges[lo].f0, np.ones(1), 0.0, 0.0, f"L{lo}")]
        else:
            bases = []
            for w in range(lo + 1, hi):
                rights = list(span(w, hi))
                bases += [(werner_swap(f_l, f_r, g), np.concatenate([u_l, u_r]), s_l + s_r + 1.0,
                           q_l + q_r, f"s({t_l},{t_r})")
                          for f_l, u_l, s_l, q_l, t_l in span(lo, w)
                          for f_r, u_r, s_r, q_r, t_r in rights]
        for f, usage, swaps, purs, tree in bases:
            for rounds in range(max_purify_rounds + 1):
                if rounds:  # one more round on the variant yielded last
                    f, p = purify(f, f, noise, purify_model)
                    drawn = 2.0 / (PURIFY_CREDIT * p)  # pairs per purified pair, two per attempt
                    usage, swaps, purs = usage * drawn, swaps * drawn, purs * drawn + drawn / 2.0
                    tree = f"p({tree})"
                if not 0.25 <= f <= 1.0:
                    break
                yield f, usage, swaps, purs, tree

    return span(0, len(path.edges))


def _check_oracle_bounds(path: Path, grid: FidelityGrid, max_purify_rounds: int,
                         purify_model: str, max_ensembles: int | None = None) -> None:
    """Refuse what the oracles do not enumerate (see ``brute_force_oracle``)."""
    check_purify_model(purify_model)
    if path.num_nodes > 4:
        raise OracleBoundsError("oracle paths are limited to 4 nodes")
    if grid.resolution > ORACLE_MAX_GRID:
        raise OracleBoundsError(f"oracle grids are limited to {ORACLE_MAX_GRID} values")
    if not 0 <= check_int(max_purify_rounds, "max_purify_rounds", OracleBoundsError) <= 2:
        raise OracleBoundsError("oracle allows at most 2 purification rounds")
    if max_ensembles is not None and check_int(max_ensembles, "max_ensembles",
                                               OracleBoundsError) < 1:
        raise OracleBoundsError(f"max_ensembles must be at least 1, got {max_ensembles}")


def _standalone(limits: np.ndarray, f: float, usage) -> tuple[float, float]:
    """A protocol's standalone rate, the most its links' ``limits`` let it
    deliver at ``usage`` base pairs per pair, and its capacity at that rate."""
    rate = float(np.min(limits / np.asarray(usage)))
    return rate, rate * pair_capacity(f)


def brute_force_oracle(
    path: Path,
    grid: FidelityGrid,
    noise: NoiseParams = DEFAULT_NOISE,
    max_purify_rounds: int = 2,
    max_ensembles: int | None = None,
    purify_model: str = DEFAULT_PURIFY_MODEL,
) -> StrategyResult:
    """Exhaustive protocol enumeration plus a mixture LP over the set.

    Bounds are enforced, not advisory: at most 4 path nodes, grid
    resolution at most 6, at most 2 purification rounds per slot.
    ``max_ensembles`` (at least 1) optionally restricts the mixture LP to
    the best protocols by standalone capacity.
    """
    _check_oracle_bounds(path, grid, max_purify_rounds, purify_model, max_ensembles)
    k = len(path.edges)

    t0 = time.perf_counter()
    limits = np.array([link_egr(e) for e in path.edges])

    protos: dict[tuple, _Proto] = {}
    for f, usage, *counts in _protocols(path, noise, max_purify_rounds, purify_model):
        if f < grid.values[0]:
            continue
        key = (round(f, 12),) + tuple(round(u, 9) for u in usage)
        if key not in protos:
            protos[key] = _Proto(f, tuple(usage), *counts)
    server_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    plist = sorted(protos.values(), key=lambda p: (-p.fidelity, p.usage))

    if max_ensembles is not None and len(plist) > max_ensembles:
        plist = sorted(plist, key=lambda p: _standalone(limits, p.fidelity, p.usage)[1],
                       reverse=True)[:max_ensembles]

    c = np.array([pair_capacity(p.fidelity) for p in plist])
    rows = [
        [(pi, p.usage[e]) for pi, p in enumerate(plist) if p.usage[e] > 0.0]
        for e in range(k)
    ]
    problem = LPProblem(
        num_vars=len(plist), objective=c, rows=rows, rhs=limits,
        row_names=[f"l_{e}" for e in range(k)],
    )
    solution = solve_lp(problem)
    prots = []
    swap_rate = 0.0
    purify_rate = 0.0
    for p, r in zip(plist, solution.rates.tolist()):
        if r <= RATE_EPS:
            continue
        prots.append(ProtocolFlow(fidelity=p.fidelity, rate=r, tree=p.tree))
        swap_rate += r * p.swaps
        purify_rate += r * p.purifications
    scheme = DistributionScheme.from_flows(prots, swap_rate, purify_rate)
    solver_time = time.perf_counter() - t1

    return StrategyResult(
        strategy="oracle", scheme=scheme, server_time_s=server_time,
        solver_time_s=solver_time, grid_size=grid.resolution, f_lb=None,
        purify_model=purify_model,
    )


def oracle_best_single(
    path: Path,
    grid: FidelityGrid,
    noise: NoiseParams = DEFAULT_NOISE,
    max_purify_rounds: int = 2,
    purify_model: str = DEFAULT_PURIFY_MODEL,
) -> tuple[float, float, float]:
    """(capacity, rate, fidelity) of the best standalone protocol, in the oracle's bounds."""
    _check_oracle_bounds(path, grid, max_purify_rounds, purify_model)
    limits = np.array([link_egr(e) for e in path.edges])
    best = (0.0, 0.0, 0.0)
    for f, usage, *_ in _protocols(path, noise, max_purify_rounds, purify_model):
        rate, cap = _standalone(limits, f, usage)
        if cap > best[0]:
            best = (cap, rate, f)
    return best
