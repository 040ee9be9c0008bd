"""The three planner workloads, timed untraced or traced.

Each workload function returns a ``Result``: metric values, samples for
the printed quartiles, and the count of operations attempted and failed.
A failure is an exception, a wrong answer (reference or invariant), or
an inner answer flagged ``over_budget``.

In a traced run every measured operation runs twice back to back, once
untraced and once traced, the order alternating from one operation to
the next. On a shared host the speed of the same work drifts by tens of
percent within minutes, so only such pairs give a tracing overhead and a
span coverage that mean something.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from entflow import Cache, hypergraph, lp, orchestrator, strategies
from entflow.physics import DEFAULT_NOISE

import fixtures
from calibrate import HostClock
from tracing import ThreadSampler, Tracer

# Set-ups per untraced run; setup_s is their median. Inner-serve's set-up
# is a whole outer loop, so it gets the fewest.
INNER_SETUPS = 3
CHEAP_SETUPS = 7
SETUP_KERNELS = 3  # host-clock samples before each set-up and after the last
MIN_REQUESTS = 1000  # inner-serve: its tail is p99, which needs ten samples beyond it
# The workloads with 20-40 ops per run report the mean of their slowest
# quarter as the tail. Over ten runs, p99 there (the single slowest op)
# spread 0.22, and p75 spread 0.21 on lattice-sweep because it fell
# between clusters of f_lb points.
TAIL_SHARE = 0.25
REPEAT_REL = 1e-12  # repeated, reloaded or traced answers must agree this closely

ORCHESTRATOR_BINDINGS = (
    "entflow.orchestrator.k_shortest_paths",
    "entflow.orchestrator.build_pruned_hypergraph",
    "entflow.orchestrator.synthesize_multipath",
)
INNER_BINDINGS = ORCHESTRATOR_BINDINGS + (
    "entflow.orchestrator.formulate_lp",
    "entflow.orchestrator.solve_lp",
    "entflow.orchestrator.extract_scheme",
)
OUTER_BINDINGS = ORCHESTRATOR_BINDINGS + (
    "entflow.orchestrator.save_cache",
    "entflow.orchestrator.load_cache",
)
LATTICE_BINDINGS = (
    "entflow.hypergraph.build_standard_hypergraph",
    "entflow.hypergraph.build_pruned_hypergraph",
    "entflow.lp.formulate_lp",
    "entflow.lp.solve_lp",
    "entflow.lp.extract_scheme",
    "entflow.strategies.run_rate_dp",
)

# Span counts of one inner request: one solve, or two on the auto fallback.
REQUEST_SPANS = {"lp.formulate": (1, 1), "lp.solve": (1, 2), "lp.extract": (1, 1)}


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    named: dict[str, float] = field(default_factory=dict)  # names METRICS.md maps
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        """Count one operation or invariant; it fails if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Paired:
    """Seconds and first answer per operation key: [0] untraced, [1] traced."""

    seconds: tuple = field(default_factory=lambda: (defaultdict(list), defaultdict(list)))
    answers: tuple = field(default_factory=lambda: ({}, {}))

    def add(self, traced: bool, key, seconds: float, answer: list[float]) -> None:
        self.seconds[traced][key].append(seconds)
        self.answers[traced].setdefault(key, answer)


def _modes(tracer: Tracer | None, index: int) -> tuple:
    """Run an operation once untraced, or as a pair in alternating order."""
    if tracer is None:
        return (None,)
    return (None, tracer) if index % 2 == 0 else (tracer, None)


def _tracing(tracer: Tracer | None):
    return tracer.active() if tracer else nullcontext()


def _timed_op(tracer: Tracer | None, kind: str, key, expect):
    return tracer.op(kind, key, expect) if tracer else nullcontext({})


def _failure(exc: Exception) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def _tail_mean(values: list[float]) -> float:
    """Mean of the slowest TAIL_SHARE of the values."""
    worst = sorted(values, reverse=True)[: max(1, round(len(values) * TAIL_SHARE))]
    return statistics.mean(worst)


def _setups(count: int, setup):
    """Run ``setup`` ``count`` times: (last result, host-scaled seconds each).

    The set-ups get their own host clock, sampled around each of them, so
    that they are scaled by the host speed of the set-up phase.
    """
    clock = HostClock()
    raw = []
    for _ in range(count):
        for _ in range(SETUP_KERNELS):
            clock.sample()
        t0 = time.perf_counter()
        out = setup()
        raw.append(time.perf_counter() - t0)
    for _ in range(SETUP_KERNELS):
        clock.sample()
    return out, [x / clock.factor for x in raw]


def _calibrated(result: Result, clock: HostClock) -> Result:
    result.samples["host_kernel_ms"] = [x * 1e3 for x in clock.samples]
    result.named["host_factor"] = clock.factor
    return result


def _record_equal_answers(result: Result, paired: Paired) -> None:
    plain, traced = paired.answers
    problems = [
        f"{key}: traced {traced[key]!r} != untraced {value!r}"
        for key, value in plain.items()
        if key in traced and (len(value) != len(traced[key]) or not all(
            fixtures.close(a, b, REPEAT_REL) for a, b in zip(traced[key], value)))
    ]
    if not set(plain) & set(traced):
        problems.append("no operation ran both untraced and traced")
    result.record("traced answers equal untraced", problems)


# --- planner (inner-serve, outer-refresh) ---------------------------------


def _ref_capacity(ref: dict, s: str, d: str) -> float | None:
    return ref["answers"].get(fixtures.demand_key(s, d), {}).get("capacity")


def _check_capacity(capacity: float, expected: float | None, problems: list[str]) -> None:
    if expected is None:
        problems.append("no reference answer")
    elif not fixtures.close(capacity, expected):
        problems.append(f"capacity {capacity!r} != reference {expected!r}")


def _edges(entry) -> int:
    return len(entry.hypergraph.edges) if entry.hypergraph else 0


def _planner_fixture(result: Result, ref: dict):
    topo = fixtures.planner_topology()
    demands = fixtures.planner_demands(topo)
    keys = [fixtures.demand_key(s, d) for s, d in demands]
    result.record("planner fixture", [] if keys == ref["demands"] else
                  [f"demands {keys} differ from reference {ref['demands']}"])
    return topo, demands


def _planner_setup(result: Result, ref: dict, config, tracer: Tracer | None):
    """Fixture, outer loop over every demand, one warm-up request each."""
    topo, demands = _planner_fixture(result, ref)
    n = len(demands)
    expect = {
        "topology.k_shortest_paths": (n, n),
        "hypergraph.build_pruned": (n, n * config.n_candidates),
        "hypergraph.synthesize": (n, n),
        **{name: (lo * n, hi * n) for name, (lo, hi) in REQUEST_SPANS.items()},
    }
    with _timed_op(tracer, "setup", None, expect):
        cache = orchestrator.outer_loop_update(topo, demands, config)
        for s, d in demands:
            problems: list[str] = []
            res = orchestrator.inner_loop_request(cache, s, d)
            _check_capacity(res.scheme.capacity, _ref_capacity(ref, s, d), problems)
            result.record(f"warm-up request {s}-{d}", problems)
    return demands, cache


def _request(result: Result, ref: dict, cache: Cache, s: str, d: str, first: dict,
             tracer: Tracer | None):
    """One checked inner request; (seconds, capacity), or None if it raised."""
    problems: list[str] = []
    with _tracing(tracer):
        t0 = time.perf_counter()
        try:
            with _timed_op(tracer, "request", f"{s}|{d}", REQUEST_SPANS):
                res = orchestrator.inner_loop_request(cache, s, d)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted
            result.record(f"request {s}-{d}", _failure(exc))
            return None
        dt = time.perf_counter() - t0
    cap = res.scheme.capacity
    if not res.cached:
        problems.append("answer not cached")
    if res.over_budget:
        problems.append(f"over budget ({res.solver_time_s:.3f} s)")
    _check_capacity(cap, _ref_capacity(ref, s, d), problems)
    if (s, d) in first and not fixtures.close(cap, first[(s, d)], REPEAT_REL):
        problems.append(f"repeat answer {cap!r} != first {first[(s, d)]!r}")
    first.setdefault((s, d), cap)
    result.record(f"request {s}-{d}", problems)
    return dt, cap


def _serve(result: Result, ref: dict, cache: Cache, demands, seed: int, seconds: float,
           min_requests: int, clock: HostClock, tracer: Tracer | None):
    """Closed loop, one client: seeded round-robin rounds over the demands.

    Stops after the round in which ``seconds`` have passed and at least
    ``min_requests`` requests (pairs, when traced) have been attempted. The host clock is sampled
    before each round. Returns (wall seconds without the clock samples,
    untraced latencies, traced pairs, hypergraph builds meanwhile).
    """
    latencies: list[float] = []
    paired = Paired()
    first: dict[tuple[str, str], float] = {}
    builds_before = hypergraph.BUILD_COUNTER.count
    start = time.perf_counter()
    spent = clock.spent_s
    round_ = index = 0
    while True:
        clock.sample()
        for s, d in fixtures.request_order(demands, seed, round_):
            for mode in _modes(tracer, index):
                out = _request(result, ref, cache, s, d, first, mode)
                if out is None:
                    continue
                if tracer is None:
                    latencies.append(out[0])
                else:
                    paired.add(mode is not None, (s, d), out[0], [out[1]])
            index += 1
        round_ += 1
        if time.perf_counter() - start >= seconds and index >= min_requests:
            break
    wall = time.perf_counter() - start - (clock.spent_s - spent)
    builds = hypergraph.BUILD_COUNTER.count - builds_before
    result.record("builds in timed inner loop",
                  [] if builds == 0 else [f"{builds} hypergraph builds"])
    return wall, latencies, paired, builds


def inner_serve(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    ref = fixtures.load_reference()["planner"]
    config = fixtures.planner_config()
    clock = HostClock()
    if not trace:
        (demands, cache), setups = _setups(
            INNER_SETUPS, lambda: _planner_setup(result, ref, config, None))
        wall, lat, _, _ = _serve(
            result, ref, cache, demands, seed, seconds, MIN_REQUESTS, clock, None)
        f = clock.factor
        result.samples = {"setup_s": setups, "op_ms_raw": [x * 1e3 for x in lat]}
        result.named = {
            "inner_p50_ms": _percentile(lat, 50) * 1e3 / f,
            "inner_p99_ms": _percentile(lat, 99) * 1e3 / f,
            "inner_rps": len(lat) / wall * f,
        }
        result.metrics = {
            "setup_s": statistics.median(setups),
            "op_mean_ms": statistics.mean(lat) * 1e3 / f,
            "op_tail_ms": result.named["inner_p99_ms"],
            "ops_per_s": result.named["inner_rps"],
            "peak_rss_mb": _peak_rss_mb(),
        }
        return _calibrated(result, clock)

    tracer = Tracer()
    with ThreadSampler() as sampler:
        clock.sample()
        with tracer.active():
            demands, cache = _planner_setup(result, ref, config, tracer)
        _, _, paired, builds = _serve(
            result, ref, cache, demands, seed, seconds, 0, clock, tracer)
    tracer.check(INNER_BINDINGS)
    _record_equal_answers(result, paired)
    result.metrics = layer_metrics(tracer, "request", paired, sampler.peak, clock.factor)
    result.metrics["hypergraph.builds_in_timed_inner"] = float(builds)
    _write_spans(tracer, "inner-serve", seed)
    return result


def _refresh(result: Result, ref: dict, topo, config, s: str, d: str, tracer: Tracer | None):
    """One checked demand refresh; (seconds, cache entry), or None if it raised."""
    problems: list[str] = []
    with _tracing(tracer):
        t0 = time.perf_counter()
        try:
            with _timed_op(tracer, "refresh", f"{s}|{d}", {}) as op:
                entry = orchestrator.outer_loop_update(topo, [(s, d)], config).entries[(s, d)]
                paths = len(entry.estimates)
                op["expect"] = {
                    "topology.k_shortest_paths": (1, 1),
                    "hypergraph.build_pruned": (paths, paths),
                    "hypergraph.synthesize": (1, 1) if entry.hypergraph else (0, 0),
                }
        except Exception as exc:  # noqa: BLE001 - a failed refresh is counted
            result.record(f"refresh {s}-{d}", _failure(exc))
            return None
        dt = time.perf_counter() - t0
    expected = ref["answers"].get(fixtures.demand_key(s, d))
    if expected is None:
        problems.append("no reference answer")
    else:
        got = [[score, list(nodes)] for score, nodes in entry.estimates]
        want = expected["estimates"]
        if [nodes for _, nodes in got] != [nodes for _, nodes in want] or not all(
            fixtures.close(a[0], b[0]) for a, b in zip(got, want)
        ):
            problems.append(f"estimates {got} != reference {want}")
        if _edges(entry) != expected["edges"]:
            problems.append(f"{_edges(entry)} model edges != reference {expected['edges']}")
    result.record(f"refresh {s}-{d}", problems)
    return dt, entry


def _persist(result: Result, cache: Cache, pass_: int, tracer: Tracer | None):
    """Save and reload one pass's cache; the reloaded cache, or None."""
    expect = {"orchestrator.save_cache": (1, 1), "orchestrator.load_cache": (1, 1)}
    with _tracing(tracer):
        try:
            with _timed_op(tracer, "persist", pass_, expect):
                reloaded = orchestrator.load_cache(orchestrator.save_cache(cache))
        except Exception as exc:  # noqa: BLE001 - a failed hand-off is counted
            result.record(f"persist pass {pass_}", _failure(exc))
            return None
    problems = [
        f"reloaded entry {key} differs"
        for key, entry in cache.entries.items()
        if key not in reloaded.entries
        or reloaded.entries[key].estimates != entry.estimates
        or _edges(reloaded.entries[key]) != _edges(entry)
    ]
    result.record(f"persist pass {pass_}", problems)
    return reloaded


def _refresh_passes(result: Result, ref: dict, topo, demands, config, seed: int,
                    seconds: float, clock: HostClock, tracer: Tracer | None):
    """Whole passes until ``seconds`` have elapsed.

    A pass refreshes every demand in a seeded order, then saves and
    reloads its cache. The host clock is sampled before each refresh.
    Returns (pass wall seconds without the clock samples, untraced
    refresh latencies, last cache, its reloaded copy, traced pairs).
    """
    walls: list[float] = []
    latencies: list[float] = []
    paired = Paired()
    start = time.perf_counter()
    pass_ = 0
    while True:
        t_pass = time.perf_counter()
        spent = clock.spent_s
        entries = {}
        for i, (s, d) in enumerate(fixtures.request_order(demands, seed, pass_)):
            clock.sample()
            for mode in _modes(tracer, pass_ + i):
                out = _refresh(result, ref, topo, config, s, d, mode)
                if out is None:
                    continue
                entries[(s, d)] = out[1]
                if tracer is None:
                    latencies.append(out[0])
                else:
                    paired.add(mode is not None, (s, d), out[0],
                               [score for score, _ in out[1].estimates])
        cache = Cache(config=config, entries=entries)
        for mode in _modes(tracer, pass_):
            reloaded = _persist(result, cache, pass_, mode)
        walls.append(time.perf_counter() - t_pass - (clock.spent_s - spent))
        pass_ += 1
        if time.perf_counter() - start >= seconds:
            return walls, latencies, cache, reloaded, paired


def _check_reload_answers(result: Result, ref: dict, cache: Cache, reloaded: Cache | None) -> None:
    """A reloaded cache answers like the original, and both like the reference."""
    for (s, d) in cache.entries:
        problems: list[str] = []
        a = orchestrator.inner_loop_request(cache, s, d).scheme.capacity
        _check_capacity(a, _ref_capacity(ref, s, d), problems)
        if reloaded is None:
            problems.append("no reloaded cache")
        else:
            b = orchestrator.inner_loop_request(reloaded, s, d).scheme.capacity
            if not fixtures.close(a, b, REPEAT_REL):
                problems.append(f"reloaded answer {b!r} != original {a!r}")
        result.record(f"reloaded answer {s}-{d}", problems)


def outer_refresh(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    ref = fixtures.load_reference()["planner"]
    config = fixtures.planner_config()

    def setup():
        topo, demands = _planner_fixture(result, ref)
        # warm-up: one refresh and one save/load round trip
        part = orchestrator.outer_loop_update(topo, demands[:1], config)
        orchestrator.load_cache(orchestrator.save_cache(part))
        return topo, demands

    clock = HostClock()
    if not trace:
        (topo, demands), setups = _setups(CHEAP_SETUPS, setup)
        walls, lat, cache, reloaded, _ = _refresh_passes(
            result, ref, topo, demands, config, seed, seconds, clock, None)
        _check_reload_answers(result, ref, cache, reloaded)
        f = clock.factor
        result.samples = {"setup_s": setups, "op_ms_raw": [x * 1e3 for x in lat],
                          "pass_s_raw": walls}
        result.named = {
            "refresh_demand_p50_ms": _percentile(lat, 50) * 1e3 / f,
            "refresh_demands_per_s": len(lat) / sum(walls) * f,
        }
        result.metrics = {
            "setup_s": statistics.median(setups),
            "op_mean_ms": statistics.mean(lat) * 1e3 / f,
            "op_tail_ms": _tail_mean(lat) * 1e3 / f,
            "ops_per_s": result.named["refresh_demands_per_s"],
            "peak_rss_mb": _peak_rss_mb(),
        }
        return _calibrated(result, clock)

    tracer = Tracer()
    with ThreadSampler() as sampler:
        topo, demands = setup()
        _, _, cache, reloaded, paired = _refresh_passes(
            result, ref, topo, demands, config, seed, seconds, clock, tracer)
    tracer.check(OUTER_BINDINGS)
    _check_reload_answers(result, ref, cache, reloaded)
    _record_equal_answers(result, paired)
    result.metrics = layer_metrics(tracer, "refresh", paired, sampler.peak, clock.factor)
    result.metrics["hypergraph.builds_in_timed_inner"] = 0.0
    _write_spans(tracer, "outer-refresh", seed)
    return result


# --- lattice-sweep ---------------------------------------------------------


def _chain(result: Result, ref: dict, seed: int, index: int, grid, clock: HostClock,
           tracer: Tracer | None):
    """Both builds, ec-lp and ec-dp once, then rate-lp and rate-dp per f_lb.

    The host clock is sampled before each f_lb point, outside the times.
    Returns (chain seconds, per-point seconds, answers), or None if it raised.
    """
    path, points = fixtures.lattice_chain(seed, index)
    n_lp = len(points) + 2
    expect = {
        "hypergraph.build_standard": (1, 1),
        "hypergraph.build_pruned": (1, 1),
        "lp.formulate": (n_lp, n_lp),
        "lp.solve": (n_lp, 2 * n_lp),
        "lp.extract": (n_lp, n_lp),
        "strategies.rate_dp": (len(points), len(points)),
    }
    point_s = []
    rate = []
    with _tracing(tracer):
        t0 = time.perf_counter()
        spent = clock.spent_s
        try:
            with _timed_op(tracer, "chain", index, expect):
                std = hypergraph.build_standard_hypergraph(path, grid, DEFAULT_NOISE)
                pruned = hypergraph.build_pruned_hypergraph(path, grid, DEFAULT_NOISE)
                ec = {}
                for name, hg in (("ec_lp", std), ("ec_dp", pruned)):
                    sol = lp.solve_lp(lp.formulate_lp(hg, "ensemble-capacity"))
                    ec[name] = lp.extract_scheme(hg, sol).capacity
                for f_lb in points:
                    clock.sample()
                    t1 = time.perf_counter()
                    sol = lp.solve_lp(lp.formulate_lp(std, "end-rate", f_lb=f_lb))
                    rate_lp = lp.extract_scheme(std, sol).egr
                    rate_dp = strategies.run_rate_dp(path, grid, f_lb, DEFAULT_NOISE).egr
                    point_s.append(time.perf_counter() - t1)
                    rate.append((f_lb, rate_lp, rate_dp))
        except Exception as exc:  # noqa: BLE001 - a failed chain is counted
            result.record(f"chain {index}", _failure(exc))
            return None
        chain_s = time.perf_counter() - t0 - (clock.spent_s - spent)

    problems = []
    if ec["ec_dp"] < ec["ec_lp"] - 1e-6 * max(1.0, ec["ec_lp"]):
        problems.append(f"ec-dp {ec['ec_dp']!r} < ec-lp {ec['ec_lp']!r}")
    for f_lb, rate_lp, rate_dp in rate:
        if rate_lp < rate_dp - 1e-6 * max(1.0, rate_dp):
            problems.append(f"f_lb {f_lb}: rate-lp {rate_lp!r} < rate-dp {rate_dp!r}")
    chains = ref.get(str(seed), [])
    if index < len(chains):
        expected = chains[index]
        for name in ("ec_lp", "ec_dp"):
            if not fixtures.close(ec[name], expected[name]):
                problems.append(f"{name} {ec[name]!r} != reference {expected[name]!r}")
        for got, want in zip(rate, expected["points"]):
            if got[0] != want[0] or not (fixtures.close(got[1], want[1])
                                         and fixtures.close(got[2], want[2])):
                problems.append(f"point {got} != reference {want}")
    result.record(f"chain {index}", problems)
    answers = [ec["ec_lp"], ec["ec_dp"]] + [x for _, lp_egr, dp_egr in rate
                                            for x in (lp_egr, dp_egr)]
    return chain_s, point_s, answers


def _chains(result: Result, ref: dict, seed: int, grid, seconds: float, clock: HostClock,
            tracer: Tracer | None):
    """Whole chains, from chain 0, until ``seconds`` have elapsed.

    Returns (untraced chain seconds, untraced point seconds, traced pairs).
    """
    chain_s: list[float] = []
    point_s: list[float] = []
    paired = Paired()
    start = time.perf_counter()
    index = 0
    while True:
        for mode in _modes(tracer, index):
            out = _chain(result, ref, seed, index, grid, clock, mode)
            if out is None:
                continue
            if tracer is None:
                chain_s.append(out[0])
                point_s.extend(out[1])
            else:
                paired.add(mode is not None, index, out[0], out[2])
        index += 1
        if time.perf_counter() - start >= seconds:
            return chain_s, point_s, paired


def lattice_sweep(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    ref = fixtures.load_reference()["lattice"]

    def setup():
        # warm-up: a pruned build and one solve on each backend
        grid = fixtures.lattice_grid()
        path, _ = fixtures.lattice_chain(seed, 0)
        problem = lp.formulate_lp(
            hypergraph.build_pruned_hypergraph(path, grid, DEFAULT_NOISE), "ensemble-capacity")
        for method in ("simplex", "highs"):
            lp.solve_lp(problem, method=method)
        return grid

    clock = HostClock()
    if not trace:
        grid, setups = _setups(CHEAP_SETUPS, setup)
        chain_s, point_s, _ = _chains(result, ref, seed, grid, seconds, clock, None)
        f = clock.factor
        result.samples = {"setup_s": setups, "op_ms_raw": [x * 1e3 for x in point_s],
                          "chain_s_raw": chain_s}
        result.named = {
            "sweep_point_p50_ms": _percentile(point_s, 50) * 1e3 / f,
            "sweep_chain_s": statistics.median(chain_s) / f,
        }
        result.metrics = {
            "setup_s": statistics.median(setups),
            "op_mean_ms": statistics.mean(point_s) * 1e3 / f,
            "op_tail_ms": _tail_mean(point_s) * 1e3 / f,
            "ops_per_s": len(point_s) / sum(chain_s) * f,
            "peak_rss_mb": _peak_rss_mb(),
        }
        return _calibrated(result, clock)

    tracer = Tracer()
    with ThreadSampler() as sampler:
        grid = setup()
        _, _, paired = _chains(result, ref, seed, grid, seconds, clock, tracer)
    tracer.check(LATTICE_BINDINGS)
    _record_equal_answers(result, paired)
    result.metrics = layer_metrics(tracer, "chain", paired, sampler.peak, clock.factor)
    result.metrics["hypergraph.builds_in_timed_inner"] = 0.0
    _write_spans(tracer, "lattice-sweep", seed)
    return result


WORKLOADS = {
    "inner-serve": inner_serve,
    "outer-refresh": outer_refresh,
    "lattice-sweep": lattice_sweep,
}


# --- per-layer metrics -------------------------------------------------------


def layer_metrics(tracer: Tracer, measured: str, paired: Paired,
                  peak_threads: int, factor: float) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced run.

    ``*.ms`` is mean self time per call over the traced run, set-up
    included, divided by the host factor like every reported time.
    ``lp.solves.*`` and ``hypergraph.build_pruned.calls`` are calls per
    measured operation (a request, a demand refresh or a chain).
    """
    spans = tracer.spans
    self_ns = tracer.self_times_ns()
    measured_ops = {op["op"] for op in tracer.ops if op["kind"] == measured}
    nested = {s[1] for s in spans if s[3] == "lp.solve" and s[1] is not None
              and spans[s[1]][3] == "lp.solve"}

    total_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    per_op: dict[str, int] = defaultdict(int)
    lp_sizes: dict[str, list[int]] = defaultdict(list)
    iterations, edges = [], []
    covered_ns = 0
    for span, own in zip(spans, self_ns):
        name = span[3]
        names = [name]
        if name == "lp.solve":
            # the outer span of an auto fallback is the failed simplex attempt
            backend = "simplex" if span[0] in nested else span[7]["method"]
            names.append(f"lp.solve.{backend}")
            if span[0] not in nested:
                iterations.append(span[7]["iterations"])
        elif name == "lp.formulate":
            for key in ("vars", "rows", "nnz"):
                lp_sizes[key].append(span[7][key])
        if "edges" in span[7]:
            edges.append(span[7]["edges"])
        for n in names:
            total_ns[n] += own
            calls[n] += 1
            if span[2] in measured_ops:
                per_op[n] += 1
        if span[2] in measured_ops and not name.startswith("op."):
            covered_ns += own

    def mean_ms(name: str) -> float:
        return total_ns[name] / calls[name] / 1e6 / factor if calls[name] else 0.0

    def mean(values) -> float:
        return statistics.mean(values) if values else 0.0

    plain, traced = paired.seconds
    shared = [k for k in plain if k in traced]
    plain_s = sum(statistics.mean(plain[k]) for k in shared)
    traced_s = sum(statistics.mean(traced[k]) for k in shared)
    plain_mean_s = statistics.mean(x for xs in plain.values() for x in xs)
    n_ops = max(1, len(measured_ops))
    layers = (
        "lp.formulate", "lp.solve", "lp.solve.highs", "lp.solve.simplex", "lp.extract",
        "hypergraph.build_pruned", "hypergraph.build_standard", "hypergraph.synthesize",
        "topology.k_shortest_paths", "orchestrator.save_cache", "orchestrator.load_cache",
        "strategies.rate_dp",
    )
    return {
        **{f"{name}.ms": mean_ms(name) for name in layers},
        "lp.iterations": mean(iterations),
        **{f"lp.{key}": mean(lp_sizes[key]) for key in ("vars", "rows", "nnz")},
        "lp.solves.highs": per_op["lp.solve.highs"] / n_ops,
        "lp.solves.simplex": per_op["lp.solve.simplex"] / n_ops,
        "lp.fallbacks": float(len(nested)),
        "hypergraph.build_pruned.calls": per_op["hypergraph.build_pruned"] / n_ops,
        "hypergraph.edges": mean(edges),
        "orchestrator.cache_bytes": mean(
            [s[7]["bytes"] for s in spans if s[3] == "orchestrator.save_cache"]),
        "orchestrator.discarded_build_share": _discarded_build_share(spans),
        "trace.overhead_share": (traced_s - plain_s) / plain_s,
        "trace.span_coverage": covered_ns / n_ops / 1e9 / plain_mean_s,
        "env.nproc": float(nproc()),
        "env.peak_threads": float(peak_threads),
        "env.host_factor": factor,
    }


def _discarded_build_share(spans: list[list]) -> float:
    """Outer-loop pruned-build time on candidates left out of the top K.

    Builds between two synthesis calls of one operation belong to one
    demand; all of them are alive until its synthesis, so object ids
    identify the kept ones.
    """
    pending: dict[int | None, list[tuple[int, int]]] = defaultdict(list)
    kept_ns = discarded_ns = 0
    for span in spans:
        if span[4] == "entflow.orchestrator.build_pruned_hypergraph":
            pending[span[2]].append((span[7]["hg"], span[6] - span[5]))
        elif span[3] == "hypergraph.synthesize":
            kept = set(span[7]["kept"])
            for hg, ns in pending.pop(span[2], []):
                if hg in kept:
                    kept_ns += ns
                else:
                    discarded_ns += ns
    total = kept_ns + discarded_ns
    return discarded_ns / total if total else 0.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    tracer.write(
        os.path.join(".perfbench", f"spans-{workload}-seed{seed}.json"),
        {"workload": workload, "seed": seed},
    )
