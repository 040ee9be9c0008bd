"""Span recording from outside the program.

The traced run wraps layer functions where their callers look them up
(a module attribute), records one span per call and keeps every span in
memory until the run ends. Nothing under ``src/`` is changed: removing
the wrappers restores the original bindings.

A span is ``[span_id, parent_id, op_id, name, binding, t0_ns, t1_ns,
attrs]``. Spans of one top-level operation share ``op_id``. Self time is
a span's duration minus the durations of its direct children; calls are
sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class StaleBindingError(RuntimeError):
    """A wrapped boundary is missing, already wrapped, or recorded no spans."""


def _lp_problem_attrs(args, kwargs, result):
    return {
        "vars": result.num_vars,
        "rows": result.num_rows,
        "nnz": sum(len(row) for row in result.rows),
    }


def _lp_solution_attrs(args, kwargs, result):
    return {"method": result.method, "iterations": result.iterations}


def _hypergraph_attrs(args, kwargs, result):
    return {"hg": id(result), "edges": len(result.edges)}


def _synthesis_attrs(args, kwargs, result):
    inputs = args[0] if args else kwargs["hypergraphs"]
    return {
        "hg": id(result),
        "edges": len(result.edges),
        "kept": [id(hg) for hg in inputs],
    }


def _save_attrs(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (module, attribute, span name, what to record from the call). The
# attribute is the name the caller resolves at call time: the orchestrator
# imports its layer functions by name, the benchmark calls the hypergraph,
# lp and strategies modules through their attributes, and ``solve_lp``
# re-enters itself through ``entflow.lp.solve_lp`` on its auto fallback.
BINDINGS = (
    ("entflow.orchestrator", "k_shortest_paths", "topology.k_shortest_paths", None),
    ("entflow.orchestrator", "build_pruned_hypergraph", "hypergraph.build_pruned", _hypergraph_attrs),
    ("entflow.orchestrator", "synthesize_multipath", "hypergraph.synthesize", _synthesis_attrs),
    ("entflow.orchestrator", "formulate_lp", "lp.formulate", _lp_problem_attrs),
    ("entflow.orchestrator", "solve_lp", "lp.solve", _lp_solution_attrs),
    ("entflow.orchestrator", "extract_scheme", "lp.extract", None),
    ("entflow.orchestrator", "save_cache", "orchestrator.save_cache", _save_attrs),
    ("entflow.orchestrator", "load_cache", "orchestrator.load_cache", None),
    ("entflow.hypergraph", "build_standard_hypergraph", "hypergraph.build_standard", _hypergraph_attrs),
    ("entflow.hypergraph", "build_pruned_hypergraph", "hypergraph.build_pruned", _hypergraph_attrs),
    ("entflow.lp", "formulate_lp", "lp.formulate", _lp_problem_attrs),
    ("entflow.lp", "solve_lp", "lp.solve", _lp_solution_attrs),
    ("entflow.lp", "extract_scheme", "lp.extract", None),
    ("entflow.strategies", "run_rate_dp", "strategies.rate_dp", None),
)

LAYER_SPANS = frozenset(name for _, _, name, _ in BINDINGS)


class Tracer:
    """In-memory span recorder with wrappers installed on module bindings."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: list[dict] = []
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._installed: list[tuple[object, str, object]] = []
        self._hits: dict[str, int] = defaultdict(int)

    # --- recording -----------------------------------------------------

    def _open(self, name: str, binding: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self._op_id, name, binding, 0, 0, {}]
        self.spans.append(span)
        self._stack.append(span[0])
        span[5] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[6] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str, key, expect: dict[str, tuple[int, int | None]]):
        """One top-level operation; ``expect`` bounds its layer span counts.

        A layer span name missing from ``expect`` must not occur. The
        operation's record is yielded so the caller can refine ``expect``
        once the call has shown how much work it had.
        """
        if self._op_id is not None:
            raise RuntimeError("operations do not nest")
        self._op_id = len(self.ops)
        self.ops.append({"op": self._op_id, "kind": kind, "key": key, "expect": expect})
        span = self._open(f"op.{kind}", "")
        try:
            yield self.ops[-1]
        finally:
            self._close(span)
            self._op_id = None

    def _wrap(self, original, name: str, binding: str, annotate):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._hits[binding] += 1
            span = tracer._open(name, binding)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[7]["error"] = True
                raise
            finally:
                tracer._close(span)
            if annotate is not None:
                span[7].update(annotate(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # --- installation --------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, annotate in BINDINGS:
            module = importlib.import_module(module_name)
            binding = f"{module_name}.{attr}"
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                raise StaleBindingError(f"{binding} no longer exists")
            if hasattr(original, "__wrapped__"):
                raise StaleBindingError(f"{binding} is already wrapped")
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, binding, annotate))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    @contextmanager
    def active(self):
        """Wrappers installed for the duration of the block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # --- checks --------------------------------------------------------

    def check(self, required_bindings) -> None:
        """Fail when a boundary recorded fewer or more spans than expected."""
        missing = sorted(b for b in required_bindings if not self._hits.get(b))
        if missing:
            raise StaleBindingError(
                "wrapped boundaries recorded no spans: " + ", ".join(missing)
            )
        counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for span in self.spans:
            if span[3] in LAYER_SPANS and span[2] is not None:
                counts[span[2]][span[3]] += 1
        for op in self.ops:
            seen = counts[op["op"]]
            for name in LAYER_SPANS | set(op["expect"]):
                lo, hi = op["expect"].get(name, (0, 0))
                n = seen.get(name, 0)
                if n < lo or (hi is not None and n > hi):
                    raise StaleBindingError(
                        f"{op['kind']} operation {op['key']!r}: {n} {name} spans, "
                        f"expected {lo}..{'' if hi is None else hi}"
                    )

    # --- aggregation ---------------------------------------------------

    def self_times_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[1] is not None:
                child[span[1]] += span[6] - span[5]
        return [s[6] - s[5] - c for s, c in zip(self.spans, child)]

    def write(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ["span", "parent", "op", "name", "binding", "t0_ns", "t1_ns", "attrs"]
        ops = [{k: v for k, v in op.items() if k != "expect"} for op in self.ops]
        with open(path, "w") as fh:
            json.dump({**header, "fields": fields, "ops": ops, "spans": self.spans}, fh)


class ThreadSampler:
    """Samples the process's OS thread count; its own thread is excluded."""

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.peak = _thread_count()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.peak = max(self.peak, _thread_count() - 1)

    def __enter__(self) -> ThreadSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _thread_count() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()
