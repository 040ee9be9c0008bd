"""Compare the answers of two entflow source trees.

    python tools/answers.py PARENT_SRC CHILD_SRC

Each argument is a directory holding the ``entflow`` package, such as a
checkout's ``src``. The tool runs one fixed list of seeded ``--no-timings``
commands through ``python -m entflow.cli`` with each tree on ``PYTHONPATH``,
each tree in its own temporary directory, the two trees side by side. Commands read the outputs of earlier ones (the
generated topology, a built cache) from their own tree's directory.

For each command it prints either ``same bytes`` or each changed JSON key,
list indices written ``[]``, with how many of its values changed and the
largest relative change among them, from which value to which (``changed``
for a value that is not a number, or a key only one side has). It exits 1
when any output differs.
It stores nothing and is not a gate: it lists what a change moved.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from numbers import Real

MODELS = ("ideal-dejmps", "as-printed")
RUN_KINDS = ("benchmark", "sweep-flb", "sweep-resolution", "scale-path", "scale-network")
DEMANDS = "n0,n13;n4,n12"
# one 30 km link at f0 0.8, below the capacity's zero-crossing: at the
# oracle's grid of 6 its answer purifies
ONE_LINK = {"defaults": {"f0": 0.8}, "nodes": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "length_km": 30.0}]}


def commands() -> list[tuple[str, list[str]]]:
    """(output file, argv after ``entflow``) of every command, in run order."""
    out = [("topo.json", ["topo", "gen", "--nodes", "20", "--seed", "7"])]
    for model in MODELS:
        flags = ["--no-timings", "--purify-model", model]
        out += [(f"run-{kind}-{model}.json", ["run", kind, "--seed", "3", *flags])
                for kind in RUN_KINDS]
        out.append((f"run-intro-toy-{model}.json", ["run", "intro-toy", *flags]))
        for grid in ("20", "100"):
            cache = f"cache-{grid}-{model}.json"
            out.append((cache, ["cache", "build", "--topology", "topo.json", "--demands", DEMANDS,
                                "--grid-size", grid, "--purify-model", model]))
            out.append((f"answer-{grid}-{model}.json",
                        ["cache", "solve", "--cache", cache, "--demand", "n0,n13", "--no-timings"]))
        for k in ("1", "2"):
            out.append((f"oracle-{k}-{model}.json",
                        ["oracle", "--topology", "topo.json", "--demand", "n0,n3", "--grid-size",
                         "4", "--max-ensembles", k, *flags]))
        out.append((f"oracle-one-link-{model}.json",
                    ["oracle", "--topology", "one-link.json", "--demand", "a,b", *flags]))
    return out


def run_tree(tree: str, workdir: str) -> dict[str, tuple[int, bytes]]:
    """Each command's (exit status, output bytes) with ``tree`` on ``PYTHONPATH``."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(tree)}
    with open(os.path.join(workdir, "one-link.json"), "w") as fh:
        json.dump(ONE_LINK, fh)
    results = {}
    for name, argv in commands():
        done = subprocess.run([sys.executable, "-m", "entflow.cli", *argv, "--out", name],
                              cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        path = os.path.join(workdir, name)
        output = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                output = fh.read()
        if done.returncode not in (0, 3):  # 3: a report that counts failed instances
            output += done.stderr
        results[name] = (done.returncode, output)
    return results


def _relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def _number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def diff(a, b, key: str = "") -> dict[str, list]:
    """Per changed key of two JSON documents, [values changed, largest
    relative change, (its value in ``a``, in ``b``)], the change None for a
    value that is not a number or a key only one side has, and the pair None
    with it. Keys nest with ``.``; list indices read ``[]``."""
    changed: dict[str, list] = {}

    def note(k: str, change: float | None, pair: tuple | None = None) -> None:
        count, largest, at = changed.get(k, [0, -1.0, None])
        if largest is not None and (change is None or change > largest):
            largest, at = change, pair
        changed[k] = [count + 1, largest, at]

    def walk(x, y, k: str) -> None:
        if isinstance(x, dict) and isinstance(y, dict):
            for name in sorted(x.keys() | y.keys(), key=str):
                sub = f"{k}.{name}" if k else str(name)
                if name in x and name in y:
                    walk(x[name], y[name], sub)
                else:
                    note(sub, None)
        elif isinstance(x, list) and isinstance(y, list):
            if len(x) != len(y):
                note(f"{k}[] (length)", None)
            for u, v in zip(x, y):
                walk(u, v, f"{k}[]")
        elif _number(x) and _number(y):
            if x != y and not (x != x and y != y):  # NaN against NaN is no change
                note(k, _relative(x, y), (x, y))
        elif x != y or type(x) is not type(y):
            note(k, None)

    walk(a, b, key)
    return changed


def report(name: str, parent: tuple[int, bytes], child: tuple[int, bytes]) -> list[str]:
    """The lines printed for one command's two results."""
    if parent == child:
        return [f"{name}: same bytes"]
    lines = [f"{name}: differs"]
    if parent[0] != child[0]:
        lines.append(f"  exit status: {parent[0]} -> {child[0]}")
    try:
        changed = diff(json.loads(parent[1]), json.loads(child[1]))
    except ValueError:
        return lines + ["  output is not JSON on both sides"]
    for key, (count, largest, at) in changed.items():
        what = ("changed" if largest is None else
                f"largest relative change {largest:.6g} ({at[0]!r} -> {at[1]!r})")
        lines.append(f"  {key}: {count} value{'s' * (count != 1)}, {what}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/answers.py PARENT_SRC CHILD_SRC", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as child_dir:
        with ThreadPoolExecutor(max_workers=2) as pool:
            parent, child = pool.map(run_tree, argv, (parent_dir, child_dir))
    differs = False
    for name, _ in commands():
        lines = report(name, parent[name], child[name])
        differs |= len(lines) > 1
        print("\n".join(lines))
    print(f"{len(parent)} commands per tree in {time.perf_counter() - t0:.0f} s")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
