"""Private-classical-bit capacity of Werner pairs and pair ensembles.

Teleportation over a Werner pair of fidelity F is equivalent to a
depolarizing channel with parameter p = 4(1-F)/3. The per-pair capacity
used throughout is the conservative lower bound
``k(p) - (3p/4) log2(3)`` with ``k(p) = 1 - H2(3p/4)``, clamped at zero
since the bound goes negative below F ~ 0.81.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .physics import check_real

_LOG2_3 = math.log2(3.0)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with 0*log2(0) := 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def pair_capacity_bounds(f: float) -> tuple[float, float]:
    """(lower, upper) capacity bounds in bits for a pair of fidelity f.

    Neither bound is clamped; the lower bound may be negative.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {f}")
    p = 4.0 * (1.0 - f) / 3.0
    upper = 1.0 - binary_entropy(min(1.0, 0.75 * p))
    lower = upper - (1.0 - f) * _LOG2_3
    return lower, upper


def pair_capacity(f: float) -> float:
    """Conservative per-pair capacity in bits, clamped at zero."""
    lower, _ = pair_capacity_bounds(f)
    return max(0.0, lower)


@dataclass(frozen=True)
class EnsembleSpec:
    """A set of distinguishable pair flows: (fidelity, rate in pairs/s)."""

    entries: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for f, r in self.entries:
            if not 0.0 <= check_real(f, "fidelity") <= 1.0:
                raise ValueError(f"fidelity must be in [0, 1], got {f}")
            if not check_real(r, "rate") >= 0.0:  # NaN included
                raise ValueError(f"rate must be nonnegative, got {r}")


def ensemble_capacity(spec: EnsembleSpec) -> float:
    """Aggregate capacity in bits/s: sum of rate * per-pair capacity."""
    return sum(r * pair_capacity(f) for f, r in spec.entries)
