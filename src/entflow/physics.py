"""Closed-form fidelity and noise models for swapping and purification.

All functions operate on Werner-state fidelities, and this module is the
only home of the swap and purification formulas and of the purification
credit (``PURIFY_CREDIT``). The swap model follows the standard
depolarizing-gate / noisy-measurement composition (Briegel, Duer, Cirac &
Zoller, PRL 81, 5932, 1998); two purification maps are provided:

* ``as-printed`` -- the gate-noise DEJMPS output formula taken verbatim
  from the hardware-noise literature. Its output is range-clamped because
  the printed formula fails its own perfect-input sanity check (it yields
  -1/12 for ideal inputs and ideal operations); a module-level counter
  records every clamping event.
* ``ideal-dejmps`` -- the perfect-operation DEJMPS/BBPSSW map for Werner
  inputs, the default purification model (``DEFAULT_PURIFY_MODEL``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

FIDELITY_FLOOR = 0.25  # fully depolarized Werner state

PURIFY_MODELS = ("ideal-dejmps", "as-printed")
# pairs every rate model credits a successful purification attempt, which draws one
# pair from each input; at most 1, as RateLP.of's bound on every rate (rate_cap) needs
PURIFY_CREDIT = 0.5


def check_real(value, name: str, error: type[ValueError] = ValueError):
    """``value``, refused with ``error`` naming ``name`` unless it is a real
    number, a boolean not included; the caller's range check refuses NaN."""
    # float first: it skips the slow ABC check
    if not isinstance(value, float) and (isinstance(value, bool) or not isinstance(value, Real)):
        raise error(f"{name} must be a real number, got {value!r}")
    return value


def check_int(value, name: str, error: type[ValueError] = ValueError):
    """``value``, refused with ``error`` naming ``name`` unless it is an
    integer, a boolean not included; the caller checks its range."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class NoiseParams:
    """Gate/measurement reliabilities and base generated-pair fidelity."""

    p1: float = 0.995
    p2: float = 0.995
    eta: float = 0.995
    f0: float = 0.98

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "eta"):
            value = getattr(self, name)
            if not 0.0 <= check_real(value, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.5 < check_real(self.f0, "f0") <= 1.0:
            raise ValueError(f"f0 must be in (0.5, 1], got {self.f0}")


DEFAULT_NOISE = NoiseParams()
DEFAULT_PURIFY_MODEL = "ideal-dejmps"


class EventCounter:
    """Tally of one kind of event, such as clamped outputs.

    ``count`` is the process-wide total and ``reset`` clears it.
    ``thread_count`` is the calling thread's own tally, which only grows:
    compare it before and after a call to see what that call did, whatever
    other threads do meanwhile.
    """

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def thread_count(self) -> int:
        return getattr(self._local, "count", 0)

    def tick(self, n: int = 1) -> None:
        with self._lock:
            self.count += n
        self._local.count = self.thread_count + n

    def reset(self) -> None:
        with self._lock:
            self.count = 0


CLAMP_EVENTS = EventCounter()  # fidelity outputs clamped into [0, 1]


def _check_fidelity(name: str, f: float) -> None:
    if not FIDELITY_FLOOR <= check_real(f, name) <= 1.0:
        raise ValueError(f"{name} must be in [0.25, 1], got {f}")


def gate_factor(noise: NoiseParams) -> float:
    """Depolarizing factor one noisy swap applies to the Werner parameters."""
    return noise.p1 ** 2 * noise.p2 * (4.0 * noise.eta ** 2 - 1.0) / 3.0


def werner_swap(f1, f2, g):
    """Unchecked swap of two Werner pairs for gate factor ``g``.

    The single pairwise swap expression: the builders, ``rate-dp`` and the
    oracle all call it, on floats or elementwise on numpy arrays.
    """
    return 0.25 * (1.0 + g * (4.0 * f1 - 1.0) * (4.0 * f2 - 1.0) / 3.0)


def swap_fidelity(f1: float, f2: float, noise: NoiseParams = DEFAULT_NOISE) -> float:
    """Output fidelity of a single entanglement swap of two Werner pairs."""
    _check_fidelity("f1", f1)
    _check_fidelity("f2", f2)
    return werner_swap(f1, f2, gate_factor(noise))


def chain_swap_fidelity(fids, noise: NoiseParams = DEFAULT_NOISE) -> float:
    """Fidelity after connecting N pairs with N-1 consecutive swaps.

    With a single input pair the value passes through unchanged.
    """
    fids = list(fids)
    if not fids:
        raise ValueError("need at least one input fidelity")
    for f in fids:
        _check_fidelity("fidelity", f)
    prod = 1.0
    for f in fids:
        prod *= (4.0 * f - 1.0) / 3.0
    return 0.25 * (1.0 + 3.0 * gate_factor(noise) ** (len(fids) - 1) * prod)


def purify_success_prob(f1: float, f2: float, noise: NoiseParams = DEFAULT_NOISE) -> float:
    """Success probability of one DEJMPS round under noisy gates/measurements."""
    _check_fidelity("f1", f1)
    _check_fidelity("f2", f2)
    return as_printed_success(f1, f2, noise)


def purify_output_fidelity_raw(
    f1: float, f2: float, noise: NoiseParams = DEFAULT_NOISE
) -> float:
    """Unclamped output fidelity of the as-printed noisy DEJMPS formula."""
    p_succ = purify_success_prob(f1, f2, noise)  # checks f1 and f2
    return as_printed_fidelity(f1, f2, p_succ, noise)


def as_printed_success(f1, f2, noise: NoiseParams):
    """Unchecked as-printed success probability, on floats or numpy arrays:
    at least 1/2 for fidelities in [0.25, 1], where every 4f - 1 >= 0."""
    return (1.0 / 18.0) * (
        9.0
        + (4.0 * f1 - 1.0) * (4.0 * f2 - 1.0) * (1.0 - 2.0 * noise.eta) ** 2 * noise.p2 ** 2
    )


def as_printed_fidelity(f1, f2, p_succ, noise: NoiseParams):
    """Unchecked, unclamped as-printed output fidelity, on floats or numpy arrays."""
    eta = noise.eta
    p2sq = noise.p2 ** 2
    numerator = (
        9.0
        + p2sq * ((1.0 - 8.0 * f2) - 8.0 * f1 * (6.0 * eta ** 2 + 6.0 * eta - 1.0))
        + 16.0 * p2sq * f1 * f2 * (12.0 * eta ** 2 - 12.0 * eta + 5.0)
    )
    return numerator / (72.0 * p_succ)


def dejmps(f1, f2):
    """Unchecked perfect-operation DEJMPS map: (output fidelity, success prob).

    The single expression ``purify``, the pruned builder and the standard
    builder's purification table call, on floats or elementwise on numpy
    arrays. For identical inputs above 0.5 the output fidelity strictly
    exceeds the input.
    """
    p = (
        f1 * f2
        + f1 * (1.0 - f2) / 3.0
        + f2 * (1.0 - f1) / 3.0
        + 5.0 * (1.0 - f1) * (1.0 - f2) / 9.0
    )
    f_out = (f1 * f2 + (1.0 - f1) * (1.0 - f2) / 9.0) / p
    return f_out, p


def purify_map(f1, f2, noise: NoiseParams, model: str):
    """Unchecked map of ``model``, on floats or elementwise on numpy arrays:
    (output fidelity, success probability, clamped). The one place that
    chooses the model and clamps: ``ideal-dejmps`` is ``dejmps``, clamping
    nothing, and ``as-printed`` clips its output into [0, 1], marking what it
    clipped. Each caller counts clamp events by its own rule."""
    if model == "ideal-dejmps":
        return (*dejmps(f1, f2), False)
    p = as_printed_success(f1, f2, noise)
    raw = as_printed_fidelity(f1, f2, p, noise)
    return np.clip(raw, 0.0, 1.0), p, (raw < 0.0) | (raw > 1.0)


def purify(
    f1: float,
    f2: float,
    noise: NoiseParams = DEFAULT_NOISE,
    model: str = DEFAULT_PURIFY_MODEL,
) -> tuple[float, float]:
    """The one checked call of either purification map; a clamped output
    ticks ``CLAMP_EVENTS`` once, so sweeps keep running while model misuse
    stays visible.

    Returns (output fidelity, success probability). ``f1`` is the retained
    ("protected") pair in the asymmetric reading of the as-printed model.
    """
    check_purify_model(model)
    _check_fidelity("f1", f1)
    _check_fidelity("f2", f2)
    f_out, p, clamped = purify_map(f1, f2, noise, model)
    if clamped:
        CLAMP_EVENTS.tick()
    return f_out, p


def check_purify_model(model: str) -> None:
    """Refuse a purification model that is not one of ``PURIFY_MODELS``."""
    if model not in PURIFY_MODELS:
        raise ValueError(f"purify_model must be one of {PURIFY_MODELS}, got {model!r}")


def purify_model_is_symmetric(model: str) -> bool:
    """True when the purification map is invariant under input exchange."""
    check_purify_model(model)
    return model == "ideal-dejmps"
