"""Tests for the per-pair capacity bound and ensemble aggregation."""

import math

import pytest
from scipy.optimize import brentq

from entflow.capacity import (
    EnsembleSpec,
    binary_entropy,
    ensemble_capacity,
    pair_capacity,
    pair_capacity_bounds,
)


def test_binary_entropy_endpoints():
    # [TRIVIAL]
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_perfect_pair_capacity_is_one_bit():
    # [TRIVIAL] F = 1 means zero depolarising probability.
    assert pair_capacity(1.0) == 1.0
    lower, upper = pair_capacity_bounds(1.0)
    assert lower == upper == 1.0


def test_capacity_zero_crossing():
    # [DERIVED] Root of the unclamped lower bound located with an
    # independent bracketing root finder.
    f_star = brentq(lambda f: pair_capacity_bounds(f)[0], 0.75, 0.95, xtol=1e-12)
    assert f_star == pytest.approx(0.8107, abs=5e-4)
    assert pair_capacity(f_star - 0.01) == 0.0
    assert pair_capacity(f_star + 0.01) > 0.0


def test_lower_bound_may_be_negative_but_capacity_clamped():
    lower, upper = pair_capacity_bounds(0.6)
    assert lower < 0.0
    assert upper > lower
    assert pair_capacity(0.6) == 0.0


def test_capacity_monotone_above_threshold():
    fids = [0.82, 0.85, 0.9, 0.95, 0.99, 1.0]
    caps = [pair_capacity(f) for f in fids]
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_reference_capacity_value():
    # [DERIVED] f = 0.98: 1 - H2(0.02) - 0.02*log2(3) = 0.82686...
    assert pair_capacity(0.98) == pytest.approx(0.82686, abs=1e-5)


def test_ensemble_capacity_is_rate_weighted_sum():
    spec = EnsembleSpec(entries=((0.98, 100.0), (0.9, 50.0), (0.6, 1000.0)))
    expected = 100.0 * pair_capacity(0.98) + 50.0 * pair_capacity(0.9)
    assert ensemble_capacity(spec) == pytest.approx(expected, rel=1e-12)


def test_ensemble_capacity_linearity():
    base = EnsembleSpec(entries=((0.95, 10.0),))
    doubled = EnsembleSpec(entries=((0.95, 20.0),))
    assert ensemble_capacity(doubled) == pytest.approx(
        2.0 * ensemble_capacity(base), rel=1e-12
    )


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(entries=((1.2, 1.0),))
    with pytest.raises(ValueError):
        EnsembleSpec(entries=((0.9, -1.0),))
    assert ensemble_capacity(EnsembleSpec()) == 0.0


def test_ensemble_spec_refuses_a_nan_rate_and_a_value_that_is_not_a_real_number():
    for entries, message in (
        (((0.9, math.nan),), "rate must be nonnegative, got nan"),
        (((0.9, "1"),), "rate must be a real number, got '1'"),
        ((("0.9", 1.0),), "fidelity must be a real number, got '0.9'"),
        (((math.nan, 1.0),), "fidelity must be in [0, 1], got nan"),
    ):
        with pytest.raises(ValueError) as info:
            EnsembleSpec(entries=entries)
        assert str(info.value) == message


def test_ensemble_spec_refuses_a_boolean():
    for entries, message in (
        (((True, 1.0),), "fidelity must be a real number, got True"),
        (((0.9, True),), "rate must be a real number, got True"),
    ):
        with pytest.raises(ValueError) as info:
            EnsembleSpec(entries=entries)
        assert str(info.value) == message
