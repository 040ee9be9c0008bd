"""Tests for the noisy swap / purification fidelity maps."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from entflow.physics import (
    CLAMP_EVENTS,
    DEFAULT_NOISE,
    PURIFY_MODELS,
    NoiseParams,
    chain_swap_fidelity,
    dejmps,
    purify,
    purify_map,
    purify_model_is_symmetric,
    purify_output_fidelity_raw,
    purify_success_prob,
    swap_fidelity,
)

PERFECT = NoiseParams(p1=1.0, p2=1.0, eta=1.0)


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(p1=1.2, p2=1.0, eta=1.0)
    with pytest.raises(ValueError):
        NoiseParams(p1=1.0, p2=-0.1, eta=1.0)
    with pytest.raises(ValueError):
        NoiseParams(f0=0.5)


@pytest.mark.parametrize("name", ["p1", "p2", "eta", "f0"])
def test_noise_params_refuse_a_value_that_is_not_a_real_number(name):
    with pytest.raises(ValueError) as info:
        NoiseParams(**{name: "0.9"})
    assert str(info.value) == f"{name} must be a real number, got '0.9'"


@pytest.mark.parametrize("name", ["p1", "p2", "eta", "f0"])
def test_noise_params_refuse_a_boolean(name):
    with pytest.raises(ValueError) as info:
        NoiseParams(**{name: True})
    assert str(info.value) == f"{name} must be a real number, got True"


def test_swap_perfect_ops_matches_werner_closed_form():
    # [DERIVED] With perfect operations the swap of two Werner pairs is
    # F' = F1*F2 + (1-F1)*(1-F2)/3, computed here independently of the
    # gate-factor parameterisation used by the implementation.
    for f1, f2 in [(1.0, 1.0), (0.98, 0.98), (0.9, 0.7), (0.5, 0.5)]:
        expected = f1 * f2 + (1.0 - f1) * (1.0 - f2) / 3.0
        assert swap_fidelity(f1, f2, PERFECT) == pytest.approx(expected, rel=1e-12)


def test_swap_default_noise_value():
    # [DERIVED] One swap of two F=0.98 pairs at the 0.995 hardware defaults:
    # 0.25 * (1 + 3 * 0.97197 * ((4*0.98-1)/3)^2) = 0.94061...
    assert swap_fidelity(0.98, 0.98) == pytest.approx(0.94061, abs=1e-5)


def test_swap_noise_strictly_degrades():
    assert swap_fidelity(0.98, 0.98) < swap_fidelity(0.98, 0.98, PERFECT)


def test_chain_swap_order_independence():
    fids = [0.98, 0.93, 0.99, 0.88]
    a = chain_swap_fidelity(fids)
    b = chain_swap_fidelity(list(reversed(fids)))
    assert a == pytest.approx(b, rel=1e-14)


def test_chain_swap_single_pair_passthrough():
    # [TRIVIAL] A one-link chain involves no swap.
    assert chain_swap_fidelity([0.93]) == 0.93


def test_chain_swap_matches_pairwise_composition():
    fids = [0.98, 0.95, 0.97]
    step = swap_fidelity(swap_fidelity(fids[0], fids[1]), fids[2])
    assert chain_swap_fidelity(fids) == pytest.approx(step, rel=1e-12)


def test_swap_domain_check():
    with pytest.raises(ValueError):
        swap_fidelity(0.1, 0.9)
    with pytest.raises(ValueError):
        swap_fidelity(0.9, 1.1)


def test_ideal_dejmps_fixed_points():
    # [DERIVED] F=1 and F=0.5 are fixed points of the perfect DEJMPS map.
    f_out, p = purify(1.0, 1.0)
    assert f_out == pytest.approx(1.0, abs=1e-15)
    assert p == pytest.approx(1.0, abs=1e-15)
    f_out, p = purify(0.5, 0.5)
    assert f_out == pytest.approx(0.5, rel=1e-12)


def test_ideal_dejmps_improves_high_fidelity_inputs():
    for f in (0.7, 0.85, 0.98):
        f_out, p = purify(f, f)
        assert f_out > f
        assert 0.0 < p <= 1.0


def test_ideal_dejmps_symmetric():
    a = purify(0.9, 0.7)
    b = purify(0.7, 0.9)
    assert a[0] == pytest.approx(b[0], rel=1e-12)
    assert a[1] == pytest.approx(b[1], rel=1e-12)
    assert purify_model_is_symmetric("ideal-dejmps")
    assert not purify_model_is_symmetric("as-printed")


def test_purify_success_prob_perfect_inputs():
    # [DERIVED] f1 = f2 = 1 with perfect ops: (9 + 9*(1-2)^2)/18 = 1.
    assert purify_success_prob(1.0, 1.0, PERFECT) == pytest.approx(1.0, abs=1e-15)
    # [DERIVED] f1 = f2 = 0.25 zeroes the product term: p = 1/2.
    assert purify_success_prob(0.25, 0.25, PERFECT) == pytest.approx(0.5, abs=1e-15)


def test_as_printed_raw_perfect_inputs_is_negative():
    # [PAPER] The verbatim formula yields -1/12 for ideal inputs with
    # perfect operations, which is why the clamped wrapper exists.
    raw = purify_output_fidelity_raw(1.0, 1.0, PERFECT)
    assert raw == pytest.approx(-1.0 / 12.0, rel=1e-12)


def test_as_printed_clamp_counts_events():
    CLAMP_EVENTS.reset()
    out = purify(1.0, 1.0, PERFECT, "as-printed")[0]
    assert out == 0.0
    assert CLAMP_EVENTS.count == 1
    purify(1.0, 1.0, PERFECT, "as-printed")
    assert CLAMP_EVENTS.count == 2
    CLAMP_EVENTS.reset()
    assert CLAMP_EVENTS.count == 0


def test_purify_dispatcher():
    assert purify(0.9, 0.9) == dejmps(0.9, 0.9)
    f_as, p_as = purify(0.9, 0.9, DEFAULT_NOISE, model="as-printed")
    assert p_as == pytest.approx(purify_success_prob(0.9, 0.9), rel=1e-14)
    with pytest.raises(ValueError):
        purify(0.9, 0.9, model="nonsense")


def test_purify_refuses_an_unknown_model_with_check_purify_models_message():
    with pytest.raises(ValueError) as info:
        purify(0.9, 0.9, model="bogus")
    assert str(info.value) == f"purify_model must be one of {PURIFY_MODELS}, got 'bogus'"


def test_gate_factor_default_value():
    # [PAPER] g = p1^2 * p2 * (4*eta^2 - 1) / 3 at the default 0.995 settings.
    n = DEFAULT_NOISE
    g = n.p1 ** 2 * n.p2 * (4.0 * n.eta ** 2 - 1.0) / 3.0
    assert g == pytest.approx(0.97197, abs=5e-5)
    # The 3-link chain at f=1 inputs exposes g^2 directly.
    f_chain = chain_swap_fidelity([1.0, 1.0, 1.0])
    assert f_chain == pytest.approx(0.25 * (1.0 + 3.0 * g * g), rel=1e-12)


def test_zero_success_probability_raises():
    # eta = 0.5 kills the product term, so p = 1/2 > 0 always; force a zero
    # by checking the guard is at least present for the raw formula.
    with pytest.raises(ValueError):
        purify_success_prob(0.2, 0.9)
    assert math.isfinite(purify_output_fidelity_raw(0.9, 0.9))


fidelities = st.floats(min_value=0.25, max_value=1.0)
unit = st.floats(min_value=0.0, max_value=1.0)


@given(st.lists(st.tuples(fidelities, fidelities), min_size=1, max_size=40),
       st.builds(NoiseParams, p1=unit, p2=unit, eta=unit), st.sampled_from(PURIFY_MODELS))
@example([(1.0, 1.0), (0.9, 0.9), (0.25, 1.0)], PERFECT, "as-printed")  # -1/12: clamped up
@example([(0.9, 0.9), (1.0, 1.0)], NoiseParams(eta=0.0, p2=1.0), "as-printed")  # 5/4: down
def test_purify_map_on_arrays_equals_scalar_purify_bit_for_bit(pairs, noise, model):
    f1, f2 = (np.array(column) for column in zip(*pairs))
    f_out, p, clamped = purify_map(f1, f2, noise, model)
    scalar, ticks = [], []
    for a, b in pairs:
        before = CLAMP_EVENTS.thread_count
        scalar.append(purify(a, b, noise, model))
        ticks.append(CLAMP_EVENTS.thread_count - before)
    assert f_out.tobytes() == np.array([f for f, _ in scalar]).tobytes()
    assert p.tobytes() == np.array([q for _, q in scalar]).tobytes()
    # the mask marks exactly the calls that ticked, each once
    assert np.broadcast_to(clamped, f_out.shape).tolist() == [t == 1 for t in ticks]
    assert np.count_nonzero(clamped) == sum(ticks)
    # and exactly the outputs the unclamped printed formula puts outside [0, 1]
    raw = [purify_output_fidelity_raw(a, b, noise) for a, b in pairs]
    outside = [model == "as-printed" and not 0.0 <= r <= 1.0 for r in raw]
    assert np.broadcast_to(clamped, f_out.shape).tolist() == outside


@pytest.mark.parametrize("call, name", [
    (lambda f: purify(f, 0.9), "f1"),
    (lambda f: swap_fidelity(0.9, f), "f2"),
    (lambda f: chain_swap_fidelity([0.9, f]), "fidelity"),
    (lambda f: purify_success_prob(f, 0.9), "f1"),
], ids=["purify", "swap", "chain-swap", "success-prob"])
@pytest.mark.parametrize("f", [True, False, "0.9", None])
def test_a_checked_map_refuses_a_fidelity_that_is_not_a_real_number(call, name, f):
    # True was read as a perfect pair, and a string or None raised a bare TypeError
    with pytest.raises(ValueError) as info:
        call(f)
    assert str(info.value) == f"{name} must be a real number, got {f!r}"
