"""Property tests for the single pairwise swap kernel in ``entflow.physics``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entflow.hypergraph import FidelityGrid, _swap_table
from entflow.physics import (
    DEFAULT_NOISE,
    NoiseParams,
    chain_swap_fidelity,
    gate_factor,
    swap_fidelity,
    werner_swap,
)

fidelities = st.floats(min_value=0.25, max_value=1.0)
# eta >= 0.5 keeps the gate factor nonnegative, the physical regime
noises = st.builds(
    NoiseParams,
    p1=st.floats(min_value=0.0, max_value=1.0),
    p2=st.floats(min_value=0.0, max_value=1.0),
    eta=st.floats(min_value=0.5, max_value=1.0),
)


@given(st.lists(st.tuples(fidelities, fidelities), min_size=1, max_size=40), noises)
def test_array_call_equals_scalar_calls_bit_for_bit(pairs, noise):
    g = gate_factor(noise)
    f1 = np.array([a for a, _ in pairs])
    f2 = np.array([b for _, b in pairs])
    scalar = np.array([werner_swap(a, b, g) for a, b in pairs])
    assert werner_swap(f1, f2, g).tobytes() == scalar.tobytes()


@given(fidelities, fidelities, noises)
def test_swap_is_symmetric(f1, f2, noise):
    g = gate_factor(noise)
    assert abs(werner_swap(f1, f2, g) - werner_swap(f2, f1, g)) <= 4 * np.finfo(float).eps


@given(fidelities, fidelities, fidelities, noises)
def test_swap_is_monotone_in_each_argument(a1, a2, other, noise):
    g = gate_factor(noise)
    lo, hi = sorted((a1, a2))
    assert werner_swap(lo, other, g) <= werner_swap(hi, other, g)
    assert werner_swap(other, lo, g) <= werner_swap(other, hi, g)


@given(fidelities, fidelities, noises)
def test_pairwise_swap_matches_chain_closed_form(f1, f2, noise):
    assert abs(swap_fidelity(f1, f2, noise) - chain_swap_fidelity([f1, f2], noise)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=129))
def test_swap_table_buckets_equal_scalar_round_downs(size):
    grid = FidelityGrid.uniform(size)
    _, buckets = _swap_table(grid, DEFAULT_NOISE)
    expected = [
        [grid.round_down_index(swap_fidelity(a, b)) for b in grid.values]
        for a in grid.values
    ]
    assert buckets.tolist() == expected
