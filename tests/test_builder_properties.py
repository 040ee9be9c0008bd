"""Property tests for the pruned builder's grid rounding, DEJMPS kernel and output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from entflow.hypergraph import FidelityGrid, _purify_table, _span_winners, build_pruned_hypergraph
from entflow.physics import (
    CLAMP_EVENTS,
    DEFAULT_NOISE,
    PURIFY_MODELS,
    NoiseParams,
    dejmps,
    ideal_dejmps,
    purify,
)

grids = st.lists(
    st.floats(min_value=0.5, max_value=1.0), min_size=1, max_size=60, unique=True
).map(lambda vals: FidelityGrid(tuple(sorted(vals))))
probes = st.floats(allow_nan=True, allow_infinity=True)
fidelities = st.floats(min_value=0.25, max_value=1.0)
# swap candidates (block, bucket, rate, fidelity) from small value sets, so
# that candidates often tie on rate, or on rate and fidelity exactly
candidates = st.lists(st.tuples(
    st.integers(0, 3), st.integers(0, 5),
    st.sampled_from([0.5, 1.0, 1.5]), st.sampled_from([0.6, 0.8, 0.9]),
), max_size=80)


def _searchsorted_index(grid, f):
    return int(np.searchsorted(np.asarray(grid.values), f, side="right")) - 1


@given(grids, st.lists(probes, max_size=20))
def test_round_down_index_equals_searchsorted(grid, extra):
    vals = np.asarray(grid.values)
    cases = [0.0, 1.0, float("nan"), *extra]
    cases += vals.tolist()
    cases += np.nextafter(vals, -np.inf).tolist() + np.nextafter(vals, np.inf).tolist()
    for f in cases:
        for probe in (f, np.float64(f)):
            assert grid.round_down_index(probe) == _searchsorted_index(grid, probe)


@given(st.lists(st.tuples(fidelities, fidelities), min_size=1, max_size=40))
def test_dejmps_array_call_equals_scalar_ideal_dejmps_bit_for_bit(pairs):
    f_out, p = dejmps(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))
    scalar = [ideal_dejmps(a, b) for a, b in pairs]
    assert f_out.tobytes() == np.array([f for f, _ in scalar]).tobytes()
    assert p.tobytes() == np.array([q for _, q in scalar]).tobytes()


@pytest.mark.parametrize("noise", [DEFAULT_NOISE, NoiseParams(p1=0.9, p2=0.9, eta=0.9)],
                         ids=["default-noise", "noise-0.9"])
@pytest.mark.parametrize("size", [20, 60, 100])
def test_as_printed_purify_table_equals_scalar_purify_bit_for_bit(size, noise):
    grid = FidelityGrid.uniform(size)
    CLAMP_EVENTS.reset()
    pairs = [[purify(a, b, noise, "as-printed") for b in grid.values] for a in grid.values]
    scalar_clamps = CLAMP_EVENTS.count
    CLAMP_EVENTS.reset()
    f_out, p_succ, _ = _purify_table(grid, noise, "as-printed")
    assert CLAMP_EVENTS.count == scalar_clamps > 0
    assert f_out.tobytes() == np.array([[f for f, _ in row] for row in pairs]).tobytes()
    assert p_succ.tobytes() == np.array([[p for _, p in row] for row in pairs]).tobytes()


unit = st.floats(min_value=0.0, max_value=1.0)


@given(fidelities, fidelities, st.builds(NoiseParams, p2=unit, eta=unit),
       st.sampled_from(PURIFY_MODELS))
def test_purify_success_probability_is_at_least_one_half(f1, f2, noise, model):
    # both maps succeed with (9 + (4f1-1)(4f2-1)k)/18, k = ((1-2eta)p2)^2 as
    # printed (purify_success_prob) and 1 ideal, so no purification divides
    # by zero. The as-printed kernel rounds 9/18 to 1/2 exactly; the ideal one
    # sums four terms and can round a few ulps below it.
    floor = 0.5 if model == "as-printed" else 0.5 - 4 * np.finfo(float).eps
    assert purify(f1, f2, noise, model)[1] >= floor


def _sequential_winners(keys, rates, fids):
    """The sequential rule the builder once ran: a candidate replaces the
    incumbent of its key only on a strictly higher rate, or an equal rate
    and a strictly higher fidelity. A key keeps the place its first
    candidate gave it."""
    incumbent = {}
    for c, (key, rate, fid) in enumerate(zip(keys, rates, fids)):
        inc = incumbent.get(key)
        if inc is None or rate > rates[inc] or (rate == rates[inc] and fid > fids[inc]):
            incumbent[key] = c
    return list(incumbent.values())


@given(candidates)
def test_span_winners_follow_the_sequential_replacement_rule(cands):
    # the same winner per (block, bucket), and the buckets in the same order
    table = np.array(cands, float).reshape(-1, 4)
    keys = (table[:, 0] * 6 + table[:, 1]).astype(np.int64)
    rate, fid = table[:, 2], table[:, 3]
    winners = _span_winners(keys, 4 * 6, rate, fid)
    assert winners.tolist() == _sequential_winners(keys.tolist(), rate.tolist(), fid.tolist())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=20.0, max_value=150.0), min_size=1, max_size=6),
    st.integers(min_value=2, max_value=100),
    st.sampled_from(PURIFY_MODELS),
)
def test_pruned_build_invariants_on_random_chains(lengths, size, model):
    grid = FidelityGrid.uniform(size)
    hg = build_pruned_hypergraph(make_chain(lengths), grid, DEFAULT_NOISE, model)
    verts = hg.to_json()["vertices"]  # rows: u, v, exact_fidelity, bucket, kind
    bucket = [row[3] for row in verts]
    for _, _, f, b, _ in verts[2:]:
        assert b == grid.round_down_index(f)
    # every link vertex is the output of exactly one start, swap or purify edge
    producer_rate = {e.output: e.rate_bound for e in hg.edges if e.op != "end"}
    assert sorted(producer_rate) == list(range(2, len(verts)))
    for e in hg.edges:
        if e.op == "purify":
            assert all(bucket[e.output] > bucket[i] for i in e.inputs)
        elif e.op == "swap":
            assert e.rate_bound == min(producer_rate[i] for i in e.inputs)
