"""Property tests for the pruned builder's grid rounding, DEJMPS kernel and output."""

import math
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import edge_records, make_chain
from entflow.hypergraph import (
    _RATE_SLACK,
    _SWEEP_SLACK,
    OP_CODE,
    FidelityGrid,
    _purify_sweep,
    _purify_table,
    _span_winners,
    build_pruned_hypergraph,
)
from entflow.physics import (
    CLAMP_EVENTS,
    DEFAULT_NOISE,
    PURIFY_MODELS,
    NoiseParams,
    _check_fidelity,
    dejmps,
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
    scalar = [purify(a, b) for a, b in pairs]
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
    fidelity = hg.columns.exact_fidelity
    bucket = (np.searchsorted(grid.as_array(), fidelity, side="right") - 1).tolist()
    for f, b in zip(fidelity.tolist()[2:], bucket[2:]):
        assert b == grid.round_down_index(f)
    # every link vertex is the output of exactly one start, swap or purify edge
    edges = edge_records(hg)
    producer_rate = {e.output: e.rate_bound for e in edges if e.op != "end"}
    assert sorted(producer_rate) == list(range(2, len(fidelity)))
    for e in edges:
        if e.op == "purify":
            assert all(bucket[e.output] > bucket[i] for i in e.inputs)
        elif e.op == "swap":
            assert e.rate_bound == min(producer_rate[i] for i in e.inputs)


_BASE = 2  # the vertex _swept numbers a block's first bucket


def _swept(block, grid, noise, purify_model):
    """``_purify_sweep`` on a block given as a dict, bucket -> (exact
    fidelity, rate, op code, input0, input1): the swept block in that form,
    in pool order (the dict's buckets, then those the sweep made, in the
    order made), each purification naming its inputs by their buckets."""
    buckets = sorted(block)
    columns = [buckets, *([block[k][c] for k in buckets] for c in range(5))]
    made = _purify_sweep(columns, _BASE, grid, noise, purify_model)
    bucket = columns[0]
    assert sorted([*block, *made]) == bucket  # each bucket once, the columns sorted by it

    def entry(k):
        f, r, op, in0, in1 = (column[bisect_left(bucket, k)] for column in columns[1:])
        if op == OP_CODE["purify"]:
            in0, in1 = bucket[in0 - _BASE], bucket[in1 - _BASE]
        return f, r, op, in0, in1

    return {k: entry(k) for k in [*block, *made]}


def _full_scan_sweep(block, grid, noise, purify_model):
    """The purification sweep as it was before rows stopped early: every
    row tries every partner at or below the cursor, in ascending order."""
    ideal = purify_model == "ideal-dejmps"
    vals = grid.values
    occupied = sorted(block)
    fid, rate = [block[k][0] for k in occupied], [block[k][1] for k in occupied]
    pos = 0
    while pos < len(occupied):
        k, f_hi, r_hi = occupied[pos], fid[pos], rate[pos]
        up = vals[k + 1] if k + 1 < len(vals) else math.inf
        if ideal:
            _check_fidelity("f1", f_hi)
        for k1, f_lo, r_lo in zip(occupied[: pos + 1], fid, rate):
            f_new, p = dejmps(f_hi, f_lo) if ideal else purify(f_hi, f_lo, noise, purify_model)
            if f_new < up:
                continue
            kn = bisect_right(vals, f_new) - 1
            r_new = (0.5 * r_hi if k1 == k else min(r_hi, r_lo)) * p
            inc = block.get(kn)
            if inc is not None and (r_new < inc[1] or (r_new == inc[1] and f_new <= inc[0])):
                continue
            at = bisect_left(occupied, kn)
            if inc is None:
                occupied.insert(at, kn)
                fid.insert(at, f_new)
                rate.insert(at, r_new)
            else:
                fid[at], rate[at] = f_new, r_new
            block[kn] = (f_new, r_new, OP_CODE["purify"], k, k1)
        pos += 1


def _aimed_partner(f1, target):
    """The f2 whose ideal DEJMPS output with f1 is ``target``: the map is a
    ratio of two functions linear in f2."""
    a = (2 * f1 - (1 - f1) * 2 / 3) / 3  # the success probability's slope in f2
    b = f1 / 3 + 5 * (1 - f1) / 9
    c, d = f1 - (1 - f1) / 9, (1 - f1) / 9  # the numerator's slope and intercept
    return (d - target * b) / (target * a - c)


def _ulps(f, n):
    """``f`` moved ``n`` floats up (or down, for a negative ``n``)."""
    for _ in range(abs(n)):
        f = np.nextafter(f, math.copysign(math.inf, n))
    return float(f)


@st.composite
def _sweep_blocks(draw):
    """A grid and a node-pair block of swap incumbents, each fidelity in its
    bucket. The fidelities sit within a few ulps of a grid value g; some
    blocks add the float below g and a row whose ideal DEJMPS output with g
    is the last float below the bottom of the next bucket up: there the
    kernel's ulp-level wobble meets the early stop."""
    grid = FidelityGrid.uniform(draw(st.integers(min_value=2, max_value=40)))
    vals = grid.values
    fids = {}

    def put(f):
        k = grid.round_down_index(f)
        if k >= 0 and k not in fids and f <= 1.0:
            fids[k] = f

    for g in draw(st.lists(st.sampled_from(vals), min_size=1, max_size=6)):
        rows = [k for k in range(grid.round_down_index(g) + 1, len(vals) - 1)
                if grid.round_down_index(_aimed_partner(g, vals[k + 1])) == k]
        if rows:
            up = vals[draw(st.sampled_from(rows)) + 1]
            near = (_ulps(_aimed_partner(g, up), n) for n in range(-8, 9))
            put(max((f for f in near if dejmps(f, g)[0] < up), default=-1.0))
            put(g)
            put(_ulps(g, -1))
        else:
            put(_ulps(g, draw(st.integers(-3, 3))))
    rates = st.sampled_from([0.25, 0.5, 1.0])  # a small set, so that rates tie
    block = {k: (f, draw(rates), OP_CODE["swap"], 0, 1) for k, f in fids.items()}
    return grid, block


# a block on which a row that stopped at the first output below the next
# bucket, with no slack, would miss a purification: with bucket 9's
# incumbent, partner 8 at 11/14 gives an output a float below 6/7, the
# bottom of bucket 10, and partner 7, a float below 11/14, gives 6/7
_STRADDLE = (FidelityGrid.uniform(15), {
    7: (float.fromhex("0x1.9249249249248p-1"), 1.0, OP_CODE["swap"], 0, 1),
    8: (float.fromhex("0x1.9249249249249p-1"), 1.0, OP_CODE["swap"], 0, 1),
    9: (float.fromhex("0x1.b627627627626p-1"), 1.0, OP_CODE["swap"], 0, 1),
})


def _swap_block(incumbents):
    return {k: (f, r, OP_CODE["swap"], 0, 1) for k, (f, r) in incumbents.items()}


# a block whose row at bucket 10 can win nothing: its self-purification and
# both its partners reach bucket 11, the top it can reach, held at rate 1.0,
# four times the row's
_V15 = FidelityGrid.uniform(15).values
_HELD = (FidelityGrid.uniform(15), _swap_block(
    {**{k: (_ulps(_V15[k + 1], -1), 0.25) for k in (8, 9, 10)}, 11: (_V15[11], 1.0)}))

# a block on which a candidate ties its bucket's incumbent on rate exactly and
# wins on fidelity: with bucket 10's incumbent at the grid value 7/9 and
# partner 9 a float below it, the kernel's success probability is p_self, the
# float of the self-purification, so candidate (10, 9) reaches bucket 11 at
# rate p_self, the rate held there at the bucket's bottom
_V19 = FidelityGrid.uniform(19).values
_TIE = (FidelityGrid.uniform(19), _swap_block({
    9: (_ulps(_V19[10], -1), 1.0), 10: (_V19[10], 1.0),
    11: (_V19[11], dejmps(_V19[10], _V19[10])[1]),
}))


@settings(max_examples=150, deadline=None)
@given(_sweep_blocks(), st.sampled_from(PURIFY_MODELS),
       st.builds(NoiseParams, p2=unit, eta=unit))
@example(_STRADDLE, "ideal-dejmps", DEFAULT_NOISE)
@example(_HELD, "ideal-dejmps", DEFAULT_NOISE)
@example(_TIE, "ideal-dejmps", DEFAULT_NOISE)
def test_purify_sweep_equals_the_full_scan(case, model, noise):
    # the early stop skips only partners that cannot lift a bucket: the same
    # incumbents, bit for bit and in the same pool order (which orders the
    # next span's candidates), and the same clamp events
    grid, block = case
    expected = dict(block)
    CLAMP_EVENTS.reset()
    _full_scan_sweep(expected, grid, noise, model)
    full_scan_clamps = CLAMP_EVENTS.count
    CLAMP_EVENTS.reset()
    swept = _swept(block, grid, noise, model)
    assert list(swept.items()) == list(expected.items())
    assert CLAMP_EVENTS.count == full_scan_clamps


def test_a_row_that_can_win_nothing_makes_one_kernel_call(monkeypatch):
    # _HELD's row at bucket 10 ends after its self-purification
    calls = []

    def counted(f1, f2):
        calls.append(f1)
        return dejmps(f1, f2)

    grid, block = _HELD
    monkeypatch.setattr("entflow.hypergraph.dejmps", counted)
    _swept(block, grid, DEFAULT_NOISE, "ideal-dejmps")
    assert calls.count(block[10][0]) == 1


def test_a_candidate_that_ties_the_held_rate_wins_on_fidelity():
    # _TIE's bucket 11 goes to candidate (10, 9) at the rate it held
    grid, block = _TIE
    swept = _swept(block, grid, DEFAULT_NOISE, "ideal-dejmps")
    assert swept[11][1:] == (block[11][1], OP_CODE["purify"], 10, 9)
    assert swept[11][0] > block[11][0]


def _exact_success(f1, f2):
    f1, f2 = Fraction(f1), Fraction(f2)
    return f1 * f2 + f1 * (1 - f2) / 3 + f2 * (1 - f1) / 3 + 5 * (1 - f1) * (1 - f2) / 9


def _exact_dejmps(f1, f2):
    f1, f2 = Fraction(f1), Fraction(f2)
    return (f1 * f2 + (1 - f1) * (1 - f2) / 9) / _exact_success(f1, f2)


@given(fidelities, fidelities, fidelities)
def test_dejmps_output_rises_with_the_partner_within_half_the_slack(f1, f2, f2_up):
    # the premise of the sweep's early stop: the exact map rises with f2 on
    # [1/4, 1], and the float kernel is that map to well under the slack
    f2, f2_up = sorted((f2, f2_up))
    assert dejmps(f1, f2)[0] <= dejmps(f1, f2_up)[0] + _SWEEP_SLACK / 2
    assert _exact_dejmps(f1, f2) <= _exact_dejmps(f1, f2_up)
    for f in (f2, f2_up):
        assert abs(Fraction(dejmps(f1, f)[0]) - _exact_dejmps(f1, f)) <= 1e-15


@given(fidelities, fidelities, fidelities)
def test_dejmps_success_rises_with_the_partner_within_half_the_rate_slack(f1, f2, f2_up):
    # the premise of the sweep's rate cut: the exact success probability has
    # slope (8 f1 - 2) / 9 >= 0 in f2 on [1/4, 1], and the float kernel keeps
    # that order to a factor well under 1 + the slack
    f2, f2_up = sorted((f2, f2_up))
    assert _exact_success(f1, f2) <= _exact_success(f1, f2_up)
    assert dejmps(f1, f2)[1] <= dejmps(f1, f2_up)[1] * (1 + _RATE_SLACK / 2)


@given(fidelities | st.integers(0, 64).map(lambda n: _ulps(1.0, -n)),
       fidelities | st.integers(0, 64).map(lambda n: _ulps(1.0, -n)))
def test_dejmps_output_stays_in_the_fidelity_range(f1, f2):
    # why the sweep checks only the fidelities a block enters with: each row
    # it adds is a dejmps output, which the kernel's rounding keeps in [1/4, 1]
    # (see _purify_sweep), also for inputs within ulps of 1
    assert 0.25 <= dejmps(f1, f2)[0] <= 1.0


@pytest.mark.parametrize("model", PURIFY_MODELS)
@pytest.mark.parametrize("f", [math.nan, 0.2, 1.5, _ulps(1.0, 1)])
def test_purify_sweep_refuses_a_block_entering_out_of_range(f, model):
    block = _swap_block({0: (0.5, 1.0), 3: (f, 1.0)})
    with pytest.raises(ValueError, match=f"^{re.escape(f'f1 must be in [0.25, 1], got {f}')}$"):
        _swept(block, FidelityGrid.uniform(10), DEFAULT_NOISE, model)
