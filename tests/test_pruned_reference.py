"""The pruned builder against the dict-based builder it replaced.

``_reference_sweep`` and ``reference_build`` are the pruned builder as it
was when each node-pair block was a dict, bucket -> (exact fidelity, rate,
op code, input0, input1), in insertion order: the span's swap winners in
order of their first candidate, then the buckets the sweep made, in the
order made. A purification named its inputs by bucket, and each finished
block was re-sorted and mapped to vertices. The builder now holds each block
as columns sorted by bucket. The golden digests pin fixed fixtures only, and
exact (rate, fidelity) ties, which the pool order breaks, also occur on
generated chains, so this compares the two on generated chains byte for
byte.
"""

import math
from bisect import bisect_left, bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from entflow.hypergraph import (
    _RATE_SLACK,
    _SWEEP_SLACK,
    DOCUMENT_COLUMNS,
    OP_CODE,
    SINK,
    SOURCE,
    FidelityGrid,
    Hypergraph,
    _columns,
    _edge_block,
    _span_swaps,
    _span_winners,
    build_pruned_hypergraph,
)
from entflow.physics import (
    CLAMP_EVENTS,
    DEFAULT_NOISE,
    DEFAULT_PURIFY_MODEL,
    PURIFY_CREDIT,
    PURIFY_MODELS,
    NoiseParams,
    _check_fidelity,
    dejmps,
    gate_factor,
    purify,
)
from entflow.topology import Path, link_egr


def _reference_sweep(
    block: dict[int, tuple], grid: FidelityGrid, noise: NoiseParams, purify_model: str
) -> None:
    """One increasing-bucket purification sweep over a node-pair block.

    ``block`` maps each occupied bucket to its incumbent, the tuple (exact
    fidelity, rate, op code, input0, input1); a purification names its
    inputs by their buckets in the block. Candidates always land
    in a strictly higher bucket than both inputs, so a single ascending pass
    over the occupied buckets also captures cascaded purification: a bucket
    filled during the sweep is inserted ahead of the cursor, and every
    bucket behind it is final. A row scans partners from the cursor down,
    self-purification first. Under ideal DEJMPS, both the output f' and the
    success probability p rise with the partner's fidelity on [1/4, 1]:
    d f'/d f2 has numerator 42 f1 - 12 f1^2 - 3 >= 6.75 and d p/d f2 is
    (8 f1 - 2) / 9 >= 0. So the self-purification bounds the row: no
    candidate lands above the bucket of its output plus ``_SWEEP_SLACK``, nor
    beats credit r_hi p_self by a factor over 1 + ``_RATE_SLACK``. Let b be
    the first bucket above the cursor's that is empty or held at a rate
    within that bound. A row with b above that top bucket can win nothing;
    any other stops at the first output over ``_SWEEP_SLACK`` below the
    bottom of bucket b, as every lower partner lands under b, where the held
    rates beat it. As-printed calls can each clamp, so they never stop.

    Under ideal DEJMPS the fidelities a block enters with are checked once,
    in bucket order; the rows the sweep adds need no check. Each is a
    candidate with f' >= vals[k + 1] >= 1/2, and f' <= 1 in the kernel's
    rounding: each term the denominator adds to the numerator's f1 f2 is
    >= 0, and 5.0 (1 - f1)(1 - f2) / 9 >= (1 - f1)(1 - f2) / 9 under
    monotone rounding, so the numerator never exceeds the denominator. The
    as-printed ``purify`` checks every call.
    """
    ideal = purify_model == "ideal-dejmps"
    credit = 2.0 * PURIFY_CREDIT  # twice the LP's credit: ROADMAP item 21's discrepancy
    vals = grid.values
    occupied = sorted(block)  # and, in step, each bucket's fidelity and rate
    fid, rate = [block[k][0] for k in occupied], [block[k][1] for k in occupied]
    held = dict(zip(occupied, rate))  # each occupied bucket's rate
    if ideal:
        for f in fid:
            _check_fidelity("f1", f)
    for pos, k in enumerate(occupied):  # reaches the buckets filled ahead of the cursor
        f_hi, r_hi = fid[pos], rate[pos]
        up = vals[k + 1] if k + 1 < len(vals) else math.inf  # bottom of the next bucket
        if ideal:
            f_new, p = dejmps(f_hi, f_hi)
            bound = r_hi * credit * p * (1.0 + _RATE_SLACK)  # no candidate's rate exceeds it
            top = bisect_right(vals, f_new + _SWEEP_SLACK) - 1  # no candidate lands above it
            b = k + 1
            while b <= top and held.get(b, -math.inf) > bound:
                b += 1  # held at a rate no candidate reaches
            if b > top:
                continue  # the row can win nothing
            floor = vals[b] - _SWEEP_SLACK
        else:
            f_new, p = purify(f_hi, f_hi, noise, purify_model)
            floor = -math.inf
        row = []
        for j in range(pos, -1, -1):  # partners from the cursor down
            if j < pos:  # the self-purification was made above
                f_new, p = (dejmps(f_hi, fid[j]) if ideal
                            else purify(f_hi, fid[j], noise, purify_model))
            if f_new < floor:
                break  # and so would every lower partner
            row.append((j, f_new, p))
        for j, f_new, p in reversed(row):  # inserts land above the cursor, not at j
            if f_new < up:
                continue  # must move up a bucket or the DAG order breaks
            k1 = occupied[j]
            kn = bisect_right(vals, f_new) - 1
            # both inputs drawn from one pool: half are attempts
            r_new = (0.5 * r_hi if k1 == k else min(r_hi, rate[j])) * credit * p
            inc = block.get(kn)
            if inc is not None and (r_new < inc[1] or (r_new == inc[1] and f_new <= inc[0])):
                continue  # not strictly better: the incumbent stays
            at = bisect_left(occupied, kn)
            if inc is None:
                occupied.insert(at, kn)
                fid.insert(at, f_new)
                rate.insert(at, r_new)
            else:
                fid[at], rate[at] = f_new, r_new
            block[kn] = (f_new, r_new, OP_CODE["purify"], k, k1)
            held[kn] = r_new


def reference_build(
    path: Path,
    grid: FidelityGrid,
    noise: NoiseParams,
    purify_model: str = DEFAULT_PURIFY_MODEL,
) -> Hypergraph:
    """Dynamic-programming builder with fidelity bucketing.

    Per (node-pair, bucket) at most one incumbent survives, holding its
    exact continuous fidelity and the best rate found. Spans are processed
    bottom-up: swap combinations first, then a purification sweep within
    the block. A candidate replaces the incumbent only on a strictly higher
    rate, or an equal rate and a strictly higher fidelity, so of exact ties
    the first candidate wins. The swap candidates of pair (i, j) come w
    ascending, then each input block in its insertion order: its swap
    buckets in order of their first candidate, then the buckets made by
    purification in the order they were made. That order fixes the output.
    """
    m = path.num_nodes
    k0 = [grid.round_down_index(phys.f0) for phys in path.edges]
    link_limits = {phys.key: link_egr(phys) for phys, k in zip(path.edges, k0) if k >= 0}

    # the table as columns: per vertex its pair (u, v as path indices) and exact
    # fidelity, source and sink first; per edge but the ends its op, inputs and
    # rate, edge e making vertex 2 + e
    u, v, fidelity = [0, 0], [m - 1, m - 1], [0.0, 0.0]
    op, input0, input1, rate = [], [], [], []
    pool = []  # the vertices of the finished blocks, each block's in insertion order
    slot = {}  # finished pair -> (start, size) of its vertices in pool

    def finish(pair: tuple[int, int], block: dict[int, tuple]) -> None:
        # Blocks finish span by span, left to right, and every input of an
        # incumbent is in a shorter span or a lower bucket of its own pair,
        # so numbering each block's buckets in ascending order as it
        # finishes numbers each input before its consumer.
        _reference_sweep(block, grid, noise, purify_model)
        slot[pair] = (len(pool), len(block))
        buckets = sorted(block)
        vertex = dict(zip(buckets, range(len(fidelity), len(fidelity) + len(block))))
        for k in buckets:
            f, r, code, in0, in1 = block[k]
            if code == OP_CODE["purify"]:  # it names its inputs by bucket
                in0, in1 = vertex[in0], vertex[in1]
            fidelity.append(f)
            rate.append(r)
            op.append(code)
            input0.append(in0)
            input1.append(in1)
        u.extend((pair[0],) * len(block))
        v.extend((pair[1],) * len(block))
        pool.extend(map(vertex.get, block))

    for t, phys in enumerate(path.edges):
        block = {}
        if k0[t] >= 0:
            block[k0[t]] = (phys.f0, link_limits[phys.key], OP_CODE["start"], SOURCE, -1)
        finish((t, t + 1), block)

    vals, nf, g = grid.as_array(), grid.resolution, gate_factor(noise)
    # the pool as arrays: its vertices, and each vertex's fidelity and each edge's rate
    vid, fid, rates = np.empty(0, np.int64), np.empty(0), np.empty(0)
    for span in range(2, m):
        # each grows by what the previous span added
        vid, fid, rates = (np.concatenate([a, np.array(column[len(a):], a.dtype)])
                           for a, column in ((vid, pool), (fid, fidelity), (rates, rate)))
        # every swap candidate of the span at once, on exact fidelities
        owner, left, right, f, bucket = _span_swaps(m, span, slot, fid[vid], g, vals)
        r = np.minimum(rates[vid[left] - 2], rates[vid[right] - 2])
        win = _span_winners(owner * nf + bucket, (m - span) * nf, r, f)
        blocks = {i: {} for i in range(m - span)}
        for i, k, fw, rw, in0, in1 in zip(*(a[win].tolist() for a in (owner, bucket, f, r)),
                                           vid[left[win]].tolist(), vid[right[win]].tolist()):
            blocks[i][k] = (fw, rw, OP_CODE["swap"], in0, in1)
        for i, block in blocks.items():
            finish((i, i + span), block)

    n, size = len(fidelity), slot[(0, m - 1)][1]  # the last block finished holds the last vertices
    edges = {"op": op, "input0": input0, "input1": input1, "output": np.arange(2, n),
             "rate_bound": rate}
    ends = _edge_block("end", np.arange(n - size, n), SINK, rate_bound=rate[len(rate) - size:])
    return Hypergraph(_columns(path.nodes, (u, v, fidelity), [edges, ends]), grid, noise,
                      link_limits, builder="pruned", purify_model=purify_model)


# chains of 1 to 6 links; links of equal length make equal blocks, where the
# pool order breaks exact (rate, fidelity) ties: with the made buckets'
# order reversed, about one chain in ten of the last two kinds builds other bytes
lengths = st.one_of(
    st.lists(st.floats(min_value=20.0, max_value=150.0), min_size=1, max_size=6),
    st.lists(st.sampled_from([30.0, 60.0, 90.0]), min_size=1, max_size=6),
    st.tuples(st.floats(min_value=20.0, max_value=150.0), st.integers(1, 6)).map(
        lambda t: [t[0]] * t[1]),
)


@settings(max_examples=200, deadline=None)
@given(lengths, st.integers(min_value=2, max_value=100), st.sampled_from(PURIFY_MODELS),
       st.sampled_from([DEFAULT_NOISE, NoiseParams(p1=0.9, p2=0.9, eta=0.9)]))
def test_pruned_build_equals_the_dict_based_builder(lengths, size, model, noise):
    path, grid = make_chain(lengths), FidelityGrid.uniform(size)
    built, clamps = [], []
    for build in (reference_build, build_pruned_hypergraph):
        CLAMP_EVENTS.reset()
        built.append(build(path, grid, noise, model).columns)
        clamps.append(CLAMP_EVENTS.count)
    expected, got = built
    for name in DOCUMENT_COLUMNS:  # the eight columns
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
        assert getattr(got, name).dtype == getattr(expected, name).dtype, name
    assert got.nodes == expected.nodes
    assert clamps[1] == clamps[0]
