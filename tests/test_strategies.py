"""Tests for the four planning strategies and the exhaustive oracle."""

import json

import numpy as np
import pytest

from conftest import make_chain
from entflow.capacity import pair_capacity
from entflow import strategies
from entflow.cli import main
from entflow.hypergraph import BUILD_COUNTER, FidelityGrid
from entflow.lp import EMPTY_SCHEME
from entflow.physics import CLAMP_EVENTS, DEFAULT_NOISE, PURIFY_CREDIT, NoiseParams, dejmps
from entflow.strategies import (
    STRATEGY_NAMES,
    OracleBoundsError,
    _protocols,
    brute_force_oracle,
    oracle_best_single,
    run_points,
    run_rate_dp,
    run_strategy,
)
from entflow.topology import Edge, Topology, link_egr


def test_run_strategy_dispatch_and_result_shape():
    path = make_chain([70.0, 70.0], f0=0.98)
    grid = FidelityGrid.uniform(16)
    for name in STRATEGY_NAMES:
        res = run_strategy(name, path, grid)
        assert res.strategy == name
        assert res.grid_size == 16
        assert res.capacity >= 0.0
        doc = res.to_json()
        assert doc["strategy"] == name
    with pytest.raises(ValueError):
        run_strategy("nope", path, grid)


def test_run_points_builds_each_model_once_and_answers_in_order():
    path, grid = make_chain([60.0, 70.0, 80.0], f0=0.97), FidelityGrid.uniform(12)
    points = [(name, f_lb) for f_lb in (0.9, 0.8) for name in ("ec-lp", "rate-dp", *STRATEGY_NAMES)]
    BUILD_COUNTER.reset()
    results = list(run_points(path, grid, points))
    assert BUILD_COUNTER.count == 2  # the standard lattice and the pruned graph
    assert [(r.strategy, r.f_lb) for r in results] == [
        (name, None if name in ("ec-lp", "ec-dp") else f_lb) for name, f_lb in points]
    for (name, f_lb), result in zip(points, results):
        assert result.scheme == run_strategy(name, path, grid, f_lb).scheme
    # rows on one model report its one build time
    assert len({r.server_time_s for r in results if r.strategy != "ec-dp"} - {0.0}) == 1


@pytest.mark.parametrize("model", ["ideal-dejmps", "as-printed"])
def test_run_points_runs_the_rate_dp_program_once_per_path(model, monkeypatch):
    path, grid = _pinned_chain(4), FidelityGrid.uniform(40)
    f_lbs = [round(0.815 + k * 0.005, 10) for k in range(37)]  # the default f_lb sweep
    program, pick = strategies.STRATEGIES["rate-dp"]
    runs = []

    def counted(*args):
        runs.append(args)
        return program(*args)

    monkeypatch.setitem(strategies.STRATEGIES, "rate-dp", (counted, pick))
    results = list(run_points(path, grid, [("rate-dp", f_lb) for f_lb in f_lbs],
                              DEFAULT_NOISE, model))
    assert len(runs) == 1
    assert len({r.solver_time_s for r in results}) == 1  # the program's one run
    assert {r.server_time_s for r in results} == {0.0}
    monkeypatch.undo()
    schemes = {_reprs(r.scheme) for r in results}
    assert len(schemes) > 1  # the sweep moves the pick
    for f_lb, result in zip(f_lbs, results):
        alone = run_rate_dp(path, grid, f_lb, DEFAULT_NOISE, model)
        assert (result.f_lb, result.purify_model) == (f_lb, model)
        assert result.scheme == alone.scheme and _reprs(result.scheme) == _reprs(alone.scheme)


def test_run_points_refuses_an_unknown_strategy_when_it_reaches_it():
    results = run_points(make_chain([50.0]), FidelityGrid.uniform(8),
                         [("rate-dp", 0.9), ("bogus", 0.9)])
    assert next(results).strategy == "rate-dp"
    with pytest.raises(ValueError, match=r"^unknown strategy 'bogus'; expected one of "):
        next(results)


def test_all_strategies_agree_on_single_link():
    # [DERIVED] A 2-node path with f0 on the grid has one obvious answer:
    # deliver the raw link at full rate. All four strategies must agree.
    path = make_chain([70.0], f0=0.98)
    grid = FidelityGrid((0.5, 0.9, 0.98))
    expected_egr = link_egr(path.edges[0])
    expected_cap = expected_egr * pair_capacity(0.98)
    for name in STRATEGY_NAMES:
        res = run_strategy(name, path, grid, f_lb=0.9)
        assert res.egr == pytest.approx(expected_egr, rel=1e-9), name
        if name.startswith("ec"):
            assert res.capacity == pytest.approx(expected_cap, rel=1e-9), name


def test_rate_lp_dominates_rate_dp():
    # The pumping DP explores a strict subset of the LP's feasible flows.
    grid = FidelityGrid.uniform(24)
    for lengths, f_lb in [([60.0] * 3, 0.85), ([50.0] * 3, 0.8), ([70.0] * 2, 0.87)]:
        path = make_chain(lengths, f0=0.98)
        dp = run_strategy("rate-dp", path, grid, f_lb=f_lb)
        lp = run_strategy("rate-lp", path, grid, f_lb=f_lb)
        assert lp.egr >= dp.egr - 1e-9 * max(1.0, dp.egr)


def test_ec_dp_dominates_ec_lp():
    # Exact incumbent fidelities avoid the standard builder's rounding loss.
    grid = FidelityGrid.uniform(25)
    path = make_chain([60.0] * 3, f0=0.97)
    dp = run_strategy("ec-dp", path, grid)
    lp = run_strategy("ec-lp", path, grid)
    assert dp.capacity >= lp.capacity - 1e-9 * max(1.0, lp.capacity)


def test_rate_dp_unreachable_bound_gives_zero():
    path = make_chain([70.0, 70.0], f0=0.9)
    res = run_strategy("rate-dp", path, FidelityGrid.uniform(20), f_lb=0.999)
    assert res.egr == 0.0
    assert res.scheme.pairs == 0


def test_rate_dp_reports_single_protocol():
    path = make_chain([60.0, 60.0], f0=0.98)
    res = run_strategy("rate-dp", path, FidelityGrid.uniform(50), f_lb=0.87)
    assert res.egr > 0.0
    assert res.scheme.pairs == 1
    assert len(res.scheme.protocols) == 1
    assert res.fidelity >= 0.87


def test_tree_shape_counts_are_catalan():
    # [DERIVED] Full binary trees over k leaves: Catalan(k-1). At 0 rounds
    # the enumerator yields each swap order once, beyond the oracle's 3 links too
    for k, catalan in zip(range(1, 5), (1, 1, 2, 5)):
        trees = [t for *_, t in _protocols(make_chain([50.0] * k), DEFAULT_NOISE, 0,
                                           "ideal-dejmps")]
        assert len(trees) == len(set(trees)) == catalan


def test_the_enumeration_counts_every_shape_and_rounds_combination():
    # [DERIVED] a tree over k links has 2k - 1 slots, each purified 0 to R
    # times, and under ideal-dejmps at f0 0.98 no protocol leaves [0.25, 1]:
    # Catalan(k-1) (R+1)^(2k-1) protocols, 486 at k = 3, R = 2
    for k, catalan in zip((1, 2, 3), (1, 1, 2)):
        path = make_chain([50.0] * k, f0=0.98)
        for rounds in (0, 1, 2):
            count = sum(1 for _ in _protocols(path, DEFAULT_NOISE, rounds, "ideal-dejmps"))
            assert count == catalan * (rounds + 1) ** (2 * k - 1)
    assert count == 486


def test_the_oracle_keeps_the_first_split_of_two_orders_with_one_key():
    # the two swap orders of a-b-c-d differ by 1 ulp and share one dedup key;
    # the first seen, splitting after the first link, represents both
    edges = [Edge(u=u, v=v, length_km=km, f0=f0)
             for u, v, km, f0 in (("a", "b", 40.0, 0.98), ("b", "c", 55.0, 0.97),
                                  ("c", "d", 70.0, 0.99))]
    path = Topology(["a", "b", "c", "d"], edges).path_from_nodes(["a", "b", "c", "d"])
    (f1, *_, t1), (f2, *_, t2) = _protocols(path, DEFAULT_NOISE, 0, "ideal-dejmps")
    assert (t1, t2) == ("s(L0,s(L1,L2))", "s(s(L0,L1),L2)")
    assert f1 != f2 and round(f1, 12) == round(f2, 12)
    res = brute_force_oracle(path, FidelityGrid.uniform(4), max_purify_rounds=0)
    assert [(p.fidelity, p.tree) for p in res.scheme.protocols] == [(f1, t1)]


def test_the_oracle_drops_a_swap_below_the_werner_floor(tmp_path, capsys):
    # eta < 0.5 makes the gate factor negative, so a swap of two pairs above
    # 0.25 lands below it, where purify refuses its input: every protocol on
    # two links is dropped, and every strategy answers 0.0
    noise = NoiseParams(eta=0.4)
    path, grid = make_chain([30.0, 40.0]), FidelityGrid.uniform(6)
    assert brute_force_oracle(path, grid, noise).scheme == EMPTY_SCHEME
    assert oracle_best_single(path, grid, noise) == (0.0, 0.0, 0.0)
    assert run_strategy("ec-dp", path, grid, noise=noise).capacity == 0.0
    topo_file = tmp_path / "chain3.json"
    topo_file.write_text(json.dumps({
        "nodes": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "length_km": 30.0},
                  {"u": "b", "v": "c", "length_km": 40.0}],
    }))
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--topology", str(topo_file), "--demand", "a,c", "--eta", "0.4",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["capacity"] == 0.0


def test_oracle_bounds_are_enforced():
    grid = FidelityGrid.uniform(4)
    with pytest.raises(OracleBoundsError):
        brute_force_oracle(make_chain([50.0] * 4), grid)  # 5 nodes
    with pytest.raises(OracleBoundsError):
        brute_force_oracle(make_chain([50.0]), FidelityGrid.uniform(7))
    with pytest.raises(OracleBoundsError):
        brute_force_oracle(make_chain([50.0]), grid, max_purify_rounds=3)


@pytest.mark.parametrize("kwargs", [
    pytest.param({"max_purify_rounds": -1}, id="negative-rounds"),
    pytest.param({"max_purify_rounds": 3}, id="three-rounds"),
    pytest.param({"grid": FidelityGrid.uniform(7)}, id="grid-of-7"),
    pytest.param({"path": make_chain([50.0] * 4)}, id="5-nodes"),
])
def test_oracle_best_single_enforces_the_oracle_bounds(kwargs):
    # the same bounds, refused by the same check, in both oracles
    args = {"path": make_chain([50.0, 50.0]), "grid": FidelityGrid.uniform(4), **kwargs}
    for oracle in (brute_force_oracle, oracle_best_single):
        with pytest.raises(OracleBoundsError):
            oracle(**args)


def test_oracle_single_link_closed_form():
    # [DERIVED] One link, no purification headroom worth taking at f0=0.98
    # on a coarse grid: deliver raw pairs.
    path = make_chain([70.0], f0=0.98)
    res = brute_force_oracle(path, FidelityGrid.uniform(4))
    cap, rate, fid = oracle_best_single(path, FidelityGrid.uniform(4))
    assert res.capacity >= cap - 1e-9
    assert rate <= link_egr(path.edges[0]) + 1e-9
    assert fid >= 0.98


def test_oracle_mixture_dominates_best_single():
    path = make_chain([60.0, 60.0, 60.0], f0=0.97)
    grid = FidelityGrid.uniform(5)
    mix = brute_force_oracle(path, grid)
    cap_single, _, _ = oracle_best_single(path, grid)
    assert mix.capacity >= cap_single - 1e-9 * max(1.0, cap_single)


def test_oracle_max_ensembles_restriction():
    path = make_chain([60.0, 60.0], f0=0.97)
    grid = FidelityGrid.uniform(5)
    full = brute_force_oracle(path, grid)
    limited = brute_force_oracle(path, grid, max_ensembles=1)
    assert limited.scheme.pairs <= 1
    assert limited.capacity <= full.capacity + 1e-9 * max(1.0, full.capacity)


@pytest.mark.parametrize("max_ensembles", [0, -1, -5])
def test_oracle_rejects_max_ensembles_below_1(tmp_path, capsys, max_ensembles):
    # a plain slice would read 0 as no protocol and -1 as all but the last
    path = make_chain([30.0, 40.0])
    with pytest.raises(OracleBoundsError, match=f"got {max_ensembles}$"):
        brute_force_oracle(path, FidelityGrid.uniform(6), max_ensembles=max_ensembles)
    topo_file = tmp_path / "chain.json"
    topo_file.write_text(json.dumps({
        "nodes": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "length_km": 30.0},
                  {"u": "b", "v": "c", "length_km": 40.0}],
    }))
    capsys.readouterr()
    assert main(["oracle", "--topology", str(topo_file), "--demand", "a,c",
                 "--max-ensembles", str(max_ensembles)]) == 2
    assert f"max_ensembles must be at least 1, got {max_ensembles}" in capsys.readouterr().err


def test_oracle_with_no_protocol_above_the_grid_delivers_nothing():
    # every protocol's fidelity lies below the grid's lowest value
    path = make_chain([300.0, 300.0], f0=0.9)
    res = brute_force_oracle(path, FidelityGrid((0.995, 0.997, 0.999)))
    assert res.scheme == EMPTY_SCHEME


def test_oracle_discards_protocols_the_as_printed_map_drives_out_of_range(tmp_path):
    # as-printed purify(0.98, 0.98) clamps to 0.0, which a second round
    # cannot take; those protocols are dropped, so rounds add nothing here
    topo = Topology(["a", "b"], [Edge(u="a", v="b", length_km=30.0)])
    path = topo.path_from_nodes(["a", "b"])
    grid = FidelityGrid.uniform(6)
    caps = [
        brute_force_oracle(path, grid, max_purify_rounds=rounds, purify_model="as-printed").capacity
        for rounds in (0, 1, 2)
    ]
    assert caps[0] == caps[1] == caps[2] == pytest.approx(5284.5476, rel=1e-6)
    single = oracle_best_single(path, grid, max_purify_rounds=2, purify_model="as-printed")
    assert single[0] == caps[0]
    topo_file = tmp_path / "chain.json"
    topo_file.write_text(json.dumps({
        "nodes": ["a", "b"], "edges": [{"u": "a", "v": "b", "length_km": 30.0}],
    }))
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--topology", str(topo_file), "--demand", "a,b",
                 "--purify-model", "as-printed", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["capacity"] == caps[0]


@pytest.mark.parametrize("lengths, f0, grid, rounds, tree", [
    # the oracle's p(p(L0)); ec-dp's tree purifies two copies of one purified pair
    ([30.0], 0.78, (0.75, 0.8, 0.85, 0.9), 2, "p(p(L0))"),
    # a swap under a purification, each link purified once before it
    ([30.0, 30.0], 0.86, tuple(float(v) for v in np.linspace(0.75, 0.95, 4)), 1,
     "p(s(p(L0),p(L1)))"),
])
def test_the_oracle_counts_operations_per_delivered_pair_as_ec_dp_does(lengths, f0, grid,
                                                                       rounds, tree):
    # both deliver the same one protocol; counting tree levels, the oracle
    # reported 2 purifications on the first, where ec-dp reports 16.09
    path, grid = make_chain(lengths, f0=f0), FidelityGrid(grid)
    oracle = brute_force_oracle(path, grid, max_purify_rounds=rounds)
    ec_dp = run_strategy("ec-dp", path, grid)
    assert [p.tree for p in oracle.scheme.protocols] == [tree]
    assert ec_dp.scheme.pairs == 1
    assert oracle.capacity == pytest.approx(ec_dp.capacity, rel=1e-9)
    assert oracle.scheme.swaps == pytest.approx(ec_dp.scheme.swaps, rel=1e-9)
    assert oracle.scheme.purifications == pytest.approx(ec_dp.scheme.purifications, rel=1e-9)


def test_one_purification_round_delivers_what_the_credit_gives():
    # one link, one DEJMPS round on pairs drawn from one pool: an attempt
    # draws two pairs and is credited PURIFY_CREDIT * p, so R / 2 attempts
    # deliver R * PURIFY_CREDIT * p / 2 pairs, at 1 / (PURIFY_CREDIT * p)
    # attempts each; p is the kernel's on each model's own input fidelity
    path = make_chain([30.0], f0=0.97)
    rate = link_egr(path.edges[0])
    grid = FidelityGrid.uniform(100)
    on_grid = grid.values[grid.round_down_index(0.97)]
    results = [(run_strategy(name, path, grid, f_lb=0.972), on_grid)
               for name in ("rate-lp", "rate-dp")]
    # the lowest grid value lies above f0, so the oracle must purify once
    results.append((brute_force_oracle(path, FidelityGrid((0.975, 1.0)), max_purify_rounds=1),
                    0.97))
    for result, f in results:
        p = dejmps(f, f)[1]
        assert result.scheme.pairs == 1, result.strategy
        assert result.egr == pytest.approx(rate * PURIFY_CREDIT * p / 2.0, rel=1e-12)
        assert result.scheme.purifications == pytest.approx(1.0 / (PURIFY_CREDIT * p), rel=1e-12)
        assert result.scheme.swaps == 0.0


_UNKNOWN_MODEL = r"^purify_model must be one of \('ideal-dejmps', 'as-printed'\), got 'bogus'$"


def test_oracle_refuses_an_unknown_purification_model():
    # with no purification round, no purify call would refuse the model
    path, grid = make_chain([50.0, 50.0]), FidelityGrid.uniform(4)
    with pytest.raises(ValueError, match=_UNKNOWN_MODEL):
        brute_force_oracle(path, grid, DEFAULT_NOISE, max_purify_rounds=0, purify_model="bogus")


def test_oracle_best_single_refuses_an_unknown_purification_model():
    path, grid = make_chain([50.0, 50.0]), FidelityGrid.uniform(4)
    with pytest.raises(ValueError, match=_UNKNOWN_MODEL):
        oracle_best_single(path, grid, DEFAULT_NOISE, max_purify_rounds=0, purify_model="bogus")


def test_rate_dp_refuses_an_unknown_purification_model():
    # every link is below the grid, so the program makes no purify call
    path, grid = make_chain([50.0, 50.0], f0=0.9), FidelityGrid((0.95, 1.0))
    with pytest.raises(ValueError, match=_UNKNOWN_MODEL):
        run_rate_dp(path, grid, 0.96, purify_model="bogus")


# --- rate-dp, pinned bit for bit ------------------------------------------------

# per (path nodes, grid size, purify model, f_lb), the reprs of (egr, fidelity,
# swaps, purifications) and the pair count; the chains are drawn in
# _pinned_chain and the f_lb values bracket each chain's swap-only fidelity
_RATE_DP_PIN = {
    (2, 20, "i", 0.95): "2461.0549940670503 0.9736842105263157 0.0 0.0 1",
    (2, 20, "i", 0.985): "0.0 0.0 0.0 0.0 0",
    (2, 20, "i", 0.99): "0.0 0.0 0.0 0.0 0",
    (2, 20, "a", 0.95): "2461.0549940670503 0.9736842105263157 0.0 0.0 1",
    (2, 20, "a", 0.985): "0.0 0.0 0.0 0.0 0",
    (2, 20, "a", 0.99): "0.0 0.0 0.0 0.0 0",
    (2, 60, "i", 0.95): "2461.0549940670503 0.9745762711864407 0.0 0.0 1",
    (2, 60, "i", 0.985): "0.0 0.0 0.0 0.0 0",
    (2, 60, "i", 0.99): "0.0 0.0 0.0 0.0 0",
    (2, 60, "a", 0.95): "2461.0549940670503 0.9745762711864407 0.0 0.0 1",
    (2, 60, "a", 0.985): "0.0 0.0 0.0 0.0 0",
    (2, 60, "a", 0.99): "0.0 0.0 0.0 0.0 0",
    (3, 20, "i", 0.911): "1392.1794841615474 0.9210526315789473 1.0 0.0 1",
    (3, 20, "i", 0.946): "0.0 0.0 0.0 0.0 0",
    (3, 20, "i", 0.961): "0.0 0.0 0.0 0.0 0",
    (3, 20, "a", 0.911): "1392.1794841615474 0.9210526315789473 1.0 0.0 1",
    (3, 20, "a", 0.946): "0.0 0.0 0.0 0.0 0",
    (3, 20, "a", 0.961): "0.0 0.0 0.0 0.0 0",
    (3, 60, "i", 0.911): "1392.1794841615474 0.923728813559322 1.0 0.0 1",
    (3, 60, "i", 0.946): "117.17809224538775 0.9491525423728814 11.880885389788762 7.034982051355969 1",
    (3, 60, "i", 0.961): "0.0 0.0 0.0 0.0 0",
    (3, 60, "a", 0.911): "1392.1794841615474 0.923728813559322 1.0 0.0 1",
    (3, 60, "a", 0.946): "0.0 0.0 0.0 0.0 0",
    (3, 60, "a", 0.961): "0.0 0.0 0.0 0.0 0",
    (4, 20, "i", 0.873): "359.84799733193285 0.8947368421052632 9.524367900329791 2.3810919750824477 1",
    (4, 20, "i", 0.908): "0.0 0.0 0.0 0.0 0",
    (4, 20, "i", 0.923): "0.0 0.0 0.0 0.0 0",
    (4, 20, "a", 0.873): "0.0 0.0 0.0 0.0 0",
    (4, 20, "a", 0.908): "0.0 0.0 0.0 0.0 0",
    (4, 20, "a", 0.923): "0.0 0.0 0.0 0.0 0",
    (4, 60, "i", 0.873): "1713.6623573931106 0.8813559322033898 2.0 0.0 1",
    (4, 60, "i", 0.908): "143.22120106597544 0.923728813559322 24.85049380773311 12.425246903866555 1",
    (4, 60, "i", 0.923): "143.22120106597544 0.923728813559322 24.85049380773311 12.425246903866555 1",
    (4, 60, "a", 0.873): "1713.6623573931106 0.8813559322033898 2.0 0.0 1",
    (4, 60, "a", 0.908): "0.0 0.0 0.0 0.0 0",
    (4, 60, "a", 0.923): "0.0 0.0 0.0 0.0 0",
    (5, 20, "i", 0.838): "1491.9381711194535 0.8421052631578947 10.524367900329791 2.3810919750824477 1",
    (5, 20, "i", 0.873): "0.0 0.0 0.0 0.0 0",
    (5, 20, "i", 0.888): "0.0 0.0 0.0 0.0 0",
    (5, 20, "a", 0.838): "0.0 0.0 0.0 0.0 0",
    (5, 20, "a", 0.873): "0.0 0.0 0.0 0.0 0",
    (5, 20, "a", 0.888): "0.0 0.0 0.0 0.0 0",
    (5, 60, "i", 0.838): "2045.8010706182 0.8389830508474576 3.0 0.0 1",
    (5, 60, "i", 0.873): "378.4729553575886 0.8813559322033898 25.85049380773311 12.425246903866555 1",
    (5, 60, "i", 0.888): "316.9794190434155 0.8898305084745763 49.61593309642235 13.600797271125874 1",
    (5, 60, "a", 0.838): "2045.8010706182 0.8389830508474576 3.0 0.0 1",
    (5, 60, "a", 0.873): "0.0 0.0 0.0 0.0 0",
    (5, 60, "a", 0.888): "0.0 0.0 0.0 0.0 0",
    (6, 20, "i", 0.805): "27.829107218987847 0.8157894736842105 52.86753326988471 14.198965228733975 1",
    (6, 20, "i", 0.84): "5.458325200153895 0.8421052631578947 269.5435317282941 74.94223307674648 1",
    (6, 20, "i", 0.855): "0.0 0.0 0.0 0.0 0",
    (6, 20, "a", 0.805): "0.0 0.0 0.0 0.0 0",
    (6, 20, "a", 0.84): "0.0 0.0 0.0 0.0 0",
    (6, 20, "a", 0.855): "0.0 0.0 0.0 0.0 0",
    (6, 60, "i", 0.805): "557.2944327758775 0.8135593220338984 7.427344992050875 2.2136724960254375 1",
    (6, 60, "i", 0.84): "121.71304007982214 0.847457627118644 30.277838799783986 14.638919399891993 1",
    (6, 60, "i", 0.855): "121.71304007982214 0.8559322033898304 37.731379197521875 19.460228955222522 1",
    (6, 60, "a", 0.805): "0.0 0.0 0.0 0.0 0",
    (6, 60, "a", 0.84): "0.0 0.0 0.0 0.0 0",
    (6, 60, "a", 0.855): "0.0 0.0 0.0 0.0 0",
    (7, 20, "i", 0.773): "134.31044080366053 0.7894736842105263 68.24598961538194 15.699233252902092 1",
    (7, 20, "i", 0.808): "5.5245750101658 0.8157894736842105 1426.3625713350546 397.7473675721692 1",
    (7, 20, "i", 0.823): "0.0 0.0 0.0 0.0 0",
    (7, 20, "a", 0.773): "0.0 0.0 0.0 0.0 0",
    (7, 20, "a", 0.808): "0.0 0.0 0.0 0.0 0",
    (7, 20, "a", 0.823): "0.0 0.0 0.0 0.0 0",
    (7, 60, "i", 0.773): "797.2845388210563 0.7796610169491525 8.427344992050875 2.2136724960254375 1",
    (7, 60, "i", 0.808): "207.007733137196 0.8135593220338984 38.731379197521875 19.460228955222522 1",
    (7, 60, "i", 0.823): "171.92787739406774 0.8305084745762712 50.70098761546622 24.85049380773311 1",
    (7, 60, "a", 0.773): "0.0 0.0 0.0 0.0 0",
    (7, 60, "a", 0.808): "0.0 0.0 0.0 0.0 0",
    (7, 60, "a", 0.823): "0.0 0.0 0.0 0.0 0",
}
_MODELS = {"i": "ideal-dejmps", "a": "as-printed"}


def _pinned_chain(nodes):
    return make_chain(np.random.default_rng([27, nodes]).uniform(20.0, 150.0, nodes - 1))


def _reprs(scheme):
    return " ".join([*map(repr, (scheme.egr, scheme.fidelity, scheme.swaps,
                                 scheme.purifications)), str(scheme.pairs)])


@pytest.mark.parametrize("case", _RATE_DP_PIN, ids=lambda case: "-".join(map(str, case)))
def test_rate_dp_answers_are_pinned_bit_for_bit(case):
    nodes, size, model, f_lb = case
    res = run_rate_dp(_pinned_chain(nodes), FidelityGrid.uniform(size), f_lb, DEFAULT_NOISE,
                      _MODELS[model])
    assert _reprs(res.scheme) == _RATE_DP_PIN[case]


def test_rate_dp_with_a_link_below_the_grid_delivers_nothing():
    # the middle link's f0 lies below the grid, so every block over it is empty
    names = ["a", "b", "c", "d"]
    edges = [Edge(u=u, v=v, length_km=km, f0=f0)
             for u, v, km, f0 in zip(names, names[1:], (40.0, 60.0, 50.0), (0.98, 0.88, 0.98))]
    path = Topology(names, edges).path_from_nodes(names)
    grid = FidelityGrid(tuple(float(v) for v in np.linspace(0.9, 1.0, 20)))
    for model in _MODELS.values():
        res = run_rate_dp(path, grid, 0.91, DEFAULT_NOISE, model)
        assert _reprs(res.scheme) == "0.0 0.0 0.0 0.0 0"
        assert res.scheme == EMPTY_SCHEME


def test_rate_dp_with_every_link_below_the_grid_delivers_nothing():
    path, grid = make_chain([50.0, 50.0, 50.0], f0=0.9), FidelityGrid((0.95, 1.0))
    for model in _MODELS.values():
        assert run_rate_dp(path, grid, 0.96, DEFAULT_NOISE, model).scheme == EMPTY_SCHEME


def test_as_printed_rate_dp_ticks_once_per_clamped_chain_round():
    # each base bucket's pumping chain is made once per call, so a clamped
    # round ticks once, however many candidates read it (ticking once per
    # candidate, this call counted 49); nothing is kept across calls
    path, grid = _pinned_chain(7), FidelityGrid.uniform(60)
    for _ in range(2):
        before = CLAMP_EVENTS.thread_count
        run_rate_dp(path, grid, 0.8, DEFAULT_NOISE, "as-printed")
        assert CLAMP_EVENTS.thread_count - before == 9
