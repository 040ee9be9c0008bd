"""Tests for LP formulation, the two solver backends, and scheme extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hypergraphs, make_chain
from entflow import strategies
from entflow.capacity import pair_capacity
from entflow.hypergraph import FidelityGrid, build_pruned_hypergraph, build_standard_hypergraph
from entflow.lp import (
    EMPTY_SCHEME,
    LPError,
    LPProblem,
    LPSolveError,
    _check_solution,
    export_lp,
    extract_scheme,
    formulate_lp,
    parse_lp,
    solve_lp,
)
from entflow.physics import DEFAULT_NOISE, PURIFY_MODELS
from entflow.topology import link_egr


def _problem(num_vars, objective, rows, rhs, names, **kw):
    return LPProblem(
        num_vars=num_vars, objective=np.asarray(objective, dtype=float),
        rows=rows, rhs=np.asarray(rhs, dtype=float), row_names=names, **kw,
    )


def test_single_variable_box():
    # [TRIVIAL] max x s.t. x <= 5.
    prob = _problem(1, [1.0], [[(0, 1.0)]], [5.0], ["cap"])
    for method in ("simplex", "highs"):
        sol = solve_lp(prob, method=method)
        assert sol.objective_value == pytest.approx(5.0, rel=1e-9)
        assert sol.rates[0] == pytest.approx(5.0, rel=1e-9)


def test_unbounded_detection():
    prob = _problem(1, [1.0], [], [], [])
    for method in ("simplex", "highs"):
        with pytest.raises(LPSolveError):
            solve_lp(prob, method=method)


def test_forced_zero_variables():
    prob = _problem(2, [1.0, 1.0], [[(0, 1.0), (1, 1.0)]], [5.0], ["cap"],
                    forced_zero=frozenset({1}))
    # The interchange format carries the fixing through export/parse.
    clone = parse_lp(export_lp(prob))
    assert clone.forced_zero == frozenset({1})
    sol = solve_lp(clone, method="highs")
    assert sol.rates[1] == pytest.approx(0.0, abs=1e-9)


def test_two_node_closed_form_optimum():
    # [DERIVED] A single link on a grid containing f0 exactly: the optimum
    # is the link generation rate times the per-pair capacity at f0 (no
    # purification edge exists because one round stays inside the bucket).
    path = make_chain([70.0], f0=0.98)
    grid = FidelityGrid((0.5, 0.98))
    hg = build_standard_hypergraph(path, grid, DEFAULT_NOISE)
    prob = formulate_lp(hg, "ensemble-capacity")
    sol = solve_lp(prob)
    expected = link_egr(path.edges[0]) * pair_capacity(0.98)
    assert sol.objective_value == pytest.approx(expected, rel=1e-9)


def test_formulation_structure():
    path = make_chain([70.0], f0=0.98)
    grid = FidelityGrid.uniform(5)
    hg = build_standard_hypergraph(path, grid, DEFAULT_NOISE)
    prob = formulate_lp(hg, "ensemble-capacity")
    limit_rows = [n for n in prob.row_names if n.startswith("l_")]
    flow_rows = [n for n in prob.row_names if n.startswith("v_")]
    assert len(limit_rows) == 1  # one physical link
    assert len(flow_rows) == grid.resolution  # full lattice for one pair
    assert prob.num_vars == len(hg.columns.op)
    with pytest.raises(LPError):
        formulate_lp(hg, "end-rate")  # missing f_lb
    with pytest.raises(LPError):
        formulate_lp(hg, "no-such-objective")


def test_end_rate_fidelity_bound_forces_zero():
    path = make_chain([70.0, 70.0], f0=0.98)
    hg = build_standard_hypergraph(path, FidelityGrid.uniform(20), DEFAULT_NOISE)
    relaxed = solve_lp(formulate_lp(hg, "end-rate", f_lb=0.5))
    strict = solve_lp(formulate_lp(hg, "end-rate", f_lb=0.99))
    assert strict.objective_value <= relaxed.objective_value + 1e-9
    # Every positive end rate respects the bound.
    scheme = extract_scheme(hg, strict)
    assert all(f >= 0.99 for f, _ in scheme.ensembles.entries)


def test_f_lb_monotonicity():
    path = make_chain([60.0, 60.0, 60.0], f0=0.98)
    hg = build_pruned_hypergraph(path, FidelityGrid.uniform(30), DEFAULT_NOISE)
    values = [
        solve_lp(formulate_lp(hg, "end-rate", f_lb=f)).objective_value
        for f in (0.5, 0.7, 0.85, 0.95)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_scale_invariance():
    # [DERIVED] The LP is homogeneous: scaling every link budget by λ
    # scales the optimum by λ.
    lam = 3.5
    base = make_chain([60.0, 80.0], f0=0.97, r_local=12000.0)
    scaled = make_chain([60.0, 80.0], f0=0.97, r_local=12000.0 * lam)
    grid = FidelityGrid.uniform(16)
    a = solve_lp(formulate_lp(build_pruned_hypergraph(base, grid, DEFAULT_NOISE),
                              "ensemble-capacity"))
    b = solve_lp(formulate_lp(build_pruned_hypergraph(scaled, grid, DEFAULT_NOISE),
                              "ensemble-capacity"))
    assert b.objective_value == pytest.approx(lam * a.objective_value, rel=1e-9)


def test_solver_determinism():
    path = make_chain([60.0, 60.0, 60.0], f0=0.96)
    hg = build_standard_hypergraph(path, FidelityGrid.uniform(12), DEFAULT_NOISE)
    prob = formulate_lp(hg, "ensemble-capacity")
    s1 = solve_lp(prob, method="simplex")
    s2 = solve_lp(prob, method="simplex")
    assert np.array_equal(s1.rates, s2.rates)
    assert s1.objective_value == s2.objective_value


def test_backends_agree():
    path = make_chain([60.0, 70.0, 80.0], f0=0.97)
    hg = build_pruned_hypergraph(path, FidelityGrid.uniform(24), DEFAULT_NOISE)
    prob = formulate_lp(hg, "ensemble-capacity")
    a = solve_lp(prob, method="simplex")
    b = solve_lp(prob, method="highs")
    assert a.objective_value == pytest.approx(b.objective_value, rel=1e-8)


def test_export_format_is_pinned():
    # [TRIVIAL] Exact text for a one-variable problem.
    prob = _problem(1, [2.0], [[(0, 1.0)]], [5.0], ["cap"])
    assert export_lp(prob) == (
        "maximize\n"
        " obj: 2.0 r_0\n"
        "subject to\n"
        " cap: 1.0 r_0 <= 5.0\n"
        "end\n"
    )


def test_export_parse_round_trip():
    path = make_chain([60.0, 60.0], f0=0.97)
    hg = build_standard_hypergraph(path, FidelityGrid.uniform(10), DEFAULT_NOISE)
    prob = formulate_lp(hg, "end-rate", f_lb=0.87)
    clone = parse_lp(export_lp(prob))
    assert clone.num_vars == prob.num_vars
    assert np.array_equal(clone.objective, prob.objective)
    assert clone.rows == prob.rows
    assert np.array_equal(clone.rhs, prob.rhs)
    assert clone.row_names == prob.row_names
    assert clone.forced_zero == prob.forced_zero


def test_parse_rejects_malformed_documents():
    with pytest.raises(LPError):
        parse_lp("maximize\n obj: 1.0 r_0\nend\n")  # missing subject to
    with pytest.raises(LPError):
        parse_lp("maximize\n obj: 1.0 q_0\nsubject to\nend\n")  # bad variable
    with pytest.raises(LPError, match=r"^cannot parse term '1e r_0' in objective$"):
        parse_lp("maximize\n obj: 1e r_0\nsubject to\nend\n")
    with pytest.raises(LPError, match=r"^row c: cannot parse limit 'abc'$"):
        parse_lp("maximize\n obj: 1.0 r_0\nsubject to\n c: 1.0 r_0 <= abc\nend\n")


def test_parse_adds_the_terms_of_a_repeated_objective_variable():
    # as a row counts both terms of a repeated variable
    problem = parse_lp("maximize\n obj: 1.0 r_0 + 2.0 r_0\nsubject to\n"
                       " cap: 1.0 r_0 + 1.0 r_0 <= 4.0\nend\n")
    assert problem.objective.tolist() == [3.0]
    assert solve_lp(problem).objective_value == 6.0


def test_parse_rejects_an_infinite_coefficient():
    # 1e999 parses as a float, to inf
    with pytest.raises(LPError, match=r"^row cap: coefficient inf of r_0 is infinite$"):
        parse_lp("maximize\n obj: 1.0 r_0\nsubject to\n cap: 1e999 r_0 <= 1.0\nend\n")


# a variable index at or above the document's length in characters -> where it is named
UNJUSTIFIED_INDEXES = {
    "row": ("maximize\n obj: 1.0 r_0\nsubject to\n c: 1.0 r_3000000 <= 1.0\nend\n",
            "variable r_3000000 in row c: index at or above the document's 63 characters"),
    "objective": ("maximize\n obj: 1.0 r_3000000\nsubject to\nend\n",
                  "variable r_3000000 in objective: index at or above the document's "
                  "44 characters"),
    "bounds": ("maximize\n obj: 1.0 r_0\nsubject to\nbounds\n r_3000000 = 0\nend\n",
               "variable r_3000000 in bounds: index at or above the document's 60 characters"),
    "more-digits-than-int-reads": (
        "maximize\n obj: 1.0 r_" + "9" * 5000 + "\nsubject to\nend\n",
        "variable r_" + "9" * 5000 + " in objective: index at or above the document's "
        "5037 characters"),
}


@pytest.mark.parametrize("case", UNJUSTIFIED_INDEXES)
def test_parse_refuses_a_variable_index_no_document_justifies(case):
    text, message = UNJUSTIFIED_INDEXES[case]
    with pytest.raises(LPError) as info:
        parse_lp(text)
    assert str(info.value) == message


def test_parse_reads_every_index_below_the_document_length():
    def text(index: int) -> str:  # of one length for every two-digit index
        return f"maximize\n obj: 1.0 r_{index}\nsubject to\nend\n"

    length = len(text(10))
    assert parse_lp(text(length - 1)).num_vars == length
    with pytest.raises(LPError, match=f"^variable r_{length} in objective: "):
        parse_lp(text(length))
    assert parse_lp(text(0).replace("r_0", "r_" + "0" * 5000 + "7")).num_vars == 8


def _assert_round_trips(problem: LPProblem) -> None:
    clone = parse_lp(export_lp(problem))
    assert clone.num_vars == problem.num_vars
    assert np.array_equal(clone.objective, problem.objective)
    assert clone.rows == problem.rows
    assert np.array_equal(clone.rhs, problem.rhs)
    assert clone.row_names == problem.row_names
    assert clone.forced_zero == problem.forced_zero


@settings(max_examples=30, deadline=None)
@given(hypergraphs(), st.sampled_from([None, 0.75, 0.9]))
def test_every_builders_problem_round_trips_through_the_text(hg, f_lb):
    _assert_round_trips(formulate_lp(hg, "end-rate" if f_lb else "ensemble-capacity", f_lb))


def test_the_oracles_mixture_lp_round_trips_through_the_text(monkeypatch):
    problems = []

    def recording_solve(problem, *args, **kwargs):
        problems.append(problem)
        return solve_lp(problem, *args, **kwargs)

    monkeypatch.setattr(strategies, "solve_lp", recording_solve)
    for purify_model in PURIFY_MODELS:
        path = make_chain([30.0, 40.0, 35.0], f0=0.97)
        strategies.brute_force_oracle(path, FidelityGrid.uniform(4), purify_model=purify_model)
    assert len(problems) == 2
    for problem in problems:
        _assert_round_trips(problem)


def test_extract_scheme_contents():
    path = make_chain([70.0, 70.0], f0=0.98)
    hg = build_pruned_hypergraph(path, FidelityGrid.uniform(40), DEFAULT_NOISE)
    sol = solve_lp(formulate_lp(hg, "ensemble-capacity"))
    scheme = extract_scheme(hg, sol)
    assert scheme.pairs >= 1
    assert scheme.egr > 0.0
    assert scheme.capacity == pytest.approx(sol.objective_value, rel=1e-9)
    assert scheme.swaps > 0.0  # a 2-link path needs swapping
    assert scheme.protocols  # representative trees are reported
    doc = scheme.to_json()
    assert set(doc) >= {"egr", "fidelity", "capacity", "ensembles", "protocols"}


def test_extract_scheme_zero_flow():
    path = make_chain([70.0, 70.0], f0=0.98)
    hg = build_pruned_hypergraph(path, FidelityGrid.uniform(10), DEFAULT_NOISE)
    sol = solve_lp(formulate_lp(hg, "end-rate", f_lb=0.9999))
    scheme = extract_scheme(hg, sol)
    assert scheme.egr == EMPTY_SCHEME.egr == 0.0
    assert scheme.pairs == 0


def test_check_solution_rejects_infeasible_rates():
    problem = _problem(2, [1.0, 1.0], [[(0, 1.0), (1, 1.0)]], [1.0], ["r"])
    _check_solution(problem, np.array([0.5, 0.5]))
    with pytest.raises(LPSolveError, match="negative rate"):
        _check_solution(problem, np.array([-0.1, 0.5]))
    with pytest.raises(LPSolveError, match="constraint violated"):
        _check_solution(problem, np.array([1.0, 0.5]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_check_solution_rejects_non_finite_rates(bad):
    problem = _problem(2, [1.0, 1.0], [[(0, 1.0), (1, 1.0)]], [1.0], ["r"])
    with pytest.raises(LPSolveError, match="non-finite rate .* r_0"):
        _check_solution(problem, np.array([bad, 0.5]))


def test_check_solution_names_the_worst_row():
    problem = _problem(2, [1.0, 1.0], [[(0, 1.0)], [(1, 1.0)], [(0, 1.0), (1, 1.0)]],
                       [1.0, 1.0, 2.0], ["first", "second", "both"])
    with pytest.raises(LPSolveError, match=r"constraint violated: row second has lhs 3\.5 > limit 1\.0"):
        _check_solution(problem, np.array([0.25, 3.5]))


@pytest.mark.parametrize("rows,kw,message", [
    ([[(0, 1.0)], [(5, 1.0)]], {}, r"row b: variable r_5 outside \[0, 2\)"),
    ([[(-1, 1.0)], [(0, 1.0)]], {}, r"row a: variable r_-1 outside \[0, 2\)"),
    ([[(0, 1.0)], [(1, float("nan"))]], {}, r"row b: coefficient nan of r_1 is NaN"),
    ([[(0, 1.0)], [(1, 1.0)]], {"forced_zero": frozenset({0, 2})}, r"forced_zero index 2 outside"),
    ([[(0, 1.0)], [(1, 1.0)]], {"objective": [1.0, float("nan")]}, r"objective coefficient of r_1"),
    ([[(0, 1.0)], [(1, 1.0)]], {"rhs": [float("nan"), 1.0]}, r"row a: rhs is NaN"),
    ([[(0, 1.0)], [(1, float("inf"))]], {}, r"row b: coefficient inf of r_1 is infinite"),
    ([[(0, -float("inf"))], [(1, 1.0)]], {}, r"row a: coefficient -inf of r_0 is infinite"),
])
def test_problem_rejects_bad_terms_indices_and_nan(rows, kw, message):
    args = {"objective": [1.0, 1.0], "rhs": [1.0, 1.0], **kw}
    with pytest.raises(LPError, match=message):
        _problem(2, args.pop("objective"), rows, args.pop("rhs"), ["a", "b"], **args)


def test_rows_view_keeps_the_given_terms():
    rows = [[(2, -0.5), (0, 1.0)], [], [(1, 2.0)]]
    problem = _problem(3, [1.0, 1.0, 1.0], rows, [0.0, 1.0, 2.0], ["a", "b", "c"])
    assert problem.rows == rows
    assert problem.matrix.shape == (3, 3)
