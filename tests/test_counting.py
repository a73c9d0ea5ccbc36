"""Point counting over prime fields: sweep core, fibration, Z-locus, budgets.

Expected numbers come from an independent pure-python enumeration kept in
tests/_oracles.py; the larger frozen grids were generated with it once and
are pinned here as literals.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from graphmotive import (
    BudgetExceededError,
    ConsistencyError,
    CountOptions,
    CountRecord,
    Multigraph,
    MultilinearPoly,
    NoProjectiveHypersurfaceError,
    NotPrimeError,
    NotRegularEdgeError,
    catalog_by_name,
    count_Z,
    count_brute,
    count_fibered,
    count_graph,
    count_projective,
    psi_by_trees,
    sweep_zero_patterns,
)
from graphmotive import counting

CAT = catalog_by_name()

# (affine zeros, complement) at q=3 for every catalog graph
Q3_GRID = {
    "edgeless": (0, 1),
    "single_edge": (0, 3),
    "single_loop": (1, 2),
    "path_2": (0, 9),
    "path_3": (0, 27),
    "path_5": (0, 243),
    "star_3": (0, 27),
    "forest_two_paths": (0, 27),
    "bouquet_2": (5, 4),
    "bouquet_3": (19, 8),
    "bouquet_4": (65, 16),
    "banana_2": (3, 6),
    "banana_3": (9, 18),
    "banana_4": (39, 42),
    "banana_5": (141, 102),
    "cycle_3": (9, 18),
    "cycle_4": (27, 54),
    "cycle_5": (81, 162),
    "cycle_6": (243, 486),
    "complete_4": (261, 468),
    "wheel_4": (2529, 4032),
    "dumbbell_3": (45, 36),
    "dumbbell_4": (135, 108),
    "dumbbell_5": (405, 324),
    "triangle_tail": (27, 54),
    "bowtie": (405, 324),
    "theta": (243, 486),
    "diamond": (81, 162),
    "c3_isolated": (9, 18),
    "disjoint_c3_edge": (27, 54),
    "disjoint_loops": (5, 4),
    "loop_bridge": (3, 6),
    "banana2_loop": (15, 12),
    "k4_loop": (1251, 936),
    "two_triangles_bridge": (1215, 972),
    "parallel_path_double": (45, 36),
    "star3_loop": (27, 54),
}

# same at q=5, graphs with at most 6 edges
Q5_GRID = {
    "edgeless": (0, 1),
    "single_edge": (0, 5),
    "single_loop": (1, 4),
    "path_2": (0, 25),
    "path_3": (0, 125),
    "path_5": (0, 3125),
    "star_3": (0, 125),
    "forest_two_paths": (0, 125),
    "bouquet_2": (9, 16),
    "bouquet_3": (61, 64),
    "bouquet_4": (369, 256),
    "banana_2": (5, 20),
    "banana_3": (25, 100),
    "banana_4": (165, 460),
    "banana_5": (1025, 2100),
    "cycle_3": (25, 100),
    "cycle_4": (125, 500),
    "cycle_5": (625, 2500),
    "cycle_6": (3125, 12500),
    "complete_4": (3225, 12400),
    "dumbbell_3": (225, 400),
    "dumbbell_4": (1125, 2000),
    "dumbbell_5": (5625, 10000),
    "triangle_tail": (125, 500),
    "bowtie": (5625, 10000),
    "theta": (3125, 12500),
    "diamond": (625, 2500),
    "c3_isolated": (25, 100),
    "disjoint_c3_edge": (125, 500),
    "disjoint_loops": (9, 16),
    "loop_bridge": (5, 20),
    "banana2_loop": (45, 80),
    "parallel_path_double": (225, 400),
    "star3_loop": (125, 500),
}

PROJECTIVE = {
    "cycle_4": {3: 13, 5: 31, 7: 57, 11: 133},
    "complete_4": {3: 130, 5: 806, 7: 2850, 11: 16226},
    "dumbbell_3": {3: 22, 5: 56, 7: 106, 11: 254},
    "diamond": {3: 40, 5: 156, 7: 400, 11: 1464},
    "theta": {3: 121, 5: 781, 7: 2801, 11: 16105, 13: 30941},
}


def small_polys():
    return st.builds(
        MultilinearPoly,
        st.just(4),
        st.dictionaries(st.integers(0, 15), st.integers(-5, 5), max_size=8),
    )


# -- record validation ---------------------------------------------------------


def test_record_rejects_bad_totals():
    CountRecord(3, 2, 4, 5)
    with pytest.raises(ConsistencyError):
        CountRecord(3, 2, 4, 6)


def test_record_rejects_bad_projective():
    CountRecord(3, 1, 1, 2, projective_count=0)
    with pytest.raises(ConsistencyError):
        CountRecord(3, 1, 2, 1, projective_count=1)  # q-1 does not divide zeros-1
    with pytest.raises(ConsistencyError):
        CountRecord(3, 2, 5, 4, projective_count=1)  # quotient is 2
    with pytest.raises(ConsistencyError):
        CountRecord(3, 2, 0, 9, projective_count=0)  # cone must contain origin


def test_record_json_shape():
    assert CountRecord(3, 2, 4, 5).to_json_obj() == {
        "q": 3,
        "n": 2,
        "affine_zero_count": 4,
        "complement_count": 5,
    }
    obj = CountRecord(3, 1, 1, 2, projective_count=0).to_json_obj()
    assert obj["projective_count"] == 0


# -- frozen grids --------------------------------------------------------------


def test_brute_counts_match_frozen_q3_grid():
    for name, (zeros, complement) in Q3_GRID.items():
        rec = count_graph(CAT[name], 3, opts=CountOptions("brute"))
        assert (rec.affine_zero_count, rec.complement_count) == (zeros, complement), name


def test_both_methods_match_frozen_q5_grid():
    for name, (zeros, complement) in Q5_GRID.items():
        rec = count_graph(CAT[name], 5, opts=CountOptions("both"))
        assert (rec.affine_zero_count, rec.complement_count) == (zeros, complement), name


def test_projective_counts_match_frozen():
    for name, by_q in PROJECTIVE.items():
        for q, expected in by_q.items():
            rec = count_graph(CAT[name], q)
            assert count_projective(rec) == expected, (name, q)


def test_worked_examples():
    rec = count_graph(CAT["cycle_3"], 3, opts=CountOptions("both"))
    assert rec == CountRecord(3, 3, 9, 18, projective_count=4)
    # trees never vanish: psi is the constant 1
    assert count_graph(CAT["path_5"], 3).complement_count == 3**5
    # bouquets: psi = t0*..*tn-1, complement is (q-1)^n
    assert count_graph(CAT["bouquet_4"], 5).complement_count == 4**4


def test_fibered_examples():
    loop = psi_by_trees(CAT["single_loop"])
    rec = count_fibered(loop, 0, 5)
    assert rec == CountRecord(5, 1, 1, 4, projective_count=0)
    banana = psi_by_trees(CAT["banana_2"])
    rec = count_fibered(banana, 1, 5)
    assert rec == CountRecord(5, 2, 5, 20, projective_count=1)
    # interior split variable must give the same record
    k4 = psi_by_trees(CAT["complete_4"])
    assert count_fibered(k4, 2, 3) == count_brute(k4, 3)


def test_fibered_constant_cases():
    one = MultilinearPoly.constant(1, 0)
    assert count_fibered(one, 0, 7) == CountRecord(7, 0, 0, 1)
    assert count_fibered(MultilinearPoly.zero(0), 0, 7) == CountRecord(7, 0, 1, 0)
    with pytest.raises(ValueError):
        count_fibered(psi_by_trees(CAT["cycle_3"]), 3, 5)


@settings(max_examples=60, deadline=None)
@given(small_polys(), st.sampled_from([3, 5]))
def test_fibered_agrees_with_brute_everywhere(p, q):
    rec_b = count_brute(p, q)
    for e in range(p.var_count):
        assert count_fibered(p, e, q) == rec_b


@settings(max_examples=30, deadline=None)
@given(
    st.builds(
        MultilinearPoly,
        st.just(3),
        st.dictionaries(st.integers(0, 7), st.integers(-5, 5), max_size=6),
    )
)
def test_sweep_agrees_with_naive_enumeration(p):
    zeros = count_brute(p, 3).affine_zero_count
    assert zeros == _oracles.zero_count(p.terms, 3, 3)


# -- Z-locus -------------------------------------------------------------------


def test_Z_frozen_values():
    assert count_Z(CAT["banana_2"], 1, 5) == 0
    assert count_Z(CAT["banana_3"], 0, 3) == 1
    assert count_Z(CAT["cycle_3"], 2, 3) == 0
    assert count_Z(CAT["complete_4"], 5, 3) == 33
    for e in range(6):
        assert count_Z(CAT["theta"], e, 3) == 27
        assert count_Z(CAT["theta"], e, 5) == 125


def test_Z_requires_regular_edge():
    with pytest.raises(NotRegularEdgeError):
        count_Z(CAT["dumbbell_3"], 3, 3)  # loop
    with pytest.raises(NotRegularEdgeError):
        count_Z(CAT["path_2"], 0, 3)  # bridge


# -- projective access ---------------------------------------------------------


def test_projective_requires_hypersurface():
    rec = count_graph(CAT["path_2"], 3)
    assert rec.projective_count is None
    with pytest.raises(NoProjectiveHypersurfaceError):
        count_projective(rec)


# -- budget --------------------------------------------------------------------


def _refusal(count, *args, budget, method="fibered"):
    with pytest.raises(BudgetExceededError) as refused:
        count(*args, opts=CountOptions(method, budget=budget))
    return str(refused.value)


def test_budget_guards():
    k4 = CAT["complete_4"]
    p = psi_by_trees(k4)
    assert _refusal(count_brute, p, 3, budget=728) == (
        "brute count over F_3^6 needs 729 point evaluations, budget is 728"
    )
    count_brute(p, 3, opts=CountOptions(budget=729))
    assert _refusal(count_fibered, p, 5, 3, budget=485) == (
        "fibered count over F_3^5 needs 486 point evaluations, budget is 485"
    )
    assert _refusal(count_Z, k4, 5, 3, budget=485) == (
        "Z-locus sweep over F_3^5 needs 486 point evaluations, budget is 485"
    )
    assert _refusal(count_graph, k4, 3, budget=700, method="both") == (
        "brute count over F_3^6 needs 729 point evaluations, budget is 700"
    )


@pytest.mark.parametrize(
    "method,budget,graph,message",
    [
        ("brute", 728, "complete_4", "brute count over F_3^6 needs 729"),
        ("fibered", 485, "complete_4", "fibered count over F_3^5 needs 486"),
        ("both", 700, "complete_4", "brute count over F_3^6 needs 729"),  # brute first
        ("both", 2, "single_edge", "brute count over F_3^1 needs 3"),
    ],
)
def test_check_count_budget_matches_count_graph(sweeps, method, budget, graph, message):
    g, opts = CAT[graph], CountOptions(method, budget=budget)
    with pytest.raises(BudgetExceededError) as counted:
        count_graph(g, 3, opts=opts)
    with pytest.raises(BudgetExceededError) as planned:
        counting.check_count_budget(g, 3, opts)
    expected = f"{message} point evaluations, budget is {budget}"
    assert str(planned.value) == str(counted.value) == expected
    assert sweeps == []


@pytest.mark.parametrize("method", ["brute", "fibered", "both"])
def test_check_count_budget_passes_edgeless(sweeps, method):
    # (edgeless, cycle_4) sweeps: one per level, and none for level 1 on 0 edges
    edgeless_sweeps, cycle_sweeps = {"brute": (1, 1), "fibered": (0, 1), "both": (1, 2)}[method]
    opts = CountOptions(method, budget=1)
    counting.check_count_budget(CAT["edgeless"], 3, opts)
    assert count_graph(CAT["edgeless"], 3, opts=opts) == CountRecord(3, 0, 0, 1)
    assert len(sweeps) == edgeless_sweeps
    count_graph(CAT["cycle_4"], 3, opts=CountOptions(method))
    assert len(sweeps) == edgeless_sweeps + cycle_sweeps


def test_shared_counts_memoizes_only_inside_the_block(sweeps):
    g = CAT["cycle_4"]
    with counting.shared_counts():
        rec = count_graph(g, 5)
        assert count_graph(g, 5) is rec and sweeps == [5]
        count_graph(g, 5, opts=CountOptions("brute"))  # other options, own entry
        assert sweeps == [5, 5]
    assert count_graph(g, 5) == rec and sweeps == [5, 5, 5]


# -- determinism ---------------------------------------------------------------


def test_sweep_bit_identical_across_chunks_and_workers():
    k4 = CAT["complete_4"]
    polys = [psi_by_trees(k4), psi_by_trees(CAT["cycle_6"])]
    base = sweep_zero_patterns(polys, 5)
    assert sum(base) == 5**6
    for chunk in (97, 1000, 1 << 19):
        assert sweep_zero_patterns(polys, 5, chunk_points=chunk) == base
    for workers in (2, 4):
        assert sweep_zero_patterns(polys, 5, chunk_points=251, workers=workers) == base


def test_counts_identical_with_workers(monkeypatch):
    rec1 = count_graph(CAT["wheel_4"], 3, opts=CountOptions("fibered", workers=1))
    small_chunks = functools.partial(counting.sweep_zero_patterns, chunk_points=100)
    monkeypatch.setattr(counting, "sweep_zero_patterns", small_chunks)
    rec4 = count_graph(CAT["wheel_4"], 3, opts=CountOptions("fibered", workers=4))
    assert rec1 == rec4 == CountRecord(3, 8, 2529, 4032, projective_count=1264)


# -- input validation ----------------------------------------------------------


def test_sweep_rejects_mixed_widths():
    with pytest.raises(ValueError):
        sweep_zero_patterns([MultilinearPoly.zero(2), MultilinearPoly.zero(3)], 3)


def test_prime_and_size_limits():
    p = psi_by_trees(CAT["cycle_3"])
    with pytest.raises(NotPrimeError):
        count_brute(p, 4)
    with pytest.raises(NotPrimeError):
        count_Z(CAT["cycle_3"], 0, 9)
    one = MultilinearPoly.constant(1, 0)
    # largest allowed modulus: fits the int64 product bound
    assert sweep_zero_patterns([one], (1 << 31) - 1) == [1, 0]
    with pytest.raises(ValueError):
        sweep_zero_patterns([one], (1 << 61) - 1)


def test_count_graph_method_validation():
    too_many = {"workers": counting.MAX_WORKERS + 1}
    for bad in ({"method": "magic"}, {"budget": 0}, {"workers": 0}, too_many):
        with pytest.raises(ValueError):
            count_graph(CAT["cycle_3"], 3, opts=CountOptions(**bad))
    rec = count_graph(Multigraph(2, ()), 7)
    assert rec == CountRecord(7, 0, 0, 1)
