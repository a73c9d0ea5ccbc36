"""Point counting over prime fields: sweep core, fibration, Z-locus, budgets.

Expected numbers come from an independent pure-python enumeration kept in
tests/_oracles.py; the larger frozen grids were generated with it once and
are pinned here as literals.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles
from test_poly import small_graphs
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
    is_prime,
    psi_by_trees,
    sweep_zero_patterns,
)
from graphmotive import counting
from graphmotive.families import FamilySpec, generate_family
from graphmotive.graphs import EdgeKind, classify_edge, contract_edge, delete_edge, relabel_dense
from graphmotive.symanzik import psi_by_deletion_contraction, split_last_var

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


@st.composite
def small_polys(draw):
    width = draw(st.integers(0, 4))
    terms = st.dictionaries(st.integers(0, (1 << width) - 1), st.integers(-5, 5), max_size=8)
    return MultilinearPoly(width, draw(terms))


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


@settings(max_examples=100, deadline=None)
@given(small_polys(), st.sampled_from([2, 3, 5, 7]))
def test_fibered_agrees_with_brute_everywhere(p, q):
    # Widths 1 and 2 take the one-variable fallback and the smallest plane.
    rec_b = count_brute(p, q)
    for e in range(p.var_count):
        assert count_fibered(p, e, q) == rec_b


def test_fibered_matches_brute_on_catalog():
    # count_graph's "both" raises unless brute and level 2 agree at the top
    # split; every other split must give the same record.
    for name, g in CAT.items():
        p = psi_by_deletion_contraction(relabel_dense(g))
        for q in (2, 3, 5, 7, 11, 13):
            if q**g.edge_count > 10**6:
                continue
            rec = count_graph(g, q, opts=CountOptions("both"))
            for e in range(p.var_count):
                assert count_fibered(p, e, q) == rec, (name, q, e)


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


@st.composite
def sweep_cases(draw):
    # 251 is the largest prime with uint32 residues, 257 the smallest in int64
    q = draw(st.sampled_from([2, 3, 5, 7, 251, 257]))
    width = draw(st.integers(0, 5 if q < 251 else 2))
    coefficients = st.integers(-(10**20), 10**20)
    terms = st.dictionaries(st.integers(0, (1 << width) - 1), coefficients, max_size=8)
    polys = draw(st.lists(terms.map(lambda t: MultilinearPoly(width, t)), min_size=1, max_size=3))
    chunk = draw(st.sampled_from([1, 2, q - 1, q + 1, 97, counting.DEFAULT_CHUNK]))
    if q > 7:  # at most q blocks: q^2 one-point blocks would take seconds
        chunk = max(chunk, len(polys) * q)
    return polys, q, chunk, draw(st.sampled_from([1, 2]))


@settings(max_examples=40, deadline=None)
@given(sweep_cases())
def test_sweep_patterns_agree_with_naive_enumeration(case):
    # Chunks below q fold every coordinate into the polynomials (no inner
    # axis), q+1 and 97 split outer and inner axes, the default is all inner.
    polys, q, chunk, workers = case
    expected = _oracles.zero_patterns([p.terms for p in polys], polys[0].var_count, q)
    assert sweep_zero_patterns(polys, q, chunk_points=chunk, workers=workers) == expected


@st.composite
def cross_cases(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 251, 257]))
    width = draw(st.integers(0, 4 if q < 251 else 2))
    terms = st.dictionaries(st.integers(0, (1 << width) - 1), st.integers(-9, 9), max_size=6)
    polys = [MultilinearPoly(width, draw(terms)) for _ in range(4)]
    chunk = draw(st.sampled_from([1, q - 1, q + 1, 97, counting.DEFAULT_CHUNK]))
    if q > 7:  # as in sweep_cases
        chunk = max(chunk, 4 * q)
    return polys, q, chunk, draw(st.sampled_from([1, 2]))


@settings(max_examples=60, deadline=None)
@given(cross_cases())
def test_cross_patterns_agree_with_naive_enumeration(case):
    polys, q, chunk, workers = case
    expected = _oracles.cross_zero_patterns([p.terms for p in polys], polys[0].var_count, q)
    got = sweep_zero_patterns(polys, q, chunk_points=chunk, workers=workers, cross=True)
    assert got == expected


def test_barrett_reduction_is_exact_below_q_squared():
    primes = [q for q in range(252) if is_prime(q)]
    assert len(primes) == 54
    assert counting._residues(257)[0] == np.int64
    for q in primes:
        s, m = counting._barrett(q)
        assert q**3 <= 1 << s and q * q * m < 1 << 32
        dtype, reduce = counting._residues(q)
        v = np.arange(q * q, dtype=dtype)
        assert dtype == np.uint32
        assert np.array_equal(reduce(v.copy()), v % q)


def test_sweep_rejects_bad_polynomial_counts():
    zero = MultilinearPoly.zero(1)
    assert len(sweep_zero_patterns([zero] * 8, 3)) == 256
    with pytest.raises(ValueError):
        sweep_zero_patterns([zero] * 9, 3)  # patterns are 8 bits wide
    with pytest.raises(ValueError):
        sweep_zero_patterns([zero] * 2, 3, cross=True)
    with pytest.raises(ValueError):
        sweep_zero_patterns([], 3)


# -- Z-locus -------------------------------------------------------------------


def test_Z_frozen_values():
    assert count_Z(CAT["banana_2"], 1, 5) == 0
    assert count_Z(CAT["banana_3"], 0, 3) == 1
    assert count_Z(CAT["cycle_3"], 2, 3) == 0
    assert count_Z(CAT["complete_4"], 5, 3) == 33
    for e in range(6):
        assert count_Z(CAT["theta"], e, 3) == 27
        assert count_Z(CAT["theta"], e, 5) == 125


def _without_var(terms, e):
    low = (1 << e) - 1
    return {(m & low) | (m >> 1 & ~low): c for m, c in terms.items()}


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.sampled_from([2, 3, 5]))
# banana_3 and a bridge f, the highest label: where psi(G-e) = a+b vanishes
# on the whole f line, psi(G/e) = ab need not
@example(Multigraph.from_pairs(3, [(0, 1), (0, 1), (0, 1), (1, 2)]), 3)
def test_Z_agrees_with_naive_enumeration(g, q):
    n = g.edge_count
    for e in g.labels:
        if classify_edge(g, e) is not EdgeKind.REGULAR:
            continue
        minors = [delete_edge(g, e), contract_edge(g, e)]
        terms = [_without_var(_oracles.psi_term_masks(m), e) for m in minors]
        assert count_Z(g, e, q) == _oracles.zero_patterns(terms, n - 1, q)[3], e


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


def test_budget_never_undercharges(monkeypatch):
    # Each count sweeps at most the polynomial-points its budget check
    # charged; level 2 sweeps 4*q^(n-2) and is charged 2*q^(n-1).
    charged, swept = [], []
    check, sweep = counting._check_budget, counting.sweep_zero_patterns

    def charge(cost, opts, what):
        charged.append(cost)
        return check(cost, opts, what)

    def spy(polys, q, **kw):
        swept.append(len(polys) * q ** polys[0].var_count)
        return sweep(polys, q, **kw)

    monkeypatch.setattr(counting, "_check_budget", charge)
    monkeypatch.setattr(counting, "sweep_zero_patterns", spy)
    for name, g in CAT.items():
        p = psi_by_deletion_contraction(relabel_dense(g))
        for q in (2, 3, 5):
            if q**g.edge_count > 10**6:
                continue
            counts = [lambda: count_brute(p, q)]
            counts += [lambda e=e: count_fibered(p, e, q) for e in range(p.var_count)]
            counts += [
                lambda e=e: count_Z(g, e, q)
                for e in g.labels
                if classify_edge(g, e) is EdgeKind.REGULAR
            ]
            for count in counts:
                charged.clear()
                swept.clear()
                count()
                assert len(charged) <= 1 and sum(swept) <= sum(charged), (name, q)


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
        assert count_graph(g, 5) == rec and sweeps == [5]
        count_graph(g, 5, opts=CountOptions("brute"))  # brute sweeps psi itself
        assert sweeps == [5, 5]
    assert count_graph(g, 5) == rec and sweeps == [5, 5, 5]


def test_repeated_count_finds_its_sweep_before_any_work(monkeypatch, sweeps):
    # a repeat neither relabels the graph nor splits psi before its memo hit
    calls = []
    for name in ("relabel_dense", "split_last_var"):
        fn = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    g = delete_edge(CAT["wheel_4"], 0)  # labels 1..7, so counting relabels it
    with counting.shared_counts():
        rec = count_graph(g, 5)
        assert calls and sweeps == [5]
        calls.clear()
        assert count_graph(g, 5) == rec and count_graph(g, 5) == rec
    assert calls == [] and sweeps == [5]


def test_shared_counts_builds_each_psi_once(monkeypatch):
    built = []
    build = counting.psi_by_deletion_contraction

    def spy(g):
        built.append(g)
        return build(g)

    monkeypatch.setattr(counting, "psi_by_deletion_contraction", spy)
    k4 = CAT["complete_4"]
    with counting.shared_counts():
        for q in (3, 5):
            count_graph(k4, q)
            count_graph(delete_edge(k4, 5), q)  # the deletion count_Z sweeps too
            z = count_Z(k4, 5, q)
        with counting.shared_counts():  # joins the block: reads and adds to its memo
            count_graph(k4, 3)
            count_Z(k4, 4, 3)
        count_graph(contract_edge(k4, 4), 3)
    assert len(built) == len(set(built)) == 5  # k4 and its minors at edges 5 and 4
    assert z == count_Z(k4, 5, 5) and len(built) == 7  # no memo outside the block


def test_Z_at_the_fibered_edge_reads_the_count_sweep(sweeps):
    # triangle_tail's top label is the tail's bridge: count_graph fibers at
    # the highest regular edge instead, and count_Z there sweeps nothing new.
    g = CAT["triangle_tail"]
    regular = [e for e in g.labels if classify_edge(g, e) is EdgeKind.REGULAR]
    zs = [count_Z(g, e, 5) for e in regular]
    with counting.shared_counts():
        count_graph(g, 5)
        sweeps.clear()
        assert [count_Z(g, e, 5) for e in regular] == zs
    assert len(sweeps) == len(regular) - 1 == 2


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


def _level2_quadruple(p):
    a, b = split_last_var(p, p.var_count - 1)
    return (*split_last_var(a, a.var_count - 1), *split_last_var(b, b.var_count - 1))


@pytest.mark.parametrize(
    "polys,q,cross",
    [
        # wheel_4's level-1 pair: 5^7 grid points; a full grid is 625 kB
        (split_last_var(psi_by_trees(CAT["wheel_4"]), 7), 5, False),
        # 3^12 grid points in 2^6 blocks of 3^6: 2^6 half-transformed blocks
        # of 3^6 values are 373 kB
        ((psi_by_trees(generate_family(FamilySpec.parse("wheel:6"))),), 3, False),
        # wheel_4's level-2 quadruple: four full grids of 5^6 are 500 kB
        (_level2_quadruple(psi_by_trees(CAT["wheel_4"])), 5, True),
    ],
    ids=["wheel_4-pair-q5", "wheel_6-q3", "wheel_4-quad-q5"],
)
def test_sweep_memory_is_bounded_by_chunk(polys, q, cross):
    expected = sweep_zero_patterns(list(polys), q, cross=cross)
    tracemalloc.start()
    try:
        got = sweep_zero_patterns(list(polys), q, chunk_points=1000, cross=cross)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 32 * 1000 * 8


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
    # psi_12 = 399165290221 * 798330580441 passes the bases 2..37; psi_13
    # passes 2..41, so moduli from it up are refused, not tested
    with pytest.raises(NotPrimeError):
        count_graph(Multigraph(2, ()), 318665857834031151167461)
    with pytest.raises(ValueError, match="not below 3317044064679887385961981"):
        count_graph(Multigraph(2, ()), 3317044064679887385961981)
    with pytest.raises(ValueError, match="not below 3317044064679887385961981"):
        is_prime(3317044064679887385961981)
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
