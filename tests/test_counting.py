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
    UnknownLabelError,
    catalog_by_name,
    count_Z,
    count_brute,
    count_fibered,
    count_graph,
    count_projective,
    is_prime,
    psi_by_trees,
    require_primes,
    sweep_zero_patterns,
)
from graphmotive import counting
from graphmotive.cli import main
from graphmotive.families import FamilySpec, generate_family
from graphmotive.graphs import Edge, EdgeKind, classify_edge, contract_edge, delete_edge
from graphmotive.symanzik import evaluate, psi_by_deletion_contraction, split_last_var

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
        with counting.shared_counts(CountOptions("brute")):
            rec = count_graph(CAT[name], 3)
        assert (rec.affine_zero_count, rec.complement_count) == (zeros, complement), name


def test_both_methods_match_frozen_q5_grid():
    for name, (zeros, complement) in Q5_GRID.items():
        with counting.shared_counts(CountOptions("both")):
            rec = count_graph(CAT[name], 5)
        assert (rec.affine_zero_count, rec.complement_count) == (zeros, complement), name


def test_projective_counts_match_frozen():
    for name, by_q in PROJECTIVE.items():
        for q, expected in by_q.items():
            rec = count_graph(CAT[name], q)
            assert count_projective(rec) == expected, (name, q)


def test_worked_examples():
    with counting.shared_counts(CountOptions("both")):
        rec = count_graph(CAT["cycle_3"], 3)
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
        p = psi_by_deletion_contraction(g)
        for q in (2, 3, 5, 7, 11, 13):
            if q**g.edge_count > 10**6:
                continue
            with counting.shared_counts(CountOptions("both")):
                rec = count_graph(g, q)
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


def _terms(width, coefficients, max_size, degree=None):
    """Terms of a multilinear polynomial in `width` variables; homogeneous
    of `degree`, with at least one term, unless degree is None."""
    masks = [m for m in range(1 << width) if degree is None or m.bit_count() == degree]
    least = int(degree is not None)
    return st.dictionaries(st.sampled_from(masks), coefficients, min_size=least, max_size=max_size)


@st.composite
def sweep_cases(draw):
    # 251 is the largest prime with uint32 residues, 257 the smallest in int64
    q = draw(st.sampled_from([2, 3, 5, 7, 251, 257]))
    width = draw(st.integers(0, 5 if q < 251 else 2))
    coefficients = st.integers(-(10**20), 10**20)
    cone = draw(st.booleans())
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        # half the time homogeneous, so that cone=True can take one block
        # per line through the origin
        degree = draw(st.integers(0, width)) if draw(st.booleans()) else None
        polys.append(MultilinearPoly(width, draw(_terms(width, coefficients, 8, degree))))
    chunk = draw(st.sampled_from([1, 2, q - 1, q + 1, 97, counting.DEFAULT_CHUNK]))
    if q > 7:  # at most q blocks: q^2 one-point blocks would take seconds
        chunk = max(chunk, len(polys) * q)
    return polys, q, chunk, draw(st.sampled_from([1, 2])), cone


@settings(max_examples=60, deadline=None)
@given(sweep_cases())
def test_sweep_patterns_agree_with_naive_enumeration(case):
    # Chunks below q fold every coordinate into the polynomials (no inner
    # axis), q+1 and 97 split outer and inner axes, the default is all inner.
    polys, q, chunk, workers, cone = case
    expected = _oracles.zero_patterns([p.terms for p in polys], polys[0].var_count, q)
    got = sweep_zero_patterns(polys, q, chunk_points=chunk, workers=workers, cone=cone)
    assert got == expected


@st.composite
def cross_cases(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 251, 257]))
    width = draw(st.integers(0, 4 if q < 251 else 2))
    coefficients = st.integers(-9, 9)
    degrees, shape = [None] * 4, None
    if draw(st.booleans()):
        # homogeneous parts: mostly balanced, d0 + d3 = d1 + d2, as in the
        # (A1, A0, B1, B0) of a homogeneous psi; or any degrees with one
        # part zero; or any degrees, which sweep in full
        degrees = [draw(st.integers(0, width)) for _ in range(4)]
        shape = draw(st.sampled_from(["balanced", "any", 0, 1, 2, 3]))
        if shape == "balanced":
            d12 = degrees[1] + degrees[2]
            degrees[0] = draw(st.integers(max(0, d12 - width), min(width, d12)))
            degrees[3] = d12 - degrees[0]
    polys = [MultilinearPoly(width, draw(_terms(width, coefficients, 6, d))) for d in degrees]
    if isinstance(shape, int):
        polys[shape] = MultilinearPoly.zero(width)
    chunk = draw(st.sampled_from([1, q - 1, q + 1, 97, counting.DEFAULT_CHUNK]))
    if q > 7:  # as in sweep_cases
        chunk = max(chunk, 4 * q)
    return polys, q, chunk, draw(st.sampled_from([1, 2])), draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(cross_cases())
def test_cross_patterns_agree_with_naive_enumeration(case):
    polys, q, chunk, workers, cone = case
    expected = _oracles.cross_zero_patterns([p.terms for p in polys], polys[0].var_count, q)
    got = sweep_zero_patterns(polys, q, chunk_points=chunk, workers=workers, cross=True, cone=cone)
    assert got == expected


def _var(width, *variables):
    return MultilinearPoly(width, {sum(1 << v for v in variables): 1})


@pytest.mark.parametrize(
    "polys,cross",
    [
        # x*y + z + 1 is not homogeneous: x*y = -1-c has 2q-1 solutions on
        # the plane z = c = -1 and q-1 on the others
        ([_var(3, 0, 1) + _var(3, 2) + _var(3)], False),
        # (x, y, z, w*u): x*w*u and y*z scale by l^3 and l^2
        ([_var(5, 0), _var(5, 1), _var(5, 2), _var(5, 3, 4)], True),
        # (x, 1, y, x): x^2 = y has 0 or 2 solutions on each line y = c,
        # so one block per line through the origin would miscount it
        ([_var(2, 0), _var(2), _var(2, 1), _var(2, 0)], True),
    ],
    ids=["inhomogeneous", "unbalanced-cross", "unbalanced-square"],
)
def test_cone_sweep_of_input_that_is_no_cone_is_full(polys, cross):
    width, q = polys[0].var_count, 5
    oracle = _oracles.cross_zero_patterns if cross else _oracles.zero_patterns
    expected = oracle([p.terms for p in polys], width, q)
    assert not counting._scales_alike(polys, q, cross)
    for chunk in (1, len(polys) * q):
        got = sweep_zero_patterns(polys, q, chunk_points=chunk, cross=cross, cone=True)
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


@settings(max_examples=30, deadline=None)
@given(small_graphs(), st.sampled_from([2, 3]), st.randoms(use_true_random=False))
def test_memo_hits_between_isomorphic_graphs_are_exact(g, q, rng):
    # One block counts g, a copy under other vertex names and labels, and
    # every deletion, and takes Z at every regular edge of both: each value
    # read from the memo equals the value counted with no memo.
    vertex = rng.sample(range(g.vertex_count), g.vertex_count)
    label = dict(zip(g.labels, rng.sample(range(40), g.edge_count)))
    edges = tuple(Edge(label[e.label], vertex[e.u], vertex[e.v]) for e in g.edges)
    copy = Multigraph(g.vertex_count, edges)
    regular = [e for e in g.labels if classify_edge(g, e) is EdgeKind.REGULAR]
    minors = [delete_edge(g, e) for e in g.labels]

    def everything():
        counts = [count_graph(h, q) for h in (copy, g, *minors)]
        zs = [(count_Z(copy, label[e], q), count_Z(g, e, q)) for e in regular]
        return counts, zs

    alone = everything()
    with counting.shared_counts():
        shared = everything()
    assert shared == alone
    assert alone[0][0] == alone[0][1] and all(a == b for a, b in alone[1])


def test_Z_requires_regular_edge():
    with pytest.raises(NotRegularEdgeError):
        count_Z(CAT["dumbbell_3"], 3, 3)  # loop
    with pytest.raises(NotRegularEdgeError):
        count_Z(CAT["path_2"], 0, 3)  # bridge


def test_Z_admits_before_it_reads_the_edge(monkeypatch, sweeps):
    # As in every counter, the modulus and the budget come first: under a
    # budget that refuses the count, a loop, a bridge and an unknown label
    # are all refused on the budget, before any reduction or sweep.
    reduced = []
    reduce = counting._reduce
    monkeypatch.setattr(counting, "_reduce", lambda g: reduced.append(g) or reduce(g))
    cases = [
        (CAT["dumbbell_3"], 3, NotRegularEdgeError),  # loop
        (CAT["path_2"], 0, NotRegularEdgeError),  # bridge
        (CAT["cycle_3"], 9, UnknownLabelError),
    ]
    for g, label, error in cases:
        with pytest.raises(error):
            count_Z(g, label, 3)
        with pytest.raises(NotPrimeError):
            count_Z(g, label, 9)
        assert _refusal(count_Z, g, label, 3, budget=1).startswith("Z-locus sweep over F_3^")
    assert len(reduced) == 3 and sweeps == []


# -- projective access ---------------------------------------------------------


def test_projective_requires_hypersurface():
    rec = count_graph(CAT["path_2"], 3)
    assert rec.projective_count is None
    with pytest.raises(NoProjectiveHypersurfaceError):
        count_projective(rec)


# -- budget --------------------------------------------------------------------


def _refusal(count, *args, budget, method="fibered"):
    with pytest.raises(BudgetExceededError) as refused:
        with counting.shared_counts(CountOptions(method, budget=budget)):
            count(*args)
    return str(refused.value)


def test_budget_guards():
    k4 = CAT["complete_4"]
    p = psi_by_trees(k4)
    assert _refusal(count_brute, p, 3, budget=728) == (
        "brute count over F_3^6 needs 729 point evaluations, budget is 728"
    )
    with counting.shared_counts(CountOptions(budget=729)):
        count_brute(p, 3)
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

    def charge(cost, what):
        charged.append(cost)
        return check(cost, what)

    def spy(polys, q, **kw):
        swept.append(len(polys) * q ** polys[0].var_count)
        return sweep(polys, q, **kw)

    monkeypatch.setattr(counting, "_check_budget", charge)
    monkeypatch.setattr(counting, "sweep_zero_patterns", spy)
    for name, g in CAT.items():
        p = psi_by_deletion_contraction(g)
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
            # count_graph charges each level of its method once (an edgeless
            # graph's fibered level sweeps nothing and is not charged)
            for method, levels in counting.METHODS.items():
                charged.clear()
                swept.clear()
                with counting.shared_counts(CountOptions(method=method)):
                    count_graph(g, q)
                assert len(charged) <= len(levels), (name, q, method)
                assert sum(swept) <= sum(charged), (name, q, method)


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
    g = CAT[graph]
    with counting.shared_counts(CountOptions(method, budget=budget)):
        with pytest.raises(BudgetExceededError) as counted:
            count_graph(g, 3)
        with pytest.raises(BudgetExceededError) as planned:
            counting.check_count_budget(g, 3)
    expected = f"{message} point evaluations, budget is {budget}"
    assert str(planned.value) == str(counted.value) == expected
    assert sweeps == []


@pytest.mark.parametrize("method", ["brute", "fibered", "both"])
def test_check_count_budget_passes_edgeless(sweeps, method):
    # (edgeless, complete_4) sweeps: one per level, and none for level 1 on 0 edges
    edgeless_sweeps, k4_sweeps = {"brute": (1, 1), "fibered": (0, 1), "both": (1, 2)}[method]
    with counting.shared_counts(CountOptions(method, budget=1)):
        counting.check_count_budget(CAT["edgeless"], 3)
        assert count_graph(CAT["edgeless"], 3) == CountRecord(3, 0, 0, 1)
    assert len(sweeps) == edgeless_sweeps
    with counting.shared_counts(CountOptions(method)):
        count_graph(CAT["complete_4"], 3)
    assert len(sweeps) == edgeless_sweeps + k4_sweeps


def test_fibered_count_of_a_forest_sweeps_nothing(monkeypatch, sweeps):
    # psi of a forest is the constant 1: charged as any fibered count, but
    # it vanishes nowhere, so nothing is swept. Every block is a bridge, so
    # no canonical search (a 9-leg spider's would visit CANON_LEAF_BOUND
    # leaves) and no psi build runs either. Brute force still sweeps.
    calls = []
    for name in ("canonical_relabel", "psi_by_deletion_contraction"):
        fn = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    star = Multigraph.from_pairs(19, [(0, i) for i in range(1, 19)])
    spider = Multigraph.from_pairs(19, [(0, i) for i in range(1, 10)] + [(i, i + 9) for i in range(1, 10)])
    for g, q in ((CAT["path_3"], 5), (star, 2), (spider, 2)):
        sweeps.clear()
        calls.clear()
        n, cost = g.edge_count, 2 * q ** (g.edge_count - 1)
        assert count_graph(g, q) == CountRecord(q, n, 0, q**n)
        assert calls == [] and sweeps == [], g
        with pytest.raises(BudgetExceededError, match=rf"^fibered count over F_{q}\^{n - 1} needs {cost} "):
            with counting.shared_counts(CountOptions(budget=cost - 1)):
                count_graph(g, q)
        with counting.shared_counts(CountOptions("both")):
            assert count_graph(g, q) == CountRecord(q, n, 0, q**n)
        assert sweeps == [q]


def test_shared_counts_memoizes_only_inside_the_block(sweeps):
    g = CAT["complete_4"]
    with counting.shared_counts():
        rec = count_graph(g, 5)
        assert count_graph(g, 5) == rec and sweeps == [5]
        with counting.shared_counts(CountOptions("brute")):  # joins the memo
            count_graph(g, 5)  # brute sweeps psi itself
            assert count_graph(g, 5) == rec and sweeps == [5, 5]
        assert count_graph(g, 5) == rec and sweeps == [5, 5]
    assert count_graph(g, 5) == rec and sweeps == [5, 5, 5]


def test_memo_hit_never_passes_a_stricter_nested_budget(sweeps):
    # wheel_4 at q=11 is charged 2*11^7 per count; a nested block's budget
    # refuses it before the memo is read, with a cold count's message.
    g, strict = CAT["wheel_4"], CountOptions(budget=10**6)
    counts = (lambda: count_graph(g, 11), lambda: count_Z(g, 7, 11))

    def refusals():
        messages = []
        for count in counts:
            with pytest.raises(BudgetExceededError) as refused:
                count()
            messages.append(str(refused.value))
        return messages

    with counting.shared_counts(strict):
        cold = refusals()
    assert cold[0].startswith("fibered count over F_11^7 needs 38974342 ") and sweeps == []
    with counting.shared_counts():
        warm = [count() for count in counts]
        assert len(sweeps) == 1  # Z at edge 7 reads the count's sweep
        with counting.shared_counts(strict):
            assert refusals() == cold
        assert [count() for count in counts] == warm  # the outer budget again
    assert len(sweeps) == 1


def test_repeated_count_finds_its_sweep_before_any_work(monkeypatch, sweeps):
    # a repeat runs no canonical search and splits no psi before its memo hit
    calls = []
    for name in ("canonical_relabel", "split_last_var"):
        fn = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    g = delete_edge(CAT["wheel_4"], 0)  # labels 1..7
    with counting.shared_counts():
        rec = count_graph(g, 5)
        assert "canonical_relabel" in calls and "split_last_var" in calls and sweeps == [5]
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
            count_graph(delete_edge(k4, 5), q)
            z = count_Z(k4, 5, q)  # K4's edges are one orbit: k4's own psi
        with counting.shared_counts():  # joins the block: reads and adds to its memo
            count_graph(delete_edge(k4, 0), 3)  # isomorphic to K4 minus edge 5
            count_Z(k4, 4, 3)
        count_graph(contract_edge(k4, 4), 3)
    assert len(built) == len(set(built)) == 3  # K4, its deletion and its contraction
    assert z == count_Z(k4, 5, 5) and len(built) == 4  # no memo outside the block


def test_Z_at_the_fibered_edge_reads_the_count_sweep(sweeps):
    # A triangle with two sides doubled, its third side a path of two
    # edges, and a tail. The top label is the tail's bridge, so count_graph
    # fibers the reduced block (the path merged into one edge) at a regular
    # edge instead. Its edges form two orbits, the four doubled edges and
    # the merged one: count_Z at every edge of the fibered edge's orbit,
    # or of the path that merged into it, reads the count's sweep, and the
    # other orbit sweeps once per prime.
    g = Multigraph.from_pairs(5, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (3, 0), (2, 4)])
    regular = [e for e in g.labels if classify_edge(g, e) is EdgeKind.REGULAR]
    assert regular == [0, 1, 2, 3, 4, 5]
    zs = [count_Z(g, e, 5) for e in regular]
    with counting.shared_counts():
        count_graph(g, 5)
        sweeps.clear()
        assert [count_Z(g, e, 5) for e in regular] == zs
        assert len(sweeps) == 1
        # an isomorphic copy under other vertex names and labels sweeps nothing
        copy = Multigraph(5, tuple(Edge(9 - e.label, 4 - e.u, 4 - e.v) for e in g.edges))
        count_graph(copy, 5)
        assert [count_Z(copy, 9 - e, 5) for e in regular] == zs and len(sweeps) == 1


# -- blocks and series reduction ----------------------------------------------


@st.composite
def glued_graphs(draw):
    """Random multigraphs of at most 7 edges made of what count_graph takes
    apart: cycles, bundles of parallel edges, random multigraphs on three
    vertices (with loops), loops and single edges, each glued to the graph
    so far at one vertex or set beside it, then edges subdivided into
    paths of degree-2 vertices."""
    vertex_count, pairs = 0, []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["cycle", "bundle", "random", "loop", "edge"]))
        size = draw(st.integers(2, 4))
        if kind == "cycle":
            piece = [(i, (i + 1) % size) for i in range(size)]
        elif kind == "bundle":
            piece = [(0, 1)] * size
        elif kind == "random":
            piece = [(draw(st.integers(0, 2)), draw(st.integers(0, 2))) for _ in range(size)]
        else:
            piece = [(0, 0)] if kind == "loop" else [(0, 1)]
        if len(pairs) + len(piece) > 7:
            continue
        inner = max(w for pair in piece for w in pair) + 1
        names = list(range(vertex_count, vertex_count + inner))
        if vertex_count and draw(st.booleans()):  # glue at a cut vertex
            names = [draw(st.integers(0, vertex_count - 1))] + names[:-1]
        vertex_count = max(vertex_count, *(w + 1 for w in names))
        pairs += [(names[u], names[v]) for u, v in piece]
    for _ in range(draw(st.integers(0, 7 - len(pairs)))):
        i = draw(st.integers(0, len(pairs) - 1))
        u, v = pairs[i]
        pairs[i] = (u, vertex_count)
        pairs.append((vertex_count, v))
        vertex_count += 1
    return Multigraph.from_pairs(vertex_count, draw(st.permutations(pairs)))


@settings(max_examples=40, deadline=None)
@given(glued_graphs(), st.sampled_from([3, 5, 7]))
@example(CAT["banana_2"], 5)  # one block of two edges: one merge leaves a loop
@example(CAT["cycle_5"], 7)  # merges to banana_2, then to a loop
# two triangles at a cut vertex, and a loop beside them
@example(Multigraph.from_pairs(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (5, 5)]), 3)
# a diamond, which merges twice to banana_3, with a bridge and a loop
@example(Multigraph.from_pairs(5, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 4)]), 5)
def test_block_factorisation_matches_whole_graph_counts(g, q):
    # The fibered count multiplies over g's series-reduced blocks; level 2
    # and brute force of g's own psi count the whole graph. Z at each
    # regular edge, by the block formula, against a pure-Python count of
    # the unreduced minors, at q=3 to keep that enumeration small.
    p = psi_by_deletion_contraction(g)
    rec = count_graph(g, q)
    assert rec == count_brute(p, q)
    if p.var_count:
        assert rec == count_fibered(p, p.var_count - 1, q)
    for e in g.labels:
        if classify_edge(g, e) is EdgeKind.REGULAR:
            minors = [delete_edge(g, e), contract_edge(g, e)]
            terms = [_without_var(_oracles.psi_term_masks(m), e) for m in minors]
            assert count_Z(g, e, 3) == _oracles.zero_patterns(terms, g.edge_count - 1, 3)[3], e


def test_blocks_glued_anywhere_share_their_sweeps(monkeypatch, sweeps):
    # Graphs with the same blocks, glued at other vertices or set apart,
    # share every sweep and psi build: the second of each pair sweeps
    # nothing. A Whitney twist inside one block (a 2-separation {a, b} of
    # a block, one side flipped) keeps the cycle matroid, so psi, but not
    # the isomorphism class, and sweeps again: blocks are keyed as graphs,
    # not as matroids.
    built = []
    build = counting.psi_by_deletion_contraction
    monkeypatch.setattr(counting, "psi_by_deletion_contraction", lambda g: built.append(g) or build(g))
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    glued = Multigraph.from_pairs(7, k4 + [(0 if w == 0 else w + 3, v + 3) for w, v in k4])
    apart = Multigraph.from_pairs(8, k4 + [(u + 4, v + 4) for u, v in k4])
    pendant = Multigraph.from_pairs(5, k4 + [(0, 4)])
    beside = Multigraph.from_pairs(6, k4 + [(4, 5)])
    twisted = [(0, 2), (0, 2), (1, 2), (0, 1), (0, 3), (0, 3), (1, 3)]  # degrees 5, 3, 3, 3
    untwisted = [(0, 2), (0, 2), (1, 2), (0, 1), (1, 3), (1, 3), (0, 3)]  # degrees 4, 4, 3, 3
    with counting.shared_counts():
        for first, second in ((glued, apart), (pendant, beside)):
            rec = count_graph(first, 3)
            work = (len(sweeps), len(built))
            assert count_graph(second, 3).complement_count == rec.complement_count
            assert (len(sweeps), len(built)) == work
        sweeps.clear()
        built.clear()
        rec = count_graph(Multigraph.from_pairs(4, twisted), 3)
        assert count_graph(Multigraph.from_pairs(4, untwisted), 3) == rec
        assert build(Multigraph.from_pairs(4, twisted)) == build(Multigraph.from_pairs(4, untwisted))
        assert len(sweeps) == len(built) == 2


@st.composite
def spread_graphs(draw):
    """small_graphs() with up to three isolated vertices among the others."""
    g = draw(small_graphs())
    vertex_count = g.vertex_count + draw(st.integers(0, 3))
    place = draw(st.permutations(range(vertex_count)))
    return Multigraph(vertex_count, tuple(Edge(e.label, place[e.u], place[e.v]) for e in g.edges))


@settings(max_examples=60, deadline=None)
@given(st.one_of(glued_graphs(), spread_graphs()))
# K4 with a pendant path and a loop, on vertices spread apart
@example(Multigraph.from_pairs(9, [(0, 2), (0, 4), (0, 6), (2, 4), (2, 6), (4, 6), (6, 8), (8, 8)]))
def test_block_split_matches_cycle_oracle(g):
    # _block_labels joins two edges at a vertex whose far ends stay joined
    # without it; the oracle joins the edges of every cycle it enumerates.
    # The bridges are exactly the classes of one edge.
    classes: dict[int, set[int]] = {}
    for label, block in counting._block_labels(g).items():
        classes.setdefault(block, set()).add(label)
    partition = {frozenset(labels) for labels in classes.values()}
    assert partition == _oracles.blocks_by_cycles(g)
    bridges = {label for label in g.labels if classify_edge(g, label) is EdgeKind.BRIDGE}
    assert {label for labels in partition if len(labels) == 1 for label in labels} == bridges


def test_reduction_stays_edge_sized():
    # wheel_4, and wheel_4 with a subdivided spoke, a tail and a loop, each
    # spread over 65,536 vertices, reduce as on their own vertices; a pass
    # per vertex or a list of vertex_count entries (its 65,536 pointers
    # alone are 0.5 MB) would show in the traced peak.
    wheel = CAT["wheel_4"]
    pairs = [(e.u, e.v) for e in wheel.edges] + [(0, 5), (5, 1), (4, 6), (6, 7), (7, 7)]
    extra = Multigraph.from_pairs(8, pairs)
    for small in (wheel, extra):
        step = ((1 << 16) - 1) // (small.vertex_count - 1)
        big = Multigraph(1 << 16, tuple(Edge(e.label, e.u * step, e.v * step) for e in small.edges))
        tracemalloc.start()
        try:
            spread = counting._reduce(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        compact = counting._reduce(small)
        assert spread[:2] == compact[:2] and spread.home == compact.home
        assert [b[:2] for b in spread.blocks] == [b[:2] for b in compact.blocks]
        assert peak < 2**17, peak


def test_Z_stays_edge_sized(monkeypatch):
    # wheel_4 spread over 65,536 vertices: a repeat count_Z reads the
    # memoized reduction and classifies no edge, so no list of vertex_count
    # entries (its 65,536 pointers alone are 0.5 MB) shows in its peak.
    calls = []
    classify = counting.classify_edge
    monkeypatch.setattr(counting, "classify_edge", lambda *a: calls.append(a) or classify(*a))
    small = CAT["wheel_4"]
    step = ((1 << 16) - 1) // (small.vertex_count - 1)
    big = Multigraph(1 << 16, tuple(Edge(e.label, e.u * step, e.v * step) for e in small.edges))
    with counting.shared_counts():
        assert count_Z(big, 7, 3) == count_Z(small, 7, 3) == 375
        tracemalloc.start()
        try:
            z = count_Z(big, 7, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert z == 375 and calls == [] and peak < 2**17, peak


@pytest.mark.parametrize("method", sorted(counting.METHODS))
def test_count_graph_classifies_no_edge(monkeypatch, method):
    # every edge of a reduced block is regular, and brute force needs no
    # regular mark, so a count form is found without classifying any edge
    calls = []
    classify = counting.classify_edge
    monkeypatch.setattr(counting, "classify_edge", lambda *a: calls.append(a) or classify(*a))
    with counting.shared_counts(CountOptions(method)):
        for g in CAT.values():
            count_graph(g, 3)
    assert calls == []


# -- cone reduction ------------------------------------------------------------


def _one_point_blocks(monkeypatch) -> tuple[list, list]:
    """From here on fibered sweeps take one-point blocks (chunk_points
    below 4*q), so every one of positive width has outer blocks; brute
    force sweeps as usual. Returns what _scales_alike answers, and the
    width of each fibered sweep."""
    sweep, scales_alike = counting.sweep_zero_patterns, counting._scales_alike
    answers, widths = [], []

    def one_point_blocks(polys, q, **kw):
        if kw["cone"]:
            widths.append(polys[0].var_count)
        return sweep(polys, q, **kw, **({"chunk_points": 4 * q - 1} if kw["cone"] else {}))

    def spy(*args):
        answers.append(scales_alike(*args))
        return answers[-1]

    monkeypatch.setattr(counting, "sweep_zero_patterns", one_point_blocks)
    monkeypatch.setattr(counting, "_scales_alike", spy)
    return answers, widths


def _counts_and_Z(g, q):
    """count_graph by both levels, which insists that they agree, and
    count_Z at every regular edge."""
    regular = [e for e in g.labels if classify_edge(g, e) is EdgeKind.REGULAR]
    with counting.shared_counts(CountOptions("both")):
        rec = count_graph(g, q)
    return rec, [count_Z(g, e, q) for e in regular]


def _whole_psi_count(g, q):
    """count_fibered of g's own unreduced psi at its last variable: bridge
    variables left out of psi and series paths kept whole."""
    p = psi_by_deletion_contraction(g)
    return count_fibered(p, p.var_count - 1, q)


def test_cone_reduced_counts_match_brute_on_catalog(monkeypatch):
    # At the default chunk no catalog sweep has outer blocks, so the
    # reference Z values come from full sweeps. count_graph and count_Z
    # sweep series-reduced blocks; count_fibered of each whole psi also
    # puts unreduced psi through the cone path.
    cases = [(name, q, grid[name]) for q, grid in ((3, Q3_GRID), (5, Q5_GRID)) for name in grid]
    full = [_counts_and_Z(CAT[name], q) for name, q, _ in cases]
    for (name, q, frozen), (rec, _) in zip(cases, full):
        assert (rec.affine_zero_count, rec.complement_count) == frozen, (name, q)
        assert _whole_psi_count(CAT[name], q) == rec, (name, q)
    answers, widths = _one_point_blocks(monkeypatch)
    assert [_counts_and_Z(CAT[name], q) for name, q, _ in cases] == full
    assert [_whole_psi_count(CAT[name], q) for name, q, _ in cases] == [rec for rec, _ in full]
    # every fibered sweep of positive width had outer blocks and took one
    # block per line
    assert len(answers) == sum(w > 0 for w in widths) > 100 and all(answers)


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.sampled_from([2, 3, 5]))
def test_cone_reduced_counts_match_brute_on_random_graphs(g, q):
    full = _counts_and_Z(g, q)
    with pytest.MonkeyPatch.context() as monkeypatch:
        answers, _ = _one_point_blocks(monkeypatch)
        assert _counts_and_Z(g, q) == full
    assert all(answers)


def test_fibered_wheel_4_sweeps_one_block_per_line(monkeypatch):
    # 4 polynomials over F_11^6 in blocks of 11^4 points: 121 blocks, of
    # which y = 0 and the 12 with last nonzero outer coordinate 1 are swept
    grids = []
    grid_values = counting._grid_values
    monkeypatch.setattr(counting, "_grid_values", lambda *a: grids.append(a) or grid_values(*a))
    rec = count_graph(CAT["wheel_4"], 11)
    assert len(grids) == 13 and rec.affine_zero_count == 19887681
    grids.clear()
    with counting.shared_counts(CountOptions("both")):
        assert count_graph(CAT["wheel_4"], 11) == rec
    assert len(grids) == 13 + 11**3  # brute force: 11^8 points in blocks of 11^5


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
    # sibling blocks: in one memo the second count would sweep nothing
    with counting.shared_counts(CountOptions("fibered", workers=1)):
        rec1 = count_graph(CAT["wheel_4"], 3)
    small_chunks = functools.partial(counting.sweep_zero_patterns, chunk_points=100)
    monkeypatch.setattr(counting, "sweep_zero_patterns", small_chunks)
    with counting.shared_counts(CountOptions("fibered", workers=4)):
        rec4 = count_graph(CAT["wheel_4"], 3)
    assert rec1 == rec4 == CountRecord(3, 8, 2529, 4032, projective_count=1264)


# -- input validation ----------------------------------------------------------


def test_sweep_rejects_mixed_widths():
    with pytest.raises(ValueError):
        sweep_zero_patterns([MultilinearPoly.zero(2), MultilinearPoly.zero(3)], 3)


@pytest.mark.parametrize("workers", [0, -1, counting.MAX_WORKERS + 1])
def test_sweep_rejects_bad_workers(monkeypatch, workers):
    # Refused before any pool is made: 9 blocks of 3 points would give lanes.
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was made")

    monkeypatch.setattr(counting, "ThreadPoolExecutor", no_pool)
    p = psi_by_trees(CAT["cycle_3"])
    with pytest.raises(ValueError, match="workers"):
        sweep_zero_patterns([p], 3, chunk_points=3, workers=workers)


def test_prime_and_size_limits(capsys, sweeps):
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
    # the least prime above 2^31 is refused as a modulus by every entry
    # point, before any budget check or sweep
    big = 2147483659
    too_large = "modulus 2147483659 too large for 64-bit sweep arithmetic"
    refusals = [
        lambda: require_primes((3, 5, big)),
        lambda: count_graph(CAT["single_edge"], big),
        lambda: count_Z(CAT["cycle_3"], 0, big),
        lambda: count_brute(p, big),
        lambda: evaluate(p, [1, 2, 3], big),
    ]
    for refuse in refusals:
        with pytest.raises(ValueError, match=too_large):
            refuse()
    for argv in (
        ["verify", "--primes", f"3,5,{big}"],
        ["verify", "--family", "tree_path:2", "--primes", f"3,5,{big}"],
        ["count", "--family", "tree_path:1", "--primes", str(big)],
    ):
        assert main(argv) == 2, argv
        assert too_large in capsys.readouterr().err, argv
    assert sweeps == []


def test_count_graph_method_validation():
    too_many = {"workers": counting.MAX_WORKERS + 1}
    for bad in ({"method": "magic"}, {"budget": 0}, {"workers": 0}, too_many):
        with pytest.raises(ValueError), counting.shared_counts(CountOptions(**bad)):
            count_graph(CAT["cycle_3"], 3)
    rec = count_graph(Multigraph(2, ()), 7)
    assert rec == CountRecord(7, 0, 0, 1)
