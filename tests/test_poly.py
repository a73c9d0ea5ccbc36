"""Multilinear polynomials and the three graph-polynomial routes."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles
from graphmotive import (
    Edge,
    EdgeKind,
    FamilySpec,
    Multigraph,
    MultilinearPoly,
    NonMultilinearError,
    betti_1,
    classify_edge,
    contract_edge,
    delete_edge,
    disjoint_union,
    generate_family,
    graphs,
    psi_by_deletion_contraction,
    psi_by_trees,
    standard_catalog,
    symanzik,
)

C3 = Multigraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
B3 = Multigraph.from_pairs(2, [(0, 1)] * 3)


def small_graphs():
    """Random multigraphs, <= 5 vertices and <= 6 edges."""

    @st.composite
    def build(draw):
        nv = draw(st.integers(1, 5))
        n = draw(st.integers(0, 6))
        pairs = [
            (draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1)))
            for _ in range(n)
        ]
        return Multigraph.from_pairs(nv, pairs)

    return build()


def relabelled_graphs():
    """Random multigraphs, <= 6 edges, with labels drawn without order from
    0..19 (so with gaps, and the edge tuple not in label order) and up to
    two isolated vertices past the ones the edges may touch."""

    @st.composite
    def build(draw):
        nv = draw(st.integers(1, 4))
        n = draw(st.integers(0, 6))
        labels = draw(st.lists(st.integers(0, 19), min_size=n, max_size=n, unique=True))
        edges = tuple(
            Edge(label, draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1)))
            for label in labels
        )
        return Multigraph(nv + draw(st.integers(0, 2)), edges)

    return build()


def psi_forests(g):
    """The maximal spanning forests of g that psi_by_trees enumerates, read
    off its terms (each the complement of a forest among g's labels) as
    sorted label tuples, in lexicographic order."""
    labels = sorted(g.labels)
    full = sum(1 << label for label in labels)
    return sorted(
        tuple(label for label in labels if (full ^ mask) >> label & 1)
        for mask in psi_by_trees(g).terms
    )


# -- construction -------------------------------------------------------------


def test_construction_normalizes():
    p = MultilinearPoly(3, {0: 1, 5: 0, 3: 2})
    assert p.terms == {0: 1, 3: 2}
    with pytest.raises(NonMultilinearError):
        MultilinearPoly(2, {4: 1})  # mask beyond width
    with pytest.raises(NonMultilinearError):
        MultilinearPoly(64, {})
    # brute force would count 0 zeros of t0/2 + 1 at q = 3, the fibered
    # count 1: non-integers are refused, bools among them
    for var_count, terms in (
        (1, {1: 0.5, 0: 1}),
        (1, {1: 1.0}),
        (True, {1: 1}),
        (1.0, {}),
        (1, {1: True}),
        (1, {True: 1}),
        (2, {1.0: 1}),
    ):
        with pytest.raises(NonMultilinearError, match="integer"):
            MultilinearPoly(var_count, terms)


def test_degree_and_homogeneity():
    assert MultilinearPoly(3, {3: 1, 5: 1}).is_homogeneous()
    assert not MultilinearPoly(3, {3: 1, 4: 1}).is_homogeneous()
    assert MultilinearPoly(3, {7: 1}).degree() == 3
    assert MultilinearPoly(2, {}).degree() == 0
    assert MultilinearPoly(2, {}).is_homogeneous()


# -- rendering ----------------------------------------------------------------


def test_text_format_examples():
    assert psi_by_trees(B3).to_text() == "t0*t1 + t0*t2 + t1*t2"
    assert psi_by_trees(C3).to_text() == "t0 + t1 + t2"
    assert MultilinearPoly(0, {0: 1}).to_text() == "1"
    assert MultilinearPoly(2, {}).to_text() == "0"
    assert MultilinearPoly(2, {1: 1, 2: -1}).to_text() == "t0 - t1"
    assert MultilinearPoly(2, {0: -2, 3: 3}).to_text() == "-2 + 3*t0*t1"


def test_json_round_trip():
    p = psi_by_trees(B3)
    assert p.to_json_obj() == {"var_count": 3, "terms": [[3, 1], [5, 1], [6, 1]]}


# -- split -------------------------------------------------------------------


def test_split_of_regular_edge_gives_minor_polynomials():
    for name, g in standard_catalog():
        psi = psi_by_trees(g)
        for e in g.labels:
            if classify_edge(g, e) is not EdgeKind.REGULAR:
                continue
            a, b = _oracles.split_at(psi.terms, e)
            assert a == psi_by_trees(delete_edge(g, e)).terms, (name, e)
            assert b == psi_by_trees(contract_edge(g, e)).terms, (name, e)


# -- the three routes ---------------------------------------------------------


def test_route_examples():
    single_edge = Multigraph.from_pairs(2, [(0, 1)])
    assert psi_by_trees(single_edge) == MultilinearPoly(1, {0: 1})
    loop = Multigraph.from_pairs(1, [(0, 0)])
    assert psi_by_trees(loop).terms == {1: 1}
    bouquet2 = Multigraph.from_pairs(1, [(0, 0), (0, 0)])
    assert _oracles.psi_by_matrix_tree(bouquet2).terms == {3: 1}
    tree = Multigraph.from_pairs(4, [(0, 1), (1, 2), (1, 3)])
    assert _oracles.psi_by_matrix_tree(tree) == MultilinearPoly(3, {0: 1})
    bouquet4 = Multigraph.from_pairs(1, [(0, 0)] * 4)
    assert psi_by_deletion_contraction(bouquet4).terms == {15: 1}
    assert psi_by_deletion_contraction(single_edge) == MultilinearPoly(1, {0: 1})
    edgeless = Multigraph(2, ())
    assert psi_by_trees(edgeless) == MultilinearPoly(0, {0: 1})


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_routes_agree_on_random_graphs(g):
    p = psi_by_trees(g)
    assert p == _oracles.psi_by_matrix_tree(g)
    assert p == psi_by_deletion_contraction(g)


@settings(max_examples=40, deadline=None)
@given(relabelled_graphs())
def test_routes_agree_on_relabelled_graphs(g):
    # the sweep merges minors by Multigraph equality, which sees vertex
    # names, edge order and vertex count, not only the edge labels
    p = psi_by_trees(g)
    assert p == _oracles.psi_by_matrix_tree(g)
    assert p == psi_by_deletion_contraction(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs() | relabelled_graphs())
def test_trusted_results_equal_checked_construction(g):
    # the minors and both builders skip their constructors' checks: each
    # result must be what the checked constructor makes of the same data
    for e in g.edges:
        minors = [delete_edge(g, e.label)] + ([] if e.is_loop else [contract_edge(g, e.label)])
        for h in minors:
            checked = Multigraph(h.vertex_count, h.edges)
            assert type(h.edges) is tuple and all(type(f) is Edge for f in h.edges)
            assert h == checked and hash(h) == hash(checked)
    for p in (psi_by_trees(g), psi_by_deletion_contraction(g)):
        checked = MultilinearPoly(p.var_count, dict(p.terms))
        assert type(p.terms) is dict
        assert p == checked and hash(p) == hash(checked)


@pytest.mark.parametrize(
    "g",
    [
        Multigraph.from_pairs(400, [(300 + i, 300 + (i + 1) % 6) for i in range(6)]),
        Multigraph.from_pairs(graphs.MAX_VERTICES, [(i, graphs.MAX_VERTICES - 1 - i) for i in range(63)]),
    ],
    ids=["cycle_6_at_300", "matching_63"],
)
def test_forest_search_renames_vertices_past_one_byte(g):
    # the search names each vertex an edge touches by one byte; these
    # vertex ids pass 255, and the matching touches 126 vertices, the most
    # that MAX_EDGES non-loop edges can
    p = psi_by_trees(g)
    assert p.terms == _oracles.psi_term_masks(g)
    assert p == psi_by_deletion_contraction(g)


def test_forest_search_refuses_more_non_loop_edges_than_variables():
    # 64 edges touch 128 vertices, past one byte each; only a graph built
    # in code, not parsed, can hold them. psi refuses the label 63 before
    # the search starts
    g = Multigraph.from_pairs(128, [(2 * i, 2 * i + 1) for i in range(64)])
    with pytest.raises(NonMultilinearError, match="edge labels exceed 62"):
        psi_by_trees(g)


def square_int_matrices():
    """0x0 to 5x5 integer matrices, small entries so that singular ones and
    zero pivots needing a row swap are common."""

    @st.composite
    def build(draw):
        n = draw(st.integers(0, 5))
        entries = st.integers(-3, 3) | st.just(0)
        return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))

    return build()


@settings(max_examples=300, deadline=None)
@given(square_int_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
@example([[2, 1, 1], [4, 2, 5], [1, 3, 0]])
def test_integer_det_matches_leibniz(m):
    assert _oracles.integer_det(m) == _oracles.leibniz_det(m)


def test_deletion_contraction_builds_few_minors(monkeypatch):
    # merging equal minors builds complete:6 (1,296 terms) from 496 minors,
    # where one per recursion path made 5,812; the vertex-frontier sweep
    # order builds wheel:10 (15,125 terms) from 141, where sweeping labels
    # highest first made 7,241
    calls = []
    for name in ("delete_edge", "contract_edge"):
        build = getattr(symanzik, name)

        def counted(h, label, build=build):
            calls.append(label)
            return build(h, label)

        monkeypatch.setattr(symanzik, name, counted)
    for spec, bound in (("complete:6", 496), ("wheel:10", 500)):
        g = generate_family(FamilySpec.parse(spec))
        calls.clear()
        assert psi_by_deletion_contraction(g) == psi_by_trees(g)
        assert len(calls) <= bound, (spec, len(calls))


@pytest.mark.parametrize(
    "spec, states, widest",
    [("wheel:10", 89, 5), ("complete:7", 1300, 203)],
    ids=["wheel:10", "complete:7"],
)
def test_forest_frontier_never_outgrows_psi(monkeypatch, spec, states, widest):
    # partial forests that leave equal component partitions share one
    # state; in vertex-frontier order wheel:10 (15,125 forests) passes
    # through 89 states and complete:7 (16,807) through 1,300, and no step
    # holds more masks than psi has terms
    step = graphs._forest_step
    sizes = []

    def counted(*args):
        out = step(*args)
        sizes.append((len(out), sum(map(len, out.values()))))
        return out

    monkeypatch.setattr(graphs, "_forest_step", counted)
    g = generate_family(FamilySpec.parse(spec))
    terms = psi_by_trees(g).term_count()
    assert len(sizes) == g.edge_count
    assert sum(n for n, _ in sizes) == states
    assert max(n for n, _ in sizes) == widest
    assert max(entries for _, entries in sizes) <= terms
    assert sizes[-1] == (1, terms)


@st.composite
def spread_trees(draw, size=18):
    """Random trees on `size` vertices: each vertex past the first joins an
    earlier one, then the vertices are renamed and the edges reordered at
    random."""
    name = draw(st.permutations(range(size)))
    pairs = [(name[i], name[draw(st.integers(0, i - 1))]) for i in range(1, size)]
    return Multigraph.from_pairs(size, draw(st.permutations(pairs)))


@settings(max_examples=60, deadline=None)
@given(spread_trees())
def test_forest_frontier_takes_bridges_without_a_skip_child(g):
    # every maximal forest holds every bridge, so on a tree, all bridges,
    # each step holds one mask: the partial forest that took every edge so
    # far
    step = graphs._forest_step
    held = []

    def counted(*args):
        out = step(*args)
        held.append(sum(map(len, out.values())))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_forest_step", counted)
        assert psi_by_trees(g).terms == {0: 1}
    assert held == [1] * g.edge_count


@pytest.mark.parametrize(
    "g",
    [
        Multigraph.from_pairs(2, [(0, 1)]),
        Multigraph.from_pairs(2, [(0, 1), (0, 1), (1, 1)]),
        Multigraph.from_pairs(5, [(0, 1), (1, 2), (2, 0), (3, 4)]),
        Multigraph(
            9,
            (
                Edge(7, 1, 4), Edge(2, 4, 2), Edge(5, 2, 1), Edge(0, 5, 7),
                Edge(3, 7, 5), Edge(6, 8, 8), Edge(1, 0, 6), Edge(4, 6, 0),
            ),
        ),
    ],
    ids=["single_edge", "banana_2_loop", "disjoint_c3_edge", "three_components_isolated"],
)
def test_forest_frontier_closes_a_piece_only_at_its_last_vertex(g):
    # a piece whose last live vertex retires is kept only when that vertex
    # is the last of its whole component to retire, tested per vertex: in
    # each case both ends of some edge retire at it, and a rule that asks
    # only whether the component ends at that edge keeps the child that
    # skips the edge, a forest one tree short
    oracle = _oracles.forest_label_sets(g)
    assert graphs._forest_masks(g) == _oracles.psi_term_masks(g)
    assert psi_forests(g) == sorted(tuple(sorted(f)) for f in oracle)
    assert psi_by_trees(g).terms == _oracles.psi_term_masks(g)


def test_deletion_contraction_counts_a_mask_reached_twice(monkeypatch):
    # a real sweep reaches each (minor, mask) pair along one path, so psi's
    # coefficients are all 1; the frontier must still count, never dedupe.
    # Stubbed minors sweep edge 0 twice: regular in g (deleted to a,
    # contracted to b), then a loop in both a and b, each deleted to c, so
    # t0 reaches c along two paths and two merges
    g = Multigraph.from_pairs(2, [(0, 1)])
    a, b, c = (Multigraph(n, ()) for n in (3, 4, 5))
    monkeypatch.setattr(symanzik, "_sweep_order", lambda h: [0, 0])
    monkeypatch.setattr(
        symanzik, "classify_edge", lambda h, label: EdgeKind.REGULAR if h is g else EdgeKind.LOOP
    )
    monkeypatch.setattr(symanzik, "delete_edge", lambda h, label: a if h is g else c)
    monkeypatch.setattr(symanzik, "contract_edge", lambda h, label: b)
    assert psi_by_deletion_contraction(g) == MultilinearPoly(1, {0b1: 2})


def test_deletion_contraction_minors_are_edge_sized(monkeypatch):
    # wheel:5 spread over 65,536 vertices: the sweep starts from the 6
    # vertices its edges touch, so no minor pays for the isolated ones
    wheel = generate_family(FamilySpec.parse("wheel:5"))
    g = Multigraph(1 << 16, tuple(Edge(e.label, e.u * 13107, e.v * 13107) for e in wheel.edges))
    sizes = []
    contract = symanzik.contract_edge
    monkeypatch.setattr(
        symanzik, "contract_edge", lambda h, label: sizes.append(h.vertex_count) or contract(h, label)
    )
    assert psi_by_deletion_contraction(g) == psi_by_trees(g) == psi_by_trees(wheel)
    assert sizes and max(sizes) <= 6


def test_psi_builders_are_edge_sized():
    # wheel:5 spread over 65,536 vertices builds as on its own 6, and
    # wheel:4 so spread is classified as on its own 5: a repeat's traced
    # peak shows no list of vertex_count entries (its 65,536 pointers
    # alone are 0.5 MB)
    def spread(small):
        step = ((1 << 16) - 1) // (small.vertex_count - 1)
        return Multigraph(1 << 16, tuple(Edge(e.label, e.u * step, e.v * step) for e in small.edges))

    wheel5, wheel4 = (generate_family(FamilySpec.parse(f"wheel:{n}")) for n in (5, 4))
    cases = [
        (f, spread(small), f(small))
        for f, small in (
            (lambda g: psi_by_trees(g).terms, wheel5),
            (lambda g: psi_by_deletion_contraction(g).terms, wheel5),
            (graphs.is_forest, wheel4),
            (graphs.edge_census, wheel4),
        )
    ]
    for f, big, expected in cases:
        assert f(big) == expected
        tracemalloc.start()
        try:
            out = f(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == expected and peak < 2**17, peak


def test_deletion_contraction_memory_is_output_sized():
    # the frontier holds at most psi's own 15,125 terms (about 3.3 MB traced);
    # a memo of every minor's psi peaks near 16 MB
    g = generate_family(FamilySpec.parse("wheel:10"))
    tracemalloc.start()
    try:
        p = psi_by_deletion_contraction(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.term_count() == 15125
    assert peak < 6 * 2**20, peak


def test_forest_enumeration_memory_is_output_sized():
    # the frontier's masks become psi's 15,125 terms, and no step holds
    # more masks than that: about 1.4 MB traced, where the depth-first
    # search it replaced read 1.2 MB; holding a forest list beside psi
    # peaks near 3.0 MB
    g = generate_family(FamilySpec.parse("wheel:10"))
    tracemalloc.start()
    try:
        p = psi_by_trees(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.term_count() == 15125
    assert peak <= 2.5 * 2**20, peak


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_psi_structure_on_random_graphs(g):
    p = psi_by_trees(g)
    oracle_terms = _oracles.psi_term_masks(g)
    assert p.terms == oracle_terms
    assert set(p.terms.values()) <= {1}
    assert p.is_homogeneous() and p.degree() == betti_1(g)
    assert p.term_count() == len(_oracles.forest_label_sets(g))
    assert sum(p.terms.values()) == len(_oracles.forest_label_sets(g))


def test_psi_multiplicative_over_disjoint_union():
    cat = dict(standard_catalog())
    g1, g2 = cat["cycle_3"], cat["banana_2"]
    du = disjoint_union(g1, g2)
    p1, p2 = psi_by_trees(g1), psi_by_trees(g2)
    shift = p1.var_count
    product = {
        m1 | m2 << shift: c1 * c2 for m1, c1 in p1.terms.items() for m2, c2 in p2.terms.items()
    }
    assert psi_by_trees(du) == MultilinearPoly(p2.var_count + shift, product)


def test_minor_polynomials_keep_ambient_width():
    # deleting an interior label keeps the ambient variable set
    p = psi_by_trees(delete_edge(B3, 1))
    assert p.var_count == 3 and p.terms == {1: 1, 4: 1}
    assert psi_by_trees(delete_edge(C3, 1)) == MultilinearPoly(3, {0: 1})
