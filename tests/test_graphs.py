"""Graph type, minors, forests, and the two serialization formats."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from graphmotive import (
    Edge,
    EdgeKind,
    FamilySpec,
    GraphError,
    GraphParseError,
    LoopContractionError,
    Multigraph,
    UnknownLabelError,
    betti_1,
    canonical_relabel,
    classify_edge,
    component_count,
    contract_edge,
    delete_edge,
    disjoint_union,
    edge_census,
    generate_family,
    graphs,
    graph_id,
    psi_by_trees,
    standard_catalog,
)
from test_poly import psi_forests, relabelled_graphs, small_graphs


def test_from_pairs_assigns_labels_in_order():
    g = Multigraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    assert g.labels == (0, 1, 2)
    assert g.edge_by_label(1) == Edge(1, 1, 2)


def test_validation_rejects_bad_graphs():
    with pytest.raises(GraphError, match=r"^duplicate edge label 0$"):
        Multigraph(2, (Edge(0, 0, 1), Edge(0, 1, 0)))
    with pytest.raises(GraphError, match=r"^negative edge label -1$"):
        Multigraph(2, (Edge(-1, 0, 1),))
    with pytest.raises(GraphError, match=r"^edge 0 endpoint 2 outside 0\.\.1$"):
        Multigraph(2, (Edge(0, 0, 2),))
    with pytest.raises(GraphError, match=r"^vertex_count must be non-negative$"):
        Multigraph(-1, ())


def raw_graphs():
    """(vertex_count, edges) drawn without regard to validity: labels and
    endpoints may be negative, repeated or out of range, and each edge is
    an Edge or a plain tuple."""

    @st.composite
    def build(draw):
        vc = draw(st.integers(-1, 4))
        edges = []
        for _ in range(draw(st.integers(0, 6))):
            e = (draw(st.integers(-2, 6)), draw(st.integers(-1, 5)), draw(st.integers(-1, 5)))
            edges.append(Edge(*e) if draw(st.booleans()) else e)
        return vc, tuple(edges)

    return build()


@settings(max_examples=300, deadline=None)
@given(raw_graphs())
def test_validation_matches_per_edge_oracle(raw):
    vc, edges = raw
    want = _oracles.graph_refusal(vc, edges)
    try:
        g = Multigraph(vc, edges)
    except GraphError as exc:
        assert str(exc) == want
    else:
        assert want is None
        assert type(g.edges) is tuple and all(type(e) is Edge for e in g.edges)
        assert g.edges == edges


# -- parsing ------------------------------------------------------------------


def test_parse_single_bridge():
    g = Multigraph.parse("2 1\n0 1\n")
    assert g.vertex_count == 2 and g.edges == (Edge(0, 0, 1),)


def test_parse_single_loop():
    g = Multigraph.parse("1 1\n0 0\n")
    assert g.edges[0].is_loop


def test_parse_triangle_with_comments_and_blanks():
    text = "# triangle\n3 3\n\n0 1\n1 2  # back\n2 0\n"
    g = Multigraph.parse(text)
    assert g.edge_count == 3 and g.vertex_count == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("2\n0 1", "header"),
        ("x 1\n0 1", "integers"),
        ("2 2\n0 1", "expected 2 edge lines"),
        ("2 1\n0 1 2", "line 2"),
        ("2 1\n0 5", "line 2"),
        ("2 1\na b", "line 2"),
        ("2 -1\n", "line 1"),
        ("-1 0", "line 1"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(GraphParseError) as err:
        Multigraph.from_text(text)
    assert fragment in str(err.value)


def test_text_round_trip():
    g = Multigraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0)])
    assert Multigraph.parse(g.to_text()) == g


def test_json_round_trip_preserves_labels():
    g = delete_edge(Multigraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)]), 1)
    assert g.labels == (0, 2)
    back = Multigraph.from_json_obj(g.to_json_obj())
    assert back == g


def test_parse_dispatches_on_json():
    g = Multigraph.parse('{"vertex_count": 2, "edges": [[0, 1]]}')
    assert g.edges == (Edge(0, 0, 1),)


def _nested(head: str, opener: str, depth: int, tail: str) -> str:
    return head + opener * depth + tail


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.text().map(lambda t: "{" + t),
        st.builds(
            _nested,
            st.sampled_from(["", "{", '{"edges": ', '{"vertex_count": 2, "edges": ']),
            st.sampled_from(["[", '{"a": ', '[{"b": ']),
            st.integers(0, 5000),
            st.text(max_size=20),
        ),
    )
)
def test_parse_raises_only_graph_errors(text):
    # any text, deep bracket nesting too, parses or is refused as input
    try:
        Multigraph.parse(text)
    except GraphError:
        pass


def test_json_integer_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(GraphParseError, match="malformed graph JSON"):
        Multigraph.parse('{"vertex_count": 1' + "0" * 5000 + ', "edges": []}')


def test_to_text_requires_dense_labels():
    g = delete_edge(Multigraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)]), 0)
    with pytest.raises(GraphError):
        g.to_text()


# -- edge trichotomy ----------------------------------------------------------


def test_classify_examples():
    c3 = Multigraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    assert all(classify_edge(c3, e) is EdgeKind.REGULAR for e in c3.labels)
    b2 = Multigraph.from_pairs(2, [(0, 1), (0, 1)])
    assert all(classify_edge(b2, e) is EdgeKind.REGULAR for e in b2.labels)
    bridge = Multigraph.from_pairs(2, [(0, 1)])
    assert classify_edge(bridge, 0) is EdgeKind.BRIDGE
    loop = Multigraph.from_pairs(1, [(0, 0)])
    assert classify_edge(loop, 0) is EdgeKind.LOOP


def _check_classify_against_oracle(g, name=None):
    pairs = [(e.u, e.v) for e in g.edges]
    base = _oracles.component_count(g.vertex_count, pairs)
    for e in g.edges:
        kind = classify_edge(g, e.label)
        if e.u == e.v:
            assert kind is EdgeKind.LOOP, name
            continue
        rest = [(f.u, f.v) for f in g.edges if f.label != e.label]
        disconnects = _oracles.component_count(g.vertex_count, rest) > base
        assert kind is (EdgeKind.BRIDGE if disconnects else EdgeKind.REGULAR), name


def test_classify_against_oracle_over_catalog():
    for name, g in standard_catalog():
        _check_classify_against_oracle(g, name)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_graphs(), relabelled_graphs()))
def test_classify_against_oracle_on_random_graphs(g):
    # loops, parallel edges, isolated vertices and gapped labels
    _check_classify_against_oracle(g)


def test_unknown_label_raises():
    g = Multigraph.from_pairs(2, [(0, 1)])
    with pytest.raises(UnknownLabelError):
        classify_edge(g, 7)
    with pytest.raises(UnknownLabelError):
        delete_edge(g, 7)
    with pytest.raises(UnknownLabelError, match=r"^no edge with label 7$"):
        contract_edge(g, 7)


# -- minors -------------------------------------------------------------------


def test_delete_keeps_labels_stable():
    c3 = Multigraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    g = delete_edge(c3, 1)
    assert g.labels == (0, 2)
    assert g.vertex_count == 3


def test_contract_merges_and_renumbers_vertices():
    c3 = Multigraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    g = contract_edge(c3, 2)  # contract 2-0: vertex 2 folds into 0
    assert g.vertex_count == 2
    assert g.labels == (0, 1)
    # surviving edges form a banana between the merged vertex and 1
    assert sorted(tuple(sorted((e.u, e.v))) for e in g.edges) == [(0, 1), (0, 1)]


def test_contract_parallel_edge_becomes_loop():
    b2 = Multigraph.from_pairs(2, [(0, 1), (0, 1)])
    g = contract_edge(b2, 0)
    assert g.vertex_count == 1
    assert g.edges == (Edge(1, 0, 0),)


def test_contract_loop_rejected():
    g = Multigraph.from_pairs(1, [(0, 0)])
    with pytest.raises(LoopContractionError):
        contract_edge(g, 0)


def test_minor_counts():
    k4 = dict(standard_catalog())["complete_4"]
    for e in k4.labels:
        assert delete_edge(k4, e).edge_count == 5
        assert contract_edge(k4, e).vertex_count == 3


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(), relabelled_graphs()))
def test_minors_match_naive_reference(g):
    # loops, parallel edges, isolated vertices and gapped labels: every
    # edge's deletion and contraction keep the other edges' order and
    # labels, fold the contracted edge's higher end into its lower and
    # shift the vertices above it down by one
    for e in g.edges:
        minors = [(delete_edge(g, e.label), _oracles.deleted(g, e.label))]
        if e.is_loop:
            with pytest.raises(LoopContractionError):
                contract_edge(g, e.label)
        else:
            minors.append((contract_edge(g, e.label), _oracles.contracted(g, e.label)))
        for h, (vertex_count, edges) in minors:
            assert (h.vertex_count, h.edges) == (vertex_count, edges)
            assert type(h.edges) is tuple and all(type(f) is Edge for f in h.edges)
            assert hash(h) == hash(Multigraph(vertex_count, edges))


# -- forests and invariants ---------------------------------------------------


def _oracle_forest_list(g):
    return sorted(tuple(sorted(f)) for f in _oracles.forest_label_sets(g))


def test_spanning_forests_match_oracle_over_catalog():
    for name, g in standard_catalog():
        assert psi_forests(g) == _oracle_forest_list(g), name


def test_spanning_forests_lexicographic_and_sorted():
    b3 = Multigraph.from_pairs(2, [(0, 1)] * 3)
    assert psi_forests(b3) == [(0,), (1,), (2,)]


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_graphs(), relabelled_graphs()))
def test_spanning_forests_order_matches_oracle(g):
    # the forests psi's terms encode, on graphs whose labels have gaps and
    # whose edges are not in label order too
    assert psi_forests(g) == _oracle_forest_list(g)


@pytest.mark.parametrize(
    "g",
    [
        Multigraph(3, ()),
        Multigraph.from_pairs(1, [(0, 0)] * 4),
        generate_family(FamilySpec.parse("banana:12")),
        generate_family(FamilySpec.parse("dumbbell:12")),
    ],
    ids=["edgeless", "bouquet", "banana:12", "dumbbell:12"],
)
def test_spanning_forests_order_fixed_cases(g):
    assert psi_forests(g) == _oracle_forest_list(g)


def test_forest_refusal_is_raised_on_call():
    # C(55, 10) candidates: refused when called, before any edge is tried
    k11 = generate_family(FamilySpec.parse("complete:11"))
    for build in (psi_by_trees, _oracles.psi_by_matrix_tree):
        with pytest.raises(GraphError, match="29248649430 edge subsets exceed the limit 10000000"):
            build(k11)


def test_betti_examples():
    cat = dict(standard_catalog())
    assert betti_1(cat["path_3"]) == 0
    assert betti_1(cat["cycle_4"]) == 1
    assert betti_1(cat["complete_4"]) == 3
    assert betti_1(cat["wheel_4"]) == 4
    assert betti_1(cat["disjoint_loops"]) == 2


def test_component_count_with_isolated_vertices():
    g = Multigraph(4, Multigraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)]).edges)
    assert component_count(g) == 2
    assert betti_1(g) == 1


def test_disjoint_union_shifts_vertices_and_labels():
    c3 = Multigraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    loop = Multigraph.from_pairs(1, [(0, 0)])
    g = disjoint_union(c3, loop)
    assert g.vertex_count == 4
    assert g.labels == (0, 1, 2, 3)
    assert g.edge_by_label(3) == Edge(3, 3, 3)
    assert component_count(g) == 2


def test_canonical_relabel_names_vertices_and_labels():
    # a triangle with a tail, labels 3, 5, 7, 9, and an isolated vertex 2
    g = Multigraph(5, (Edge(9, 0, 1), Edge(3, 1, 3), Edge(7, 3, 0), Edge(5, 3, 4)))
    for mark in (None, 9, 5):
        h = canonical_relabel(g, mark)
        assert h.vertex_count == 4 and h.labels == (0, 1, 2, 3)
        assert {w for e in h.edges for w in (e.u, e.v)} == set(range(4))
        last = None if mark is None else 3
        assert _oracles.least_form(h, last) == _oracles.least_form(g, mark)
    # the triangle's two edges at the tail are one orbit; its third edge
    # and the tail are others
    forms = {mark: canonical_relabel(g, mark) for mark in g.labels}
    assert forms[3] == forms[7] and len({forms[3], forms[5], forms[9]}) == 3
    assert canonical_relabel(Multigraph(3, ())) == Multigraph(0, ())
    with pytest.raises(UnknownLabelError):
        canonical_relabel(g, 4)


@st.composite
def permuted_multigraphs(draw):
    """(g, mark, h, h's mark): a multigraph on at most 6 vertices, loops
    and parallel edges included, labels with gaps, maybe one edge marked,
    and a copy h with vertices and labels permuted at random."""
    nv = draw(st.integers(1, 6))
    n = draw(st.integers(0, 9))
    labels = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True))
    ends = st.integers(0, nv - 1)
    g = Multigraph(nv, tuple(Edge(label, draw(ends), draw(ends)) for label in labels))
    mark = draw(st.sampled_from((None, *labels)))
    vertex = draw(st.permutations(range(nv)))
    label = dict(zip(labels, draw(st.permutations(labels))))
    edges = draw(st.permutations([Edge(label[e.label], vertex[e.u], vertex[e.v]) for e in g.edges]))
    return g, mark, Multigraph(nv, tuple(edges)), label.get(mark)


@settings(max_examples=150, deadline=None)
@given(permuted_multigraphs(), permuted_multigraphs())
def test_canonical_relabel_against_every_vertex_numbering(case, other):
    # Brute force over all vertex permutations: the result is isomorphic
    # to its input with the mark last, isomorphic inputs give equal
    # results, and non-isomorphic ones differ (marked or not alike).
    g, mark, h, h_mark = case
    canon = canonical_relabel(g, mark)
    assert canon.labels == tuple(range(g.edge_count))
    last = None if mark is None else g.edge_count - 1
    assert _oracles.least_form(canon, last) == _oracles.least_form(g, mark)
    assert canonical_relabel(h, h_mark) == canon
    g2, mark2, _, _ = other
    if (mark is None) == (mark2 is None):
        same = _oracles.least_form(g2, mark2) == _oracles.least_form(g, mark)
        assert (canonical_relabel(g2, mark2) == canon) == same


def test_canonical_relabel_takes_bounded_time():
    # Twins, components and the leaf bound keep the search small: a naive
    # search took seconds on star:8 and on 6 disjoint edges.
    star = Multigraph.from_pairs(19, [(0, i) for i in range(1, 19)])
    matching = Multigraph.from_pairs(18, [(2 * i, 2 * i + 1) for i in range(9)])
    legs = [(0, i) for i in range(1, 10)] + [(i, i + 9) for i in range(1, 10)]
    spider = Multigraph.from_pairs(19, legs)
    t0 = time.perf_counter()
    for g in (star, matching):
        top = g.vertex_count - 1
        flipped = Multigraph(top + 1, tuple(Edge(e.label, top - e.u, top - e.v) for e in g.edges))
        assert canonical_relabel(flipped) == canonical_relabel(g)
    h = canonical_relabel(spider, 17)
    assert time.perf_counter() - t0 < 2.0
    assert sorted(_degrees(h)) == sorted(_degrees(spider)) and h.edges[-1].label == 17
    assert _degrees(h)[h.edges[-1].u] + _degrees(h)[h.edges[-1].v] == 3  # a leg's tip edge


def _degrees(g):
    deg = [0] * g.vertex_count
    for e in g.edges:
        deg[e.u] += 1
        deg[e.v] += 1
    return deg


def test_graph_id_and_census():
    c3 = Multigraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    assert graph_id(c3) == "V3[0:0-1,1:1-2,2:2-0]"
    cat = dict(standard_catalog())
    assert edge_census(cat["dumbbell_3"]) == {"bridge": 0, "loop": 1, "regular": 3}
    assert edge_census(cat["triangle_tail"]) == {"bridge": 1, "loop": 0, "regular": 3}
    assert edge_census(cat["loop_bridge"]) == {"bridge": 1, "loop": 1, "regular": 0}


def test_catalog_respects_size_contract():
    cat = standard_catalog()
    assert len(cat) >= 30
    assert len({name for name, _ in cat}) == len(cat)
    assert all(g.edge_count <= 8 for _, g in cat)
    kinds = set()
    for _, g in cat:
        for e in g.labels:
            kinds.add(classify_edge(g, e))
    assert kinds == {EdgeKind.BRIDGE, EdgeKind.LOOP, EdgeKind.REGULAR}
