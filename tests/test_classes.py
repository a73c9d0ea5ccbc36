"""Class polynomials in L, congruence verdicts, and interpolation guards."""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles
from graphmotive import (
    ClassPoly,
    CongruenceVerdict,
    InsufficientPrimesError,
    NotPolynomiallyConsistent,
    UnknownLabelError,
    catalog_by_name,
    check_modL_congruence,
    check_projective_congruence,
    dc_identity_check,
    dc_identity_matrix,
    disjoint_union,
    first_primes,
    hodge_form,
    interpolate_class,
    predicted_sb_constant,
    require_primes,
)
from graphmotive import motive

CAT = catalog_by_name()

# ascending coefficients of the interpolated complement-count polynomial
FROZEN_CLASSES = {
    "single_edge": (0, 1),
    "single_loop": (-1, 1),
    "path_2": (0, 0, 1),
    "bouquet_2": (1, -2, 1),
    "bouquet_3": (-1, 3, -3, 1),
    "banana_2": (0, -1, 1),
    "banana_3": (0, 0, -1, 1),
    "cycle_3": (0, 0, -1, 1),
    "cycle_4": (0, 0, 0, -1, 1),
    "dumbbell_3": (0, 0, 1, -2, 1),
    "diamond": (0, 0, 0, 0, -1, 1),
}

FROZEN_CLASSES_SLOW = {
    "complete_4": (0, 0, 1, -1, 0, -1, 1),
    "theta": (0, 0, 0, 0, 0, -1, 1),
}


# -- ClassPoly ------------------------------------------------------------------


def test_classpoly_normalization():
    assert ClassPoly((0, 1, 0, 0)) == ClassPoly((0, 1))
    # a non-integer coefficient is refused, not truncated, bools among them
    for coefficients in ((1.5, 2.7), (1.0,), (0, True), (Fraction(1, 1),)):
        with pytest.raises(ValueError, match="integers"):
            ClassPoly(coefficients)
    assert ClassPoly.zero().degree() == -1
    assert ClassPoly.zero().constant_term() == 0
    assert ClassPoly.lefschetz().degree() == 1


def test_classpoly_arithmetic():
    L = ClassPoly.lefschetz()
    assert L**3 == ClassPoly((0, 0, 0, 1))
    assert L**0 == ClassPoly.one()
    with pytest.raises(ValueError, match="negative power"):
        L**-1
    assert ClassPoly((-1, 1)) * ClassPoly((-1, 1)) == ClassPoly((1, -2, 1))
    assert L + ClassPoly((1,)) == ClassPoly((1, 1))
    assert L * ClassPoly.zero() == ClassPoly.zero()
    assert ClassPoly(FROZEN_CLASSES_SLOW["complete_4"]).evaluate(3) == 468
    assert ClassPoly((0, -1, 1)).evaluate(5) == 20


def test_classpoly_text():
    assert ClassPoly((0, 0, -1, 1)).to_text() == "L^3 - L^2"
    assert ClassPoly((-1, 1)).to_text() == "L - 1"
    assert ClassPoly((1, -2, 1)).to_text() == "L^2 - 2*L + 1"
    assert ClassPoly.one().to_text() == "1"
    assert ClassPoly.zero().to_text() == "0"
    assert ClassPoly.lefschetz().to_text() == "L"
    assert ClassPoly((0, 2)).to_text() == "2*L"
    assert ClassPoly.lefschetz().to_json_obj() == {"coefficients": [0, 1], "text": "L"}


def test_hodge_form():
    c, tail = hodge_form(ClassPoly((0, 0, -1, 1)))
    assert c == 0 and tail == ClassPoly((0, -1, 1))
    c, tail = hodge_form(ClassPoly((1, -2, 1)))
    assert c == 1 and tail == ClassPoly((-2, 1))
    assert hodge_form(ClassPoly.lefschetz()) == (0, ClassPoly.one())
    assert hodge_form(ClassPoly.zero()) == (0, ClassPoly.zero())


# -- predicted constant -----------------------------------------------------------


def test_predicted_constant():
    assert predicted_sb_constant(CAT["single_edge"]) == 0
    assert predicted_sb_constant(CAT["dumbbell_3"]) == 0
    assert predicted_sb_constant(CAT["single_loop"]) == -1
    assert predicted_sb_constant(CAT["bouquet_2"]) == 1
    assert predicted_sb_constant(CAT["bouquet_3"]) == -1
    assert predicted_sb_constant(CAT["edgeless"]) == 1


# -- congruence verdicts -----------------------------------------------------------


def test_modL_examples():
    v = check_modL_congruence(CAT["cycle_3"], (5,), graph_name="cycle_3")
    assert v.passed and v.observed == ((5, 0, 0),)
    assert v.expected == "0 mod q"
    v = check_modL_congruence(CAT["bouquet_2"], (7,))
    assert v.passed and v.observed == ((7, 1, 1),)
    v = check_modL_congruence(CAT["single_edge"], (5, 3))
    assert v.passed and [row[0] for row in v.observed] == [3, 5]
    obj = v.to_json_obj()
    assert obj["pass"] is True and obj["tag"] == "modL" and "edge" not in obj


def test_modL_rejects_duplicate_primes():
    # path_2 and bouquet_2 are inapplicable to the projective verdict,
    # which must still refuse the list before it decides that
    for verdict in (check_modL_congruence, check_projective_congruence):
        for name in ("cycle_3", "path_2", "bouquet_2"):
            for primes in ((3, 3), (), (3, 9)):
                with pytest.raises(ValueError):
                    verdict(CAT[name], primes)
    assert require_primes((5, 3)) == (5, 3)


def test_projective_congruence_applicability():
    v = check_projective_congruence(CAT["path_2"], (3, 5))
    assert not v.applicable and v.passed and v.observed == ()
    v = check_projective_congruence(CAT["bouquet_2"], (3, 5))
    assert not v.applicable and v.passed
    v = check_projective_congruence(CAT["loop_bridge"], (3, 5))
    assert v.applicable and v.passed
    v = check_projective_congruence(CAT["cycle_3"], (3, 5), graph_name="cycle_3")
    assert v.applicable and v.passed
    assert v.observed == ((3, 1, 1), (5, 1, 1))


def test_dc_identity_bridge_loop_regular():
    v = dc_identity_check(CAT["single_edge"], 0, 5)
    assert v.tag == "dc-bridge" and v.passed and v.observed == ((5, 5, 5),)
    assert v.edge == 0
    v = dc_identity_check(CAT["single_loop"], 0, 5)
    assert v.tag == "dc-loop" and v.passed and v.observed == ((5, 4, 4),)
    v = dc_identity_check(CAT["cycle_3"], 2, 3)
    assert v.tag == "dc-regular" and v.passed and v.observed == ((3, 18, 18),)
    v = dc_identity_check(CAT["complete_4"], 5, 3)
    assert v.passed and v.observed == ((3, 468, 468),)
    v = dc_identity_check(CAT["theta"], 4, 5)
    assert v.passed and v.observed == ((5, 12500, 12500),)
    assert v.to_json_obj()["edge"] == 4


def test_dc_identity_fails_on_a_wrong_count(monkeypatch):
    count_Z = motive.count_Z
    monkeypatch.setattr(motive, "count_Z", lambda *a, **kw: count_Z(*a, **kw) + 1)
    # |Z| one too many shifts q*(q^(n-1) - |Z|) - |Y_del| down by q = 3
    v = dc_identity_check(CAT["cycle_3"], 2, 3)
    assert not v.passed and v.observed == ((3, 18, 15),)
    matrix = dc_identity_matrix(CAT["cycle_3"], (3,))
    assert matrix[2].edge == 2 and matrix[2].observed == v.observed
    assert not matrix[2].passed


def test_dc_matrix_merges_per_edge():
    g = CAT["triangle_tail"]
    verdicts = dc_identity_matrix(g, (3, 5), graph_name="triangle_tail")
    assert [v.edge for v in verdicts] == list(g.labels)
    assert {v.tag for v in verdicts} == {"dc-bridge", "dc-regular"}
    for v in verdicts:
        assert v.passed and len(v.observed) == 2
        for q, lhs, rhs in v.observed:
            single = dc_identity_check(g, v.edge, q)
            assert single.observed == ((q, lhs, rhs),)


def test_dc_check_refuses_an_unknown_label_before_any_sweep(sweeps):
    with pytest.raises(UnknownLabelError):
        dc_identity_check(CAT["cycle_3"], 9, 3)
    assert sweeps == []


# -- interpolation ----------------------------------------------------------------


def test_interpolated_classes_match_frozen():
    for name, coeffs in FROZEN_CLASSES.items():
        got = interpolate_class(CAT[name], graph_name=name)
        assert got == ClassPoly(coeffs), name


def test_interpolated_classes_match_frozen_six_edges():
    for name, coeffs in FROZEN_CLASSES_SLOW.items():
        got = interpolate_class(CAT[name], graph_name=name)
        assert got == ClassPoly(coeffs), name


def test_interpolated_constants_land_on_prediction():
    for name in FROZEN_CLASSES:
        constant, _ = hodge_form(ClassPoly(FROZEN_CLASSES[name]))
        assert constant in (-1, 0, 1)
        assert constant == predicted_sb_constant(CAT[name]), name


def test_interpolation_accepts_explicit_primes():
    got = interpolate_class(CAT["banana_2"], (13, 3, 7, 5, 11))
    assert got == ClassPoly((0, -1, 1))


def test_interpolation_requires_enough_primes():
    with pytest.raises(InsufficientPrimesError):
        interpolate_class(CAT["cycle_3"], (3, 5, 7))


def test_class_multiplicative_over_disjoint_union():
    pairs = [("single_edge", "single_loop"), ("banana_2", "single_loop")]
    for a, b in pairs:
        du = disjoint_union(CAT[a], CAT[b])
        product = interpolate_class(CAT[a]) * interpolate_class(CAT[b])
        assert interpolate_class(du) == product, (a, b)


def _fake_counter(values):
    def fake(g, q):
        return SimpleNamespace(complement_count=values[q])

    return fake


def test_interpolation_refuses_heldout_mismatch(monkeypatch):
    monkeypatch.setattr(
        "graphmotive.motive.count_graph",
        _fake_counter({3: 3, 5: 5, 7: 7, 11: 12}),
    )
    got = interpolate_class(CAT["single_edge"], (3, 5, 7, 11), graph_name="e")
    assert isinstance(got, NotPolynomiallyConsistent)
    assert "held-out prime 11" in got.reason
    obj = got.to_json_obj()
    assert obj["not_polynomially_consistent"] is True
    assert obj["graph"] == "e" and len(obj["data"]) == 4


def test_interpolation_refuses_non_integer_fit(monkeypatch):
    monkeypatch.setattr(
        "graphmotive.motive.count_graph",
        _fake_counter({3: 1, 5: 2, 7: 0, 11: 0}),
    )
    got = interpolate_class(CAT["single_edge"], (3, 5, 7, 11))
    assert isinstance(got, NotPolynomiallyConsistent)
    assert "non-integer" in got.reason


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(0, 9),
    from_poly=st.booleans(),
    values=st.lists(st.integers(-(10**6), 10**6), max_size=9),
)
@example(k=3, from_poly=False, values=[1, 2, 0])  # the non-integer fit above
@example(k=9, from_poly=True, values=[0] * 8 + [1])
def test_integer_fit_matches_rational_lagrange(k, from_poly, values):
    # points at the first k primes, either on an integer polynomial of
    # degree < k (integral by construction) or arbitrary integers (most
    # are not); the integer Newton fit must agree with the Fraction
    # Lagrange fit on integrality and on every coefficient
    xs = first_primes(k)
    if from_poly:
        ys = [sum(c * x**d for d, c in enumerate(values[:k])) for x in xs]
    else:
        ys = (values + [0] * k)[:k]
    points = list(zip(xs, ys))
    oracle = _oracles.lagrange_coefficients(points)
    got = motive._integer_fit(points)
    if all(c.denominator == 1 for c in oracle):
        assert got == [int(c) for c in oracle]
    else:
        assert got is None


def test_verdict_json_row_shape():
    v = CongruenceVerdict(graph="g", tag="modL", expected="0 mod q", observed=((3, 0, 0),))
    obj = v.to_json_obj()
    assert obj["observed"] == [[3, 0, 0]] and obj["applicable"] is True
    assert obj["pass"] is True
    # The pass flag is derived from the rows, so one disagreeing row fails it.
    bad = CongruenceVerdict(
        graph="g", tag="modL", expected="0 mod q", observed=((3, 0, 0), (5, 1, 0))
    )
    assert bad.to_json_obj()["pass"] is False
