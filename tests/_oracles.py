"""Independent naive reference implementations for cross-checking.

Everything recomputes from first principles on the raw graph data (vertex
count, labeled endpoint pairs); nothing calls the package's algorithm code.
Only usable on small inputs, which is the point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def component_count(vertex_count, pairs):
    comp = list(range(vertex_count))
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            if comp[u] != comp[v]:
                lo = min(comp[u], comp[v])
                hi = max(comp[u], comp[v])
                comp = [lo if c == hi else c for c in comp]
                changed = True
    return len(set(comp))


def graph_refusal(vertex_count, edges):
    """The message a multigraph on these (label, u, v) triples must be
    refused with, or None: the vertex count first, then edge by edge a
    negative label, a label seen before, an endpoint outside the vertices."""
    if vertex_count < 0:
        return "vertex_count must be non-negative"
    labels = []
    for label, u, v in edges:
        if label < 0:
            return f"negative edge label {label}"
        if label in labels:
            return f"duplicate edge label {label}"
        labels.append(label)
        for w in (u, v):
            if w < 0 or w >= vertex_count:
                return f"edge {label} endpoint {w} outside 0..{vertex_count - 1}"
    return None


def forest_label_sets(g):
    """All maximal spanning forests as frozensets of edge labels."""
    labeled = [(e.label, e.u, e.v) for e in g.edges]
    all_pairs = [(u, v) for _, u, v in labeled]
    target = g.vertex_count - component_count(g.vertex_count, all_pairs)
    non_loops = [(lab, u, v) for lab, u, v in labeled if u != v]
    out = []
    for combo in itertools.combinations(non_loops, target):
        chosen = [(u, v) for _, u, v in combo]
        # acyclic iff it removes exactly len(chosen) components
        if component_count(g.vertex_count, chosen) == g.vertex_count - len(chosen):
            out.append(frozenset(lab for lab, _, _ in combo))
    return out


def psi_term_masks(g):
    """psi as dict mask -> coefficient, masks over edge labels."""
    full = 0
    for e in g.edges:
        full |= 1 << e.label
    terms = {}
    for forest in forest_label_sets(g):
        mask = full
        for lab in forest:
            mask ^= 1 << lab
        terms[mask] = terms.get(mask, 0) + 1
    return terms


def leibniz_det(matrix):
    """Determinant of a square matrix as the sum over permutations of
    signed products, the sign counted from inversions."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            prod *= matrix[row][col]
        total += prod
    return total


def eval_mask_poly(terms, xs, q):
    total = 0
    for mask, coeff in terms.items():
        prod = coeff
        i = 0
        while mask:
            if mask & 1:
                prod *= xs[i]
            mask >>= 1
            i += 1
        total += prod
    return total % q


def zero_count(terms, nvars, q):
    zeros = 0
    for xs in itertools.product(range(q), repeat=nvars):
        if eval_mask_poly(terms, xs, q) == 0:
            zeros += 1
    return zeros


def zero_patterns(polys_terms, width, q):
    """How many points of F_q^width each set of polynomials vanishes at:
    entry s counts the points where exactly the polynomials i with bit i
    of s set vanish. Each polynomial is a dict mask -> coefficient."""
    counts = [0] * (1 << len(polys_terms))
    for xs in itertools.product(range(q), repeat=width):
        pattern = 0
        for i, terms in enumerate(polys_terms):
            if eval_mask_poly(terms, xs, q) == 0:
                pattern |= 1 << i
        counts[pattern] += 1
    return counts


def cross_zero_patterns(polys_terms, width, q):
    """zero_patterns of four polynomials (p0, p1, p2, p3) with one more
    bit, 4, set where p0*p3 - p1*p2 vanishes: 32 counts."""
    counts = [0] * 32
    for xs in itertools.product(range(q), repeat=width):
        v = [eval_mask_poly(terms, xs, q) for terms in polys_terms]
        pattern = sum(1 << i for i in range(4) if v[i] == 0)
        if (v[0] * v[3] - v[1] * v[2]) % q == 0:
            pattern |= 1 << 4
        counts[pattern] += 1
    return counts


def complement_count(g, q):
    n = len(g.edges)
    return q**n - zero_count(psi_term_masks(g), n, q)


def least_form(g, mark=None):
    """(vertices touched by an edge, least relabelled edge list) of g over
    every numbering of those vertices: the edges other than `mark` as
    sorted (min, max) pairs, then the marked edge's pair, if any. Two
    graphs get the same value exactly when they are isomorphic by a map
    that takes mark to mark."""
    touched = sorted({w for e in g.edges for w in (e.u, e.v)})
    best = None
    for perm in itertools.permutations(range(len(touched))):
        pos = dict(zip(touched, perm))
        pairs = [(min(pos[e.u], pos[e.v]), max(pos[e.u], pos[e.v]), e.label == mark) for e in g.edges]
        form = (sorted(p[:2] for p in pairs if not p[2]), [p[:2] for p in pairs if p[2]])
        if best is None or form < best:
            best = form
    return len(touched), best


def lagrange_coefficients(points):
    """Coefficients (ascending) of the unique degree < len(points) polynomial
    through the given (x, y) pairs, by Lagrange's formula over exact
    rationals."""
    k = len(points)
    coeffs = [Fraction(0)] * k
    for i, (xi, yi) in enumerate(points):
        num = [Fraction(1)]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            longer = [Fraction(0)] * (len(num) + 1)
            for d, c in enumerate(num):
                longer[d + 1] += c
                longer[d] -= c * xj
            num = longer
            denom *= xi - xj
        weight = Fraction(yi, denom)
        for d, c in enumerate(num):
            coeffs[d] += c * weight
    return coeffs
