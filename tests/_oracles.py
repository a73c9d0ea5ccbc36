"""Independent naive reference implementations for cross-checking.

Everything recomputes from first principles on the raw graph data (vertex
count, labeled endpoint pairs); nothing calls the package's algorithm code.
Only usable on small inputs, which is the point. The package's types wrap
results (psi_by_matrix_tree returns a MultilinearPoly) and its refusal
limit bounds the matrix-tree oracle, nothing more.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from graphmotive import GraphError, MultilinearPoly
from graphmotive.graphs import MAX_FOREST_SUBSETS


def components(vertex_count, pairs):
    """Each vertex's component, named by its least vertex."""
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
    return comp


def component_count(vertex_count, pairs):
    return len(set(components(vertex_count, pairs)))


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


def deleted(g, label):
    """(vertex_count, (label, u, v) triples) of g without the edge labelled
    label: every other edge in order, every vertex kept."""
    return g.vertex_count, tuple((f, u, v) for f, u, v in g.edges if f != label)


def contracted(g, label):
    """(vertex_count, (label, u, v) triples) of g with the non-loop edge
    labelled label contracted: it is dropped, the higher of its ends is
    renamed to the lower, and each vertex above the higher end moves down
    by one. Every other edge keeps its label and place."""
    (a, b), = [(u, v) for f, u, v in g.edges if f == label]
    lo, hi = min(a, b), max(a, b)

    def name(w):
        return lo if w == hi else w - 1 if w > hi else w

    return g.vertex_count - 1, tuple((f, name(u), name(v)) for f, u, v in g.edges if f != label)


def blocks_by_cycles(g):
    """g's non-loop edge labels split into 2-connected blocks, as a set of
    frozensets: two edges share a block exactly when some cycle holds
    both. A cycle is an edge subset that is connected and meets each
    vertex it touches exactly twice; every subset is tried."""
    edges = [(e.label, e.u, e.v) for e in g.edges if e.u != e.v]
    together = {label: {label} for label, _, _ in edges}
    for size in range(2, len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            ends = [w for _, u, v in subset for w in (u, v)]
            comp = components(g.vertex_count, [(u, v) for _, u, v in subset])
            if all(ends.count(w) == 2 for w in ends) and len({comp[w] for w in ends}) == 1:
                for label, _, _ in subset:
                    together[label].update(f for f, _, _ in subset)
    return {frozenset(labels) for labels in together.values()}


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


def psi_by_matrix_tree(g):
    """psi by the matrix-tree theorem in Cauchy-Binet form, a MultilinearPoly.

    B is the signed incidence matrix of the non-loop edges, one vertex row
    removed per component (its least vertex). For each edge set S of
    forest size, det(B_S)^2 is added to the term t^(E minus S) as
    computed, never assumed 0 or 1, so a sign or row slip shows as a wrong
    coefficient. Exact integers and no forest search. Refused, with the
    package's message, past MAX_FOREST_SUBSETS subsets, so that a test
    handing it a large graph fails at once instead of running for hours."""
    width = max((e.label for e in g.edges), default=-1) + 1
    edges = sorted((e.label, e.u, e.v) for e in g.edges if e.u != e.v)
    comp = components(g.vertex_count, [(u, v) for _, u, v in edges])
    kept = [v for v in range(g.vertex_count) if comp[v] != v]
    size = len(kept)
    subsets = comb(len(edges), size)
    if subsets > MAX_FOREST_SUBSETS:
        raise GraphError(
            f"spanning forests: {subsets} edge subsets exceed the limit {MAX_FOREST_SUBSETS}"
        )
    row = {v: i for i, v in enumerate(kept)}
    full = sum(1 << e.label for e in g.edges)
    terms = {}
    for subset in itertools.combinations(edges, size):  # each subset is its own term
        b = [[0] * size for _ in range(size)]
        for j, (_, u, v) in enumerate(subset):
            for w, sign in ((u, 1), (v, -1)):
                if w in row:
                    b[row[w]][j] = sign
        if det := integer_det(b):
            terms[full ^ sum(1 << label for label, _, _ in subset)] = det * det
    return MultilinearPoly(width, terms)


def integer_det(m):
    """Exact determinant of a square integer matrix by Bareiss elimination:
    each division by the previous pivot is exact. Zero pivots swap rows."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


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


def split_at(terms, e):
    """(A, B) with p = t_e*A + B, A and B free of t_e, as term dicts: each
    term of p lands in A (t_e dropped) or in B, every other variable's bit
    where it was."""
    bit = 1 << e
    a, b = {}, {}
    for mask, coeff in terms.items():
        if mask & bit:
            a[mask ^ bit] = coeff
        else:
            b[mask] = coeff
    return a, b


def move_last(p, e):
    """p with variable e moved to the top, variable n-1, and the others kept
    in their order below it: each bit above e steps down one place."""
    n = p.var_count
    low = (1 << e) - 1
    terms = {}
    for mask, coeff in p.terms.items():
        moved = mask & low | mask >> 1 & ~low
        if mask >> e & 1:
            moved |= 1 << (n - 1)
        terms[moved] = coeff
    return MultilinearPoly(n, terms)


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
