"""Multilinear polynomials keyed by edge-subset bitmasks, and the graph
polynomial built two independent ways.

The constructions (forest enumeration, and deletion-contraction swept one
edge label at a time) must agree term-for-term with each other and with
the matrix-tree theorem, which the tests keep as an oracle. The sweep
merges equal minors, so it builds each minor once and holds no more terms
than psi itself.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterator, Sequence

from .graphs import (
    MAX_EDGES,
    EdgeKind,
    Multigraph,
    _edge_sized,
    _forest_masks,
    _merge,
    _sweep_order,
    classify_edge,
    contract_edge,
    delete_edge,
)

MAX_VARS = MAX_EDGES  # one variable per edge label; masks stay cheap machine ints


class NonMultilinearError(ValueError):
    pass


def _signed_sum(pieces: Sequence[tuple[bool, str]]) -> str:
    """(negative, body) pieces joined in order: "-" before the first if it
    is negative, " - " or " + " before each other; "0" if there are none."""
    text = "".join((" - " if negative else " + ") + body for negative, body in pieces)
    if not text:
        return "0"
    return ("-" if text.startswith(" - ") else "") + text[3:]


def _bits(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


class MultilinearPoly:
    """Integer polynomial, every variable of degree <= 1 per term.

    terms maps a bitmask over variable indices to a non-zero coefficient.
    var_count fixes the ambient variable set t_0..t_{var_count-1}; it may
    exceed the support (the counters then count points of F_q^var_count).
    var_count, masks and coefficients must be ints, not bools: a float
    coefficient would be counted one way by brute force and another by
    the fibered count.
    """

    __slots__ = ("var_count", "terms")

    def __init__(self, var_count: int, terms: dict[int, int]):
        if type(var_count) is not int:
            raise NonMultilinearError(f"var_count must be an integer, not {var_count!r}")
        if not 0 <= var_count <= MAX_VARS:
            raise NonMultilinearError(f"var_count {var_count} outside 0..{MAX_VARS}")
        clean = {}
        for mask, coeff in terms.items():
            if type(mask) is not int or type(coeff) is not int:
                raise NonMultilinearError(f"term {mask!r}: {coeff!r} is not an integer pair")
            if coeff == 0:
                continue
            if not 0 <= mask < (1 << var_count):
                raise NonMultilinearError(
                    f"mask {mask:#x} uses variables beyond var_count={var_count}"
                )
            clean[mask] = coeff
        self.var_count = var_count
        self.terms = clean

    @classmethod
    def _trusted(cls, var_count: int, terms: dict[int, int]) -> "MultilinearPoly":
        """A polynomial that keeps `terms` as given, with no per-term check,
        for the two psi builders only. Their terms are valid by
        construction: var_count comes from _ambient_width, which refuses
        labels past MAX_VARS; every mask is a set of g's labels, so it lies
        below 1 << var_count; and every coefficient is 1 (one per forest)
        or a count of at least 1 (deletion-contraction), never 0. terms
        must be a plain dict."""
        p = object.__new__(cls)
        p.var_count = var_count
        p.terms = terms
        return p

    # -- structure queries -------------------------------------------------

    def degree(self) -> int:
        """Max term degree; 0 for the zero polynomial."""
        return max((mask.bit_count() for mask in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {mask.bit_count() for mask in self.terms}
        return len(degs) <= 1

    def term_count(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self.var_count == other.var_count and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.var_count, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultilinearPoly({self.var_count}, {self.to_text()!r})"

    # -- rendering ----------------------------------------------------------

    def to_text(self) -> str:
        """Terms by ascending mask: "t0*t1 + t0*t2 + t1*t2"."""
        pieces = []
        for mask in sorted(self.terms):
            coeff = self.terms[mask]
            head = "*".join(f"t{i}" for i in _bits(mask))
            if mask == 0:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = head
            else:
                body = f"{abs(coeff)}*{head}"
            pieces.append((coeff < 0, body))
        return _signed_sum(pieces)

    def to_json_obj(self) -> dict:
        return {
            "var_count": self.var_count,
            "terms": [[mask, self.terms[mask]] for mask in sorted(self.terms)],
        }


# -- the graph polynomial, two ways -----------------------------------------


def _ambient_width(g: Multigraph) -> int:
    """psi's variable count for g, one per label up to the highest; refused
    past MAX_VARS."""
    width = max((e.label for e in g.edges), default=-1) + 1
    if width > MAX_VARS:
        raise NonMultilinearError(f"edge labels exceed {MAX_VARS - 1}")
    return width


def psi_by_trees(g: Multigraph) -> MultilinearPoly:
    """Sum over maximal spanning forests F of the product of t_e, e not in F.

    The defining formula. Homogeneous of degree betti_1(g), every
    coefficient 1, and psi(1,..,1) counts the forests. Edgeless graphs
    (and forests generally, whose only maximal forest is everything)
    give the constant 1. The frontier search (graphs._forest_masks)
    starts from the mask of every label, so each partial forest it
    carries is already psi's term, full ^ forest, and the one list left
    at the end becomes psi's dict; no forest list is held beside psi, and
    the terms come in no particular order. Oversized graphs are refused as
    _forest_masks refuses them.
    """
    width = _ambient_width(g)
    return MultilinearPoly._trusted(width, _forest_masks(g))


def psi_by_deletion_contraction(g: Multigraph) -> MultilinearPoly:
    """Deletion-contraction over the bridge/loop/regular trichotomy, swept
    one edge label at a time with no recursion, in vertex-frontier order.

    The frontier maps each minor reached so far to its multiplier, the
    list of monomial masks psi(g) gains per term of psi(minor), one entry
    per path that reached the minor. Each step classifies every minor's
    edge once: a loop is deleted and each of its masks gains t_e, a bridge
    is contracted, and a regular edge gives both children (t_e * deletion
    + contraction). After k steps every minor has the same remaining
    labels, and contract_edge names each merged vertex by the rank of its
    class minimum, so minors reached along different paths are usually
    equal Multigraphs; equal children are merged by joining their lists
    and are built on once. The edgeless minors left at the end carry psi:
    each coefficient is the number of times its mask occurs over all the
    lists, counted, never assumed to be 1. One dict pass over the lists
    finds every mask; only when the lists hold more entries than that
    dict has keys are the masks counted again.

    A (minor, monomial) pair fixes which swept edges were deleted, so it
    extends to exactly one maximal forest of g. The frontier therefore
    never holds more terms than psi itself: memory is output-sized,
    unlike a memo of every minor's psi. Stable edge labels make the sweep
    land in literally the same variables as the other builders.

    Both arguments hold for any label order fixed before the sweep, so the
    order is chosen for few distinct minors (_sweep_order, after Sekine,
    Imai and Tani's Tutte polynomial computation). The minors of one step
    share their unswept edges and differ in how the contracted swept edges
    merged vertices; the fewer vertices touch both kinds of edge, the fewer
    of those mergings the unswept edges can see, and the more minors
    coincide (141 minors for wheel:10).

    The sweep starts from g on the vertices its edges touch (_edge_sized),
    so every minor is edge-sized; psi keeps its labels.
    """
    width = _ambient_width(g)
    g = _edge_sized(g)
    frontier: dict[Multigraph, list[int]] = {g: [0]}
    for label in _sweep_order(g):
        bit = 1 << label
        children: dict[Multigraph, list[int]] = {}
        for h, masks in frontier.items():
            kind = classify_edge(h, label)
            if kind is not EdgeKind.BRIDGE:
                _merge(children, delete_edge(h, label), [m | bit for m in masks])
            if kind is not EdgeKind.LOOP:
                _merge(children, contract_edge(h, label), masks)
        frontier = children
    lists = frontier.values()
    terms = dict.fromkeys(chain.from_iterable(lists), 1)
    if len(terms) < sum(map(len, lists)):  # some mask was reached twice
        terms = dict(Counter(chain.from_iterable(lists)))
    return MultilinearPoly._trusted(width, terms)

