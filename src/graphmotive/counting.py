"""Exact point counts over prime fields for graph hypersurfaces.

Counts |zeros of psi| in F_q^n, the complement, the projective count, and
the two-polynomial Z-locus. Each count is a fibration: split off edge
variables, sweep the polynomials that describe each fiber over the base
that is left, and add up a fiber table over the sweep's zero-patterns.
Brute force sweeps psi itself over F_q^n. The fibered count writes
psi = t_e*A + B at its last variable t_e, splits A and B again at the one
before it, f, and sweeps the four parts (A1, A0, B1, B0) over F_q^{n-2};
their zero-pattern and whether D = A1*B0 - A0*B1 vanishes fix the zeros
on each (t_e, f) plane.
The Z-locus at an edge is read off the same sweep, fibered at that edge.
The fibered count_graph and count_Z take a graph apart first: psi is
the product of psi over its 2-connected loopless blocks, times t_l per
loop, and two edges in series at a vertex of degree 2 count as one edge,
times q. So only the blocks left once every such pair is merged are
swept and counted, each once per prime inside a shared_counts() block,
whatever graphs hold it, and each (graph, prime) record is built once.
The sweep evaluates multilinear polynomials on F_q^k one axis at a time:
each coefficient pair (c0, c1) becomes the q values c0 + x*c1 mod q, so
a block costs about q^k values per polynomial whatever the term count.
The grid is taken in blocks of at most chunk_points polynomial values,
the outer coordinates of each block folded into the coefficients first,
and in passes of as many blocks as fit chunk_points values: a pass steps
all its blocks' axes but the last at once, then the last axis block by
block, so one block's values are held at a time, unless the whole grid
would fit one block, when it steps every axis at once.
psi is homogeneous, and so are A1, A0, B1, B0, with D's two products of
equal degree: their zero-pattern is the same at x and at l*x for every
l != 0. So a fibered sweep keeps at least one outer coordinate,
transforms one block per line through the origin of outer coordinates
and weights it by the q-1 points of that line off the origin: about
4*q^(n-2)/(q-1) values in place of 4*q^(n-2). Where the whole grid
would fit one block, its two blocks, y = 0 and y = 1, take one pass.
The histogram of the blocks other than y = 0 is weighted once, at the end.
Brute force, the oracle, still evaluates psi at every point
of F_q^n. A sweep at a prime q <= 251 that transforms at least q^3
values, as many as the table holds, keeps residues in uint8 and steps
an axis by one gather from a (q^2, q) uint8 table, built once per
process on first use, at the uint16 row index c0*q + c1. Over a field D
vanishes exactly when (A1, A0) and (B1, B0) are linearly dependent: one
pair is zero, or both are the same point of P^1(F_q). So such a fibered
sweep maps each pair to its class, the zero pair or a point of P^1(F_q),
by one gather from a q^2-entry uint8 table, histograms the (q+2)^2 class
pairs and reads the zero-patterns off them once per sweep, with no
product taken. Every other sweep, and every q above 251 up to 2^31, keeps
residues in int64 and steps by int64 arithmetic and np.remainder, and a
fibered one among them takes D's two products. Integer accumulation
makes results independent of block size, dtype and thread count.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .graphs import Edge, GraphError, Multigraph, _edge_sized, canonical_relabel
# Not called in this module: perfbench/worker.py's install() patches
# counting.classify_edge with no hasattr guard, so the name must stay.
from .graphs import classify_edge  # noqa: F401
from .primes import require_prime
from .symanzik import (
    MAX_VARS,
    MultilinearPoly,
    NonMultilinearError,
    psi_by_deletion_contraction,
)

DEFAULT_BUDGET = 10**9  # single-polynomial point evaluations per count
DEFAULT_CHUNK = 1 << 19  # polynomial values per sweep block
MAX_WORKERS = 64  # a sweep opens one pool of this many threads at most

# The fibration levels each method runs, in order. A level-k count sweeps
# the base F_q^{n-k} left after splitting off k edge variables: level 0 is
# brute force over all of F_q^n, level 2 splits off the last variable (the
# last label of a block's count form, in count_graph) and the one before it.
METHODS = {"brute": (0,), "fibered": (2,), "both": (0, 2)}
_LEVEL_NAMES = {0: "brute count", 2: "fibered count"}


class BudgetExceededError(RuntimeError):
    pass


class ConsistencyError(RuntimeError):
    """An internal exact identity failed; indicates a bug, never data."""


class NotRegularEdgeError(GraphError):
    pass


def _check_workers(workers: int) -> None:
    """Refuse a sweep thread count other than an int (not a bool) in 1..MAX_WORKERS."""
    if type(workers) is not int or workers < 1:
        raise ValueError(f"workers must be a positive integer, not {workers!r}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers {workers} exceeds the limit {MAX_WORKERS}")


@dataclass(frozen=True)
class CountOptions:
    """How the counts of a shared_counts(opts) block are taken; validated once.

    method: "brute", "fibered" (split at the last two edge variables), or
    "both" (run both, insist on exact agreement). budget caps the
    single-polynomial point evaluations charged to one count (see _admit),
    an int of at least 1. workers is the sweep thread count, an int in
    1..MAX_WORKERS; counts are identical for any value.
    """

    method: str = "fibered"
    budget: int = DEFAULT_BUDGET
    workers: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if type(self.budget) is not int or self.budget < 1:
            raise ValueError(f"budget must be a positive integer, not {self.budget!r}")
        _check_workers(self.workers)


DEFAULT_OPTIONS = CountOptions()


@dataclass(frozen=True)
class CountRecord:
    """Exact counts for one (polynomial, prime) pair.

    projective_count is None when the polynomial is constant (forests have
    no projective hypersurface).
    """

    q: int
    n: int
    affine_zero_count: int
    complement_count: int
    projective_count: int | None = None

    def __post_init__(self):
        if self.affine_zero_count + self.complement_count != self.q**self.n:
            raise ConsistencyError(
                f"counts {self.affine_zero_count}+{self.complement_count} != {self.q}^{self.n}"
            )
        if self.projective_count is not None:
            diff = self.affine_zero_count - 1
            if diff < 0 or diff % (self.q - 1) != 0:
                raise ConsistencyError(
                    f"affine zero count {self.affine_zero_count} not 1 mod (q-1)"
                )
            if self.projective_count != diff // (self.q - 1):
                raise ConsistencyError("projective count inconsistent with cone fibration")

    @classmethod
    def from_zeros(cls, p: MultilinearPoly, q: int, zeros: int) -> "CountRecord":
        """Record for p with `zeros` affine zeros in F_q^n.

        Non-constant homogeneous p also gets its projective count: the
        affine zero set is then a cone, scaling acts freely off the origin,
        and construction checks that q-1 divides zeros-1.
        """
        n = p.var_count
        projective = None
        if p.degree() > 0 and p.is_homogeneous():
            projective = (zeros - 1) // (q - 1)
        return cls(
            q=q,
            n=n,
            affine_zero_count=zeros,
            complement_count=q**n - zeros,
            projective_count=projective,
        )

    def to_json_obj(self) -> dict:
        obj = {
            "q": self.q,
            "n": self.n,
            "affine_zero_count": self.affine_zero_count,
            "complement_count": self.complement_count,
        }
        if self.projective_count is not None:
            obj["projective_count"] = self.projective_count
        return obj


# -- vectorized sweep core ---------------------------------------------------


TABLE_PRIME = 251  # the largest prime whose residues fit uint8 and q^2 uint16


@functools.cache
def _table(q: int) -> np.ndarray:
    """The read-only (q^2, q) uint8 step table mod a prime q <= TABLE_PRIME:
    row c0*q + c1 holds (c0 + x*c1) mod q for x = 0..q-1. Built once per
    process, on first use, one block of q rows per c0, so no temporary is
    q^3 long (the table is 15.8 MB at q = 251)."""
    x = np.arange(q, dtype=np.uint16)
    products = np.multiply.outer(x, x) % q
    residue = (np.arange(2 * q) % q).astype(np.uint8)
    table = np.empty((q, q, q), dtype=np.uint8)
    for c0 in range(q):
        np.take(residue, products + c0, out=table[c0])
    table.flags.writeable = False
    return table.reshape(q * q, q)


def _index(c0: np.ndarray, c1: np.ndarray, q: int) -> np.ndarray:
    """c0*q + c1 as uint16, for uint8 residue arrays c0 and c1: the row of
    _table(q) that steps the coefficient pair (c0, c1), and, at q + 2, the
    bin of a pair of pair classes (_pair_classes)."""
    index = c0.astype(np.uint16)
    index *= q
    index += c1
    return index


@functools.cache
def _pair_classes(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(classes, patterns) for a prime q <= TABLE_PRIME, built once per
    process on first use, both read-only uint8.

    classes[a*q + b] is the class of the pair (a, b) in 0..q+1: 0 for the
    zero pair, else its point of P^1(F_q), 1 + b/a where a != 0 and q+1
    where a = 0. patterns[c*(q+2) + d] is the 5-bit zero-pattern of any
    (a1, a0, b1, b0) whose pairs (a1, a0) and (b1, b0) have classes c and
    d: a1 = 0 iff c is 0 or q+1, a0 = 0 iff c is 0 or 1, likewise b1 and
    b0 by d, and bit 4, a1*b0 == a0*b1, iff the pairs are linearly
    dependent: c = 0, d = 0 or c = d."""
    x = np.arange(q)
    inverse = np.array([0, *(pow(int(a), -1, q) for a in x[1:])])
    ratio = np.multiply.outer(inverse, x) % q + 1  # row a != 0: 1 + b/a
    ratio[0] = q + 1
    ratio[0, 0] = 0
    c = np.arange(q + 2)
    zeros = (c == 0) | (c == q + 1) | ((c <= 1) << 1)
    dependent = (c[:, None] == 0) | (c == 0) | (c[:, None] == c)
    patterns = zeros[:, None] | zeros << 2 | dependent << 4
    tables = ratio.astype(np.uint8).ravel(), patterns.astype(np.uint8).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def _folder(
    polys: list[MultilinearPoly], q: int, k: int, dtype: type
) -> Callable[[np.ndarray], np.ndarray]:
    """fold(blocks): for each block number b, with outer variables t_k,
    t_k+1, ... fixed to y_j = b // q^j % q, each polynomial's 2^k
    coefficients mod q as dtype, index bit i standing for t_i: shape
    (blocks, polynomials, 2^k). Each outer variable is folded into every
    block in one array operation."""
    low = (1 << k) - 1
    terms = sorted(
        (i << k | mask & low, mask >> k, c % q)
        for i, p in enumerate(polys)
        for mask, c in p.terms.items()
    )
    terms = [t for t in terms if t[2]]
    inner = np.array([t[0] for t in terms], dtype=np.int64)
    coeffs = np.array([t[2] for t in terms], dtype=np.int64)
    slots, starts = np.unique(inner, return_index=True)
    outer = polys[0].var_count - k
    uses = [np.array([t[1] >> j & 1 for t in terms], dtype=bool) for j in range(outer)]

    def fold(blocks: np.ndarray) -> np.ndarray:
        vals = coeffs  # a row per block once an outer variable is folded
        for j, uses_j in enumerate(uses):
            vals = np.where(uses_j, vals * (blocks[:, None] // q**j % q) % q, vals)
        dense = np.zeros((len(blocks), len(polys) << k), dtype=dtype)
        dense[:, slots] = np.add.reduceat(vals, starts, axis=-1) % q
        return dense.reshape(len(blocks), len(polys), -1)

    return fold


def _step(v: np.ndarray, q: int, table: np.ndarray | None) -> np.ndarray:
    """One axis, the highest bit of each row's index, so that both halves
    of the split are contiguous: each coefficient pair (c0, c1) becomes the
    q values c0 + x*c1 mod q as a new last axis. With uint8 residues that
    is one gather of rows c0*q + c1 of table (_table), else (table None)
    int64 arithmetic, whose array of q values is built only once an axis
    is stepped, as q may reach 2^31."""
    halves = v.reshape(len(v), 2, -1)
    c0, c1 = halves[:, 0], halves[:, 1]
    if table is not None:
        stepped = table.take(_index(c0, c1, q), axis=0)
    else:
        stepped = c1[..., None] * np.arange(q, dtype=np.int64)
        stepped += c0[..., None]
        np.remainder(stepped, q, out=stepped)
    return stepped.reshape(len(v), -1)


def _grid_values(
    coeffs: np.ndarray, k: int, q: int, table: np.ndarray | None, whole: bool
) -> Iterator[np.ndarray]:
    """Values mod q, at every point of F_q^k, of the multilinear polynomials
    whose 2^k coefficients are coeffs[block, polynomial], as arrays of shape
    (blocks, polynomials, q^k). Every axis but the last is stepped (_step)
    for all blocks at once. If whole, or with no axis (k = 0), so is the
    last, and all blocks come as one array; else the last is stepped block
    by block and one block comes at a time, so that one block's values are
    held at a time. The points come out in an order no histogram depends on."""
    blocks, rows, _ = coeffs.shape
    v = coeffs.reshape(blocks * rows, -1)
    for _ in range(k - 1):
        v = _step(v, q, table)
    if whole or not k:
        yield (_step(v, q, table) if k else v).reshape(blocks, rows, -1)
    else:
        for block in v.reshape(blocks, rows, -1):
            yield _step(block, q, table)[None]


def _scales_alike(polys: list[MultilinearPoly], q: int) -> bool:
    """Whether the zero-pattern of four polynomials with the cross bit is
    the same at x and at l*x for every l != 0 mod q: each polynomial is
    homogeneous mod q, or zero, so P(l*x) = l^d*P(x); and the cross bit's
    products P0*P3 and P1*P2 scale alike, d0 + d3 = d1 + d2, unless one
    of the four is zero."""
    degrees = []
    for p in polys:
        found = {mask.bit_count() for mask, c in p.terms.items() if c % q}
        if len(found) > 1:
            return False
        degrees.append(found.pop() if found else None)
    if None in degrees:
        return True
    d0, d1, d2, d3 = degrees
    return d0 + d3 == d1 + d2


def sweep_zero_patterns(
    polys: list[MultilinearPoly],
    q: int,
    *,
    chunk_points: int = DEFAULT_CHUNK,
    workers: int = 1,
    fibered: bool = False,
) -> list[int]:
    """Count grid points of F_q^width by which polynomials vanish there.

    Two sweeps, of polynomials that share var_count (the width). Brute
    force's takes 1 to 8 and returns 2^len(polys) integers, bit i set where
    polys[i] vanishes. The fibered one (fibered=True) takes exactly four,
    (A1, A0, B1, B0), and returns 32: bit 4 is set where polys[0]*polys[3]
    == polys[1]*polys[2] mod q. The grid is taken in blocks of q^k points
    with len(polys)*q^k <= chunk_points polynomial values: the outer
    width-k coordinates y of a block are folded into each polynomial, whose
    k inner axes are then transformed (_grid_values). Brute force's sweep
    visits every block. A fibered one of width > 0 whose pattern is the
    same at x and at l*x for every l != 0 (_scales_alike) is a cone sweep:
    k stays below width, so that there is at least one outer coordinate,
    and only one block per line through the origin is transformed: y = 0
    with weight 1 and each y whose last nonzero coordinate is 1 with weight
    q-1, since scaling by l maps the inner grid of block y onto that of
    block l*y. That is 1 + (q^(width-k)-1)/(q-1) of the q^(width-k)
    blocks. A pass takes as many blocks as fit chunk_points values, at
    least one: it folds them and steps all their axes but the last at once,
    then the last axis and the histogram block by block. Where the whole
    grid would fit one block, so that a pass holds no more values than that
    block (a cone sweep's y = 0 and y = 1), or with no inner axis (k = 0),
    a pass steps every axis at once and takes one histogram. A fibered
    sweep with uint8 residues histograms each point's pairs (polys[0],
    polys[1]) and (polys[2], polys[3]) by their classes (_pair_classes) and
    maps the (q+2)^2 class pairs onto the 32 patterns once, at the end.
    Passes are split over `workers` threads, 1..MAX_WORKERS; results are
    bit-identical across chunk sizes and worker counts.
    """
    _check_workers(workers)
    require_prime(q)
    if not 1 <= len(polys) <= 8:
        raise ValueError("a sweep's zero-pattern holds 1 to 8 polynomials")
    width = polys[0].var_count
    if any(p.var_count != width for p in polys):
        raise ValueError("sweep polynomials must share var_count")
    if fibered and len(polys) != 4:
        raise ValueError("a fibered sweep takes exactly four polynomials")
    # a cone sweep keeps at least one outer axis, so that it can skip blocks
    cone = fibered and width > 0 and _scales_alike(polys, q)
    k = 0
    while k < width - cone and len(polys) * q ** (k + 1) <= chunk_points:
        k += 1
    outer = width - k
    if cone:
        # block b has y_j = b // q^j % q: its last nonzero y_j is 1 for b
        # in [q^j, 2*q^j)
        blocks, scale = [0, *(b for j in range(outer) for b in range(q**j, 2 * q**j))], q - 1
    else:
        blocks, scale = range(q**outer), 1
    # a table holds q^3 values and costs about as much to build as
    # transforming them, so a sweep of fewer values steps in int64
    values = len(blocks) * len(polys) * q**k
    table = _table(q) if k and q <= TABLE_PRIME and values >= q**3 else None
    fold = _folder(polys, q, k, np.int64 if table is None else np.uint8)
    per_pass = max(1, chunk_points // (len(polys) * q**k))
    starts = range(0, len(blocks), per_pass)
    lanes = min(workers, len(starts))
    # where the whole grid would fit one block, a pass, a cone sweep's y = 0
    # and y = 1, holds no more values than that block and steps every axis
    whole = len(polys) * q**width <= chunk_points
    # bin_of(v): the histogram bin of each point of values v[block,
    # polynomial], its pair of classes or its zero-pattern
    by_class = fibered and table is not None
    if by_class:
        classes, patterns = _pair_classes(q)
        bins = (q + 2) ** 2

        def bin_of(v: np.ndarray) -> np.ndarray:
            c = classes.take(_index(v[:, 0::2], v[:, 1::2], q))
            return _index(c[:, 0], c[:, 1], q + 2)
    else:
        bins = 1 << (len(polys) + fibered)
        shifts = np.arange(len(polys), dtype=np.uint8)[:, None]

        def bin_of(v: np.ndarray) -> np.ndarray:
            bits = (v == 0).view(np.uint8)
            bits <<= shifts
            pattern = np.bitwise_or.reduce(bits, axis=1)
            if fibered:
                pattern |= ((v[:, 0] * v[:, 3] - v[:, 1] * v[:, 2]) % q == 0).view(np.uint8) << 4
            return pattern

    def lane(first: int) -> np.ndarray:
        # the first block, y = 0, weighs 1 and every other block scale, by
        # which their histogram is multiplied once, at the end
        lead, rest = np.zeros(bins, dtype=np.int64), np.zeros(bins, dtype=np.int64)
        for start in starts[first::lanes]:
            group = np.array(blocks[start : start + per_pass])
            for i, v in enumerate(_grid_values(fold(group), k, q, table, whole)):
                found = bin_of(v)
                if start == i == 0:
                    lead += np.bincount(found[0], minlength=bins)
                    found = found[1:]
                rest += np.bincount(found.ravel(), minlength=bins)
        return lead + scale * rest

    if lanes == 1:
        hist = lane(0)
    else:
        with ThreadPoolExecutor(lanes) as pool:
            hist = sum(pool.map(lane, range(lanes)))
    if by_class:
        hist, by_pair = np.zeros(32, dtype=np.int64), hist
        np.add.at(hist, patterns, by_pair)
    return [int(c) for c in hist]


# -- public counters ---------------------------------------------------------


def _check_budget(cost: int, what: str) -> None:
    budget = _options().budget
    if cost > budget:
        raise BudgetExceededError(f"{what} needs {cost} point evaluations, budget is {budget}")


def _admit(q: int, n: int, levels: tuple[int, ...], what: str | None = None) -> None:
    """require_prime(q), then charge each level's sweep of an n-variable count
    under `what`, else the level's name; once per count, before any search.

    Level 0 is charged its exact cost, one polynomial over F_q^n. A fibered
    level is charged as 2 polynomials over F_q^{n-1}, A and B of
    p = t_e*A + B at its last variable t_e: an upper bound for level 2,
    which sweeps 4 polynomials over F_q^{n-2} (4*q^(n-2) <= 2*q^(n-1) for
    q >= 2), or nothing where no variable other than t_e occurs. A fibered
    count of a constant (n = 0) is not charged.
    The charge stays this upper bound, not the values a cone-reduced
    level-2 sweep evaluates (about 4*q^(n-2)/(q-1), and 8*q^(n-3) where
    its grid would fit one block), so that no budget refusal changed when
    the sweep began to visit one block per line.
    """
    require_prime(q)
    for level in levels:
        if (charged := min(level, 1)) <= n:
            name = what or _LEVEL_NAMES[level]
            _check_budget(2**charged * q ** (n - charged), f"{name} over F_{q}^{n - charged}")


def check_count_budget(g: Multigraph, q: int) -> None:
    """Raise what count_graph(g, q) would raise before its first sweep,
    without building psi: too many edges for one polynomial, then the
    modulus and the budget of each level of the block's method in turn."""
    if g.edge_count > MAX_VARS:
        raise NonMultilinearError(f"edge labels exceed {MAX_VARS - 1}")
    _admit(q, g.edge_count, METHODS[_options().method])


# Fiber tables. Each maps the vanishing pattern of a base point (True where
# that swept value is 0 mod q) to the zeros in the fiber over it. The swept
# values are A1, A0, B1, B0 and D = A1*B0 - A0*B1, from p = t_e*A + B,
# A = f*A1 + A0 and B = f*B1 + B0: where A1 != 0, A vanishes at f = -A0/A1
# alone, and B there is D/A1.


def _plane_zeros(q: int, a1: bool, a0: bool, b1: bool, b0: bool, d: bool) -> int:
    """Level 2: zeros of t_e*A + B on the (t_e, f) plane."""
    if not a1:
        return 2 * q - 1 if d else q - 1
    if not (a0 and b1):
        return q
    return q * q if b0 else 0


def _common_zeros(q: int, a1: bool, a0: bool, b1: bool, b0: bool, d: bool) -> int:
    """Level 2 of the Z-locus: common zeros of A and B on the f line."""
    if not a1:
        return int(d)
    if not a0:
        return 0
    if not b1:
        return 1
    return q if b0 else 0


def _patterns(
    polys: Callable[[], list[MultilinearPoly]], q: int, fibered: bool, key=None
) -> list[tuple[tuple[bool, ...], int]]:
    """The base points of the sweep of the polynomials polys() builds, by
    zero-pattern: (whether each swept value is 0 mod q, point count) for
    each pattern that occurs: brute force's sweep of [p], or with fibered
    that of (A1, A0, B1, B0), which adds the cross bit D and visits one
    block per line through the origin where the parts scale alike
    (sweep_zero_patterns). key (canonical graph, level, q) names the sweep
    in the memo, and a hit builds none. workers is read here, on the
    calling thread, as lanes do not see it."""

    def build():
        swept = polys()
        workers = _options().workers
        counts = sweep_zero_patterns(swept, q, workers=workers, fibered=fibered)
        bits = len(swept) + fibered
        return [(tuple(bool(s >> i & 1) for i in range(bits)), c) for s, c in enumerate(counts) if c]

    return _memoized(key, build)


def _fiber_parts(p: MultilinearPoly) -> list[MultilinearPoly]:
    """[A1, A0, B1, B0], what a fibered count of p sweeps, in one pass over
    p's terms: p = t_e*A + B at its last variable t_e, with A and B split
    at f, the one before it. The parts keep the n-2 variables below f."""
    n = p.var_count
    rest = (1 << (n - 2)) - 1
    parts: list[dict[int, int]] = [{}, {}, {}, {}]
    for mask, c in p.terms.items():
        parts[3 - (mask >> (n - 2))][mask & rest] = c
    return [MultilinearPoly(n - 2, terms) for terms in parts]


def _count_level(p: MultilinearPoly, q: int, level: int, key=None) -> CountRecord:
    """Count p by sweeping the base of its level-`level` fibration.

    Level 0 sweeps p over all of F_q^n. Level 2 sweeps p's fiber parts
    (_fiber_parts) over F_q^{n-2} and adds up _plane_zeros, the zeros on
    each (t_e, f) plane. A p in which no variable other than its last,
    t_e, occurs, p = a*t_e + b, sweeps nothing at level 2: it has q^(n-1)
    zeros if a != 0 mod q, else q^n or none as b is 0 mod q or not. That
    covers constants (psi of a forest) and every p of one variable. Only a
    term that holds a variable is tested, so n = 0 shifts by nothing. The
    caller has admitted the count (_admit).
    """
    n = p.var_count
    if level == 0:
        zeros = sum(c for (zero,), c in _patterns(lambda: [p], q, False, key) if zero)
    elif all(mask == 1 << (n - 1) for mask in p.terms if mask):
        a = sum(c for mask, c in p.terms.items() if mask) % q
        zeros = q ** (n - 1) if a else 0 if p.terms.get(0, 0) % q else q**n
    else:
        patterns = _patterns(lambda: _fiber_parts(p), q, True, key)
        zeros = sum(c * _plane_zeros(q, *zero) for zero, c in patterns)
    return CountRecord.from_zeros(p, q, zeros)


def _agreed(records: list[CountRecord]) -> CountRecord:
    """The one record that each fibration level gave, in turn."""
    rec, *others = records
    for rec_f in others:
        if rec != rec_f:
            raise ConsistencyError(f"brute {rec} != fibered {rec_f}")
    return rec


def count_poly(p: MultilinearPoly, q: int) -> CountRecord:
    """Counts for p over F_q^n by the method of the enclosing shared_counts()
    block, admitted once: brute force, the oracle every faster counter must
    match, sweeps q^n values; the fibered count splits p's last variable and
    the one before it (_count_level) and sweeps 4*q^(n-2), or about
    4*q^(n-2)/(q-1) for homogeneous p. No polynomial is memoized."""
    levels = METHODS[_options().method]
    _admit(q, p.var_count, levels)
    return _agreed([_count_level(p, q, level) for level in levels])


def count_Z(g: Multigraph, label: int, q: int) -> int:
    """Common zeros of the deletion and contraction polynomials in F_q^{n-1}.

    Let B be the block of g (_reduce) that holds the edge, with n_B edges,
    and R the rest of g. The deletion's and the contraction's psi are each
    that of B's minor times psi_R, in disjoint variables, so
    |Z| = q^(n_B-1)*(q^(n_R) - |Y_R|) + |Y_R|*|Z_B|, with |Y_R| factorised
    as in count_graph. Z_B is 0 when B is a cycle: B minus the edge is a
    path, with psi = 1. Otherwise it is q per series merge of B times Z of
    the reduced block at the edge the label merged into. Along the edge's
    own path through degree-2 vertices, the deletion's psi holds none of
    the path's other variables, and the contraction's holds only their sum,
    times the deletion's psi: so they are free on Z. Every other merge is
    a q-to-1 linear substitution in both.

    With k = canonical_relabel(reduced block, that edge), psi(k) = t*A + B
    at its last variable t, where A and B are psi of the deletion and the
    contraction in the same variables. So Z of it is read off the sweep of
    (A1, A0, B1, B0), A and B split at their highest variable f, over
    F_q^{|k|-2}: the very sweep count_graph makes when it fibers k. That
    sweep's histogram depends on which variable is f; its total of
    _common_zeros does not. The budget charges g as a fibered count.
    Inside shared_counts(), (graph, edge) pairs with isomorphic marked
    reduced blocks share k, and so one psi build and one sweep per prime.

    The count is admitted first (_admit), as in count_poly, so a refused
    modulus or budget is the error whatever the label. Then the edge is
    regular exactly when the reduction homes it in a block: a loop or a
    bridge raises NotRegularEdgeError and a label g lacks
    UnknownLabelError. No pass over g's vertices is made, and inside
    shared_counts() a repeat reads the memoized reduction.
    """
    _admit(q, g.edge_count, (2,), "Z-locus sweep")
    reduction = _memoized(("reduce", g), _reduce, g)
    if (home := reduction.home.get(label)) is None:
        g.edge_by_label(label)  # UnknownLabelError for a label g lacks
        raise NotRegularEdgeError(f"edge {label} is not regular")
    i, mark = home
    block = reduction.blocks[i]
    y_rest = _complement(reduction, q, skip=i)
    z = q ** (block.edges - 1) * (q ** (g.edge_count - block.edges) - y_rest)
    if block.reduced is None:
        return z
    k, p = _form(block.reduced, mark)
    patterns = _patterns(lambda: _fiber_parts(p), q, True, (k, 2, q))
    z_block = sum(c * _common_zeros(q, *zero) for zero, c in patterns)
    return z + y_rest * q**block.merges * z_block


_shared: ContextVar[tuple | None] = ContextVar("graphmotive_shared_counts", default=None)


@contextmanager
def shared_counts(opts: CountOptions | None = None) -> Iterator[None]:
    """Within this block every count takes its method, budget and workers
    from opts (if None, from the enclosing block, or DEFAULT_OPTIONS), and
    each graph is reduced, each psi built and each sweep run once.

    A nested block joins the enclosing memo whatever its options, as no
    entry depends on them: workers changes no count, a sweep's and a
    record's key hold their levels, and every budget is checked before
    the memo is read for a count.
    The memo's seven kinds of key:
    - ("reduce", g): g's blocks after series reduction (_reduce);
    - ("canonical", h, label): canonical_relabel(h, label), label None
      for the unmarked form; _form chains two of them into a count form;
    - ("structure", vertex count, pairs, marked): the same search result
      by what the search reads, h's edge structure (_by_structure), on a
      miss of the key above. So canonical searches follow edge structure:
      labels and edge order do not split them, vertex names still do;
    - a canonical graph k: psi(k), whose variables are k's labels. This
      key and the next hold k, so psi builds and sweeps follow
      isomorphism class;
    - (k, level, q): the zero-pattern histogram of k's level-`level` sweep
      at q. A fibered sweep splits k's last label;
    - ("block", b, q): |Y| of the reduced block b at q, the fibered count
      of its count form (_block_complement), which _complement reads;
    - ("record", g, q, levels): count_graph's CountRecord of g at q by the
      fibration levels METHODS[method], read only after check_count_budget.
    The key fixes the swept polynomials: two requests share a sweep only
    when they would sweep the same thing, and a form that is not canonical
    can cost a memo hit, never a wrong count. So the fibered level sweeps
    and counts each reduced block once per prime, whatever graphs of the
    run it is found in, and a repeated request runs no search and builds
    no record. Outside any block nothing is memoized.
    """
    outer = _shared.get()
    inherited, memo = (DEFAULT_OPTIONS, {}) if outer is None else outer
    token = _shared.set((inherited if opts is None else opts, memo))
    try:
        yield
    finally:
        _shared.reset(token)


def _options() -> CountOptions:
    """The innermost shared_counts() block's options, else DEFAULT_OPTIONS."""
    shared = _shared.get()
    return DEFAULT_OPTIONS if shared is None else shared[0]


def _memoized(key, build: Callable, *args):
    """build(*args), or the shared_counts() memo's entry for key."""
    shared = _shared.get()
    if shared is None or key is None:
        return build(*args)
    memo = shared[1]
    if (value := memo.get(key)) is None:
        value = memo[key] = build(*args)
    return value


# -- blocks and series reduction ----------------------------------------------
#
# psi_G is the product of psi over G's 2-connected loopless blocks, times
# t_l for each loop; a bridge's variable does not occur in it (Aluffi and
# Marcolli, "Algebro-geometric Feynman rules", arXiv:0811.2514). Two edges
# e, f at a vertex of degree 2 with no loop are in series: psi_G is psi of
# G', G with e and f merged into one edge g, under t_g -> t_e + t_f, a
# q-to-1 linear map (Stembridge 1998), so |Y_G| = q*|Y_G'|. In all, |Y_G|
# is q per bridge and per merge, q-1 per loop, times |Y| of each block once
# no vertex of degree 2 is left; a cycle merges down to a loop.


class _Block(NamedTuple):
    """A 2-connected loopless block of `edges` edges, which `merges` series
    merges take to `reduced`, with no vertex of degree 2; reduced is None
    for a cycle, whose merges leave a loop."""

    edges: int
    merges: int
    reduced: Multigraph | None


class _Reduction(NamedTuple):
    """What count_graph and count_Z count a graph by: its bridges, its loops
    and its blocks of two or more edges, and for each edge of such a block
    (block index, label of the reduced edge it merged into, None in a
    cycle)."""

    bridges: int
    loops: int
    blocks: tuple[_Block, ...]
    home: dict[int, tuple[int, int | None]]


def _find(parent: dict[int, int], x: int) -> int:
    """The root of x's class in the union-find forest `parent`, in which a
    root maps to itself or is absent; each step skips a level (path
    halving). parent[_find(parent, a)] = _find(parent, b) joins two classes."""
    while (up := parent.get(x, x)) != x:
        parent[x] = x = parent.get(up, up)
    return x


def _block_labels(g: Multigraph) -> dict[int, int]:
    """Each non-loop edge's label -> a label naming its 2-connected block.

    Two edges at a vertex v share a block exactly when their far ends stay
    joined in g - v, as a path between them that misses v closes a cycle
    through both. So for each vertex v an edge touches, one union-find
    pass over the edges that miss v joins, at v, the edges whose far ends
    it joins; a bridge stays alone. That is quadratic in the edges, which
    MAX_EDGES bounds, and isolated vertices are never visited.
    """
    edges = [e for e in g.edges if not e.is_loop]
    at: dict[int, list[Edge]] = {}
    for e in edges:
        at.setdefault(e.u, []).append(e)
        at.setdefault(e.v, []).append(e)
    block: dict[int, int] = {}
    for v, incident in at.items():
        rest: dict[int, int] = {}
        for _, a, b in edges:
            if v != a and v != b:
                rest[_find(rest, a)] = _find(rest, b)
        first: dict[int, int] = {}  # class of a far end in g - v -> a label at v
        for label, a, b in incident:
            joined = first.setdefault(_find(rest, a + b - v), label)
            block[_find(block, label)] = _find(block, joined)
    return {e.label: _find(block, e.label) for e in edges}


def _merge_series(vertex_count: int, edges: list[Edge]) -> tuple[Multigraph | None, dict[int, int]]:
    """A 2-connected loopless block with each maximal path through vertices
    of degree 2 merged into one edge between its ends, labelled as the
    path's first edge in `edges`, and each label -> the label it merged
    into; (None, {}) for a cycle. A path is the union-find class that joins
    the two edges at each vertex of degree 2, and its ends are its
    endpoints of other degree, in the order `edges` meets them. The graph
    is on the vertices it touches (_edge_sized), so blocks that differ only
    in untouched vertices are equal graphs."""
    at: dict[int, list[int]] = {}
    for e in edges:
        at.setdefault(e.u, []).append(e.label)
        at.setdefault(e.v, []).append(e.label)
    if all(len(labels) == 2 for labels in at.values()):
        return None, {}
    path: dict[int, int] = {}
    for labels in at.values():
        if len(labels) == 2:
            path[_find(path, labels[0])] = _find(path, labels[1])
    first: dict[int, int] = {}  # path -> its first label
    into: dict[int, int] = {}
    ends: dict[int, list[int]] = {}  # first label of a path -> its ends
    for label, u, v in edges:
        into[label] = head = first.setdefault(_find(path, label), label)
        ends.setdefault(head, []).extend(w for w in (u, v) if len(at[w]) != 2)
    reduced = tuple(Edge(label, *w) for label, w in ends.items())
    return _edge_sized(Multigraph(vertex_count, reduced)), into


def _reduce(g: Multigraph) -> _Reduction:
    """g's loops, bridges and series-reduced blocks of two or more edges."""
    block_of = _block_labels(g)
    members: dict[int, list[Edge]] = {}
    for e in g.edges:
        if not e.is_loop:
            members.setdefault(block_of[e.label], []).append(e)
    bridges, blocks, home = 0, [], {}
    for edges in members.values():
        if len(edges) == 1:
            bridges += 1
            continue
        reduced, into = _merge_series(g.vertex_count, edges)
        for e in edges:
            home[e.label] = (len(blocks), into.get(e.label))
        kept = 1 if reduced is None else reduced.edge_count
        blocks.append(_Block(len(edges), len(edges) - kept, reduced))
    loops = g.edge_count - len(block_of)
    return _Reduction(bridges, loops, tuple(blocks), home)


def _complement(reduction: _Reduction, q: int, skip: int | None = None) -> int:
    """|Y| of the reduced graph, without its block number `skip` if given:
    q per bridge and per merge, q-1 per loop and per cycle, and each
    reduced block's own |Y|, counted once per prime inside shared_counts()
    (_block_complement)."""
    y = q**reduction.bridges * (q - 1) ** reduction.loops
    for i, block in enumerate(reduction.blocks):
        if i == skip:
            continue
        y *= q**block.merges
        if block.reduced is None:
            y *= q - 1
        else:
            y *= _memoized(("block", block.reduced, q), _block_complement, block.reduced, q)
    return y


def _block_complement(reduced: Multigraph, q: int) -> int:
    """|Y| of a reduced block at q: the fibered count of psi of its count
    form (_form), split at that form's last label."""
    k, p = _form(reduced)
    return _count_level(p, q, 2, (k, 2, q)).complement_count


def _form(g: Multigraph, mark: int | None = None) -> tuple[Multigraph, MultilinearPoly]:
    """(k, psi(k)) for k = canonical_relabel(g, mark), both memoized. With
    no mark, k is the count form of g: canonical_relabel(g) marked at its
    own last label, which a fibered count splits. It depends on g's
    isomorphism class alone, so edge labels cannot change the sweeps.
    Every edge of a reduced block is regular, and brute force needs no
    regular mark, so no edge is classified."""
    if mark is None:
        g = _memoized(("canonical", g, None), _by_structure, g, None)
        mark = g.labels[-1] if g.edges else None
    k = _memoized(("canonical", g, mark), _by_structure, g, mark)
    return k, _memoized(k, psi_by_deletion_contraction, k)


def _by_structure(g: Multigraph, mark: int | None) -> Multigraph:
    """canonical_relabel(g, mark), memoized under g's edge structure: its
    vertex count, the sorted end pairs (lower end first, a loop (u, u)) of
    its edges other than mark, and the marked edge's pair, or None. The
    search reads nothing else, labels and edge order least of all, so
    graphs that differ only in those share one search; vertex names still
    tell structures apart. _form looks here only on a miss of g's own
    key, so a repeat of g costs one dict hit. An unknown mark is refused
    (UnknownLabelError)."""
    marked = None if mark is None else tuple(sorted(g.edge_by_label(mark)[1:]))
    pairs = sorted((u, v) if u <= v else (v, u) for label, u, v in g.edges if label != mark)
    key = ("structure", g.vertex_count, tuple(pairs), marked)
    return _memoized(key, canonical_relabel, g, mark)


def _count_at(g: Multigraph, q: int, level: int) -> CountRecord:
    """count_graph's record at one fibration level, admitted by the caller.

    Level 0 sweeps psi of g's count form (_form) over F_q^n. The fibered level
    multiplies |Y| over g's reduction (_reduce): each reduced block is
    counted at level 2 on psi of its count form, and g's psi has positive
    degree, so a projective count, when g has a loop or a block."""
    if level == 0:
        k, p = _form(g)
        return _count_level(p, q, 0, key=(k, 0, q))
    reduction = _memoized(("reduce", g), _reduce, g)
    n = g.edge_count
    zeros = q**n - _complement(reduction, q)
    has_cycle = reduction.loops or reduction.blocks
    return CountRecord(q, n, zeros, q**n - zeros, (zeros - 1) // (q - 1) if has_cycle else None)


def count_graph(g: Multigraph, q: int) -> CountRecord:
    """Counts for a graph's polynomial over A^n, n = edge count, by the
    method of the enclosing shared_counts() block.

    The budget of the whole graph is checked before anything is built.
    The fibered level factorises over g's series-reduced blocks, so inside
    shared_counts() each reduced block is swept once per prime, whatever
    graph it comes from, and count_Z at every edge that reduces to the
    block's fibered edge reads that sweep. Brute force still sweeps psi of
    the whole graph's count form, so "both" checks the factorisation
    against it. No edge is classified, and a repeated request, once its
    budget is checked, reads its record from the memo: it splits no block,
    runs no canonical search and builds no record. A refused count
    stores none.
    """
    check_count_budget(g, q)
    levels = METHODS[_options().method]
    return _memoized(("record", g, q, levels), _count_record, g, q, levels)


def _count_record(g: Multigraph, q: int, levels: tuple[int, ...]) -> CountRecord:
    """count_graph's record, agreed by each fibration level (_agreed);
    admitted by the caller."""
    return _agreed([_count_at(g, q, level) for level in levels])
