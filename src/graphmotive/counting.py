"""Exact point counts over prime fields for graph hypersurfaces.

Counts |zeros of psi| in F_q^n, the complement, the projective count, and
the two-polynomial Z-locus. Each count is a fibration: split off edge
variables, sweep the polynomials that describe each fiber over the base
that is left, and add up a fiber table over the sweep's zero-patterns.
Brute force sweeps psi itself over F_q^n. The fibered count writes
psi = t_e*A + B, splits A and B again at a second variable f, and sweeps
the four parts (A1, A0, B1, B0) over F_q^{n-2}; their zero-pattern and
whether D = A1*B0 - A0*B1 vanishes fix the zeros on each (t_e, f) plane.
The Z-locus at an edge is read off the same sweep, fibered at that edge.
The fibered count_graph and count_Z take a graph apart first: psi is
the product of psi over its 2-connected loopless blocks, times t_l per
loop, and two edges in series at a vertex of degree 2 count as one edge,
times q. So only the blocks left once every such pair is merged are
swept, each once per prime inside a shared_counts() block, whatever
graphs hold it.
The sweep evaluates multilinear polynomials on F_q^k one axis at a time:
each coefficient pair (c0, c1) becomes the q values c0 + x*c1, so a
block costs about q^k multiply-adds per polynomial whatever the term
count. The grid is taken in blocks of at most chunk_points polynomial
values, the outer coordinates of each block folded into the coefficients
first. psi is homogeneous, and so are A1, A0, B1, B0, with D's two
products of equal degree: their zero-pattern is the same at x and at l*x
for every l != 0. So when a fibered sweep spans several blocks it
transforms one block per line through the origin of outer coordinates
and weights it by the q-1 points of that line off the origin: about
4*q^(n-2)/(q-1) values in place of 4*q^(n-2). Brute force, the oracle,
still evaluates psi at every point of F_q^n. Every value is reduced
below q after each multiply-add, so it and the product of two residues
stay below q^2. For q <= 251 (q^4 < 2^32) residues are uint32 and the
reduce step is a division-free Barrett reduction, exact below q^2; for
larger q up to 2^31 they are int64 and the step is np.remainder. Integer
accumulation makes results independent of block size and thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .graphs import Edge, GraphError, Multigraph, canonical_relabel
# Not called in this module: perfbench/worker.py's install() patches
# counting.classify_edge with no hasattr guard, so the name must stay.
from .graphs import classify_edge  # noqa: F401
from .primes import require_prime
from .symanzik import (
    MAX_VARS,
    MultilinearPoly,
    NonMultilinearError,
    psi_by_deletion_contraction,
    split_last_var,
)

DEFAULT_BUDGET = 10**9  # single-polynomial point evaluations per count
DEFAULT_CHUNK = 1 << 19  # polynomial values per sweep block
MAX_WORKERS = 64  # a sweep opens one pool of this many threads at most

# The fibration levels each method runs, in order. A level-k count sweeps
# the base F_q^{n-k} left after splitting off k edge variables: level 0 is
# brute force over all of F_q^n, level 2 splits off one edge variable (the
# last label of a block's count form, in count_graph) and the highest other one.
METHODS = {"brute": (0,), "fibered": (2,), "both": (0, 2)}
_LEVEL_NAMES = {0: "brute count", 2: "fibered count"}


class BudgetExceededError(RuntimeError):
    pass


class ConsistencyError(RuntimeError):
    """An internal exact identity failed; indicates a bug, never data."""


class NotRegularEdgeError(GraphError):
    pass


class NoProjectiveHypersurfaceError(ValueError):
    """Constant polynomial: forests define no projective hypersurface."""


def _check_workers(workers: int) -> None:
    """Refuse a sweep thread count outside 1..MAX_WORKERS."""
    if workers < 1:
        raise ValueError("workers must be positive")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers {workers} exceeds the limit {MAX_WORKERS}")


@dataclass(frozen=True)
class CountOptions:
    """How the counts of a shared_counts(opts) block are taken; validated once.

    method: "brute", "fibered" (split at the last two edge variables), or
    "both" (run both, insist on exact agreement). budget caps the
    single-polynomial point evaluations charged to one count (see _admit).
    workers is the sweep thread count, 1..MAX_WORKERS; counts are identical
    for any value.
    """

    method: str = "fibered"
    budget: int = DEFAULT_BUDGET
    workers: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
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


def _barrett(q: int) -> tuple[int, int]:
    """(s, m) with m = ceil(2^s / q): for q^4 < 2^32, v - (v*m >> s)*q is
    v mod q for every v < q^2, since q^3 <= 2^s, and v*m < q^2*m < 2^32."""
    s = 32 - q.bit_length()
    return s, -(-(1 << s) // q)


def _residues(q: int) -> tuple[type, Callable[[np.ndarray], np.ndarray]]:
    """The dtype a sweep holds residues mod q in, and its reduce step, which
    takes each entry v < q^2 of an array of that dtype to v mod q in place."""
    if q**4 >= 1 << 32:
        return np.int64, lambda v: np.remainder(v, q, out=v)
    s, m = _barrett(q)

    def reduce(v: np.ndarray) -> np.ndarray:
        h = v * m
        h >>= s
        h *= q
        v -= h
        return v

    return np.uint32, reduce


def _folder(
    polys: list[MultilinearPoly], q: int, k: int, dtype: type
) -> Callable[[list[int]], np.ndarray]:
    """fold(y): for each polynomial, as one row, its 2^k coefficients mod q
    as dtype, index bit i standing for t_i, with its outer variables t_k,
    t_k+1, ... fixed to the values y."""
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

    def fold(y: list[int]) -> np.ndarray:
        vals = coeffs
        for uses_j, y_j in zip(uses, y):
            if y_j != 1:
                vals = np.where(uses_j, vals * y_j % q, vals)
        dense = np.zeros(len(polys) << k, dtype=dtype)
        dense[slots] = np.add.reduceat(vals, starts) % q
        return dense.reshape(len(polys), -1)

    return fold


def _grid_values(
    coeffs: np.ndarray, k: int, q: int, reduce: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Values mod q, at every point of F_q^k, of the multilinear polynomials
    whose 2^k coefficients are the rows of coeffs, one row out per row in.
    One axis at a time, lowest bit first, a coefficient pair (c0, c1)
    becomes the q values c0 + x*c1, as a new leading axis of the row.
    Each such value is below q^2 in coeffs' dtype (uint32 or int64, see
    _residues), and `reduce` brings it below q again after each axis."""
    rows = len(coeffs)
    v = coeffs
    for _ in range(k):
        pairs = v.reshape(rows, 1, -1, 2)
        v = pairs[..., 1] * np.arange(q, dtype=v.dtype)[:, None]
        v += pairs[..., 0]
        reduce(v)
    return v.reshape(rows, -1)


def _scales_alike(polys: list[MultilinearPoly], q: int, cross: bool) -> bool:
    """Whether the zero-pattern of polys, with the cross bit if cross, is
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
    if cross and None not in degrees:
        d0, d1, d2, d3 = degrees
        return d0 + d3 == d1 + d2
    return True


def sweep_zero_patterns(
    polys: list[MultilinearPoly],
    q: int,
    *,
    chunk_points: int = DEFAULT_CHUNK,
    workers: int = 1,
    cross: bool = False,
    cone: bool = False,
) -> list[int]:
    """Count grid points of F_q^width by which polynomials vanish there.

    Returns 2^len(polys) integers, for 1 to 8 polynomials; index bit i
    is set when polys[i] vanishes. With cross=True there must be exactly four polynomials, and
    one more bit, 4, is set where polys[0]*polys[3] == polys[1]*polys[2]
    mod q, so 32 integers are returned. All polynomials must share
    var_count (the sweep width). The grid is taken in blocks of q^k points
    with len(polys)*q^k <= chunk_points polynomial values: the outer
    width-k coordinates y of a block are folded into each polynomial, whose
    k inner axes are then transformed. With cone=True, when there are outer
    coordinates and the zero-pattern is the same at x and at l*x for every
    l != 0 (_scales_alike), only one block per line through the origin is
    transformed: y = 0 with weight 1 and each y whose last nonzero
    coordinate is 1 with weight q-1, since scaling by l maps the inner grid
    of block y onto that of block l*y. That is 1 + (q^(width-k)-1)/(q-1)
    of the q^(width-k) blocks; other input is swept in full. Blocks are split
    over `workers` threads, 1..MAX_WORKERS; results are bit-identical across
    chunk sizes, worker counts and cone.
    """
    _check_workers(workers)
    require_prime(q)
    if not 1 <= len(polys) <= 8:
        raise ValueError("a sweep's zero-pattern holds 1 to 8 polynomials")
    width = polys[0].var_count
    if any(p.var_count != width for p in polys):
        raise ValueError("sweep polynomials must share var_count")
    if cross and len(polys) != 4:
        raise ValueError("the cross bit needs exactly four polynomials")
    k = 0
    while k < width and len(polys) * q ** (k + 1) <= chunk_points:
        k += 1
    outer = width - k
    dtype, reduce = _residues(q)
    fold = _folder(polys, q, k, dtype)
    if cone and outer and _scales_alike(polys, q, cross):
        # block b has y_j = b // q^j % q: its last nonzero y_j is 1 for b
        # in [q^j, 2*q^j)
        blocks, scale = [0, *(b for j in range(outer) for b in range(q**j, 2 * q**j))], q - 1
    else:
        blocks, scale = range(q**outer), 1
    lanes = min(workers, len(blocks))
    bins = 1 << (len(polys) + cross)
    shifts = np.arange(len(polys), dtype=np.uint8)[:, None]

    def lane(first: int) -> np.ndarray:
        hist = np.zeros(bins, dtype=np.int64)
        for b in blocks[first::lanes]:
            v = _grid_values(fold([b // q**j % q for j in range(outer)]), k, q, reduce)
            bits = (v == 0).view(np.uint8)
            bits <<= shifts
            pattern = np.bitwise_or.reduce(bits, axis=0)
            if cross:  # each product is below q^2
                v[0] *= v[3]
                v[1] *= v[2]
                pattern |= (reduce(v[0]) == reduce(v[1])).view(np.uint8) << 4
            hist += np.bincount(pattern, minlength=bins) * (scale if b else 1)
        return hist

    if lanes == 1:
        return [int(c) for c in lane(0)]
    with ThreadPoolExecutor(lanes) as pool:
        return [int(c) for c in sum(pool.map(lane, range(lanes)))]


# -- public counters ---------------------------------------------------------


def _check_budget(cost: int, what: str) -> None:
    budget = _options().budget
    if cost > budget:
        raise BudgetExceededError(f"{what} needs {cost} point evaluations, budget is {budget}")


def _admit(q: int, n: int, levels: tuple[int, ...], what: str | None = None) -> None:
    """require_prime(q), then charge each level's sweep of an n-variable count
    under `what`, else the level's name; once per count, before any search.

    Level 0 is charged its exact cost, one polynomial over F_q^n. A fibered
    level is charged as 2 polynomials over F_q^{n-1}: that is the exact
    cost of level 1, and an upper bound for level 2, which sweeps 4
    polynomials over F_q^{n-2} (4*q^(n-2) <= 2*q^(n-1) for q >= 2). A
    fibered count of a constant (n = 0) sweeps nothing and is not charged.
    The charge stays this upper bound, not the about 4*q^(n-2)/(q-1)
    values a cone-reduced level-2 sweep evaluates, so that no budget
    refusal changed when the sweep began to visit one block per line.
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


def count_brute(p: MultilinearPoly, q: int) -> CountRecord:
    """Full enumeration of F_q^n; the oracle every faster counter must match."""
    _admit(q, p.var_count, (0,))
    return _count_level(p, q, 0)


def count_projective(rec: CountRecord) -> int:
    """Projective point count from an affine record.

    The affine zero cone minus the origin fibers over the projective
    hypersurface with fibers of size q-1; the record already carries the
    quotient, validated at construction.
    """
    if rec.projective_count is None:
        raise NoProjectiveHypersurfaceError(
            "constant polynomial has no projective hypersurface"
        )
    return rec.projective_count


def _drop_var(p: MultilinearPoly, e: int) -> MultilinearPoly:
    """Remove an unused variable slot, shifting higher indices down."""
    bit = 1 << e
    low = bit - 1
    terms = {}
    for mask, coeff in p.terms.items():
        if mask & bit:
            raise ValueError(f"t{e} occurs in a term")
        terms[(mask & low) | (mask >> 1 & ~low)] = coeff
    return MultilinearPoly(p.var_count - 1, terms)


# Fiber tables. Each maps the vanishing pattern of a base point (True where
# that swept value is 0 mod q) to the zeros in the fiber over it. At level 2
# the swept values are A1, A0, B1, B0 and D = A1*B0 - A0*B1, from A = f*A1 + A0
# and B = f*B1 + B0: where A1 != 0, A vanishes at f = -A0/A1 alone, and B
# there is D/A1.


def _point_zeros(q: int, p: bool) -> int:
    """Level 0: the point itself."""
    return int(p)


def _line_zeros(q: int, a: bool, b: bool) -> int:
    """Level 1: zeros of t_e*A + B on the t_e line."""
    return q if a and b else int(not a)


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


def _sweep_fibers(
    polys: Callable[[], list[MultilinearPoly]],
    q: int,
    fiber: Callable[..., int],
    key=None,
    cone: bool = False,
) -> int:
    """Total of fiber() over the base swept by the polynomials polys()
    builds, with the cross bit D for four (A1, A0, B1, B0); key (canonical
    graph, level, q) names the sweep in the memo, and a hit builds none.
    cone lets the sweep visit one block per line through the origin where
    the swept parts are homogeneous (sweep_zero_patterns)."""
    return sum(
        c * fiber(q, *zeros) for zeros, c in _memoized(key, _zero_patterns, polys, q, cone)
    )


def _zero_patterns(
    polys: Callable[[], list[MultilinearPoly]], q: int, cone: bool
) -> list[tuple[tuple[bool, ...], int]]:
    """The base points of a sweep of polys() by zero-pattern, as (whether
    each swept value is 0 mod q, point count) for each pattern that occurs.
    workers is read here, on the calling thread, as lanes do not see it."""
    swept = polys()
    cross = len(swept) == 4
    counts = sweep_zero_patterns(swept, q, workers=_options().workers, cross=cross, cone=cone)
    bits = len(swept) + cross
    return [(tuple(bool(s >> i & 1) for i in range(bits)), c) for s, c in enumerate(counts) if c]


def _fiber_parts(p: MultilinearPoly, e: int) -> list[MultilinearPoly]:
    """What a fibered count of p at t_e sweeps: with p = t_e*A + B, A and
    B when p has one variable, else [A1, A0, B1, B0], A and B split at f,
    the highest variable other than t_e."""
    n = p.var_count
    a, b = split_last_var(p, e)
    if a.var_count == n:
        a, b = _drop_var(a, e), _drop_var(b, e)
    if n == 1:
        return [a, b]
    return [*split_last_var(a, n - 2), *split_last_var(b, n - 2)]


def _count_level(p: MultilinearPoly, q: int, level: int, e: int = 0, key=None) -> CountRecord:
    """Count p by sweeping the base of its level-`level` fibration.

    Level 0 sweeps p over all of F_q^n. Level 2 writes p = t_e*A + B and
    splits A and B at f, the highest variable other than t_e, then sweeps
    (A1, A0, B1, B0) over F_q^{n-2} with the cross bit. With one variable
    it splits t_e alone (level 1) and sweeps A and B. A constant p (psi
    of a forest) sweeps nothing at a fibered level: it vanishes everywhere
    or nowhere. The caller has admitted the count (_admit).
    """
    n = p.var_count
    if level and p.degree() == 0:
        return CountRecord.from_zeros(p, q, 0 if p.terms.get(0, 0) % q else q**n)
    if level == 0:
        zeros = _sweep_fibers(lambda: [p], q, _point_zeros, key)
    else:
        fiber = _line_zeros if n == 1 else _plane_zeros
        zeros = _sweep_fibers(lambda: _fiber_parts(p, e), q, fiber, key, cone=True)
    return CountRecord.from_zeros(p, q, zeros)


def count_fibered(p: MultilinearPoly, e: int, q: int) -> CountRecord:
    """Count by sweeping the base F_q^{n-2} of the (t_e, f) fibration, f the
    highest variable other than t_e: 4*q^(n-2) polynomial values, or about
    4*q^(n-2)/(q-1) for homogeneous p once the sweep spans several blocks,
    against q^n for brute force. One-variable p is fibered over t_e alone."""
    _admit(q, p.var_count, (2,))
    if p.var_count and not 0 <= e < p.var_count:
        raise ValueError(f"split variable {e} outside 0..{p.var_count - 1}")
    return _count_level(p, q, 2, e)


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
    _common_zeros does not. The budget charges g as a level-1 count.
    Inside shared_counts(), (graph, edge) pairs with isomorphic marked
    reduced blocks share k, and so one psi build and one sweep per prime.

    The count is admitted first (_admit), as in count_brute and
    count_fibered, so a refused modulus or budget is the error whatever
    the label. Then the edge is regular exactly when the reduction homes
    it in a block: a loop or a bridge raises NotRegularEdgeError and a
    label g lacks UnknownLabelError. No pass over g's vertices is made,
    and inside shared_counts() a repeat reads the memoized reduction.
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
    z_block = _sweep_fibers(
        lambda: _fiber_parts(p, k.edge_count - 1), q, _common_zeros, (k, 2, q), cone=True
    )
    return z + y_rest * q**block.merges * z_block


_shared: ContextVar[tuple | None] = ContextVar("graphmotive_shared_counts", default=None)


@contextmanager
def shared_counts(opts: CountOptions | None = None) -> Iterator[None]:
    """Within this block every count takes its method, budget and workers
    from opts (if None, from the enclosing block, or DEFAULT_OPTIONS), and
    each graph is reduced, each psi built and each sweep run once.

    A nested block joins the enclosing memo whatever its options, as no
    entry depends on them: workers changes no count, a sweep's key holds
    its level, and every budget is checked before the memo is read.
    The memo's four kinds of key:
    - ("reduce", g): g's blocks after series reduction (_reduce);
    - ("canonical", h, label): canonical_relabel(h, label), label None
      for the unmarked form; _form chains two of them into a count form;
    - a canonical graph k: psi(k), whose variables are k's labels;
    - (k, level, q): the zero-pattern histogram of k's level-`level` sweep
      at q. A fibered sweep splits k's last label.
    The key fixes the swept polynomials: two requests share a sweep only
    when they would sweep the same thing, and a form that is not canonical
    can cost a memo hit, never a wrong count. So the fibered level sweeps
    each reduced block once per prime, whatever graphs of the run it is
    found in, and a repeated request runs no search. Outside any block
    nothing is memoized.
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
    endpoints of other degree, in the order `edges` meets them. With
    nothing to merge, the graph holds `edges` themselves, in order."""
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
    return Multigraph(vertex_count, tuple(Edge(label, *w) for label, w in ends.items())), into


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
    reduced block's fibered count of psi of its count form (_form),
    split at that form's last label."""
    y = q**reduction.bridges * (q - 1) ** reduction.loops
    for i, block in enumerate(reduction.blocks):
        if i == skip:
            continue
        y *= q**block.merges
        if block.reduced is None:
            y *= q - 1
        else:
            k, p = _form(block.reduced)
            y *= _count_level(p, q, 2, k.edge_count - 1, (k, 2, q)).complement_count
    return y


def _form(g: Multigraph, mark: int | None = None) -> tuple[Multigraph, MultilinearPoly]:
    """(k, psi(k)) for k = canonical_relabel(g, mark), both memoized. With
    no mark, k is the count form of g: canonical_relabel(g) marked at its
    own last label, which a fibered count splits. It depends on g's
    isomorphism class alone, so edge labels cannot change the sweeps.
    Every edge of a reduced block is regular, and brute force needs no
    regular mark, so no edge is classified."""
    if mark is None:
        g = _memoized(("canonical", g, None), canonical_relabel, g)
        mark = g.labels[-1] if g.edges else None
    k = _memoized(("canonical", g, mark), canonical_relabel, g, mark)
    return k, _memoized(k, psi_by_deletion_contraction, k)


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
    against it. No edge is classified, and a repeated request splits no
    block and runs no canonical search.
    """
    check_count_budget(g, q)
    rec, *others = [_count_at(g, q, level) for level in METHODS[_options().method]]
    for rec_f in others:
        if rec != rec_f:
            raise ConsistencyError(f"brute {rec} != fibered {rec_f}")
    return rec
