"""Exact point counts over prime fields for graph hypersurfaces.

Counts |zeros of psi| in F_q^n, the complement, the projective count, and
the two-polynomial Z-locus. Each count is a fibration: split off edge
variables, sweep the polynomials that describe each fiber over the base
that is left, and add up a fiber table over the sweep's zero-patterns.
Brute force sweeps psi itself over F_q^n. The fibered count writes
psi = t_e*A + B, splits A and B again at a second variable f, and sweeps
the four parts (A1, A0, B1, B0) over F_q^{n-2}; their zero-pattern and
whether D = A1*B0 - A0*B1 vanishes fix the zeros on each (t_e, f) plane.
The Z-locus splits the deletion and contraction polynomials at f the same
way. The sweep evaluates multilinear polynomials on F_q^k one axis at a
time: each coefficient pair (c0, c1) becomes the q values c0 + x*c1, so a
block costs about q^k multiply-adds per polynomial whatever the term
count. The grid is taken in blocks of at most chunk_points polynomial
values, the outer coordinates of each block folded into the coefficients
first. Every value is reduced below q after each multiply-add, so it and
the product of two residues stay below q^2. For q <= 251 (q^4 < 2^32)
residues are uint32 and the reduce step is a division-free Barrett
reduction, exact below q^2; for larger q up to 2^31 they are int64 and the
step is np.remainder. Integer accumulation makes results independent of
block size and thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Sequence

import numpy as np

from .graphs import (
    EdgeKind,
    GraphError,
    Multigraph,
    classify_edge,
    contract_edge,
    delete_edge,
    relabel_dense,
)
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
MAX_WORKERS = 64  # thread_map opens one pool of this many threads at most
_MAX_Q = 1 << 31  # keep products of two residues inside int64

# The fibration levels each method runs, in order. A level-k count sweeps
# the base F_q^{n-k} left after splitting off k edge variables: level 0 is
# brute force over all of F_q^n, level 2 splits off one edge variable (the
# highest regular edge's, in count_graph) and the highest other one.
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


@dataclass(frozen=True)
class CountOptions:
    """How every count is taken; validated once, at construction.

    method: "brute", "fibered" (split at the last two edge variables), or
    "both" (run both, insist on exact agreement). budget caps the
    single-polynomial point evaluations charged to one count (see
    _check_sweep_budget). workers is the sweep thread count,
    1..MAX_WORKERS; counts are identical for any value.
    """

    method: str = "fibered"
    budget: int = DEFAULT_BUDGET
    workers: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers {self.workers} exceeds the limit {MAX_WORKERS}")


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


def thread_map(fn: Callable, items: Sequence, workers: int) -> list:
    """[fn(x) for x in items], in input order; on a pool of `workers`
    threads only when there are more than one of both."""
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def sweep_zero_patterns(
    polys: list[MultilinearPoly],
    q: int,
    *,
    chunk_points: int = DEFAULT_CHUNK,
    workers: int = 1,
    cross: bool = False,
) -> list[int]:
    """Count grid points of F_q^width by which polynomials vanish there.

    Returns 2^len(polys) integers, for 1 to 8 polynomials; index bit i
    is set when polys[i] vanishes. With cross=True there must be exactly four polynomials, and
    one more bit, 4, is set where polys[0]*polys[3] == polys[1]*polys[2]
    mod q, so 32 integers are returned. All polynomials must share
    var_count (the sweep width). The grid is taken in blocks of q^k points
    with len(polys)*q^k <= chunk_points polynomial values: the outer
    width-k coordinates of a block are folded into each polynomial, whose
    k inner axes are then transformed. Blocks are split over `workers`
    threads; results are bit-identical across chunk sizes and worker counts.
    """
    require_prime(q)
    if q >= _MAX_Q:
        raise ValueError(f"modulus {q} too large for 64-bit sweep arithmetic")
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
    dtype, reduce = _residues(q)
    fold = _folder(polys, q, k, dtype)
    blocks = q ** (width - k)
    lanes = min(workers, blocks)
    bins = 1 << (len(polys) + cross)
    shifts = np.arange(len(polys), dtype=np.uint8)[:, None]

    def lane(first: int) -> np.ndarray:
        hist = np.zeros(bins, dtype=np.int64)
        for b in range(first, blocks, lanes):
            v = _grid_values(fold([b // q**j % q for j in range(width - k)]), k, q, reduce)
            bits = (v == 0).view(np.uint8)
            bits <<= shifts
            pattern = np.bitwise_or.reduce(bits, axis=0)
            if cross:  # each product is below q^2
                v[0] *= v[3]
                v[1] *= v[2]
                pattern |= (reduce(v[0]) == reduce(v[1])).view(np.uint8) << 4
            hist += np.bincount(pattern, minlength=bins)
        return hist

    return [int(c) for c in sum(thread_map(lane, range(lanes), lanes))]


# -- public counters ---------------------------------------------------------


def _check_budget(cost: int, opts: CountOptions, what: str) -> None:
    if cost > opts.budget:
        raise BudgetExceededError(
            f"{what} needs {cost} point evaluations, budget is {opts.budget}"
        )


def _check_sweep_budget(what: str, level: int, q: int, n: int, opts: CountOptions) -> None:
    """Charge the sweep of an n-variable count at fibration level `level`.

    Level 0 is charged its exact cost, one polynomial over F_q^n. A fibered
    level is charged as 2 polynomials over F_q^{n-1}: that is the exact
    cost of level 1, and an upper bound for level 2, which sweeps 4
    polynomials over F_q^{n-2} (4*q^(n-2) <= 2*q^(n-1) for q >= 2). A
    fibered count of a constant (n = 0) sweeps nothing and is not charged.
    """
    charged = min(level, 1)
    if charged <= n:
        _check_budget(2**charged * q ** (n - charged), opts, f"{what} over F_{q}^{n - charged}")


def check_count_budget(g: Multigraph, q: int, opts: CountOptions = DEFAULT_OPTIONS) -> None:
    """Raise what count_graph(g, q, opts=opts) would raise before its first
    sweep, without building psi: too many edges for one polynomial, then
    the budget of each level of opts.method in turn."""
    require_prime(q)
    n = g.edge_count
    if n > MAX_VARS:
        raise NonMultilinearError(f"edge labels exceed {MAX_VARS - 1}")
    for level in METHODS[opts.method]:
        _check_sweep_budget(_LEVEL_NAMES[level], level, q, n, opts)


def count_brute(
    p: MultilinearPoly, q: int, *, opts: CountOptions = DEFAULT_OPTIONS
) -> CountRecord:
    """Full enumeration of F_q^n; the oracle every faster counter must match."""
    return _count_level(p, q, opts, 0)


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
    opts: CountOptions,
    fiber: Callable[..., int],
    key=None,
) -> int:
    """Total of fiber() over the base swept by the polynomials polys()
    builds, with the cross bit D for four (A1, A0, B1, B0); key (graph,
    level, edge, q) names the sweep in the memo, and a hit builds none."""
    return sum(c * fiber(q, *zeros) for zeros, c in _memoized(key, _zero_patterns, polys, q, opts))


def _zero_patterns(
    polys: Callable[[], list[MultilinearPoly]], q: int, opts: CountOptions
) -> list[tuple[tuple[bool, ...], int]]:
    """The base points of a sweep of polys() by zero-pattern, as (whether
    each swept value is 0 mod q, point count) for each pattern that occurs."""
    swept = polys()
    cross = len(swept) == 4
    counts = sweep_zero_patterns(swept, q, workers=opts.workers, cross=cross)
    bits = len(swept) + cross
    return [(tuple(bool(s >> i & 1) for i in range(bits)), c) for s, c in enumerate(counts) if c]


def _split_top(a: MultilinearPoly, b: MultilinearPoly) -> list[MultilinearPoly]:
    """[A1, A0, B1, B0]: a and b, of one width w >= 1, split at t_{w-1}."""
    return [*split_last_var(a, a.var_count - 1), *split_last_var(b, b.var_count - 1)]


def _count_level(
    p: MultilinearPoly, q: int, opts: CountOptions, level: int, e: int = 0, key=None
) -> CountRecord:
    """Count p by sweeping the base of its level-`level` fibration.

    Level 0 sweeps p over all of F_q^n. Level 2 writes p = t_e*A + B and
    splits A and B at f, the highest variable other than t_e, then sweeps
    (A1, A0, B1, B0) over F_q^{n-2} with the cross bit. With one variable
    it splits t_e alone (level 1) and sweeps A and B; with none, p is
    constant and nothing is swept.
    """
    require_prime(q)
    n = p.var_count
    if level and n == 0:
        return CountRecord.from_zeros(p, q, 0 if p.terms.get(0, 0) % q else 1)
    if level and not 0 <= e < n:
        raise ValueError(f"split variable {e} outside 0..{n - 1}")
    _check_sweep_budget(_LEVEL_NAMES[level], level, q, n, opts)
    if level == 0:
        zeros = _sweep_fibers(lambda: [p], q, opts, _point_zeros, key)
    else:

        def split() -> list[MultilinearPoly]:
            a, b = split_last_var(p, e)
            if a.var_count == n:
                a, b = _drop_var(a, e), _drop_var(b, e)
            return [a, b] if n == 1 else _split_top(a, b)

        zeros = _sweep_fibers(split, q, opts, _line_zeros if n == 1 else _plane_zeros, key)
    return CountRecord.from_zeros(p, q, zeros)


def count_fibered(
    p: MultilinearPoly, e: int, q: int, *, opts: CountOptions = DEFAULT_OPTIONS
) -> CountRecord:
    """Count by sweeping the base F_q^{n-2} of the (t_e, f) fibration, f the
    highest variable other than t_e: 4*q^(n-2) polynomial values, against
    q^n for brute force. One-variable p is fibered over t_e alone."""
    return _count_level(p, q, opts, 2, e)


def count_Z(
    g: Multigraph, label: int, q: int, *, opts: CountOptions = DEFAULT_OPTIONS
) -> int:
    """Common zeros of the deletion and contraction polynomials in F_q^{n-1}.

    Both minors keep the surviving edge labels, so one dense relabeling
    (shared, since the label sets coincide) pins the n-1 coordinates. Both
    are split at their highest variable f and swept over F_q^{n-2}: g's
    level-2 sweep at label. The budget charges it as a level-1 count.
    """
    require_prime(q)
    if classify_edge(g, label) is not EdgeKind.REGULAR:
        raise NotRegularEdgeError(f"edge {label} is not regular")
    _check_sweep_budget("Z-locus sweep", 2, q, g.edge_count, opts)
    p_del, _ = _fibration(delete_edge(g, label))
    p_con, _ = _fibration(contract_edge(g, label))
    key = (g, 2, sorted(g.labels).index(label), q)
    return _sweep_fibers(lambda: _split_top(p_del, p_con), q, opts, _common_zeros, key)


_shared: ContextVar[dict | None] = ContextVar("graphmotive_shared_counts", default=None)


@contextmanager
def shared_counts() -> Iterator[None]:
    """Within this block each psi is built once and each sweep runs once.

    psi is keyed by the densely relabeled Multigraph, and with its fiber
    edge by the labelled one; a sweep's zero-pattern histogram (the same
    for any workers value) by the labelled graph, level, fibered edge and
    q: equal minors under other labels sweep again, so the sweep count does
    not depend on labels. A nested block joins this one; outside any block
    nothing is memoized. Each thread has its own context, so enter the
    block in the thread that counts.
    """
    token = _shared.set({} if _shared.get() is None else _shared.get())
    try:
        yield
    finally:
        _shared.reset(token)


def _memoized(key, build: Callable, *args):
    """build(*args), or the shared_counts() memo's entry for key."""
    memo = _shared.get()
    if memo is None or key is None:
        return build(*args)
    if (value := memo.get(key)) is None:
        value = memo[key] = build(*args)
    return value


def _fibration(g: Multigraph) -> tuple[MultilinearPoly, int]:
    """psi of g relabeled to 0..n-1, and the variable count_graph fibers it
    at: the highest regular edge's, if any, else the top one. Inside
    shared_counts() the pair is kept under g itself, so a repeated request
    neither relabels nor rescans psi, and psi under the relabeled graph,
    so equal minors under other labels build it once."""
    return _memoized(("fibration", g), _build_fibration, g)


def _build_fibration(g: Multigraph) -> tuple[MultilinearPoly, int]:
    dense = relabel_dense(g)
    p = _memoized(dense, psi_by_deletion_contraction, dense)
    # Edge e is regular exactly when t_e is in some terms of psi but not all.
    regular = reduce(int.__or__, p.terms, 0) & ~reduce(int.__and__, p.terms, -1)
    return p, regular.bit_length() - 1 if regular else p.var_count - 1


def count_graph(
    g: Multigraph, q: int, *, opts: CountOptions = DEFAULT_OPTIONS
) -> CountRecord:
    """Counts for a graph's polynomial over A^n, n = edge count, by opts.method.

    The budget is checked before psi is built. The fibered count splits at
    the highest regular edge, if any: inside shared_counts(), count_Z at
    that edge and a repeated request read its sweep instead of sweeping,
    and a repeated request splits no polynomial.
    """
    check_count_budget(g, q, opts)
    p, e = _fibration(g)
    rec, *others = [
        _count_level(p, q, opts, level, e, (g, level, e, q)) for level in METHODS[opts.method]
    ]
    for rec_f in others:
        if rec != rec_f:
            raise ConsistencyError(f"brute {rec} != fibered {rec_f}")
    return rec
