"""Exact point counts over prime fields for graph hypersurfaces.

Counts |zeros of psi| in F_q^n, the complement, the projective count, and
the two-polynomial Z-locus. The workhorse is a sweep that tallies
zero-patterns of several polynomials over the same grid. It evaluates a
multilinear polynomial on F_q^k one axis at a time: each coefficient pair
(c0, c1) becomes the q values c0 + x*c1, so a block costs about q^k
multiply-adds whatever the term count. The grid is taken in blocks of at
most chunk_points points, the outer coordinates of each block folded into
the coefficients first. Every value is reduced below q after each
multiply-add, so int64 holds it for q < 2^31, and integer accumulation
makes results independent of block size and thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
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
DEFAULT_CHUNK = 1 << 19
MAX_WORKERS = 64  # thread_map opens one pool of this many threads at most
_MAX_Q = 1 << 31  # keep products of two residues inside int64

# The fibration levels each method runs, in order. A level-k count sweeps
# the base F_q^{n-k} left after splitting off k edge variables: level 0 is
# brute force over all of F_q^n, level 1 splits off the last edge variable.
METHODS = {"brute": (0,), "fibered": (1,), "both": (0, 1)}
_LEVEL_NAMES = ("brute count", "fibered count")


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

    method: "brute", "fibered" (split at the last edge variable), or
    "both" (run both, insist on exact agreement). budget caps the
    single-polynomial point evaluations of one count. workers is the sweep
    thread count, 1..MAX_WORKERS; counts are identical for any value.
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


def _folder(p: MultilinearPoly, q: int, k: int) -> Callable[[list[int]], np.ndarray]:
    """fold(y): the 2^k coefficients mod q, index bit i standing for t_i, of
    p with its outer variables t_k, t_k+1, ... fixed to the values y."""
    terms = sorted((mask & ((1 << k) - 1), mask >> k, c % q) for mask, c in p.terms.items())
    terms = [t for t in terms if t[2]]
    inner = np.array([t[0] for t in terms], dtype=np.int64)
    coeffs = np.array([t[2] for t in terms], dtype=np.int64)
    slots, starts = np.unique(inner, return_index=True)
    uses = [np.array([t[1] >> j & 1 for t in terms], dtype=bool) for j in range(p.var_count - k)]

    def fold(y: list[int]) -> np.ndarray:
        vals = coeffs
        for uses_j, y_j in zip(uses, y):
            if y_j != 1:
                vals = np.where(uses_j, vals * y_j % q, vals)
        dense = np.zeros(1 << k, dtype=np.int64)
        dense[slots] = np.add.reduceat(vals, starts) % q
        return dense

    return fold


def _grid_values(coeffs: np.ndarray, k: int, q: int) -> np.ndarray:
    """Values mod q, at every point of F_q^k, of the multilinear polynomial
    with these 2^k coefficients: one axis at a time, lowest bit first, a
    coefficient pair (c0, c1) becomes the q values c0 + x*c1, as a new
    leading axis. Every entry is reduced below q after each axis."""
    v = coeffs
    for _ in range(k):
        pairs = v.reshape(-1, 2)
        v = pairs[:, 1] * np.arange(q, dtype=np.int64)[:, None]
        v += pairs[:, 0]
        np.remainder(v, q, out=v)
    return v.reshape(-1)


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
) -> list[int]:
    """Count grid points of F_q^width by which polynomials vanish there.

    Returns 2^len(polys) integers; index bit i is set when polys[i]
    vanishes. All polynomials must share var_count (the sweep width).
    The grid is taken in blocks of q^k <= chunk_points points: the outer
    width-k coordinates of a block are folded into each polynomial, whose
    k inner axes are then transformed. Blocks are split over `workers`
    threads; results are bit-identical across chunk sizes and worker counts.
    """
    require_prime(q)
    if q >= _MAX_Q:
        raise ValueError(f"modulus {q} too large for 64-bit sweep arithmetic")
    width = polys[0].var_count
    if any(p.var_count != width for p in polys):
        raise ValueError("sweep polynomials must share var_count")
    k = 0
    while k < width and q ** (k + 1) <= chunk_points:
        k += 1
    folds = [_folder(p, q, k) for p in polys]
    blocks = q ** (width - k)
    lanes = min(workers, blocks)

    def lane(first: int) -> np.ndarray:
        hist = np.zeros(1 << len(polys), dtype=np.int64)
        bits = np.min_scalar_type(len(hist) - 1)
        for b in range(first, blocks, lanes):
            y = [b // q**j % q for j in range(width - k)]
            pattern = sum(
                np.left_shift(_grid_values(f(y), k, q) == 0, i, dtype=bits)
                for i, f in enumerate(folds)
            )
            hist += [np.count_nonzero(pattern == s) for s in range(len(hist))]
        return hist

    return [int(c) for c in sum(thread_map(lane, range(lanes), lanes))]


# -- public counters ---------------------------------------------------------


def _check_budget(cost: int, opts: CountOptions, what: str) -> None:
    if cost > opts.budget:
        raise BudgetExceededError(
            f"{what} needs {cost} point evaluations, budget is {opts.budget}"
        )


def _check_sweep_budget(what: str, level: int, q: int, n: int, opts: CountOptions) -> None:
    """Charge a level-`level` sweep of an n-variable count: 2^level
    polynomials over F_q^{n-level}. A level above n sweeps nothing."""
    if level <= n:
        _check_budget(2**level * q ** (n - level), opts, f"{what} over F_{q}^{n - level}")


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


def _count_level(
    p: MultilinearPoly, q: int, opts: CountOptions, level: int, e: int = 0
) -> CountRecord:
    """Count p by sweeping the base of its level-`level` fibration.

    Level 0 sweeps p over all of F_q^n. Level 1 writes p = t_e*A + B and
    sweeps A and B over F_q^{n-1}: the fiber over a base point holds one
    zero when A is non-zero there, q when both vanish and none when only
    A does. A level above n leaves p constant and sweeps nothing.
    """
    require_prime(q)
    n = p.var_count
    if level > n:
        return CountRecord.from_zeros(p, q, 0 if p.terms.get(0, 0) % q else 1)
    if level and not 0 <= e < n:
        raise ValueError(f"split variable {e} outside 0..{n - 1}")
    _check_sweep_budget(_LEVEL_NAMES[level], level, q, n, opts)
    if level == 0:
        polys, fiber_zeros = [p], (0, 1)
    else:
        a, b = split_last_var(p, e)
        if a.var_count == n:
            a, b = _drop_var(a, e), _drop_var(b, e)
        polys, fiber_zeros = [a, b], (1, 0, 1, q)
    counts = sweep_zero_patterns(polys, q, workers=opts.workers)
    zeros = sum(z * c for z, c in zip(fiber_zeros, counts))
    return CountRecord.from_zeros(p, q, zeros)


def count_fibered(
    p: MultilinearPoly, e: int, q: int, *, opts: CountOptions = DEFAULT_OPTIONS
) -> CountRecord:
    """Count by sweeping the base F_q^{n-1} of the t_e-coordinate fibration;
    one q-th of the brute-force work."""
    return _count_level(p, q, opts, 1, e)


def count_Z(
    g: Multigraph, label: int, q: int, *, opts: CountOptions = DEFAULT_OPTIONS
) -> int:
    """Common zeros of the deletion and contraction polynomials in F_q^{n-1}.

    Both minors keep the surviving edge labels, so one dense relabeling
    (shared, since the label sets coincide) pins the n-1 coordinates and
    the two polynomials are swept together, at the cost of a level-1 count.
    """
    require_prime(q)
    if classify_edge(g, label) is not EdgeKind.REGULAR:
        raise NotRegularEdgeError(f"edge {label} is not regular")
    _check_sweep_budget("Z-locus sweep", 1, q, g.edge_count, opts)
    p_del = _dense_psi(delete_edge(g, label))
    p_con = _dense_psi(contract_edge(g, label))
    return sweep_zero_patterns([p_del, p_con], q, workers=opts.workers)[3]


_shared: ContextVar[dict | None] = ContextVar("graphmotive_shared_counts", default=None)


@contextmanager
def shared_counts() -> Iterator[None]:
    """Within this block, count_graph counts each (graph, q, opts) once, and
    count_graph and count_Z build each graph's or minor's psi once.

    Records are keyed by (Multigraph, q, opts) with labels included, and
    polynomials by the densely relabeled Multigraph; both live only until
    the block exits, and outside any block nothing is memoized. Each
    thread has its own context, so enter the block in the thread that
    counts.
    """
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def _dense_psi(g: Multigraph) -> MultilinearPoly:
    """psi of g relabeled to 0..n-1, from the shared_counts() memo if any."""
    dense = relabel_dense(g)
    memo = _shared.get()
    if memo is None:
        return psi_by_deletion_contraction(dense)
    if dense not in memo:
        memo[dense] = psi_by_deletion_contraction(dense)
    return memo[dense]


def count_graph(
    g: Multigraph, q: int, *, opts: CountOptions = DEFAULT_OPTIONS
) -> CountRecord:
    """Counts for a graph's polynomial over A^n, n = edge count, by opts.method.

    The budget is checked before psi is built; inside shared_counts() a
    repeated request returns the stored record.
    """
    memo = _shared.get()
    key = (g, q, opts)
    if memo is not None and key in memo:
        return memo[key]
    check_count_budget(g, q, opts)
    p = _dense_psi(g)
    rec, *others = [
        _count_level(p, q, opts, level, p.var_count - 1) for level in METHODS[opts.method]
    ]
    for rec_f in others:
        if rec != rec_f:
            raise ConsistencyError(f"brute {rec} != fibered {rec_f}")
    if memo is not None:
        memo[key] = rec
    return rec
