"""Exact point counts over prime fields for graph hypersurfaces.

Counts |zeros of psi| in F_q^n, the complement, the projective count, and
the two-polynomial Z-locus. The workhorse is a chunked vectorized sweep that
tallies zero-patterns of several polynomials over the same grid; integer
accumulation makes results independent of chunking and thread count.
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
_MAX_Q = 1 << 31  # keep products of two residues inside int64
_SAFE_LIMIT = 1 << 62

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
    thread count; counts are identical for any value.
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


def _prepared_terms(p: MultilinearPoly, q: int) -> list[tuple[int, tuple[int, ...]]]:
    out = []
    for mask in sorted(p.terms):
        coeff = p.terms[mask] % q
        if coeff:
            out.append((coeff, tuple(i for i in range(p.var_count) if mask >> i & 1)))
    return out


def _chunk_patterns(
    polys_terms: list[list[tuple[int, tuple[int, ...]]]],
    width: int,
    q: int,
    start: int,
    stop: int,
) -> np.ndarray:
    """Zero-pattern histogram for grid points start..stop-1 (mixed-radix)."""
    idx = np.arange(start, stop, dtype=np.int64)
    coords = []
    scale = 1
    for _ in range(width):
        coords.append(idx // scale % q)
        scale *= q
    pattern = np.zeros(stop - start, dtype=np.int64)
    mul_limit = _SAFE_LIMIT // q
    for bit_index, terms in enumerate(polys_terms):
        total = np.zeros(stop - start, dtype=np.int64)
        total_bound = 0
        for coeff, variables in terms:
            acc = None
            bound = coeff
            for j in variables:
                if acc is None:
                    acc = coords[j] if coeff == 1 else coeff * coords[j]
                else:
                    if bound > mul_limit:
                        acc = acc % q
                        bound = q - 1
                    acc = acc * coords[j]
                bound *= q - 1
            if acc is None:
                acc = np.full(stop - start, coeff, dtype=np.int64)
                bound = coeff
            if total_bound + bound >= _SAFE_LIMIT:
                total = total % q
                total_bound = q - 1
            total = total + acc
            total_bound += bound
        pattern |= (total % q == 0).astype(np.int64) << bit_index
    return np.bincount(pattern, minlength=1 << len(polys_terms))


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
    Results are bit-identical across chunk sizes and worker counts.
    """
    require_prime(q)
    if q >= _MAX_Q:
        raise ValueError(f"modulus {q} too large for 64-bit sweep arithmetic")
    width = polys[0].var_count
    if any(p.var_count != width for p in polys):
        raise ValueError("sweep polynomials must share var_count")
    total_points = q**width
    prepared = [_prepared_terms(p, q) for p in polys]
    counts = [0] * (1 << len(polys))
    hists = thread_map(
        lambda s: _chunk_patterns(prepared, width, q, s, min(s + chunk_points, total_points)),
        range(0, total_points, chunk_points),
        workers,
    )
    for hist in hists:
        for i, c in enumerate(hist):
            counts[i] += int(c)
    return counts


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
    p_del = psi_by_deletion_contraction(relabel_dense(delete_edge(g, label)))
    p_con = psi_by_deletion_contraction(relabel_dense(contract_edge(g, label)))
    return sweep_zero_patterns([p_del, p_con], q, workers=opts.workers)[3]


_shared: ContextVar[dict | None] = ContextVar("graphmotive_shared_counts", default=None)


@contextmanager
def shared_counts() -> Iterator[None]:
    """Within this block, count_graph counts each (graph, q, opts) once.

    Records are keyed by the Multigraph itself, labels included, and live
    only until the block exits; outside any block nothing is memoized.
    Each thread has its own context, so enter the block in the thread
    that counts.
    """
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


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
    p = psi_by_deletion_contraction(relabel_dense(g))
    rec, *others = [
        _count_level(p, q, opts, level, p.var_count - 1) for level in METHODS[opts.method]
    ]
    for rec_f in others:
        if rec != rec_f:
            raise ConsistencyError(f"brute {rec} != fibered {rec_f}")
    if memo is not None:
        memo[key] = rec
    return rec
