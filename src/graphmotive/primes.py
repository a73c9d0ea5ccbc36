"""Deterministic primality testing for the small moduli used throughout."""

from __future__ import annotations

from typing import Sequence

# Miller-Rabin with the first 13 primes as witnesses is exact below psi_13,
# the least composite that passes them all (Sorenson and Webster); the
# first 12 alone pass psi_12 = 318665857834031151167461 = 399165290221 *
# 798330580441. is_prime refuses moduli from PSI_13 up.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981
MAX_MODULUS = 1 << 31  # a sweep keeps products of two residues inside int64


class NotPrimeError(ValueError):
    pass


def require_prime(q: int) -> int:
    """q, if it is a prime below MAX_MODULUS: the rule every modulus meets."""
    if not is_prime(q):
        raise NotPrimeError(f"modulus {q} is not prime")
    if q >= MAX_MODULUS:
        raise ValueError(f"modulus {q} too large for 64-bit sweep arithmetic")
    return q


def require_primes(primes: Sequence[int]) -> tuple[int, ...]:
    """The primes as a tuple in the given order; non-empty and distinct."""
    out = tuple(primes)
    if not out:
        raise ValueError("prime list is empty")
    if len(set(out)) != len(out):
        raise ValueError("primes must be distinct")
    for q in out:
        require_prime(q)
    return out


def is_prime(n: int) -> bool:
    """Exact below PSI_13; raises ValueError from PSI_13 up, where a
    composite may pass the witnesses."""
    if n >= PSI_13:
        raise ValueError(f"modulus {n} is not below {PSI_13}, the bound for exact primality")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes >= 3, ascending."""
    out = []
    n = 3
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return tuple(out)
