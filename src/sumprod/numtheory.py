"""Exact integer number-theory kernel.

Sieves, multiplicative-function tables, the Mobius function, Ramanujan
sums via the Kluyver divisor identity, continued-fraction convergents,
best rational approximation, and compensated harmonic / Mertens sums.
Everything here is deterministic and uses exact integer arithmetic where
the result is an integer; floating sums go through math.fsum, which is
exact up to the final rounding and independent of summation blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError, RangeError

SIEVE_LIMIT_BUDGET = 50_000_000
_WALK_BLOCK = 2 ** 14  # grid points per block of grid_convergents


@dataclass
class PrimeTable:
    """Primality bitmap over [0, limit]; flags[n] is True iff n is prime."""

    limit: int
    flags: np.ndarray

    def primes_array(self, lo: int = 2, hi: int | None = None) -> np.ndarray:
        """Primes in [lo, hi) as an int64 array; RangeError past the table."""
        if hi is None:
            hi = self.limit + 1
        if hi > self.limit + 1:
            raise RangeError(f"hi={hi} exceeds table limit {self.limit}")
        lo = max(lo, 0)
        return np.flatnonzero(self.flags[lo:hi]).astype(np.int64) + lo


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to and including limit."""
    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    if limit > SIEVE_LIMIT_BUDGET:
        raise CapacityError(
            f"sieve limit {limit} exceeds budget {SIEVE_LIMIT_BUDGET}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return PrimeTable(limit=limit, flags=flags)


def mertens_sum(primes) -> float:
    """Compensated sum of 1/p over the given primes, left to right."""
    primes = list(primes)
    for p in primes:
        n = int(p)
        if n < 2 or factorize(n) != [(n, 1)]:
            raise DomainError(f"{p} is not prime")
    return math.fsum(1.0 / p for p in primes)


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of n >= 1 as (prime, exponent) pairs."""
    if n < 1:
        raise DomainError("factorize needs n >= 1")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    """mu(n) for n >= 1, read off the factorization."""
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def ramanujan_sum(q: int, n: int) -> int:
    """c_q(n) = sum over d | gcd(n, q) of d * mu(q/d), exact integer."""
    if q < 1:
        raise DomainError("ramanujan_sum needs q >= 1")
    return sum(d * mobius(q // d) for d in divisors(math.gcd(n, q)))


def convergent_denominators(a: int, b: int,
                            qmax: int | None = None) -> list[int]:
    """Continued-fraction convergent denominators q_0 = 1, q_1, ... of a/b.

    Exact integer arithmetic for a >= 0, b >= 1; the list ends with the
    reduced denominator of a/b, or before the first q > qmax.  For
    0 <= a < b the minimum of ||q a/b|| over q <= qmax is attained at
    one of these q.
    """
    out = []
    qm2, qm1 = 1, 0  # q_{-2}, q_{-1}
    while b:
        qi = (a // b) * qm1 + qm2
        if qmax is not None and qi > qmax:
            break
        out.append(qi)
        qm2, qm1 = qm1, qi
        a, b = b, a % b
    return out


def grid_convergents(js: np.ndarray, M: int, qmax: int | None = None, *,
                     key_scale: float | None = None):
    """convergent_denominators(j, M, qmax) for every j of an int64 array.

    The same recurrence, run elementwise over the grid rationals j/M
    with 0 <= j < M, one block of _WALK_BLOCK points at a time so that a
    block's working arrays stay in cache.  Each step advances only the
    live elements of the block and yields (idx, q, dist): their
    positions in js, their next convergent denominator q, and
    ||q j/M|| * M = min(q j mod M, M - q j mod M).  That distance is
    min(j, M - j) at q_0 = 1 and, after it, the remainder of the same
    Euclidean step (q_k j - p_k M = +-r_k with r_k < M/2), so it costs
    one divmod and no product; it never rises along the walk, and falls
    strictly after the first step.  An element retires after the
    reduced denominator of j/M or before its first q > qmax; a qmax
    above M is clamped to M (every q is at most M) before it meets
    int64.  With key_scale, an element also retires after its first
    convergent with q >= dist / M * key_scale: q never falls and dist
    never rises, so no later convergent lowers
    max(q, dist / M * key_scale).
    """
    js = np.asarray(js, dtype=np.int64)
    cap = M if qmax is None else min(qmax, M)
    if cap < 1:  # q_0 = 1 is already past the cap
        return
    for lo in range(0, js.size, _WALK_BLOCK):
        j = js[lo: lo + _WALK_BLOCK]
        idx = np.arange(lo, lo + j.size)
        a, b = np.full_like(j, M), j  # the Euclidean pair after q_0
        qm2, qm1 = np.zeros_like(j), np.ones_like(j)  # q_{-1}, q_0
        dist = np.minimum(j, M - j)
        while True:
            yield idx, qm1, dist
            live = b != 0
            if key_scale is not None:
                live &= qm1 < dist / M * key_scale
            if not live.all():
                idx, a, b, qm2, qm1 = (x[live]
                                       for x in (idx, a, b, qm2, qm1))
                if not idx.size:
                    break
            quot, dist = np.divmod(a, b)
            q = quot * qm1 + qm2
            if q.max() > cap:  # q never decreases along the walk: retire
                keep = q <= cap
                idx, b, dist, qm1, q = (x[keep]
                                        for x in (idx, b, dist, qm1, q))
                if not idx.size:
                    break
            a, b, qm2, qm1 = b, dist, qm1, q


@dataclass(frozen=True)
class RationalApprox:
    """Best rational approximation record: q minimizes ||q*theta|| mod 1."""

    q: int
    a: int
    err: float


def _dist_to_int(x: float) -> float:
    return abs(x - round(x))


def best_rational_approx(theta: float, qmax: int) -> RationalApprox:
    """q <= qmax minimizing ||q*theta||_{R/Z}; ties broken by smallest q.

    The minimizer of ||q*theta|| over a denominator cap is always a
    continued-fraction convergent, so only the convergents of the exact
    binary rational theta mod 1 are compared, for every qmax.
    """
    if qmax < 1:
        raise DomainError("qmax must be >= 1")
    theta = theta % 1.0
    frac_theta = Fraction(theta)
    best_q, best_err = 1, _dist_to_int(theta)
    for q in convergent_denominators(frac_theta.numerator,
                                     frac_theta.denominator, qmax):
        e = _dist_to_int(q * theta)
        if e < best_err:
            best_q, best_err = q, e
    return RationalApprox(q=best_q, a=round(best_q * theta), err=best_err)


@lru_cache(maxsize=4096)
def _harmonic_int(m: int) -> float:
    return math.fsum(1.0 / n for n in range(1, m + 1))


def harmonic(m: float) -> float:
    """H_m = sum of 1/n for n <= m, compensated; m may be a real >= 1."""
    if m < 1:
        raise DomainError("harmonic needs m >= 1")
    return _harmonic_int(int(math.floor(m)))


@dataclass
class MultiplicativeTables:
    """mu, phi and von Mangoldt Lambda tabulated on [0, limit]."""

    limit: int
    mobius: np.ndarray
    phi: np.ndarray
    vonmangoldt: np.ndarray

    @classmethod
    def build(cls, limit: int) -> "MultiplicativeTables":
        table = sieve_primes(limit)  # checks limit >= 2 and the budget
        primes = table.primes_array()

        mob = np.ones(limit + 1, dtype=np.int64)
        phi = np.arange(limit + 1, dtype=np.int64)
        lam = np.zeros(limit + 1, dtype=np.float64)
        for p in primes.tolist():
            mob[p::p] *= -1
            sq = p * p
            if sq <= limit:
                mob[sq::sq] = 0
            phi[p::p] -= phi[p::p] // p
            logp = math.log(p)
            pk = p
            while pk <= limit:
                lam[pk] = logp
                pk *= p
        mob[0] = 0
        return cls(limit=limit, mobius=mob, phi=phi, vonmangoldt=lam)
