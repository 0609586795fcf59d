"""Logarithmic and uniform averaging operators plus defect measurement.

The central objects are 1-bounded complex functions sampled on an integer
window.  Each lemma-style operation returns a DefectRecord holding the
measured left-hand side, the explicit error envelope it is compared
against, and their ratio.  Out-of-window evaluations contribute 0 and are
counted, never silent: truncation of a function that morally lives on all
of N must be observable in the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError
from .numtheory import harmonic, mertens_sum


# The exact kernel of cfsum.  frexp writes a finite double as m * 2^e with
# e in [-1073, 1024]; below _EXACT_TOP = 2^997 it is e <= 997, so bin
# e + _EXP_OFFSET lies in [0, _BINS).  Each m * 2^53 is an integer below
# 2^53, split into a 27-bit high and a 26-bit low half, so a bin sums at
# most _EXACT_MAX * 2^27 = 2^53 in magnitude and every float add is exact.
# That bound also keeps the sum of |x| below 2^1023, where math.fsum
# cannot overflow either.  Below _EXACT_MIN values the fixed cost of the
# kernel loses to math.fsum.  It works through _CHUNK doubles at a time
# (an even count, so real and imaginary parts keep their parity), which
# keeps its temporaries in cache.  random_disc and the bound check of
# SampledFunction work through _CHUNK values at a time for the same reason.
_EXP_OFFSET = 1073
_BINS = _EXP_OFFSET + 998
_EXACT_TOP = 2.0 ** 997
_EXACT_MIN = 1024
_EXACT_MAX = 2 ** 26
_CHUNK = 2 ** 16
# Outputs per block of _progression_sum.  At N = 10^5, q = 3 and H = 120
# the sum took 9-11 ms in blocks of 4k-16k outputs, 27 ms in blocks of
# _CHUNK and 32 ms in whole-array passes: the accumulator block must stay
# in cache while every progression is added to it.
_PROG_BLOCK = 2 ** 13
_UNIT = 2 ** (_EXP_OFFSET + 53)   # bin b holds integers times 2^b / _UNIT


def _exact_totals(arr: np.ndarray) -> list | None:
    """Exact sums of arr's real (and imaginary) part, in units of 1/_UNIT.

    None when arr is not float64 or complex128, has fewer than
    _EXACT_MIN or more than _EXACT_MAX values, or holds a value that is
    not finite or not below _EXACT_TOP in magnitude.
    """
    cplx = arr.dtype == np.complex128
    if not (cplx or arr.dtype == np.float64) or \
            not _EXACT_MIN <= arr.size <= _EXACT_MAX:
        return None
    x = np.ascontiguousarray(arr).reshape(-1).view(np.float64)
    nparts = 2 if cplx else 1
    his = np.zeros(nparts * _BINS)
    los = np.zeros(nparts * _BINS)
    for start in range(0, x.size, _CHUNK):
        chunk = x[start:start + _CHUNK]
        # a nan makes min and max nan, which fails both tests
        if not (-_EXACT_TOP < chunk.min() and chunk.max() < _EXACT_TOP):
            return None
        idx = np.empty(chunk.shape, dtype=np.intp)
        m, _ = np.frexp(chunk, out=(None, idx))
        m *= 2.0 ** 27
        hi = np.trunc(m)     # the high half; m keeps the low half / 2^26
        m -= hi
        idx += _EXP_OFFSET
        if cplx:
            idx[1::2] += _BINS   # imaginary parts get their own bins
        his += np.bincount(idx, hi, his.size)
        los += np.bincount(idx, m, los.size)
    los *= 2.0 ** 26
    totals = []
    for h, lo in zip(his.reshape(nparts, _BINS), los.reshape(nparts, _BINS)):
        b = np.flatnonzero((h != 0) | (lo != 0))
        total = 0
        for k, hb, lb in zip(b.tolist(), h[b].tolist(), lo[b].tolist()):
            total += ((int(hb) << 26) + int(lb)) << k
        totals.append(total)
    return totals


def cfsum(values: np.ndarray) -> complex:
    """Exactly rounded complex sum, equal to math.fsum on each part.

    From _EXACT_MIN values up, each part is summed exactly in
    per-exponent integer bins (np.bincount) and the Python int total is
    divided by a power of two, which rounds correctly; a correctly
    rounded sum is unique, so the bits are math.fsum's.  math.fsum
    itself sums small inputs, other dtypes, inputs with an inf, a nan or
    a value of magnitude 2^997 or more, more than 2^26 values, and any
    part whose exact total is 0 (fsum's rule picks the zero's sign).
    """
    arr = np.asarray(values)
    parts = [arr.real, arr.imag] if np.iscomplexobj(arr) else [arr]
    totals = _exact_totals(arr) or [0] * len(parts)
    sums = [t / _UNIT if t else math.fsum(p.tolist())
            for t, p in zip(totals, parts)]
    return complex(sums[0], sums[1] if len(sums) > 1 else 0.0)


def e_of(x) -> np.ndarray:
    """e(x) = exp(2*pi*i*x), computed in place in one complex array."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, np.complex128)
    np.multiply(x, 2j * np.pi, out=out)
    return np.exp(out, out=out)


BOUND_SLACK = 1e-12


def _window_size(lo: int, hi: int) -> int:
    """Number of integers in [lo, hi]; DomainError when it is empty."""
    if hi < lo:
        raise DomainError("empty sample window")
    return hi - lo + 1


@dataclass
class SampledFunction:
    """Complex 1-bounded-style function on the integer window [lo, hi].

    Evaluation outside the window returns 0 and increments oob_events.
    """

    lo: int
    hi: int
    values: np.ndarray
    bound: float = 1.0
    oob_events: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if len(self.values) != _window_size(self.lo, self.hi):
            raise DomainError("values length does not match [lo, hi]")
        if self.bound < 0:
            raise DomainError("bound must be nonnegative")
        # block by block, so no |values| array is built; "not <=" makes
        # a nan or an inf fail, and the first failing block is reported
        for s in range(0, len(self.values), _CHUNK):
            amax = float(np.max(np.abs(self.values[s:s + _CHUNK])))
            if not amax <= self.bound + BOUND_SLACK:
                raise DomainError(
                    f"values exceed declared bound: {amax} > {self.bound}")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: complex, lo: int, hi: int) -> "SampledFunction":
        vals = np.full(_window_size(lo, hi), value, dtype=np.complex128)
        return cls(lo, hi, vals, bound=max(1.0, abs(value)))

    @classmethod
    def from_phase(cls, alpha: float, lo: int, hi: int) -> "SampledFunction":
        """e(alpha * n) on [lo, hi]."""
        n = np.arange(lo, hi + 1, dtype=np.float64)
        return cls(lo, hi, e_of(alpha * n), bound=1.0)

    @classmethod
    def from_callable(cls, fn, lo: int, hi: int):
        vals = np.array([fn(n) for n in range(lo, hi + 1)],
                        dtype=np.complex128)
        return cls(lo, hi, vals, bound=1.0)

    @classmethod
    def random_disc(cls, rng: np.random.Generator, lo: int, hi: int):
        """Independent values uniform on the closed complex unit disc.

        Rejection from the square: the values are x + iy for the first
        size pairs (x, y) = (2u - 1, 2u' - 1) of the generator's doubles
        with x*x + y*y <= 1, taken in stream order, and the generator is
        left just past the last accepted pair.  Each round draws as many
        pairs as values are still missing (at most _CHUNK) into the one
        complex array's unfilled slots, maps them in place and moves the
        accepted pairs to the front.  No round draws a pair it does not
        need, so the values do not depend on _CHUNK, and a shorter
        window is a prefix of a longer one.
        """
        size = _window_size(lo, hi)
        vals = np.empty(size, dtype=np.complex128)
        filled = 0
        while filled < size:
            z = vals[filled:filled + min(_CHUNK, size - filled)]
            pairs = z.view(np.float64)
            rng.random(out=pairs)
            pairs *= 2.0
            pairs -= 1.0
            r2 = z.real * z.real
            r2 += z.imag * z.imag
            at = np.flatnonzero(r2 <= 1.0)
            del r2   # freed before the gather, which would add to the peak
            vals[filled:filled + len(at)] = z[at]   # z[at] is a copy
            filled += len(at)
        return cls(lo, hi, vals, bound=1.0)

    @classmethod
    def random_nonneg(cls, rng: np.random.Generator, lo: int, hi: int):
        """Independent values uniform on [0, 1] (real, nonnegative)."""
        vals = rng.random(_window_size(lo, hi)).astype(np.complex128)
        return cls(lo, hi, vals, bound=1.0)

    # -- evaluation ---------------------------------------------------

    def covers(self, lo: int, hi: int) -> bool:
        return self.lo <= lo and hi <= self.hi

    def slice(self, lo: int, hi: int, what: str = "operation",
              name: str = "f") -> np.ndarray:
        """Values on [lo, hi]; outside the window, a RangeError naming
        what, the operation, and name, the function it reads."""
        if not self.covers(lo, hi):
            raise RangeError(
                f"{what} needs {name} on [{lo}, {hi}] but window is "
                f"[{self.lo}, {self.hi}]")
        return self.values[lo - self.lo: hi - self.lo + 1]

    def at(self, idx) -> np.ndarray:
        """Values at arbitrary integer indices; 0 outside, counted."""
        idx = np.asarray(idx, dtype=np.int64)
        inside = (idx >= self.lo) & (idx <= self.hi)
        n_out = int(idx.size - np.count_nonzero(inside))
        if n_out:
            self.oob_events += n_out
        out = np.zeros(idx.shape, dtype=np.complex128)
        pos = idx[inside] - self.lo
        out[inside] = self.values[pos]
        return out

    def progression(self, start: int, step: int, count: int) -> np.ndarray:
        """Values at start + k*step for k < count.

        Inside the window this is a strided view, not a copy; otherwise
        it is at() on the indices, so out-of-window reads are 0, counted.
        """
        last = start + (count - 1) * step
        if step >= 1 and count > 0 and self.covers(start, last):
            return self.values[start - self.lo:last - self.lo + 1:step]
        return self.at(start + step * np.arange(count, dtype=np.int64))


def difference(f: SampledFunction, h: int, hp: int) -> SampledFunction:
    """The difference operator n -> f(n + h) * conj(f(n + hp)).

    Defined on the largest window where both shifts stay inside f.
    """
    lo = f.lo - min(h, hp)
    hi = f.hi - max(h, hp)
    if hi < lo:
        raise RangeError("window too small for the requested shifts")
    vals = f.slice(lo + h, hi + h) * np.conj(f.slice(lo + hp, hi + hp))
    return SampledFunction(lo, hi, vals, bound=f.bound * f.bound)


@dataclass
class DefectRecord:
    """Measured lemma defect: lhs against an explicit error envelope."""

    name: str
    lhs: float
    bound: float
    ratio: float = field(init=False)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lhs < 0:
            raise DomainError("lhs must be nonnegative")
        if self.bound > 0:
            self.ratio = self.lhs / self.bound
        else:
            self.ratio = 0.0 if self.lhs <= 0 else math.inf

    def csv_row(self, n: int | str = "") -> list:
        parts = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return [self.name, n, parts, repr(self.lhs), repr(self.bound),
                repr(self.ratio)]


# -- averages ----------------------------------------------------------


def _log_weights(N: int) -> np.ndarray:
    return 1.0 / np.arange(1, N + 1, dtype=np.float64)


def log_avg(f: SampledFunction, N: int) -> complex:
    """E^log over [N]: (sum f(n)/n) / H_N."""
    if N < 1:
        raise DomainError("N must be >= 1")
    return _avg_of_values(f.slice(1, N, "log_avg"), N, "log")


def uniform_avg(f: SampledFunction, N: int) -> complex:
    """Plain average over [N]."""
    if N < 1:
        raise DomainError("N must be >= 1")
    return _avg_of_values(f.slice(1, N, "uniform_avg"), N, "uniform")


def _avg_of_values(vals: np.ndarray, N: int, mode: str) -> complex:
    """Mean of vals[n - 1] over n in [N]: E^log (mode "log") or uniform.

    The one place a mean is taken; a real vals gives a zero imaginary part.
    """
    if mode == "log":
        return cfsum(vals * _log_weights(N)) / harmonic(N)
    if mode != "uniform":
        raise DomainError(f"unknown mode {mode!r}")
    return cfsum(vals) / N


# -- defect operations ------------------------------------------------


def _progression_sum(f: SampledFunction, starts, step: int,
                     N: int) -> np.ndarray:
    """The sum over start in starts of f.progression(start, step, N).

    It is taken _PROG_BLOCK outputs at a time.  Each output sees the
    same adds in the same order as the whole-array loop, and each block
    counts its own out-of-window reads, so the sum and f.oob_events match
    that loop's.
    """
    acc = np.zeros(N, dtype=np.complex128)
    for s in range(0, N, _PROG_BLOCK):
        blk = acc[s:s + _PROG_BLOCK]
        for start in starts:
            blk += f.progression(start + s * step, step, len(blk))
    return acc


def shift_defect(f: SampledFunction, N: int, h: int,
                 mode: str = "log") -> DefectRecord:
    """Shift-invariance defect of the average against its envelope."""
    if abs(h) >= N:
        raise DomainError("need |h| < N")
    if mode == "log" and h == 0:
        raise DomainError("log-mode shift requires h != 0")
    oob0 = f.oob_events
    base = _avg_of_values(f.progression(1, 1, N), N, mode)
    shifted = _avg_of_values(f.progression(1 + h, 1, N), N, mode)
    lhs = abs(base - shifted)
    if mode == "log":
        bound = (1.0 + math.log(abs(h))) / math.log(N)
    else:
        bound = abs(h) / N
    return DefectRecord("shift", lhs, bound, params={
        "mode": mode, "h": h, "N": N, "oob": f.oob_events - oob0})


def residue_split_defect(f: SampledFunction, N: int, q: int) -> DefectRecord:
    """Residue-class splitting defect of the logarithmic average."""
    if q < 1:
        raise DomainError("q must be >= 1")
    oob0 = f.oob_events
    acc = _progression_sum(f, [q + a for a in range(q)], q, N)
    split = _avg_of_values(acc / q, N, "log")
    lhs = abs(split - _avg_of_values(f.progression(1, 1, N), N, "log"))
    bound = (1.0 + math.log(q)) / math.log(N)
    return DefectRecord("residue-split", lhs, bound, params={
        "q": q, "N": N, "oob": f.oob_events - oob0})


def frobenius_defect(f: SampledFunction, N: int, q: int, b: int,
                     H: int) -> DefectRecord:
    """Coin-problem progression defect: qn + bh averages vs the average."""
    if q < 1 or b < 1 or H < 1:
        raise DomainError("q, b, H must be positive")
    if math.gcd(q, b) != 1:
        raise DomainError("q and b must be coprime")
    oob0 = f.oob_events
    acc = _progression_sum(f, [q + b * h for h in range(1, H + 1)], q, N)
    lhs = abs(_avg_of_values(acc / H, N, "log")
              - _avg_of_values(f.progression(1, 1, N), N, "log"))
    bound = (1.0 + math.log(q) + math.log(b * H)) / math.log(N) + q / H
    return DefectRecord("frobenius", lhs, bound, params={
        "q": q, "b": b, "H": H, "N": N, "oob": f.oob_events - oob0})


def dilate_defect(f: SampledFunction, N: int, q: int) -> DefectRecord:
    """Dilation defect: E^log(f(n) - q*1_{q|n} f(n/q)).

    The dilated part telescopes to the harmonic tail, so the lhs is
    |sum_{n<=N} f(n)/n - sum_{m<=N/q} f(m)/m| / H_N.
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    terms = f.slice(1, N, "dilate_defect") * _log_weights(N)
    m = N // q
    lhs = abs(cfsum(terms) - cfsum(terms[:m])) / harmonic(N)
    bound = (math.log(q) if q > 1 else 1.0) / math.log(N)
    return DefectRecord("dilate", lhs, bound, params={"q": q, "N": N})


def elliott_defect(f: SampledFunction, N: int, primes) -> DefectRecord:
    """Logarithmic Elliott defect over a prime set with largest P <= N."""
    primes = sorted(int(p) for p in primes)
    if not primes:
        raise DomainError("prime set must be nonempty")
    if primes[-1] > N:
        raise DomainError("need all primes <= N")
    sum_invp = mertens_sum(primes)
    P = primes[-1]
    oob0 = f.oob_events
    per_prime = [_avg_of_values(f.progression(p, p, N), N, "log")
                 for p in primes]
    dilated = sum(a * (1.0 / p) for a, p in zip(per_prime, primes)) / sum_invp
    lhs = abs(_avg_of_values(f.progression(1, 1, N), N, "log") - dilated)
    bound = math.log(P) / math.log(N) + sum_invp ** -0.5
    return DefectRecord("elliott", lhs, bound, params={
        "P": P, "N": N, "nprimes": len(primes), "sum_invp": sum_invp,
        "oob": f.oob_events - oob0})
