"""Exponential-sum spectrum scans and diophantine verification.

A set S of integers is (L, L', D)-diophantine when every theta whose
exponential-sum average over S has modulus >= delta admits a denominator
q <= (L'/delta)^L with ||q theta|| <= (L'/delta)^L / D.  dioph_verify
turns this continuum statement into a finite scan over a rational grid
j/M: the spectrum on such a grid is the DFT of the indicator of S mod M
(exact, since e(js/M) only depends on s mod M).  It is taken from the
window the residues fill, diam + 1 points, in blocks (_grid_peaks), so
memory follows the signal, not the grid; only the points that reach the
lowest checked level are kept.

Levels whose conclusion threshold (L'/delta)^L / D reaches 1/2 are
vacuous: any theta passes with q = 1 because ||q theta|| <= 1/2 always.
Only non-vacuous levels constrain the grid resolution; a scan whose grid
is coarser than the certified requirement is still run and reported, but
flagged certified=False.

Also here: the rational-approximation counting lemma verifier
(vino_verify), the pairwise-coprimality statistic gamma, von Mangoldt
polynomial-phase sums with their structure scan, and the hypothesis /
conclusion statistics of the concatenation lemma.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .averages import SampledFunction, _avg_of_values, cfsum, e_of
from .errors import CapacityError, DomainError, RangeError
from .numtheory import (MultiplicativeTables, PrimeTable, _dist_to_int,
                        convergent_denominators, divisors_phi,
                        grid_convergents)
from .projections import NormParams, u1log_norm

# bounds the memory of a full-grid DFT (a window as wide as the grid);
# a narrower window's block DFTs hold O(window) whatever M is
GRID_POINT_BUDGET = 2 ** 26
ROW_SAMPLE_CAP = 512
_ROW_CHUNK = 2 ** 14  # rows built per tolist() batch when iterating
_BLOCK_BATCH = 2 ** 16  # points per batch of block DFT rows (_grid_peaks)


def _float_pow(base: float, exponent: float, what: str) -> float:
    """base ** exponent, or a DomainError saying what is not a finite float."""
    try:
        power = base ** exponent
    except OverflowError:
        power = math.inf
    if not math.isfinite(power):
        raise DomainError(f"{what} is not a finite float")
    return power


@dataclass(frozen=True)
class DiophParams:
    L: float
    Lp: float
    D: float

    def __post_init__(self):
        if not (self.L >= 1 and self.Lp >= 1 and self.D > 0):
            raise DomainError("need L, L' >= 1 and D > 0")

    def q_cap(self, delta: float) -> int:
        return int(math.ceil(self._bound(delta)))

    def err_threshold(self, delta: float) -> float:
        return self._bound(delta) / self.D

    def _bound(self, delta: float) -> float:
        return _float_pow(self.Lp / delta, self.L,
                          f"(L'/delta)^L at L = {self.L!r}, delta = {delta!r}")

    def vacuous(self, delta: float) -> bool:
        return self.err_threshold(delta) >= 0.5


@dataclass
class AlmostPrimeFamily:
    """Products of one prime per disjoint interval, each raised to power j."""

    intervals: list
    j: int
    prime_lists: list = field(default_factory=list)
    elements: np.ndarray = None

    @classmethod
    def build(cls, intervals, j: int, table: PrimeTable) -> "AlmostPrimeFamily":
        if j < 1:
            raise DomainError("power j must be >= 1")
        ivs = [(int(a), int(b)) for a, b in intervals]
        for (a, b) in ivs:
            if not (2 <= a < b):
                raise DomainError(f"bad interval [{a}, {b})")
        for (a0, b0), (a1, _) in zip(ivs, ivs[1:]):
            if b0 > a1:
                raise DomainError("intervals must be disjoint and ascending")
        lists = []
        for (a, b) in ivs:
            ps = table.primes_array(a, b)
            if len(ps) == 0:
                raise DomainError(f"no primes in [{a}, {b})")
            lists.append(ps)
        prods = lists[0].astype(object)
        for ps in lists[1:]:
            prods = (prods[:, None] * ps[None, :].astype(object)).ravel()
        elements = np.sort(np.array([int(p) ** j for p in prods], dtype=object))
        if int(elements[-1]) < 2 ** 62:
            elements = elements.astype(np.int64)
        return cls(intervals=ivs, j=j, prime_lists=lists, elements=elements)

    @property
    def k(self) -> int:
        return len(self.intervals)

    def product_scale(self) -> int:
        """D = (product of interval left endpoints)^j."""
        return math.prod(a for a, _ in self.intervals) ** self.j


def exp_sum(S, theta: float) -> complex:
    """E_{s in S} e(theta * s), compensated."""
    arr = np.asarray(list(S) if not isinstance(S, np.ndarray) else S)
    if arr.size == 0:
        raise DomainError("S must be nonempty")
    return cfsum(e_of(theta * arr.astype(np.float64))) / arr.size


@dataclass
class DiophRow:
    theta: float
    abs_sum: float
    level: float
    q: int
    err: float
    passed: bool


@dataclass
class LevelSummary:
    level: float
    q_cap: int
    err_threshold: float
    vacuous: bool
    n_obligated: int
    n_pass: int
    n_fail: int
    worst_q_margin: float
    worst_err_margin: float


class DiophRows(Sequence):
    """The rows of a scan report, stored as one array per DiophRow field.

    A read-only sequence of DiophRows: len, int and negative indices,
    slices (lists of DiophRows) and iteration (in _ROW_CHUNK slices).  A
    DiophRow, of builtin float/int/bool values, is built only for a row
    that is read; len, the failures and the verdict read the columns.
    """

    def __init__(self, *columns):
        self.columns = dict(zip((f.name for f in fields(DiophRow)), columns,
                                strict=True))

    @classmethod
    def concat(cls, parts: list) -> "DiophRows":
        return cls(*map(np.concatenate,
                        zip(*(p.columns.values() for p in parts))))

    def where(self, mask: np.ndarray) -> "DiophRows":
        return DiophRows(*(c[mask] for c in self.columns.values()))

    def __len__(self) -> int:
        return self.columns["passed"].size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [DiophRow(*vals) for vals in
                    zip(*(c[i].tolist() for c in self.columns.values()))]
        i = operator.index(i)
        return DiophRow(*(c[i].item() for c in self.columns.values()))

    def __iter__(self):
        for lo in range(0, len(self), _ROW_CHUNK):
            yield from self[lo: lo + _ROW_CHUNK]

    def __eq__(self, other) -> bool:
        return isinstance(other, DiophRows) and all(
            np.array_equal(a, b) for a, b in zip(self.columns.values(),
                                                 other.columns.values()))

    def dicts(self) -> list:
        """vars() of every row, read straight from the columns."""
        return [dict(zip(self.columns, vals)) for vals in
                zip(*(c.tolist() for c in self.columns.values()))]


class _RowReport:
    """The failures and verdict of a scan report, read off its rows."""

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=1)

    @property
    def failures(self) -> DiophRows:
        return self.rows.where(~self.rows.columns["passed"])

    @property
    def all_pass(self) -> bool:
        return bool(self.rows.columns["passed"].all())


@dataclass
class DiophReport(_RowReport):
    """Scan outcome: per-level summaries plus row-level evidence.

    The rows hold every failure and the first ROW_SAMPLE_CAP points of
    each non-vacuous level; a vacuous level, where q = 1 passes every
    point, has its summary and no rows.  The per-level summaries count
    all obligated points.  The rows are columns (DiophRows); a DiophRow
    is built only when one is read.  JSON writes each row once: the
    failures are the rows with passed false.
    """

    params: DiophParams
    set_size: int
    diam: int
    grid_points: int
    spacing: float
    required_spacing: float
    certified: bool
    levels: list
    rows: DiophRows
    empirical_L: float | None = None

    def to_obj(self) -> dict:
        return {**vars(self), "params": vars(self.params),
                "levels": [vars(s) for s in self.levels],
                "rows": self.rows.dicts()}

    def csv_summary_rows(self) -> list:
        out = [[f.name for f in fields(LevelSummary)]]
        for s in self.levels:
            out.append([s.level, s.q_cap, s.err_threshold, int(s.vacuous),
                        s.n_obligated, s.n_pass, s.n_fail,
                        repr(s.worst_q_margin), repr(s.worst_err_margin)])
        return out


def _grid_peaks(residues: np.ndarray, weights: np.ndarray, M: int, lo: int,
                width: int, floor: float, count: int = 1):
    """The j <= M/2 at which |sum_i w_i e(j r_i / M)| / count >= floor.

    Returns (js, vals): those j ascending and the scaled moduli there.
    The residues r_i in [0, M) lie in the cyclic window [lo, lo + width)
    mod M; shifted to start at 0 they span P points, P the least power
    of two >= width, and no modulus changes.  Grid point a + K b, with
    K = M/P, is entry b of the P-point DFT of x[n] e(-na/M) (block a).
    Real input makes block K - a the conjugate of block a, so only the
    blocks a <= K/2 are taken, a point j > M/2 standing for M - j (the
    blocks a = 0 and a = K/2 are their own mirrors and keep their
    j <= M/2).  Rows go through the DFT about _BLOCK_BATCH points at a
    time, and each row's twiddle is the outer product of two e() tables
    of about sqrt(P) values, so nothing of size M is held.  A window
    that does not split the grid into blocks (P >= M, or P not dividing
    M) takes one real DFT of the weights accumulated at their residues,
    in input order, as a sequential loop would add them.  On both paths
    vals is an array of its own: the spectrum it was read from is freed
    on return.
    """
    P = 1 << (int(width) - 1).bit_length()
    if P >= M or M % P:
        vals = np.abs(np.fft.rfft(np.bincount(residues, weights, minlength=M)))
        vals /= count
        js = np.flatnonzero(vals >= floor)
        return js, vals[js]
    K = M // P
    x = np.bincount((residues - lo) % M, weights, minlength=P)
    B = 1 << (P.bit_length() // 2)  # n = h B + l, l < B
    hB = np.arange(0, P, B, dtype=np.int64)
    low = np.arange(B, dtype=np.int64)
    rows = max(1, _BLOCK_BATCH // P)
    js, vals = [], []
    for a0 in range(0, K // 2 + 1, rows):
        a = np.arange(a0, min(a0 + rows, K // 2 + 1), dtype=np.int64)[:, None]
        tw = (e_of(-(a * hB % M) / M)[:, :, None]
              * e_of(-(a * low % M) / M)[:, None, :]).reshape(a.size, P)
        tw *= x
        mod = np.abs(np.fft.fft(tw, axis=1))
        mod /= count
        r, b = np.nonzero(mod >= floor)
        j = a[r, 0] + K * b
        # a self-mirrored block holds j and M - j: keep j <= M/2 only
        own = (j <= M // 2) | (2 * a[r, 0] % K != 0)
        js.append(np.minimum(j, M - j)[own])
        vals.append(mod[r[own], b[own]])
    js, vals = np.concatenate(js), np.concatenate(vals)
    order = np.argsort(js, kind="stable")
    return js[order], vals[order]


def best_q_on_grid(js, M: int, cap: int):
    """Minimizer of ||q * j/M|| over q <= cap for every j of an array.

    One array walk (grid_convergents) runs the continued-fraction
    convergents of all the j/M at once in exact int64 arithmetic; the
    minimum over a denominator cap is always attained at a convergent,
    so this equals the direct scan without the O(cap) cost.  The walk's
    distances fall strictly after its first step, whose only tie
    (q_0 = q_1 = 1 when j > M/2) has one q, so the last convergent
    under the cap is the minimizer with the smallest q.  Returns the
    (q, err) arrays in the shape of js (numpy scalars for a scalar j).
    """
    js = np.asarray(js, dtype=np.int64)
    j = js.ravel() % M
    best_q, best_num = np.ones_like(j), np.minimum(j, M - j)
    for idx, q, dist in grid_convergents(j, M, cap):
        best_q[idx], best_num[idx] = q, dist
    return (best_q.reshape(js.shape)[()],
            (best_num / M).reshape(js.shape)[()])


def _min_keys(js: np.ndarray, M: int, scale: float) -> np.ndarray:
    """min over q >= 1 of max(q, ||q j/M|| * scale) for every j of js.

    A q that is not a convergent of j/M loses to the last convergent
    below it, which is no larger and approximates no worse, so one
    uncapped walk over the convergents finds the minimum.  The walk
    retires a point after its first convergent with q >= its scaled
    distance (key_scale): along the convergents q never falls and the
    distance never rises, so no later key is lower.
    """
    keys = np.full(js.size, np.inf)
    for idx, q, dist in grid_convergents(js, M, key_scale=scale):
        keys[idx] = np.minimum(keys[idx], np.maximum(q, dist / M * scale))
    return keys


def _empirical_exponent(peaks: tuple, M: int, D: float, levels) -> float:
    """Smallest exponent at which every kept j/M, j > 0, has a good q.

    peaks is the (js, vals) of _grid_peaks; levels holds (check level,
    base) pairs.  A point whose value reaches a check level needs a
    convergent q of j/M, with error err, such that q and err D are at
    most e^(E base): E >= log K / base for the key K = max(q, err D).
    That bound is monotone in K, so the minimum over the convergents
    (_min_keys) and the maximum over a level's points are taken on the
    float keys, and math.log meets only each level's winning key.  The
    levels' points are nested, so one uncapped walk over every kept j
    serves them all, and it retires each j as soon as its key can no
    longer fall.  0.0 when no level holds a point j > 0.
    """
    js, vals = peaks
    if js.size and js[0] == 0:  # js ascend, so a view drops j = 0
        js, vals = js[1:], vals[1:]
    keys = _min_keys(js, M, D)
    exponent = 0.0
    for check, base in levels:
        sel = vals >= check
        if sel.any():
            exponent = max(exponent, math.log(float(keys[sel].max())) / base)
    return exponent


def dioph_verify(S, params: DiophParams, delta_levels, grid_points: int,
                 want_empirical_L: bool = False) -> DiophReport:
    """Scan the spectrum of S on a rational grid and verify the property.

    grid_points is the number of grid points M over the full circle
    (theta = j/M); by conjugate symmetry only j <= M/2 is scanned.
    Each non-vacuous level makes one array call of best_q_on_grid over
    its obligated j; counts and worst margins are array reductions
    (both margins are monotone in q and err), and the rows keep the
    first ROW_SAMPLE_CAP points of each non-vacuous level and every
    failure as columns (DiophRows), so a DiophRow is built only when one
    is read.  The empirical L (_empirical_exponent) takes one more walk,
    uncapped, over the points of every level, vacuous or not: a level
    vacuous at the configured L need not be at a smaller one, so the
    value does not depend on params.L.  It is at least 1, the least L
    the property admits.
    """
    S = np.asarray(S if isinstance(S, np.ndarray) else list(S))
    if S.size == 0:
        raise DomainError("S must be nonempty")
    levels = sorted(set(float(d) for d in delta_levels), reverse=True)
    if not (levels and all(0 < d < 1 for d in levels)):
        raise DomainError("delta levels must lie in (0, 1)")
    if grid_points < 16:
        raise DomainError("grid too small")
    diam = int(S.max() - S.min())
    if grid_points > GRID_POINT_BUDGET:
        smallest = levels[-1]
        suggested = params.Lp * (8.0 * max(diam, 1) / GRID_POINT_BUDGET) ** (
            1.0 / params.L)
        raise CapacityError(
            f"grid of {grid_points} points exceeds budget "
            f"{GRID_POINT_BUDGET}; at delta floor {smallest} try a floor "
            f">= {suggested:.4g}")

    M = int(grid_points)
    caps = {d: params.q_cap(d) for d in levels}
    nonvac = [d for d in levels if not params.vacuous(d)]
    req_M = 8 * diam * max((caps[d] for d in nonvac), default=1)
    required_spacing = 1.0 / req_M if req_M > 0 else 1.0
    certified = (1.0 / M) <= required_spacing

    margin = math.pi * diam / M
    check_levels = {d: max(d - margin, 0.5 * d) for d in levels}
    floor = min(check_levels.values())
    peaks = _grid_peaks(np.mod(S, M).astype(np.int64), np.ones(S.size), M,
                        int(S.min()) % M, diam + 1, floor, len(S))
    rows, summaries = [], []
    for d in levels:
        vac = params.vacuous(d)
        cap, thresh = caps[d], params.err_threshold(d)
        check_level = check_levels[d]
        js, vals = peaks
        if check_level > floor:  # the lowest level reads every kept point
            sel = vals >= check_level
            js, vals = js[sel], vals[sel]
        theta = js / M
        if vac:
            q, err = np.ones_like(js), np.minimum(theta, 1.0 - theta)
        else:
            q, err = best_q_on_grid(js, M, cap)
        ok = err <= thresh  # always at vacuous levels: err <= 1/2 <= thresh
        n_pass = int(np.count_nonzero(ok))
        if js.size:
            worst_qm = (cap - int(q.max())) / cap
            worst_em = (thresh - float(err.max())) / thresh
        else:
            worst_qm = worst_em = math.inf
        keep = ~ok
        keep[:ROW_SAMPLE_CAP] = not vac
        rows.append(DiophRows(theta[keep], vals[keep],
                              np.full(np.count_nonzero(keep), d), q[keep],
                              err[keep], ok[keep]))
        summaries.append(LevelSummary(
            level=d, q_cap=cap, err_threshold=thresh, vacuous=vac,
            n_obligated=int(js.size), n_pass=n_pass,
            n_fail=int(js.size) - n_pass, worst_q_margin=worst_qm,
            worst_err_margin=worst_em))
        del js, vals, theta, q, err, ok, keep
    emp_L = None
    if want_empirical_L:  # at least 1, the least L the property admits
        emp_L = max(1.0, _empirical_exponent(peaks, M, params.D, [
            (check_levels[d], math.log(params.Lp / d)) for d in levels]))
    del peaks  # the rows hold copies: free the spectrum before joining them
    return DiophReport(params=params, set_size=int(S.size), diam=diam,
                       grid_points=M, spacing=1.0 / M,
                       required_spacing=required_spacing, certified=certified,
                       levels=summaries, rows=DiophRows.concat(rows),
                       empirical_L=emp_L)


@dataclass(frozen=True)
class VinoResult:
    hypothesis_holds: bool
    count: int
    q: int | None
    alarm: bool


def vino_verify(alpha: float, T: int, delta1: float,
                delta2: float) -> VinoResult:
    """Counting form of the rational-approximation lemma.

    If at least delta2*T of the t in [T] have ||alpha t|| <= delta1
    (with delta2 >= 32 delta1 and T >= 16/delta2), some q <= 16/delta2
    must satisfy ||alpha q|| <= delta1/(delta2 T).  A missing q is an
    implementation alarm, never expected.

    The smallest such q beats every smaller denominator, so it is a
    continued-fraction convergent of alpha (Lagrange); only the
    convergents of the exact binary rational alpha mod 1 are tried.
    """
    if not (math.isfinite(alpha) and 0 < 32 * delta1 <= delta2):
        raise DomainError("need finite alpha and 0 < 32*delta1 <= delta2")
    if T < 16 / delta2:
        raise DomainError("need T >= 16/delta2")
    t = np.arange(1, T + 1, dtype=np.float64)
    x = alpha * t
    frac = x - np.floor(x)
    dist = np.minimum(frac, 1.0 - frac)
    count = int(np.count_nonzero(dist <= delta1))
    holds = count >= delta2 * T
    if not holds:
        return VinoResult(False, count, None, False)
    qmax = int(math.floor(16 / delta2))
    thresh = delta1 / (delta2 * T)
    exact = Fraction(alpha)
    for q in convergent_denominators(exact.numerator % exact.denominator,
                                     exact.denominator, qmax):
        if _dist_to_int(alpha * q) <= thresh:
            return VinoResult(True, count, q, False)
    return VinoResult(True, count, None, True)


def _tree_sum(terms: list[Fraction]) -> Fraction:
    """Sum Fractions in a balanced tree, which keeps denominators small."""
    mid = len(terms) // 2
    return _tree_sum(terms[:mid]) + _tree_sum(terms[mid:]) if mid else terms[0]


def gamma_coprimality(M, exact: bool = False):
    """gamma(M) = E^log_{n,n' in M} gcd(n, n') - 1 over the multiset M.

    Gauss's gcd(a, b) = sum_{d | (a, b)} phi(d) turns the pair sum into
    sum_d phi(d) S_d^2, S_d = sum_{a in M, d | a} 1/a; summed as Fractions
    in balanced trees it is exact.  exact=True returns it, the default its
    correctly rounded float().  Cost: linear in the divisor count, after a
    trial-division `factorize` per element, which grows like the square
    root of its largest prime factor (about 10^9 steps near 2^62;
    AlmostPrimeFamily's primes come from `sieve_primes`, under 5*10^7).
    """
    elems = [int(m) for m in (M.tolist() if isinstance(M, np.ndarray) else M)]
    if not elems or min(elems) < 1:
        raise DomainError("need a nonempty set of positive integers")
    terms = {}  # (d, phi(d)) -> [1/a for every a in M that d divides]
    for a in elems:
        for key in divisors_phi(a):
            terms.setdefault(key, []).append(Fraction(1, a))
    s = {key: _tree_sum(t) for key, t in terms.items()}
    total = _tree_sum([f * s_d ** 2 for (_, f), s_d in s.items()])
    gamma = total / s[1, 1] ** 2 - 1
    return gamma if exact else float(gamma)


def gamma_prime_window(primes) -> float:
    """gamma of a set of distinct primes via the closed form.

    gcd(p, p') is 1 off the diagonal and p on it, so
    gamma = (sum 1/p)^{-2} * sum (p-1)/p^2.
    """
    ps = np.asarray(sorted(set(int(p) for p in primes)), dtype=np.float64)
    if ps.size == 0:
        raise DomainError("empty prime set")
    s = math.fsum((1.0 / ps).tolist())
    t = math.fsum(((ps - 1.0) / ps ** 2).tolist())
    return t / (s * s)


def gamma_family(fam: AlmostPrimeFamily) -> float:
    """gamma of an almost-prime family via the window product identity.

    Unique factorization across disjoint windows gives
    1 + gamma(family) = prod_l (1 + gamma(window_l)) exactly (for j = 1).
    """
    if fam.j != 1:
        raise DomainError("product identity requires j = 1")
    prod = 1.0
    for ps in fam.prime_lists:
        prod *= 1.0 + gamma_prime_window(ps)
    return prod - 1.0


def _check_weyl_range(tables: MultiplicativeTables, X: int, m: int):
    if X < 1 or m < 1:
        raise DomainError("need X, m >= 1")
    if X > tables.limit:
        raise RangeError(f"X={X} exceeds table limit {tables.limit}")


def vonmangoldt_exp_sum(tables: MultiplicativeTables, X: int, m: int,
                        theta: float) -> complex:
    """sum_{n <= X} Lambda(n) e(n^m theta), unnormalized."""
    _check_weyl_range(tables, X, m)
    n = np.arange(1, X + 1, dtype=np.float64)
    lam = tables.vonmangoldt[1: X + 1]
    return cfsum(lam * e_of(theta * n ** m))


@dataclass
class WeylReport(_RowReport):
    X: int
    m: int
    eps: float
    exponent: float
    grid_points: int
    rows: DiophRows
    empirical_E: float

    def to_obj(self) -> dict:
        return {**vars(self), "rows": self.rows.dicts()}


def weyl_structure_scan(tables: MultiplicativeTables, X: int, m: int,
                        eps: float, exponent: float = 6.0,
                        grid_points: int = 2 ** 22) -> WeylReport:
    """Scan theta for large von Mangoldt polynomial-phase sums.

    Wherever |sum_{n<=X} Lambda(n) e(n^m theta)| >= eps*X on the grid,
    verify q <= eps^-E with ||q theta|| <= eps^-E * X^-m at E = exponent,
    and report the empirical minimal E that would make every obligated
    point pass.  That E is taken over all convergents of each j/M
    (_empirical_exponent, the walk of dioph's empirical L), so it does
    not depend on exponent.  On the rational grid j/M the sum depends
    only on n^m mod M, so the spectrum is the DFT of Lambda accumulated
    at those residues.  While X^m < M they are the n^m in [1, X^m], and
    _grid_peaks takes block DFTs of that window; otherwise it takes one
    DFT of the whole grid.
    """
    if not (0 < eps < 1):
        raise DomainError("eps must be in (0, 1)")
    _check_weyl_range(tables, X, m)
    if not exponent >= 0:  # NaN too: eps^-exponent must be a cap >= 1
        raise DomainError(f"exponent must be >= 0, got {exponent!r}")
    if grid_points < 16:
        raise DomainError("grid too small")
    if grid_points > GRID_POINT_BUDGET:
        raise CapacityError(f"grid of {grid_points} exceeds budget")
    bound = _float_pow(eps, -exponent,
                       f"eps^-exponent at exponent = {exponent!r}")
    scale = _float_pow(float(X), m, f"X^m at m = {m!r}")
    M = int(grid_points)
    # n^m mod M, one reduced product at a time: both factors are below
    # M <= 2^26, so each product stays below 2^52
    base = np.arange(1, X + 1, dtype=np.int64) % M
    residues = base
    for _ in range(m - 1):
        residues = residues * base % M
    # while X^m < M the residues are the n^m themselves, in [1, X^m]
    lo, width = (1, X ** m) if X ** m < M else (0, M)
    js, vals = _grid_peaks(residues, tables.vonmangoldt[1: X + 1], M, lo,
                           width, eps * X)

    cap = int(math.ceil(bound))
    thresh = bound * float(X) ** (-m)
    q, err = best_q_on_grid(js, M, cap)
    ok = err <= thresh
    emp_E = _empirical_exponent((js, vals), M, scale,
                                [(eps * X, math.log(1.0 / eps))])
    rows = DiophRows(js / M, vals, np.full(js.size, eps), q, err, ok)
    return WeylReport(X=X, m=m, eps=eps, exponent=exponent, grid_points=M,
                      rows=rows, empirical_E=emp_E)


# -- concatenation-lemma statistics ------------------------------------


def concat_hypothesis(f: SampledFunction, N: int, S, T: int,
                      mode: str = "log") -> float:
    """E_n E_{t,t' in [T]} E_{s in S} f(n+ts) conj(f(n+t's)).

    The t, t' double average collapses to E_s |E_t f(n + ts)|^2 per n,
    which is real and nonnegative by construction.
    """
    S = [int(s) for s in S]
    if not S or T < 1:
        raise DomainError("need nonempty S and T >= 1")
    lo_need = 1 + T * min(0, *S)
    hi_need = N + T * max(0, *S)
    V = f.slice(lo_need, hi_need, "concat_hypothesis")
    per_n = np.zeros(N, dtype=np.float64)
    for s in S:
        acc = np.zeros(N, dtype=np.complex128)
        for t in range(1, T + 1):
            k = 1 + t * s - lo_need  # V[k] = f(1 + t*s)
            acc += V[k:k + N]
        per_n += np.abs(acc / T) ** 2
    per_n /= len(S)
    return _avg_of_values(per_n, N, mode).real


def concat_conclusion_search(f: SampledFunction, N: int, H: int,
                             qmax: int) -> tuple[int, float]:
    """argmax over q <= qmax of the log progression-bias norm at (q, H).

    Ties favor the smallest q.
    """
    if qmax < 1 or H < 1:
        raise DomainError("need qmax, H >= 1")
    best_q, best_norm = 1, -1.0
    for q in range(1, qmax + 1):
        val = u1log_norm(f, NormParams(N, q, H))
        if val > best_norm:
            best_q, best_norm = q, val
    return best_q, best_norm
