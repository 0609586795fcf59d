"""Exponential-sum spectrum scans and diophantine verification.

A set S of integers is (L, L', D)-diophantine when every theta whose
exponential-sum average over S has modulus >= delta admits a denominator
q <= (L'/delta)^L with ||q theta|| <= (L'/delta)^L / D.  dioph_verify
turns this continuum statement into a finite scan over a rational grid
j/M (_scan, shared with weyl_structure_scan): the spectrum on such a
grid is the DFT of the weights at their residues mod M (exact, since
e(js/M) only depends on s mod M), taken from the window the residues
fill in blocks (_grid_peaks), so memory follows the signal, not the
grid; only the points at or above the lowest check level are kept.

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

# bounds the memory of a full-grid DFT, and keeps a product of two
# residues mod M (weyl's n^m mod M) below 2^52, so exact in int64
GRID_POINT_BUDGET = 2 ** 26
ROW_SAMPLE_CAP = 512
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
    slices (lists of DiophRows) and Sequence's iteration by index.  A
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

    def __eq__(self, other) -> bool:
        return isinstance(other, DiophRows) and all(
            np.array_equal(a, b) for a, b in zip(self.columns.values(),
                                                 other.columns.values()))

    def dicts(self) -> list:
        """vars() of every row, read straight from the columns."""
        return [dict(zip(self.columns, vals)) for vals in
                zip(*(c.tolist() for c in self.columns.values()))]


@dataclass
class _ScanReport:
    """A grid scan's fields (_scan), with its failures and verdict.

    The rows, columns of which a DiophRow is built only when read, are
    every failure and the first ROW_SAMPLE_CAP points of each
    non-vacuous level; a vacuous level (q = 1 passes every point) has
    its summary, which counts all obligated points, and no rows.
    """

    grid_points: int
    required_spacing: float
    certified: bool
    levels: list
    rows: DiophRows

    def to_obj(self) -> dict:
        return {**vars(self), "levels": [vars(s) for s in self.levels],
                "rows": self.rows.dicts()}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=1)

    @property
    def failures(self) -> DiophRows:
        return self.rows.where(~self.rows.columns["passed"])

    @property
    def all_pass(self) -> bool:
        return bool(self.rows.columns["passed"].all())


@dataclass
class DiophReport(_ScanReport):
    """dioph_verify's outcome: the scan of S and its empirical L."""

    params: DiophParams
    set_size: int
    diam: int
    spacing: float
    empirical_L: float | None = None

    def to_obj(self) -> dict:
        return {**super().to_obj(), "params": vars(self.params)}

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


def _scan(residues: np.ndarray, weights: np.ndarray, count: int, lo: int,
          diam: int, M: int, D: float, levels: list, want_exponent: bool):
    """The grid scan of dioph_verify and weyl_structure_scan.

    levels holds (delta, q cap, err threshold, base) per level, largest
    delta first.  |sum_i w_i e(s_i theta)| / count, the s_i
    spanning diam, rises by at most margin = pi diam sup / M within half
    a grid step (Bernstein; sup = sum |w| / count), so j/M is obligated
    where it reaches max(delta - margin, delta / 2).  The scan is
    certified when the grid meets the required spacing and, at every
    live level (err threshold < 1/2), margin <= delta / 2, so that the
    check level covers every off-grid theta.  Returns the _ScanReport
    fields and the empirical exponent (None unless wanted).
    """
    sup = cfsum(np.abs(weights)).real / count
    margin = math.pi * diam * sup / M
    checks = [max(d - margin, 0.5 * d) for d, *_ in levels]
    floor = min(checks)
    live = [(d, cap) for d, cap, thresh, _ in levels if thresh < 0.5]
    req_M = 8 * diam * max((cap for _, cap in live), default=1)
    # 1.0 for a one-point set, 0.0 once req_M passes the float range
    required_spacing = (1.0 / req_M if 0 < req_M < 2 ** 1024
                        else float(req_M == 0))
    peaks = _grid_peaks(residues, weights, M, lo, diam + 1, floor, count)
    rows, summaries = [], []
    for (d, cap, thresh, _), check in zip(levels, checks):
        vac = thresh >= 0.5  # q = 1 passes, as ||theta|| <= 1/2
        js, vals = peaks
        if check > floor:  # the lowest level reads every kept point
            sel = vals >= check
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
    exponent = _empirical_exponent(peaks, M, D, [
        (check, base) for (*_, base), check in zip(levels, checks)]
    ) if want_exponent else None
    del peaks  # the rows hold copies: free the spectrum before joining them
    return {"grid_points": M, "required_spacing": required_spacing,
            "certified": (1.0 / M) <= required_spacing
            and all(margin <= 0.5 * d for d, _ in live),
            "levels": summaries, "rows": DiophRows.concat(rows)}, exponent


def dioph_verify(S, params: DiophParams, delta_levels, grid_points: int,
                 want_empirical_L: bool = False) -> DiophReport:
    """Scan the spectrum of S on a rational grid and verify the property.

    grid_points is the number of grid points M over the full circle
    (theta = j/M); by conjugate symmetry only j <= M/2 is scanned.  The
    scan (_scan) takes the indicator of S averaged over S (sup = 1).
    The empirical L walks every level, vacuous at params.L or not, so
    it does not depend on params.L; it is at least 1, the least L the
    property admits.
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
        suggested = params.Lp * (8.0 * max(diam, 1) / GRID_POINT_BUDGET) ** (
            1.0 / params.L)
        raise CapacityError(
            f"grid of {grid_points} points exceeds budget "
            f"{GRID_POINT_BUDGET}; at delta floor {levels[-1]} try a floor "
            f">= {suggested:.4g}")

    M = int(grid_points)
    scan, emp_L = _scan(
        np.mod(S, M).astype(np.int64), np.ones(S.size), len(S),
        int(S.min()) % M, diam, M, params.D,
        [(d, params.q_cap(d), params.err_threshold(d),
          math.log(params.Lp / d)) for d in levels], want_empirical_L)
    emp_L = None if emp_L is None else max(1.0, emp_L)
    return DiophReport(params=params, set_size=int(S.size), diam=diam,
                       spacing=1.0 / M, empirical_L=emp_L, **scan)


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
class WeylReport(_ScanReport):
    """weyl_structure_scan's outcome; abs_sum is |sum| / X."""

    X: int
    m: int
    eps: float
    exponent: float
    empirical_E: float


def weyl_structure_scan(tables: MultiplicativeTables, X: int, m: int,
                        eps: float, exponent: float = 6.0,
                        grid_points: int = 2 ** 22) -> WeylReport:
    """Scan theta for large von Mangoldt polynomial-phase sums.

    Wherever |sum_{n<=X} Lambda(n) e(n^m theta)| >= eps*X, verify
    q <= eps^-E with ||q theta|| <= eps^-E * X^-m at E = exponent, and
    report the empirical minimal E (over all convergents, so exponent
    does not move it).  This is dioph_verify's scan of Lambda(n) at
    n^m mod M, averaged over X, with D = X^m: degree X^m - 1 and
    sup = psi(X)/X give the grid margin.  While X^m < M the residues
    are the n^m themselves, a window of X^m points.
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
    # n^m mod M by reduced products, exact below GRID_POINT_BUDGET
    base = np.arange(1, X + 1, dtype=np.int64) % M
    residues = base
    for _ in range(m - 1):
        residues = residues * base % M
    scan, emp_E = _scan(
        residues, tables.vonmangoldt[1: X + 1], X, 1, X ** m - 1, M, scale,
        [(eps, math.ceil(bound), bound / scale, math.log(1.0 / eps))], True)
    return WeylReport(X=X, m=m, eps=eps, exponent=exponent,
                      empirical_E=emp_E, **scan)


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
