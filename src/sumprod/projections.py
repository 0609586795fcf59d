"""Progression-bias norms and averaging projections.

u1log_norm / u1_norm measure bias of f along arithmetic progressions of
step q and length H (log-weighted and uniform n-averages respectively).
project applies the double progression average
Pi_{q,H} f(n) = E_{h,h' in [H]} f(n + q(h - h')), computed per residue
class with a triangular sliding kernel rather than an H^2 inner loop.
The defect operations verify the stated almost-periodicity, norm
preservation, Pythagoras and comparison inequalities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .averages import DefectRecord, SampledFunction, _avg_of_values
from .errors import DomainError, RangeError


@dataclass(frozen=True)
class NormParams:
    N: int
    q: int
    H: int

    def __post_init__(self):
        if self.N < 1 or self.q < 1 or self.H < 1:
            raise DomainError("N, q, H must be positive")
        if self.q * self.H >= self.N:
            warnings.warn(
                f"qH = {self.q * self.H} >= N = {self.N}: progression "
                "error terms degrade", stacklevel=3)


def _window_means(f: SampledFunction, N: int, q: int, H: int) -> np.ndarray:
    """A(n) = E_{h in [H]} f(n + hq) for n = 1..N, via per-class cumsums."""
    V = f.slice(1, N + q * H, "progression average")  # V[k] = f(1 + k)
    A = np.empty(N, dtype=np.complex128)
    for c in range(q):
        seq = V[c::q]  # seq[j] = f(1 + c + j*q)
        cs = np.concatenate(([0.0 + 0.0j], np.cumsum(seq)))
        j = np.arange(len(A[c::q]))  # empty when the class has no output
        A[c::q] = (cs[j + 1 + H] - cs[j + 1]) / H
    return A


def _u1(f: SampledFunction, p: NormParams, mode: str) -> float:
    A = _window_means(f, p.N, p.q, p.H)
    sq = _avg_of_values(np.abs(A) ** 2, p.N, mode).real
    return math.sqrt(max(sq, 0.0))


def u1log_norm(f: SampledFunction, p: NormParams) -> float:
    """Log-weighted progression-bias norm ||f||_{U1_log[N; q, H]}."""
    return _u1(f, p, "log")


def u1_norm(f: SampledFunction, p: NormParams) -> float:
    """Uniform progression-bias norm ||f||_{U1[N; q, H]}."""
    return _u1(f, p, "uniform")


def project(f: SampledFunction, q: int, H: int) -> SampledFunction:
    """Pi_{q,H} f as a SampledFunction on the shrunk window.

    The double average over h, h' in [H] collapses to a triangular
    kernel on each residue class mod q; one 'valid' convolution per
    class gives every output in O(H) instead of O(H^2).
    """
    if q < 1 or H < 1:
        raise DomainError("q and H must be positive")
    reach = q * (H - 1)
    lo, hi = f.lo + reach, f.hi - reach
    if hi < lo:
        raise RangeError(
            f"window [{f.lo}, {f.hi}] too small for Pi_({q},{H})")
    kernel = (H - np.abs(np.arange(-(H - 1), H))) / (H * H)
    out = np.empty(hi - lo + 1, dtype=np.complex128)
    for c in range(q):
        # class elements f.lo + c, f.lo + c + q, ...
        seq = f.values[c::q]
        if len(seq) < 2 * H - 1:
            continue
        # the first valid output sits at f.lo + c + reach = lo + c
        out[c::q] = np.convolve(seq, kernel, mode="valid")
    return SampledFunction(lo, hi, out, bound=f.bound)


def almost_period_defect(f: SampledFunction, q: int, H: int,
                         h: int) -> DefectRecord:
    """Sup over the overlap of |Pi f(n + qh) - Pi f(n)| vs 2|h|/H."""
    pf = project(f, q, H)
    lo = max(pf.lo, pf.lo - q * h)
    hi = min(pf.hi, pf.hi - q * h)
    if hi < lo:
        raise RangeError("no overlap for the requested shift")
    base = pf.slice(lo, hi)
    shifted = pf.slice(lo + q * h, hi + q * h)
    lhs = float(np.max(np.abs(shifted - base))) if len(base) else 0.0
    bound = 2.0 * abs(h) / H
    return DefectRecord("almost-period", lhs, bound, params={
        "q": q, "H": H, "h": h, "n_checked": len(base)})


def proj_check_defect(f: SampledFunction, q: int, Hp: int, H: int,
                      N: int) -> DefectRecord:
    """||Pi_{q,H'} f - f||_{U1_log[N; q, H]} against 4 H'/H."""
    if Hp > H:
        raise DomainError("need H' <= H")
    pf = project(f, q, Hp)
    lo, hi = 1, N + q * H
    g = SampledFunction(lo, hi, pf.slice(lo, hi, "proj_check")
                        - f.slice(lo, hi, "proj_check"), bound=2.0 * f.bound)
    lhs = u1log_norm(g, NormParams(N, q, H))
    bound = 4.0 * Hp / H
    return DefectRecord("proj-check", lhs, bound, params={
        "q": q, "Hp": Hp, "H": H, "N": N})


PYTHAGORAS_C = 50.0


def pythagoras_defect(f: SampledFunction, q: int, qp: int, H: int, Hp: int,
                      N: int) -> DefectRecord:
    """Approximate Pythagoras relation between nested projections.

    lhs = E^log |Pi_{q',H'} f - Pi_{q,H} f|^2 is checked against
    E^log |Pi_{q',H'} f|^2 - E^log |Pi_{q,H} f|^2 plus the explicit
    error term with constant 50.
    """
    if qp % q != 0:
        raise DomainError("need q | q'")
    if Hp > H:
        raise DomainError("need H' <= H")
    p_small = project(f, q, H).slice(1, N, "pythagoras")
    p_large = project(f, qp, Hp).slice(1, N, "pythagoras")
    lhs = _avg_of_values(np.abs(p_large - p_small) ** 2, N, "log").real
    err = PYTHAGORAS_C * (math.log(qp * H) / math.log(N)
                          + (qp * Hp) / (q * H))
    rhs = (_avg_of_values(np.abs(p_large) ** 2, N, "log").real
           - _avg_of_values(np.abs(p_small) ** 2, N, "log").real + err)
    rec = DefectRecord("pythagoras", lhs, rhs if rhs > 0 else max(rhs, 1e-300),
                       params={"q": q, "qp": qp, "H": H, "Hp": Hp, "N": N,
                               "passed": lhs <= rhs})
    return rec


def maximal_lower(f: SampledFunction, g: SampledFunction, q: int, H: int,
                  N: int) -> tuple[float, float]:
    """(base, projected) correlations for the maximal-function bound.

    base = E^log f*g and projected = E^log (Pi_{q,H} f)*g; callers check
    projected >= base^2/8 - eps_N and the eta-grid averaged form.
    """
    fv = f.slice(1, N, "maximal_lower")
    gv = g.slice(1, N, "maximal_lower", "g")
    for name, vals in (("f", fv), ("g", gv)):
        if float(np.min(vals.real)) < -1e-9 or \
                float(np.max(np.abs(vals.imag))) > 1e-9:
            raise DomainError(f"{name} must be nonnegative real")
    base = _avg_of_values(fv.real * gv.real, N, "log").real
    pf = project(f, q, H)
    pg = pf.slice(1, N, "maximal_lower").real * gv.real
    return base, _avg_of_values(pg, N, "log").real


def maximal_eps(q: int, H: int, N: int) -> float:
    """Envelope eps_N = 50 log(Hq) / log N for the maximal-function check."""
    return 50.0 * math.log(H * q) / math.log(N)


NORM_COMPARE_C = 50.0


def norm_compare_defect(f: SampledFunction, q: int, qt: int, H: int, Ht: int,
                        N: int) -> DefectRecord:
    """U1_log norm comparison when q is replaced by a multiple.

    lhs = ||f||_{U1_log[N;q,H]} - ||f||_{U1_log[N;qt,Ht]} against the raw
    envelope log(Hq)/log N + Ht*qt/(Hq); pass uses constant 50.
    """
    if qt % q != 0:
        raise DomainError("need q | qt")
    if not (Ht * qt < H * q < N / 2):
        raise DomainError("need Ht*qt < H*q < N/2")
    n_small = u1log_norm(f, NormParams(N, q, H))
    n_large = u1log_norm(f, NormParams(N, qt, Ht))
    lhs = n_small - n_large
    bound = math.log(H * q) / math.log(N) + (Ht * qt) / (H * q)
    rec = DefectRecord("gp-compar", max(lhs, 0.0), bound, params={
        "q": q, "qt": qt, "H": H, "Ht": Ht, "N": N,
        "passed": lhs <= NORM_COMPARE_C * bound,
        "norm_small": n_small, "norm_large": n_large})
    return rec
