"""Selberg-type majorant on [X, 2X) and its Ramanujan-sum decomposition.

The majorant is a normalized square of a mobius-weighted Ramanujan-sum
average over moduli q <= R, so it is nonnegative by construction and
takes the closed-form value sum_{q<=R} mu(q)^2/phi(q) at every prime
p > R^2.  ramanujan_expand rewrites the square exactly in the Ramanujan
basis {c_q : q <= R^2 squarefree} using multiplicativity across coprime
moduli and the local rule c_p^2 = (p-1) + (p-2) c_p.  band_decompose
splits the expansion into a (Q!)-periodic head, dyadic bands g_i
thresholded in sup norm, and an l1-small remainder h.

The normalizer: with the alternating weight sum_{q<=R} mu(q)/phi(q) the
normalization vanishes at R = 2 and oscillates, breaking the majorant
floor at desk scale; this module defaults to the positive variant
sum mu(q)^2/phi(q), which reproduces every stated bound, and keeps the
alternating variant behind variant="mu" for comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .numtheory import (divisors, factorize, mobius, ramanujan_sum,
                        sieve_primes, totient)

FACTORIAL_TABLE_BUDGET = 5_000_000
DEFAULT_CEXP = 0.125
DEFAULT_A = 4.0
SUP_TOLERANCE = 1e-3     # relative width of each band's Fourier-sup enclosure
_REMAINDER_SHARE = 0.4   # the Taylor remainder's share of that width
_MAX_HALVINGS = 60       # a guard: each default band needs five


def _selberg_series(R: float, variant: str) -> tuple[float, list]:
    """(normalizer, [(q, mu(q)/phi(q)) for squarefree q <= R]).

    The normalizer is sum_{q<=R} mu(q)^2/phi(q), or mu(q)/phi(q) for
    variant "mu"; R and variant are checked first.  mu(q) and phi(q) are
    read off the factorization of each q, and every value is a float.
    """
    if R < 3:
        raise DomainError("degenerate sieve level: need R >= 3")
    if R * R > 10 ** 5:
        raise CapacityError("R^2 exceeds the desk budget 1e5")
    if variant not in ("mu_squared", "mu"):
        raise DomainError(f"unknown variant {variant!r}")
    mu_phi = [(q, mu, totient(q)) for q in range(1, int(math.floor(R)) + 1)
              if (mu := mobius(q))]
    normalizer = math.fsum((mu if variant == "mu" else 1.0) / phi
                           for _, mu, phi in mu_phi)
    if abs(normalizer) < 1e-12:  # only the alternating sum can vanish
        raise DomainError("mu-variant normalizer vanishes at this R")
    return normalizer, [(q, mu / phi) for q, mu, phi in mu_phi]


def selberg_majorant(X: int, R: float,
                     variant: str = "mu_squared") -> np.ndarray:
    """Majorant values on [X, 2X): normalizer^-1 * (inner sum)^2.

    The inner sum is sum_{q<=R} (mu(q)/phi(q)) c_q(n), one Ramanujan
    series over the squarefree q <= R.
    """
    normalizer, series = _selberg_series(R, variant)
    if X < 4:
        raise DomainError("X too small")
    return _basis_sum_on_range(series, X, X) ** 2 / normalizer


@dataclass
class SieveCoefficients:
    """Ramanujan-basis coefficients: majorant(n) = sum_q c[q] * c_q(n)."""

    normalizer: float
    c: dict

    def reconstruct_at(self, n: int) -> float:
        return math.fsum(v * ramanujan_sum(q, n) for q, v in self.c.items())


def ramanujan_expand(R: float,
                     variant: str = "mu_squared") -> SieveCoefficients:
    """Exact symbolic expansion of the majorant in the Ramanujan basis.

    The coefficients do not depend on X: the same series gives the
    majorant on every window.

    For squarefree q1 = g*a, q2 = g*b with g = gcd, the product
    c_{q1} c_{q2} equals c_a c_b prod_{p | g} ((p-1) + (p-2) c_p), and
    expanding the product over subsets d | g lands each term on c_{abd}.
    """
    normalizer, series = _selberg_series(R, variant)
    coeffs: dict[int, float] = {}
    for q1, w1 in series:
        for q2, w2 in series:
            g = math.gcd(q1, q2)
            ab = (q1 // g) * (q2 // g)
            primes_g = [p for p, _ in factorize(g)]
            for d in divisors(g):
                # weight prod_{p | g/d} (p-1) * prod_{p | d} (p-2)
                factor = 1
                for p in primes_g:
                    factor *= (p - 2) if d % p == 0 else (p - 1)
                key = ab * d
                coeffs[key] = coeffs.get(key, 0.0) + w1 * w2 * factor
    c = {q: v / normalizer for q, v in coeffs.items() if abs(v) > 0.0}
    return SieveCoefficients(normalizer=normalizer, c=c)


def _float_reprs(a: np.ndarray) -> list:
    """[repr(v) for v in a.tolist()] for a float64 array, with one repr
    per distinct value.

    The values are grouped by bit pattern (their int64 view), so -0.0
    and NaN keep their own strings.
    """
    uniq, inv = np.unique(a.view(np.int64), return_inverse=True)
    strs = np.array([repr(v) for v in uniq.view(np.float64).tolist()],
                    dtype=object)
    return strs[inv].tolist()


@dataclass
class BandDecomposition:
    X: int
    R: float
    Q: int
    cexp: float
    A: float
    i0: int
    i1: int
    coeffs: SieveCoefficients
    majorant: np.ndarray
    head_moduli: list          # the q feeding the periodic head
    period: int                # minimal period of the head; divides Q!
    lam_per_table: np.ndarray  # one full period
    lam_per: np.ndarray        # materialized on [X, 2X)
    band_index: list           # band labels i (i0 <= i <= i1)
    bands: list                # g_i arrays on [X, 2X)
    h: np.ndarray
    fourth_moments: list       # mean |f_i|^4 of each unthresholded band

    def reconstruction_error(self) -> float:
        total = self.lam_per + sum(self.bands) + self.h
        scale = max(1.0, float(np.max(np.abs(self.majorant))))
        return float(np.max(np.abs(self.majorant - total))) / scale

    def export_pieces(self):
        """The export's JSON text in pieces, one float list at a time, so
        only one list's strings are held at once (export_json joins them)."""
        return _json_pieces({
            "X": self.X, "R": self.R, "Q": self.Q, "cexp": self.cexp,
            "A": self.A, "i0": self.i0, "i1": self.i1,
            "c": {str(q): repr(v) for q, v in sorted(self.coeffs.c.items())},
            "normalizer": repr(self.coeffs.normalizer),
            "lam_per_period": self.lam_per_table,
            "bands": {str(i): b for i, b in zip(self.band_index, self.bands)},
            "h": self.h,
        })

    def export_json(self) -> str:
        return "".join(self.export_pieces())


def _json_pieces(obj: dict):
    """json.dumps(obj, sort_keys=True) in pieces, a float array as the
    list of its reprs.

    A float repr has nothing to escape, so each list is joined as it
    stands rather than passed string by string through the encoder;
    nested dicts recurse and every other value goes to json.dumps.
    """
    yield "{"
    for n, key in enumerate(sorted(obj)):
        v = obj[key]
        yield f"{', ' if n else ''}{json.dumps(key)}: "
        if isinstance(v, dict):
            yield from _json_pieces(v)
        elif isinstance(v, np.ndarray):
            reprs = _float_reprs(v)
            yield '["' + '", "'.join(reprs) + '"]' if reprs else "[]"
        else:
            yield json.dumps(v)
    yield "}"


def _basis_sum_on_range(c_items, X: int, length: int) -> np.ndarray:
    """sum_q c_q * c_q(n) for n in [X, X + length) via divisor sieving.

    The Kluyver identity c_q(n) = sum_{d | gcd(n, q)} d mu(q/d) turns the
    series into sum_{d | n} w_d with w_d = sum_{d | q} c_q mu(q/d) d; each
    w_d is added along the multiples of d.
    """
    out = np.zeros(length, dtype=np.float64)
    w: dict[int, float] = {}
    for q, cq in c_items:
        for d in divisors(q):
            mu = mobius(q // d)
            if mu:
                w[d] = w.get(d, 0.0) + cq * mu * d
    for d, wd in w.items():
        first = -X % d  # offset of the first multiple of d in [X, X + len)
        out[first::d] += wd
    return out


def band_decompose(X: int, R: float, Q: int, cexp: float = DEFAULT_CEXP,
                   A: float = DEFAULT_A,
                   variant: str = "mu_squared") -> BandDecomposition:
    """Split the majorant into Lambda_per + sum g_i + h on [X, 2X)."""
    if Q < 1:
        raise DomainError("Q must be >= 1")
    if Q > math.log(X):
        import warnings
        warnings.warn(f"Q = {Q} exceeds log X = {math.log(X):.3f}; the "
                      "remainder bounds degrade", stacklevel=2)
    if not (0 < cexp < 1):
        raise DomainError("cexp must be in (0, 1)")
    coeffs = ramanujan_expand(R, variant)
    majorant = selberg_majorant(X, R, variant)
    i0 = int(math.floor(math.log2(Q))) if Q > 1 else 0
    i1 = int(math.floor(A * math.log2(math.log(X))))
    r2 = int(math.floor(R)) ** 2

    head = [(q, v) for q, v in coeffs.c.items() if q <= 2 ** i0]
    # every head modulus is squarefree and at most min(2^i0, R^2) <= Q,
    # so the primorial of that bound is a period, and it divides Q!
    bound = min(2 ** i0, max(r2, 1))
    period = (math.prod(sieve_primes(bound).primes_array().tolist())
              if bound >= 2 else 1)
    if period > FACTORIAL_TABLE_BUDGET:
        raise CapacityError(
            f"periodic head table of {period} entries exceeds the budget")
    lam_per_table = _basis_sum_on_range(head, 0, period)
    lam_per = lam_per_table[np.arange(X, 2 * X) % period]

    band_index = list(range(i0, i1 + 1))
    moments, bands, h = [], [], np.zeros(X, dtype=np.float64)
    for i in band_index:
        top = 2 ** (i + 1) if i < i1 else r2  # the last band takes the rest
        fi = _basis_sum_on_range(
            [(q, v) for q, v in coeffs.c.items() if 2 ** i < q <= top], X, X)
        keep = np.abs(fi) <= 2.0 ** (i * cexp / 2.0)
        moments.append(float(np.mean(np.abs(fi) ** 4)))
        bands.append(np.where(keep, fi, 0.0))
        h += np.where(keep, 0.0, fi)  # the above-threshold part g'_i
    return BandDecomposition(
        X=X, R=R, Q=Q, cexp=cexp, A=A, i0=i0, i1=i1, coeffs=coeffs,
        majorant=majorant, head_moduli=sorted(q for q, _ in head),
        period=period, lam_per_table=lam_per_table, lam_per=lam_per,
        band_index=band_index, bands=bands, h=h, fourth_moments=moments)


@dataclass
class SieveReport:
    X: int
    R: float
    Q: int
    majorant_min_prime_over_logR: float
    majorant_min_prime_over_logX: float
    majorant_mean: float
    lam_per_mean_abs: float
    lam_per_sup: float
    lam_per_mean_envelope_ratio: float
    lam_per_sup_envelope_ratio: float
    h_mean_abs_times_Q: float
    band_sum_stat: float
    band_sup_bounds: list      # [lower, upper] per band, [0, 0] if g_i = 0
    sup_grid_points: int
    sup_taylor_order: int
    sup_tolerance: float
    band_fourth_moments: list
    reconstruction_error: float
    checks: dict

    def to_obj(self) -> dict:
        obj = {k: (v if not isinstance(v, float) else repr(v))
               for k, v in vars(self).items()}
        obj["band_fourth_moments"] = [repr(v) for v in
                                      self.band_fourth_moments]
        obj["band_sup_bounds"] = [[repr(lo), repr(up)]
                                  for lo, up in self.band_sup_bounds]
        return obj


def _sup_grid(X: int) -> tuple[int, int, float]:
    """(M, K, kappa) of the sup enclosure on [X, 2X), X >= 2.

    M is the least power of two >= X (at least 8), so the band fits the
    DFT unfolded.  Centred at n_c = (3X-1)/2 the transform has degree
    d = (X-1)/2, and every theta lies within h = 1/(2M) of a grid point
    j/M, so a Taylor step spans at most kappa = 2 pi d h < pi/2 in the
    scaled variable tau = 2 pi d t.  K is the least order with
    kappa^K/K! <= _REMAINDER_SHARE * SUP_TOLERANCE; since
    (pi/2)^9/9! < 2e-4, K <= 9.
    """
    M = max(8, 1 << (X - 1).bit_length())
    kappa = math.pi * ((X - 1) / 2.0) / M
    K = 2
    while kappa ** K / math.factorial(K) > _REMAINDER_SHARE * SUP_TOLERANCE:
        K += 1
    return M, K, kappa


def _taylor_shift(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Coefficients of sum_k c[:, k] (t + s)^k as a polynomial in s."""
    b = c.copy()
    K = c.shape[1]
    for i in range(K - 1):
        for k in range(K - 2, i - 1, -1):
            b[:, k] += t * b[:, k + 1]
    return b


def _sup_fourier(g: np.ndarray, X: int) -> tuple[float, float]:
    """Certified [lower, upper] around sup_theta |sum_{n in [X, 2X)} g(n)
    e(n theta)|, with (upper - lower) <= SUP_TOLERANCE * upper, X >= 2.

    Let P(theta) = sum_n g(n) e(-(n - n_c) theta); |P(theta)| is the
    modulus of the sum at -theta, and is even and 1-periodic, so the
    cells |theta - j/M| <= 1/(2M), j = 0..M/2, cover every theta.  With
    M, K, kappa from _sup_grid, K real DFTs of M points give the spectra
    A_k(j) of the weights ((n - n_c)/d)^k g(n)/k!.  Up to a phase shared
    by every k, T_j(tau) = sum_{k<K} A_k(j) (-i tau)^k is the order-K
    Taylor polynomial of P at j/M in the scaled offset
    tau = 2 pi d (theta - j/M).  P is an entire function of exponential
    type 2 pi d (its frequencies are half-integers when X is even), so
    Bernstein's inequality bounds its K-th derivative by (2 pi d)^K sup,
    and at |tau| <= kappa the remainder is at most r(tau) sup with
    r(tau) = |tau|^K/K! <= kappa^K/K!.  No bound on kappa itself is
    needed, only r < 1, which K's choice gives with room to spare.  On a
    cell |tau - t| <= w that gives sup <= (p + fp) / (1 - r(|t| + w)),
    p the sup of |T_j| there, and sup >= |T_j(tau)| - fp - r(tau) * upper
    at every evaluated point.

    The coarse pass bounds p on every whole cell.  Cells whose bound
    reaches the best lower bound are halved and the polynomial is
    re-centred on each half, where the linear part is maximized exactly
    at an end (|b0 + b1 s| is convex in s) and the higher terms by the
    triangle inequality; halves whose bound falls below the lower bound
    are dropped.

    fp is a stated floating-point allowance, folded into both ends.  For
    a radix-2 FFT with twiddles accurate to eps, every computed value of
    A_k lies within 8 eps log2(M) sqrt(M) ||w_k||_2 of the exact one
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 24.2).
    fp is twice that, weighted by kappa^k (the largest |tau|^k a term
    is evaluated at) and summed over k, so it also covers the rounding of
    the weights and of the polynomial values.  kappa may exceed 1, but
    ||w_k||_2 <= ||g||_2/k!, so the sum stays below e^kappa < 4.9 times
    its k = 0 term.  numpy's FFT mixes radices, so this is an allowance,
    not a proof.
    """
    M, K, kappa = _sup_grid(X)
    x = (2.0 * np.arange(X) - (X - 1)) / (X - 1)  # (n - n_c)/d
    w = np.asarray(g, dtype=np.float64)
    spectra, fp = [], 0.0
    for k in range(K):
        spectra.append(np.fft.rfft(w, M))
        fp += math.sqrt(float(np.dot(w, w))) * kappa ** k
        w = w * x / (k + 1)
    fp *= 16.0 * math.ulp(1.0) * math.log2(M) * math.sqrt(M)
    fact = math.factorial(K)
    lower = float(np.abs(spectra[0]).max()) - fp
    ia1 = spectra[1] * (1j * kappa)  # -kappa times the tau^1 coefficient
    bound = np.maximum(np.abs(spectra[0] - ia1), np.abs(spectra[0] + ia1))
    for k in range(2, K):
        bound += np.abs(spectra[k]) * kappa ** k
    bound = (bound + fp) / (1.0 - kappa ** K / fact)
    upper = float(bound.max())
    cells = np.flatnonzero(bound >= lower)
    c = np.stack([spectra[k][cells] * (-1j) ** k for k in range(K)], axis=1)
    t, half = np.zeros(cells.size), kappa
    for _ in range(_MAX_HALVINGS):
        if upper - lower <= SUP_TOLERANCE * upper:
            return max(lower, 0.0), upper
        c, t, half = np.concatenate([c, c]), np.concatenate(
            [t - half / 2, t + half / 2]), half / 2
        b = _taylor_shift(c, t)
        ends = np.abs(b[:, 0:1] + np.outer(b[:, 1], [-half, half]))
        p = ends.max(axis=1) + np.abs(b[:, 2:]) @ half ** np.arange(2, K)
        bound = (p + fp) / (1.0 - (np.abs(t) + half) ** K / fact)
        upper = min(upper, float(bound.max()))
        for s, val in ((0.0, np.abs(b[:, 0])),
                       (-half, np.abs(b @ (-half) ** np.arange(K))),
                       (half, np.abs(b @ half ** np.arange(K)))):
            r = np.abs(t + s) ** K / fact
            lower = max(lower, float((val - fp - r * upper).max()))
        keep = bound >= lower
        c, t = c[keep], t[keep]
    raise RuntimeError(f"sup enclosure wider than {SUP_TOLERANCE} after "
                       f"{_MAX_HALVINGS} halvings")


def verify_sieve_bounds(dec: BandDecomposition) -> SieveReport:
    """Numeric check of the majorant / decomposition bounds.

    band_sum_stat is X^-c Q^(c/4) sum_i U_i^c sup|g_i|^(1-c) over the
    nonzero bands, where [L_i, U_i] is _sup_fourier's enclosure of
    sup_theta |sum g_i(n) e(n theta)|: a DFT grid of M points and Taylor
    order K from _sup_grid, and relative width at most SUP_TOLERANCE.
    With the upper ends the statistic is a certified upper bound, not a
    grid estimate.
    """
    X, R, Q = dec.X, dec.R, dec.Q
    lam = dec.majorant
    pmask = sieve_primes(2 * X).flags[X: 2 * X]
    on_primes = lam[pmask]
    floor_logR = float(on_primes.min()) / math.log(R)
    floor_logX = float(on_primes.min()) / math.log(X)
    mean_lam = float(lam.mean())
    mean_abs_per = float(np.abs(dec.lam_per).mean())
    sup_per = float(np.abs(dec.lam_per).max())
    log_q_env = (1.0 + math.log(Q)) ** 3
    mean_env_ratio = mean_abs_per / log_q_env
    sup_env_ratio = sup_per / (Q * Q)
    h_stat = float(np.abs(dec.h).mean()) * Q

    c = dec.cexp
    terms, sup_bounds = [], []
    for gi in dec.bands:
        sup_g = float(np.max(np.abs(gi)))
        if sup_g == 0.0:
            sup_bounds.append((0.0, 0.0))
            continue
        sup_bounds.append(_sup_fourier(gi, X))
        terms.append((sup_bounds[-1][1] ** c) * (sup_g ** (1.0 - c)))
    M, K, _ = _sup_grid(X)
    band_stat = math.fsum(terms) * Q ** (c / 4.0) / float(X) ** c
    rec_err = dec.reconstruction_error()
    checks = {
        "nonnegative": bool(lam.min() >= 0.0),
        "reconstruction_1e-8": rec_err <= 1e-8,
        "prime_floor_0.8_logR": floor_logR >= 0.8,
        "moment_envelope": all(
            m <= max(1.0, float(i) ** 16)
            for i, m in zip(dec.band_index, dec.fourth_moments)),
    }
    return SieveReport(
        X=X, R=R, Q=Q,
        majorant_min_prime_over_logR=floor_logR,
        majorant_min_prime_over_logX=floor_logX,
        majorant_mean=mean_lam,
        lam_per_mean_abs=mean_abs_per,
        lam_per_sup=sup_per,
        lam_per_mean_envelope_ratio=mean_env_ratio,
        lam_per_sup_envelope_ratio=sup_env_ratio,
        h_mean_abs_times_Q=h_stat,
        band_sum_stat=band_stat,
        band_sup_bounds=sup_bounds,
        sup_grid_points=M,
        sup_taylor_order=K,
        sup_tolerance=SUP_TOLERANCE,
        band_fourth_moments=dec.fourth_moments,
        reconstruction_error=rec_err,
        checks=checks)
