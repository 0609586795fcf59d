import hashlib
import math
import warnings

import numpy as np
import pytest

from sumprod import sieve
from sumprod.errors import CapacityError, DomainError
from sumprod.numtheory import (MultiplicativeTables, ramanujan_sum,
                               sieve_primes)
from sumprod.sieve import (_REMAINDER_SHARE, SUP_TOLERANCE, _float_reprs,
                           _sup_fourier, _sup_grid, band_decompose,
                           ramanujan_expand, selberg_majorant,
                           verify_sieve_bounds)


def mu_phi(q):
    mu, phi, m = 1, 1, q
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e > 1:
                mu = 0
            mu, phi = -mu, phi * (p - 1) * p ** (e - 1)
        p += 1
    if m > 1:
        mu, phi = -mu, phi * (m - 1)
    return mu, phi


def direct_majorant_value(n, R, variant="mu_squared"):
    """Independent per-n evaluation through exact Ramanujan sums."""
    inner = 0.0
    norm = 0.0
    for q in range(1, int(R) + 1):
        mu, phi = mu_phi(q)
        if mu == 0:
            continue
        inner += mu / phi * ramanujan_sum(q, n)
        norm += (1.0 if variant == "mu_squared" else mu) / phi
    return inner * inner / norm


class TestMajorant:
    def test_nonnegative(self):
        lam = selberg_majorant(10 ** 4, 10.0)
        assert lam.min() >= 0.0

    def test_prime_closed_form(self):
        X, R = 10 ** 4, 10.0
        lam = selberg_majorant(X, R)
        norm = sum(1.0 / mu_phi(q)[1] for q in range(1, 11)
                   if mu_phi(q)[0] != 0)
        flags = sieve_primes(2 * X).flags
        for p in np.flatnonzero(flags[X: 2 * X])[:50] + X:
            assert abs(lam[p - X] - norm) < 1e-9

    def test_powers_of_two_match_direct(self):
        X, R = 10 ** 4, 10.0
        lam = selberg_majorant(X, R)
        n = 2 ** 14  # inside [X, 2X)
        assert abs(lam[n - X] - direct_majorant_value(n, R)) < 1e-9

    def test_random_points_match_direct(self):
        X, R = 10 ** 4, 17.0
        lam = selberg_majorant(X, R)
        rng = np.random.default_rng(3)
        for n in rng.integers(X, 2 * X, 25):
            assert abs(lam[int(n) - X] - direct_majorant_value(int(n), R)) \
                < 1e-9

    # every entry point checks the sieve level before any table is built
    LEVEL_CHECKED = (selberg_majorant, lambda X, R: ramanujan_expand(R),
                     lambda X, R: band_decompose(X, R, 6))

    def test_degenerate_level(self):
        for fn in self.LEVEL_CHECKED:
            with pytest.raises(DomainError, match="degenerate sieve level"):
                fn(10 ** 4, 2.5)

    def test_capacity(self):
        for fn in self.LEVEL_CHECKED:
            with pytest.raises(CapacityError, match="desk budget"):
                fn(10 ** 6, 1000.0)

    def test_mu_variant_runs(self):
        # the alternating normalizer yields a non-majorant at desk scale;
        # recorded, not asserted
        lam = selberg_majorant(10 ** 4, 10.0, variant="mu")
        assert lam.shape == (10 ** 4,)


class TestRamanujanExpand:
    def test_support_R3(self):
        coeffs = ramanujan_expand(3.0)
        assert sorted(coeffs.c) == [1, 2, 3, 6]

    def test_linear_system_R3(self):
        # the four residue classes mod 6 with distinct gcd patterns give a
        # 4x4 system for (c_1, c_2, c_3, c_6)
        X, R = 10 ** 4, 3.0
        coeffs = ramanujan_expand(R)
        lam = selberg_majorant(X, R)
        ns = [12, 7, 8, 9]  # gcd with 6: 6, 1, 2, 3
        A = np.array([[ramanujan_sum(q, n) for q in (1, 2, 3, 6)]
                      for n in ns], dtype=np.float64)
        # evaluate the majorant at representatives inside [X, 2X)
        reps = [X + ((n - X) % 6) for n in ns]
        b = np.array([lam[m - X] for m in reps])
        sol = np.linalg.solve(A, b)
        for q, v in zip((1, 2, 3, 6), sol):
            assert abs(coeffs.c[q] - v) < 1e-10

    def test_c1_is_period_mean(self):
        X, R = 10 ** 4, 3.0
        coeffs = ramanujan_expand(R)
        lam = selberg_majorant(X, R)
        # the majorant has period 6 at R = 3; all c_q with q > 1 average
        # to zero over a full period
        mean = lam[:6000].reshape(-1, 6).mean()
        assert abs(coeffs.c[1] - mean) < 1e-12

    def test_full_reconstruction(self):
        X, R = 10 ** 4, 10.0
        coeffs = ramanujan_expand(R)
        lam = selberg_majorant(X, R)
        rng = np.random.default_rng(11)
        for n in rng.integers(X, 2 * X, 50):
            rec = coeffs.reconstruct_at(int(n))
            assert abs(rec - lam[int(n) - X]) <= 1e-8 * max(1.0,
                                                            lam[int(n) - X])


@pytest.fixture(scope="module")
def levels_1e5():
    """(decomposition, report) at X = 10^5, Q = 6 for two sieve levels: the
    CLI default R = X^(1/4) = 17.8 (6 nonzero bands), and R = 10^(5^(1/4))
    = 31.3 (8 nonzero bands)."""
    X = 10 ** 5
    out = {}
    for level, R in (("default X^(1/4)", X ** 0.25),
                     ("R = 10^(5^(1/4))", 10 ** (5 ** 0.25))):
        dec = band_decompose(X, R, 6)
        out[level] = dec, verify_sieve_bounds(dec)
    return out


class TestBandDecomposition:
    def test_total_absorption(self):
        # 2^i0 >= R^2 pushes everything into the periodic head
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dec = band_decompose(10 ** 4, 3.0, 16)
        assert all(not np.any(b) for b in dec.bands)
        assert not np.any(dec.h)
        assert np.allclose(dec.lam_per, dec.majorant)

    def test_builds_no_table(self, monkeypatch):
        # mu and phi are read off the factorization, so no table is built
        calls, build = [], MultiplicativeTables.build.__func__
        monkeypatch.setattr(MultiplicativeTables, "build", classmethod(
            lambda cls, limit: calls.append(limit) or build(cls, limit)))
        band_decompose(10 ** 5, (10 ** 5) ** 0.25, 6)
        assert calls == []

    def test_q2_head(self):
        dec = band_decompose(10 ** 4, 9.0, 2)
        assert dec.head_moduli == [1, 2]
        assert dec.period == 2

    def test_reconstruction(self, levels_1e5):
        for level, (dec, _) in levels_1e5.items():
            assert dec.reconstruction_error() <= 1e-8, level

    def test_threshold_bounds_bands(self, levels_1e5):
        for level, (dec, _) in levels_1e5.items():
            for i, g in zip(dec.band_index, dec.bands):
                assert np.max(np.abs(g)) <= (
                    2.0 ** (i * dec.cexp / 2.0) + 1e-12), (level, i)

    def test_periodicity_of_head(self):
        dec = band_decompose(10 ** 4, 10.0, 6)
        per = dec.lam_per
        assert np.allclose(per[: -dec.period], per[dec.period:])

    def test_export_schema(self):
        import json
        dec = band_decompose(10 ** 4, 10.0, 6)
        obj = json.loads(dec.export_json())
        assert set(obj) >= {"X", "R", "Q", "c", "lam_per_period", "bands",
                            "h"}
        assert all(isinstance(v, str) for v in obj["c"].values())

    def test_float_reprs_equal_per_value_repr(self):
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        a = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -tiny, 1 / 3,
                      0.1, 1e300, 0.0, -0.0, np.nan, 1 / 3, tiny, 0.1, 2.5])
        assert _float_reprs(a) == [repr(v) for v in a.tolist()]
        assert _float_reprs(np.zeros(0)) == []


class TestVerifyBounds:

    def test_prime_floor(self, levels_1e5):
        for level, (_, rep) in levels_1e5.items():
            assert rep.majorant_min_prime_over_logR >= 0.8, level

    def test_mean_bounded(self, levels_1e5):
        for level, (_, rep) in levels_1e5.items():
            assert rep.majorant_mean <= 5.0, level

    def test_h_small(self, levels_1e5):
        for level, (_, rep) in levels_1e5.items():
            assert rep.h_mean_abs_times_Q <= 10.0, level

    def test_moment_growth(self, levels_1e5):
        for level, (_, rep) in levels_1e5.items():
            for i, m in zip(rep.band_fourth_moments and
                            range(2, 2 + len(rep.band_fourth_moments)),
                            rep.band_fourth_moments):
                assert m <= max(1.0, float(i) ** 16), (level, i)

    def test_all_checks(self, levels_1e5):
        for level, (_, rep) in levels_1e5.items():
            assert all(rep.checks.values()), level

    def test_empty_band_case(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dec = band_decompose(10 ** 4, 3.0, 16)
        rep = verify_sieve_bounds(dec)
        assert rep.h_mean_abs_times_Q == 0.0
        assert rep.band_sum_stat == 0.0
        assert rep.band_sup_bounds == [(0.0, 0.0)] * len(dec.bands)

    # the maxima over the 2^22-point grid that band_sum_stat was computed
    # from before the enclosure, recorded at the default X = 10^5
    GRID_MAXIMA_1E5 = [20569.257765738566, 14469.541228939544,
                       9079.921369087902, 4167.167604835617,
                       2807.801953515398, 989.071172549197]

    def test_default_enclosures(self, levels_1e5):
        _, rep = levels_1e5["default X^(1/4)"]
        assert (rep.sup_grid_points, rep.sup_taylor_order,
                rep.sup_tolerance) == (2 ** 17, 8, SUP_TOLERANCE)
        nonzero = [b for b in rep.band_sup_bounds if b != (0.0, 0.0)]
        assert len(nonzero) == len(self.GRID_MAXIMA_1E5)
        for (lo, up), grid_max in zip(nonzero, self.GRID_MAXIMA_1E5):
            assert 0.0 < lo <= up
            assert up - lo <= SUP_TOLERANCE * up
            assert grid_max <= up


def grid_max(g, X, M):
    """max_j |sum_n g(n) e(n j/M)| over n in [X, 2X): one M-point real
    DFT, the estimate band_sum_stat used before the enclosure."""
    acc = np.bincount(np.arange(X, 2 * X) % M, g, minlength=M)
    return float(np.max(np.abs(np.fft.rfft(acc))))


def direct_abs(g, X, thetas):
    """|sum_n g(n) e(n theta)| for every theta, by direct summation."""
    n = np.arange(X, 2 * X)
    return np.abs(np.exp(2j * np.pi * np.outer(thetas, n)) @ g)


def taylor_order(kappa):
    """The least K >= 2 with kappa^K/K! <= _REMAINDER_SHARE * SUP_TOLERANCE."""
    K = 2
    while kappa ** K / math.factorial(K) > _REMAINDER_SHARE * SUP_TOLERANCE:
        K += 1
    return K


def dense_peak(g, X):
    """(|sum| at 64X points over one period, the local maximum around
    the 4 best of them)."""
    thetas = np.arange(64 * X) / (64 * X)
    vals = direct_abs(g, X, thetas)
    best = thetas[np.argsort(vals)[-4:]]
    fine = (best[:, None] + np.linspace(-1, 1, 4001) / (64 * X)).ravel()
    return vals, direct_abs(g, X, fine).max()


@pytest.fixture(scope="module")
def bands_1e4():
    dec = band_decompose(10 ** 4, (10 ** 4) ** 0.25, 6)
    return [g for g in dec.bands if np.any(g)]


class TestSupEnclosure:
    def test_contains_2_22_grid_maximum(self, bands_1e4):
        X = 10 ** 4
        assert len(bands_1e4) >= 4
        for g in bands_1e4:
            lo, up = _sup_fourier(g, X)
            assert lo <= up and up - lo <= SUP_TOLERANCE * up
            assert grid_max(g, X, 2 ** 22) <= up

    # a power-of-two X puts kappa just under pi/2, its largest value
    @pytest.mark.parametrize("X", [2, 3, 17, 64, 128, 255, 256, 300])
    def test_dense_direct_sums(self, X):
        g = np.random.default_rng(X).standard_normal(X)
        lo, up = _sup_fourier(g, X)
        assert 0.0 <= lo <= up and up - lo <= SUP_TOLERANCE * up
        vals, peak = dense_peak(g, X)
        assert vals.max() <= up
        # around the best samples the local maximum is found to ~1e-9
        # relative, and the certified lower end may not exceed it
        assert peak <= up
        assert lo <= peak * (1.0 + 1e-9)

    @pytest.mark.parametrize("X", [64, 255])
    def test_half_cells_miss_the_peak(self, X, monkeypatch):
        """A grid that checks only half of each cell (kappa/2 reported)
        must lose the peak somewhere, or the dense test could not see
        that fault."""
        grid = sieve._sup_grid

        def half_kappa(X):
            M, K, kappa = grid(X)
            return M, K, kappa / 2

        monkeypatch.setattr(sieve, "_sup_grid", half_kappa)
        g = np.random.default_rng(X).standard_normal(X)
        _, up = _sup_fourier(g, X)
        assert dense_peak(g, X)[1] > up

    def test_old_grid_overlaps(self, bands_1e4, monkeypatch):
        """Each band's enclosure on the least power of two >= 4X, K by
        the same rule, overlaps the one on _sup_grid's grid."""
        X = 10 ** 4
        new = [_sup_fourier(g, X) for g in bands_1e4]
        M = 1 << (4 * X - 1).bit_length()
        kappa = math.pi * ((X - 1) / 2.0) / M
        K = taylor_order(kappa)
        assert (M, K) == (2 ** 16, 4)
        monkeypatch.setattr(sieve, "_sup_grid", lambda X: (M, K, kappa))
        old = [_sup_fourier(g, X) for g in bands_1e4]
        for (lo, up), (old_lo, old_up) in zip(new, old):
            assert lo <= old_up and old_lo <= up

    @pytest.mark.parametrize("X", [7, 1000, 10 ** 4])
    def test_constant_encloses_X(self, X):
        lo, up = _sup_fourier(np.ones(X), X)
        assert lo <= X <= up
        assert up - lo <= SUP_TOLERANCE * up

    def test_grid_and_order_follow_X(self):
        for X, M, K in [(2, 8, 4), (64, 64, 9), (10 ** 4, 2 ** 14, 7),
                        (10 ** 5, 2 ** 17, 8)]:
            assert _sup_grid(X)[:2] == (M, K)
        # rfft(w, M) would silently truncate a band longer than M
        for X in range(2, 5001):
            M, K, kappa = _sup_grid(X)
            assert M & (M - 1) == 0 and (X <= M < 2 * X or M == 8)
            assert kappa < np.pi / 2 and K <= 9
            assert K == taylor_order(kappa)


class TestBytesPinned:
    """sha256 of the majorant and decomposition bytes, recorded from the
    code before the majorant went through _basis_sum_on_range.  The
    export was recorded again (was eab40d9b...463b) when its "c" strings
    lost their np.float64(...) wrapper, with the same values."""

    @pytest.mark.parametrize("R, variant, digest", [
        ((10 ** 5) ** 0.25, "mu_squared",
         "dc943f50923f09bc8fceb92fe89a47101224644fd67ea95d302d9676dac7f771"),
        (10, "mu",
         "c95f7fac3ee93eca5b67b7ec139c39f18a6c77900b343f04529e3f2fe23587a0"),
    ])
    def test_majorant(self, R, variant, digest):
        lam = selberg_majorant(10 ** 5, R, variant=variant)
        assert hashlib.sha256(lam.tobytes()).hexdigest() == digest

    def test_band_export(self):
        dec = band_decompose(20000, 20000 ** 0.25, 6)
        assert hashlib.sha256(dec.export_json().encode()).hexdigest() == (
            "55d89e8bd7ee1dc9f5222b8f6f0c874c9853d522f485087379827b9ff2a1ab07")
