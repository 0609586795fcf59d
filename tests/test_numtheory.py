import math
from fractions import Fraction

import numpy as np
import pytest

from sumprod.errors import DomainError, RangeError
from sumprod.numtheory import (MultiplicativeTables, best_rational_approx,
                               convergent_denominators, grid_convergents,
                               harmonic, mertens_sum, mobius,
                               ramanujan_sum, sieve_primes)


def trial_primes(lo, hi):
    def isp(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))
    return [n for n in range(lo, hi) if isp(n)]


class TestSieve:
    def test_first_primes(self):
        t = sieve_primes(10)
        assert t.primes_array().tolist() == [2, 3, 5, 7]

    def test_boundary(self):
        t = sieve_primes(2)
        assert t.primes_array().tolist() == [2]

    def test_count_1e6(self, prime_table):
        assert int(prime_table.flags.sum()) == 78498

    def test_against_trial_division(self, prime_table):
        assert prime_table.primes_array(2, 10 ** 4).tolist() == \
            trial_primes(2, 10 ** 4)

    def test_segmented_recount(self, prime_table):
        # independent segmented re-sieve of [2, 1e6] in 1e5 blocks
        limit = 10 ** 6
        base = trial_primes(2, math.isqrt(limit) + 1)
        count = 0
        for lo in range(2, limit + 1, 10 ** 5):
            hi = min(lo + 10 ** 5, limit + 1)
            seg = np.ones(hi - lo, dtype=bool)
            for p in base:
                start = max(p * p, ((lo + p - 1) // p) * p)
                if start < hi:
                    seg[start - lo:: p] = False
            if lo <= 1 < hi:
                seg[1 - lo] = False
            count += int(seg.sum())
        assert count == 78498

    def test_capacity(self):
        from sumprod.errors import CapacityError
        with pytest.raises(CapacityError):
            sieve_primes(10 ** 9)


class TestPrimesArray:
    @pytest.mark.parametrize("limit, lo, hi, want", [
        (10 ** 6, 3, 8, [3, 5, 7]),
        (10 ** 6, 24, 29, []),
        (10 ** 6, 10 ** 4, 11 * 10 ** 3, trial_primes(10 ** 4, 11 * 10 ** 3)),
        (1000, 990, 1001, [991, 997]),
    ], ids=["small_window", "composite_run", "against_trial_division",
            "window_to_the_table_end"])
    def test_window(self, prime_table, limit, lo, hi, want):
        table = prime_table if limit == prime_table.limit \
            else sieve_primes(limit)
        assert table.primes_array(lo, hi).tolist() == want

    def test_range_error(self, prime_table):
        with pytest.raises(RangeError):
            prime_table.primes_array(2, 10 ** 6 + 7)

    def test_window_past_the_table_raises(self):
        # a window that runs past the table is refused, not truncated
        t = sieve_primes(1000)
        assert t.primes_array(900, 1001).tolist()[-1] == 997
        with pytest.raises(RangeError):
            t.primes_array(900, 1002)


class TestMertens:
    def test_single(self):
        assert mertens_sum([2]) == 0.5

    def test_exact_fraction(self):
        assert abs(mertens_sum([2, 3, 5]) - 31.0 / 30.0) < 1e-15

    def test_loglog_band(self, prime_table):
        s = mertens_sum(prime_table.primes_array(10, 10 ** 5).tolist())
        predicted = math.log(math.log(10 ** 5)) - math.log(math.log(10))
        assert abs(s - predicted) / predicted < 0.10

    def test_rejects_composites(self):
        with pytest.raises(DomainError):
            mertens_sum([2, 3, 4])


class TestRamanujanSum:
    def test_q_one(self):
        assert all(ramanujan_sum(1, n) == 1 for n in range(-3, 8))

    def test_mu_value(self):
        assert ramanujan_sum(2, 1) == -1

    def test_phi_value(self):
        assert ramanujan_sum(3, 3) == 2

    def test_kluyver_equals_direct_cosine(self):
        for q in range(1, 51):
            coprime = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
            for n in range(0, 201, 7):
                direct = sum(math.cos(2 * math.pi * a * n / q)
                             for a in coprime)
                assert ramanujan_sum(q, n) == round(direct)

    def test_orthogonality(self):
        # (1/M) sum_{n<=M} c_q c_q' over M = lcm(1..20) reduces to one
        # period L = lcm(q, q'), exact integer arithmetic
        for q in range(1, 21):
            for qp in range(q, 21):
                L = math.lcm(q, qp)
                total = sum(ramanujan_sum(q, n) * ramanujan_sum(qp, n)
                            for n in range(1, L + 1))
                expected = (q == qp) * totient(q) * L
                assert total == expected


def totient(q):
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


class TestBestRationalApprox:
    def test_exact_rational(self):
        r = best_rational_approx(1.0 / 3.0, 10)
        assert r.q == 3 and r.err < 1e-15

    def test_zero(self):
        r = best_rational_approx(0.0, 5)
        assert r.q == 1 and r.err == 0.0

    def test_pi_vs_exhaustive(self):
        theta = math.pi - 3
        best_q, best_e = 1, 1.0
        for q in range(1, 1001):
            e = abs(q * theta - round(q * theta))
            if e < best_e:
                best_q, best_e = q, e
        r = best_rational_approx(theta, 1000)
        assert (r.q, r.err) == (best_q, best_e)

    def test_random_vs_exhaustive(self):
        rng = np.random.default_rng(20240601)
        for i in range(1000):
            theta = float(rng.random())
            qmax = int(rng.integers(1, 2001 if i % 10 else 10 ** 4 + 1))
            r = best_rational_approx(theta, qmax)
            best_q, best_e = 1, abs(theta - round(theta))
            for q in range(1, qmax + 1):
                e = abs(q * theta - round(q * theta))
                if e < best_e:
                    best_q, best_e = q, e
            assert r.q == best_q and r.err == best_e

    def test_cf_path_golden(self):
        # at a cap of 2 * 10^6 the convergent walk must pick the last
        # Fibonacci denominator under the cap
        phi = (math.sqrt(5) - 1) / 2
        r = best_rational_approx(phi, 2 * 10 ** 6)
        fibs = [1, 2]
        while fibs[-1] <= 2 * 10 ** 6:
            fibs.append(fibs[-1] + fibs[-2])
        assert r.q in fibs
        assert r.err < 1e-6

    def test_reduced_fraction_gives_its_denominator(self):
        # the float a/b lies within 2^-53 of a/b, far inside 1/(2 b^2),
        # so b is a convergent of it and the next one is beyond 10^6:
        # b is the best denominator.  At (15, 29, 100) the float 87 * a/b
        # rounds to an integer, which must not make 87 win
        rng = np.random.default_rng(20261018)
        cases = [(15, 29, 100)]
        while len(cases) < 1200:
            qmax = int(10 ** rng.uniform(0.3, 6.0))
            b = int(rng.integers(2, qmax + 1))
            a = int(rng.integers(1, b))
            if math.gcd(a, b) == 1:
                cases.append((a, b, qmax))
        for a, b, qmax in cases:
            assert best_rational_approx(a / b, qmax).q == b, (a, b, qmax)


def fraction_cf_denominators(a, b):
    """Denominators of the truncations [a0; a1, ..., ak] of a/b."""
    quotients, x = [], Fraction(a, b)
    while True:
        ai = math.floor(x)
        quotients.append(ai)
        if x == ai:
            break
        x = 1 / (x - ai)
    out = []
    for k in range(len(quotients)):
        value = Fraction(quotients[k])
        for ai in reversed(quotients[:k]):
            value = ai + 1 / value
        out.append(value.denominator)
    return out


class TestConvergentDenominators:
    def test_matches_fraction_expansion(self):
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            b = int(rng.integers(1, 10 ** 9))
            a = int(rng.integers(0, 3 * b))
            assert convergent_denominators(a, b) == \
                fraction_cf_denominators(a, b)

    def test_ends_at_reduced_denominator(self):
        assert convergent_denominators(0, 7) == [1]
        assert convergent_denominators(6, 8) == [1, 1, 4]
        assert convergent_denominators(355, 113)[-1] == 113

    def test_qmax_truncates(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            M = int(rng.integers(2, 2 ** 26))
            j = int(rng.integers(0, M))
            full = convergent_denominators(j, M)
            for qmax in (-3, 0, 1, int(rng.integers(1, M + 1)), M, 2 * M):
                assert convergent_denominators(j, M, qmax) == \
                    [q for q in full if q <= qmax]


class TestGridConvergents:
    def test_matches_scalar_walker(self, grid_draws):
        for js, M, qmax in grid_draws:
            walks = [[] for _ in js]
            for idx, q, dist in grid_convergents(np.array(js), M, qmax):
                for i, qi, di in zip(idx.tolist(), q.tolist(), dist.tolist()):
                    r = qi * js[i] % M
                    assert di == min(r, M - r)
                    walks[i].append(qi)
            for j, walk in zip(js, walks):
                assert walk == convergent_denominators(j, M, qmax)

    @pytest.fixture(scope="class")
    def block_groups(self):
        """Two groups of over 40,000 points, so each spans several walk
        blocks: every j at M = 2^16, and a seeded draw at M = 2^26 with
        j = 0, M/2 and M - 1."""
        M = 2 ** 26
        draw = np.random.default_rng(20261018).integers(0, M, size=40_000)
        return [(np.arange(2 ** 16), 2 ** 16),
                (np.concatenate([[0, M // 2, M - 1], draw]), M)]

    @pytest.mark.parametrize("cap", [1, 1000, "M", None])
    def test_across_blocks(self, block_groups, cap):
        for js, M in block_groups:
            qmax = M if cap == "M" else cap
            walks = [[] for _ in range(js.size)]
            for idx, q, dist in grid_convergents(js, M, qmax):
                r = q * js[idx] % M
                assert np.array_equal(dist, np.minimum(r, M - r))
                for i, qi in zip(idx.tolist(), q.tolist()):
                    walks[i].append(qi)
            assert walks == [convergent_denominators(j, M, qmax)
                             for j in js.tolist()]


class TestBestRationalApproxPinned:
    @pytest.mark.parametrize("theta,qmax,q,a", [
        (math.pi, 10 ** 7, 1725033, 244252),
        (math.sqrt(2), 10 ** 9, 147830751, 61233502),
        (math.e, 2 * 10 ** 6, 398959, 286565),
        ((1 + math.sqrt(5)) / 2, 10 ** 8, 39088169, 24157817),
        (0.1, 10 ** 12, 10, 1),
        (0.3333333333, 10 ** 7, 3, 1),
    ])
    def test_convergent_path_values(self, theta, qmax, q, a):
        # large qmax: pinned results of the convergent walk, the one path
        # for every qmax
        r = best_rational_approx(theta, qmax)
        assert (r.q, r.a) == (q, a)


class TestHarmonic:
    def test_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert abs(harmonic(4) - 25.0 / 12.0) < 1e-15

    def test_real_argument_floors(self):
        assert harmonic(4.9) == harmonic(4)

    def test_domain(self):
        with pytest.raises(DomainError):
            harmonic(0.5)


class TestMultiplicativeTables:
    def test_mobius_phi_multiplicative(self, tables_1e5):
        mob, phi = tables_1e5.mobius, tables_1e5.phi
        pairs = [(a, b) for a in range(1, 61) for b in range(1, 61)
                 if math.gcd(a, b) == 1 and a * b <= 1000]
        for a, b in pairs:
            assert mob[a * b] == mob[a] * mob[b]
            assert phi[a * b] == phi[a] * phi[b]

    def test_scalar_mobius_matches_table(self, tables_1e5):
        for n in range(1, 3001):
            assert mobius(n) == tables_1e5.mobius[n]
        with pytest.raises(DomainError):
            mobius(0)

    def test_phi_divisor_identity(self, tables_1e5):
        phi = tables_1e5.phi
        for n in range(1, 2001):
            assert sum(int(phi[d]) for d in range(1, n + 1) if n % d == 0) == n

    def test_vonmangoldt_support(self, tables_1e5):
        lam = tables_1e5.vonmangoldt
        assert lam[8] == math.log(2)
        assert lam[9] == math.log(3)
        assert lam[6] == 0.0
        assert lam[97] == math.log(97)
        # positive exactly on prime powers
        for n in range(2, 500):
            fac = []
            m, p = n, 2
            while p * p <= m:
                while m % p == 0:
                    fac.append(p)
                    m //= p
                p += 1
            if m > 1:
                fac.append(m)
            is_pp = len(set(fac)) == 1
            assert (lam[n] > 0) == is_pp


class TestBestRationalApproxWrapping:
    def test_negative_and_large_theta_wrap(self):
        for theta in (-0.25, 1.75, 7.3333333333):
            r = best_rational_approx(theta, 50)
            ref = best_rational_approx(theta % 1.0, 50)
            assert (r.q, r.err) == (ref.q, ref.err)
