import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sumprod.diophantine as dioph
from sumprod.averages import SampledFunction, log_avg, uniform_avg
from sumprod.diophantine import (AlmostPrimeFamily, DiophParams, DiophRows,
                                 concat_conclusion_search, concat_hypothesis,
                                 dioph_verify, exp_sum, gamma_coprimality,
                                 gamma_family, gamma_prime_window,
                                 vino_verify, vonmangoldt_exp_sum,
                                 weyl_structure_scan)
from sumprod.errors import CapacityError, DomainError, RangeError
from sumprod.numtheory import convergent_denominators, sieve_primes


def pairwise_gamma(M):
    """gamma of the multiset M from its definition: every ordered pair's
    gcd/(ab), summed in Fractions and normalized by (sum 1/a)^2."""
    wsum = sum(Fraction(1, a) for a in M)
    total = sum(Fraction(math.gcd(a, b), a * b) for a in M for b in M)
    return total / (wsum * wsum) - 1


def brute_keys(js, M, scale):
    """min over q <= M of max(q, ||q j/M|| * scale) for every j of js, as
    the float key _min_keys computes.  q = 1 has key at most
    max(1, scale / 2), so no q above that can do better and the loop
    stops there."""
    js = np.asarray(js, dtype=np.int64)
    keys = np.full(js.size, np.inf)
    for q in range(1, min(M, int(scale // 2) + 1) + 1):
        r = q * js % M
        keys = np.minimum(keys, np.maximum(q, np.minimum(r, M - r) / M
                                           * scale))
    return keys


def coprimality_multisets(count=300, seed=20261018):
    """Seeded multisets with repeats, 1s, prime powers, shared factors,
    singletons and elements >= 2^63 that have only small prime factors
    (two of them, since gamma's cost grows with the divisor count)."""
    rng = np.random.default_rng(seed)
    primes = [2, 3, 5, 7, 11, 13, 97, 101, 9973]
    out = [[1], [7], [2 ** 63], [3 ** 40 * 7]]
    while len(out) < count:
        M = []
        for _ in range(int(rng.integers(1, 30))):
            kind = int(rng.integers(6))
            if kind == 0 and M:  # a repeat
                M.append(M[int(rng.integers(len(M)))])
            elif kind == 1:
                M.append(1)
            elif kind == 2:  # a prime power
                M.append(primes[int(rng.integers(len(primes)))]
                         ** int(rng.integers(1, 6)))
            elif kind == 3:  # p^k q >= 2^63 with p, q <= 13
                p, n = (primes[int(i)] for i in rng.integers(6, size=2))
                while n < 2 ** 63:
                    n *= p
                M.append(n)
            else:  # products of one to three primes share factors
                M.append(math.prod(primes[int(i)] for i in rng.integers(
                    len(primes), size=int(rng.integers(1, 4)))))
        out.append(M)
    return out


class TestExpSum:
    def test_theta_zero(self):
        assert exp_sum([1, 5, 9], 0.0) == 1.0

    def test_singleton_zero(self):
        assert abs(exp_sum([0], 0.7321) - 1.0) < 1e-15

    def test_interval_half_geometric(self):
        for D in (100, 101, 1000):
            s = exp_sum(np.arange(1, D + 1), 0.5)
            closed = sum((-1) ** n for n in range(1, D + 1)) / D
            assert abs(s - closed) < 1e-12
            assert abs(s) <= 1.0 / D + 1e-12


class TestDiophVerify:
    def test_singleton_all_vacuous(self):
        params = DiophParams(2, 8, 1.0)
        rep = dioph_verify(np.array([0]), params, [0.3], grid_points=64)
        assert rep.all_pass
        # a vacuous level keeps its summary and writes no rows
        assert len(rep.rows) == 0
        [level] = rep.levels
        assert level.vacuous and level.n_obligated >= 1 and level.n_fail == 0
        assert rep.certified  # diam 0: nothing to certify

    def test_interval_passes(self):
        D = 100
        rep = dioph_verify(np.arange(1, D + 1), DiophParams(2, 8, D),
                           [0.05, 0.1, 0.2, 0.4], grid_points=2 ** 18)
        assert rep.all_pass

    def test_failure_detected(self):
        # {0, 10^6} pretending to be (1, 1, 1e12)-diophantine is not:
        # near-integer multiples of 1e-6 have huge sums but no tiny ||q*theta||
        S = np.array([0, 10 ** 6])
        rep = dioph_verify(S, DiophParams(1, 1, 1e12), [0.9],
                           grid_points=2 ** 20)
        assert not rep.all_pass
        assert rep.failures

    @pytest.mark.parametrize("S, D, M, Ls", [
        (np.arange(1, 1001), 1000.0, 2 ** 16, [1, 1.5, 2, 3, 6]),
        (np.arange(1, 101), 1e300, 2 ** 14, [1, 40]),
    ], ids=["interval", "q-cap"])
    def test_empirical_L_is_exhaustive_minimum(self, S, D, M, Ls):
        # max(1, max over levels of log K / log(L'/delta)), K the least key
        # over q <= M, over every j > 0 a level obliges, whether or not
        # the level is vacuous at the configured L: so L cannot move it
        # (on the interval every level is vacuous at L = 3 and 6)
        Lp = 8.0
        reps = [dioph_verify(S, DiophParams(L, Lp, D), LEVELS, M,
                             want_empirical_L=True) for L in Ls]
        margin = math.pi * int(S[-1] - S[0]) / M
        checks = {d: max(d - margin, d / 2) for d in LEVELS}
        js, vals = dense_peaks(np.mod(S, M), np.ones(S.size), M, 0, M,
                               min(checks.values()), S.size)
        js, vals = js[1:], vals[1:]  # j = 0 is no obligation
        keys = brute_keys(js, M, D)
        ref = max([1.0] + [math.log(keys[vals >= c].max()) / math.log(Lp / d)
                           for d, c in checks.items()])
        assert [rep.empirical_L for rep in reps] == [ref] * len(Ls)

    def test_capacity_error_with_suggestion(self):
        with pytest.raises(CapacityError) as exc:
            dioph_verify(np.arange(1, 1001), DiophParams(2, 8, 1000), [0.05],
                         grid_points=2 ** 30)
        assert "floor" in str(exc.value)

    def test_certification_flag(self):
        # at delta = 0.4, L=2, Lp=8, D=1000: cap = 400, so the certified
        # grid needs 8 * 999 * 400 points; 2^22 exceeds it, 2^18 does not
        S = np.arange(1, 1001)
        params = DiophParams(2, 8, 1000)
        assert dioph_verify(S, params, [0.4], grid_points=2 ** 22).certified
        assert not dioph_verify(S, params, [0.4],
                                grid_points=2 ** 18).certified

    @pytest.mark.parametrize("call", [
        lambda: DiophParams(math.inf, 8.0, 1.0).q_cap(0.1),
        lambda: DiophParams(math.nan, 8.0, 1.0),
        lambda: DiophParams(2.0, 8.0, math.nan),
        lambda: dioph_verify(np.arange(1, 11), DiophParams(2, 8, 10),
                             [0.4, math.nan, 0.1], grid_points=64)],
        ids=["inf-L", "nan-L", "nan-D", "nan-level"])
    def test_non_finite_is_a_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestAlmostPrimeFamily:
    def test_build(self, prime_table):
        fam = AlmostPrimeFamily.build([(100, 140), (1000, 1060)], 1,
                                      prime_table)
        assert fam.k == 2
        assert fam.product_scale() == 100 * 1000
        prods = {int(p) * int(q) for p in fam.prime_lists[0]
                 for q in fam.prime_lists[1]}
        assert sorted(prods) == fam.elements.tolist()

    def test_squares(self, prime_table):
        fam = AlmostPrimeFamily.build([(10, 20), (30, 40)], 2, prime_table)
        assert fam.product_scale() == (10 * 30) ** 2
        assert all(math.isqrt(int(v)) ** 2 == int(v) for v in fam.elements)

    def test_rejects_overlap(self, prime_table):
        with pytest.raises(DomainError):
            AlmostPrimeFamily.build([(10, 40), (30, 60)], 1, prime_table)

    def test_window_past_the_table_raises(self):
        # [900, 1080) holds 26 primes, of which a table to 1000 has 14
        with pytest.raises(RangeError):
            AlmostPrimeFamily.build([(900, 1080)], 1, sieve_primes(1000))

    def test_spectrum_pass_with_empirical_L(self, prime_table):
        # first pass records the empirical exponent; the verdict run then
        # asserts the property at that exponent
        fam = AlmostPrimeFamily.build([(1000, 1080), (10000, 10400)], 1,
                                      prime_table)
        D = float(fam.product_scale())
        probe = dioph_verify(fam.elements, DiophParams(1, fam.k, D),
                             [0.05, 0.1, 0.2], grid_points=2 ** 20,
                             want_empirical_L=True)
        L_emp = probe.empirical_L
        assert L_emp is not None and 1 <= L_emp < 8
        rep = dioph_verify(fam.elements,
                           DiophParams(L_emp * 1.01, fam.k, D),
                           [0.05, 0.1, 0.2], grid_points=2 ** 20)
        assert rep.all_pass


class TestBestQOnGrid:
    def test_matches_direct_scan(self):
        # the convergent walk must agree with the vectorized scan
        from sumprod.diophantine import best_q_on_grid
        from sumprod.numtheory import best_rational_approx
        rng = np.random.default_rng(5)
        for _ in range(300):
            M = int(rng.integers(64, 2 ** 20))
            j = int(rng.integers(0, M))
            cap = int(rng.integers(1, 3000))
            q, err = best_q_on_grid(j, M, cap)
            ref = best_rational_approx(j / M, cap)
            assert q <= cap
            # both must realize the same minimal distance (the scan works
            # in floats, so allow its representation error; exact ties at
            # different q are legitimate)
            assert abs(err - ref.err) < 1e-12
            exact_ref = min(ref.q * j % M, M - ref.q * j % M) / M
            assert err <= exact_ref + 1e-18

    def test_array_matches_reference_loop(self, grid_draws):
        # the array walk against a per-j loop over the scalar walker
        from sumprod.diophantine import best_q_on_grid
        for js, M, cap in grid_draws:
            cap = 2 * M if cap is None else cap  # an uncapped draw
            q, err = best_q_on_grid(np.array(js), M, cap)
            assert q.shape == err.shape == (len(js),)
            for j, qj, ej in zip(js, q.tolist(), err.tolist()):
                best_q, best_num = 1, min(j, M - j)
                for c in convergent_denominators(j, M, cap):
                    r = c * j % M
                    if min(r, M - r) < best_num:
                        best_q, best_num = c, min(r, M - r)
                assert (qj, ej) == (best_q, best_num / M)


class TestMinKeys:
    @pytest.mark.parametrize("M", [2 ** 10, 1155, 997])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 37.0, 1e6, 1e12])
    def test_equals_brute_force(self, M, scale):
        # the early-exit walk against the minimum over every q <= M of the
        # same float key, bit for bit
        js = np.arange(M)
        assert np.array_equal(dioph._min_keys(js, M, scale),
                              brute_keys(js, M, scale))


LEVELS = [0.05, 0.1, 0.2, 0.4]
WINDOWS = [(1000, 1080), (10000, 10400)]


def almost_prime_round_trip(prime_table, j, grid_points):
    """The probe at L = 1 with empirical L, then the verdict above it."""
    fam = AlmostPrimeFamily.build(WINDOWS, j, prime_table)
    D = float(fam.product_scale())
    probe = dioph_verify(fam.elements, DiophParams(1, fam.k, D), LEVELS,
                         grid_points=grid_points, want_empirical_L=True)
    verdict = dioph_verify(
        fam.elements, DiophParams(max(probe.empirical_L, 1.0) * 1.01,
                                  fam.k, D), LEVELS, grid_points=grid_points)
    return probe, verdict


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestDiophPinned:
    """Reports recorded from the per-point scalar loop, before the
    obligation loop became array passes; every byte must stay.  The
    report bytes were recorded again when each row came to be written
    once: the JSON lost `failures` (a copy of the rows with passed
    false) and each row's `vacuous` (its level's flag), and a vacuous
    level no longer writes rows.  The old JSON less those keys and rows
    equals the new byte for byte.  Old digests: j1 probe e70771ab...4eb9,
    verdict 89fe6815...c6cb; j2 probe 28edf6a2...ea63, verdict
    15fdfe25...f1f5; q-cap ad73bbb7...e488."""

    @pytest.mark.parametrize("j,probe_sha,verdict_sha", [
        (1, "b68e16139f4a95953acaca139f269d4b82e634b0b4e0ceda159f2af7ff21d589",
         "908ff5e5c953be06a72555060ce146de79e5d9039cf94c9e34f2aa1bb70ba5fc"),
        (2, "aee265245b178260fdf444a854be7968dde125579a73cc100b38dbfb01a0e66d",
         "3809d4e10fc4eeb675c4e9aee8ecbe46733be324b7cbb84531efb311f01ea917"),
    ], ids=["j1", "j2"])
    def test_round_trip_report_bytes(self, prime_table, j, probe_sha,
                                     verdict_sha):
        probe, verdict = almost_prime_round_trip(prime_table, j, 2 ** 16)
        assert sha(probe.to_json()) == probe_sha
        assert sha(verdict.to_json()) == verdict_sha

    @pytest.mark.parametrize("j,empirical_L,summary", [
        (1, "4.981368563894733", [
            [0.4, 5, 5e-07, 0, 30, 2, 28, "0.0", "-333331.0617675782"],
            [0.2, 10, 1e-06, 0, 7838, 6, 7832, "0.0", "-90908.00421142578"],
            [0.1, 20, 2e-06, 0, 121728, 22, 121706, "0.0",
             "-23808.432983398438"],
            [0.05, 40, 4e-06, 0, 349458, 83, 349375, "0.0",
             "-6096.555160522461"]]),
        (2, "6.020599913279623", [
            [0.4, 5, 5e-14, 0, 5, 3, 2, "0.2", "-2499999999999.0"],
            [0.2, 10, 1e-13, 0, 2213, 5, 2208, "0.0", "-908288955687.4766"],
            [0.1, 20, 2e-13, 0, 135309, 5, 135304, "0.0",
             "-238094329832.98438"],
            [0.05, 40, 4e-13, 0, 372765, 13, 372752, "0.0",
             "-60975551604.22461"]]),
    ], ids=["j1", "j2"])
    def test_probe_empirical_L_and_summary(self, prime_table, j, empirical_L,
                                           summary):
        probe, verdict = almost_prime_round_trip(prime_table, j, 2 ** 20)
        assert repr(probe.empirical_L) == empirical_L
        assert probe.csv_summary_rows()[1:] == summary
        assert verdict.all_pass

    def test_multi_block_probe_empirical_L(self, prime_table):
        # 93,614 points at the lowest level: the key walk spans six
        # blocks; the value is the one the walk gave before it retired
        # points early
        fam = AlmostPrimeFamily.build(WINDOWS, 3, prime_table)
        probe = dioph_verify(
            fam.elements, DiophParams(1, fam.k, float(fam.product_scale())),
            LEVELS, grid_points=2 ** 18, want_empirical_L=True)
        assert probe.levels[-1].n_obligated == 93_614
        assert repr(probe.empirical_L) == "5.418539921951661"

    def test_q_cap_beyond_int64(self):
        # (L'/delta)^L runs past 2^63 at every level, so the walk must
        # clamp the cap to M; every point then reaches its reduced
        # denominator and passes with err = 0
        params = DiophParams(40, 8, 1e300)
        assert params.q_cap(0.4) > 2 ** 63
        rep = dioph_verify(np.arange(1, 101), params, LEVELS,
                           grid_points=2 ** 16, want_empirical_L=True)
        assert repr(rep.empirical_L) == "3.702051410556147"
        # re-pinned (was c4d123cb...cb4c58d) when the spectrum became block
        # DFTs over the signal's window: only abs_sum moved, by < 1e-15;
        # re-pinned (was ad73bbb7...e488) when each row came to be written
        # once (see the class docstring)
        assert sha(rep.to_json()) == \
            "309894bed19bf2fdcaef4f2c882f33d1f976cd921f36552ae51bb16b5b833ece"
        assert [row[4:7] for row in rep.csv_summary_rows()[1:]] == \
            [[446, 446, 0], [734, 734, 0], [1370, 1370, 0], [2963, 2963, 0]]


class TestDiophRows:
    """The rows of a report are columns read as a sequence of DiophRows."""

    SPLIT = 2 ** 14   # a row index inside the probe's rows, well past 0

    @pytest.fixture(scope="class")
    def probe(self, prime_table):
        return almost_prime_round_trip(prime_table, 1, 2 ** 16)[0]

    def test_failures_count_every_failing_point(self, probe):
        assert len(probe.failures) == sum(s.n_fail for s in probe.levels)
        assert all(not r.passed for r in probe.failures)
        assert not probe.all_pass

    def test_iteration_equals_indexing(self, probe):
        rows = probe.rows
        assert len(rows) > self.SPLIT
        assert list(rows) == [rows[i] for i in range(len(rows))]

    def test_slices_and_negative_indices(self, probe):
        rows, n = probe.rows, len(probe.rows)
        lo, hi = self.SPLIT - 3, self.SPLIT + 3
        assert rows[lo:hi] == [rows[i] for i in range(lo, hi)]
        assert rows[-1] == rows[n - 1] and rows[-n] == rows[0]
        assert rows[n - 2:] == [rows[-2], rows[-1]]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                rows[bad]

    def test_rows_hold_builtin_values(self, probe):
        types = {"theta": float, "abs_sum": float, "level": float, "q": int,
                 "err": float, "passed": bool}
        rows = probe.rows
        for row in [rows[0], rows[-1], *rows[self.SPLIT - 1:self.SPLIT + 1],
                    next(iter(probe.failures))]:
            assert {k: type(v) for k, v in vars(row).items()} == types
            json.dumps(vars(row))

    def test_reports_compare_by_row_values(self, prime_table, probe):
        again = almost_prime_round_trip(prime_table, 1, 2 ** 16)[0]
        assert again == probe and again.rows is not probe.rows
        again.rows.columns["q"][-1] += 1
        assert again != probe

    def test_empty_report(self, tables_1e5):
        # Lambda(1) = 0, so at X = 1 no grid point is obligated
        rep = weyl_structure_scan(tables_1e5, 1, 1, 0.5, grid_points=1024)
        assert len(rep.rows) == 0 and list(rep.rows) == []
        assert rep.all_pass is True
        obj = json.loads(rep.to_json())
        assert obj["rows"] == []
        assert "failures" not in obj and "all_pass" not in obj

    @pytest.mark.parametrize("n", [5, 7])
    def test_wrong_column_count_raises(self, n):
        # one column per DiophRow field, no more and no fewer
        with pytest.raises(ValueError):
            DiophRows(*(np.zeros(1) for _ in range(n)))

    def test_verdict_builds_no_row(self, prime_table, monkeypatch):
        built = []

        class CountingRow(dioph.DiophRow):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(dioph, "DiophRow", CountingRow)
        fam = AlmostPrimeFamily.build(WINDOWS, 1, prime_table)
        rep = dioph_verify(fam.elements,
                           DiophParams(1, fam.k, float(fam.product_scale())),
                           LEVELS, grid_points=2 ** 20)
        assert len(rep.failures) == 478941 and not rep.all_pass
        assert built == []
        assert isinstance(rep.rows[0], CountingRow) and built == [1]


class TestVino:
    def test_alpha_zero(self):
        res = vino_verify(0.0, 1000, 1e-6, 0.125)
        assert res.hypothesis_holds and res.q == 1 and not res.alarm

    def test_one_fifth(self):
        res = vino_verify(0.2, 1000, 1e-6, 0.125)
        assert res.hypothesis_holds and res.q == 5 and not res.alarm

    def test_golden_ratio_fails_hypothesis(self):
        golden = (math.sqrt(5) - 1) / 2
        res = vino_verify(golden, 1000, 1e-8, 0.125)
        assert not res.hypothesis_holds and res.q is None

    def test_preconditions(self):
        with pytest.raises(DomainError):
            vino_verify(0.1, 1000, 0.01, 0.125)  # delta2 < 32 delta1
        with pytest.raises(DomainError):
            vino_verify(0.1, 10, 1e-6, 0.125)    # T < 16/delta2

    @pytest.mark.parametrize("alpha, delta1, delta2", [
        (math.nan, 1e-6, 0.125), (math.inf, 1e-6, 0.125),
        (0.2, math.nan, 0.125), (0.2, 1e-6, math.nan)])
    def test_non_finite_is_a_domain_error(self, alpha, delta1, delta2):
        # a NaN fails every comparison, so an unchecked one would read
        # as a false hypothesis
        with pytest.raises(DomainError):
            vino_verify(alpha, 1000, delta1, delta2)

    def test_seeded_draws_never_alarm(self):
        # near-rational alphas force the hypothesis often; the counting
        # lemma is a theorem, so an alarm means an implementation bug
        rng = np.random.default_rng(1729)
        alarms = 0
        held = 0
        for _ in range(1000):
            delta2 = float(rng.uniform(0.05, 0.4))
            delta1 = float(rng.uniform(1e-9, delta2 / 32.0))
            T = int(rng.integers(math.ceil(16 / delta2), 4000))
            if rng.random() < 0.7:
                q = int(rng.integers(1, max(2, int(1 / delta2)) + 1))
                a = int(rng.integers(0, q))
                alpha = a / q + float(rng.uniform(-1, 1)) * delta1 / (2 * T)
            else:
                alpha = float(rng.random())
            res = vino_verify(alpha, T, delta1, delta2)
            alarms += res.alarm
            held += res.hypothesis_holds
        assert alarms == 0
        assert held > 300  # the draw design must actually exercise the lemma

    @staticmethod
    def scan_q(alpha, qmax, thresh):
        # the linear scan over every q <= qmax that the walk replaced
        for q in range(1, qmax + 1):
            x = alpha * q
            if abs(x - round(x)) <= thresh:
                return q
        return None

    def test_q_equals_linear_scan(self):
        # the first passing convergent is the least passing q: seeded
        # near-rational and uniform alphas, shifted to negative values
        # and values >= 1, exact fractions a/q, and alpha = 0
        rng = np.random.default_rng(90210)
        held = found = 0
        for i in range(600):
            delta2 = float(rng.uniform(0.05, 0.4))
            delta1 = float(rng.uniform(1e-9, delta2 / 32.0))
            T = int(rng.integers(math.ceil(16 / delta2), 4000))
            q = int(rng.integers(1, max(2, int(1 / delta2)) + 1))
            a = int(rng.integers(0, q))
            if i % 3 == 0:
                alpha = a / q + float(rng.uniform(-1, 1)) * delta1 / (2 * T)
            elif i % 3 == 1:
                alpha = float(rng.random())
            else:
                alpha = a / q
            qmax = math.floor(16 / delta2)
            thresh = delta1 / (delta2 * T)
            for shift in (0, -3, 1, 4):
                x = 0.0 if i == 0 else alpha + shift
                res = vino_verify(x, T, delta1, delta2)
                if res.hypothesis_holds:
                    held += 1
                    want = self.scan_q(x, qmax, thresh)
                    assert res.q == want, (x, T, delta1, delta2)
                    assert res.alarm == (want is None)
                    found += want is not None
                else:
                    assert res.q is None and not res.alarm
        assert held > 800 and found > 800


class TestGamma:
    def test_singleton(self):
        assert gamma_coprimality([2], exact=True) == 1

    def test_two_three_exact(self):
        assert gamma_coprimality([2, 3], exact=True) == Fraction(17, 25)

    def test_equals_pairwise_oracle(self):
        for M in coprimality_multisets():
            want = pairwise_gamma(M)
            assert gamma_coprimality(M, exact=True) == want, M
            got = gamma_coprimality(M)
            assert type(got) is float and got.hex() == float(want).hex(), M

    def test_elements_above_int64(self):
        M = [2 ** 64, 6, 3 ** 41, 6]
        assert gamma_coprimality(M) == float(pairwise_gamma(M))
        assert gamma_coprimality(np.array(M, dtype=object)) == float(
            pairwise_gamma(M))

    def test_float_matches_exact(self):
        vals = [2, 3, 5, 9, 14]
        exact = gamma_coprimality(vals, exact=True)
        assert abs(gamma_coprimality(vals) - float(exact)) < 1e-12

    def test_prime_window_closed_form(self, prime_table):
        ps = prime_table.primes_array(2, 2000).tolist()
        direct = gamma_coprimality(ps)
        closed = gamma_prime_window(ps)
        assert abs(direct - closed) < 1e-10

    def test_nonnegative(self, prime_table):
        for hi in (50, 500, 5000):
            ps = prime_table.primes_array(2, hi).tolist()
            assert gamma_coprimality(ps) >= 0.0

    def test_family_product_identity(self, prime_table):
        fam = AlmostPrimeFamily.build([(2, 30), (30, 500)], 1, prime_table)
        direct = gamma_coprimality(fam.elements)
        via_product = gamma_family(fam)
        assert abs(direct - via_product) < 1e-9


class TestVonMangoldt:
    def test_x_one(self, tables_1e5):
        assert vonmangoldt_exp_sum(tables_1e5, 1, 1, 0.37) == 0.0

    def test_theta_zero_is_psi(self, tables_1e5):
        X = 10 ** 4
        got = vonmangoldt_exp_sum(tables_1e5, X, 1, 0.0)
        psi = math.fsum(tables_1e5.vonmangoldt[1: X + 1].tolist())
        assert got.real == psi and got.imag == 0.0

    def test_theta_half_closed_form(self, tables_1e5):
        X = 10 ** 4
        got = vonmangoldt_exp_sum(tables_1e5, X, 1, 0.5)
        psi = math.fsum(tables_1e5.vonmangoldt[1: X + 1].tolist())
        predicted = -psi + 2 * math.floor(math.log2(X)) * math.log(2)
        assert abs(got.real - predicted) < 1e-9

    @pytest.fixture
    def all_rows(self, monkeypatch):
        """Lift the row cap, so that a report's rows are every obligated
        point and not the first ROW_SAMPLE_CAP plus the failures."""
        monkeypatch.setattr(dioph, "ROW_SAMPLE_CAP", 2 ** 62)

    def test_weyl_scan_finds_small_denominators(self, tables_1e5):
        # at exponent 3 the level is live (error threshold 125/X); at the
        # default 6 it is vacuous at X = 10^4 and writes no rows
        M = 2 ** 18
        rep = weyl_structure_scan(tables_1e5, 10 ** 4, 1, 0.2, exponent=3.0,
                                  grid_points=M)
        assert not rep.levels[0].vacuous and rep.all_pass
        # at the grid points closest to 1/3 no q below the cap beats 3
        closest = [r for r in rep.rows if abs(r.theta - 1 / 3) <= 2.0 / M]
        assert closest and all(r.q == 3 for r in closest)
        at_zero = [r for r in rep.rows if r.theta == 0.0]
        assert at_zero and at_zero[0].q == 1

    def test_weyl_grid_too_small(self, tables_1e5):
        # the same floor as dioph_verify; M = 0 used to divide by zero
        for M in (0, 1, 15):
            with pytest.raises(DomainError, match="grid too small"):
                weyl_structure_scan(tables_1e5, 1000, 1, 0.2, grid_points=M)
        assert weyl_structure_scan(tables_1e5, 1000, 1, 0.2,
                                   grid_points=16).grid_points == 16

    def test_weyl_minor_arc_unobligated(self, tables_1e5, all_rows):
        # a generic irrational point: |sum| < eps X, so no row nearby
        rep = weyl_structure_scan(tables_1e5, 10 ** 4, 1, 0.2, exponent=3.0,
                                  grid_points=2 ** 18)
        assert len(rep.rows) == rep.levels[0].n_obligated > 0
        bad = (math.sqrt(2) - 1)
        assert not [r for r in rep.rows if abs(r.theta - bad) < 1e-3]

    def test_weyl_m2_spectrum_matches_direct(self, tables_1e5):
        # the residue-accumulated DFT must agree with direct evaluation;
        # abs_sum is |sum| / X
        X, M = 300, 4096
        rep = weyl_structure_scan(tables_1e5, X, 2, 0.5, grid_points=M)
        for r in rep.rows[:10]:
            direct = vonmangoldt_exp_sum(tables_1e5, X, 2, r.theta)
            assert abs(abs(direct) / X - r.abs_sum) < 1e-6

    def test_weyl_m3_spectrum_matches_direct(self, tables_1e5):
        # n^3 mod M by reduced products, on a grid that is not a power
        # of two
        X, M = 300, 5003
        rep = weyl_structure_scan(tables_1e5, X, 3, 0.3, grid_points=M)
        assert len(rep.rows) > 1
        for r in rep.rows[:10]:
            direct = vonmangoldt_exp_sum(tables_1e5, X, 3, r.theta)
            assert abs(abs(direct) / X - r.abs_sum) < 1e-6

    def test_weyl_residues_past_int64(self, tables_1e5):
        # 300^8 > 2^63, so n^m must be reduced as it is built; the rows
        # equal the spectrum of the exact pow(n, m, M) added in order
        # (vonmangoldt_exp_sum's float n^m has lost its digits here)
        X, m, M = 300, 8, 5003
        assert X ** m > 2 ** 63
        rep = weyl_structure_scan(tables_1e5, X, m, 0.2, grid_points=M)
        residues = np.array([pow(n, m, M) for n in range(1, X + 1)])
        want = add_at_spectrum(residues, tables_1e5.vonmangoldt[1: X + 1], M,
                               X)
        # the degree X^m - 1 makes the grid margin exceed eps/2, so the
        # check level is eps/2; every point passes, so the rows are the
        # first ROW_SAMPLE_CAP obligated points
        js = np.flatnonzero(want >= 0.5 * 0.2)
        assert rep.all_pass and rep.certified is False
        assert rep.levels[0].n_obligated == js.size > dioph.ROW_SAMPLE_CAP
        js = js[:dioph.ROW_SAMPLE_CAP]
        assert np.array_equal(np.rint(rep.rows.columns["theta"] * M), js)
        assert np.array_equal(rep.rows.columns["abs_sum"], want[js])

    @pytest.mark.parametrize("X,m,eps,M,E", [
        (10 ** 4, 1, 0.2, 2 ** 18, 2.1133),
        (300, 2, 0.5, 4096, 8.1581),
        (2000, 2, 0.5, 2 ** 16, 3.0),
    ])
    def test_weyl_empirical_E_is_exhaustive_minimum(self, tables_1e5,
                                                    all_rows, X, m, eps, M,
                                                    E):
        # the smallest E at which every obligated point has a good q is
        # a minimum over all q, so the configured exponent cannot move it
        reps = [weyl_structure_scan(tables_1e5, X, m, eps, exponent=ex,
                                    grid_points=M) for ex in (1.4, 3.0, 6.0)]
        assert len({rep.empirical_E for rep in reps}) == 1
        assert len(reps[0].rows) == reps[0].levels[0].n_obligated
        js = np.rint(reps[0].rows.columns["theta"] * M)
        worst = float(brute_keys(js, M, float(X) ** m).max())
        ref = math.log(worst) / math.log(1.0 / eps)
        assert reps[0].empirical_E == ref
        assert round(ref, 4) == E

    @staticmethod
    def unobligated_peaks(tables, X, M):
        """The points j'/(16 M) of a 16x denser grid where
        |sum_{n<=X} Lambda(n) e(n theta)| >= 0.2 X (a direct dense
        spectrum) and neither grid point j/M beside them is obligated
        by the scan; one such point is a theta the scan never checks."""
        lam = tables.vonmangoldt[1: X + 1]
        dense = add_at_spectrum(np.arange(1, X + 1), lam, 16 * M, X)
        peaks = np.flatnonzero(dense >= 0.2)
        assert peaks.size > 0
        rep = weyl_structure_scan(tables, X, 1, 0.2, exponent=3.0,
                                  grid_points=M)
        assert len(rep.rows) == rep.levels[0].n_obligated
        obligated = set(np.rint(rep.rows.columns["theta"] * M).tolist())
        return [k for k in peaks.tolist()
                if not {min(j, M - j) for j in (k // 16, -(-k // 16))}
                & obligated]

    def test_weyl_margin_covers_off_grid_peaks(self, tables_1e5):
        # the check level eps - pi (X - 1) psi(X) / (X M) obligates a
        # neighbour of every off-grid peak
        assert self.unobligated_peaks(tables_1e5, 10 ** 4, 2 ** 14) == []

    def test_weyl_without_margin_misses_off_grid_peaks(self, tables_1e5,
                                                       monkeypatch):
        # planted fault: sup |P| taken as 0, so the margin is 0 and the
        # check level is eps; some peak then has no obligated neighbour
        monkeypatch.setattr(dioph, "cfsum", lambda values: 0j)
        assert self.unobligated_peaks(tables_1e5, 10 ** 4, 2 ** 14)

    def test_weyl_required_spacing_past_the_float_range(self, tables_1e5):
        # 8 (X^m - 1) q cap is about 10^351 at a live level: the spacing
        # it asks for is below every float, not an OverflowError
        rep = weyl_structure_scan(tables_1e5, 10, 200, 0.2, exponent=214.0,
                                  grid_points=1024)
        assert not rep.levels[0].vacuous
        assert rep.required_spacing == 0.0 and rep.certified is False

    def test_weyl_margin_past_half_the_level_is_not_certified(self,
                                                               tables_1e5):
        # 8192 points meet the spacing 8 * 999 * 1 asks for, but the
        # margin pi 999 psi(1000) / (1000 * 8192) = 0.382 passes
        # eps / 2 = 0.35, so the check level eps / 2 misses some theta
        rep = weyl_structure_scan(tables_1e5, 1000, 1, 0.7, exponent=0.0,
                                  grid_points=8192)
        assert not rep.levels[0].vacuous
        assert 1.0 / rep.grid_points <= rep.required_spacing
        assert rep.certified is False

    def test_weyl_default_report_bytes(self, tables_1e5):
        # recorded from the scan whose empirical E came from the capped q;
        # re-pinned (was 28d69363...6eda01ae) when the spectrum became
        # block DFTs over [1, X]: only abs_sum moved, by < 1e-15; re-pinned
        # (was dbb68d85...491f) when the JSON lost `all_pass`, `failures`
        # and each row's `vacuous`, the old JSON less them equal to the
        # new; re-pinned (was f22f811c...56af9) when weyl took dioph's
        # scan: the grid margin 0.0749 lowers the check level to 0.1251,
        # abs_sum is |sum| / X, the rows are capped and the report gained
        # levels, certified and required_spacing
        rep = weyl_structure_scan(tables_1e5, 10 ** 5, 1, 0.2,
                                  grid_points=2 ** 22)
        (level,) = rep.levels
        assert level.n_obligated == level.n_pass == 700
        assert len(rep.rows) == dioph.ROW_SAMPLE_CAP
        assert rep.certified is False
        assert rep.required_spacing == 1.0 / (8 * 99999 * 15625)
        assert round(rep.empirical_E, 4) == 2.1133
        assert sha(rep.to_json()) == \
            "0bdb1768e59d2e7c047f66e71c5de878a0cb42884b8a0b65380cf3638b5d041e"

    def test_weyl_rejects_m_below_one(self, tables_1e5):
        with pytest.raises(DomainError):
            weyl_structure_scan(tables_1e5, 100, 0, 0.2, grid_points=1024)

    @pytest.mark.parametrize("X", [0, -5])
    def test_weyl_rejects_X_below_one(self, tables_1e5, X):
        # the same check as vonmangoldt_exp_sum's
        with pytest.raises(DomainError, match=r"need X, m >= 1"):
            weyl_structure_scan(tables_1e5, X, 1, 0.2, grid_points=1024)

    @pytest.mark.parametrize("exponent", [-500.0, -1e-9, float("nan")])
    def test_weyl_rejects_negative_or_nan_exponent(self, tables_1e5,
                                                   exponent):
        # eps^-exponent would be a cap below 1 (0 after underflow)
        with pytest.raises(DomainError, match="exponent must be >= 0"):
            weyl_structure_scan(tables_1e5, 1000, 1, 0.2, exponent=exponent,
                                grid_points=4096)


class TestConcat:
    def test_constant_hypothesis(self):
        f = SampledFunction.constant(1.0, 1, 600 + 5 * 9)
        assert abs(concat_hypothesis(f, 600, [1, 5, 9], 5) - 1.0) < 1e-12

    def test_even_set_kills_half_phase(self):
        S = [2, 4, 6, 8]
        T, N = 5, 500
        f = SampledFunction.from_phase(0.5, 1, N + T * 8)
        assert abs(concat_hypothesis(f, N, S, T) - 1.0) < 1e-12

    def test_matches_naive_quadruple_loop(self):
        rng = np.random.default_rng(77)
        N, T = 500, 5
        S = [1, 3, 4, 7, 11]
        f = SampledFunction.random_disc(rng, 1, N + T * 11)
        got = concat_hypothesis(f, N, S, T)
        num = 0.0
        hn = 0.0
        for n in range(1, N + 1):
            inner = 0.0
            for s in S:
                for t in range(1, T + 1):
                    for tp in range(1, T + 1):
                        inner += (f.values[(n + t * s) - 1]
                                  * np.conj(f.values[(n + tp * s) - 1])).real
            num += inner / (len(S) * T * T) / n
            hn += 1.0 / n
        assert abs(got - num / hn) < 1e-10

    @pytest.mark.parametrize("mode, expected", [
        ("log", "0.10485880664319687"),
        ("uniform", "0.07454702553149677"),
    ])
    def test_hypothesis_pinned(self, mode, expected):
        # repr recorded from the code before the shifts were read
        # through SampledFunction.slice, on the seeded sqrt(u) e(v) disc
        # function; S has a negative step
        rng, n = np.random.default_rng(11), 121
        radii = np.sqrt(rng.random(n))
        values = radii * np.exp(2j * np.pi * rng.random(n))
        f = SampledFunction(-30, 90, values, bound=1.0)
        assert repr(concat_hypothesis(f, 40, [-3, 1, 2], 5, mode)) == expected

    @pytest.mark.parametrize("mode", ["log", "uniform"])
    @pytest.mark.parametrize("S", [[1, 5, 9], [-3, 1, 2], [-7, -2], [0],
                                   [4, -4, 0, 3]])
    def test_equals_per_shift_reference(self, mode, S):
        N, T = 150, 6
        f = SampledFunction.random_disc(np.random.default_rng(5), -200, 400)
        per_n = np.zeros(N)
        for s in S:
            acc = np.zeros(N, dtype=np.complex128)
            for t in range(1, T + 1):
                a = 1 + t * s - f.lo   # f.values[a] = f(1 + t*s)
                acc += f.values[a:a + N]
            per_n += np.abs(acc / T) ** 2
        per_n /= len(S)
        mean = log_avg if mode == "log" else uniform_avg
        want = mean(SampledFunction(1, N, per_n), N).real
        assert concat_hypothesis(f, N, S, T, mode) == want

    @pytest.mark.parametrize("lo, hi, S, need", [
        (1, 100, [-3, 2], "[-14, 90]"),
        (-30, 100, [-3, 5], "[-14, 105]"),
        (1, 100, [4, 5], "[1, 105]")])
    def test_range_error_text(self, lo, hi, S, need):
        f = SampledFunction.constant(0.5, lo, hi)
        with pytest.raises(RangeError) as err:
            concat_hypothesis(f, 80, S, 5)
        assert str(err.value) == (f"concat_hypothesis needs f on {need} "
                                  f"but window is [{lo}, {hi}]")

    def test_window_checked_once(self, monkeypatch):
        calls = []
        covers = SampledFunction.covers

        def spy(self, lo, hi):
            calls.append((lo, hi))
            return covers(self, lo, hi)

        monkeypatch.setattr(SampledFunction, "covers", spy)
        concat_hypothesis(SampledFunction.constant(0.5, -30, 120), 80,
                          [-3, 1, 2], 5)
        assert calls == [(-14, 90)]

    def test_conclusion_constant(self):
        f = SampledFunction.constant(1.0, 1, 3000)
        q, norm = concat_conclusion_search(f, 2000, 8, 5)
        assert q == 1 and abs(norm - 1.0) < 1e-12

    def test_conclusion_three_periodic(self):
        N, H = 4000, 50
        f = SampledFunction.from_phase(1.0 / 3.0, 1, N + 8 * H)
        q, norm = concat_conclusion_search(f, N, H, 8)
        assert q == 3 and norm > 0.99

    def test_conclusion_near_rational(self):
        N, H = 5000, 50
        f = SampledFunction.from_phase(1.0 / 3.0 + 1e-6, 1, N + 8 * H)
        q, norm = concat_conclusion_search(f, N, H, 8)
        assert q == 3 and norm > 0.99

    def test_end_to_end_probe(self):
        # constructed instances where the hypothesis level is delta = 0.8
        # with (L, L') = (1, 1): qmax = ceil((1/0.8)^8) = 6 and the norm
        # floor is 0.8^25.  The lemma's own N-size precondition
        # (log TD / log N tiny) is unattainable at desk scale and the
        # feasible H here is below the stated cap; the conclusion is
        # checked as stated, which is the harder direction.
        L = Lp = 1.0
        delta = 0.8
        qmax = math.ceil((Lp / delta) ** (8 * L))
        floor = (delta / Lp) ** (25 * L)
        N, T = 10 ** 4, 24
        S = np.arange(3, 3001, 3)
        for alpha in (1.0 / 3.0, 1.0 / 3.0 + 1e-7):
            f = SampledFunction.from_phase(alpha, 1, N + T * 3000)
            hyp = concat_hypothesis(f, N, S, T)
            assert hyp >= delta
            q, norm = concat_conclusion_search(f, N, 2, qmax)
            assert q <= qmax and norm >= floor


def dense_peaks(residues, weights, M, lo, width, floor, count=1):
    """_grid_peaks as one full real DFT over the grid, whatever the window:
    the dense spectrum every scan took before the block DFTs."""
    absvals = np.abs(np.fft.rfft(np.bincount(residues, weights,
                                             minlength=M))) / count
    js = np.flatnonzero(absvals >= floor)
    return js, absvals[js]


def add_at_spectrum(residues, weights, M, count=1):
    """|sum_i w_i e(j r_i / M)| / count for j <= M/2 by sequential adds."""
    acc = np.zeros(M, dtype=np.float64)
    np.add.at(acc, residues, weights)
    return np.abs(np.fft.rfft(acc)) / count


def clear_floors(vals):
    """Floors that no value lies within 1e-9 of, at or above 1e-3 of the
    largest value (below it a 1e-12 relative bound would measure only
    rounding), plus one floor above every value."""
    u = np.sort(vals)
    top = float(u[-1]) if u.size else 0.0
    floors = [2.0 * top + 1.0]
    if top > 0 and u[0] >= 1e-3 * top:
        floors.append(float(u[0]) / 2)
    gaps = np.flatnonzero((u[1:] > u[:-1] * (1 + 1e-9) + 1e-300)
                          & (u[:-1] >= 1e-3 * top))
    floors += ((u[gaps] + u[gaps + 1]) / 2).tolist()
    return floors


class TestSpectrumGrid:
    """_grid_peaks against two oracles: exp_sum point by point, and the
    dense real DFT of weights added one by one (np.add.at)."""

    def test_spectrum_matches_exp_sum(self):
        rng = np.random.default_rng(4)
        S = np.sort(rng.choice(np.arange(1, 5000), size=120, replace=False))
        diam = int(S[-1] - S[0])
        # 1024 < diam takes the full DFT; 2^16 the blocks (P = 8192, K = 8)
        for M in (1024, 2 ** 16):
            js, vals = dioph._grid_peaks(
                np.mod(S, M), np.ones(S.size), M, int(S[0]) % M, diam + 1,
                0.0, S.size)
            assert np.array_equal(js, np.arange(M // 2 + 1))
            for j in (0, 1, 17, 333, 512, M // 2 - 1, M // 2):
                direct = abs(exp_sum(S, j / M))
                assert abs(vals[j] - direct) < 1e-9, (M, j)

    def test_vals_are_owned(self):
        # neither path hands back a view of the spectrum it read from
        S = np.arange(1, 121)
        for M in (64, 2 ** 12):  # P = 128: one full DFT, then 32 blocks
            js, vals = dioph._grid_peaks(np.mod(S, M), np.ones(S.size), M,
                                         1, S.size, 0.1, S.size)
            assert js.size and vals.base is None, M

    @pytest.mark.parametrize("weighted", [False, True])
    def test_residue_spectrum_equals_add_at(self, weighted):
        # a window as wide as the grid takes the bincount kernel, which
        # must reproduce sequential accumulation bit for bit, so every
        # artifact built on it keeps its bytes
        rng = np.random.default_rng(11)
        M = 4096
        residues = rng.integers(0, M, size=20000)  # many repeats
        weights = (rng.standard_normal(residues.size) if weighted
                   else np.ones(residues.size))
        want = add_at_spectrum(residues, weights, M)
        for floor in (0.0, float(np.median(want))):
            js, vals = dioph._grid_peaks(residues, weights, M, 0, M, floor)
            assert np.array_equal(js, np.flatnonzero(want >= floor))
            assert np.array_equal(vals, want[js])

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(4, 12), mult=st.sampled_from([1, 3, 5]),
           lo_frac=st.floats(0, 1, exclude_max=True),
           offsets=st.lists(st.integers(0, 4095), min_size=1, max_size=40),
           signed=st.lists(st.floats(-2, 2), min_size=40, max_size=40)
           | st.none(),
           pick=st.integers(0, 10 ** 6))
    # a window that wraps past M (60..69 mod 64); a single element; diam + 1
    # exactly a power of two; M/P = 2 (both blocks their own mirrors);
    # signed weights
    @example(k=6, mult=1, lo_frac=60 / 64, offsets=[0, 3, 9], signed=None,
             pick=1)
    @example(k=8, mult=1, lo_frac=0.3, offsets=[0], signed=None, pick=1)
    @example(k=8, mult=1, lo_frac=0.5, offsets=[0, 5, 63], signed=None,
             pick=2)
    @example(k=7, mult=1, lo_frac=0.1, offsets=[0, 40, 50], signed=None,
             pick=3)
    @example(k=9, mult=1, lo_frac=0.9, offsets=[0, 7, 7, 30, 100],
             signed=[-1.5, 0.25, 2.0, -0.75, 1.0] * 8, pick=4)
    def test_property_equals_dense_rfft(self, k, mult, lo_frac, offsets,
                                        signed, pick):
        M = mult * 2 ** k
        offsets = [o % M for o in offsets]
        base = min(offsets)
        width = max(offsets) - base + 1
        lo = int(lo_frac * M)
        residues = (lo + np.array(offsets) - base) % M
        weights = (np.ones(residues.size) if signed is None
                   else np.array(signed[:residues.size]))
        want = add_at_spectrum(residues, weights, M, residues.size)
        floors = clear_floors(want)
        floor = floors[pick % len(floors)]
        js, vals = dioph._grid_peaks(residues, weights, M, lo, width, floor,
                                     residues.size)
        want_js = np.flatnonzero(want >= floor)
        assert np.array_equal(js, want_js)
        assert np.allclose(vals, want[want_js], rtol=1e-12, atol=0)


def assert_rows_equivalent(got, ref):
    """Equal rows but for abs_sum, which agrees within 1e-12 relative."""
    assert len(got) == len(ref)
    for name, col in got.columns.items():
        if name == "abs_sum":
            assert np.allclose(col, ref.columns[name], rtol=1e-12, atol=0)
        else:
            assert np.array_equal(col, ref.columns[name]), name


class TestBlockSpectrumReports:
    """Scan reports from the block DFTs equal, row by row, those from the
    dense spectrum (dense_peaks, patched in for _grid_peaks)."""

    @staticmethod
    def dioph_pair(monkeypatch, S, params, grid_points):
        got = dioph_verify(S, params, LEVELS, grid_points,
                           want_empirical_L=True)
        with monkeypatch.context() as m:
            m.setattr(dioph, "_grid_peaks", dense_peaks)
            ref = dioph_verify(S, params, LEVELS, grid_points,
                               want_empirical_L=True)
        return got, ref

    @pytest.mark.parametrize("case", ["cli-default", "q-cap", "round-trip",
                                      "wrapping-almost-prime"])
    def test_dioph_reports(self, monkeypatch, prime_table, case):
        if case == "cli-default":
            S, params, M = np.arange(1, 1001), DiophParams(2, 8, 1000.0), \
                2 ** 22
        elif case == "q-cap":
            S, params, M = np.arange(1, 101), DiophParams(40, 8, 1e300), \
                2 ** 16
        else:
            # round-trip: TestDiophPinned's family, diam > M (full DFT);
            # wrapping: residues run from 2,021,027 past M = 2^21 to
            # 2,302,603 - M, so diam < M and P = 2^19
            windows, M = ((WINDOWS, 2 ** 16) if case == "round-trip"
                          else ([(1000, 1100), (2000, 2100)], 2 ** 21))
            fam = AlmostPrimeFamily.build(windows, 1, prime_table)
            S = fam.elements
            params = DiophParams(1, fam.k, float(fam.product_scale()))
            if case != "round-trip":
                assert int(S[0]) % M + int(S[-1] - S[0]) >= M > S[-1] - S[0]
        got, ref = self.dioph_pair(monkeypatch, S, params, M)
        assert got.levels == ref.levels
        assert got.empirical_L == ref.empirical_L
        assert sum(s.n_obligated for s in got.levels) > 0
        assert_rows_equivalent(got.rows, ref.rows)

    @pytest.mark.parametrize("X,m", [(10 ** 5, 1), (1000, 2)])
    def test_weyl_reports(self, monkeypatch, tables_1e5, X, m):
        # (10^5, 1) is the CLI default (P = 2^17); at (1000, 2) the
        # residues n^2 fill [1, 10^6] (P = 2^20, K = 4)
        got = weyl_structure_scan(tables_1e5, X, m, 0.2)
        with monkeypatch.context() as mp:
            mp.setattr(dioph, "_grid_peaks", dense_peaks)
            ref = weyl_structure_scan(tables_1e5, X, m, 0.2)
        assert len(got.rows) > 0
        assert got.empirical_E == ref.empirical_E
        assert_rows_equivalent(got.rows, ref.rows)


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSignalSizedMemory:
    """The default scans hold arrays of the signal's size, not the grid's
    (a 2^22-point real DFT alone takes 64 MB)."""

    BOUND = 16 * 2 ** 20

    def test_dioph_verify(self):
        assert traced_peak(lambda: dioph_verify(
            np.arange(1, 1001), DiophParams(2, 8, 1000.0),
            [0.05, 0.1, 0.2, 0.4], 2 ** 22)) < self.BOUND

    def test_weyl_structure_scan(self, tables_1e5):
        assert traced_peak(lambda: weyl_structure_scan(
            tables_1e5, 10 ** 5, 1, 0.2, grid_points=2 ** 22)) < self.BOUND


class TestDifferencePreset:
    def test_two_difference_statistic(self):
        # the iterated statistic is the plain hypothesis applied to a
        # differenced function
        from sumprod.averages import difference
        rng = np.random.default_rng(12)
        N, T = 400, 4
        S = [2, 5, 8]
        f = SampledFunction.random_disc(rng, -100, N + T * 8 + 100)
        g = difference(f, 3, 1)
        assert g.bound == 1.0
        val = concat_hypothesis(g, N, S, T)
        # direct: E^log_n E_s |E_t g(n + ts)|^2 with g spelled out
        num = 0.0
        hn = 0.0
        for n in range(1, N + 1):
            inner = 0.0
            for s in S:
                acc = 0.0 + 0.0j
                for t in range(1, T + 1):
                    m = n + t * s
                    acc += (f.values[(m + 3) - f.lo]
                            * np.conj(f.values[(m + 1) - f.lo]))
                inner += abs(acc / T) ** 2
            num += inner / len(S) / n
            hn += 1.0 / n
        assert abs(val - num / hn) < 1e-10
