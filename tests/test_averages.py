import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sumprod import averages
from sumprod.averages import (SampledFunction, cfsum, difference,
                              dilate_defect, elliott_defect,
                              frobenius_defect, log_avg, residue_split_defect,
                              shift_defect, uniform_avg)
from sumprod.errors import DomainError, RangeError
from sumprod.numtheory import harmonic


def disc(seed, lo, hi):
    return SampledFunction.random_disc(np.random.default_rng(seed), lo, hi)


def sqrt_e_disc(seed, lo, hi):
    """Values uniform on the closed unit disc as sqrt(u) * e(v), for the
    size radius uniforms u and then the size angle uniforms v of the
    seeded stream.  The pins of the averaging code are taken on these
    values, so that they do not move with random_disc's sampler."""
    rng, n = np.random.default_rng(seed), hi - lo + 1
    radii = np.sqrt(rng.random(n))
    return SampledFunction(lo, hi, radii * np.exp(2j * np.pi * rng.random(n)),
                           bound=1.0)


def disc_reference(rng, n):
    """random_disc's contract, one pair at a time: the first n pairs
    (2u - 1, 2u' - 1) of the stream with x*x + y*y <= 1, as x + iy."""
    out = []
    while len(out) < n:
        x = 2.0 * rng.random() - 1.0
        y = 2.0 * rng.random() - 1.0
        if x * x + y * y <= 1.0:
            out.append(complex(x, y))
    return np.array(out, dtype=np.complex128)


class TestSampledFunction:
    def test_bound_enforced(self):
        with pytest.raises(DomainError):
            SampledFunction(1, 3, np.array([1.0, 2.5, 0.0]), bound=1.0)

    def test_oob_counted(self):
        f = SampledFunction.constant(1.0, 1, 10)
        vals = f.at(np.array([0, 5, 11, 200]))
        assert f.oob_events == 3
        assert vals.tolist() == [0.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("start, step, count", [
        (1, 1, 50), (3, 7, 7), (50, 1, 1),            # inside
        (0, 1, 10), (45, 2, 5), (-6, 5, 12),          # partly outside
        (1, 1, 51), (47, 4, 2),                       # one past the end
        (51, 1, 4), (-30, 3, 5), (1, 1, 0)])          # outside or empty
    def test_progression_matches_at(self, start, step, count):
        f, g = disc(9, 1, 50), disc(9, 1, 50)
        got = f.progression(start, step, count)
        want = g.at(start + step * np.arange(count, dtype=np.int64))
        assert got.tolist() == want.tolist()
        assert f.oob_events == g.oob_events

    def test_progression_inside_is_a_view(self):
        f = disc(9, -5, 50)
        view = f.progression(-4, 6, 9)
        assert np.shares_memory(view, f.values)
        assert view.tolist() == f.values[1:50:6].tolist()
        assert f.oob_events == 0

    def test_difference_operator(self):
        f = disc(7, 1, 50)
        g = difference(f, 2, 5)
        n = 10
        expected = f.values[(n + 2) - 1] * np.conj(f.values[(n + 5) - 1])
        assert g.lo == -1 and g.hi == 45
        assert abs(g.values[n - g.lo] - expected) < 1e-15

    @pytest.mark.parametrize("h, hp, lo, hi, digest", [
        (3, -2, -3, 37,
         "87d750b1cf0fb065095465b64cccbb41f7b3366d4ed1de33e965546e167fb4ab"),
        (-4, 0, -1, 40,
         "2065bbc11bc59f05f58f742c233faa07e21e171380a1c68992c557aad1752f3f"),
        (0, 0, -5, 40,
         "88c62c2dbb9906d629749e51034cc32c1e5f3710acab61b33b4f741ecf41ca35"),
    ])
    def test_difference_values_pinned(self, h, hp, lo, hi, digest):
        # sha256 of repr(values.tolist()), recorded from the code before
        # difference read its shifts through SampledFunction.slice
        g = difference(sqrt_e_disc(7, -5, 40), h, hp)
        assert (g.lo, g.hi) == (lo, hi)
        text = repr(g.values.tolist())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestWindowConstruction:
    BLOCK = averages._CHUNK

    @pytest.mark.parametrize("lo, hi", [(5, 4), (5, 2), (0, -10)])
    @pytest.mark.parametrize("make", [
        SampledFunction.random_disc, SampledFunction.random_nonneg,
        lambda rng, lo, hi: SampledFunction.constant(0.5, lo, hi)],
        ids=["random_disc", "random_nonneg", "constant"])
    def test_empty_window_rejected_before_drawing(self, make, lo, hi):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(DomainError, match="empty sample window"):
            make(rng, lo, hi)
        assert rng.random() == ref.random()

    SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]

    @pytest.mark.parametrize("n", SIZES)
    def test_random_disc_bits_match_unblocked_draw(self, n):
        # the unblocked draw is the one-pair-at-a-time rejection loop
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        f = SampledFunction.random_disc(rng, -7, n - 8)
        want = disc_reference(ref, n)
        assert np.array_equal(f.values.view(np.uint64),
                              want.view(np.uint64))
        assert rng.random() == ref.random()

    def test_random_disc_shorter_window_is_a_prefix(self):
        n = 3 * self.BLOCK + 5
        whole = disc(29, 1, n).values
        for m in (1, self.BLOCK - 1, self.BLOCK + 1, 2 * self.BLOCK):
            assert np.array_equal(disc(29, 1, m).values.view(np.uint64),
                                  whole[:m].view(np.uint64))

    def test_random_disc_does_not_depend_on_the_chunk(self, monkeypatch):
        n = 2 * self.BLOCK + 3
        rng = np.random.default_rng(31)
        want = SampledFunction.random_disc(rng, 0, n - 1).values
        monkeypatch.setattr(averages, "_CHUNK", 7)
        small = np.random.default_rng(31)
        got = SampledFunction.random_disc(small, 0, n - 1).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert small.bit_generator.state == rng.bit_generator.state

    def test_random_disc_is_uniform_on_the_disc(self):
        z = disc(1729, 1, 10 ** 6).values
        r2 = z.real ** 2 + z.imag ** 2
        assert float(np.max(np.abs(z))) <= 1.0
        # E|z|^2 = 1/2, with standard error sqrt(1/12 / 10^6) = 2.9e-4
        assert abs(float(np.mean(r2)) - 0.5) <= 0.002
        # 36 equal angle sectors: chi-square with 35 degrees of freedom,
        # whose 0.999 quantile is 66.6
        counts, _ = np.histogram(np.angle(z), bins=36, range=(-np.pi, np.pi))
        expected = len(z) / 36
        assert float(np.sum((counts - expected) ** 2 / expected)) < 66.6

    def test_e_of_bits_match_numpy(self):
        x = np.concatenate([
            np.linspace(-3.5e6, 2e6, 4001), np.arange(-40.0, 41.0),
            [1e15, -1e15, 2.0 ** 60, 0.0, -0.0, 0.25, -0.75]])
        assert np.array_equal(averages.e_of(x).view(np.uint64),
                              np.exp(2j * np.pi * x).view(np.uint64))

    @pytest.mark.parametrize("n", SIZES)
    def test_random_nonneg_bits_match_unblocked_draw(self, n):
        rng, ref = np.random.default_rng(19), np.random.default_rng(19)
        f = SampledFunction.random_nonneg(rng, -7, n - 8)
        want = ref.random(n).astype(np.complex128)
        assert np.array_equal(f.values.view(np.uint64),
                              want.view(np.uint64))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("alpha", [0.5, math.sqrt(2) - 1, -3.7e-5])
    def test_from_phase_bits_match_unblocked(self, n, alpha):
        f = SampledFunction.from_phase(alpha, -7, n - 8)
        want = averages.e_of(alpha * np.arange(-7, n - 7, dtype=np.float64))
        assert np.array_equal(f.values.view(np.uint64),
                              want.view(np.uint64))

    @staticmethod
    def assert_one_buffer(make):
        make(1, 10 ** 6)   # warm-up
        tracemalloc.start()
        try:
            f = make(1, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * f.values.nbytes

    def test_random_disc_builds_one_buffer(self):
        rng = np.random.default_rng(5)
        self.assert_one_buffer(
            lambda lo, hi: SampledFunction.random_disc(rng, lo, hi))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5])
    @pytest.mark.parametrize("size, at", [
        (3 * BLOCK, BLOCK + 3), (2 * BLOCK + 10, 2 * BLOCK + 5)])
    def test_bound_check_in_every_block(self, bad, size, at):
        vals = np.zeros(size, dtype=np.complex128)
        vals[at] = bad
        with pytest.raises(DomainError, match="exceed declared bound") as ex:
            SampledFunction(0, size - 1, vals)
        if bad == 1.5:
            assert str(ex.value) == "values exceed declared bound: 1.5 > 1.0"

    def test_nan_rejected(self):
        with pytest.raises(DomainError, match="exceed declared bound"):
            SampledFunction(0, 2, [0, math.nan, 0])


class TestLogAvg:
    def test_constant(self):
        assert log_avg(SampledFunction.constant(1.0, 1, 200), 100) == 1.0

    def test_even_indicator(self):
        f = SampledFunction.from_callable(
            lambda n: 1.0 if n % 2 == 0 else 0.0, 1, 4)
        assert abs(log_avg(f, 2) - 1.0 / 3.0) < 1e-15

    def test_phase_against_high_precision(self):
        # 50-digit weighted summation as the independent oracle (a true
        # common-denominator rational sum is infeasible at this N)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        N = 10 ** 4
        f = SampledFunction.from_phase(0.37, 1, N)
        got = log_avg(f, N)
        re = mp.mpf(0)
        im = mp.mpf(0)
        hn = mp.mpf(0)
        for n in range(1, N + 1):
            w = mp.mpf(1) / n
            re += mp.cos(2 * mp.pi * mp.mpf(0.37) * n) * w
            im += mp.sin(2 * mp.pi * mp.mpf(0.37) * n) * w
            hn += w
        want = complex(float(re / hn), float(im / hn))
        assert abs(got - want) < 1e-10

    def test_domain_and_range(self):
        f = SampledFunction.constant(1.0, 1, 10)
        with pytest.raises(DomainError):
            log_avg(f, 0)
        with pytest.raises(RangeError):
            log_avg(f, 11)

    def test_linearity(self):
        N = 2000
        f, g = disc(1, 1, N), disc(2, 1, N)
        a, b = 0.3 - 0.4j, -0.5 + 0.1j
        comb = SampledFunction(1, N, a * f.values + b * g.values, bound=2.0)
        lhs = log_avg(comb, N)
        rhs = a * log_avg(f, N) + b * log_avg(g, N)
        assert abs(lhs - rhs) < 1e-12

    def test_modulus_below_bound(self):
        for seed in range(10):
            f = disc(seed, 1, 3000)
            assert abs(log_avg(f, 3000)) <= f.bound
            assert abs(uniform_avg(f, 3000)) <= f.bound


class TestUniformAvg:
    def test_constant(self):
        c = 0.5 - 0.25j
        assert uniform_avg(SampledFunction.constant(c, 1, 100), 64) == c

    def test_half_indicator(self):
        N = 100
        f = SampledFunction.from_callable(
            lambda n: 1.0 if n <= N // 2 else 0.0, 1, N)
        assert uniform_avg(f, N) == 0.5

    def test_matches_naive_loop(self):
        N = 500
        f = disc(3, 1, N)
        naive = sum(complex(f.values[n - 1]) for n in range(1, N + 1)) / N
        assert abs(uniform_avg(f, N) - naive) < 1e-12


class TestShiftDefect:
    def test_constant_zero(self):
        f = SampledFunction.constant(1.0, -200, 10 ** 4 + 200)
        assert shift_defect(f, 10 ** 4, 17, "log").lhs == 0.0

    def test_uniform_boundary_exact(self):
        # indicator of [1, N] with N a power of two: loss is exactly 1/N
        N = 128
        f = SampledFunction.from_callable(
            lambda n: 1.0 if 1 <= n <= N else 0.0, 0, N + 2)
        rec = shift_defect(f, N, 1, "uniform")
        assert rec.lhs == 1.0 / N

    def test_log_h_zero_rejected(self):
        f = SampledFunction.constant(1.0, 1, 100)
        with pytest.raises(DomainError):
            shift_defect(f, 50, 0, "log")

    def test_oob_surfaced(self):
        f = SampledFunction.constant(1.0, 1, 100)
        rec = shift_defect(f, 100, 5, "log")
        assert rec.params["oob"] == 5


class TestResidueSplitDefect:
    def test_constant_zero(self):
        f = SampledFunction.constant(1.0, 1, 4 * 10 ** 3 + 4)
        rec = residue_split_defect(f, 10 ** 3, 4)
        assert rec.lhs < 1e-15

    def test_identity_split(self):
        f = disc(5, 1, 2000)
        rec = residue_split_defect(f, 1000, 1)
        assert rec.lhs == 0.0

    def test_periodic_phase_within_bound(self):
        q, N = 3, 10 ** 4
        f = SampledFunction.from_callable(
            lambda n: np.exp(2j * np.pi * (n % q) / q), 1, q * N + q)
        rec = residue_split_defect(f, N, q)
        assert rec.lhs <= rec.bound


class TestFrobeniusDefect:
    def test_constant_zero(self):
        f = SampledFunction.constant(1.0, 1, 3 * 10 ** 3 + 500)
        rec = frobenius_defect(f, 10 ** 3, 3, 2, 100)
        assert rec.lhs < 1e-14

    def test_degenerate_q1(self):
        f = disc(11, 1, 2200)
        rec = frobenius_defect(f, 2000, 1, 1, 100)
        assert rec.lhs <= rec.bound

    def test_coprimality_required(self):
        f = SampledFunction.constant(1.0, 1, 100)
        with pytest.raises(DomainError):
            frobenius_defect(f, 50, 2, 4, 10)


class TestWindowChecks:
    """Each read names its operation when f's window misses [1, N]."""

    @pytest.mark.parametrize("read, name", [
        (lambda f: log_avg(f, 50), "log_avg"),
        (lambda f: uniform_avg(f, 50), "uniform_avg"),
        (lambda f: dilate_defect(f, 50, 3), "dilate_defect")])
    def test_range_error_text(self, read, name):
        f = SampledFunction.constant(0.5, 5, 60)
        with pytest.raises(RangeError) as err:
            read(f)
        assert str(err.value) == \
            f"{name} needs f on [1, 50] but window is [5, 60]"

    def test_slice_default_label(self):
        with pytest.raises(RangeError) as err:
            disc(1, 1, 10).slice(0, 4)
        assert str(err.value) == \
            "operation needs f on [0, 4] but window is [1, 10]"


class TestDilateDefect:
    def test_q_one_zero(self):
        f = disc(13, 1, 5000)
        assert dilate_defect(f, 5000, 1).lhs == 0.0

    def test_constant_exact_harmonic(self):
        N, q = 10 ** 4, 7
        f = SampledFunction.constant(1.0, 1, N)
        rec = dilate_defect(f, N, q)
        expected = (harmonic(N) - harmonic(N // q)) / harmonic(N)
        assert abs(rec.lhs - expected) < 1e-15
        assert rec.ratio < 10

    @pytest.mark.parametrize("q", [1, 2, 7, 50, 51, 400])
    def test_equals_two_sum_reference(self, q):
        # the tail sum over m <= N/q, taken apart; 0.0 when q > N
        N = 50
        f = disc(q, -3, 60)
        w = 1.0 / np.arange(1, N + 1)
        v = f.values[4:4 + N]   # f(1), ..., f(N)
        m = N // q
        full = cfsum(v * w)
        sub = cfsum(v[:m] * w[:m]) if m >= 1 else 0.0
        assert dilate_defect(f, N, q).lhs == abs(full - sub) / harmonic(N)


class TestElliottDefect:
    PRIMES = (2, 3, 5, 7, 11)

    def test_constant_full_range_zero(self):
        N = 2000
        f = SampledFunction.constant(1.0, 1, self.PRIMES[-1] * N)
        rec = elliott_defect(f, N, self.PRIMES)
        assert rec.lhs < 1e-12

    def test_constant_truncated_within_bound(self):
        N = 2000
        f = SampledFunction.constant(1.0, 1, N)
        rec = elliott_defect(f, N, self.PRIMES)
        assert 0 < rec.lhs <= rec.bound
        assert rec.params["oob"] > 0

    def test_half_phase_odd_primes(self):
        # e(n/2) is invariant under dilation by odd primes
        N = 10 ** 4
        odd = [p for p in range(3, 101)
               if all(p % d for d in range(2, p))]
        f = SampledFunction.from_phase(0.5, 1, odd[-1] * N)
        rec = elliott_defect(f, N, odd)
        assert rec.lhs <= rec.bound

    def test_completely_multiplicative_on_set(self):
        # f(n) = e(alpha * #bad prime factors); f(p) = 1 on the set
        N = 10 ** 4
        hi = self.PRIMES[-1] * N
        bad_count = np.zeros(hi + 1, dtype=np.int64)
        for p in range(2, hi + 1):
            if p in self.PRIMES:
                continue
            if all(p % d for d in range(2, math.isqrt(p) + 1)):
                pk = p
                while pk <= hi:
                    bad_count[pk::pk] += 1
                    pk *= p
        vals = np.exp(2j * np.pi * 0.31 * bad_count[1:])
        f = SampledFunction(1, hi, vals, bound=1.0)
        rec = elliott_defect(f, N, self.PRIMES)
        assert rec.lhs <= rec.bound

    def test_preconditions(self):
        f = SampledFunction.constant(1.0, 1, 100)
        with pytest.raises(DomainError):
            elliott_defect(f, 100, [])
        with pytest.raises(DomainError):
            elliott_defect(f, 100, [2, 101])

    @pytest.mark.parametrize("primes, message", [
        ([], "prime set must be nonempty"),
        ([2, 101], "need all primes <= N"),
        ([2, 4], "4 is not prime"),
        ([9, 3], "9 is not prime"),
        ([1, 2], "1 is not prime"),
        ([0, 5], "0 is not prime")])
    def test_prime_set_checked_by_defect_and_reads(self, primes, message):
        # checked in the order nonempty, <= N, prime, before any value
        # of the window is read
        f = _ReadSpy(1, 100, np.ones(100))
        with pytest.raises(DomainError) as err:
            elliott_defect(f, 100, primes)
        assert str(err.value) == message
        assert not f.touched.any()

    def test_sum_invp_is_the_fsum_of_reciprocals(self):
        f = SampledFunction.constant(1.0, 1, 11 * 50)
        rec = elliott_defect(f, 50, [11, 2, 7, 3, 5])
        assert rec.params["sum_invp"] == \
            math.fsum(1.0 / p for p in self.PRIMES)


class _ReadSpy(SampledFunction):
    """A window that marks every index read through slice, at and
    progression (whose out-of-window path goes through at)."""

    def __post_init__(self):
        super().__post_init__()
        self.touched = np.zeros(len(self.values), dtype=bool)

    def _mark(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        self.touched[idx[(idx >= self.lo) & (idx <= self.hi)] - self.lo] = 1

    def slice(self, lo, hi):
        self._mark(np.arange(lo, hi + 1))
        return super().slice(lo, hi)

    def at(self, idx):
        self._mark(idx)
        return super().at(idx)

    def progression(self, start, step, count):
        self._mark(start + step * np.arange(count))
        return super().progression(start, step, count)


def elliott_read_set(N, primes):
    """[1, N] and p n for each prime p and n in [1, N], as a boolean
    mask over the window [1, P N], P the largest prime."""
    read = np.zeros(max(primes) * N, dtype=bool)
    read[:N] = True
    for p in primes:
        read[p - 1:p * N:p] = True
    return read


class TestElliottReads:
    """elliott_defect reads [1, N] and every p n with n <= N, and
    nothing more."""

    PRIMES = (2, 3, 5, 7, 11)
    NS = [11, 12, 97, 1000, 5958, 6000]   # 11N crosses _CHUNK from 5958

    @pytest.mark.parametrize("N", NS)
    def test_unread_values_do_not_change_the_record(self, N):
        read = elliott_read_set(N, self.PRIMES)
        f = disc(N, 1, len(read))
        vals = f.values.copy()
        vals[~read] = 0.5
        g = SampledFunction(1, len(read), vals)
        a, b = elliott_defect(f, N, self.PRIMES), \
            elliott_defect(g, N, self.PRIMES)
        assert a.csv_row() == b.csv_row()

    @pytest.mark.parametrize("N", NS)
    @pytest.mark.parametrize("primes", [PRIMES, (3, 11), (2,)])
    def test_mask_is_exactly_what_is_read(self, N, primes):
        read = elliott_read_set(N, primes)
        f = _ReadSpy(1, len(read), np.zeros(len(read)))
        elliott_defect(f, N, primes)
        assert np.array_equal(f.touched, read)


class TestProgressionSum:
    """The blocked sum equals the whole-array loop bit for bit, with the
    same out-of-window count."""

    BLOCK = averages._PROG_BLOCK

    @staticmethod
    def loop(f, starts, step, N):
        acc = np.zeros(N, dtype=np.complex128)
        for start in starts:
            acc += f.progression(start, step, N)
        return acc

    @pytest.mark.parametrize("N", [100, BLOCK - 1, BLOCK, 2 * BLOCK + 37])
    @pytest.mark.parametrize("q, b, H", [
        (1, 1, 120), (1, 7, 3), (12, 5, 120), (12, 1, 1), (3, 2, 17)])
    @pytest.mark.parametrize("short", [False, True])
    def test_matches_whole_array_loop(self, N, q, b, H, short):
        frob = [q + b * h for h in range(1, H + 1)]
        resid = [q + a for a in range(q)]
        reach = max(frob[-1], resid[-1]) + q * (N - 1)
        # a short window misses both ends, so progression falls back to at()
        lo, hi = (q + 2, reach // 2) if short else (1, reach)
        vals = disc(N + q, lo, hi).values
        for starts in (frob, resid):
            f, g = SampledFunction(lo, hi, vals), SampledFunction(lo, hi, vals)
            got = averages._progression_sum(f, starts, q, N)
            want = self.loop(g, starts, q, N)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert f.oob_events == g.oob_events
            assert (f.oob_events > 0) == short


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        f = SampledFunction.constant(1.0, 1, 100)
        with pytest.raises(DomainError):
            shift_defect(f, 50, 3, "bogus")


def _fsum_or_error(x):
    """complex(fsum(real), fsum(imag)) by float.hex, or the error type."""
    try:
        re = math.fsum(np.real(x).tolist())
        im = math.fsum(np.imag(x).tolist()) if np.iscomplexobj(x) else 0.0
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return re.hex(), im.hex()


def _cfsum_or_error(x):
    try:
        got = cfsum(x)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return got.real.hex(), got.imag.hex()


class TestCfsum:
    """cfsum gives math.fsum's bits on each part, by either path."""

    SIZES = [0, 1, 10, averages._EXACT_MIN - 1, averages._EXACT_MIN,
             averages._EXACT_MIN + 1, 3000, averages._CHUNK + 3]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.sampled_from(SIZES),
           lo=st.floats(-1063.0, 996.0), span=st.floats(0.0, 2060.0),
           complex_=st.booleans(), stride=st.integers(1, 3),
           cancel=st.booleans(), special=st.sampled_from(
               [None, math.inf, -math.inf, math.nan, "both-infs"]))
    def test_equals_fsum(self, seed, size, lo, span, complex_, stride,
                         cancel, special):
        # magnitudes 2^lo .. 2^(lo + span) inside [1e-320, 1e300], signs
        # mixed; cancel appends the negatives, so the exact total is 0
        rng = np.random.default_rng(seed)
        hi = min(lo + span, 996.0)
        n = size * stride * (2 if complex_ else 1)
        x = (rng.choice([-1.0, 1.0], n) * rng.random(n)
             * np.exp2(rng.uniform(lo, hi, n)))
        if cancel:
            x = np.concatenate([x, -x])[rng.permutation(2 * n)]
        if special is not None and x.size:
            x[rng.integers(x.size)] = (math.inf if special == "both-infs"
                                       else special)
            if special == "both-infs":
                x[0] = -math.inf
        if complex_:
            x = x.view(np.complex128)
        x = x[::stride]
        assert _cfsum_or_error(x) == _fsum_or_error(x)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1000, 1500),
                      elements=st.floats(width=64)))
    def test_equals_fsum_on_any_doubles(self, x):
        # every double: subnormals, +-0.0, huge values, inf and nan
        assert _cfsum_or_error(x) == _fsum_or_error(x)

    @pytest.mark.parametrize("value", [0.0, -0.0])
    @pytest.mark.parametrize("size", [10, 5000])
    def test_signed_zero(self, value, size):
        x = np.full(size, value)
        assert _cfsum_or_error(x) == _fsum_or_error(x)
        assert _cfsum_or_error(x + 1j * x) == _fsum_or_error(x + 1j * x)

    def test_intermediate_overflow_raises_as_in_fsum(self):
        # 1.5e308 + 1.5e308 overflows inside fsum although the total fits
        x = np.zeros(2 * averages._EXACT_MIN)
        x[:3] = [1.5e308, 1.5e308, -1.5e308]
        assert _fsum_or_error(x) is OverflowError
        assert _cfsum_or_error(x) is OverflowError

    def test_exact_path_is_taken_above_the_crossover(self):
        x = np.full(averages._EXACT_MIN, 0.1)
        assert averages._exact_totals(x) is not None
        assert averages._exact_totals(x[1:]) is None
        x[3] = math.nan
        assert averages._exact_totals(x) is None
