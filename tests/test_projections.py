import math

import numpy as np
import pytest

from sumprod.averages import SampledFunction, log_avg
from sumprod.diophantine import concat_hypothesis
from sumprod.errors import DomainError, RangeError
from sumprod.projections import (NormParams, _window_means,
                                 almost_period_defect,
                                 maximal_eps, maximal_lower,
                                 norm_compare_defect, proj_check_defect,
                                 project, pythagoras_defect, u1_norm,
                                 u1log_norm)


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


def naive_u1(f, N, q, H, log_weights):
    num = 0.0
    den = 0.0
    for n in range(1, N + 1):
        a = sum(complex(f.values[(n + h * q) - f.lo])
                for h in range(1, H + 1)) / H
        w = 1.0 / n if log_weights else 1.0
        num += abs(a) ** 2 * w
        den += w
    return math.sqrt(num / den)


class TestU1Norms:
    def test_constant_is_one(self):
        f = SampledFunction.constant(1.0, 1, 3000)
        p = NormParams(2000, 2, 100)
        assert abs(u1log_norm(f, p) - 1.0) < 1e-12
        assert abs(u1_norm(f, p) - 1.0) < 1e-12

    def test_q_periodic_phase(self):
        q, N, H = 5, 2000, 80
        f = SampledFunction.from_phase(1.0 / q, 1, N + q * H)
        assert abs(u1log_norm(f, NormParams(N, q, H)) - 1.0) < 1e-12

    def test_alternating_even_q(self):
        N, q, H = 1000, 4, 50
        f = SampledFunction.from_callable(lambda n: (-1.0) ** n, 1, N + q * H)
        assert abs(u1_norm(f, NormParams(N, q, H)) - 1.0) < 1e-12

    def test_fejer_closed_form(self):
        N, q, H = 10 ** 4, 3, 64
        alpha = 0.2718281828
        f = SampledFunction.from_phase(alpha, 1, N + q * H)
        got = u1log_norm(f, NormParams(N, q, H))
        fejer = abs(sum(np.exp(2j * np.pi * alpha * q * h)
                        for h in range(1, H + 1)) / H)
        assert abs(got - fejer) < 1e-10

    def test_matches_naive_triple_loop(self):
        N, q, H = 2000, 3, 17
        f = disc(21, 1, N + q * H)
        assert abs(u1_norm(f, NormParams(N, q, H))
                   - naive_u1(f, N, q, H, False)) < 1e-10
        assert abs(u1log_norm(f, NormParams(N, q, H))
                   - naive_u1(f, N, q, H, True)) < 1e-10

    def test_norm_below_bound(self):
        for seed in range(5):
            f = disc(seed, 1, 1500)
            assert u1log_norm(f, NormParams(1000, 2, 100)) <= f.bound + 1e-12

    def test_range_error(self):
        f = SampledFunction.constant(1.0, 1, 100)
        with pytest.raises(RangeError):
            u1log_norm(f, NormParams(90, 2, 10))


class TestProject:
    def test_constant(self):
        c = 0.3 + 0.1j
        f = SampledFunction.constant(c, -200, 1200)
        pf = project(f, 3, 40)
        assert np.allclose(pf.values, c, atol=1e-14)
        assert pf.lo == -200 + 3 * 39 and pf.hi == 1200 - 3 * 39

    def test_exact_period_unchanged(self):
        q, H = 4, 30
        f = SampledFunction.from_callable(
            lambda n: np.exp(2j * np.pi * (n % q) / q), -200, 1200)
        pf = project(f, q, H)
        for n in (0, 17, 500):
            assert abs(pf.values[n - pf.lo] - f.values[n - f.lo]) < 1e-13

    def test_spot_checks_against_double_loop(self):
        rng = np.random.default_rng(99)
        f = disc(42, -500, 2500)
        q, H = 3, 50
        pf = project(f, q, H)
        for _ in range(100):
            n = int(rng.integers(pf.lo, pf.hi + 1))
            direct = np.mean([f.values[(n + q * (h - hp)) - f.lo]
                              for h in range(1, H + 1)
                              for hp in range(1, H + 1)])
            assert abs(pf.values[n - pf.lo] - direct) < 1e-10

    def test_sup_norm_contracts(self):
        f = disc(8, -300, 1300)
        pf = project(f, 2, 60)
        assert float(np.max(np.abs(pf.values))) <= \
            float(np.max(np.abs(f.values))) + 1e-14

    def test_window_too_small(self):
        f = SampledFunction.constant(1.0, 1, 10)
        with pytest.raises(RangeError):
            project(f, 2, 40)


class TestAlmostPeriod:
    def test_h_zero(self):
        f = disc(1, -300, 1300)
        assert almost_period_defect(f, 2, 50, 0).lhs == 0.0

    def test_constant_zero(self):
        f = SampledFunction.constant(1.0, -300, 1300)
        assert almost_period_defect(f, 2, 50, 7).lhs < 1e-14

    def test_ratio_at_most_one(self):
        for seed in range(10):
            f = disc(seed, -500, 4500)
            rec = almost_period_defect(f, 3, 40, 11)
            assert rec.ratio <= 1.0 + 1e-9


class TestProjCheck:
    def test_identity_when_H_one(self):
        f = disc(2, -10, 2200)
        rec = proj_check_defect(f, 2, 1, 1, 2000)
        assert rec.lhs < 1e-12

    def test_constant_zero(self):
        f = SampledFunction.constant(1.0, -500, 3000)
        rec = proj_check_defect(f, 2, 10, 50, 2000)
        assert rec.lhs < 1e-12

    def test_ratio_at_most_one(self):
        for seed in range(8):
            f = disc(seed, -500, 4000)
            rec = proj_check_defect(f, 2, 15, 60, 2000)
            assert rec.ratio <= 1.0


class TestOneCheckedRead:
    """A window read checks its range once, in SampledFunction.slice, and
    the RangeError names the operation."""

    @pytest.fixture
    def covers_calls(self, monkeypatch):
        calls = []
        covers = SampledFunction.covers

        def spy(self, lo, hi):
            calls.append((lo, hi))
            return covers(self, lo, hi)

        monkeypatch.setattr(SampledFunction, "covers", spy)
        return calls

    def test_log_avg(self, covers_calls):
        log_avg(disc(1, 1, 100), 80)
        assert covers_calls == [(1, 80)]

    def test_window_means(self, covers_calls):
        _window_means(disc(2, 1, 200), 150, 3, 10)
        assert covers_calls == [(1, 180)]

    def test_proj_check(self, covers_calls):
        # pf's window, then f's, then g's inside u1log_norm
        proj_check_defect(disc(3, -40, 260), 2, 5, 10, 200)
        assert covers_calls == [(1, 220)] * 3

    @pytest.mark.parametrize("read, message", [
        (lambda: _window_means(SampledFunction.constant(0.5, 5, 60),
                               50, 2, 10),
         "progression average needs f on [1, 70] but window is [5, 60]"),
        (lambda: proj_check_defect(SampledFunction.constant(0.5, 1, 200),
                                   2, 3, 10, 190),
         "proj_check needs f on [1, 210] but window is [5, 196]"),
        (lambda: maximal_lower(SampledFunction.constant(0.5, 1, 100),
                               SampledFunction.constant(0.5, 1, 100),
                               2, 5, 100),
         "maximal_lower needs f on [1, 100] but window is [9, 92]"),
        (lambda: maximal_lower(SampledFunction.constant(0.5, 5, 100),
                               SampledFunction.constant(0.5, 1, 100),
                               2, 5, 100),
         "maximal_lower needs f on [1, 100] but window is [5, 100]"),
        (lambda: maximal_lower(SampledFunction.constant(0.5, 1, 100),
                               SampledFunction.constant(0.5, 1, 50),
                               2, 5, 100),
         "maximal_lower needs g on [1, 100] but window is [1, 50]"),
        (lambda: pythagoras_defect(SampledFunction.constant(0.5, 1, 100),
                                   2, 4, 5, 5, 100),
         "pythagoras needs f on [1, 100] but window is [9, 92]")])
    def test_range_error_text(self, read, message):
        with pytest.raises(RangeError) as err:
            read()
        assert str(err.value) == message


class TestPythagoras:
    def test_constant_passes(self):
        f = SampledFunction.constant(1.0, -500, 3000)
        rec = pythagoras_defect(f, 2, 4, 40, 20, 2000)
        assert rec.params["passed"]

    def test_equal_projections(self):
        f = disc(4, -300, 3000)
        rec = pythagoras_defect(f, 2, 2, 30, 30, 2000)
        assert rec.lhs < 1e-12 and rec.params["passed"]

    def test_division_constraint(self):
        f = disc(4, -300, 3000)
        with pytest.raises(DomainError):
            pythagoras_defect(f, 2, 3, 30, 20, 2000)


class TestMaximal:
    def test_all_ones(self):
        f = SampledFunction.constant(1.0, -300, 2300)
        g = SampledFunction.constant(1.0, 1, 2000)
        base, proj = maximal_lower(f, g, 2, 40, 2000)
        assert abs(base - 1.0) < 1e-12
        assert proj >= 1.0 / 8.0

    def test_divisibility_indicator(self):
        N, qp = 2000, 5
        ind = SampledFunction.from_callable(
            lambda n: 1.0 if n % qp == 0 else 0.0, -300, N + 300)
        g = SampledFunction.from_callable(
            lambda n: 1.0 if n % qp == 0 else 0.0, 1, N)
        base, proj = maximal_lower(ind, g, 3, 40, N)
        assert proj >= base * base / 8.0

    def test_rejects_negative(self):
        f = SampledFunction.from_callable(lambda n: -0.5, -100, 2100)
        g = SampledFunction.constant(1.0, 1, 2000)
        with pytest.raises(DomainError):
            maximal_lower(f, g, 2, 10, 2000)

    def test_eps_envelope_value(self):
        assert maximal_eps(2, 50, 10 ** 4) == \
            50.0 * math.log(100) / math.log(10 ** 4)


class TestNormCompare:
    def test_constant(self):
        f = SampledFunction.constant(1.0, 1, 9000)
        rec = norm_compare_defect(f, 2, 4, 100, 40, 4000)
        assert rec.params["passed"]
        assert abs(rec.params["norm_small"] - 1.0) < 1e-12
        assert abs(rec.params["norm_large"] - 1.0) < 1e-12

    def test_qt_periodic(self):
        qt = 6
        f = SampledFunction.from_phase(1.0 / qt, 1, 9000)
        rec = norm_compare_defect(f, 3, qt, 100, 40, 4000)
        assert abs(rec.params["norm_large"] - 1.0) < 1e-12
        assert rec.params["passed"]

    def test_preconditions(self):
        f = SampledFunction.constant(1.0, 1, 9000)
        with pytest.raises(DomainError):
            norm_compare_defect(f, 2, 3, 100, 40, 4000)
        with pytest.raises(DomainError):
            norm_compare_defect(f, 2, 4, 100, 60, 4000)


class TestContraction:
    def test_projection_norm_relation(self):
        # ||Pi_{q,H'} f||_{U1log} >= ||f|| - ||Pi f - f|| by the triangle
        # inequality; the defect side is bounded by 4 H'/H
        N, q, Hp, H = 2000, 2, 10, 80
        f = disc(31, -q * (Hp - 1), N + q * H + q * (Hp - 1))
        pf = project(f, q, Hp)
        p = NormParams(N, q, H)
        base = u1log_norm(f, p)
        proj = u1log_norm(
            SampledFunction(1, N + q * H, pf.slice(1, N + q * H),
                            bound=f.bound), p)
        defect = proj_check_defect(f, q, Hp, H, N)
        assert proj >= base - defect.lhs - 1e-12
        assert defect.lhs <= 4.0 * Hp / H


class TestMeansPinned:
    """repr of every mean that goes through averages._avg_of_values,
    recorded from the code before the fold (one seeded sqrt(u) e(v) disc
    function; its modulus where the input must be nonnegative)."""

    N = 1000
    f = sqrt_e_disc(2024, -400, 2400)
    g = SampledFunction(f.lo, f.hi, np.abs(f.values))

    @pytest.mark.parametrize("name, expected", [
        ("u1log", "0.28910682629819473"),
        ("u1", "0.2632801309922526"),
        ("pythagoras", "0.039851456266930776"),
        ("maximal", "(0.6057292362931513, 0.49888939090373474)"),
        ("concat-log", "0.107775960908228"),
        ("concat-uniform", "0.11020465066325703"),
    ])
    def test_repr(self, name, expected):
        f, g, N = self.f, self.g, self.N
        p = NormParams(N, 3, 8)
        value = {
            "u1log": lambda: u1log_norm(f, p),
            "u1": lambda: u1_norm(f, p),
            "pythagoras": lambda: pythagoras_defect(f, 3, 6, 8, 4, N).lhs,
            "maximal": lambda: maximal_lower(g, g, 3, 8, N),
            "concat-log": lambda: concat_hypothesis(f, N, [1, 2, 3], 5, "log"),
            "concat-uniform":
                lambda: concat_hypothesis(f, N, [1, 2, 3], 5, "uniform"),
        }[name]()
        assert repr(value) == expected
