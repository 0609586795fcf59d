import hashlib
import json

import numpy as np
import pytest

from sumprod.coloring import (Coloring, PatternWitness, RichnessConfig,
                              extremal_coloring, find_monochromatic,
                              richness_scan)
from sumprod.errors import DomainError
from sumprod.numtheory import harmonic


class TestExtremalColoring:
    def test_r1(self):
        c = extremal_coloring(1)
        assert c.N == 5
        assert c.color_of(5) == 0
        assert all(c.color_of(n) == 0 for n in (1, 2, 3, 4))

    def test_r3_boundaries(self):
        c = extremal_coloring(3)
        assert c.N == 17
        assert c.color_of(5) == 0
        assert c.color_of(7) == 1
        assert c.color_of(12) == 2
        assert c.color_of(17) == 2

    def test_r2_vacuous(self):
        c = extremal_coloring(2)
        assert c.N == 8
        assert find_monochromatic(c) is None  # min product 12 > 8

    def test_n_formula(self):
        for r in range(1, 9):
            assert extremal_coloring(r).N == (3 ** r + 7) // 2


class TestFindMonochromatic:
    def test_all_one_coloring_minimum(self):
        c = Coloring(N=12, r=1, colors=np.zeros(12, dtype=np.int64))
        w = find_monochromatic(c)
        assert (w.x, w.y, w.sum, w.prod) == (4, 3, 7, 12)
        w.validate(c)

    def test_below_first_product(self):
        c = Coloring(N=11, r=1, colors=np.zeros(11, dtype=np.int64))
        assert find_monochromatic(c) is None

    def test_extremal_clean_small(self):
        for r in range(1, 9):
            assert find_monochromatic(extremal_coloring(r)) is None

    def test_perturbed_boundary_detected(self):
        # moving a_2 from 9 to 8 merges 8 into the third interval and
        # creates the pair (x, y) = (5, 3): 8 and 15 share a color
        N = 17
        cols = np.zeros(N, dtype=np.int64)
        bounds = [5, 6, 8, 18]
        for i in range(3):
            cols[bounds[i] - 1: min(bounds[i + 1], N + 1) - 1] = i
        w = find_monochromatic(Coloring(N=N, r=3, colors=cols))
        assert w is not None
        assert (w.y, w.x) == (3, 5)

    def test_monotone_restriction(self):
        c = extremal_coloring(4)
        for Np in (20, 30, 44):
            sub = Coloring(N=Np, r=4, colors=c.colors[:Np])
            assert find_monochromatic(sub) is None

    def test_witness_validation_catches_lies(self):
        c = Coloring(N=20, r=2, colors=np.zeros(20, dtype=np.int64))
        bad = PatternWitness(x=4, y=3, color=1, sum=7, prod=12)
        with pytest.raises(DomainError):
            bad.validate(c)


class TestRLE:
    def test_roundtrip(self):
        c = extremal_coloring(5)
        back = Coloring.from_rle_json(c.to_rle_json())
        assert back.N == c.N and back.r == c.r
        assert np.array_equal(back.colors, c.colors)

    @staticmethod
    def loop_runs(cols):
        # the per-element run loop that to_rle_json replaced
        runs, i, N = [], 0, len(cols)
        while i < N:
            j = i
            while j + 1 < N and cols[j + 1] == cols[i]:
                j += 1
            runs.append([int(cols[i]), j - i + 1])
            i = j + 1
        return runs

    def test_runs_match_loop_and_roundtrip(self):
        rng = np.random.default_rng(31)
        cases = [np.zeros(0, dtype=np.int64), np.array([2]),
                 np.full(17, 1)]
        for _ in range(200):
            N, r = int(rng.integers(0, 60)), int(rng.integers(1, 5))
            # short runs and long ones: repeat each draw a random count
            cases.append(np.repeat(rng.integers(0, r, size=N),
                                   rng.integers(1, 4, size=N)))
        for cols in cases:
            c = Coloring(N=len(cols), r=int(cols.max(initial=0)) + 1,
                         colors=cols)
            text = c.to_rle_json()
            assert json.loads(text)["runs"] == self.loop_runs(cols.tolist())
            back = Coloring.from_rle_json(text)
            assert (back.N, back.r) == (c.N, c.r)
            assert np.array_equal(back.colors, c.colors)

    @pytest.mark.parametrize("text", [
        '{"N": 3, "r": 2}', '{"r": 2, "runs": [[0, 3]]}',
        '{"N": 3, "runs": [[0, 3]]}', '[[0, 3]]', '3',
        '{"N": 3, "r": 1, "runs": 5}', '{"N": 3, "r": 1, "runs": [[0, 1.5]]}',
        '{"N": 3, "r": "x", "runs": [[0, 3]]}',
        '{"N": 3, "r": 1, "runs": [null]}',
        '{"N": 3, "r": true, "runs": [[0, 3]]}',
        '{"N": 0, "r": 1, "runs": [[0, -1]]}',
        '{"N": 2, "r": 1, "runs": [[0, 3], [0, -1]]}'])
    def test_malformed_json_raises(self, text):
        with pytest.raises(DomainError, match="N, r and runs"):
            Coloring.from_rle_json(text)


class TestRichness:
    def test_monochrome(self):
        N = 500
        c = Coloring(N=N, r=2, colors=np.zeros(N, dtype=np.int64))
        cfg = RichnessConfig(V=2, imax=2, prime_windows=((5, 20),), kmax=1)
        rep = richness_scan(c, cfg)
        hn = harmonic(N)
        for b, row in zip(rep.b_values, rep.table):
            expected = harmonic(max(N // b, 1)) / hn if N // b else 0.0
            assert abs(row[0] - expected) < 1e-12
            assert row[1] == 0.0
        assert rep.selected_color == 0

    def test_extremal3_against_direct_sums(self):
        c = extremal_coloring(3)
        cfg = RichnessConfig(V=2, imax=2, prime_windows=((5, 20),), kmax=1)
        rep = richness_scan(c, cfg)
        hn = harmonic(c.N)
        for bi, b in enumerate(rep.b_values):
            for j in range(c.r):
                direct = sum(1.0 / n for n in range(1, c.N // b + 1)
                             if c.color_of(b * n) == j) / hn
                assert abs(rep.table[bi, j] - direct) < 1e-12

    def test_partition_rows_sum(self):
        rng = np.random.default_rng(8)
        N = 3000
        c = Coloring(N=N, r=3, colors=rng.integers(0, 3, N).astype(np.int64))
        cfg = RichnessConfig(V=3, imax=2, prime_windows=((5, 20),), kmax=1)
        rep = richness_scan(c, cfg)
        hn = harmonic(N)
        for b, row in zip(rep.b_values, rep.table):
            m = N // b
            expected = harmonic(m) / hn if m else 0.0
            assert abs(row.sum() - expected) < 1e-12

    def test_pair_statistic_vanishes_past_N(self):
        rng = np.random.default_rng(9)
        N = 2000
        c = Coloring(N=N, r=2, colors=rng.integers(0, 2, N).astype(np.int64))
        cfg = RichnessConfig(V=2, imax=2, prime_windows=((5, 12), (12, 20)),
                             kmax=2)
        rep = richness_scan(c, cfg)
        for (b, bp, k, val) in rep.pair_stats:
            if bp > N:
                assert val == 0.0

    def test_report_bytes_pinned(self):
        # sha256 recorded from the code before the density table went
        # through _pair_statistic
        rep = richness_scan(extremal_coloring(5),
                            RichnessConfig(2, 2, ((5, 20), (20, 50)), 2))
        text = json.dumps(rep.to_obj(), sort_keys=True, indent=1)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "77499faf054daceea46fa6bf6fec4eaea68f19fa3c35b80f34e4baf058359712")

    def test_pair_statistic_direct_oracle(self):
        rng = np.random.default_rng(10)
        N = 5000
        c = Coloring(N=N, r=2, colors=rng.integers(0, 2, N).astype(np.int64))
        from sumprod.coloring import _pair_statistic
        hn = harmonic(N)
        primes = [5, 7, 11]
        got = _pair_statistic(c.colors, 0, 2, 4, [primes], N, hn)
        wsum = sum(1.0 / p for p in primes)
        direct = 0.0
        for p in primes:
            for n in range(1, N // (4 * p) + 1):
                if c.color_of(2 * n) == 0 and c.color_of(4 * p * n) == 0:
                    direct += (1.0 / p / wsum) * (1.0 / n) / hn
        assert abs(got - direct) < 1e-12

    def test_empty_window_rejected(self):
        c = extremal_coloring(3)
        cfg = RichnessConfig(V=2, imax=1, prime_windows=((24, 29),), kmax=1)
        with pytest.raises(DomainError):
            richness_scan(c, cfg)

    @pytest.mark.parametrize("kmax", [-1, 2])
    def test_kmax_outside_the_windows_rejected(self, kmax):
        cfg = RichnessConfig(V=2, imax=1, prime_windows=((5, 20),),
                             kmax=kmax)
        with pytest.raises(DomainError, match="kmax"):
            richness_scan(extremal_coloring(3), cfg)


class TestCapacity:
    def test_extremal_overflow(self):
        from sumprod.errors import CapacityError
        with pytest.raises(CapacityError):
            extremal_coloring(45)

    def test_b_set_overflow(self):
        from sumprod.errors import CapacityError
        cfg = RichnessConfig(V=10, imax=5, prime_windows=((5, 20),), kmax=1)
        with pytest.raises(CapacityError):
            cfg.b_set()
