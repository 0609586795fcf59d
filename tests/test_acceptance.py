"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every tolerance and ceiling is pinned here; the suites use the
published default seed.
"""

import hashlib
import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from sumprod.averages import (SampledFunction, dilate_defect, elliott_defect,
                              frobenius_defect, residue_split_defect,
                              shift_defect)
from sumprod.cli import main as cli_main
from sumprod.coloring import extremal_coloring, find_monochromatic
from sumprod.diophantine import (AlmostPrimeFamily, DiophParams, dioph_verify,
                                 gamma_coprimality, gamma_family,
                                 gamma_prime_window, vino_verify,
                                 vonmangoldt_exp_sum, weyl_structure_scan)
from sumprod.search import pattern_graph, sp_number, verify_odd_cycle
from sumprod.sieve import band_decompose, verify_sieve_bounds
from sumprod.suites import (DEFAULT_SEED, SUITE_CONSTANTS, max_ratio,
                            pass_rate, run_suite)

EPS0 = 0.1  # the fixed small constant in the coprimality rescaling


def report(cid, name, ok, detail, t0, limit_s):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and elapsed < limit_s else "FAIL"
    print(f"ACCEPTANCE {cid} {name}: {status} "
          f"[{elapsed:.1f}s / {limit_s}s] {detail}")
    assert ok, f"criterion {cid} failed: {detail}"
    assert elapsed < limit_s, f"criterion {cid} exceeded {limit_s}s"


class TestAcceptance:
    def test_c1_extremal_construction(self):
        t0 = time.monotonic()
        details = []
        ok = True
        for r in range(1, 13):
            col = extremal_coloring(r)
            ok = ok and col.N == (3 ** r + 7) // 2
            wit = find_monochromatic(col)
            ok = ok and wit is None
            details.append(f"r={r}:N={col.N}")
        report(1, "extremal-construction", ok,
               "no witnesses; " + " ".join(details[-3:]), t0, 60)

    def test_c2_threshold_exactness(self):
        t0 = time.monotonic()
        res1 = sp_number(1)
        ok = (res1.n_star == 12 and res1.below.verdict == "colorable"
              and res1.at.verdict == "not-colorable")

        res2 = sp_number(2)
        ok = ok and res2.n_star is not None
        ok = ok and res2.below.verdict == "colorable"
        ok = ok and find_monochromatic(res2.below.coloring) is None
        ok = ok and res2.at.verdict == "not-colorable"
        g = pattern_graph(res2.n_star)
        ok = ok and verify_odd_cycle(res2.at.odd_cycle, res2.n_star)

        # independent bipartiteness oracle: exhaustive when the graph is
        # small enough, parity-BFS otherwise
        if len(g.vertices) <= 24:
            ok = ok and not _exhaustive_two_colorable(g)
        else:
            ok = ok and not _parity_bfs_bipartite(g)
        ok = ok and _parity_bfs_bipartite(pattern_graph(res2.n_star - 1))

        ok = ok and res1.n_star > (3 ** 1 + 7) // 2
        ok = ok and res2.n_star > (3 ** 2 + 7) // 2
        report(2, "threshold-exactness", ok,
               f"N*(1)={res1.n_star} N*(2)={res2.n_star}", t0, 300)

    def test_c3_averaging_defect_suite(self):
        t0 = time.monotonic()
        lemmas = ["shift", "residue-split", "frobenius", "dilate", "elliott",
                  "gp-compar"]
        ratios = {}
        ok = True
        for name in lemmas:
            recs = run_suite(name, seed=DEFAULT_SEED, draws=200)
            mr = max_ratio(recs)
            ratios[name] = mr
            ok = ok and mr <= SUITE_CONSTANTS[name] and pass_rate(recs) == 1.0

        # equality cases must be exact to 1e-12
        N = 10 ** 4
        const = SampledFunction.constant(1.0, -200, 12 * N + 200)
        ok = ok and shift_defect(const, N, 9, "log").lhs <= 1e-12
        ok = ok and residue_split_defect(const, N, 5).lhs <= 1e-12
        ok = ok and residue_split_defect(const, N, 1).lhs <= 1e-12
        ok = ok and frobenius_defect(const, N, 3, 2, 100).lhs <= 1e-12
        ok = ok and dilate_defect(const, N, 1).lhs <= 1e-12
        ok = ok and elliott_defect(const, N, (2, 3, 5, 7, 11)).lhs <= 1e-12
        boundary = SampledFunction.from_callable(
            lambda n: 1.0 if 1 <= n <= 128 else 0.0, 0, 130)
        ok = ok and shift_defect(boundary, 128, 1,
                                 "uniform").lhs == 1.0 / 128
        detail = " ".join(f"{k}={v:.3f}" for k, v in ratios.items())
        report(3, "averaging-defect-suite", ok, detail, t0, 300)

    def test_c4_projection_suite(self):
        t0 = time.monotonic()
        ap = run_suite("almost-period", seed=DEFAULT_SEED, draws=200)
        pc = run_suite("proj-check", seed=DEFAULT_SEED, draws=200)
        py = run_suite("pythagoras", seed=DEFAULT_SEED, draws=200)
        gp = run_suite("gp-compar", seed=DEFAULT_SEED, draws=200)
        mx = run_suite("maximal", seed=DEFAULT_SEED, draws=200)
        ok = max_ratio(ap) <= 1.0 + 1e-9
        ok = ok and max_ratio(pc) <= 1.0
        ok = ok and pass_rate(py) == 1.0
        ok = ok and pass_rate(gp) == 1.0
        ok = ok and pass_rate(mx) == 1.0 and len(mx) == 200
        detail = (f"almost-period={max_ratio(ap):.3f} "
                  f"proj-check={max_ratio(pc):.3f} "
                  f"pythagoras/gp-compar/maximal pass=100%")
        report(4, "projection-suite", ok, detail, t0, 300)

    def test_c5_diophantine_suite(self, prime_table):
        t0 = time.monotonic()
        levels = [0.05, 0.1, 0.2, 0.4]
        ok = True
        for D in (100, 1000):
            rep = dioph_verify(np.arange(1, D + 1), DiophParams(2, 8, D),
                               levels, grid_points=2 ** 22)
            ok = ok and rep.all_pass

        emp = {}
        for j in (1, 2):
            fam = AlmostPrimeFamily.build([(1000, 1080), (10000, 10400)], j,
                                          prime_table)
            D = float(fam.product_scale())
            probe = dioph_verify(fam.elements, DiophParams(1, fam.k, D),
                                 levels, grid_points=2 ** 20,
                                 want_empirical_L=True)
            emp[j] = probe.empirical_L
            verdict = dioph_verify(
                fam.elements, DiophParams(max(probe.empirical_L, 1.0) * 1.01,
                                          fam.k, D),
                levels, grid_points=2 ** 20)
            ok = ok and verdict.all_pass

        rng = np.random.default_rng(DEFAULT_SEED)
        alarms = 0
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
            alarms += vino_verify(alpha, T, delta1, delta2).alarm
        ok = ok and alarms == 0
        report(5, "diophantine-suite", ok,
               f"intervals pass; empirical L: j1={emp[1]:.2f} "
               f"j2={emp[2]:.2f}; vino alarms={alarms}", t0, 600)

    def test_c6_coprimality(self, prime_table):
        t0 = time.monotonic()
        ok = gamma_coprimality([2, 3], exact=True) == Fraction(17, 25)

        fam = AlmostPrimeFamily.build([(2, 30), (30, 10000)], 1, prime_table)
        direct = gamma_coprimality(fam.elements)
        via_windows = gamma_family(fam)
        ok = ok and abs(direct - via_windows) < 1e-9
        s_min = min(sum(1.0 / p for p in ps) for ps in fam.prime_lists)
        delta_r = (fam.k / s_min) ** (1.0 / (4 + EPS0))
        bound = delta_r ** (4 + EPS0 / 2)
        ok = ok and direct <= bound

        bands = {}
        for X in (10 ** 3, 10 ** 4, 10 ** 5):
            g = gamma_prime_window(prime_table.primes_array(2, X + 1))
            val = g * math.log(math.log(X))
            bands[X] = val
            ok = ok and 0.1 <= val <= 10.0
        # the X = 1e3 case doubles as a cross-check of the divisor identity
        direct_small = gamma_coprimality(
            prime_table.primes_array(2, 10 ** 3 + 1).tolist())
        ok = ok and abs(direct_small -
                        gamma_prime_window(
                            prime_table.primes_array(2, 10 ** 3 + 1))) < 1e-10
        report(6, "coprimality", ok,
               f"gamma(2,3)=17/25; family {direct:.3f}<= {bound:.3f}; "
               f"bands {['%.2f' % v for v in bands.values()]}", t0, 120)

    def test_c7_sieve(self):
        t0 = time.monotonic()
        ok = True
        h_stat = None
        for X in (10 ** 4, 10 ** 5):
            R = X ** 0.25
            dec = band_decompose(X, R, 6, cexp=0.125, A=4.0)
            rep = verify_sieve_bounds(dec)
            lam = dec.majorant
            ok = ok and lam.min() >= 0.0
            rng = np.random.default_rng(DEFAULT_SEED)
            for n in rng.integers(X, 2 * X, 1000):
                rec = dec.coeffs.reconstruct_at(int(n))
                ok = ok and abs(rec - lam[int(n) - X]) <= \
                    1e-8 * max(1.0, lam[int(n) - X])
            ok = ok and rep.majorant_min_prime_over_logR >= 0.8
            ok = ok and dec.reconstruction_error() <= 1e-8
            if X == 10 ** 5:
                h_stat = rep.h_mean_abs_times_Q
                ok = ok and h_stat <= 10.0
        report(7, "selberg-sieve", ok,
               f"floors>=0.8, reconstruction<=1e-8, h*Q={h_stat:.3f}",
               t0, 600)

    def test_c8_vonmangoldt(self, tables_1e5):
        t0 = time.monotonic()
        X = 10 ** 5
        got = vonmangoldt_exp_sum(tables_1e5, X, 1, 0.0)
        psi = math.fsum(tables_1e5.vonmangoldt[1: X + 1].tolist())
        ok = got.real == psi and got.imag == 0.0

        M = 2 ** 22
        rep = weyl_structure_scan(tables_1e5, X, 1, 0.2, exponent=6.0,
                                  grid_points=M)
        ok = ok and rep.all_pass
        closest = [r for r in rep.rows if abs(r.theta - 1 / 3) <= 2.0 / M]
        ok = ok and bool(closest) and all(r.q == 3 for r in closest)
        report(8, "vonmangoldt-sums", ok,
               f"psi({X})={psi:.3f} exact; q=3 at ~1/3; "
               f"empirical E={rep.empirical_E:.2f}", t0, 300)

    def test_c9_determinism(self, tmp_path):
        t0 = time.monotonic()
        cases = [
            ["extremal", "--r", "6"],
            ["threshold", "--r", "2"],
            ["threshold", "--r", "3", "--nmax", "800"],
            ["lemma-check", "--name", "shift", "--draws", "40",
             "--seed", str(DEFAULT_SEED)],
            ["lemma-check", "--name", "elliott", "--draws", "9",
             "--seed", str(DEFAULT_SEED)],
            ["lemma-check", "--name", "maximal", "--draws", "20",
             "--seed", str(DEFAULT_SEED)],
            ["norms", "--N", "2000", "--seed", str(DEFAULT_SEED)],
            ["dioph", "--mode", "verify", "--D", "1000",
             "--levels", "0.1,0.4", "--grid", str(2 ** 18)],
            # exponent 3 keeps the level live, so weyl.json holds rows
            ["dioph", "--mode", "weyl", "--X", "20000", "--exponent", "3",
             "--grid", str(2 ** 18)],
            ["sieve", "--X", "20000", "--export-decomposition"],
            ["richness", "--r", "5"],
        ]
        ok = True
        for i, case in enumerate(cases):
            digests = []
            for run_id in (0, 1):
                out = str(tmp_path / f"c9_{i}_{run_id}")
                code = cli_main(case + ["--output", out])
                ok = ok and code == 0
                h = hashlib.sha256()
                for name in sorted(os.listdir(out)):
                    h.update(name.encode())
                    with open(os.path.join(out, name), "rb") as fh:
                        h.update(fh.read())
                digests.append(h.hexdigest())
            ok = ok and digests[0] == digests[1]
        report(9, "determinism", ok,
               f"{len(cases)} subcommands byte-identical across reruns",
               t0, 600)


def _exhaustive_two_colorable(graph):
    seen = set()
    for start in graph.vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        i = 0
        while i < len(comp):
            for u in graph.adj[comp[i]]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
            i += 1
        ok = False
        for bits in itertools.product((0, 1), repeat=len(comp) - 1):
            colors = {comp[0]: 0}
            colors.update({v: b for v, b in zip(comp[1:], bits)})
            if all(colors[u] != colors[v] for u in comp
                   for v in graph.adj[u]):
                ok = True
                break
        if not ok:
            return False
    return True


def _parity_bfs_bipartite(graph):
    side = {}
    for s in graph.vertices:
        if s in side:
            continue
        side[s] = 0
        queue = [s]
        while queue:
            u = queue.pop(0)
            for v in graph.adj[u]:
                if v not in side:
                    side[v] = side[u] ^ 1
                    queue.append(v)
                elif side[v] == side[u]:
                    return False
    return True
