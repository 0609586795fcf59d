"""Seeded defect suites over random 1-bounded functions.

Each suite draws parameters and a fresh random function per trial from a
single numpy PCG64 stream (default_rng) so that a (seed, draws) pair
fully determines every record.  Function values are independent and
uniform on the closed complex unit disc (nonnegative suites draw uniform
[0, 1] reals).  Records are emitted in CSV with the schema
name, N, params, lhs, bound, ratio.

The asserted ceilings replace the proofs' unspecified absolute constants
with explicit engineering constants: 50 for the shift, coin-problem and
norm-comparison defects, 10 for the dilation, residue-split and Elliott
defects, 1 for the almost-periodicity (constant 2 inside the envelope)
and norm-preservation (constant 4 inside) ratios.  They are outputs of
the envelope choice, not derived values.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .averages import (SampledFunction, DefectRecord, dilate_defect,
                       elliott_defect, frobenius_defect,
                       residue_split_defect, shift_defect)
from .errors import DomainError
from .projections import (almost_period_defect, maximal_eps, maximal_lower,
                          norm_compare_defect, proj_check_defect,
                          pythagoras_defect)

DEFAULT_SEED = 1729
DEFAULT_NS = (10 ** 3, 10 ** 4, 10 ** 5)
ELLIOTT_PRIMES = (2, 3, 5, 7, 11)  # sum of 1/p = 1.2679... >= 1

SUITE_CONSTANTS = {
    "shift": 50.0,
    "residue-split": 10.0,
    "frobenius": 50.0,
    "dilate": 10.0,
    "elliott": 10.0,
    "gp-compar": 50.0,
    "almost-period": 1.0 + 1e-9,
    "proj-check": 1.0,
    "pythagoras": 1.0,   # pass-rate suite: ratio against the stated rhs
    "maximal": 1.0,      # pass-rate suite
}


def _draw_shift(rng: np.random.Generator, N: int) -> DefectRecord:
    mode = "log" if rng.random() < 0.5 else "uniform"
    h = 0
    while h == 0:
        h = int(rng.integers(-100, 101))
    f = SampledFunction.random_disc(rng, 1 + min(h, 0), N + max(h, 0))
    return shift_defect(f, N, h, mode)


def _draw_residue(rng: np.random.Generator, N: int) -> DefectRecord:
    q = int(rng.integers(1, 13))
    f = SampledFunction.random_disc(rng, 1, q * N + q)
    return residue_split_defect(f, N, q)


def _draw_frobenius(rng: np.random.Generator, N: int) -> DefectRecord:
    while True:
        q = int(rng.integers(1, 7))
        b = int(rng.integers(1, 10))
        if math.gcd(q, b) == 1:
            break
    H = int(rng.integers(10, 121))
    f = SampledFunction.random_disc(rng, 1, q * N + b * H + 1)
    return frobenius_defect(f, N, q, b, H)


def _draw_dilate(rng: np.random.Generator, N: int) -> DefectRecord:
    q = int(rng.integers(1, 17))
    f = SampledFunction.random_disc(rng, 1, N)
    return dilate_defect(f, N, q)


def _draw_elliott(rng: np.random.Generator, N: int) -> DefectRecord:
    f = SampledFunction.random_disc(rng, 1, max(ELLIOTT_PRIMES) * N)
    return elliott_defect(f, N, ELLIOTT_PRIMES)


def _draw_gp_compar(rng: np.random.Generator, N: int) -> DefectRecord:
    q = int(rng.integers(1, 5))
    qt = q * int(rng.integers(2, 5))
    hmax = (N // 2 - 1) // q
    H = int(rng.integers(20, min(400, hmax) + 1))
    htmax = max(1, (H * q - 1) // qt)
    Ht = int(rng.integers(1, htmax + 1))
    reach = max(q * H, qt * Ht)
    f = SampledFunction.random_disc(rng, 1, N + reach)
    return norm_compare_defect(f, q, qt, H, Ht, N)


def _draw_almost_period(rng: np.random.Generator, N: int) -> DefectRecord:
    q = int(rng.integers(1, 6))
    H = int(rng.integers(20, 101))
    h = 0
    while h == 0:
        h = int(rng.integers(-2 * H, 2 * H + 1))
    reach = q * (H - 1) + q * abs(h)
    f = SampledFunction.random_disc(rng, 1 - reach, N + reach)
    return almost_period_defect(f, q, H, h)


def _draw_proj_check(rng: np.random.Generator, N: int) -> DefectRecord:
    q = int(rng.integers(1, 5))
    H = int(rng.integers(20, 101))
    Hp = int(rng.integers(1, H + 1))
    reach = q * (Hp - 1)
    f = SampledFunction.random_disc(rng, 1 - reach, N + q * H + reach)
    return proj_check_defect(f, q, Hp, H, N)


def _draw_pythagoras(rng: np.random.Generator, N: int) -> DefectRecord:
    q = int(rng.integers(1, 4))
    qp = q * int(rng.integers(1, 5))
    H = int(rng.integers(20, 81))
    Hp = int(rng.integers(1, H + 1))
    reach = max(q * (H - 1), qp * (Hp - 1))
    f = SampledFunction.random_disc(rng, 1 - reach, N + reach)
    return pythagoras_defect(f, q, qp, H, Hp, N)


def _draw_maximal(rng: np.random.Generator, N: int) -> DefectRecord:
    q = int(rng.integers(1, 5))
    H = int(rng.integers(10, 61))
    reach = q * (H - 1)
    f = SampledFunction.random_nonneg(rng, 1 - reach, N + reach)
    g = SampledFunction.random_nonneg(rng, 1, N)
    base, projected = maximal_lower(f, g, q, H, N)
    eps = maximal_eps(q, H, N)
    floor = base * base / 8.0 - eps
    etas = np.linspace(0.05, 1.0, 20)
    grid_ok = all(projected >= (eta / 8.0) * base - eta * eta / 8.0 - 1e-12
                  for eta in etas)
    passed = (projected >= floor - 1e-12) and grid_ok
    # ratio <= 1 encodes the pass; shortfall would push it above 1
    lhs = max(floor - projected, 0.0)
    rec = DefectRecord("maximal", lhs, max(abs(floor), 1e-9), params={
        "q": q, "H": H, "N": N, "base": base, "projected": projected,
        "eps": eps, "passed": bool(passed)})
    return rec


_DRAWERS = {
    "shift": _draw_shift,
    "residue-split": _draw_residue,
    "frobenius": _draw_frobenius,
    "dilate": _draw_dilate,
    "elliott": _draw_elliott,
    "gp-compar": _draw_gp_compar,
    "almost-period": _draw_almost_period,
    "proj-check": _draw_proj_check,
    "pythagoras": _draw_pythagoras,
    "maximal": _draw_maximal,
}

# projection suites run at a fixed desk N
_PROJ_N = {"almost-period": 4000, "proj-check": 10 ** 4,
           "pythagoras": 10 ** 4, "maximal": 10 ** 4}


def suite_names() -> list:
    return sorted(_DRAWERS)


def run_suite(name: str, seed: int = DEFAULT_SEED, draws: int = 200) -> list:
    """Run one lemma suite; returns the list of DefectRecords.

    Draws cycle through the N values of DEFAULT_NS; the projection
    suites use their fixed desk N instead.
    """
    if name not in _DRAWERS:
        raise DomainError(f"unknown suite {name!r}; choose from "
                          f"{suite_names()}")
    if draws < 1:
        raise DomainError(f"need draws >= 1, got {draws}")
    rng = np.random.default_rng(seed)
    drawer = _DRAWERS[name]
    fixed_n = _PROJ_N.get(name)
    records = []
    for i in range(draws):
        N = (fixed_n if fixed_n is not None
             else DEFAULT_NS[i % len(DEFAULT_NS)])
        records.append(drawer(rng, N))
    return records


def max_ratio(records) -> float:
    return max((r.ratio for r in records), default=0.0)


def pass_rate(records) -> float:
    flagged = [r for r in records if "passed" in r.params]
    if not flagged:
        return 1.0
    return sum(1 for r in flagged if r.params["passed"]) / len(flagged)


def records_to_csv(records, name: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "N", "params", "lhs", "bound", "ratio"])
    for rec in records:
        writer.writerow(rec.csv_row(rec.params.get("N", "")))
    return buf.getvalue()
