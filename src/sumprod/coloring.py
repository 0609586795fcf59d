"""Colorings of [N], monochromatic {x+y, xy} detection, the extremal
interval construction, and the scaled-down richness scanner.

The extremal coloring gives color i to [a_i, a_{i+1}) with
a_i = (3^i + 9) / 2, i = 0..r-1, and color 0 to {1, 2, 3, 4}; then
N = (3^r + 7) / 2 carries no monochromatic {x+y, xy} with x > y > 2
because a_{i+1} = 3 (a_i - 3): a sum landing in an interval pushes the
product past its right end.

The richness scanner works at configurable desk parameters: the real
construction uses B_0 = {V^{4^i}} with V a huge factorial and prime
windows at doubly exponential heights, which are astronomically out of
reach, so V, imax, the windows and kmax are exposed as configuration and
the mapping is documented in the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .averages import cfsum
from .errors import CapacityError, DomainError
from .numtheory import harmonic, sieve_primes

INT_BUDGET = 2 ** 62


@dataclass
class Coloring:
    N: int
    r: int
    colors: np.ndarray  # colors[n - 1] in [0, r) for n in [1, N]

    def __post_init__(self):
        self.colors = np.asarray(self.colors, dtype=np.int64)
        if len(self.colors) != self.N:
            raise DomainError("colors array must have length N")
        if self.N >= 1 and (self.colors.min() < 0
                            or self.colors.max() >= self.r):
            raise DomainError("color indices must lie in [0, r)")

    def color_of(self, n: int) -> int:
        return int(self.colors[n - 1])

    def to_rle_obj(self) -> dict:
        starts = np.flatnonzero(np.diff(self.colors, prepend=-1))
        lengths = np.diff(starts, append=self.N)
        runs = [[c, n] for c, n in zip(self.colors[starts].tolist(),
                                       lengths.tolist())]
        return {"N": self.N, "r": self.r, "runs": runs}

    def to_rle_json(self) -> str:
        return json.dumps(self.to_rle_obj(), sort_keys=True)

    @classmethod
    def from_rle_json(cls, text: str) -> "Coloring":
        obj = json.loads(text)
        runs = obj.get("runs") if isinstance(obj, dict) else None
        if not (isinstance(runs, list)
                and all(isinstance(run, list) and len(run) == 2
                        for run in runs)
                and all(type(v) is int  # JSON true is a bool, not an int
                        for v in chain((obj.get("N"), obj.get("r")), *runs))
                and all(length >= 0 for _, length in runs)):
            raise DomainError("a coloring is a JSON object with integer "
                              "N, r and runs of [color, length] pairs, "
                              "each length >= 0")
        cols = np.concatenate([np.full(length, c, dtype=np.int64)
                               for c, length in runs]) \
            if runs else np.zeros(0, dtype=np.int64)
        return cls(N=obj["N"], r=obj["r"], colors=cols)


@dataclass(frozen=True)
class PatternWitness:
    x: int
    y: int
    color: int
    sum: int
    prod: int

    def validate(self, coloring: Coloring):
        if not (self.x > self.y > 2):
            raise DomainError("witness needs x > y > 2")
        if self.sum != self.x + self.y or self.prod != self.x * self.y:
            raise DomainError("witness sum/prod inconsistent")
        if self.prod > coloring.N:
            raise DomainError("witness product outside [N]")
        if coloring.color_of(self.sum) != self.color or \
                coloring.color_of(self.prod) != self.color:
            raise DomainError("witness is not monochromatic")


def extremal_coloring(r: int) -> Coloring:
    """The interval coloring of [ (3^r + 7) / 2 ] with r colors."""
    if r < 1:
        raise DomainError("need r >= 1")
    N = (3 ** r + 7) // 2
    if 8 * N > np.iinfo(np.int64).max:  # numpy's largest array, in bytes
        raise CapacityError(f"the int64 colors of N = (3^{r}+7)/2 "
                            f"exceed 2^63 - 1 bytes")
    bounds = [(3 ** i + 9) // 2 for i in range(r + 1)]  # a_0 .. a_r
    cols = np.zeros(N, dtype=np.int64)
    for i in range(r):
        lo, hi = bounds[i], min(bounds[i + 1], N + 1)
        cols[lo - 1: hi - 1] = i
    # {1,2,3,4} get color 0; already 0 by initialization
    return Coloring(N=N, r=r, colors=cols)


def find_monochromatic(c: Coloring):
    """Lexicographically least (y, x) with colors[x+y] == colors[xy].

    Scans y = 3, 4, ... and x = y+1 upward while xy <= N; exact integers.
    """
    N = c.N
    cols = c.colors
    y = 3
    while y * (y + 1) <= N:
        x = np.arange(y + 1, N // y + 1, dtype=np.int64)  # nonempty
        hit = cols[x + y - 1] == cols[x * y - 1]
        if hit.any():
            xi = int(x[np.argmax(hit)])
            return PatternWitness(x=xi, y=y, color=int(cols[xi + y - 1]),
                                  sum=xi + y, prod=xi * y)
        y += 1
    return None


@dataclass(frozen=True)
class RichnessConfig:
    V: int
    imax: int
    prime_windows: tuple
    kmax: int

    def b_set(self) -> list[int]:
        if self.V < 2 or self.imax < 1:
            raise DomainError("need V >= 2 and imax >= 1")
        out = []
        for i in range(1, self.imax + 1):
            b = self.V ** (4 ** i)
            if b > INT_BUDGET:
                raise CapacityError(
                    f"V^(4^{i}) exceeds the integer budget")
            out.append(b)
        return out


@dataclass
class RichnessReport:
    N: int
    r: int
    b_values: list
    table: np.ndarray           # shape (len(b_values), r): per-b, per-color
    selected_color: int
    threshold: float
    hits_per_color: list
    pair_stats: list            # rows (b, b', k, value)
    mapping_note: str

    def to_csv_rows(self) -> list:
        head = ["b"] + [f"color{j}" for j in range(self.r)]
        rows = [head]
        for b, vals in zip(self.b_values, self.table):
            rows.append([b] + [repr(float(v)) for v in vals])
        return rows

    def to_obj(self) -> dict:
        return {**vars(self),
                "b_values": [int(b) for b in self.b_values],
                "table": [[repr(float(v)) for v in row]
                          for row in self.table],
                "threshold": repr(self.threshold),
                "pair_stats": [
                    {"b": int(b), "bp": int(bp), "k": k, "value": repr(v)}
                    for (b, bp, k, v) in self.pair_stats]}


_MAPPING_NOTE = (
    "desk-scale stand-in: the construction takes K = C0*r^8, t = K^2, "
    "V = (ceil(r^(4+eps0))^C)!, B0 = {V^(4^i) : i <= K^2} and prime "
    "windows at heights exp exp(r^25(4Ki+j)); here V, imax, the windows "
    "and kmax are free configuration at feasible sizes")


def richness_scan(c: Coloring, cfg: RichnessConfig) -> RichnessReport:
    """Per-color multiple-density table plus pair statistics.

    (i) for every color j and b in B0 the log-density of A_j among
    multiples of b; (ii) the color with the most b reaching 1/(4r);
    (iii) for chosen b < b' and k <= kmax prime windows, the statistic
    E^log_{n, p_1..p_k} 1_A(bn) 1_A(b' p_1...p_k n).
    """
    b_values = cfg.b_set()
    N, r = c.N, c.r
    if b_values and b_values[-1] * N > INT_BUDGET:
        raise CapacityError("N * max(B0) exceeds the index budget")
    hn = harmonic(N)
    tab = np.zeros((len(b_values), r), dtype=np.float64)
    for bi, b in enumerate(b_values):
        for j in range(r):
            # with b' = b and no windows the pair statistic is the
            # log-density of A_j among the multiples of b
            tab[bi, j] = _pair_statistic(c.colors, j, b, b, [], N, hn)
    threshold = 1.0 / (4.0 * r)
    hits = [int(np.count_nonzero(tab[:, j] >= threshold)) for j in range(r)]
    selected = int(np.argmax(hits))  # argmax takes the smallest j on ties

    windows = list(cfg.prime_windows)
    if not 0 <= cfg.kmax <= len(windows):
        raise DomainError("kmax must lie in [0, number of prime windows]")
    primes_per_window = []
    if cfg.kmax >= 1:
        hi = max(b for _, b in windows[: cfg.kmax])
        table = sieve_primes(max(hi, 4))
        for (a, b) in windows[: cfg.kmax]:
            ps = table.primes_array(a, b)
            if len(ps) == 0:
                raise DomainError(f"prime window [{a}, {b}) is empty")
            primes_per_window.append(ps.tolist())

    pair_stats = []
    cols = c.colors
    for ai in range(len(b_values)):
        for bi in range(ai + 1, len(b_values)):
            b, bp = b_values[ai], b_values[bi]
            for k in range(1, cfg.kmax + 1):
                val = _pair_statistic(cols, selected, b, bp,
                                      primes_per_window[:k], N, hn)
                pair_stats.append((b, bp, k, val))
    return RichnessReport(N=N, r=r, b_values=b_values, table=tab,
                          selected_color=selected, threshold=threshold,
                          hits_per_color=hits, pair_stats=pair_stats,
                          mapping_note=_MAPPING_NOTE)


def _pair_statistic(cols: np.ndarray, color: int, b: int, bp: int,
                    window_primes: list, N: int, hn: float) -> float:
    """E^log_{n, p_1..p_k} 1_A(b n) 1_A(b' p_1...p_k n), truncated at N."""
    tuples = [(1, 1.0)]
    for primes in window_primes:
        wsum = math.fsum(1.0 / p for p in primes)
        tuples = [(prod * p, w * (1.0 / p) / wsum)
                  for prod, w in tuples for p in primes]
    total = 0.0
    for prod, weight in tuples:
        m = N // (bp * prod)
        if m == 0:
            continue
        n = np.arange(1, m + 1, dtype=np.int64)
        mask = (cols[b * n - 1] == color) & (cols[bp * prod * n - 1] == color)
        total += weight * cfsum(1.0 / n[mask]).real / hn
    return total
