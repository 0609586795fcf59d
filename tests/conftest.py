import warnings

import numpy as np
import pytest

from sumprod.numtheory import MultiplicativeTables, sieve_primes


@pytest.fixture(scope="session")
def prime_table():
    return sieve_primes(10 ** 6)


@pytest.fixture(scope="session")
def tables_1e5():
    return MultiplicativeTables.build(10 ** 5)


@pytest.fixture(scope="session")
def grid_draws():
    """2,000 seeded (j, M, cap) triples as 40 groups (js, M, cap).

    Every group has j = 0 and j = M - 1; M goes up to 2^26; cap is 1,
    inside [1, M], M, above M, above 2^63, or None.
    """
    rng = np.random.default_rng(20261019)
    out = []
    for g in range(40):
        M = 2 ** 26 if g % 10 == 0 else int(rng.integers(2, 2 ** 26 + 1))
        js = [0, M - 1] + rng.integers(0, M, size=48).tolist()
        cap = [1, int(rng.integers(1, M + 1)), M,
               M + int(rng.integers(1, 4 * M)),
               2 ** 63 + int(rng.integers(0, 2 ** 40)), None][g % 6]
        out.append((js, M, cap))
    return out


@pytest.fixture(autouse=True)
def _quiet_norm_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*error terms degrade.*")
        warnings.filterwarnings("ignore", message=".*bounds degrade.*")
        yield


def rng(seed=1729):
    return np.random.default_rng(seed)
