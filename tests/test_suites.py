import hashlib

import pytest

from sumprod.errors import DomainError
from sumprod.suites import records_to_csv, run_suite, suite_names


class TestSuitesPinned:
    """sha256 of every suite's lemma CSV at the default seed and 200 draws.

    maximal's was recorded before progression reads became strided
    views and cfsum gained its exact binned kernel; the others were
    re-recorded when random_disc became rejection from the square.
    """

    DIGESTS = {
        "almost-period": "da37eed591c8fbb3e5decb648c7bedb7"
                         "64abf791409aa49972eb70901476a713",
        "dilate": "6f99b66d8813aa59440f54257602205b"
                  "a221b0a949d907964aa8e6bd7368da59",
        "elliott": "419e165439c0199a36037e241574f8ab"
                   "e141307ce3a966f4572ed660a9132bdd",
        "frobenius": "b6f59d0d6463508223f4213805214fa2"
                     "2487d123d02dce7fb00bc3398cfd547d",
        "gp-compar": "f098bed76bd1cfa7b4860f612c31c320"
                     "8b967ba879df2f9ebb12fa576860767d",
        "maximal": "3c4be55471baca59fe33156e93483e74"
                   "6fd8bed2ec7c84a0f846e3c8d28c169e",
        "proj-check": "325a8db876e5581379d0b773ebd09ce7"
                      "20b11a4d0ce9d98de642302fd080036d",
        "pythagoras": "fb33b2e40a11f587da3502c10f6e0d1e"
                      "0230ef06ff0f5fd3e7fb0f3ea859abeb",
        "residue-split": "2dfee1b576d1ff2931c0e5bce85f8594"
                         "bb4ca0747f69f5a3684ba80c087ac80b",
        "shift": "ccad9c2efd19090cec678f837e1e05f9"
                 "dd60f19c556a84033d33704056a0a462",
    }

    def test_every_suite_is_pinned(self):
        assert sorted(self.DIGESTS) == suite_names()

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_csv_digest(self, name):
        csv_text = records_to_csv(run_suite(name, seed=1729, draws=200), name)
        digest = hashlib.sha256(csv_text.encode()).hexdigest()
        assert digest == self.DIGESTS[name]


@pytest.mark.parametrize("draws", [0, -3])
def test_no_draws_raises(draws):
    # zero records would pass every ceiling without checking anything
    with pytest.raises(DomainError, match="draws >= 1"):
        run_suite("shift", draws=draws)
