import hashlib

import pytest

from sumprod.errors import DomainError
from sumprod.suites import records_to_csv, run_suite, suite_names


class TestSuitesPinned:
    """sha256 of every suite's lemma CSV at the default seed and 200 draws.

    Recorded before progression reads became strided views and cfsum
    gained its exact binned kernel; both must leave every byte as it was.
    """

    DIGESTS = {
        "almost-period": "76c4e80b1ce57c07689bc283f5810c7e"
                         "e8dbf628e4d02dec9f9b8e450aba13c1",
        "dilate": "0fb9b95cdbd6c2cf53f4d38456038eb2"
                  "6642b053a7ca71c1d7b6ab479ddae6de",
        "elliott": "424845521b39f8884a701cd94ef664d7"
                   "f7e54d5163d6cf93342152ebf6d9a60a",
        "frobenius": "0c7af5f0a21770f050e04b2a8af6c973"
                     "a71bf8869989dfdbd5b1e53ac3a152c1",
        "gp-compar": "558def4a2c2599915f5fb12e9bba88c2"
                     "10189dddbbc8fd5e1bfcafcb8943af94",
        "maximal": "3c4be55471baca59fe33156e93483e74"
                   "6fd8bed2ec7c84a0f846e3c8d28c169e",
        "proj-check": "a649431dbd9c447f188a76820748d4da"
                      "01a76e93b59d01947ba0d166e2b4e3f1",
        "pythagoras": "58b160c48699beea1de97d665414cdd6"
                      "a589c23ebb0ed0b24bc88d27c4a45d3a",
        "residue-split": "e0a2571463fc925f3880cbca6ce684a8"
                         "050900a11185f1f2a26a4e21a6fb8f2f",
        "shift": "c4eb3973c1e0fa83ca5e0f01a95770c7"
                 "7c571eea32045e2d494f8f907dece2a9",
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
