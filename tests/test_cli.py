import argparse
import hashlib
import itertools
import json
import os
import re
import shlex
import tracemalloc
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from sumprod import cli, sieve
from sumprod.cli import main
from sumprod.coloring import RichnessReport, extremal_coloring
from sumprod.diophantine import DiophReport, DiophRow, WeylReport
from sumprod.search import SearchCertificate, ThresholdResult

README = Path(__file__).parent.parent / "README.md"


def run(args):
    return main(args)


def subparsers():
    """The subcommands' parsers, by name."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class TestSubcommands:
    def test_extremal(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["extremal", "--r", "5", "--all-up-to",
                    "--output", out]) == 0
        obj = json.load(open(os.path.join(out, "extremal.json")))
        assert obj["result"]["all_clean"]
        assert len(obj["result"]["results"]) == 5

    def test_detect(self, tmp_path):
        col = tmp_path / "col.json"
        col.write_text(extremal_coloring(4).to_rle_json())
        out = str(tmp_path / "o")
        assert run(["detect", "--coloring", str(col), "--output", out]) == 0
        obj = json.load(open(os.path.join(out, "detect.json")))
        assert obj["result"]["witness"] is None

    def test_threshold_r1(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["threshold", "--r", "1", "--output", out]) == 0
        obj = json.load(open(os.path.join(out, "threshold.json")))
        assert obj["result"]["n_star"] == 12

    def test_threshold_r3(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["threshold", "--r", "3", "--nmax", "800",
                    "--output", out]) == 0
        obj = json.load(open(os.path.join(out, "threshold.json")))
        assert obj["result"]["n_star"] == 774
        assert obj["result"]["at"]["trace"]["nodes"] == 87982

    def test_threshold(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["threshold", "--r", "2", "--output", out]) == 0
        obj = json.load(open(os.path.join(out, "threshold.json")))
        assert obj["result"]["n_star"] > 8

    def test_threshold_exhausted_exit_code(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["threshold", "--r", "2", "--nmax", "30",
                    "--output", out]) == 4

    def test_norms(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["norms", "--N", "2000", "--q", "1,2", "--H", "8,16",
                    "--output", out]) == 0
        lines = open(os.path.join(out, "norms.csv")).read().splitlines()
        assert lines[0] == "q,H,u1log,u1,u1log_projected"
        assert len(lines) == 5

    def test_lemma_check(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["lemma-check", "--name", "dilate", "--draws", "30",
                    "--seed", "7", "--output", out]) == 0
        csv_lines = open(os.path.join(out,
                                      "lemma_dilate.csv")).read().splitlines()
        assert csv_lines[0] == "name,N,params,lhs,bound,ratio"
        assert len(csv_lines) == 31

    def test_dioph_verify(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["dioph", "--mode", "verify", "--set", "interval",
                    "--D", "100", "--levels", "0.1,0.4",
                    "--grid", str(2 ** 16), "--output", out]) == 0

    def test_dioph_rows_hold_every_failure_once(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["dioph", "--set", "almostprime", "--L", "1", "--Lp", "2",
                    "--levels", "0.2,0.4", "--grid", str(2 ** 16),
                    "--output", out]) == 1
        result = artifact(out)["result"]
        assert "failures" not in result
        n_fail = sum(s["n_fail"] for s in result["levels"])
        assert sum(not r["passed"] for r in result["rows"]) == n_fail > 0

    def test_dioph_vacuous_levels_write_no_rows(self, tmp_path):
        # at the interval default only 0.4 is non-vacuous: it writes its
        # first 512 points, and the vacuous levels keep only summaries
        out = str(tmp_path / "o")
        assert run(["dioph", "--output", out]) == 0
        result = artifact(out)["result"]
        assert {s["level"]: s["vacuous"] for s in result["levels"]} == \
            {0.4: False, 0.2: True, 0.1: True, 0.05: True}
        assert Counter(r["level"] for r in result["rows"]) == {0.4: 512}

    def test_dioph_empirical_L_where_every_level_is_vacuous(self, tmp_path):
        # at L = 3 every default level is vacuous; the empirical L still
        # walks their points, and the definition's L >= 1 floors it
        out = str(tmp_path / "o")
        assert run(["dioph", "--L", "3", "--grid", str(2 ** 16),
                    "--empirical-L", "--output", out]) == 0
        result = artifact(out)["result"]
        assert all(s["vacuous"] for s in result["levels"])
        assert result["empirical_L"] == 1.0

    def test_dioph_vino(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["dioph", "--mode", "vino", "--alpha", "0.2",
                    "--output", out]) == 0

    def test_dioph_weyl(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["dioph", "--mode", "weyl", "--X", "10000",
                    "--grid", str(2 ** 16), "--output", out]) == 0

    def test_sieve(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["sieve", "--X", "10000", "--output", out]) == 0
        obj = json.load(open(os.path.join(out, "sieve_report.json")))
        assert obj["result"]["checks"]["nonnegative"]

    def test_richness(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["richness", "--r", "3", "--output", out]) == 0
        lines = open(os.path.join(out, "richness.csv")).read().splitlines()
        assert lines[0].startswith("b,color0")


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_removed_workers_flag_is_a_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run(["extremal", "--r", "1", "--workers", "2",
                    "--output", out]) == 2
        assert not os.path.exists(out)

    def test_bad_parameter(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["dioph", "--mode", "verify", "--levels", "2.0",
                    "--output", out]) == 2

    def test_capacity(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["dioph", "--mode", "verify", "--D", "1000",
                    "--grid", str(2 ** 30), "--output", out]) == 3

    def test_extremal_beyond_numpy_array_size(self, tmp_path, capsys):
        # 8N > 2^63 - 1 bytes: a capacity error, not numpy's ValueError
        out = str(tmp_path / "o")
        assert run(["extremal", "--r", "39", "--output", out]) == 3
        assert "capacity error:" in capsys.readouterr().err

    def test_float_overflow_is_a_config_error(self, tmp_path, capsys):
        # (L'/delta)^L, eps^-exponent and X^m each overflow a float
        out = str(tmp_path / "o")
        for flags, name in [
                (["--mode", "verify", "--L", "400", "--grid", "65536"], "L"),
                (["--mode", "weyl", "--exponent", "500"], "exponent"),
                (["--mode", "weyl", "--m", "120"], "m")]:
            assert run(["dioph", *flags, "--output", out]) == 2
            assert f"at {name} = " in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_negative_exponent_is_a_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run(["dioph", "--mode", "weyl", "--X", "1000", "--grid",
                    "4096", "--exponent", "-500", "--output", out]) == 2
        assert "exponent must be >= 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_malformed_coloring_file_is_a_config_error(self, tmp_path,
                                                       capsys):
        col = tmp_path / "col.json"
        out = str(tmp_path / "o")
        for text in ['{"N": 3, "r": 2}', '{"r": 2, "runs": [[0, 3]]}',
                     '[[0, 3]]']:
            col.write_text(text)
            for cmd in ("detect", "richness"):
                assert run([cmd, "--coloring", str(col),
                            "--output", out]) == 2
                assert "N, r and runs" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_mistyped_coloring_file_is_a_config_error(self, tmp_path,
                                                      capsys):
        # wrong types inside the object: exit 2, not a traceback
        col = tmp_path / "col.json"
        out = str(tmp_path / "o")
        col.write_text('{"N": 3, "r": 1, "runs": [[0, 1.5]]}')
        assert run(["detect", "--coloring", str(col), "--output", out]) == 2
        assert "N, r and runs" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_config_not_an_object_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        out = str(tmp_path / "o")
        assert run(["extremal", "--config", str(cfg), "--output", out]) == 2
        assert "JSON object" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_no_draws_is_a_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        for draws in ("0", "-3"):
            assert run(["lemma-check", "--name", "shift", "--draws", draws,
                        "--output", out]) == 2
            assert "draws >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_degenerate_weyl_grid_is_a_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        for grid in ("0", "15"):
            assert run(["dioph", "--mode", "weyl", "--X", "1000", "--grid",
                        grid, "--output", out]) == 2
            assert "grid too small" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_nan_or_negative_time_budget_is_a_config_error(self, tmp_path,
                                                           capsys):
        out = str(tmp_path / "o")
        for budget in ("nan", "-1"):
            assert run(["threshold", "--r", "3", "--nmax", "800",
                        "--time-budget", budget, "--output", out]) == 2
            assert "time budget >= 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv, message", [
        (["dioph", "--mode", "verify", "--L", "inf"], "finite number"),
        (["dioph", "--mode", "verify", "--Lp", "inf"], "finite number"),
        (["dioph", "--mode", "weyl", "--exponent", "inf"], "finite number"),
        (["sieve", "--A", "inf"], "finite number"),
        (["dioph", "--mode", "vino", "--alpha", "nan"], "finite number"),
        (["dioph", "--mode", "vino", "--delta1", "nan"], "finite number"),
        (["dioph", "--mode", "vino", "--delta2", "nan"], "finite number"),
        (["dioph", "--L", "nan"], "finite number"),
        (["sieve", "--R", "nan"], "finite number"),
        (["dioph", "--levels", "0.1,nan"], "delta levels"),
        (["richness", "--kmax", "-1"], "kmax")])
    def test_bad_number_is_a_config_error(self, tmp_path, capsys, argv,
                                          message):
        out = str(tmp_path / "o")
        assert run(argv + ["--output", out]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_bound_failure(self, tmp_path):
        # an absurdly tight exponent makes the structure check fail
        out = str(tmp_path / "o")
        assert run(["dioph", "--mode", "weyl", "--X", "10000",
                    "--exponent", "0.1", "--grid", str(2 ** 16),
                    "--output", out]) == 1


class TestParser:
    def test_only_time_budget_takes_a_plain_float(self):
        # a plain float type lets nan and inf through to the library;
        # for --time-budget inf means no budget
        plain = [(name, a.dest) for name, p in subparsers().items()
                 for a in p._actions if a.type is float]
        assert plain == [("threshold", "time_budget")]


class TestConfigPrecedence:
    def test_file_provides_defaults_cli_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 4}))
        out1 = str(tmp_path / "a")
        assert run(["extremal", "--config", str(cfg), "--output", out1]) == 0
        obj = json.load(open(os.path.join(out1, "extremal.json")))
        assert obj["result"]["results"][0]["r"] == 4
        out2 = str(tmp_path / "b")
        assert run(["extremal", "--config", str(cfg), "--r", "2",
                    "--output", out2]) == 0
        obj = json.load(open(os.path.join(out2, "extremal.json")))
        assert obj["result"]["results"][0]["r"] == 2


class TestConfigFile:
    """A config file's keys are the subcommand's flags, checked by argparse
    like the command line's."""

    def _run(self, tmp_path, argv, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        return run(argv + ["--config", str(cfg),
                           "--output", str(tmp_path / "o")])

    @pytest.mark.parametrize("argv, values, named", [
        (["extremal"], {"rr": 4}, "'rr'"),
        (["extremal"], {"func": 1}, "'func'"),
        (["threshold"], {"t": 5}, "'t'"),  # no prefix of --time-budget
        (["extremal"], {"r": 4.5}, "--r"),
        (["sieve"], {"variant": "bogus"}, "--variant"),
    ], ids=["unknown", "func", "abbreviation", "type", "choice"])
    def test_bad_key_or_value_is_a_usage_error(self, tmp_path, capsys, argv,
                                               values, named):
        assert self._run(tmp_path, argv, values) == 2
        assert named in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("values", [{"rr": 4}, {"parser": 1}, [1]],
                             ids=["unknown", "parser", "not-an-object"])
    def test_bad_config_reported_under_subcommand_usage(self, tmp_path,
                                                        capsys, values):
        assert self._run(tmp_path, ["extremal"], values) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sumprod extremal ")
        assert "--all-up-to" in err
        assert "sumprod extremal: error: " in err

    def test_true_sets_a_store_true_flag(self, tmp_path):
        assert self._run(tmp_path, ["extremal"],
                         {"r": 4, "all_up_to": True}) == 0
        obj = json.load(open(tmp_path / "o" / "extremal.json"))
        assert obj["config"]["all_up_to"] is True
        assert [row["r"] for row in obj["result"]["results"]] == [1, 2, 3, 4]


def artifact(outdir):
    """The one JSON artifact in outdir that has a config object."""
    (obj,) = [obj for obj in
              (json.loads(p.read_text()) for p in Path(outdir).glob("*.json"))
              if "config" in obj]
    return obj


def header(outdir):
    return artifact(outdir)["config"]


def field_names(cls):
    return {f.name for f in fields(cls)}


class TestHeader:
    """A JSON artifact's header is every flag of the subcommand but
    --config and --output, as resolved, plus precedence and version.
    Its result is the report's fields, and README names every file."""

    # non-default command lines; the second list holds the required flags
    CASES = [
        (["extremal", "--r", "5", "--all-up-to"], []),
        (["detect"], ["--coloring", "col.json"]),
        (["threshold", "--r", "3", "--nmax", "100"], []),
        (["norms", "--N", "1500", "--q", "1,3", "--H", "8", "--function",
          "phase", "--alpha", "0.3"], []),
        (["lemma-check", "--draws", "5", "--seed", "11"],
         ["--name", "shift"]),
        (["dioph", "--set", "almostprime", "--intervals", "100:140",
          "--levels", "0.1", "--grid", "4096", "--empirical-L"], []),
        (["dioph", "--mode", "vino", "--alpha", "0.3", "--T", "500"], []),
        (["dioph", "--mode", "weyl", "--X", "1000", "--grid", "4096"], []),
        (["sieve", "--X", "10000", "--Q", "4", "--export-decomposition"],
         []),
        (["richness", "--coloring", "col.json", "--V", "3"], []),
    ]
    IDS = ["extremal", "detect", "threshold", "norms", "lemma-check",
           "dioph-verify", "dioph-vino", "dioph-weyl", "sieve", "richness"]

    @pytest.fixture(autouse=True)
    def _cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("col.json").write_text(extremal_coloring(4).to_rle_json())

    @pytest.mark.parametrize("argv, required", CASES, ids=IDS)
    def test_header_is_every_flag(self, argv, required):
        run(argv + required + ["--output", "o"])
        flags = {a.dest for a in subparsers()[argv[0]]._actions} - {
            "help", "config", "output"}
        assert set(header("o")) == flags | {"precedence", "version"}

    @pytest.mark.parametrize("argv, required", CASES, ids=IDS)
    def test_header_replays_the_run(self, argv, required):
        code = run(argv + required + ["--output", "a"])
        values = header("a")
        del values["precedence"], values["version"]
        Path("cfg.json").write_text(json.dumps(values))
        assert run(argv[:1] + required + ["--config", "cfg.json",
                                          "--output", "b"]) == code
        assert dir_digest("b") == dir_digest("a")

    @pytest.mark.parametrize("argv, key, value", [
        (["threshold", "--r", "3", "--nmax", "100"], "time_budget", 60.0),
        (["richness", "--coloring", "col.json"], "coloring", "col.json"),
        (["richness", "--coloring", "col.json", "--r", "0"], "r", 4),
        (["sieve", "--X", "10000", "--export-decomposition"],
         "export_decomposition", True),
        (["sieve", "--X", "10000"], "R", 10.0),
        (["sieve", "--X", "10000"], "cexp", 0.125),
        (["sieve", "--X", "10000"], "A", 4.0),
        (["dioph", "--levels", "0.1", "--grid", "4096"], "mode", "verify"),
        (["dioph", "--mode", "vino"], "mode", "vino"),
        (["dioph", "--mode", "weyl", "--X", "1000", "--grid", "4096"],
         "mode", "weyl"),
    ], ids=["threshold-budget", "richness-coloring", "richness-file-r",
            "sieve-export", "sieve-R", "sieve-cexp", "sieve-A",
            "dioph-verify", "dioph-vino", "dioph-weyl"])
    def test_header_logs_resolved_value(self, argv, key, value):
        run(argv + ["--output", "o"])
        assert header("o")[key] == value

    # a result written from a report, and the report's class
    REPORTS = {"threshold": ThresholdResult, "dioph-verify": DiophReport,
               "dioph-weyl": WeylReport, "richness": RichnessReport}

    @pytest.mark.parametrize("case", REPORTS)
    def test_result_is_the_report_fields(self, case):
        argv, required = self.CASES[self.IDS.index(case)]
        run(argv + required + ["--output", "o"])
        assert set(artifact("o")["result"]) == field_names(self.REPORTS[case])

    def test_certificates_are_their_fields(self):
        run(["threshold", "--r", "2", "--output", "o"])
        result = artifact("o")["result"]
        names = field_names(SearchCertificate) - {"coloring"}
        # the colorable [n_star - 1] carries its coloring, [n_star] none
        assert set(result["below"]) == names | {"coloring_rle"}
        assert set(result["at"]) == names

    @pytest.mark.parametrize("argv, required", CASES, ids=IDS)
    def test_artifacts_are_in_readme(self, argv, required):
        run(argv + required + ["--output", "o"])
        schemas = README.read_text().split("## Output schemas", 1)[1]
        schemas = schemas.split("\n## ", 1)[0]
        for name in os.listdir("o"):
            name = re.sub(r"^lemma_[a-z-]+\.", "lemma_<name>.", name)
            assert f"`{name}`" in schemas


class TestReadme:
    def test_command_lines_parse(self):
        readme = README.read_text()
        block = readme.split("## Command line", 1)[1].split("```bash", 1)[1]
        lines = [line for line in block.split("```", 1)[0].splitlines()
                 if line.startswith("sumprod ")]
        assert lines
        parser = cli.build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])

    def test_row_schema_is_the_row_type(self):
        # README's dioph row keys are DiophRow's fields, in order
        text = re.search(r"A row is `\{(.*?)\}`", README.read_text(), re.S)
        assert re.findall(r'"(\w+)"', text.group(1)) == \
            [f.name for f in fields(DiophRow)]


class TestDeterminism:
    CASES = [
        ["extremal", "--r", "6"],
        ["threshold", "--r", "2"],
        ["lemma-check", "--name", "shift", "--draws", "25", "--seed", "11"],
        ["lemma-check", "--name", "proj-check", "--draws", "10",
         "--seed", "11"],
        ["norms", "--N", "1500", "--q", "1,3", "--H", "8", "--seed", "3"],
        ["dioph", "--mode", "verify", "--D", "100", "--levels", "0.1",
         "--grid", str(2 ** 14)],
        ["sieve", "--X", "10000", "--export-decomposition"],
        ["richness", "--r", "4"],
    ]

    def test_byte_identical_reruns(self, tmp_path):
        for i, case in enumerate(self.CASES):
            d1 = str(tmp_path / f"run1_{i}")
            d2 = str(tmp_path / f"run2_{i}")
            assert run(case + ["--output", d1]) == 0
            assert run(case + ["--output", d2]) == 0
            assert dir_digest(d1) == dir_digest(d2), case


class TestDefaultArtifactsPinned:
    """sha256 of every default-config CLI artifact directory, recorded
    from the code before the one-path fold; sieve's was recorded again
    when sieve_report.json gained the band Fourier-sup enclosures.  The
    threshold, dioph, sieve and richness digests were recorded again when
    the JSON header became every resolved flag: their headers gained the
    flags they had left out (time_budget; mode and the other modes'
    flags; export_decomposition; coloring), and no result or CSV byte
    changed.  dioph-verify (was dbf9fb0d...58aee) and dioph-weyl (was
    94e1d450...2a5a) were recorded again when the spectrum became block
    DFTs over the signal's own window: only the rows' abs_sum bytes
    moved, by about 1e-15 relative.  They were recorded once more
    (was 639724a4...bd3a and d01d0f21...814f) when each row came to be
    written once: dioph.json and weyl.json lost `failures`, weyl.json
    `all_pass`, every row its `vacuous`, and dioph.json the rows of its
    vacuous levels; the old JSON less those keys and rows equals the
    new, and dioph_summary.csv is unchanged.  sieve (was 9c6fa856...d60a)
    was recorded again when the Selberg weights became builtin floats:
    decomposition.json's "c" strings lost their np.float64(...) wrapper,
    with the same values.  Each subcommand runs in a fresh working
    directory with relative paths; a digest covers every file under the
    output directory in sorted order, as relative path, a NUL byte, then
    the file's bytes."""

    SEED = "1729"
    CASES = [
        ("extremal", ["extremal", "--r", "12", "--all-up-to"],
         "8f549cca5e9d5dde4100850c954d3ebfaa4cd6161a613ae98e0195a031217922"),
        ("threshold-r1", ["threshold", "--r", "1"],
         "d2f0d3df5eb505fc986d69b8d6d3abe59cd7d12c6d778c59e464c047ca9b4916"),
        ("threshold-r2", ["threshold", "--r", "2"],
         "dd4414dd5068f0f6a75c44bc1013a7ccab7638a9ef73e88b7dcf1f3e73ea104b"),
        ("detect", ["detect", "--coloring", "inputs/extremal.json"],
         "8e68d919596b5ed8d02b85d653d972e7af5276a846d826ce9af3f7e02ecb3746"),
        ("norms", ["norms", "--seed", SEED],
         "2ffcc28c58765d858684ed0075022d65278085bd099d70b64fb6db257325f7e6"),
        ("lemma-check", ["lemma-check", "--name", "maximal", "--seed", SEED],
         "5b43e643c405722845e40b59df26de6608a16293ce209a4b38dcce293a7d0ed6"),
        ("dioph-verify", ["dioph", "--mode", "verify"],
         "0386f0fe348bae98b408fc9e159ba10413a9c28314a54f88287149e43a3712aa"),
        ("dioph-weyl", ["dioph", "--mode", "weyl"],
         "9bed9245faf9722d424e5246d4e46bdc1f0f1ff05d07f241b335cc968321a2b0"),
        ("dioph-vino", ["dioph", "--mode", "vino"],
         "fb5a3f9084202fa57bac89e544005be9ee54da587e41a1d6a272417ba19f6b26"),
        ("sieve", ["sieve", "--export-decomposition"],
         "833fac2fb12a767f810ae599f7393bd2a833be942862d74dc6a72b4244dba306"),
        ("richness", ["richness"],
         "ab1787fefd7217121dbfd1446a388902e5e4e0848e8e5a5703527670168376fa"),
    ]

    # single files whose bytes are pinned apart from their directory's
    # digest; decomposition.json (was d96218b4...7fc4) was recorded again
    # when its "c" strings lost their np.float64(...) wrapper
    FILE_PINS = {
        "sieve/decomposition.json":
        "f7118a143e2b83aa05a543c4c8eb0cc07f6d988cff9de17d0b80e2e951486e3c",
    }

    @staticmethod
    def tree_digest(root):
        h = hashlib.sha256()
        root = Path(root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
        return h.hexdigest()

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """The directory every case wrote its output directory into."""
        root = tmp_path_factory.mktemp("defaults")
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(root)
            rle = Path("inputs") / "extremal.json"
            rle.parent.mkdir()
            rle.write_text(extremal_coloring(12).to_rle_json())
            for name, argv, _ in self.CASES:
                assert run(argv + ["--output", name]) == 0, name
        return root

    def test_digests(self, written):
        got, want = {}, {}
        for name, _, digest in self.CASES:
            got[name], want[name] = self.tree_digest(written / name), digest
        for path, digest in self.FILE_PINS.items():
            got[path] = hashlib.sha256(
                (written / path).read_bytes()).hexdigest()
            want[path] = digest
        assert got == want

    def test_no_numpy_scalar_reprs(self, written):
        # a numpy scalar's repr ("np.float64(0.5)" under numpy 2) is a
        # string that float() cannot read, and numpy 1 writes it otherwise
        for path in sorted(p for p in written.rglob("*") if p.is_file()):
            data = path.read_bytes()
            assert b"np.float64(" not in data and b"np.int64(" not in data, \
                path.relative_to(written).as_posix()


class TestOutOfMemory:
    def test_memory_error_exits_capacity(self, tmp_path, monkeypatch,
                                         capsys):
        def exhausted(r):
            raise MemoryError()

        monkeypatch.setattr(cli, "extremal_coloring", exhausted)
        out = str(tmp_path / "o")
        assert run(["extremal", "--r", "25", "--output", out]) == 3
        assert "capacity error:" in capsys.readouterr().err

    def test_export_cut_short_leaves_no_file(self, tmp_path, monkeypatch,
                                             capsys):
        # the third float list runs out of memory after the export has
        # written its first pieces: nothing may stand under its name
        calls = []

        def fails_third(a):
            calls.append(a.size)
            if len(calls) == 3:
                raise MemoryError()
            return float_reprs(a)

        float_reprs = sieve._float_reprs
        monkeypatch.setattr(sieve, "_float_reprs", fails_third)
        out = tmp_path / "o"
        assert run(["sieve", "--export-decomposition",
                    "--output", str(out)]) == 3
        assert len(calls) == 3
        assert "capacity error:" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["sieve_report.json"]


class TestStreamedExport:
    def test_default_decomposition_memory(self, tmp_path):
        # written a list at a time, the 19 MB export never exists whole
        dec = sieve.band_decompose(10 ** 5, (10 ** 5) ** 0.25, 6)
        tracemalloc.start()
        try:
            cli._emit(str(tmp_path), "decomposition.json",
                      itertools.chain(dec.export_pieces(), ["\n"]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert os.listdir(tmp_path) == ["decomposition.json"]
        assert (tmp_path / "decomposition.json").read_text() == \
            dec.export_json() + "\n"
