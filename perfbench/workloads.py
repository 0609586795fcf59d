"""The benchmark's workloads: inputs drawn from a seed, jobs and oracles.

Each workload is a closed loop of jobs run one after another by a single
process.  `inputs` derives every generated input from the seed with the
standard library's generator, so the runner can print them without
importing the package; `setup` imports sumprod and builds the tables a
workload shares across its jobs; `jobs` returns the job list.  A job
returns its oracle checks and its artifact: a directory of files, or a
callable that serializes the result, so the caller can digest it after
the job's clock has stopped.

`tiny` sizes exist for the benchmark's own tests and keep every
mechanism of the `full` sizes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

NAMES = ("threshold-r3", "defect-suites", "almostprime-probe",
         "cli-defaults")
DEFAULT_SEED = 1729
SCALES = ("full", "tiny")
SUITE_DRAWS = {"full": 45, "tiny": 3}  # multiples of 3: one per DEFAULT_NS

THRESHOLD = {
    "full": {"r": 3, "nmax": 800, "n_star": 774,
             "probe_lo": 600, "probe_hi": 773, "probes": 4},
    "tiny": {"r": 2, "nmax": 100, "n_star": 54,
             "probe_lo": 40, "probe_hi": 53, "probes": 2},
}

# prime windows drawn near 1000:1080 and 10000:10400 as (start, width,
# jitter).  The obligated-point count, and so the run time, moves with the
# windows: its quartiles span 5% of the median over offsets of +-10 and
# +-40, and 1.4% over the offsets of +-2 and +-8 used here.
PROBE = {
    "full": {"windows": ((1000, 80, 2), (10000, 400, 8)),
             "grid": 2 ** 20, "table": 10 ** 6},
    "tiny": {"windows": ((100, 40, 5), (1000, 100, 20)),
             "grid": 2 ** 14, "table": 10 ** 4},
}
PROBE_LEVELS = [0.05, 0.1, 0.2, 0.4]

CLI_EXTREMAL_R = {"full": 12, "tiny": 6}
CLI_TINY_FLAGS = {
    "norms": ["--N", "2000"],
    "lemma-check": ["--draws", "3"],
    "dioph-verify": ["--grid", str(2 ** 16)],
    "dioph-weyl": ["--X", "10000", "--grid", str(2 ** 16)],
    "sieve": ["--X", "10000"],
}


def _cli_argvs(seed: int, scale: str) -> dict:
    r = CLI_EXTREMAL_R[scale]
    argvs = {
        "extremal": ["extremal", "--r", str(r), "--all-up-to"],
        "threshold-r1": ["threshold", "--r", "1"],
        "threshold-r2": ["threshold", "--r", "2"],
        "detect": ["detect", "--coloring", "{extremal_rle}"],
        "norms": ["norms", "--seed", str(seed)],
        "lemma-check": ["lemma-check", "--name", "maximal", "--seed",
                        str(seed)],
        "dioph-verify": ["dioph", "--mode", "verify"],
        "dioph-weyl": ["dioph", "--mode", "weyl"],
        "dioph-vino": ["dioph", "--mode", "vino"],
        "sieve": ["sieve", "--export-decomposition"],
        "richness": ["richness"],
    }
    if scale == "tiny":
        for job, flags in CLI_TINY_FLAGS.items():
            argvs[job] = argvs[job] + flags
    return argvs


def inputs(name: str, seed: int, scale: str = "full") -> dict:
    """Every generated input of a workload, as plain JSON values."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = random.Random(seed)
    if name == "threshold-r3":
        p = THRESHOLD[scale]
        probes = rng.sample(range(p["probe_lo"], p["probe_hi"] + 1),
                            p["probes"])
        return {"r": p["r"], "nmax": p["nmax"], "probe_N": probes}
    if name == "defect-suites":
        return {"suite_seed": seed, "draws": SUITE_DRAWS[scale]}
    if name == "almostprime-probe":
        p = PROBE[scale]
        windows = []
        for lo, width, jitter in p["windows"]:
            a = lo + rng.randint(-jitter, jitter)
            windows.append([a, a + width])
        return {"intervals": windows, "j": 1, "grid": p["grid"],
                "levels": PROBE_LEVELS, "table": p["table"]}
    if name == "cli-defaults":
        return {"seed": seed, "extremal_r": CLI_EXTREMAL_R[scale],
                "argv": _cli_argvs(seed, scale)}
    raise KeyError(f"unknown workload {name!r}")


def setup(name: str, inp: dict, after_import=None) -> dict:
    """Import sumprod as a user would and build the shared tables.

    after_import, when given, runs between the import and the tables (the
    tracer installs itself there, so table builds are traced too).
    """
    import sumprod
    if name == "defect-suites":
        import sumprod.suites
    if name == "cli-defaults":
        import sumprod.cli
    if after_import is not None:
        after_import()
    ctx = {"sumprod": sumprod}
    if name == "almostprime-probe":
        ctx["prime_table"] = sumprod.numtheory.sieve_primes(inp["table"])
    return ctx


def _check(name: str, ok) -> tuple:
    return (name, bool(ok))


# -- jobs ------------------------------------------------------------------

def _threshold_jobs(ctx, inp, scale):
    sp = ctx["sumprod"]
    expect = THRESHOLD[scale]["n_star"]

    def threshold():
        res = sp.search.sp_number(inp["r"], nmax=inp["nmax"])
        below_ok = (res.below is not None
                    and res.below.verdict == "colorable"
                    and sp.coloring.find_monochromatic(
                        res.below.coloring) is None)
        checks = [_check(f"n_star == {expect}", res.n_star == expect),
                  _check("at is not-colorable", res.at is not None
                         and res.at.verdict == "not-colorable"),
                  _check("below coloring is witness-free", below_ok)]
        return checks, res.to_json

    def probe(N):
        def run():
            cert = sp.search.colorability(N, 3)
            ok = (cert.verdict == "colorable"
                  and sp.coloring.find_monochromatic(cert.coloring) is None)
            return [_check(f"colorability({N}) witness-free", ok)], \
                cert.to_json
        return run

    return ([("sp_number", threshold)]
            + [(f"colorability-{N}", probe(N)) for N in inp["probe_N"]])


def _suite_jobs(ctx, inp, _scale):
    suites = ctx["sumprod"].suites

    def job(name):
        def run():
            recs = suites.run_suite(name, seed=inp["suite_seed"],
                                    draws=inp["draws"])
            ceiling = suites.SUITE_CONSTANTS[name]
            checks = [_check("draws", len(recs) == inp["draws"]),
                      _check(f"max_ratio <= {ceiling}",
                             suites.max_ratio(recs) <= ceiling),
                      _check("pass_rate == 1", suites.pass_rate(recs) == 1.0)]
            return checks, lambda: suites.records_to_csv(recs, name)
        return run

    return [(name, job(name)) for name in suites.suite_names()]


def _dioph_digest(rep) -> str:
    """The probe's report without its per-point failure rows.

    At L = 1 most obligated points fail by design, so the full report
    holds ~10^5 rows; serializing it would dwarf the probe's own time
    and memory.  The level summaries count every point, and the first
    rows pin the row content.
    """
    return json.dumps({"empirical_L": repr(rep.empirical_L),
                       "certified": rep.certified,
                       "levels": [vars(s) for s in rep.levels],
                       "n_rows": len(rep.rows),
                       "n_failures": len(rep.failures),
                       "rows_head": [vars(r) for r in rep.rows[:64]]},
                      sort_keys=True)


def _probe_jobs(ctx, inp, _scale):
    dioph = ctx["sumprod"].diophantine
    state = {}

    def probe():
        fam = dioph.AlmostPrimeFamily.build(
            [tuple(w) for w in inp["intervals"]], inp["j"], ctx["prime_table"])
        D = float(fam.product_scale())
        rep = dioph.dioph_verify(fam.elements, dioph.DiophParams(1, fam.k, D),
                                 inp["levels"], grid_points=inp["grid"],
                                 want_empirical_L=True)
        state.update(fam=fam, D=D, L=rep.empirical_L)
        ok = rep.empirical_L is not None and rep.empirical_L >= 1.0 \
            and rep.empirical_L < float("inf")
        return [_check("finite empirical L", ok)], lambda: _dioph_digest(rep)

    def verdict():
        fam = state["fam"]
        L = max(state["L"], 1.0) * 1.01
        rep = dioph.dioph_verify(fam.elements,
                                 dioph.DiophParams(L, fam.k, state["D"]),
                                 inp["levels"], grid_points=inp["grid"])
        return [_check("all_pass at 1.01 * empirical L", rep.all_pass)], \
            rep.to_json

    return [("probe", probe), ("verdict", verdict)]


def _cli_jobs(ctx, inp, _scale):
    """Paths are relative to the working directory, which the caller sets
    to a fresh directory, so artifacts do not depend on where it lies."""
    sp = ctx["sumprod"]
    rle = Path("inputs") / "extremal.json"
    rle.parent.mkdir(parents=True, exist_ok=True)
    rle.write_text(sp.coloring.extremal_coloring(
        inp["extremal_r"]).to_rle_json())

    def job(name, argv):
        argv = [str(rle) if a == "{extremal_rle}" else a for a in argv]

        def run():
            code = sp.cli.main(argv + ["--output", name])
            return [_check("exit code 0", code == 0)], Path(name)
        return run

    return [(name, job(name, argv)) for name, argv in inp["argv"].items()]


def jobs(name: str, ctx: dict, inp: dict, scale: str) -> list:
    """[(job id, callable)]; each callable returns (checks, artifact).

    Call it, and the jobs, with a fresh empty working directory.
    """
    if name == "threshold-r3":
        return _threshold_jobs(ctx, inp, scale)
    if name == "defect-suites":
        return _suite_jobs(ctx, inp, scale)
    if name == "almostprime-probe":
        return _probe_jobs(ctx, inp, scale)
    if name == "cli-defaults":
        return _cli_jobs(ctx, inp, scale)
    raise KeyError(f"unknown workload {name!r}")
