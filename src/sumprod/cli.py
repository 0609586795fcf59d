"""Command-line entry point: every experiment as a subcommand.

Each subcommand writes a machine-readable artifact (JSON, plus CSV where
a table is natural) into the output directory and prints a short human
summary.  Outputs carry no timestamps and use sorted JSON keys, so a
fixed config and seed reproduce byte-identical files.

Exit codes: 0 success, 1 an asserted bound failed, 2 configuration
error, 3 capacity/budget error or out of memory, 4 search budget
exhausted (indeterminate).  Config precedence is CLI flags > config file >
defaults.  A JSON artifact's header (its "config" object) holds every
flag of the subcommand except --config and --output, as resolved (dioph
logs the other modes' flags and norms logs --seed for a function that
draws none, though neither reads them), plus "precedence" and
"version"; without those two keys it is a --config file that replays
the run.  Its "result" object is the report dataclass's fields, each
under its own name and re-encoded only where JSON needs it (the
coloring as coloring_rle, arrays as lists, some floats as repr
strings), and nothing derived from them; extremal, detect, norms and
lemma-check have no report class and build their result here.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .averages import SampledFunction
from .coloring import (Coloring, RichnessConfig, extremal_coloring,
                       find_monochromatic, richness_scan)
from .diophantine import (AlmostPrimeFamily, DiophParams, dioph_verify,
                          vino_verify, weyl_structure_scan)
from .errors import CapacityError, DomainError, RangeError
from .numtheory import MultiplicativeTables, sieve_primes
from .projections import NormParams, project, u1_norm, u1log_norm
from .search import sp_number
from .sieve import (DEFAULT_A, DEFAULT_CEXP, band_decompose,
                    verify_sieve_bounds)
from .suites import (DEFAULT_SEED, SUITE_CONSTANTS, max_ratio, pass_rate,
                     records_to_csv, run_suite, suite_names)

EXIT_OK = 0
EXIT_BOUND_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_BUDGET = 4

# namespace entries that are no flag of a subcommand
_PLUMBING = frozenset({"func", "parser", "command", "config"})


def _emit(outdir: str, name: str, pieces):
    """Write one artifact file from an iterable of its text's pieces;
    every artifact goes through here.  The pieces go to a temporary name
    beside it, renamed into place once the last is written, so a failure
    midway leaves no partial file."""
    os.makedirs(outdir or ".", exist_ok=True)
    path = os.path.join(outdir, name)
    part = os.path.join(outdir, f".{name}.part")
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(part, path)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        raise


def _emit_json(args, name: str, payload: dict):
    """Write {"config": header, "result": payload} as strict JSON.  The
    header is every resolved flag but --config and --output (left out so
    that reruns into other directories stay byte-identical); a flag's
    non-finite float (--time-budget inf) is written as its text, which
    reads back as a --config value."""
    header = {k: repr(v) if isinstance(v, float) and not math.isfinite(v)
              else v for k, v in vars(args).items()
              if k not in _PLUMBING and k != "output"}
    header["precedence"] = "cli>config-file>defaults"
    header["version"] = __version__
    _emit(args.output, name, [json.dumps({"config": header, "result": payload},
                                         sort_keys=True, indent=1,
                                         allow_nan=False), "\n"])


def _emit_csv(outdir: str, name: str, rows: list):
    _emit(outdir, name,
          ["\n".join(",".join(str(c) for c in row) for row in rows), "\n"])


def _config_flags(args) -> list:
    """The --config file's values as flags of the parsed subcommand.

    A key, with `-` read as `_`, must name one of the subcommand's own
    flags; true gives the bare flag, false and null leave it out.  A
    bad file or key is reported under the subcommand's usage.
    """
    error = args.parser.error
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        error(f"cannot read config file: {exc}")
    if not isinstance(values, dict):
        error("config file must hold a JSON object")
    values = {k.replace("-", "_"): v for k, v in values.items()}
    unknown = sorted(set(values) - (set(vars(args)) - _PLUMBING))
    if unknown:
        error(f"config keys that name no {args.command} flag: "
              + ", ".join(map(repr, unknown)))
    return ["--" + k.replace("_", "-") + ("" if v is True else f"={v}")
            for k, v in values.items() if v is not None and v is not False]


def _finite_float(text: str) -> float:
    """A float flag's value; nan and inf are configuration errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _seed(text: str) -> int:
    """A --seed value: an int >= 0, as numpy's generators take."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0: {text!r}")
    return int(text)


def _read_coloring(path: str) -> Coloring:
    with open(path, "r", encoding="utf-8") as fh:
        return Coloring.from_rle_json(fh.read())


# -- subcommand implementations -----------------------------------------


def _cmd_extremal(args) -> int:
    results = []
    ok = True
    rs = range(1, args.r + 1) if args.all_up_to else [args.r]
    for r in rs:
        col = extremal_coloring(r)
        wit = find_monochromatic(col)
        results.append({"r": r, "N": col.N, "witness": None if wit is None
                        else vars(wit)})
        ok = ok and wit is None
        print(f"extremal r={r}: N={col.N}, "
              + ("no monochromatic pair" if wit is None
                 else f"WITNESS {wit}"))
    _emit_json(args, "extremal.json", {"results": results, "all_clean": ok})
    return EXIT_OK if ok else EXIT_BOUND_FAILED


def _cmd_detect(args) -> int:
    col = _read_coloring(args.coloring)
    wit = find_monochromatic(col)
    payload = {"N": col.N, "r": col.r,
               "witness": None if wit is None else vars(wit)}
    _emit_json(args, "detect.json", payload)
    print("no monochromatic pair" if wit is None else f"witness: {wit}")
    return EXIT_OK


def _cmd_threshold(args) -> int:
    if args.r >= 3 and args.time_budget is None:
        args.time_budget = 60.0  # exploratory runs must stay budgeted
    res = sp_number(args.r, nmax=args.nmax,
                    time_budget_s=args.time_budget)
    _emit_json(args, "threshold.json", res.to_obj())
    if res.n_star is None:
        print(f"threshold r={args.r}: not found <= {res.exhausted_at} "
              f"({res.note})")
        print(f"  N*({args.r}) > {res.below.N} "
              f"(checked coloring in threshold.json)")
        return EXIT_BUDGET
    print(f"threshold r={args.r}: N*={res.n_star}")
    lower = (3 ** args.r + 7) // 2
    if res.n_star <= lower:
        print(f"  WARNING: N* <= interval-coloring bound {lower}")
        return EXIT_BOUND_FAILED
    return EXIT_OK


def _make_function(kind: str, alpha: float, seed: int, lo: int,
                   hi: int) -> SampledFunction:
    if kind == "const":
        return SampledFunction.constant(1.0, lo, hi)
    if kind == "phase":
        return SampledFunction.from_phase(alpha, lo, hi)
    if kind == "random":
        return SampledFunction.random_disc(np.random.default_rng(seed),
                                           lo, hi)
    raise DomainError(f"unknown function kind {kind!r}")


def _cmd_norms(args) -> int:
    rows = [["q", "H", "u1log", "u1", "u1log_projected"]]
    qs = [int(v) for v in args.q.split(",")]
    hs = [int(v) for v in args.H.split(",")]
    reach = max(q * h for q in qs for h in hs)
    f = _make_function(args.function, args.alpha, args.seed,
                       1 - 2 * reach, args.N + 3 * reach)
    for q in qs:
        for h in hs:
            p = NormParams(args.N, q, h)
            nl, nu = u1log_norm(f, p), u1_norm(f, p)
            np_ = u1log_norm(project(f, q, h), p)
            rows.append([q, h, repr(nl), repr(nu), repr(np_)])
    _emit_csv(args.output, "norms.csv", rows)
    _emit_json(args, "norms.json",
               {"table": [dict(zip(rows[0], row)) for row in rows[1:]]})
    print(f"norms table: {len(rows) - 1} rows -> norms.csv")
    return EXIT_OK


def _cmd_lemma_check(args) -> int:
    records = run_suite(args.name, seed=args.seed, draws=args.draws)
    _emit(args.output, f"lemma_{args.name}.csv",
          [records_to_csv(records, args.name)])
    ceiling = SUITE_CONSTANTS[args.name]
    mr, pr = max_ratio(records), pass_rate(records)
    ok = mr <= ceiling and pr == 1.0
    _emit_json(args, f"lemma_{args.name}.json",
               {"draws": args.draws, "max_ratio": repr(mr),
                "pass_rate": pr, "ceiling": ceiling, "ok": ok})
    print(f"lemma-check {args.name}: draws={args.draws} "
          f"max_ratio={mr:.6g} ceiling={ceiling} pass_rate={pr:.3f} "
          f"-> {'ok' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_BOUND_FAILED


def _parse_intervals(text: str) -> list:
    out = []
    for part in text.split(","):
        a, b = part.split(":")
        out.append((int(a), int(b)))
    return out


def _cmd_dioph(args) -> int:
    if args.mode == "vino":
        res = vino_verify(args.alpha, args.T, args.delta1, args.delta2)
        _emit_json(args, "vino.json", vars(res))
        print(f"vino: hypothesis={res.hypothesis_holds} q={res.q} "
              f"alarm={res.alarm}")
        return EXIT_BOUND_FAILED if res.alarm else EXIT_OK
    if args.mode == "weyl":
        tables = MultiplicativeTables.build(args.X)
        rep = weyl_structure_scan(tables, args.X, args.m, args.eps,
                                  exponent=args.exponent,
                                  grid_points=args.grid)
        _emit_json(args, "weyl.json", rep.to_obj())
        print(f"weyl: obligated={rep.levels[0].n_obligated} "
              f"all_pass={rep.all_pass} certified={rep.certified} "
              f"empirical_E={rep.empirical_E:.4g}")
        return EXIT_OK if rep.all_pass else EXIT_BOUND_FAILED
    # mode == verify: interval or almost-prime set
    if args.set == "interval":
        S = np.arange(1, args.D + 1)
        D = float(args.D)
    else:
        intervals = _parse_intervals(args.intervals)
        table = sieve_primes(max(b for _, b in intervals))
        fam = AlmostPrimeFamily.build(intervals, args.j, table)
        S = fam.elements
        D = float(fam.product_scale())
    params = DiophParams(args.L, args.Lp, D)
    levels = [float(v) for v in args.levels.split(",")]
    rep = dioph_verify(S, params, levels, grid_points=args.grid,
                       want_empirical_L=args.empirical_L)
    _emit_json(args, "dioph.json", rep.to_obj())
    _emit_csv(args.output, "dioph_summary.csv", rep.csv_summary_rows())
    print(f"dioph: levels={levels} all_pass={rep.all_pass} "
          f"certified={rep.certified} empirical_L={rep.empirical_L}")
    return EXIT_OK if rep.all_pass else EXIT_BOUND_FAILED


def _cmd_sieve(args) -> int:
    if args.R is None:
        args.R = args.X ** 0.25
    dec = band_decompose(args.X, args.R, args.Q, cexp=args.cexp, A=args.A,
                         variant=args.variant)
    rep = verify_sieve_bounds(dec)
    _emit_json(args, "sieve_report.json", rep.to_obj())
    if args.export_decomposition:
        _emit(args.output, "decomposition.json",
              itertools.chain(dec.export_pieces(), ["\n"]))
    ok = all(rep.checks.values())
    print(f"sieve X={args.X} R={args.R:.4g} Q={args.Q}: "
          f"floor/logR={rep.majorant_min_prime_over_logR:.3f} "
          f"mean={rep.majorant_mean:.3f} h*Q={rep.h_mean_abs_times_Q:.3f} "
          f"checks={'ok' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_BOUND_FAILED


def _cmd_richness(args) -> int:
    col = (_read_coloring(args.coloring) if args.coloring
           else extremal_coloring(args.r))
    args.r = col.r  # a coloring file's r overrides --r: log the one used
    cfg = RichnessConfig(V=args.V, imax=args.imax,
                         prime_windows=tuple(_parse_intervals(args.windows)),
                         kmax=args.kmax)
    rep = richness_scan(col, cfg)
    _emit_csv(args.output, "richness.csv", rep.to_csv_rows())
    _emit_json(args, "richness.json", rep.to_obj())
    print(f"richness: N={rep.N} selected color={rep.selected_color} "
          f"hits={rep.hits_per_color}")
    return EXIT_OK


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumprod",
        description="Desk-scale laboratory for monochromatic {x+y, xy}: "
                    "extremal colorings, exact thresholds, averaging and "
                    "projection defect suites, diophantine spectrum scans, "
                    "and the Selberg-majorant band decomposition.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, func, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=func, parser=p)  # _config_flags errors under p
        p.add_argument("--config",
                       help="JSON file holding an object whose keys are "
                            "this subcommand's flags; a flag on the "
                            "command line wins")
        p.add_argument("--output", default="sumprod-out",
                       help="output directory for artifacts")
        return p

    p = add_parser("extremal", _cmd_extremal,
                   help="build the interval coloring of [(3^r+7)/2] "
                        "and verify it has no monochromatic {x+y, xy}")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--all-up-to", action="store_true",
                   help="verify every r' <= r")

    p = add_parser("detect", _cmd_detect,
                   help="load a coloring (RLE JSON) and find the least "
                        "monochromatic {x+y, xy} witness")
    p.add_argument("--coloring", required=True)

    p = add_parser("threshold", _cmd_threshold,
                   help="smallest N whose pattern graph is not "
                        "r-colorable, with certificates")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)

    p = add_parser("norms", _cmd_norms,
                   help="progression-bias norm tables (log and uniform) "
                        "and averaging projections")
    p.add_argument("--N", type=int, default=10 ** 4)
    p.add_argument("--q", default="1,2,3,4")
    p.add_argument("--H", default="10,40,160")
    p.add_argument("--function", default="random",
                   choices=["const", "phase", "random"])
    p.add_argument("--alpha", type=_finite_float, default=0.37)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)

    p = add_parser("lemma-check", _cmd_lemma_check,
                   help="seeded defect suite for one averaging or "
                        "projection inequality ("
                        + ", ".join(suite_names()) + ")")
    p.add_argument("--name", required=True, choices=suite_names())
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--draws", type=int, default=200)

    p = add_parser("dioph", _cmd_dioph,
                   help="diophantine spectrum scans: exponential-sum "
                        "verification over a grid, the rational-"
                        "approximation counting check, and von Mangoldt "
                        "polynomial-phase structure scans")
    p.add_argument("--mode", default="verify",
                   choices=["verify", "vino", "weyl"])
    p.add_argument("--set", default="interval",
                   choices=["interval", "almostprime"])
    p.add_argument("--D", type=int, default=1000)
    p.add_argument("--intervals", default="1000:1080,10000:10400",
                   help="comma-separated lo:hi prime windows")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--L", type=_finite_float, default=2.0)
    p.add_argument("--Lp", type=_finite_float, default=8.0)
    p.add_argument("--levels", default="0.05,0.1,0.2,0.4")
    p.add_argument("--grid", type=int, default=2 ** 22)
    p.add_argument("--empirical-L", action="store_true")
    p.add_argument("--alpha", type=_finite_float, default=0.2)
    p.add_argument("--T", type=int, default=1000)
    p.add_argument("--delta1", type=_finite_float, default=1e-6)
    p.add_argument("--delta2", type=_finite_float, default=0.125)
    p.add_argument("--X", type=int, default=10 ** 5)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--eps", type=_finite_float, default=0.2)
    p.add_argument("--exponent", type=_finite_float, default=6.0)

    p = add_parser("sieve", _cmd_sieve,
                   help="Selberg-type majorant on [X, 2X): Ramanujan "
                        "expansion, periodic head + dyadic band + "
                        "remainder decomposition, bound report")
    p.add_argument("--X", type=int, default=10 ** 5)
    p.add_argument("--R", type=_finite_float, default=None,
                   help="sieve level; default X^(1/4) (X^(1/10) is "
                        "degenerate below desk scale)")
    p.add_argument("--Q", type=int, default=6)
    p.add_argument("--cexp", type=_finite_float, default=DEFAULT_CEXP)
    p.add_argument("--A", type=_finite_float, default=DEFAULT_A)
    p.add_argument("--variant", default="mu_squared",
                   choices=["mu_squared", "mu"])
    p.add_argument("--export-decomposition", action="store_true")

    p = add_parser("richness", _cmd_richness,
                   help="per-color multiple-density table over "
                        "B0 = {V^(4^i)} plus the pair statistic with "
                        "prime windows (scaled-down parameters)")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--coloring", default=None)
    p.add_argument("--V", type=int, default=2)
    p.add_argument("--imax", type=int, default=2)
    p.add_argument("--windows", default="5:20,20:50")
    p.add_argument("--kmax", type=int, default=2)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file flags first: argparse checks each, the command line wins
            args = parser.parse_args(
                argv[:1] + _config_flags(args) + argv[1:])
    except SystemExit as exc:
        # argparse exits 2 on bad usage or config: the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_CAPACITY
    except (DomainError, RangeError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
