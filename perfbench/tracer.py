"""Spans and counters around sumprod's public functions, taken from outside.

The tracer never edits the package.  `install` replaces each target named
in TARGETS by a wrapper, by module attribute, in every loaded `sumprod`
module that holds the same object.  That catches calls made inside the
package (`sp_number` calling `colorability`) and names copied by
`from ... import` (`cfsum` in both `averages` and `diophantine`).  A
target that no longer exists is recorded as missing; the metrics that
depend on it then read 0 and carry a note instead of crashing the run.

Every span keeps its name, start, end, parent span and job id in flat
arrays; calls, total time and self time (span time minus the time of its
child spans) are aggregated per name as spans close.  Counters are read
from call arguments or returned objects.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "sumprod"


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else len(x)


# -- counter hooks: hook(tracer, args, kwargs, result, seconds) -------------

def _on_colorability(t, args, kwargs, res, _s):
    r = _arg(args, kwargs, 1, "r")
    if r is not None and r >= 3:
        t.add("search.dsatur.nodes", res.trace.get("nodes", 0))


def _on_random(t, _a, _k, res, _s):
    t.add("averages.random_values", _size(res.values))


def _on_read(t, _a, _k, res, _s):
    t.add("averages.values_read", _size(res))


def _on_cfsum(t, args, kwargs, _res, _s):
    t.add("averages.cfsum.elements", _size(_arg(args, kwargs, 0, "values")))


def _on_project(t, _a, _k, res, _s):
    t.add("projections.project.points", _size(res.values))


def _on_run_suite(t, args, kwargs, res, s):
    t.add(f"suites.{_arg(args, kwargs, 0, 'name')}.s", s)
    t.add("averages.oob_events",
          sum(rec.params.get("oob", 0) for rec in res))


def _fft(t, grid_points):
    m = int(grid_points)
    t.add("dioph.fft_points", m)
    # float64 accumulator of M points plus its complex128 rfft
    t.add("dioph.fft_bytes_computed", 8 * m + 16 * (m // 2 + 1))


def _on_dioph_verify(t, _a, _k, res, _s):
    for lev in res.levels:
        key = "dioph.vacuous_points" if lev.vacuous else \
            "dioph.obligated_points"
        t.add(key, lev.n_obligated)
        t.add("dioph.all_obligated", lev.n_obligated)
    t.add("dioph.rows", len(res.rows))
    _fft(t, res.grid_points)


def _on_weyl(t, _a, _k, res, _s):
    _fft(t, res.grid_points)


def _on_ramanujan(t, _a, _k, res, _s):
    t.add("sieve.coefficients", len(res.c))


def _on_cli_main(t, args, kwargs, _res, s):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if argv:
        t.add(f"cli.{argv[0]}.s", s)
    if "--output" in argv[:-1]:
        out = Path(argv[argv.index("--output") + 1])
        t.add("cli.artifact_bytes",
              sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))


# (module, attribute path, span name or None for a counter-only wrapper,
#  hook).  Several targets may share a span name; they then form one group.
TARGETS = [
    ("search", "sp_number", "search.sp_number", None),
    ("search", "colorability", "search.colorability", _on_colorability),
    ("search", "pattern_graph", "search.pattern_graph", None),
    ("coloring", "find_monochromatic", "coloring.find_monochromatic", None),
    ("coloring", "richness_scan", "coloring.richness_scan", None),
    ("averages", "SampledFunction.random_disc", "averages.random_disc",
     _on_random),
    ("averages", "SampledFunction.random_nonneg", "averages.random_nonneg",
     _on_random),
    ("averages", "SampledFunction.at", None, _on_read),
    ("averages", "SampledFunction.slice", None, _on_read),
    ("averages", "cfsum", "averages.cfsum", _on_cfsum),
    ("averages", "shift_defect", "averages.defects", None),
    ("averages", "residue_split_defect", "averages.defects", None),
    ("averages", "frobenius_defect", "averages.defects", None),
    ("averages", "dilate_defect", "averages.defects", None),
    ("averages", "elliott_defect", "averages.defects", None),
    ("projections", "project", "projections.project", _on_project),
    ("projections", "u1log_norm", "projections.u1log_norm", None),
    ("projections", "almost_period_defect", "projections.defects", None),
    ("projections", "proj_check_defect", "projections.defects", None),
    ("projections", "pythagoras_defect", "projections.defects", None),
    ("projections", "norm_compare_defect", "projections.defects", None),
    ("projections", "maximal_lower", "projections.defects", None),
    ("suites", "run_suite", "suites.run_suite", _on_run_suite),
    ("diophantine", "dioph_verify", "dioph.verify", _on_dioph_verify),
    ("diophantine", "best_q_on_grid", "dioph.best_q_on_grid", None),
    ("diophantine", "AlmostPrimeFamily.build", "dioph.family_build", None),
    ("diophantine", "weyl_structure_scan", "dioph.weyl", _on_weyl),
    ("sieve", "band_decompose", "sieve.band_decompose", None),
    ("sieve", "ramanujan_expand", "sieve.ramanujan_expand", _on_ramanujan),
    ("sieve", "selberg_majorant", "sieve.selberg_majorant", None),
    ("sieve", "verify_sieve_bounds", "sieve.verify_sieve_bounds", None),
    ("numtheory", "sieve_primes", "numtheory.sieve_primes", None),
    ("numtheory", "MultiplicativeTables.build", "numtheory.tables_build",
     None),
    ("cli", "main", "cli.main", _on_cli_main),
]

SUITES = ("almost-period", "dilate", "elliott", "frobenius", "gp-compar",
          "maximal", "proj-check", "pythagoras", "residue-split", "shift")
CLI_SUBCOMMANDS = ("extremal", "threshold", "detect", "norms", "lemma-check",
                   "dioph", "sieve", "richness")


def _span_metrics(span, unit_kinds):
    return [(f"{span}.{kind}", unit, span) for kind, unit in unit_kinds]


CALLS, S, SELF = ("calls", "count"), ("s", "s"), ("self_s", "s")

# (metric, unit, span it needs) in the order they are reported; the
# counters, ratios and diagnostics are filled in by `layer_metrics`.
LAYER_METRICS = (
    _span_metrics("search.sp_number", [S, SELF])
    + _span_metrics("search.colorability", [CALLS, S, SELF])
    + [("search.dsatur.nodes", "count", "search.colorability"),
       ("search.dsatur.nodes_per_s", "1/s", "search.colorability")]
    + _span_metrics("search.pattern_graph", [CALLS, S])
    + _span_metrics("coloring.find_monochromatic", [CALLS, S])
    + _span_metrics("coloring.richness_scan", [S])
    + _span_metrics("averages.random_disc", [CALLS])
    + [("averages.random_values", "count", "averages.random_disc")]
    + _span_metrics("averages.random_disc", [S])
    + [("averages.values_read", "count", "averages.SampledFunction.at"),
       ("averages.read_ratio", "ratio", "averages.SampledFunction.at")]
    + _span_metrics("averages.cfsum", [CALLS])
    + [("averages.cfsum.elements", "count", "averages.cfsum")]
    + _span_metrics("averages.cfsum", [S])
    + [("averages.defects.self_s", "s", "averages.defects"),
       ("averages.oob_events", "count", "suites.run_suite")]
    + _span_metrics("projections.project", [CALLS])
    + [("projections.project.points", "count", "projections.project")]
    + _span_metrics("projections.project", [S])
    + _span_metrics("projections.u1log_norm", [CALLS, S])
    + [("projections.defects.self_s", "s", "projections.defects")]
    + [(f"suites.{name}.s", "s", "suites.run_suite") for name in SUITES]
    + _span_metrics("dioph.verify", [CALLS, S, SELF])
    + [("dioph.obligated_points", "count", "dioph.verify"),
       ("dioph.vacuous_points", "count", "dioph.verify")]
    + _span_metrics("dioph.best_q_on_grid", [CALLS, S])
    + [("dioph.rows_kept_ratio", "ratio", "dioph.verify"),
       ("dioph.family_build.s", "s", "dioph.family_build"),
       ("dioph.fft_points", "count", "dioph.verify"),
       ("dioph.fft_bytes_computed", "bytes", "dioph.verify"),
       ("dioph.weyl.s", "s", "dioph.weyl")]
    + _span_metrics("sieve.band_decompose", [S, SELF])
    + [("sieve.ramanujan_expand.s", "s", "sieve.ramanujan_expand"),
       ("sieve.selberg_majorant.s", "s", "sieve.selberg_majorant"),
       ("sieve.verify_sieve_bounds.s", "s", "sieve.verify_sieve_bounds"),
       ("sieve.coefficients", "count", "sieve.ramanujan_expand")]
    + _span_metrics("numtheory.sieve_primes", [CALLS, S])
    + _span_metrics("numtheory.tables_build", [CALLS, S])
    + [("cli.main.calls", "count", "cli.main")]
    + [(f"cli.{sub}.s", "s", "cli.main") for sub in CLI_SUBCOMMANDS]
    + [("cli.self_s", "s", "cli.main"),
       ("cli.artifact_bytes", "bytes", "cli.main"),
       ("process.cpu_s", "s", None),
       ("trace.overhead_s", "s", None),
       ("trace.attributed_frac", "ratio", None)]
)

# metrics the runner fills from the passes rather than from spans
RUNNER_METRICS = ("process.cpu_s", "trace.overhead_s",
                  "trace.attributed_frac")


class Tracer:
    """Wraps the TARGETS of a loaded sumprod and records what they do."""

    def __init__(self):
        self.job = -1               # set by the caller before each job
        self._name_ids: dict[str, int] = {}  # span name -> id, in id order
        self.span_name = array("l")
        self.span_job = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []      # indices of open spans
        self._child_s: list[float] = []  # child time of each open span
        self.aggs: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.counters: dict[str, float] = {}
        self.missing: dict[str, str] = {}  # span or target key -> note
        self.hook_errors: dict[str, str] = {}  # span or target key -> note
        self.job_self_s = 0.0  # self time of spans opened inside a job
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def add(self, key: str, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _hook(self, hook, key, args, kwargs, res, seconds):
        try:
            hook(self, args, kwargs, res, seconds)
        except Exception as exc:  # a refactor changed the object's shape
            self.hook_errors.setdefault(
                key, f"counter hook failed: {type(exc).__name__}: {exc}")

    def _spanned(self, fn, span: str, hook, key: str):
        nid = self._name_ids.setdefault(span, len(self._name_ids))
        agg = self.aggs.setdefault(span, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_job.append(self.job)
            self.span_parent.append(self._open[-1] if self._open else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._open.append(idx)
            self._child_s.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._open.pop()
                child = self._child_s.pop()
                dur = t1 - t0
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
                if self.job >= 0:
                    self.job_self_s += dur - child
                if self._child_s:
                    self._child_s[-1] += dur
            if hook is not None:
                self._hook(hook, key, args, kwargs, res, dur)
            return res

        return wrapper

    def _counted(self, fn, hook, key: str):
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            self._hook(hook, key, args, kwargs, res, 0.0)
            return res

        return wrapper

    def _wrap(self, fn, span, hook, key):
        if span is None:
            return self._counted(fn, hook, key)
        return self._spanned(fn, span, hook, span)

    # -- installing -----------------------------------------------------

    def install(self, targets=TARGETS):
        for mod_name, path, span, hook in targets:
            key = f"{mod_name}.{path}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError as exc:
                self._mark_missing(key, span, f"module not importable: {exc}")
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name \
                else module
            if owner is None or attr not in vars(owner):
                self._mark_missing(key, span, f"{PACKAGE}.{key} not found")
                continue
            if owner_name:
                self._patch_method(owner, attr, span, hook, key)
            else:
                self._patch_function(module, attr, span, hook, key)

    def _mark_missing(self, key, span, note):
        self.missing[key] = note
        if span is not None:
            self.missing.setdefault(span, note)

    def _patch_method(self, cls, attr, span, hook, key):
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, span, hook, key))
        else:
            new = self._wrap(raw, span, hook, key)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def _patch_function(self, module, attr, span, hook, key):
        orig = getattr(module, attr)
        new = self._wrap(orig, span, hook, key)
        holders = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, name, new)
                    self._undo.append((holder, name, orig))

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- reading --------------------------------------------------------

    def layer_metrics(self) -> tuple[dict, dict]:
        """(metric -> value, metric -> note) for every span-based metric."""
        agg = self.aggs
        cnt = self.counters

        def get(span, i):
            return agg[span][i] if span in agg else 0

        values = {}
        for name, _unit, span in LAYER_METRICS:
            if name in RUNNER_METRICS:
                continue
            base, _, kind = name.rpartition(".")
            if kind in ("calls", "s", "self_s") and base in agg:
                values[name] = get(base, ("calls", "s", "self_s").index(kind))
            else:
                values[name] = cnt.get(name, 0)
        dsatur_s = get("search.colorability", 2)
        values["search.dsatur.nodes_per_s"] = (
            cnt.get("search.dsatur.nodes", 0) / dsatur_s if dsatur_s else 0.0)
        drawn = cnt.get("averages.random_values", 0)
        values["averages.read_ratio"] = (
            cnt.get("averages.values_read", 0) / drawn if drawn else 0.0)
        obligated = cnt.get("dioph.all_obligated", 0)
        values["dioph.rows_kept_ratio"] = (
            cnt.get("dioph.rows", 0) / obligated if obligated else 0.0)
        values["cli.self_s"] = get("cli.main", 2)

        notes = {}
        for name, _unit, span in LAYER_METRICS:
            note = self.missing.get(span) or self.hook_errors.get(span)
            if span and note:
                notes[name] = note
        return values, notes

    def spans(self) -> dict:
        return {"names": list(self._name_ids),
                "name": self.span_name, "job": self.span_job,
                "parent": self.span_parent, "start": self.span_start,
                "end": self.span_end}
