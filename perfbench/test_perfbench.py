"""Tests of the benchmark itself, at tiny sizes."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5

# a layer metric each workload must move, so spans reach every module
BUSY = {
    "threshold-r3": ["search.colorability.calls", "search.dsatur.nodes",
                     "coloring.find_monochromatic.calls"],
    "defect-suites": ["averages.random_disc.calls", "averages.cfsum.calls",
                      "projections.project.calls", "suites.elliott.s"],
    "almostprime-probe": ["dioph.verify.calls", "dioph.best_q_on_grid.calls",
                          "dioph.family_build.s",
                          "numtheory.sieve_primes.calls"],
    "cli-defaults": ["cli.main.calls", "cli.sieve.s", "cli.artifact_bytes",
                     "sieve.band_decompose.s", "dioph.weyl.s",
                     "numtheory.tables_build.calls"],
}


def bench(tmp_path, workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", "--out", str(tmp_path)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=cwd)


def result(tmp_path, workload, trace):
    proc = bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tmp_path / f"result-{workload}-seed{SEED}"
                                    f"-trace{trace}.json").read_text())
    return last, record


def test_benchmark_json_matches_the_runner():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == \
        [(name, unit) for name, unit, _ in tracer.LAYER_METRICS]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    last, record = result(tmp_path, workload, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: m["unit"] for k, m in last["metrics"].items()} == \
        run.END_TO_END
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert len(record["passes"]) >= run.MIN_PASSES


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_reports_every_layer_metric_with_same_verdicts(
        tmp_path, workload):
    last, record = result(tmp_path, workload, 1)
    assert last["correct"]
    assert {k: m["unit"] for k, m in last["metrics"].items()} == \
        {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    assert not [k for k, m in last["metrics"].items() if "note" in m]
    for name in BUSY[workload]:
        assert last["metrics"][name]["value"] > 0, name
    untraced, traced = record["passes"]
    assert (untraced["mode"], traced["mode"]) == ("pass", "traced")
    assert [(j["id"], j["checks"], j["digest"]) for j in traced["jobs"]] == \
        [(j["id"], j["checks"], j["digest"]) for j in untraced["jobs"]]


def test_wrong_oracle_expectation_is_counted_as_failed(tmp_path,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)  # worker.run changes directory
    monkeypatch.setitem(workloads.THRESHOLD["tiny"], "n_star", 55)
    one = worker.run("threshold-r3", SEED, "tiny", "pass", time.monotonic(),
                     tmp_path)
    attempted, failed, notes = run.score([one, one])
    assert failed == 2 and attempted > failed
    assert any("n_star == 55" in note for note in notes)
    values = run.end_to_end([one], [one["setup_s"]], attempted, failed)
    assert values["pass_frac"] < 1.0


def test_digest_change_between_passes_is_counted_as_failed(tmp_path,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    one = worker.run("threshold-r3", SEED, "tiny", "pass", time.monotonic(),
                     tmp_path)
    other = json.loads(json.dumps(one))
    other["jobs"][0]["digest"] = "0" * 64
    assert run.score([one, one])[1] == 0
    assert run.score([one, other])[1] == 1


def test_tracer_patches_from_import_copies_and_restores_them():
    import sumprod.averages
    import sumprod.diophantine
    orig = sumprod.averages.cfsum
    t = tracer.Tracer()
    t.install([("averages", "cfsum", "averages.cfsum", tracer._on_cfsum)])
    try:
        assert sumprod.diophantine.cfsum is sumprod.averages.cfsum
        assert sumprod.averages.cfsum is not orig
        sumprod.diophantine.exp_sum([1, 2, 3], 0.25)
    finally:
        t.uninstall()
    assert sumprod.averages.cfsum is orig
    assert sumprod.diophantine.cfsum is orig
    values, _ = t.layer_metrics()
    assert values["averages.cfsum.calls"] == 1
    assert values["averages.cfsum.elements"] == 3


def test_missing_traced_name_gives_a_note_not_a_crash():
    t = tracer.Tracer()
    t.install([("diophantine", "no_such_walker", "dioph.best_q_on_grid",
                None)])
    t.uninstall()
    values, notes = t.layer_metrics()
    assert values["dioph.best_q_on_grid.calls"] == 0
    assert "not found" in notes["dioph.best_q_on_grid.calls"]


def test_without_the_source_tree_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "threshold-r3",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed():
    for name in workloads.NAMES:
        assert workloads.inputs(name, 7) == workloads.inputs(name, 7)
    assert workloads.inputs("threshold-r3", 7) != \
        workloads.inputs("threshold-r3", 8)
    assert workloads.inputs("almostprime-probe", 7) != \
        workloads.inputs("almostprime-probe", 8)
