"""Run one benchmark workload against the sumprod source tree beside it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop: one process runs the workload's jobs one after
another, with no thread or process pool.  Every pass runs in a fresh
interpreter (worker.py), because every CLI call and test pays cold module
caches.  The runner first starts one discarded interpreter to fill the
bytecode and page caches, then a few set-up-only interpreters, then
passes until the next one would overrun --seconds (at least two, so the
artifact digests of a pass can be compared with those of the first).

--trace 0 prints the end-to-end metrics: setup_s (median over every
interpreter started), run_s and peak_rss_mb (medians over passes) and
pass_frac (verdict checks passed / attempted).  --trace 1 runs one
untraced and one traced pass and prints the per-layer metrics; its
verdicts and digests must equal the untraced ones.  The last line of
standard output is one JSON object; the lines before it are the report,
and the full record goes to --out.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "ratio"}
SETUP_SAMPLES = {"full": 5, "tiny": 1}  # set-up-only interpreters per run
MIN_PASSES = 2
RUN_DEADLINE_S = 170  # the whole run, including set-up, must end by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed verdict)."""


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version()}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.count = 0

    def spawn(self, mode: str) -> dict:
        a = self.args
        self.count += 1
        result = a.out / f"{a.workload}-child{self.count}.json"
        result.unlink(missing_ok=True)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--scale", a.scale, "--mode", mode, "--out", str(a.out),
               "--result", str(result), "--t0", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child timed out") from exc
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                             + proc.stderr[-4000:])
        if proc.stderr.strip():
            print(proc.stderr.rstrip(), file=sys.stderr)
        data = json.loads(result.read_text())
        result.unlink()
        return data


def score(passes: list) -> tuple:
    """(attempted, failed, failure notes) over every pass's checks.

    A job's digest must also equal the one of the first pass, so each job
    of each later pass carries one more check.
    """
    attempted = failed = 0
    notes = []
    first = {job["id"]: job["digest"] for job in passes[0]["jobs"]}
    for k, p in enumerate(passes):
        ids = [job["id"] for job in p["jobs"]]
        if ids != list(first):
            attempted += 1
            failed += 1
            notes.append(f"pass {k + 1}: jobs {ids} differ from {list(first)}")
        for job in p["jobs"]:
            for name, ok in job["checks"]:
                attempted += 1
                if not ok:
                    failed += 1
                    notes.append(f"pass {k + 1} {job['id']}: {name} failed")
            if k > 0:
                attempted += 1
                if job["digest"] != first.get(job["id"]):
                    failed += 1
                    notes.append(f"pass {k + 1} {job['id']}: digest differs "
                                 "from the first pass")
    return attempted, failed, notes


def end_to_end(passes: list, setups: list, attempted: int,
               failed: int) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_frac": 1.0 - failed / attempted,
    }


def per_layer(untraced: dict, traced: dict) -> tuple:
    values, notes = traced["trace"]["metrics"], traced["trace"]["notes"]
    overhead = traced["run_s"] - untraced["run_s"]
    values.update({
        "process.cpu_s": untraced["cpu_s"],
        "trace.overhead_s": overhead,
        "trace.attributed_frac":
            (traced["trace"]["job_self_s"] - overhead) / untraced["run_s"],
    })
    return values, notes


def measure(args) -> dict:
    runner = Runner(args)
    runner.spawn("setup")  # discarded: fills bytecode and page caches
    if args.trace:
        passes = [runner.spawn("pass"), runner.spawn("traced")]
        setups = []
    else:
        setups = [runner.spawn("setup")["setup_s"]
                  for _ in range(SETUP_SAMPLES[args.scale])]
        passes = []
        start = time.monotonic()
        while True:
            t = time.monotonic()
            passes.append(runner.spawn("pass"))
            wall = time.monotonic() - t
            elapsed = time.monotonic() - start
            if len(passes) >= MIN_PASSES and (
                    elapsed + wall > args.seconds
                    or time.monotonic() + 2 * wall > runner.deadline):
                break
        setups += [p["setup_s"] for p in passes]
    attempted, failed, notes = score(passes)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale,
              "machine": {**machine(), "numpy": passes[0]["numpy"]},
              "thread_env": {v: "1" for v in THREAD_VARS},
              "inputs": workloads.inputs(args.workload, args.seed, args.scale),
              "setup_samples": setups, "passes": passes,
              "attempted": attempted, "failed": failed, "failures": notes}
    if args.trace:
        values, layer_notes = per_layer(*passes)
        record["metrics"] = {
            name: dict({"value": values.get(name, 0), "unit": unit},
                       **({"note": layer_notes[name]}
                          if name in layer_notes else {}))
            for name, unit, _span in tracer.LAYER_METRICS}
    else:
        values = end_to_end(passes, setups, attempted, failed)
        record["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END.items()}
    return record


def report(rec: dict):
    print(f"perfbench {rec['workload']} seed={rec['seed']} "
          f"seconds={rec['seconds']} trace={rec['trace']} "
          f"scale={rec['scale']}")
    print("machine", json.dumps(rec["machine"], sort_keys=True))
    print("inputs", json.dumps(rec["inputs"], sort_keys=True))
    for k, p in enumerate(rec["passes"]):
        ok = sum(ok for job in p["jobs"] for _, ok in job["checks"])
        total = sum(len(job["checks"]) for job in p["jobs"])
        print(f"pass {k + 1} ({p['mode']}): run_s={p['run_s']:.4f} "
              f"setup_s={p['setup_s']:.4f} peak_rss_mb={p['peak_rss_mb']:.1f} "
              f"checks {ok}/{total}")
    for job in rec["passes"][0]["jobs"]:
        print(f"digest {job['id']} sha256={job['digest']} "
              f"bytes={job['artifact_bytes']}")
    counts = {"setup_s": f"median of {len(rec['setup_samples'])} interpreters",
              "run_s": f"median of {len(rec['passes'])} passes",
              "peak_rss_mb": f"median of {len(rec['passes'])} passes"}
    for name, m in rec["metrics"].items():
        extra = counts.get(name, "") if not rec["trace"] else ""
        note = m.get("note", "")
        print(f"{name} = {m['value']:.6g} {m['unit']}"
              + (f" ({extra})" if extra else "")
              + (f" [{note}]" if note else ""))
    print(f"failed_frac = {rec['failed'] / rec['attempted']:.6g} "
          f"({rec['failed']} of {rec['attempted']} checks failed)")
    for note in rec["failures"]:
        print("FAILED", note)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", default="full", choices=workloads.SCALES,
                    help="'tiny' is for the benchmark's own tests")
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench-out",
                    help="directory for scratch files and the full record")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "sumprod" / "__init__.py").is_file():
        print(f"perfbench: no sumprod source tree under {ROOT}",
              file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        rec = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = args.out / (f"result-{args.workload}-seed{args.seed}"
                       f"-trace{args.trace}.json")
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    report(rec)
    print(json.dumps({"correct": rec["failed"] == 0,
                      "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
