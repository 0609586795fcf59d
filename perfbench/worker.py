"""One benchmark pass in a fresh interpreter; run by run.py, not by hand.

    python3 perfbench/worker.py --workload NAME --seed N --scale full
        --mode setup|pass|traced --t0 MONOTONIC --out DIR --result FILE

`setup` times the interpreter start, `import sumprod` and the shared
tables, then exits.  `pass` also runs every job once, untraced.  `traced`
does the same under the tracer and also writes the spans.  The result is
one JSON object written to FILE, so the program's own printing cannot mix
with it.  setup_s runs from --t0, taken by the parent just before the
interpreter was started (CLOCK_MONOTONIC is shared by all processes).
"""

import time  # first, so nothing the benchmark adds delays the clock

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path

import workloads


def _digest(artifact) -> tuple:
    """(sha256 hex, bytes) of what a serializer returns, or of every file
    under a directory."""
    h = hashlib.sha256()
    if callable(artifact):
        data = artifact().encode()
        h.update(data)
        return h.hexdigest(), len(data)
    total = 0
    root = Path(artifact)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(data)
        total += len(data)
    return h.hexdigest(), total


def run(workload: str, seed: int, scale: str, mode: str, t0: float,
        out: Path) -> dict:
    inp = workloads.inputs(workload, seed, scale)
    tracer = None
    if mode == "traced":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
    ctx = workloads.setup(workload, inp,
                          after_import=tracer.install if tracer else None)
    setup_s = time.monotonic() - t0
    import numpy
    result = {"workload": workload, "seed": seed, "scale": scale,
              "mode": mode, "setup_s": setup_s, "numpy": numpy.__version__}
    if mode == "setup":
        return result

    workdir = out / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    job_list = workloads.jobs(workload, ctx, inp, scale)
    records = []
    cpu0 = os.times()
    for index, (job_id, job) in enumerate(job_list):
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        try:
            checks, artifact = job()
        except Exception as exc:  # a failing job is a failed check
            traceback.print_exc()
            checks, artifact = [(f"raised {type(exc).__name__}", False)], lambda: ""
        seconds = time.perf_counter() - start
        digest, nbytes = _digest(artifact)
        records.append({"id": job_id, "s": seconds, "checks": checks,
                        "digest": digest, "artifact_bytes": nbytes})
    cpu1 = os.times()
    if tracer is not None:
        tracer.job = -1
    os.chdir(out)
    shutil.rmtree(workdir, ignore_errors=True)

    result.update(
        run_s=sum(r["s"] for r in records),
        cpu_s=(cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        jobs=records)
    if tracer is not None:
        values, notes = tracer.layer_metrics()
        spans_file = out / f"spans-{workload}-seed{seed}.npz"
        numpy.savez(spans_file, **{k: numpy.asarray(v)
                                   for k, v in tracer.spans().items()})
        tracer.uninstall()
        result["trace"] = {"metrics": values, "notes": notes,
                           "job_self_s": tracer.job_self_s,
                           "spans": len(tracer.span_start),
                           "spans_file": str(spans_file)}
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=workloads.SCALES)
    ap.add_argument("--mode", required=True,
                    choices=["setup", "pass", "traced"])
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()
    result_file = args.result.resolve()  # before run() changes directory
    result = run(args.workload, args.seed, args.scale, args.mode, args.t0,
                 args.out.resolve())
    result_file.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
