"""One benchmark run's job process: imports shiftmri from the checkout, writes
the workload's inputs, then runs jobs back to back (one at a time, closed
loop) until the requested seconds have passed, and writes what it measured.

Started by run.py with the thread variables already set; `--setup-only`
stops after the inputs are written, which is how run.py times set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import shiftmri  # noqa: E402
import shiftmri.cli  # noqa: E402,F401  (not imported by the package)

import tracing  # noqa: E402
import workloads  # noqa: E402

import numpy as np  # noqa: E402

if not Path(shiftmri.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"shiftmri was imported from {shiftmri.__file__}, not from {ROOT / 'src'}")

TAIL_CANDIDATES = (50, 75, 90, 95, 98, 99, 99.5, 99.9)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten of n samples beyond it."""
    ok = [p for p in TAIL_CANDIDATES if n * (1 - p / 100) >= 10]
    return ok[-1] if ok else None


def distribution(samples_s: list[float]) -> dict:
    """p50 and tail of one job's samples, in ms."""
    ms = np.asarray(samples_s) * 1e3
    p = tail_percentile(ms.size)
    return {"n": int(ms.size), "p50": float(np.percentile(ms, 50)) if ms.size else None,
            "tail_percentile": p, "tail": float(np.percentile(ms, p)) if p else None}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = {k: os.environ.get(k) for k in THREAD_VARS}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        revision = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shiftmri").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "cpu": cpu,
        "threads": threads,
        "threads_above_nproc": sorted(k for k, v in threads.items()
                                      if v and v.isdigit() and int(v) > nproc),
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
    }


def run_one(inputs: dict, out: Path, reference: dict, trace: bool, job_id: int,
            spans_path: Path | None) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    rec = tracing.Recorder(shiftmri, trace=trace, job_id=job_id)
    error = None
    with rec.installed():
        t0 = tracing.perf()
        try:
            if trace:
                with rec.spans.span(f"job.{inputs['workload']}"):
                    workloads.run_job(shiftmri, inputs, out)
            else:
                workloads.run_job(shiftmri, inputs, out)
        except Exception as e:  # a failed job is counted, not fatal to the run
            error = f"{type(e).__name__}: {e}"
        wall = tracing.perf() - t0
    job = {"trace": trace, "wall_s": wall, "train_s": rec.train_s, "train_steps": rec.train_steps,
           "step_ms": distribution(rec.step_s), "recon_ms": distribution(rec.recon_s)}
    if error:
        job.update(problems=[error], ssim_mean=None, fingerprint=None)
        return job
    job.update(workloads.check_job(shiftmri, inputs, out, reference, rec))
    if trace:
        spans = rec.spans.to_json()
        job["problems"] += tracing.check_spans(spans, wall)
        job["layers"] = rec.layer_metrics()
        spans_path.write_text(json.dumps(spans, separators=(",", ":")))
    return job


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = Path(args.work)
    inputs = workloads.write_inputs(args.workload, args.seed, work / "inputs")
    if args.setup_only:
        return 0
    reference = json.loads((BENCH / "reference.json").read_text())

    jobs = []
    start = tracing.perf()
    peak_rss_mb = None
    while True:
        jobs.append(run_one(inputs, work / "out", reference, False, len(jobs), None))
        if peak_rss_mb is None:
            # through the first job, as a process running one job would see it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / tracing.MB
        if args.trace:
            jobs.append(run_one(inputs, work / "out", reference, True, len(jobs),
                                work / f"spans-{len(jobs)}.json"))
        if tracing.perf() - start >= args.seconds:
            break
    result = {
        "workload": args.workload, "seed": args.seed, "variant": inputs["variant"],
        "default_seed": workloads.DEFAULT_SEED, "holdout_seed": workloads.HOLDOUT_SEED,
        "trace": args.trace, "measured_s": tracing.perf() - start,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(), "jobs": jobs,
    }
    (work / "job_result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
