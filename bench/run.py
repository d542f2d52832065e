#!/usr/bin/env python3
"""Run one shiftmri benchmark workload and print its metrics.

    python3 bench/run.py --workload robustness --seed 0 --seconds 20 --trace 0

With --trace 0 the job process runs jobs untraced and the end-to-end metrics
are reported; with --trace 1 it alternates an untraced and a traced job and
the per-layer metrics are reported. Every metric measured is printed by name
with its unit; the last line is one JSON object holding `correct`,
`attempted`, `failed` and the metrics BENCHMARK.json lists for the mode.

Set-up time is timed here, from starting an interpreter until it has imported
shiftmri and written the workload's inputs, SETUP_PROBES times. The job
process gets OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
DEADLINE_S = 170  # the whole run, set-up probes included
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def median(values):
    return statistics.median(list(values))


def end_to_end(result: dict, jobs: list[dict], setup: list[float]) -> dict:
    """Medians over the untraced jobs, each metric as (value, unit, note)."""
    m = {"setup_s": (median(setup), "s", f"median of {len(setup)} interpreter starts"),
         "wall_s": (median(j["wall_s"] for j in jobs), "s", f"median of {len(jobs)} jobs")}
    for key, prefix in (("recon_ms", "recon_ms"), ("step_ms", "train_step_ms")):
        dists = [j[key] for j in jobs if j[key]["n"]]
        if not dists:
            continue
        m[f"{prefix}_p50"] = (median(d["p50"] for d in dists), "ms", f"n={dists[0]['n']} per job")
        if dists[0]["tail_percentile"] is not None:
            m[f"{prefix}_tail"] = (median(d["tail"] for d in dists), "ms",
                                   f"p{dists[0]['tail_percentile']:g}, n={dists[0]['n']} per job")
    if jobs[0]["train_steps"]:
        m["train_steps_per_s"] = (median(j["train_steps"] / j["train_s"] for j in jobs), "1/s",
                                  f"{jobs[0]['train_steps']} steps per job")
    m["ssim_mean"] = (next((j["ssim_mean"] for j in jobs if j["ssim_mean"] is not None), None),
                      "ssim", "mean of the job's reported SSIM values")
    m["peak_rss_mb"] = (result["peak_rss_mb"], "MB", "job process ru_maxrss after its first job")
    return m


def is_time(unit: str) -> bool:
    return unit in ("s", "ms", "us")


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Counts from the first traced job, times as medians over traced jobs."""
    m = {}
    for name, (value, unit) in traced[0]["layers"].items():
        if is_time(unit):
            value = median(j["layers"][name][0] for j in traced)
        m[name] = (value, unit, "")
    overhead = median(j["wall_s"] for j in traced) / median(j["wall_s"] for j in untraced) - 1
    m["trace.overhead_frac"] = (overhead, "frac", "traced wall / untraced wall - 1")
    return m


def check_exact_counts(traced: list[dict]) -> None:
    """Counts must repeat exactly from one traced job to the next."""
    first = traced[0]["layers"]
    for j in traced[1:]:
        j["problems"] += [f"{name} differs from the first traced job"
                          for name, (value, unit) in j["layers"].items()
                          if not is_time(unit) and value != first[name][0]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "shiftmri" / "__init__.py").is_file():
        return fail(f"no shiftmri sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    work = ROOT / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **THREADS}
    cmd = [sys.executable, str(BENCH / "job.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    t_start = time.perf_counter()
    log = open(work / "job.log", "w")
    try:
        setup = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            code = subprocess.run(cmd + ["--setup-only"], env=env, stdout=log, stderr=log,
                                  timeout=60).returncode
            setup.append(time.perf_counter() - t0)
            if code != 0:
                return fail(f"set-up failed with code {code}; see {work / 'job.log'}")
        (work / "job_result.json").unlink(missing_ok=True)
        remaining = DEADLINE_S - (time.perf_counter() - t_start)
        code = subprocess.run(cmd, env=env, stdout=log, stderr=log, timeout=remaining).returncode
        if code != 0:
            return fail(f"job process failed with code {code}; see {work / 'job.log'}")
    except subprocess.TimeoutExpired:
        return fail(f"job process did not finish within {DEADLINE_S} s")
    finally:
        log.close()

    result = json.loads((work / "job_result.json").read_text())
    jobs = result["jobs"]
    untraced = [j for j in jobs if not j["trace"]]
    traced = [j for j in jobs if j["trace"]]
    if traced:
        check_exact_counts(traced)
    for j in jobs[1:]:
        if j["fingerprint"] != jobs[0]["fingerprint"]:
            j["problems"].append("its reports differ from the first job's on the same inputs")
    problems = [f"job {i}: {p}" for i, j in enumerate(jobs) for p in j["problems"]]
    failed = sum(1 for j in jobs if j["problems"])

    e2e = end_to_end(result, untraced, setup)
    e2e["failed_frac"] = (failed / len(jobs), "frac", f"{failed} of {len(jobs)} jobs failed")
    metrics = per_layer(traced, untraced) if args.trace else e2e
    listed = spec["per_layer" if args.trace else "end_to_end"]
    wrong = [m["name"] for m in listed
             if metrics.get(m["name"], (None,))[0] is None or metrics[m["name"]][1] != m["unit"]]
    if wrong:  # e.g. every job failed before it could be measured
        for p in problems:
            print(f"PROBLEM {p}", file=sys.stderr)
        return fail(f"metrics not measured on {args.workload} with their listed unit: {wrong}")

    env_record = result["environment"]
    print(f"workload {args.workload}  seed {args.seed} (variant {result['variant']}; default "
          f"seed {result['default_seed']}, hold-out seed {result['holdout_seed']})  "
          f"trace {args.trace}  jobs {len(jobs)} in {result['measured_s']:.2f} s")
    print("environment " + json.dumps(env_record, sort_keys=True))
    if env_record["threads_above_nproc"]:
        print(f"WARNING: thread settings above nproc: {env_record['threads_above_nproc']}")
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<24} {value!r:>24} {unit:<5} {note}")
    if args.trace:
        for name, (value, unit, note) in metrics.items():
            print(f"  {name:<44} {value!r:>24} {unit:<5} {note}")
    for p in problems:
        print(f"PROBLEM {p}")
    line = {"correct": not problems, "attempted": len(jobs), "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                        for m in listed}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
