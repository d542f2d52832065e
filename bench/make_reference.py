#!/usr/bin/env python3
"""Regenerate reference.json: each workload's ssim_mean (and for `classical`
the best lambda) on every input variant, from one untraced job per variant.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 bench/make_reference.py [workload ...]

Only rerun this when a change is meant to move the reports; the benchmark
treats any other change of these values as a failure.
"""

from __future__ import annotations

import json
import sys

import job
import workloads


def main(names: list[str]) -> int:
    path = job.BENCH / "reference.json"
    for workload in names or workloads.WORKLOADS:
        work = job.ROOT / ".bench_work" / "reference" / workload
        table = {}
        for v in range(workloads.VARIANTS):
            inputs = workloads.write_inputs(workload, v, work / "inputs")
            result = job.run_one(inputs, work / "out", {}, False, v, None)
            expected = [p for p in result["problems"] if p.startswith("no stored reference")]
            if result["problems"] != expected:
                print(f"{workload} variant {v}: {result['problems']}", file=sys.stderr)
                return 1
            table[str(v)] = {"ssim_mean": result["ssim_mean"]}
            if "best_lambda" in result:
                table[str(v)]["best_lambda"] = result["best_lambda"]
            print(workload, v, table[str(v)], flush=True)
        reference = {**json.loads(path.read_text()), workload: table}
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
