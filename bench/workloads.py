"""The benchmark's workloads: inputs made from the seed, one job each, and the
checks that a job's outputs are correct.

A seed selects one of VARIANTS input variants (seed mod VARIANTS), so every
seed has a stored reference in reference.json. Variant 0 of `robustness` is
the configuration of demos/05_robustness_and_similarity.py.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

WORKLOADS = ("robustness", "varnet", "classical")
VARIANTS = 16
DEFAULT_SEED = 0
HOLDOUT_SEED = 11  # a second seed for checking a claim on inputs it was not tuned on

# How far (absolute) ssim_mean may sit from its stored reference. Reordering
# the window sums of SSIM moved robustness's ssim_mean by 6e-16. For FISTA a
# reordered sum can flip a stopping decision: raising its tolerance from 1e-6
# to 1.3e-6 changed 81 of 4932 iterations and ssim_mean by 2.7e-4, so one
# flipped iteration moves it by a few 1e-6. A changed model, loss, mask or
# dataset moves ssim_mean by far more than these.
SSIM_TOLERANCE = {"robustness": 1e-6, "varnet": 1e-6, "classical": 1e-4}

CLASSICAL_ITEMS = 10
LAMBDA_GRID = "1e-4,1e-3,1e-2,1e-1"


def variant(seed: int) -> int:
    return seed % VARIANTS


def _spec(name, seed, extents, coils, snr_db, gamma=1.0):
    return {"name": name, "contrast": {"kind": "gamma", "gamma": gamma},
            "extents": list(extents), "coils": coils, "snr_db": snr_db, "seed": seed}


def robustness_config(v: int) -> dict:
    """diversity_robustness at the sizes of demo 05: unet_lite, 32x32, 4 coils,
    two sources bracketing the target in contrast, SSIM loss."""
    return {
        "template": "diversity_robustness", "seed": v,
        "train_count": 24, "test_count": 8,
        "sources": [_spec("P1", 31 + 3 * v, (32, 32), 4, 30, gamma=1.35),
                    _spec("P2", 32 + 3 * v, (32, 32), 4, 30, gamma=0.75)],
        "target": _spec("Q", 33 + 3 * v, (32, 32), 4, 30),
        "model": {"kind": "unet_lite", "seed": v},
        "train": {"epochs": 6, "seed": v},
    }


def varnet_config(v: int) -> dict:
    """accel_combo with varnet_lite at 32x32 and 8 coils: trained at R 4 and 8
    (alone and mixed), evaluated also at the unseen R 6. A 16% center band
    is halved to 8% at R 6 and 8 by feasible_center_fraction."""
    return {
        "template": "accel_combo", "seed": v,
        "train_count": 20, "test_count": 16,
        "distributions": {"P": _spec("P", 41 + v, (32, 32), 8, 30)},
        "accelerations": [4, 8], "unseen_acceleration": 6,
        "model": {"kind": "varnet_lite", "seed": v},
        "train": {"epochs": 6, "seed": v, "center_fraction": 0.16},
    }


def classical_spec() -> dict:
    """The phantoms stay fixed; the seed picks tune-lambda's masks and noise
    and the toy problem's draws. FISTA's iteration count depends on the
    phantoms, so fixing them keeps the work per job comparable across seeds."""
    return _spec("C", 51, (64, 64), 8, 25)


def write_inputs(workload: str, seed: int, inputs_dir: Path) -> dict:
    """Write the generated config or spec JSON; return what a job needs."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    v = variant(seed)
    if workload == "classical":
        path = inputs_dir / "spec.json"
        path.write_text(json.dumps(classical_spec(), indent=1))
        return {"workload": workload, "variant": v, "spec": str(path)}
    config = robustness_config(v) if workload == "robustness" else varnet_config(v)
    path = inputs_dir / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return {"workload": workload, "variant": v, "config": str(path)}


def run_job(sm, inputs: dict, out: Path) -> None:
    """The timed call: one job from its first call until its report is written."""
    if inputs["workload"] == "classical":
        steps = [
            ["gen-data", "--spec", inputs["spec"], "--count", str(CLASSICAL_ITEMS),
             "--out", str(out / "dataset")],
            ["tune-lambda", "--dataset", str(out / "dataset"), "--grid", LAMBDA_GRID,
             "--seed", str(inputs["variant"]), "--out", str(out / "tune")],
            ["toy-subspace", "--seed", str(inputs["variant"]), "--out", str(out / "toy")],
        ]
        for argv in steps:
            code = sm.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"shiftmri {argv[0]} exited with code {code}")
        return
    sm.harness.run_experiment(_experiment_config(sm, inputs), out)


def _experiment_config(sm, inputs: dict):
    return sm.harness.ExperimentConfig.from_dict(json.loads(Path(inputs["config"]).read_text()))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_job(sm, inputs: dict, out: Path, reference: dict, rec) -> dict:
    """Check one job's outputs; returns its ssim_mean, a fingerprint of its
    report files and the list of problems found (empty when correct)."""
    problems: list[str] = []
    ref = reference.get(inputs["workload"], {}).get(str(inputs["variant"]))
    if ref is None:
        problems.append(f"no stored reference for variant {inputs['variant']}")
        ref = {"ssim_mean": None, "best_lambda": None}
    result = {}
    if inputs["workload"] == "classical":
        ssim_values, files = _check_classical(out, ref, rec, problems)
        if files[2].is_file():
            result["best_lambda"] = json.loads(files[2].read_text())["best_lambda"]
    else:
        ssim_values, files = _check_report(sm, inputs, out, problems)
        if not rec.step_s or not rec.recon_s:
            problems.append("no training steps or reconstructions were seen")
    ssim_mean = sum(ssim_values) / len(ssim_values) if ssim_values else None
    tolerance = SSIM_TOLERANCE[inputs["workload"]]
    if ssim_mean is None:
        problems.append("the job reported no SSIM values")
    elif ref["ssim_mean"] is not None and not abs(ssim_mean - ref["ssim_mean"]) <= tolerance:
        problems.append(f"ssim_mean {ssim_mean!r} differs from reference {ref['ssim_mean']!r}")
    digest = hashlib.sha256()
    for path in files:
        if path.is_file():
            digest.update(path.read_bytes())
    result.update(ssim_mean=ssim_mean, fingerprint=digest.hexdigest(), problems=problems)
    return result


def _check_report(sm, inputs, out: Path, problems: list[str]):
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        problems.append("no manifest.json")
        return [], []
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("complete") is not True:
        problems.append(f"manifest not complete: {manifest}")
    files = manifest.get("files", {})
    if sorted(files) != ["details.json", "fits.json", "records.csv"]:
        problems.append(f"manifest lists {sorted(files)}")
    for name, digest in files.items():
        if not (out / name).is_file() or _sha256(out / name) != digest:
            problems.append(f"{name} does not match its manifest hash")
    config_json = _experiment_config(sm, inputs).canonical_json()
    if manifest.get("config_sha256") != hashlib.sha256(config_json.encode()).hexdigest():
        problems.append("manifest config hash does not match the config")
    values = []
    if (out / "records.csv").is_file():
        with open(out / "records.csv", newline="") as f:
            values = [float(row["value"]) for row in csv.DictReader(f)]
    if not values:
        problems.append("records.csv holds no records")
    if not _finite(values):
        problems.append("records.csv holds non-finite values")
    details = json.loads((out / "details.json").read_text()) if (out / "details.json").is_file() else {}
    if not _finite(_numbers(details)):
        problems.append("details.json holds non-finite values")
    return values, [manifest_path] + [out / name for name in sorted(files)]


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def _check_classical(out: Path, ref: dict, rec, problems: list[str]):
    files = [out / "dataset" / "manifest.json", out / "tune" / "tune_lambda.csv",
             out / "tune" / "tune_lambda.json", out / "toy" / "toy_subspace.json"]
    missing = [str(p.relative_to(out)) for p in files if not p.is_file()]
    if missing:
        problems.append(f"missing outputs: {missing}")
        return [], files
    if json.loads(files[0].read_text()).get("count") != CLASSICAL_ITEMS:
        problems.append("dataset manifest count is wrong")
    with open(files[1], newline="") as f:
        rows = list(csv.DictReader(f))
    values = [float(r["mean_ssim"]) for r in rows]
    if len(rows) != len(LAMBDA_GRID.split(",")) or any(int(r["n_items"]) != CLASSICAL_ITEMS
                                                     for r in rows):
        problems.append("tune_lambda.csv has the wrong shape")
    if not _finite(values):
        problems.append("tune_lambda.csv holds non-finite values")
    best = json.loads(files[2].read_text())["best_lambda"]
    if ref["best_lambda"] is not None and best != ref["best_lambda"]:
        problems.append(f"best lambda {best!r} differs from reference {ref['best_lambda']!r}")
    toy = json.loads(files[3].read_text())
    if not _finite(_numbers(toy["mse"])) or min(_numbers(toy["mse"])) <= 0:
        problems.append("toy_subspace.json holds non-positive or non-finite MSEs")
    if rec.fista_solves != CLASSICAL_ITEMS * len(rows):
        problems.append(f"{rec.fista_solves} fista_l1 solves seen, expected "
                        f"{CLASSICAL_ITEMS * len(rows)}")
    if rec.nonmonotone_traces:
        problems.append(f"{rec.nonmonotone_traces} fista_l1 objective traces increase")
    return values, files
