"""The demos run to completion and print their headline results."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_forward_model_demo_runs():
    proc = _run_demo("01_forward_model_and_masks.py")
    assert proc.returncode == 0, proc.stderr
    assert "unsampled columns are exactly zero: True" in proc.stdout


def test_classical_reconstruction_demo_runs():
    proc = _run_demo("02_classical_reconstruction.py")
    assert proc.returncode == 0, proc.stderr
    best = [line.split() for line in proc.stdout.splitlines() if "best lambda" in line]
    assert [row[row.index("=") + 1] for row in best] == ["0.001", "0.1"]


def test_toy_subspace_demo_runs():
    proc = _run_demo("03_toy_subspace_estimators.py")
    assert proc.returncode == 0, proc.stderr
    for which in ("P", "Q"):
        assert f"pooled is suboptimal on {which} by" in proc.stdout


def test_learned_reconstruction_demo_runs():
    proc = _run_demo("04_learned_reconstruction.py")
    assert proc.returncode == 0, proc.stderr
    assert "inference deterministic: True" in proc.stdout
    assert "-> output (16, 16)" in proc.stdout


def test_robustness_and_similarity_demo_states_its_numbers():
    proc = _run_demo("05_robustness_and_similarity.py")
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.rsplit(": ", 1) for line in proc.stdout.splitlines() if ": " in line)
    sims = json.loads(lines["similarity of each source train set to the target test set"])
    union = float(lines["similarity of the union train set"])
    er = float(lines["union-trained model effective robustness (final epoch)"])
    assert (sims, union, er) == ([0.776, 0.831], 0.841, 0.008)
    beaten = sum(union > v for v in sims)
    assert (f"more similar to the target test set than {beaten} of 2 source train sets"
            in proc.stdout)
    assert "out-of-distribution SSIM lies above the specialist line" in proc.stdout


def test_distributional_overfitting_demo_runs():
    proc = _run_demo("06_distributional_overfitting.py")
    assert proc.returncode == 0, proc.stderr
    assert "overfitting detected:  True" in proc.stdout
