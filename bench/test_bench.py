"""Self-test of the benchmark's tracing on small inputs.

    python3 -m pytest -q bench/test_bench.py

Exact counts must repeat between two traced runs of the same job, every
span's self time must lie between zero and its total, the top-level span
must cover the traced wall time, and every wrapper must come off again.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import job  # puts the checkout's src/ first on sys.path
import shiftmri
import tracing
from run import is_time

BENCHMARK = json.loads((job.ROOT / "BENCHMARK.json").read_text())


def _spec(name, seed, coils=2):
    return {"name": name, "extents": [16, 16], "coils": coils, "snr_db": 30, "seed": seed}


SMALL = {
    "robustness": {
        "template": "diversity_robustness", "seed": 1, "train_count": 2, "test_count": 2,
        "sources": [_spec("P1", 1), _spec("P2", 2)], "target": _spec("Q", 3),
        "model": {"kind": "unet_lite", "seed": 1}, "train": {"epochs": 2, "seed": 1},
    },
    "varnet": {
        "template": "accel_combo", "seed": 1, "train_count": 2, "test_count": 2,
        "distributions": {"P": _spec("P", 4)}, "accelerations": [2, 4],
        "unseen_acceleration": 3, "model": {"kind": "varnet_lite", "seed": 1, "cascades": 2},
        "train": {"epochs": 1, "seed": 1, "center_fraction": 0.16},
    },
}


def _classical(tmp: Path):
    tmp.mkdir(parents=True, exist_ok=True)
    spec = tmp / "spec.json"
    spec.write_text(json.dumps(_spec("C", 5)))
    for argv in (["gen-data", "--spec", str(spec), "--count", "2", "--out", str(tmp / "d")],
                 ["tune-lambda", "--dataset", str(tmp / "d"), "--grid", "1e-3,1e-1",
                  "--out", str(tmp / "t")],
                 ["toy-subspace", "--samples", "500", "--out", str(tmp / "toy")]):
        assert shiftmri.cli.main(argv) == 0


def _traced(name: str, tmp: Path):
    rec = tracing.Recorder(shiftmri, trace=True)
    with rec.installed():
        t0 = tracing.perf()
        with rec.spans.span(f"job.{name}"):
            if name == "classical":
                _classical(tmp)
            else:
                cfg = shiftmri.harness.ExperimentConfig.from_dict(SMALL[name])
                shiftmri.harness.run_experiment(cfg, tmp / "out")
        wall = tracing.perf() - t0
    return rec, wall


@pytest.mark.parametrize("name", ["robustness", "varnet", "classical"])
def test_counts_repeat_and_spans_are_consistent(name, tmp_path):
    runs = [_traced(name, tmp_path / str(i)) for i in range(2)]
    layers = [rec.layer_metrics() for rec, _ in runs]
    counts = [{k: v for k, (v, unit) in m.items() if not is_time(unit)} for m in layers]
    assert counts[0] == counts[1]
    for rec, wall in runs:
        assert tracing.check_spans(rec.spans.to_json(), wall) == []
        for calls, total, self_s in rec.spans.stats.values():
            assert calls > 0 and -1e-9 <= self_s <= total + 1e-12
    # a listed time metric must never read exactly 0 on a workload
    for m in BENCHMARK["per_layer"]:
        if is_time(m["unit"]):
            assert layers[0][m["name"]][0] > 0, m["name"]
    first = counts[0]
    busy = {"robustness": ["autodiff.conv2d", "metrics.ssim_and_grad", "learned.Checkpoint.save",
                           "metrics.extract_features", "learned.reconstruct_infer"],
            "varnet": ["learned.tape_fft2c", "autodiff.bw.matmul", "learned.reconstruct_train"],
            "classical": ["fista.tune_lambda", "fista.fista_l1", "metrics.ssim", "data.load",
                          "toy.mse_table", "cli.main"]}[name]
    for span in busy + ["kspace.fft2c", "data.generate"]:
        assert first[f"{span}.calls"] > 0, span
    if name == "classical":
        assert first["fista.forward_per_iteration"] >= 2
        assert first["data.io.mb"] > 0
    else:
        assert first["autodiff.tape_nodes_per_step"] > 0
        assert first["learned.checkpoint.mb_written"] > 0
        assert 0 < first["data.simulate_distinct_ratio"] <= 1


def test_wrappers_come_off():
    originals = {(mod.__name__, attr): value for mod in tracing._shiftmri_modules()
                 for attr, value in vars(mod).items() if callable(value)}
    classes = [shiftmri.autodiff.Tape, shiftmri.learned.UnetLite, shiftmri.learned.VarnetLite,
               shiftmri.learned.Checkpoint]
    methods = [dict(vars(c)) for c in classes]
    with tracing.Recorder(shiftmri, trace=True).installed():
        assert shiftmri.cli.tune_lambda is not originals[("shiftmri.cli", "tune_lambda")]
        assert shiftmri.autodiff.ssim_and_grad is shiftmri.metrics.ssim_and_grad
    after = {(mod.__name__, attr): value for mod in tracing._shiftmri_modules()
             for attr, value in vars(mod).items() if callable(value)}
    assert after == originals
    assert [dict(vars(c)) for c in classes] == methods


def test_benchmark_lists_only_measured_metrics(tmp_path):
    rec, _ = _traced("classical", tmp_path)
    measured = {k: unit for k, (_, unit) in rec.layer_metrics().items()}
    measured["trace.overhead_frac"] = "frac"
    for m in BENCHMARK["per_layer"]:
        assert measured.get(m["name"]) == m["unit"], m["name"]
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert "setup_s" in e2e and all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_unlisted_span_names_are_reported():
    rec = tracing.Recorder(shiftmri, trace=True)
    with rec.spans.span("autodiff.bw.some-new-op"):
        pass
    assert rec.layer_metrics()["autodiff.bw.some-new-op.calls"] == (1, "count")
