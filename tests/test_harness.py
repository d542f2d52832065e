import json

import numpy as np
import pytest

from shiftmri import data as dm
from shiftmri import harness, learned, metrics
from oracles import overfit_scan_reference


# ---------------------------------------------------------------------------
# Overfitting detector.
# ---------------------------------------------------------------------------


def test_detect_strictly_increasing_traces():
    id_t = np.linspace(0.1, 0.9, 12)
    ood_t = np.linspace(0.2, 0.8, 12)
    v = harness.detect_distributional_overfitting(id_t, ood_t, 3, 1e-3)
    assert v.peak_epoch == 11
    assert v.stop_epoch == 11
    assert v.ood_drop_from_peak == 0.0
    assert not v.detected


def test_detect_planted_peak_and_marginal_tail():
    epochs = np.arange(0, 22)
    id_t = np.where(epochs <= 15, 0.01 * epochs, 0.15 + 1e-4 * (epochs - 15))
    ood_t = np.where(epochs <= 15, 0.01 * epochs, 0.15 - 0.005 * (epochs - 15))
    v = harness.detect_distributional_overfitting(id_t, ood_t, 3, 1e-3)
    assert v.peak_epoch == 15
    assert v.stop_epoch == 18
    assert v.ood_drop_from_peak == pytest.approx(0.005 * 6)
    assert v.detected


def test_detect_constant_id_stops_at_first_window():
    id_t = np.full(10, 0.5)
    ood_t = np.linspace(0, 1, 10)
    v = harness.detect_distributional_overfitting(id_t, ood_t, 3, 1e-3)
    assert v.stop_epoch == 3


def test_detect_validates_traces():
    with pytest.raises(ValueError):
        harness.detect_distributional_overfitting([1, 2], [1, 2, 3], 3, 1e-3)
    with pytest.raises(ValueError):
        harness.detect_distributional_overfitting([1, 2, 3], [1, 2, 3], 3, 1e-3)


def test_detect_matches_scan_oracle_on_200_planted_traces():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(6, 40))
        w = int(rng.integers(1, min(4, n - 1) + 1))
        peak = int(rng.integers(1, n))
        slope_up = rng.uniform(0.001, 0.02)
        slope_tail = rng.uniform(0.0, 0.002)
        drop_rate = rng.uniform(0.0, 0.01)
        e = np.arange(n)
        id_t = np.where(e <= peak, slope_up * e,
                        slope_up * peak + slope_tail * (e - peak))
        ood_t = np.where(e <= peak, slope_up * e,
                         slope_up * peak - drop_rate * (e - peak))
        id_t = id_t + rng.normal(0, 1e-6, n)
        ood_t = ood_t + rng.normal(0, 1e-6, n)
        eps = rng.uniform(1e-4, 5e-3)
        delta = rng.uniform(0.0, 0.02)
        got = harness.detect_distributional_overfitting(id_t, ood_t, w, eps, delta)
        ref = overfit_scan_reference(id_t, ood_t, w, eps, delta)
        assert (got.peak_epoch, got.stop_epoch) == ref[:2], f"trial {trial}"
        assert got.id_gain_over_window == pytest.approx(ref[2], abs=0)
        assert got.ood_drop_from_peak == pytest.approx(ref[3], abs=0)
        assert got.detected == ref[4]


# ---------------------------------------------------------------------------
# Source selection.
# ---------------------------------------------------------------------------


MODEL = learned.ModelConfig("unet_lite", channels=4, pool_levels=2, seed=0)
TRAIN = learned.TrainConfig(epochs=2, seed=0)


def _ds(seed, name="d", count=4, **kw):
    defaults = dict(name=name, extents=(32, 32), coils=3, snr_db=30.0, seed=seed)
    defaults.update(kw)
    return dm.generate(dm.DistributionSpec(**defaults), count)


def test_select_best_single_source():
    src = _ds(1)
    best, _, means = harness.select_best_source([src], _ds(2), MODEL, TRAIN)
    assert best == 0 and len(means) == 1


def test_select_best_duplicated_sources_tie_breaks_low():
    src = _ds(3)
    best, _, means = harness.select_best_source([src, src], _ds(4), MODEL, TRAIN)
    assert best == 0
    assert means[0] == means[1]


def test_select_best_prefers_matching_distribution():
    target_spec = dm.DistributionSpec("T", extents=(32, 32), coils=3, snr_db=30.0, seed=5)
    matching = dm.generate(target_spec, 8)
    off = _ds(6, name="off", count=8,
              shape_family="polygon-phantom",
              contrast={"kind": "gamma", "gamma": 2.5})
    target_test = dm.generate(dm.DistributionSpec("T", extents=(32, 32), coils=3,
                                                  snr_db=30.0, seed=55), 4)
    cfg = learned.TrainConfig(epochs=4, seed=0)
    best, _, means = harness.select_best_source([off, matching], target_test, MODEL, cfg)
    assert best == 1
    assert means[1] > means[0]


def test_select_best_rejects_empty():
    with pytest.raises(ValueError):
        harness.select_best_source([], _ds(1), MODEL, TRAIN)


# ---------------------------------------------------------------------------
# Report emission.
# ---------------------------------------------------------------------------


def _records():
    return [
        harness.EvalRecord("m1", "A", 1, "P-test", "ssim", 0.5, 0),
        harness.EvalRecord("m1", "A", 1, "Q-test", "ssim", 0.625, 0, "normalized"),
    ]


def test_emit_report_byte_stable(tmp_path):
    fits = {"f": metrics.RobustnessFit(1.0, 0.0, [0.25])}
    h1 = harness.emit_report(_records(), fits, tmp_path / "a", {"k": 1}, "{}")
    h2 = harness.emit_report(_records(), fits, tmp_path / "b", {"k": 1}, "{}")
    assert h1 == h2
    for name in ("records.csv", "fits.json", "details.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_report_rejects_empty():
    with pytest.raises(ValueError):
        harness.emit_report([], {}, "/tmp/nowhere")


def test_records_csv_roundtrip(tmp_path):
    recs = _records()
    text = harness.records_to_csv(recs)
    assert text.splitlines()[0] == harness.CSV_HEADER
    parsed = harness.parse_records_csv(text)
    assert parsed == recs


# ---------------------------------------------------------------------------
# Experiment templates.
# ---------------------------------------------------------------------------


def _base_config(**kw):
    d = {
        "template": "joint_vs_separate",
        "seed": 0,
        "train_count": 4,
        "test_count": 2,
        "model": {"kind": "unet_lite", "channels": 4, "pool_levels": 2, "seed": 0},
        "train": {"epochs": 1, "seed": 0},
        "distributions": {
            "P": {"name": "P", "extents": [32, 32], "coils": 3, "snr_db": 30, "seed": 1},
            "Q": {"name": "Q", "extents": [32, 32], "coils": 3, "snr_db": 30, "seed": 2,
                  "contrast": {"kind": "gamma", "gamma": 1.8}},
        },
    }
    d.update(kw)
    return d


def test_config_validation_errors():
    with pytest.raises(harness.ConfigError, match="template"):
        harness.ExperimentConfig.from_dict(_base_config(template="magic"))
    bad = _base_config()
    del bad["seed"]
    with pytest.raises(harness.ConfigError, match="seed"):
        harness.ExperimentConfig.from_dict(bad)
    with pytest.raises(harness.ConfigError):
        harness.ExperimentConfig.from_dict(_base_config(model={"kind": "mlp"}))


def test_joint_vs_separate_emits_all_cells(tmp_path):
    cfg = harness.ExperimentConfig.from_dict(_base_config())
    harness.run_experiment(cfg, tmp_path)
    recs = harness.parse_records_csv((tmp_path / "records.csv").read_text())
    cells = {(r.model_id, r.test_set) for r in recs}
    assert cells == {(m, t) for m in ("P", "Q", "P+Q", "P+Q-half")
                     for t in ("P-test", "Q-test")}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["complete"]
    assert (tmp_path / "checkpoints").is_dir()


def test_joint_vs_separate_degenerate_p_equals_q_reports_band(tmp_path):
    cfg_d = _base_config(seeds=[0, 1])
    cfg_d["distributions"]["Q"] = dict(cfg_d["distributions"]["P"], name="Q")
    cfg = harness.ExperimentConfig.from_dict(cfg_d)
    harness.run_experiment(cfg, tmp_path)
    details = json.loads((tmp_path / "details.json").read_text())
    bands = details["seed_bands"]
    assert details["n_seeds"] == 2
    assert set(bands) == {f"{m}|{t}" for m in ("P", "Q", "P+Q", "P+Q-half")
                          for t in ("P-test", "Q-test")}
    for cell in bands.values():
        assert cell["band"][0] <= cell["mean"] <= cell["band"][1]


def test_accel_combo_single_acceleration_reduces_to_plain_run(tmp_path):
    cfg_d = _base_config(template="accel_combo", accelerations=[4])
    cfg = harness.ExperimentConfig.from_dict(cfg_d)
    harness.run_experiment(cfg, tmp_path / "exp")
    recs = harness.parse_records_csv((tmp_path / "exp" / "records.csv").read_text())
    assert [r.model_id for r in recs] == ["R4"]
    # oracle: train/eval the same model directly with the same seeds
    spec = dm.DistributionSpec.from_dict(cfg_d["distributions"]["P"])
    train_set, test_set = dm.train_test(spec, 4, 2)
    cks, _ = learned.train(learned.ModelConfig("unet_lite", channels=4, pool_levels=2,
                                               seed=0),
                           train_set, learned.TrainConfig(epochs=1, seed=0))
    mean, _, _ = learned.evaluate_checkpoint(cks[-1], test_set, 0, 4, 0.08)
    assert recs[0].value == pytest.approx(mean, abs=0)


def test_accel_combo_matrix(tmp_path):
    cfg = harness.ExperimentConfig.from_dict(
        _base_config(template="accel_combo", accelerations=[2, 4],
                     unseen_acceleration=3.0))
    harness.run_experiment(cfg, tmp_path)
    recs = harness.parse_records_csv((tmp_path / "records.csv").read_text())
    by_model = {}
    for r in recs:
        by_model.setdefault(r.model_id, set()).add(r.test_set)
    assert by_model["R2"] == {"P-test@R2", "P-test@R3"}
    assert by_model["R4"] == {"P-test@R4", "P-test@R3"}
    assert by_model["R-all"] == {"P-test@R2", "P-test@R4", "P-test@R3"}


def test_skewed_template_counts(tmp_path):
    cfg = harness.ExperimentConfig.from_dict(
        _base_config(template="skewed", train_count=8, skew_factor=4.0))
    harness.run_experiment(cfg, tmp_path)
    details = json.loads((tmp_path / "details.json").read_text())
    assert details["small_set_size"] == 2
    recs = harness.parse_records_csv((tmp_path / "records.csv").read_text())
    assert {r.model_id for r in recs} == {"P-small", "Q", "P+Q"}


def test_overfit_monitor_template(tmp_path):
    cfg = harness.ExperimentConfig.from_dict(
        _base_config(template="overfit_monitor",
                     train={"epochs": 4, "seed": 0}))
    harness.run_experiment(cfg, tmp_path)
    details = json.loads((tmp_path / "details.json").read_text())
    assert len(details["id_trace"]) == 4
    verdict = details["verdict"]
    scan = overfit_scan_reference(details["id_trace"], details["ood_trace"], 3, 1e-3, 0.0)
    assert (verdict["peak_epoch"], verdict["stop_epoch"]) == scan[:2]


def _saved_checkpoint(outdir, model_id, epoch):
    ck_dir = outdir / "checkpoints" / model_id.replace("+", "u")
    return learned.Checkpoint.load(ck_dir / f"epoch_{epoch:03d}.ckpt")


def test_overfit_monitor_traces_equal_fresh_evaluations(tmp_path):
    cfg = harness.ExperimentConfig.from_dict(
        _base_config(template="overfit_monitor", train={"epochs": 4, "seed": 0}))
    harness.run_experiment(cfg, tmp_path)
    details = json.loads((tmp_path / "details.json").read_text())
    tests = {"id_trace": dm.train_test(cfg.distributions["P"], 4, 2)[1],
             "ood_trace": dm.train_test(cfg.distributions["Q"], 4, 2)[1]}
    for key, test_set in tests.items():
        fresh = [learned.evaluate_checkpoint(_saved_checkpoint(tmp_path, "P", epoch),
                                             test_set, cfg.seed, cfg.train.acceleration,
                                             cfg.train.center_fraction)[0]
                 for epoch in range(1, cfg.train.epochs + 1)]
        assert details[key] == fresh, key


def test_overfit_monitor_rejects_short_config_before_training():
    cfg_d = _base_config(template="overfit_monitor", train={"epochs": 3, "seed": 0},
                         overfit_window=3)
    with pytest.raises(harness.ConfigError, match="overfit_window"):
        harness.ExperimentConfig.from_dict(cfg_d)
    cfg_d["train"]["epochs"] = 4
    assert harness.ExperimentConfig.from_dict(cfg_d).train.epochs == 4


def test_pathology_template_region_metrics(tmp_path):
    cfg_d = _base_config(template="pathology", train_count=4, test_count=4)
    cfg_d["distributions"] = {
        "P": {"name": "P", "extents": [80, 80], "coils": 2, "snr_db": 30, "seed": 1}}
    cfg = harness.ExperimentConfig.from_dict(cfg_d)
    harness.run_experiment(cfg, tmp_path)
    recs = harness.parse_records_csv((tmp_path / "records.csv").read_text())
    metrics_seen = {r.metric for r in recs}
    assert "region_ssim_small" in metrics_seen
    assert "region_ssim_large" in metrics_seen
    assert {r.model_id for r in recs} == {"P", "P+Q"}


@pytest.mark.parametrize("p_extents,q_extents", [((32, 32), None), ((80, 80), (64, 76)),
                                                 ((64, 76), (80, 80))])
def test_pathology_rejects_extents_without_lesion_room(p_extents, q_extents):
    # a small-class lesion needs 7 * 7 <= 1% of the image: height * width >= 4900
    cfg_d = _base_config(template="pathology")
    cfg_d["distributions"] = {"P": {"name": "P", "extents": list(p_extents), "seed": 1}}
    if q_extents:
        cfg_d["distributions"]["Q"] = {"name": "Q", "extents": list(q_extents), "seed": 2}
    with pytest.raises(harness.ConfigError, match="small-class lesion"):
        harness.ExperimentConfig.from_dict(cfg_d)
    for dist in cfg_d["distributions"].values():
        dist["extents"] = [72, 72]
    assert harness.ExperimentConfig.from_dict(cfg_d).template == "pathology"


def test_coil_shift_template_normalizes(tmp_path):
    cfg_d = _base_config(template="coil_shift")
    cfg_d["distributions"]["P"]["coils"] = 6
    cfg_d["distributions"]["Q"]["coils"] = 2
    cfg = harness.ExperimentConfig.from_dict(cfg_d)
    harness.run_experiment(cfg, tmp_path)
    recs = harness.parse_records_csv((tmp_path / "records.csv").read_text())
    assert all(r.flags in ("normalized", "normalize_fallback") for r in recs)


def test_coil_shift_at_halved_center_band_matches_fresh_evaluations(tmp_path):
    # R 12 on 32 columns leaves round(32/12) = 3 columns, no more than the
    # 8% band's 3 ACS columns; both mask policies halve the band to fit
    cfg_d = _base_config(template="coil_shift", train={"epochs": 1, "seed": 0,
                                                      "acceleration": 12})
    cfg = harness.ExperimentConfig.from_dict(cfg_d)
    harness.run_experiment(cfg, tmp_path)
    tests = {"P-test": dm.train_test(cfg.distributions["P"], 4, 2)[1],
             "Q-test": dm.train_test(cfg.distributions["Q"], 4, 2)[1]}
    recs = harness.parse_records_csv((tmp_path / "records.csv").read_text())
    assert len(recs) == 3 * 2
    for r in recs:
        fresh, _, _ = learned.evaluate_checkpoint(
            _saved_checkpoint(tmp_path, r.model_id, r.epoch), tests[r.test_set], cfg.seed,
            12, cfg.train.center_fraction, normalize=True)
        assert r.value == fresh, (r.model_id, r.test_set)


def test_finetune_ablation_matrix_includes_parent(tmp_path):
    cfg_d = _base_config(template="finetune_ablation")
    cfg_d["sources"] = [{"name": "S", "extents": [32, 32], "coils": 3,
                         "snr_db": 30, "seed": 5}]
    cfg_d["distributions"] = {
        "Q1": {"name": "Q1", "extents": [32, 32], "coils": 3, "snr_db": 30, "seed": 6},
        "Q2": {"name": "Q2", "extents": [32, 32], "coils": 3, "snr_db": 30, "seed": 7,
               "contrast": {"kind": "gamma", "gamma": 2.0}},
    }
    cfg = harness.ExperimentConfig.from_dict(cfg_d)
    harness.run_experiment(cfg, tmp_path)
    recs = harness.parse_records_csv((tmp_path / "records.csv").read_text())
    models = {r.model_id for r in recs}
    assert models == {"P", "P_Q1", "P_Q2"}
    for m in models:
        assert {r.test_set for r in recs if r.model_id == m} == {"Q1-test", "Q2-test"}


def test_diversity_template_fit_and_similarity(tmp_path, monkeypatch):
    cfg_d = _base_config(template="diversity_robustness", train_count=6, test_count=3)
    cfg_d["sources"] = [
        {"name": "P1", "extents": [32, 32], "coils": 3, "snr_db": 30, "seed": 31,
         "contrast": {"kind": "gamma", "gamma": 1.35}},
        {"name": "P2", "extents": [32, 32], "coils": 3, "snr_db": 30, "seed": 32,
         "contrast": {"kind": "gamma", "gamma": 0.75}},
    ]
    cfg_d["target"] = {"name": "Q", "extents": [32, 32], "coils": 3, "snr_db": 30,
                       "seed": 33}
    cfg_d["train"] = {"epochs": 2, "seed": 0}
    cfg = harness.ExperimentConfig.from_dict(cfg_d)
    calls = []
    evaluate_params = learned.evaluate_params

    def counting(*args, **kwargs):
        calls.append(1)
        return evaluate_params(*args, **kwargs)

    monkeypatch.setattr(learned, "evaluate_params", counting)
    harness.run_experiment(cfg, tmp_path)
    monkeypatch.undo()
    # one per source specialist, then one per (model, epoch, test set)
    assert len(calls) == len(cfg.sources) + 2 * 3 * cfg.train.epochs
    fits = json.loads((tmp_path / "fits.json").read_text())
    assert "ood_vs_id" in fits
    details = json.loads((tmp_path / "details.json").read_text())
    assert len(details["similarity_means"]) == 2
    assert "union_final_effective_robustness" in details

    # every record equals a fresh evaluation of its saved checkpoint
    tests = {"ID(P_best)-test": dm.train_test(cfg.sources[details["best_source_index"]],
                                              cfg.train_count, cfg.test_count)[1],
             "Q-test": dm.train_test(cfg.target, cfg.train_count, cfg.test_count)[1]}
    records = harness.parse_records_csv((tmp_path / "records.csv").read_text())
    assert len(records) == 2 * 3 * cfg.train.epochs
    for r in records:
        ck = _saved_checkpoint(tmp_path, r.model_id, r.epoch)
        fresh, _, _ = learned.evaluate_checkpoint(ck, tests[r.test_set], cfg.seed,
                                                  cfg.train.acceleration,
                                                  cfg.train.center_fraction)
        assert r.value == fresh, (r.model_id, r.epoch, r.test_set)


def test_run_experiment_marks_failures(tmp_path):
    cfg_d = _base_config(template="diversity_robustness")  # missing sources/target
    cfg = harness.ExperimentConfig.from_dict(cfg_d)
    with pytest.raises(RuntimeError, match="diversity_robustness"):
        harness.run_experiment(cfg, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["complete"] is False
    assert manifest["failed_stage"] == "diversity_robustness"


def test_run_experiment_byte_identical_reruns(tmp_path):
    cfg_d = _base_config(template="accel_combo", accelerations=[4])
    for name in ("r1", "r2"):
        cfg = harness.ExperimentConfig.from_dict(cfg_d)
        harness.run_experiment(cfg, tmp_path / name)
    for f in ("records.csv", "fits.json", "details.json", "manifest.json"):
        assert ((tmp_path / "r1" / f).read_bytes()
                == (tmp_path / "r2" / f).read_bytes()), f
