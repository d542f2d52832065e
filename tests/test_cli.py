import json

import pytest

from shiftmri import cli
from shiftmri import data as dm
from shiftmri import learned


def write_spec(tmp_path, **kw):
    spec = {"name": "cli-test", "extents": [32, 32], "coils": 2, "snr_db": 30,
            "seed": 4}
    spec.update(kw)
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return p


def gen_dataset(tmp_path, count=2, **kw):
    spec_path = write_spec(tmp_path, **kw)
    out = tmp_path / "data"
    rc = cli.main(["--out", str(out), "gen-data", "--spec", str(spec_path),
                   "--count", str(count)])
    assert rc == 0
    return out


def _init_checkpoint(tmp_path, data_dir):
    model = learned.ModelConfig.from_dict({"kind": "unet_lite", "channels": 4,
                                           "pool_levels": 2, "seed": 0})
    cks, _ = learned.train(model, dm.load(data_dir), learned.TrainConfig.from_dict({"epochs": 0}))
    path = tmp_path / "init.ckpt"
    cks[0].save(path)
    return path


def test_gen_data_roundtrip(tmp_path):
    out = gen_dataset(tmp_path, count=3)
    ds = dm.load(out)
    assert len(ds.items) == 3
    assert ds.items[0].image.shape == (32, 32)


def test_gen_data_missing_spec_is_validation_error(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path / "o"), "gen-data",
                   "--spec", str(tmp_path / "nope.json"), "--count", "1"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_train_and_eval_roundtrip(tmp_path, capsys):
    data_dir = gen_dataset(tmp_path, count=3)
    config = {"dataset": str(data_dir),
              "model": {"kind": "unet_lite", "channels": 4, "pool_levels": 2, "seed": 0},
              "train": {"epochs": 1, "seed": 0}}
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(config))
    ckpt_dir = tmp_path / "ckpts"
    assert cli.main(["--out", str(ckpt_dir), "train", "--config", str(cfg_path)]) == 0
    ckpts = sorted(ckpt_dir.glob("*.ckpt"))
    assert len(ckpts) == 2  # init + 1 epoch
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(ckpts[-1]), "--dataset", str(data_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "model_id,checkpoint_epoch,test_set,metric,value"
    assert lines[1].startswith("unet_lite,1,")


def test_tune_lambda_csv(tmp_path, capsys):
    data_dir = gen_dataset(tmp_path, count=2)
    capsys.readouterr()
    rc = cli.main(["tune-lambda", "--dataset", str(data_dir),
                   "--grid", "1e-3,1e-2"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "lambda,mean_ssim,n_items"
    assert len(lines) == 3
    for line in lines[1:]:
        lam, ssim_val, n = line.split(",")
        float(lam), float(ssim_val)
        assert n == "2"
    assert "best lambda" in captured.err


def test_tune_lambda_bad_grid(tmp_path):
    data_dir = gen_dataset(tmp_path)
    assert cli.main(["tune-lambda", "--dataset", str(data_dir), "--grid", "a,b"]) == 2


@pytest.mark.parametrize("command", ["eval", "tune-lambda"])
@pytest.mark.parametrize("acceleration", ["0.5", "40", "nan"])
def test_acceleration_domain_is_validation_error(tmp_path, capsys, command, acceleration):
    data_dir = gen_dataset(tmp_path, extents=[16, 16])
    if command == "eval":
        args = ["eval", "--checkpoint", str(_init_checkpoint(tmp_path, data_dir))]
    else:
        args = ["tune-lambda", "--grid", "1e-3"]
    capsys.readouterr()
    rc = cli.main(args + ["--dataset", str(data_dir), "--acceleration", acceleration])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_similarity_report_json(tmp_path, capsys):
    train_dir = gen_dataset(tmp_path, count=3)
    test_dir = tmp_path / "test-set"
    spec = dm.DistributionSpec("other", extents=(32, 32), coils=2, snr_db=30, seed=9)
    dm.save(dm.generate(spec, 2), test_dir)
    capsys.readouterr()
    rc = cli.main(["similarity", "--train-dataset", str(train_dir),
                   "--test-dataset", str(test_dir)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"similarities", "bin_edges", "counts", "mean"}
    assert len(report["counts"]) == 20
    assert len(report["similarities"]) == 2


def test_toy_subspace_json(tmp_path, capsys):
    rc = cli.main(["--seed", "0", "toy-subspace", "--n", "32", "--d", "3",
                   "--sigma-p", "0.05", "--sigma-q", "0.5", "--samples", "2000"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["mse"]) == {"P", "Q"}
    for which in ("P", "Q"):
        keys = set(payload["mse"][which])
        assert {"specialist_linear", "pooled_linear", "adaptive_nonlinear"} <= keys


def test_robustness_report_from_records(tmp_path, capsys):
    records = "\n".join([
        "model_id,sources,epoch,test_set,metric,value,mask_seed,flags",
        "base,A,1,id,ssim,0.1,0,",
        "base,A,1,ood,ssim,0.2,0,",
        "base,A,2,id,ssim,0.3,0,",
        "base,A,2,ood,ssim,0.3,0,",
        "cand,B,1,id,ssim,0.2,0,",
        "cand,B,1,ood,ssim,0.5,0,",
    ]) + "\n"
    rec_path = tmp_path / "records.csv"
    rec_path.write_text(records)
    rc = cli.main(["robustness-report", "--records", str(rec_path),
                   "--baseline-model", "base", "--candidate-model", "cand",
                   "--id-set", "id", "--ood-set", "ood"])
    assert rc == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["slope"] == pytest.approx(0.5)
    assert fit["residuals"][0] == pytest.approx(0.5 - (0.5 * 0.2 + 0.15))


def test_run_template_and_determinism(tmp_path):
    config = {
        "template": "accel_combo", "seed": 0, "train_count": 4, "test_count": 2,
        "accelerations": [4],
        "model": {"kind": "unet_lite", "channels": 4, "pool_levels": 2, "seed": 0},
        "train": {"epochs": 1, "seed": 0},
        "distributions": {"P": {"name": "P", "extents": [32, 32], "coils": 2,
                                "snr_db": 30, "seed": 1}},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["--out", str(tmp_path / "r1"), "run", "--config", str(cfg_path)]) == 0
    assert cli.main(["--out", str(tmp_path / "r2"), "run", "--config", str(cfg_path)]) == 0
    for name in ("records.csv", "fits.json", "details.json", "manifest.json"):
        assert ((tmp_path / "r1" / name).read_bytes()
                == (tmp_path / "r2" / name).read_bytes())


def test_run_bad_template_validation_exit(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"template": "nope", "seed": 0}))
    rc = cli.main(["--out", str(tmp_path / "o"), "run", "--config", str(cfg_path)])
    assert rc == 2


def test_run_runtime_failure_exit(tmp_path):
    # valid config shape, but the template preconditions fail at runtime
    config = {
        "template": "diversity_robustness", "seed": 0,
        "model": {"kind": "unet_lite", "seed": 0},
        "train": {"epochs": 1, "seed": 0},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli.main(["--out", str(tmp_path / "o"), "run", "--config", str(cfg_path)])
    assert rc == 3


def test_corrupt_dataset_is_validation_error(tmp_path):
    data_dir = gen_dataset(tmp_path)
    blob = bytearray((data_dir / "data.bin").read_bytes())
    blob[10] ^= 0x1
    (data_dir / "data.bin").write_bytes(bytes(blob))
    rc = cli.main(["tune-lambda", "--dataset", str(data_dir), "--grid", "1e-3"])
    assert rc == 2


def _damage_manifest(data_dir, damage):
    path = data_dir / "manifest.json"
    if damage == "json":
        path.write_text(path.read_text()[:-40])
    elif damage == "blob":
        (data_dir / "data.bin").unlink()
    else:
        manifest = json.loads(path.read_text())
        if damage == "key":
            del manifest["items"][0]["height"]
        else:
            manifest["items"][0]["coils"] += 1
        path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("damage", ["json", "blob", "key", "coils"])
def test_damaged_dataset_manifest_is_validation_error(tmp_path, capsys, damage):
    data_dir = gen_dataset(tmp_path)
    _damage_manifest(data_dir, damage)
    capsys.readouterr()
    rc = cli.main(["tune-lambda", "--dataset", str(data_dir), "--grid", "1e-3"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("damage", ["append", "cut-header", "cut-payload"])
def test_malformed_checkpoint_is_validation_error(tmp_path, capsys, damage):
    data_dir = gen_dataset(tmp_path)
    path = _init_checkpoint(tmp_path, data_dir)
    raw = path.read_bytes()
    path.write_bytes({"append": raw + b"\0" * 8, "cut-header": raw[:30],
                      "cut-payload": raw[:-8]}[damage])
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(path), "--dataset", str(data_dir)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command", ["eval", "tune-lambda"])
def test_acceleration_needing_halved_center_band_succeeds(tmp_path, capsys, command):
    # R 12 on 32 columns: the 8% band fills the whole budget until halved
    data_dir = gen_dataset(tmp_path)
    if command == "eval":
        args = ["eval", "--checkpoint", str(_init_checkpoint(tmp_path, data_dir))]
    else:
        args = ["tune-lambda", "--grid", "1e-3"]
    assert cli.main(args + ["--dataset", str(data_dir), "--acceleration", "12"]) == 0


def test_run_short_overfit_monitor_exits_before_training(tmp_path, capsys):
    config = {
        "template": "overfit_monitor", "seed": 0, "overfit_window": 3,
        "train_count": 2, "test_count": 1,
        "model": {"kind": "unet_lite", "channels": 4, "pool_levels": 2, "seed": 0},
        "train": {"epochs": 3, "seed": 0},
        "distributions": {
            "P": {"name": "P", "extents": [32, 32], "coils": 2, "snr_db": 30, "seed": 1},
            "Q": {"name": "Q", "extents": [32, 32], "coils": 2, "snr_db": 30, "seed": 2}},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli.main(["--out", str(tmp_path / "o"), "run", "--config", str(cfg_path)])
    assert rc == 2
    assert "overfit_window" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_pathology_too_small_for_lesions_exits_before_data(tmp_path, capsys):
    config = {
        "template": "pathology", "seed": 0, "train_count": 2, "test_count": 2,
        "model": {"kind": "unet_lite", "channels": 4, "pool_levels": 2, "seed": 0},
        "train": {"epochs": 1, "seed": 0},
        "distributions": {"P": {"name": "P", "extents": [32, 32], "coils": 2, "seed": 1}},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli.main(["--out", str(tmp_path / "o"), "run", "--config", str(cfg_path)])
    assert rc == 2
    assert "small-class lesion" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
