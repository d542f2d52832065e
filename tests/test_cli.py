import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from shiftmri import cli, harness
from shiftmri import data as dm
from shiftmri import learned, metrics


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
    model = dm.from_fields(learned.ModelConfig, {"kind": "unet_lite", "channels": 4,
                                                 "pool_levels": 2, "seed": 0})
    cks, _ = learned.train(model, dm.load(data_dir),
                           dm.from_fields(learned.TrainConfig, {"epochs": 0}))
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


@pytest.mark.parametrize("command", ["train", "eval"])
def test_model_that_cannot_run_at_dataset_extents_exits_2_before_writing(tmp_path, capsys,
                                                                        command):
    data_dir = gen_dataset(tmp_path, count=1, extents=[20, 20])
    model = {"kind": "unet_lite", "channels": 2, "pool_levels": 3, "seed": 0}
    if command == "train":
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"dataset": str(data_dir), "model": model,
                                      "train": {"epochs": 1}}))
        argv = ["train", "--config", str(config)]
    else:
        config = dm.from_fields(learned.ModelConfig, model)
        learned.Checkpoint(config, learned.construct_model(config).init_params(), 0, "", {},
                           (32, 32)).save(tmp_path / "init.ckpt")
        argv = ["eval", "--checkpoint", str(tmp_path / "init.ckpt"), "--dataset", str(data_dir)]
    capsys.readouterr()
    assert cli.main(["--out", str(tmp_path / "o"), *argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: unet_lite cannot run on dataset 'cli-test': "
                   "extents (20, 20) not divisible by 2^3"]
    assert not (tmp_path / "o").exists()


def save_items(tmp_path, extents):
    """A well-formed dataset file named 'odd', one random 1-coil item per (h, w) in
    `extents`, at extents no DistributionSpec allows."""
    rng = np.random.default_rng(0)
    items = [dm.Item(rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w)),
                     np.ones((1, h, w), complex), "odd", 30.0) for h, w in extents]
    dm.save(dm.Dataset("odd", items), tmp_path / "odd")
    return tmp_path / "odd"


# (command, item extents, the one error line); each used to fail with exit 3 only
# once training, a solve or feature extraction had begun
UNRUNNABLE = {
    "train-mixed": ("train", [(32, 32), (32, 48)],
                    "train needs one item extent; dataset 'odd' has [(32, 32), (32, 48)]"),
    "train-ssim": ("train", [(4, 4)], "unet_lite cannot run on dataset 'odd': "
                   "image extents (4, 4) smaller than SSIM window 7"),
    "eval-ssim": ("eval", [(4, 4)], "unet_lite cannot run on dataset 'odd': "
                  "image extents (4, 4) smaller than SSIM window 7"),
    "tune-lambda-ssim": ("tune-lambda", [(4, 4)], "tune-lambda cannot run on dataset 'odd': "
                         "image extents (4, 4) smaller than SSIM window 7"),
    "tune-lambda-levels-6": ("tune-lambda", [(6, 6)], "tune-lambda cannot run on dataset "
                             "'odd': extents (6, 6) not divisible by 2^2"),
    "tune-lambda-levels-18": ("tune-lambda", [(32, 32), (18, 18)], "tune-lambda cannot run "
                              "on dataset 'odd': extents (18, 18) not divisible by 2^2"),
    "similarity-patch": ("similarity", [(8, 8)], "similarity cannot run on dataset 'odd': "
                         "patch_size 12 exceeds extents (8, 8)"),
}


@pytest.mark.parametrize("command, extents, error", UNRUNNABLE.values(), ids=UNRUNNABLE)
def test_dataset_extents_a_command_cannot_run_at_exit_2_before_work(tmp_path, capsys,
                                                                    monkeypatch, command,
                                                                    extents, error):
    data_dir = save_items(tmp_path, extents)
    if command == "train":
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"dataset": str(data_dir), "model": {"channels": 2}}))
        argv = ["train", "--config", str(config)]
    elif command == "eval":
        model = learned.ModelConfig(channels=2)
        learned.Checkpoint(model, learned.construct_model(model).init_params(), 0, "", {},
                           (32, 32)).save(tmp_path / "init.ckpt")
        argv = ["eval", "--checkpoint", str(tmp_path / "init.ckpt"), "--dataset", str(data_dir)]
    elif command == "tune-lambda":
        argv = ["tune-lambda", "--dataset", str(data_dir), "--grid", "1e-3"]
    else:
        argv = ["similarity", "--train-dataset", str(data_dir), "--test-dataset", str(data_dir)]
    for module, name in ((learned, "train"), (learned, "evaluate_checkpoint"),
                         (cli, "tune_lambda"), (metrics, "extract_features")):
        monkeypatch.setattr(module, name, None)  # any training, solve or extraction would raise
    capsys.readouterr()
    assert cli.main(["--out", str(tmp_path / "o"), *argv]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {error}"]
    assert not (tmp_path / "o").exists()


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


def test_similarity_on_a_blank_item_exits_2_naming_the_dataset(tmp_path, capsys):
    # every patch of an all-zero image lies below extract_features' noise floor
    train_dir = gen_dataset(tmp_path, count=2)
    blank = dm.Item(np.zeros((16, 16), complex), np.ones((1, 16, 16), complex), "blank", 30.0)
    dm.save(dm.Dataset("blank", [blank]), tmp_path / "blank")
    capsys.readouterr()
    rc = cli.main(["--out", str(tmp_path / "o"), "similarity", "--train-dataset", str(train_dir),
                   "--test-dataset", str(tmp_path / "blank")])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: similarity cannot run on dataset 'blank': "
        "all patches discarded for item 0 (below noise floor)"]
    assert not (tmp_path / "o").exists()


def test_toy_subspace_json(tmp_path, capsys):
    rc = cli.main(["--seed", "0", "toy-subspace", "--n", "32", "--d", "3",
                   "--sigma-p", "0.05", "--sigma-q", "0.5", "--samples", "2000"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["mse"]) == {"P", "Q"}
    for which in ("P", "Q"):
        keys = set(payload["mse"][which])
        assert {"specialist_linear", "pooled_linear", "adaptive_nonlinear"} <= keys


@pytest.mark.parametrize("bad", [["--samples", "0"], ["--samples", "1"], ["--n", "4", "--d", "4"],
                                 ["--sigma-p", "-1"], ["--sigma-p", "nan"]])
def test_toy_subspace_bad_arguments_are_validation_errors(tmp_path, capsys, bad):
    rc = cli.main(["--out", str(tmp_path / "o"), "toy-subspace", "--samples", "100", *bad])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == "" and not (tmp_path / "o").exists()


RECORDS = [
    "model_id,sources,epoch,test_set,metric,value,mask_seed,flags",
    "base,A,1,id,ssim,0.1,0,",
    "base,A,1,ood,ssim,0.2,0,",
    "base,A,2,id,ssim,0.3,0,",
    "base,A,2,ood,ssim,0.3,0,",
    "cand,B,1,id,ssim,0.2,0,",
    "cand,B,1,ood,ssim,0.5,0,",
]


def _robustness_report(rec_path):
    return cli.main(["robustness-report", "--records", str(rec_path),
                     "--baseline-model", "base", "--candidate-model", "cand",
                     "--id-set", "id", "--ood-set", "ood"])


def test_robustness_report_from_records(tmp_path, capsys):
    rec_path = tmp_path / "records.csv"
    rec_path.write_text("\n".join(RECORDS) + "\n")
    rc = _robustness_report(rec_path)
    assert rc == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["slope"] == pytest.approx(0.5)
    assert fit["residuals"][0] == pytest.approx(0.5 - (0.5 * 0.2 + 0.15))


@pytest.mark.parametrize("damage", ["missing", "not-utf8", "short-row", "header", "value",
                                    "nan", "-inf", "one-baseline-pair", "flat-baseline"])
def test_bad_records_file_is_validation_error(tmp_path, capsys, damage):
    rec_path = tmp_path / "records.csv"
    lines = list(RECORDS)
    if damage == "not-utf8":
        lines[3] = "base,A,2,id,ssim,0.3,0,\udcff"
    elif damage == "short-row":
        lines[3] = "base,A,2"
    elif damage == "header":
        lines[0] = lines[0].replace("mask_seed", "seed")
    elif damage in ("value", "nan", "-inf"):
        lines[3] = lines[3].replace("0.3", {"value": "high"}.get(damage, damage))
    elif damage == "one-baseline-pair":
        del lines[3:5]
    elif damage == "flat-baseline":  # every baseline id value equal: no line to fit
        lines[3] = lines[3].replace("0.3", "0.1")
    if damage != "missing":
        rec_path.write_bytes(("\n".join(lines) + "\n").encode(errors="surrogateescape"))
    rc = _robustness_report(rec_path)
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == ""


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


def test_run_runtime_failure_exit(tmp_path, capsys, monkeypatch):
    # a valid config whose training fails once the template runs
    config = {
        "template": "accel_combo", "seed": 0, "train_count": 2, "test_count": 1,
        "model": {"kind": "unet_lite", "channels": 4, "pool_levels": 2, "seed": 0},
        "train": {"epochs": 1, "seed": 0},
        "distributions": {"P": {"name": "P", "extents": [32, 32], "coils": 2, "seed": 1}},
    }

    def diverge(*args, **kwargs):
        raise FloatingPointError("non-finite loss at epoch 0 step 1")

    monkeypatch.setattr(learned, "train", diverge)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    capsys.readouterr()
    rc = cli.main(["--out", str(tmp_path / "o"), "run", "--config", str(cfg_path)])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime failure: ") and "non-finite" in err[0]
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["complete"] is False
    assert manifest["failed_stage"] == "accel_combo"


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
        item = manifest["items"][0]
        if damage == "key":
            del item["height"]
        elif damage == "unknown-key":
            item["depth"] = 2
        elif damage == "unknown-top-key":
            manifest["complete"] = True
        elif damage == "count":
            manifest["count"] = 7
        elif damage == "indices":
            for item, index in zip(manifest["items"], (5, 1)):
                item["index"] = index
        elif damage == "coils":
            item["coils"] += 1
        elif damage == "spec":
            item["spec"] = 5
        else:
            item["snr_db"] = {"snr-text": "abc", "snr-nan": float("nan"), "snr-null": None,
                              "snr-minus-inf": float("-inf"), "snr-bool": True}[damage]
        path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("damage", ["json", "blob", "key", "unknown-key", "unknown-top-key",
                                    "count", "indices", "coils", "spec", "snr-text",
                                    "snr-nan", "snr-null", "snr-minus-inf", "snr-bool"])
def test_damaged_dataset_manifest_is_validation_error(tmp_path, capsys, damage):
    data_dir = gen_dataset(tmp_path)
    _damage_manifest(data_dir, damage)
    capsys.readouterr()
    rc = cli.main(["tune-lambda", "--dataset", str(data_dir), "--grid", "1e-3"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _dataset_command(command, tmp_path, data_dir):
    if command == "similarity":
        return ["similarity", "--train-dataset", str(data_dir), "--test-dataset", str(data_dir)]
    if command == "tune-lambda":
        return ["tune-lambda", "--dataset", str(data_dir), "--grid", "1e-3"]
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"dataset": str(data_dir), "train": {"epochs": 1}}))
    return ["--out", str(tmp_path / "o"), "train", "--config", str(cfg_path)]


@pytest.mark.parametrize("field, value", [("name", 5), ("specs", "x"), ("specs", {"P": 1})])
@pytest.mark.parametrize("command", ["similarity", "tune-lambda", "train"])
def test_mistyped_manifest_name_or_specs_is_validation_error(tmp_path, capsys, command,
                                                             field, value):
    data_dir = gen_dataset(tmp_path)
    path = data_dir / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
    capsys.readouterr()
    assert cli.main(_dataset_command(command, tmp_path, data_dir)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]
    assert not (tmp_path / "o").exists()


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


def test_missing_checkpoint_is_validation_error(tmp_path, capsys):
    data_dir = gen_dataset(tmp_path)
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"), "--dataset", str(data_dir)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: no checkpoint at ")


@pytest.mark.parametrize("command", ["run", "eval", "similarity"])
def test_unreadable_path_is_validation_error(tmp_path, capsys, command):
    data_dir = gen_dataset(tmp_path)
    if command == "run":
        argv = ["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")]
    elif command == "eval":
        argv = ["eval", "--checkpoint", str(tmp_path), "--dataset", str(data_dir)]
    else:
        (data_dir / "manifest.json").unlink()
        (data_dir / "manifest.json").mkdir()
        argv = _dataset_command(command, tmp_path, data_dir)
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "Is a directory" in err[0]
    assert not (tmp_path / "o").exists()


def test_train_dataset_not_a_path_is_validation_error(tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"dataset": 5, "train": {"epochs": 1}}))
    rc = cli.main(["--out", str(tmp_path / "o"), "train", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "o").exists()


def _with_header(raw: bytes, **changes) -> bytes:
    """Checkpoint bytes with header fields replaced, the header written as
    Checkpoint.to_bytes writes it."""
    hlen = int.from_bytes(raw[8:16], "little")
    header = {**json.loads(raw[16 : 16 + hlen]), **changes}
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:8] + len(hjson).to_bytes(8, "little") + hjson + raw[16 + hlen :]


@pytest.mark.parametrize("name, value, named", [
    ("epoch", 2.5, "Checkpoint.epoch"), ("epoch", True, "Checkpoint.epoch"),
    ("fingerprint", 7, "Checkpoint.fingerprint"),
    ("train_extents", ["a", None], "Checkpoint.train_extents[0]"),
    ("train_extents", [32], "Checkpoint.train_extents"),
    ("provenance", "xy", "Checkpoint.provenance"), ("provenance", [3], "Checkpoint.provenance[0]"),
    ("rng_state", [0], "Checkpoint.rng_state"),
    ("model", {"kind": "unet_lite", "channels": 4.0}, "ModelConfig.channels"),
    ("spare", 1, "spare"), ("config", {"kind": "unet_lite"}, "unexpected key"),
    ("params", [], "unexpected key"),
])
def test_mistyped_checkpoint_header_is_validation_error(tmp_path, capsys, name, value, named):
    data_dir = gen_dataset(tmp_path)
    path = _init_checkpoint(tmp_path, data_dir)
    raw = path.read_bytes()
    assert _with_header(raw) == raw
    path.write_bytes(_with_header(raw, **{name: value}))
    with pytest.raises(learned.CheckpointFormatError, match=re.escape(named)):
        learned.Checkpoint.load(path)
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(path), "--dataset", str(data_dir)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: undecodable checkpoint header: ")


def test_checkpoint_with_nan_parameter_is_validation_error(tmp_path, capsys):
    data_dir = gen_dataset(tmp_path)
    path = _init_checkpoint(tmp_path, data_dir)
    raw = bytearray(path.read_bytes())
    raw[-8:] = b"\0\0\0\0\0\0\xf8\x7f"  # last parameter value becomes a NaN
    path.write_bytes(bytes(raw))
    out = tmp_path / "eval"
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(path), "--dataset", str(data_dir),
                   "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "non-finite" in err[0]
    assert "nan" not in captured.out and not (out / "eval.csv").exists()


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


def _spec(name, width=32):
    return {"name": name, "extents": [32, width], "coils": 1, "seed": 1}


# one config per template, each lacking an input the template reads
MISSING_INPUT = {
    "joint_vs_separate": ({"distributions": {"P": _spec("P")}}, "distribution 'Q'"),
    "skewed": ({"distributions": {"Q": _spec("Q")}}, "distribution 'P'"),
    "coil_shift": ({"distributions": {"P": _spec("P")}}, "distribution 'Q'"),
    "overfit_monitor": ({"train": {"epochs": 4}}, "distribution 'P'"),
    "pathology": ({"distributions": {"Q": _spec("Q")}}, "distribution 'P'"),
    "accel_combo": ({}, "distribution 'P'"),
    "diversity_robustness": ({"sources": [_spec("S")]}, "target"),
    "diversity_robustness-no-sources": ({"target": _spec("Q")}, "sources"),
    "finetune_ablation": ({"sources": [_spec("S")]}, "distributions"),
    "finetune_ablation-no-sources": ({"distributions": {"Q1": _spec("Q1")}}, "sources"),
}


def _run_cli(tmp_path, capsys, config):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    capsys.readouterr()
    rc = cli.main(["--out", str(tmp_path / "o"), "run", "--config", str(cfg_path)])
    return rc, capsys.readouterr().err.strip().splitlines()


@pytest.mark.parametrize("case", MISSING_INPUT)
def test_run_missing_template_input_exits_2_before_data(tmp_path, capsys, monkeypatch, case):
    extra, needed = MISSING_INPUT[case]
    monkeypatch.setattr(dm, "generate", None)  # any data generation would raise
    rc, err = _run_cli(tmp_path, capsys, {"template": case.split("-")[0], "seed": 0, **extra})
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ExperimentConfig.") and needed in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", [5, ["o"], True])
def test_run_non_string_config_out_exits_2_naming_it(tmp_path, capsys, monkeypatch, out):
    # `--out` is the one output directory: a config key `out` is unknown, whatever its value
    monkeypatch.setattr(dm, "generate", None)  # any data generation would raise
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"template": "accel_combo", "seed": 0,
                                    "distributions": {"P": _spec("P")}, "out": out}))
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "argument 'out'" in err[0]
    assert not (tmp_path / "o").exists()


# accel_combo with no training epoch: the smallest complete report
TINY_RUN = {"template": "accel_combo", "train_count": 1, "test_count": 1,
            "model": {"channels": 2}, "train": {"epochs": 0},
            "distributions": {"P": {"name": "P", "coils": 1, "extents": [16, 16]}}}


def _config_sha256(outdir):
    return json.loads((outdir / "manifest.json").read_text())["config_sha256"]


def test_manifest_hashes_the_config_as_any_copy_of_it_does(tmp_path):
    config = {**TINY_RUN, "seed": 2}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    cfg = harness.ExperimentConfig.from_dict(config)
    for copy in (cfg, replace(cfg)):
        assert _config_sha256(tmp_path / "o") == hashlib.sha256(
            copy.canonical_json().encode()).hexdigest()


def test_run_seed_flag_stands_in_for_a_config_without_seed(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(TINY_RUN))
    assert cli.main(["run", "--config", str(cfg_path), "--seed", "5",
                     "--out", str(tmp_path / "o")]) == 0
    cfg = harness.ExperimentConfig.from_dict({**TINY_RUN, "seed": 5})
    assert _config_sha256(tmp_path / "o") == hashlib.sha256(
        cfg.canonical_json().encode()).hexdigest()


def test_run_pathology_without_q_still_runs(tmp_path, capsys):
    # Q defaults to P, so P is pathology's only required distribution
    config = {"template": "pathology", "seed": 0, "train_count": 1, "test_count": 2,
              "model": {"channels": 2, "seed": 0}, "train": {"epochs": 0},
              "distributions": {"P": {"name": "P", "extents": [72, 72], "coils": 1}}}
    rc, err = _run_cli(tmp_path, capsys, config)
    assert rc == 0 and err == []
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["complete"]


# R 32 on 16 columns leaves round(16/32) = 1 line beside an emptied center band;
# R 33 leaves none, whatever the band. An acceleration below 1 is out of
# TrainConfig.acceleration's own bounds, so it is refused before the mask rule.
MASK_RULE = "error: acceleration "


@pytest.mark.parametrize("template, extra, says", [
    ("accel_combo", {"accelerations": [4, 33]}, MASK_RULE),
    ("accel_combo", {"accelerations": [4], "unseen_acceleration": 33}, MASK_RULE),
    ("skewed", {"train": {"acceleration": 33}}, MASK_RULE),
    ("coil_shift", {"train": {"accelerations": [4, 33]}}, MASK_RULE),
    ("diversity_robustness", {"train": {"acceleration": 33}}, MASK_RULE),
    ("finetune_ablation", {"train": {"acceleration": 0.5}},
     "error: TrainConfig.acceleration must be in [1, inf), got 0.5"),
], ids=["trained", "unseen", "train-acceleration", "train-accelerations", "sources",
        "below-1"])
def test_run_infeasible_acceleration_exits_2_before_data(tmp_path, capsys, monkeypatch,
                                                        template, extra, says):
    config = {"template": template, "seed": 0,
              "distributions": {"P": _spec("P", 16), "Q": _spec("Q", 16)},
              "sources": [_spec("S", 16)], "target": _spec("T", 16), **extra}
    monkeypatch.setattr(dm, "generate", None)  # any data generation would raise
    rc, err = _run_cli(tmp_path, capsys, config)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith(says)
    assert not (tmp_path / "o").exists()


def test_acceleration_check_matches_the_mask_rule():
    spec = dm.DistributionSpec("P", extents=(32, 16))
    ok = harness.ExperimentConfig("accel_combo", 0, distributions={"P": spec},
                                  accelerations=[32.0])
    assert ok.accelerations == [32.0]
    with pytest.raises(harness.ConfigError, match="16 columns"):
        harness.ExperimentConfig("accel_combo", 0, distributions={"P": spec},
                                 accelerations=[33.0])


@pytest.mark.parametrize("grid", ["nan", "inf", "-1", "1e-3,-inf", "1e-3,0.001", "0,1e-2,0.0"])
def test_tune_lambda_grid_domain_is_validation_error(tmp_path, capsys, grid):
    data_dir = gen_dataset(tmp_path, extents=[16, 16])
    capsys.readouterr()
    rc = cli.main(["--out", str(tmp_path / "o"), "tune-lambda", "--dataset", str(data_dir),
                   "--grid", grid])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: --grid")
    assert captured.out == "" and not (tmp_path / "o").exists()


BAD_CONTRASTS = [
    {"kind": "foo"},
    "gamma",
    {"kind": "gamma", "gama": 2.0},
    {"kind": "gamma", "gamma": -1.0},
    {"kind": "piecewise", "xs": [0, 1]},
    {"kind": "piecewise", "xs": [0, 0.5, 1], "ys": [0, 0.8, 0.5]},
]


@pytest.mark.parametrize("contrast", BAD_CONTRASTS)
def test_gen_data_bad_contrast_is_validation_error(tmp_path, capsys, contrast):
    spec_path = write_spec(tmp_path, contrast=contrast)
    rc = cli.main(["--out", str(tmp_path / "o"), "gen-data", "--spec", str(spec_path),
                   "--count", "1"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad spec")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("contrast", BAD_CONTRASTS)
def test_run_bad_contrast_exits_before_data(tmp_path, capsys, contrast):
    config = {
        "template": "joint_vs_separate", "seed": 0, "train_count": 2, "test_count": 1,
        "model": {"kind": "unet_lite", "channels": 4, "pool_levels": 2, "seed": 0},
        "train": {"epochs": 1, "seed": 0},
        "distributions": {
            "P": {"name": "P", "extents": [32, 32], "coils": 2, "seed": 1},
            "Q": {"name": "Q", "extents": [32, 32], "coils": 2, "seed": 2,
                  "contrast": contrast}},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli.main(["--out", str(tmp_path / "o"), "run", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "contrast" in err[0]
    assert not (tmp_path / "o").exists()


# training follows one fixed recipe (Adam on a 1 - SSIM loss, one item per step
# and learned's other recipe constants), so a train key naming one of its former
# settings is unknown, whatever its value
UNUSABLE = [("batch_size", 1), ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0),
            ("beta2", float("nan")), ("lr_max", float("nan")), ("lr_max", float("inf")),
            ("lr_min", float("nan")), ("warmup_fraction", 0.01), ("clip_norm", float("nan")),
            ("clip_norm", float("inf")), ("optimizer", "sgd"), ("momentum", 0.9), ("loss", "mse")]


@pytest.mark.parametrize("name, value", UNUSABLE, ids=[f"{n}-{v!r}" for n, v in UNUSABLE])
@pytest.mark.parametrize("command", ["train", "run"])
def test_unusable_optimizer_setting_exits_2_before_data(tmp_path, capsys, monkeypatch,
                                                        command, name, value):
    monkeypatch.setattr(dm, "generate", None)  # any data generation would raise
    monkeypatch.setattr(dm, "load", None)  # and so would any dataset read
    train = {"epochs": 1, name: value}
    if command == "train":
        config = {"dataset": str(tmp_path / "ds"), "train": train}
    else:
        config = {"template": "accel_combo", "seed": 0, "train": train,
                  "distributions": {"P": {"name": "P", "extents": [32, 32], "coils": 1}}}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))  # NaN and Infinity as Python's json writes them
    capsys.readouterr()
    rc = cli.main(["--out", str(tmp_path / "o"), command, "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"argument '{name}'" in err[0]
    assert not (tmp_path / "o").exists()


def _out_command(command, tmp_path):
    if command == "gen-data":
        return ["gen-data", "--spec", str(write_spec(tmp_path)), "--count", "1"]
    if command == "train":
        config = {"dataset": str(gen_dataset(tmp_path, count=1)), "train": {"epochs": 0},
                  "model": {"channels": 2, "pool_levels": 1}}
    else:
        config = {"template": "accel_combo", "seed": 0, "train_count": 1, "test_count": 1,
                  "model": {"channels": 2, "pool_levels": 1}, "train": {"epochs": 0},
                  "distributions": {"P": {"name": "P", "extents": [32, 32], "coils": 1}}}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    return [command, "--config", str(cfg_path)]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["gen-data", "train", "run"])
def test_out_that_cannot_be_a_directory_is_validation_error(tmp_path, capsys, command, below):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    out = blocker / "sub" if below else blocker
    argv = _out_command(command, tmp_path)
    capsys.readouterr()
    assert cli.main(["--out", str(out), *argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot make output directory {out}: ")
    assert blocker.read_text() == "not a directory"
