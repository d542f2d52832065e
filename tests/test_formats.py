"""Golden bytes of the three on-disk formats: a dataset's manifest.json and
data.bin, records.csv and a checkpoint. Each input is built from literals, so
a digest moves only when what a writer emits for the same values moves."""

import hashlib

import numpy as np

from shiftmri import data as dm
from shiftmri import harness, learned


def _sha(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _golden_dataset() -> dm.Dataset:
    h, w, coils = 16, 20, 2
    ramp = np.arange(h * w, dtype=np.float64).reshape(h, w) / (h * w)
    image = ramp * (1.0 - 0.5j)
    sens = np.stack([np.full((h, w), 0.6 + 0.0j), np.full((h, w), 0.0 + 0.8j)])
    lesion = dm.LesionAnnotation(3, 4, 2, 3, 6 / (h * w), "large")
    items = [dm.Item(image, sens[:coils], "P", 30.0),
             dm.Item(image[::-1].copy(), sens[:coils], "Q", 22.5, lesion)]
    specs = {"P": {"name": "P", "coils": 2, "extents": [16, 20], "snr_db": 30.0},
             "Q": {"name": "Q", "coils": 2, "extents": [16, 20], "snr_db": 22.5}}
    return dm.Dataset("P+Q", items, specs)


def test_dataset_files_keep_their_bytes(tmp_path):
    dm.save(_golden_dataset(), tmp_path)
    assert _sha((tmp_path / "manifest.json").read_bytes()) == MANIFEST_SHA256
    assert _sha((tmp_path / "data.bin").read_bytes()) == DATA_BIN_SHA256
    loaded = dm.load(tmp_path)
    assert dm.content_hash(loaded) == dm.content_hash(_golden_dataset())


def _golden_records() -> list[harness.EvalRecord]:
    return [
        harness.EvalRecord("P_best", "P1", 1, "ID(P_best)-test", "ssim", 0.1, 0),
        harness.EvalRecord("P_best", "P1", 1, "Q-test", "ssim", 1 / 3, 0, "normalized"),
        harness.EvalRecord("P+Q", "P+Q", 12, "Q-lesion-test", "region_ssim_small",
                           -2.5e-17, 11, "normalize_fallback"),
    ]


def test_records_csv_keeps_its_bytes():
    text = harness.records_to_csv(_golden_records())
    assert _sha(text.encode()) == RECORDS_CSV_SHA256
    assert harness.parse_records_csv(text) == _golden_records()


def _golden_checkpoint() -> learned.Checkpoint:
    return learned.Checkpoint(
        learned.ModelConfig(channels=2, pool_levels=1, seed=7),
        np.append(np.arange(6, dtype=np.float64) / 7, -0.5),
        3, "ab" * 32, {"bit_generator": "PCG64", "state": {"state": 5, "inc": 9}},
        (16, 20), ["parent.ckpt"])


def test_checkpoint_keeps_its_bytes():
    assert _sha(_golden_checkpoint().to_bytes()) == CHECKPOINT_SHA256


# digests of the bytes these writers emitted when the formats were frozen
MANIFEST_SHA256 = "f29b47dd8e6d4e6f72378ee5414fdeb6712f11dc89f0e8305a3e2591b399123b"
DATA_BIN_SHA256 = "87810a552d84a8708134d131588a4016a23f15b2d7c6f9376328360d70509a4e"
RECORDS_CSV_SHA256 = "314bb0b5c5a49323bd78062a7e1e857a5583441deb356b50885ff22f8b3c2a78"
CHECKPOINT_SHA256 = "edd59c6845cb9d2d7b78dbf1d4e18249ab3fe6b193e38fe304e29c8355d1f33c"
