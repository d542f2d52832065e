import hashlib

import numpy as np
import pytest

from shiftmri import data as dm
from shiftmri import kspace, metrics


def spec(seed=0, **kw):
    defaults = dict(name="t", extents=(32, 32), coils=4, snr_db=30.0, seed=seed)
    defaults.update(kw)
    return dm.DistributionSpec(**defaults)


def test_generate_deterministic():
    a = dm.generate(spec(3), 4)
    b = dm.generate(spec(3), 4)
    assert dm.content_hash(a) == dm.content_hash(b)


def test_generate_count_and_item_shape():
    ds = dm.generate(spec(1, coils=3), 5)
    assert len(ds.items) == 5
    for item in ds.items:
        assert item.image.shape == (32, 32)
        assert item.sens.shape == (3, 32, 32)
        assert item.spec_name == "t"
        np.testing.assert_allclose(np.sum(np.abs(item.sens) ** 2, axis=0), 1.0,
                                   atol=1e-9)


@pytest.mark.parametrize("family", dm.SHAPE_FAMILIES)
def test_generate_families_nonnegative_magnitude(family):
    ds = dm.generate(spec(2, shape_family=family), 2)
    for item in ds.items:
        assert np.abs(item.image).max() > 0


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(extents=(12, 12))  # too small
    with pytest.raises(ValueError):
        spec(extents=(34, 32))  # not divisible by 4
    with pytest.raises(ValueError):
        spec(snr_db=float("inf"))
    with pytest.raises(ValueError):
        spec(shape_family="blob")


@pytest.mark.parametrize("seed", range(5))
def test_snr_calibration_within_1db(seed):
    for snr in (10.0, 30.0):
        item = dm.generate(spec(40 + seed, snr_db=snr), 1).items[0]
        mask = kspace.mask_for_volume(32, 4, 0.08, seed, 0)
        clean = kspace.apply_forward(item.image, kspace.Encoding(item.sens, mask))
        noisy = dm.simulate_measurements(item, mask, seed + 7)
        z = noisy - clean
        measured = 10 * np.log10(np.sum(np.abs(clean) ** 2) / np.sum(np.abs(z) ** 2))
        assert abs(measured - snr) < 1.0


def _two_forward_measurements(item, mask, noise_seed):
    """Reference simulation that runs the noiseless forward once for the noise
    level and again for the measurement."""
    sigma = 0.0
    if item.snr_db < kspace.NOISELESS_SNR_DB:
        clean = kspace.apply_forward(item.image, kspace.Encoding(item.sens, mask))
        power = float(np.sum(np.abs(clean) ** 2)) / (mask.n_sampled * clean.shape[0]
                                                     * clean.shape[1])
        sigma = float(np.sqrt(power / 10.0 ** (item.snr_db / 10.0)))
    clean = kspace.apply_forward(item.image, kspace.Encoding(item.sens, mask))
    return kspace.add_noise(clean, mask, sigma, noise_seed)


@pytest.mark.parametrize("snr", [30.0, 200.0, 250.0])
def test_simulate_measurements_bit_identical_to_two_forward_reference(snr):
    items = dm.generate(spec(61, snr_db=snr), 3).items
    for idx, item in enumerate(items):
        for accel in (2, 4, 8):
            mask = kspace.mask_for_volume(32, accel, 0.08, 5, idx)
            got = dm.simulate_measurements(item, mask, 100 + idx)
            want = _two_forward_measurements(item, mask, 100 + idx)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tag", [dm.EVAL_NOISE_TAG, dm.TUNE_NOISE_TAG])
def test_measure_matches_per_item_loop(tag):
    items = dm.generate(spec(62), 4).items
    for idx, item in enumerate(items):
        mask = kspace.mask_for_volume(32, 4, 0.08, 9, idx)
        y, target = dm.measure(item, mask, 9, tag, idx)
        noise_seed = int(kspace.rng_from(9, tag, idx).integers(2**31))
        want_y = _two_forward_measurements(item, mask, noise_seed)
        assert y.tobytes() == want_y.tobytes()
        assert target.tobytes() == kspace.ground_truth_rss(item.image, item.sens).tobytes()


def test_score_measures_each_item_once_for_every_reconstructor(monkeypatch):
    ds = dm.generate(spec(63, coils=2), 3)
    recons = [lambda y, sens, mask, a=a: a * kspace.zero_filled_rss(y) for a in (1.0, 0.5, 2.0)]
    seen = []

    def metric(recon, target, item):
        seen.append(item)
        return metrics.ssim(recon, target)

    simulate = dm.simulate_measurements
    calls = []
    monkeypatch.setattr(dm, "simulate_measurements",
                        lambda *args: calls.append(args[0]) or simulate(*args))
    scores = dm.score(ds, recons, 5, 4, 0.08, dm.EVAL_NOISE_TAG, metric)
    # one measurement per item, then every reconstructor scored on it
    assert [id(item) for item in calls] == [id(item) for item in ds.items]
    assert [id(item) for item in seen] == [id(item) for item in ds.items for _ in recons]
    assert scores.shape == (3, 3) and scores.dtype == np.float64
    for j, recon in enumerate(recons):
        alone = dm.score(ds, [recon], 5, 4, 0.08, dm.EVAL_NOISE_TAG, metric)
        assert alone[:, 0].tobytes() == scores[:, j].tobytes()


def test_score_rejects_non_finite_reconstruction():
    ds = dm.generate(spec(64, coils=2), 3)

    def recon(y, sens, mask):
        out = kspace.zero_filled_rss(y)
        return out * np.nan if sens is ds.items[1].sens else out

    with pytest.raises(FloatingPointError, match="item 1"):
        dm.score(ds, [recon], 0, 4, 0.08, dm.EVAL_NOISE_TAG,
                 lambda recon, target, item: metrics.ssim(recon, target))


def test_column_means_sum_in_item_order():
    rng = np.random.default_rng(65)
    for rows in (1, 3, 8, 9, 16, 40):
        scores = rng.random((rows, 7))
        assert dm.column_means(scores) == [float(np.mean(scores[:, j].tolist()))
                                           for j in range(7)]


def test_contrast_transforms_monotone_and_validated():
    mag = np.linspace(0, 2, 64).reshape(8, 8)
    gamma = dm.apply_contrast(mag, dm.Contrast(gamma=2.0))
    assert np.all(np.diff(gamma.ravel()) >= 0)
    assert gamma.max() == 2.0 and np.array_equal(gamma, (mag / 2.0) ** 2.0 * 2.0)
    assert dm.apply_contrast(np.zeros((4, 4)), dm.Contrast()).max() == 0.0
    for kind in ("piecewise", "sqrt"):
        with pytest.raises(ValueError, match=rf"^Contrast\.kind must be one of \('gamma',\)"):
            dm.Contrast(kind=kind)
    for gamma in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"^Contrast\.gamma must be in \(0, inf\)"):
            dm.Contrast(gamma=gamma)
    with pytest.raises(ValueError, match=r"^DistributionSpec\.contrast must be a Contrast"):
        dm.DistributionSpec("P", contrast={"kind": "gamma", "gamma": 2.0})


def test_combine_counts_and_provenance():
    a = dm.generate(spec(1, name="A"), 3)
    b = dm.generate(spec(2, name="B"), 2)
    merged = dm.combine([a, b])
    assert len(merged.items) == 5
    counts = {}
    for item in merged.items:
        counts[item.spec_name] = counts.get(item.spec_name, 0) + 1
    assert counts == {"A": 3, "B": 2}


def test_combine_of_2048_pools():
    one = dm.generate(spec(1, name="A"), 1).items[0]
    big_a = dm.Dataset("A", [one] * 2048, {})
    big_b = dm.Dataset("B", [one] * 2048, {})
    assert len(dm.combine([big_a, big_b]).items) == 4096


def test_combine_rejects_mixed_extents():
    a = dm.generate(spec(1), 1)
    b = dm.generate(spec(2, extents=(48, 48)), 1)
    with pytest.raises(ValueError):
        dm.combine([a, b])


def test_skew_factor_10_of_2048():
    one = dm.generate(spec(1), 1).items[0]
    pool = dm.Dataset("big", [one] * 2048, {})
    small = dm.skew(pool, 10.0, seed=0)
    assert len(small.items) == 205 and small.name == "big/skew10"
    # round half up: the config check refuses a skewed set of 0, as skew does
    assert [dm.skew_count(n, 10.0) for n in (2048, 5, 4)] == [205, 1, 0]


def test_subsample_deterministic():
    ds = dm.generate(spec(5), 8)
    s1 = dm.subsample(ds, 0.5, kspace.rng_from(9))
    s2 = dm.subsample(ds, 0.5, kspace.rng_from(9))
    assert dm.content_hash(s1) == dm.content_hash(s2)
    assert len(s1.items) == 4
    with pytest.raises(ValueError):
        dm.subsample(ds, 0.01, kspace.rng_from(1))


def test_train_test_disjoint_seeds():
    tr, te = dm.train_test(spec(3), 4, 2)
    assert dm.content_hash(tr) != dm.content_hash(te)
    assert len(tr.items) == 4 and len(te.items) == 2


# ---------------------------------------------------------------------------
# Lesions.
# ---------------------------------------------------------------------------


def test_small_lesion_box_area_threshold_64(monkeypatch):
    monkeypatch.setattr(dm, "SCOREABLE_MIN_SIDE", 4)  # 7 would not fit 64x64
    rng = kspace.rng_from(1)
    img = np.ones((64, 64), dtype=complex)
    _, ann = dm.insert_lesion(img, rng, "small")
    assert ann.height * ann.width <= 0.01 * 64 * 64  # 40.96 -> at most 40 px
    assert ann.size_class == "small"


def test_lesion_outside_box_unchanged_exactly():
    rng = kspace.rng_from(2)
    base = dm.generate(spec(7, extents=(80, 80)), 1).items[0].image
    out, ann = dm.insert_lesion(base, rng, "small")
    mask = np.ones((80, 80), dtype=bool)
    mask[ann.row : ann.row + ann.height, ann.col : ann.col + ann.width] = False
    np.testing.assert_array_equal(out[mask], base[mask])
    assert not np.array_equal(out[~mask], base[~mask])


def test_lesion_zero_amplitude_identity_with_annotation(monkeypatch):
    monkeypatch.setattr(dm, "LESION_AMPLITUDE", 0.0)
    rng = kspace.rng_from(3)
    base = dm.generate(spec(8, extents=(80, 80)), 1).items[0].image
    out, ann = dm.insert_lesion(base, rng, "small")
    np.testing.assert_array_equal(out, base)
    assert ann.area_fraction <= 0.01


def test_large_lesion_class():
    rng = kspace.rng_from(4)
    base = np.ones((80, 80), dtype=complex)
    _, ann = dm.insert_lesion(base, rng, "large")
    assert ann.area_fraction > 0.01
    assert ann.size_class == "large"


def test_lesion_impossible_placement():
    rng = kspace.rng_from(5)
    with pytest.raises(ValueError):
        dm.insert_lesion(np.ones((16, 16), dtype=complex), rng, "small")


def test_small_lesion_fits_matches_insert_lesion():
    rng = kspace.rng_from(6)
    for h, w in [(68, 72), (72, 68), (70, 70), (72, 72), (16, 400), (48, 100)]:
        fits = dm.small_lesion_fits(h, w)
        assert fits == (h * w >= 4900)
        if fits:
            dm.insert_lesion(np.ones((h, w), dtype=complex), rng, "small")
        else:
            with pytest.raises(ValueError, match="too small"):
                dm.insert_lesion(np.ones((h, w), dtype=complex), rng, "small")


# content hash of a 3-item 80x80 dataset with lesions added at seed 9, taken
# when the least side and the amplitude were keyword parameters of add_lesions
LESIONED_CONTENT = {
    "small": "ddffe3f716bf59f9ec4991a72cf79a906c20ec133647711beb39c25cf9557af7",
    "large": "1959b6b9fc27b7ae17663494b9f053e0f39e0c74011b8bd0eec03ae2eacdeaa4",
}


@pytest.mark.parametrize("size_class", ["small", "large"])
def test_add_lesions_keeps_its_bytes(size_class):
    base = dm.generate(dm.DistributionSpec("q", extents=(80, 80), coils=2, seed=4), 3)
    assert dm.content_hash(dm.add_lesions(base, 9, size_class)) == LESIONED_CONTENT[size_class]


# content hash of a 3-item dataset at bench's contrasts (gamma 1.35 and 0.75, and
# the default), read from JSON as bench writes it; taken when a contrast was a dict
CONTRAST_CONTENT = {
    1.35: "7618eda4014a75e65276c9b2119a6d32b8a6bdacda4f172cabe5ca040a34ac18",
    0.75: "73344875beb640feaf80a5641c87c8d9eeefe4c8dfda8e28f61bf6b24fa71828",
    None: "07b7483983977e89a5b50bc689defc6a6efc14ba4a3fbc66c144b53ab9742fb8",
}


@pytest.mark.parametrize("gamma", CONTRAST_CONTENT)
def test_contrast_keeps_its_bytes(gamma):
    d = {"name": "P", "extents": [32, 32], "coils": 4, "snr_db": 30, "seed": 31}
    if gamma is not None:
        d["contrast"] = {"kind": "gamma", "gamma": gamma}
    spec = dm.from_fields(dm.DistributionSpec, d)
    assert dm.content_hash(dm.generate(spec, 3)) == CONTRAST_CONTENT[gamma]


def test_add_lesions_scoreable_boxes():
    ds = dm.generate(spec(9, extents=(80, 80)), 3)
    lesioned = dm.add_lesions(ds, seed=0, size_class="small")
    for item in lesioned.items:
        assert item.lesion is not None
        assert item.lesion.height >= 7 and item.lesion.width >= 7
        assert item.lesion.area_fraction <= 0.01


# ---------------------------------------------------------------------------
# On-disk format.
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    ds = dm.generate(spec(11), 3)
    lesioned = dm.add_lesions(dm.generate(spec(12, extents=(80, 80)), 1), 0, "small")
    for d in (ds, lesioned):
        out = tmp_path / d.name
        dm.save(d, out)
        loaded = dm.load(out)
        assert dm.content_hash(loaded) == dm.content_hash(d)
        assert loaded.name == d.name


def test_failed_blob_write_leaves_no_manifest(tmp_path):
    (tmp_path / "data.bin").mkdir()  # the blob cannot be written over a directory
    with pytest.raises(IsADirectoryError):
        dm.save(dm.generate(spec(11), 1), tmp_path)
    assert not (tmp_path / "manifest.json").exists()


def test_load_detects_corruption(tmp_path):
    ds = dm.generate(spec(13), 2)
    dm.save(ds, tmp_path)
    blob = bytearray((tmp_path / "data.bin").read_bytes())
    blob[100] ^= 0xFF
    (tmp_path / "data.bin").write_bytes(bytes(blob))
    with pytest.raises(dm.ChecksumError):
        dm.load(tmp_path)


def test_load_detects_truncation(tmp_path):
    ds = dm.generate(spec(14), 2)
    dm.save(ds, tmp_path)
    blob = (tmp_path / "data.bin").read_bytes()
    (tmp_path / "data.bin").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(dm.TruncatedPayloadError):
        dm.load(tmp_path)


def test_load_rejects_unknown_version(tmp_path):
    import json

    ds = dm.generate(spec(15), 1)
    dm.save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(dm.VersionError):
        dm.load(tmp_path)


def test_format_errors_share_one_base_and_are_not_rewrapped(tmp_path):
    from shiftmri import learned

    assert issubclass(dm.FormatError, ValueError)
    for cls in (dm.DatasetFormatError, dm.VersionError, learned.CheckpointFormatError):
        assert issubclass(cls, dm.FormatError)
    path = _saved(tmp_path)
    blob = bytearray((path / "data.bin").read_bytes())
    blob[100] ^= 0xFF
    (path / "data.bin").write_bytes(bytes(blob))
    with pytest.raises(dm.FormatError) as caught:
        dm.load(path)
    assert caught.type is dm.ChecksumError and caught.value.__cause__ is None
    _edit_manifest(path, lambda m: m.update(format_version=99))
    with pytest.raises(dm.FormatError) as caught:
        dm.load(path)
    assert caught.type is dm.VersionError and caught.value.__cause__ is None


def _edit_manifest(path, edit):
    import json

    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("lesion", [
    {"row": "3"}, {"col": 1.5}, {"height": None}, {"area_fraction": True}, {"size_class": 1},
    {"row": "3", "col": 1.5, "height": None}, {"depth": 2},
], ids=["row", "col", "height", "area", "class", "several", "unknown"])
def test_load_rejects_mistyped_lesion_annotation(tmp_path, lesion):
    dm.save(dm.add_lesions(dm.generate(spec(12, extents=(80, 80)), 1), 0, "small"), tmp_path)
    _edit_manifest(tmp_path, lambda m: m["items"][0]["lesion"].update(lesion))
    named = rf"Manifest\.items\[0\]\.lesion.*({'|'.join(lesion)})"
    with pytest.raises(dm.DatasetFormatError, match=named):
        dm.load(tmp_path)


def _saved(tmp_path, count=2):
    dm.save(dm.generate(spec(16, coils=2), count), tmp_path)
    return tmp_path


def test_load_malformed_manifest_json(tmp_path):
    path = _saved(tmp_path)
    text = (path / "manifest.json").read_text()
    (path / "manifest.json").write_text(text[: len(text) // 2])
    with pytest.raises(dm.DatasetFormatError, match="malformed manifest"):
        dm.load(path)
    (path / "manifest.json").write_text("[1, 2]")
    with pytest.raises(dm.DatasetFormatError, match="not a JSON object"):
        dm.load(path)


@pytest.mark.parametrize("field, value", [("name", 5), ("name", None), ("specs", "x"),
                                          ("specs", {"P": [1]})])
def test_load_rejects_mistyped_name_or_specs(tmp_path, field, value):
    path = _saved(tmp_path)
    _edit_manifest(path, lambda m: m.update({field: value}))
    with pytest.raises(dm.DatasetFormatError, match=rf"malformed manifest .*: Manifest\.{field}"):
        dm.load(path)


@pytest.mark.parametrize("damage", ["count", "indices", "item-key", "top-key"])
def test_load_rejects_manifest_not_listing_its_items(tmp_path, damage):
    path = _saved(tmp_path, count=3)

    def edit(m):
        if damage == "count":
            m["count"] = 7
        elif damage == "indices":
            for item, index in zip(m["items"], (5, 1, 2)):
                item["index"] = index
        elif damage == "item-key":
            m["items"][1]["depth"] = 2
        else:
            m["complete"] = True

    _edit_manifest(path, edit)
    match = {"count": "count 7", "indices": r"\[5, 1, 2\]",
             "item-key": r"Manifest\.items\[1\].*depth", "top-key": "Manifest.*complete"}[damage]
    with pytest.raises(dm.DatasetFormatError, match=match):
        dm.load(path)


@pytest.mark.parametrize("name", ["manifest.json", "data.bin"])
def test_load_unreadable_file_is_format_error(tmp_path, name):
    path = _saved(tmp_path)
    (path / name).unlink()
    (path / name).mkdir()
    with pytest.raises(dm.DatasetFormatError, match=f"no readable {name}"):
        dm.load(path)


def test_load_missing_blob(tmp_path):
    path = _saved(tmp_path)
    (path / "data.bin").unlink()
    with pytest.raises(dm.DatasetFormatError, match="data.bin"):
        dm.load(path)


@pytest.mark.parametrize("key", ["height", "offset", "sha256", "lesion"])
def test_load_item_missing_key(tmp_path, key):
    path = _saved(tmp_path)
    _edit_manifest(path, lambda m: m["items"][1].pop(key))
    with pytest.raises(dm.DatasetFormatError, match=key):
        dm.load(path)


def test_load_coils_disagreeing_with_nbytes(tmp_path):
    path = _saved(tmp_path)
    _edit_manifest(path, lambda m: m["items"][0].update(coils=3))
    with pytest.raises(dm.DatasetFormatError, match="nbytes"):
        dm.load(path)


def test_load_nbytes_disagreeing_with_extents(tmp_path):
    # a consistent prefix of the blob with a matching checksum still must
    # hold exactly one image and its coil maps
    import hashlib

    path = _saved(tmp_path)
    blob = (path / "data.bin").read_bytes()
    short = 32 * 32 * 16 * 2

    def edit(m):
        m["items"][0].update(nbytes=short, sha256=hashlib.sha256(blob[:short]).hexdigest())

    _edit_manifest(path, edit)
    with pytest.raises(dm.DatasetFormatError, match="nbytes"):
        dm.load(path)


def test_load_holds_one_payload_beside_the_loaded_arrays(tmp_path):
    import tracemalloc

    dm.save(dm.generate(spec(17, extents=(64, 64), coils=8), 10), tmp_path)
    tracemalloc.start()
    try:
        loaded = dm.load(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(item.image.nbytes + item.sens.nbytes for item in loaded.items)
    assert peak < 1.5 * arrays, f"peak {peak / arrays:.2f}x the loaded arrays"


def test_load_names_the_first_item_cut_off(tmp_path):
    path = _saved(tmp_path, count=3)
    blob = (path / "data.bin").read_bytes()
    (path / "data.bin").write_bytes(blob[: len(blob) // 3 + 1000])
    with pytest.raises(dm.TruncatedPayloadError, match="item 1 "):
        dm.load(path)


def test_load_checks_a_huge_record_against_the_blob_before_reading(tmp_path):
    # a consistent record of about 2.4 GB must fail on the blob's size, not
    # on an attempt to read or hold that many bytes
    import tracemalloc

    path = _saved(tmp_path)
    side, coils = 4096, 8
    _edit_manifest(path, lambda m: m["items"][0].update(
        height=side, width=side, coils=coils, nbytes=(1 + coils) * side * side * 16))
    tracemalloc.start()
    try:
        with pytest.raises(dm.TruncatedPayloadError, match="item 0 "):
            dm.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("field,value", [("offset", -16), ("offset", 1.5), ("height", 0),
                                         ("width", "32")])
def test_load_rejects_bad_item_numbers(tmp_path, field, value):
    path = _saved(tmp_path)
    _edit_manifest(path, lambda m: m["items"][1].update({field: value}))
    expected = {"offset": "offset", "height": "positive", "width": r"Manifest\.items\[1\]\.width "}
    with pytest.raises(dm.DatasetFormatError, match=expected[field]):
        dm.load(path)
