import numpy as np
import pytest

from shiftmri import data as dm
from shiftmri import kspace
from oracles import centered_idft_reference


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
        clean = kspace.apply_forward(item.image, item.sens, mask)
        noisy = dm.simulate_measurements(item, mask, seed + 7)
        z = noisy - clean
        measured = 10 * np.log10(np.sum(np.abs(clean) ** 2) / np.sum(np.abs(z) ** 2))
        assert abs(measured - snr) < 1.0


def _two_forward_measurements(item, mask, noise_seed):
    """Reference simulation that runs the noiseless forward once for the noise
    level and again for the measurement."""
    sigma = 0.0
    if item.snr_db < kspace.NOISELESS_SNR_DB:
        clean = kspace.apply_forward(item.image, item.sens, mask)
        power = float(np.sum(np.abs(clean) ** 2)) / (mask.n_sampled * clean.shape[0]
                                                     * clean.shape[1])
        sigma = float(np.sqrt(power / 10.0 ** (item.snr_db / 10.0)))
    return kspace.add_noise(kspace.apply_forward(item.image, item.sens, mask), mask,
                            kspace.NoiseModel(sigma, noise_seed))


@pytest.mark.parametrize("snr", [30.0, 200.0, 250.0])
def test_simulate_measurements_bit_identical_to_two_forward_reference(snr):
    items = dm.generate(spec(61, snr_db=snr), 3).items
    for idx, item in enumerate(items):
        for accel in (2, 4, 8):
            mask = kspace.mask_for_volume(32, accel, 0.08, 5, idx)
            got = dm.simulate_measurements(item, mask, 100 + idx)
            want = _two_forward_measurements(item, mask, 100 + idx)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tag", [dm.EVAL_NOISE_TAG, 0x10153])
def test_measure_matches_per_item_loop(tag):
    items = dm.generate(spec(62), 4).items
    for idx, item in enumerate(items):
        y, mask, target = dm.measure(item, idx, 9, 4, 0.08, tag)
        want_mask = kspace.mask_for_volume(32, 4, 0.08, 9, idx)
        noise_seed = int(kspace.rng_from(9, tag, idx).integers(2**31))
        want_y = _two_forward_measurements(item, want_mask, noise_seed)
        assert mask.sampled.tobytes() == want_mask.sampled.tobytes()
        assert y.tobytes() == want_y.tobytes()
        assert target.tobytes() == kspace.ground_truth_rss(item.image, item.sens).tobytes()


def test_contrast_transforms_monotone_and_validated():
    mag = np.linspace(0, 1, 64).reshape(8, 8)
    gamma = dm.apply_contrast(mag, {"kind": "gamma", "gamma": 2.0})
    assert np.all(np.diff(gamma.ravel()) >= 0)
    pl = dm.apply_contrast(mag, {"kind": "piecewise", "xs": [0, 0.5, 1], "ys": [0, 0.8, 1]})
    assert np.all(np.diff(pl.ravel()) >= 0)
    with pytest.raises(ValueError):
        dm.apply_contrast(mag, {"kind": "piecewise", "xs": [0, 0.5, 1], "ys": [0, 0.8, 0.5]})
    with pytest.raises(ValueError):
        dm.apply_contrast(mag, {"kind": "sqrt"})


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
    big, small = dm.skew(pool, 10.0, seed=0)
    assert len(big.items) == 2048
    assert len(small.items) == 205


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


def test_small_lesion_box_area_threshold_64():
    rng = kspace.rng_from(1)
    img = np.ones((64, 64), dtype=complex)
    _, ann = dm.insert_lesion(img, rng, "small")
    assert ann.height * ann.width <= 0.01 * 64 * 64  # 40.96 -> at most 40 px
    assert ann.size_class == "small"


def test_lesion_outside_box_unchanged_exactly():
    rng = kspace.rng_from(2)
    base = dm.generate(spec(7, extents=(80, 80)), 1).items[0].image
    out, ann = dm.insert_lesion(base, rng, "small", min_side=7)
    mask = np.ones((80, 80), dtype=bool)
    mask[ann.row : ann.row + ann.height, ann.col : ann.col + ann.width] = False
    np.testing.assert_array_equal(out[mask], base[mask])
    assert not np.array_equal(out[~mask], base[~mask])


def test_lesion_zero_amplitude_identity_with_annotation():
    rng = kspace.rng_from(3)
    base = dm.generate(spec(8, extents=(80, 80)), 1).items[0].image
    out, ann = dm.insert_lesion(base, rng, "small", amplitude=0.0)
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
        dm.insert_lesion(np.ones((16, 16), dtype=complex), rng, "small", min_side=7)


def test_small_lesion_fits_matches_insert_lesion():
    rng = kspace.rng_from(6)
    for h, w in [(68, 72), (72, 68), (70, 70), (72, 72), (16, 400), (48, 100)]:
        fits = dm.small_lesion_fits(h, w)
        assert fits == (h * w >= 4900)
        if fits:
            dm.insert_lesion(np.ones((h, w), dtype=complex), rng, "small", min_side=7)
        else:
            with pytest.raises(ValueError, match="too small"):
                dm.insert_lesion(np.ones((h, w), dtype=complex), rng, "small", min_side=7)


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
    lesioned = dm.add_lesions(dm.generate(spec(12, extents=(80, 80)), 1), 0)
    for d in (ds, lesioned):
        out = tmp_path / d.name
        dm.save(d, out)
        loaded = dm.load(out)
        assert dm.content_hash(loaded) == dm.content_hash(d)
        assert loaded.name == d.name


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


def _edit_manifest(path, edit):
    import json

    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


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


@pytest.mark.parametrize("field,value", [("offset", -16), ("offset", 1.5), ("height", 0),
                                         ("width", "32")])
def test_load_rejects_bad_item_numbers(tmp_path, field, value):
    path = _saved(tmp_path)
    _edit_manifest(path, lambda m: m["items"][1].update({field: value}))
    with pytest.raises(dm.DatasetFormatError, match=field if field == "offset" else "positive"):
        dm.load(path)


# ---------------------------------------------------------------------------
# Raw volume ingestion.
# ---------------------------------------------------------------------------


def test_ingest_3d_with_trim(tmp_path):
    rng = np.random.default_rng(16)
    vol = (rng.standard_normal((10, 16, 16)) + 1j * rng.standard_normal((10, 16, 16)))
    path = tmp_path / "vol.bin"
    vol.astype("<c16").tofile(path)
    desc = dm.RawVolumeDescriptor(extents=(10, 16, 16), kind="3d_kspace", axis=0,
                                  trim=(2, 3))
    ds = dm.ingest_raw_volume(path, desc)
    assert len(ds.items) == 5


def test_ingest_2d_stack_passthrough(tmp_path):
    rng = np.random.default_rng(17)
    stack = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
    path = tmp_path / "stack.bin"
    stack.astype("<c16").tofile(path)
    desc = dm.RawVolumeDescriptor(extents=(3, 8, 8), kind="2d_stack", trim=(0, 0))
    ds = dm.ingest_raw_volume(path, desc)
    assert len(ds.items) == 3
    for i, item in enumerate(ds.items):
        np.testing.assert_allclose(item.image, kspace.ifft2c(stack[i]), atol=1e-12)
        assert item.sens.shape == (1, 8, 8)


def test_ingest_separable_volume_matches_views(tmp_path):
    rng = np.random.default_rng(18)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    vol = f[:, None, None] * g[None, :, :]
    path = tmp_path / "sep.bin"
    vol.astype("<c16").tofile(path)
    ds = dm.ingest_raw_volume(path, dm.RawVolumeDescriptor(extents=(4, 4, 4)))
    f_img = centered_idft_reference(f)
    for d, item in enumerate(ds.items):
        np.testing.assert_allclose(item.image, kspace.ifft2c(f_img[d] * g), atol=1e-12)


def test_ingest_validates_payload(tmp_path):
    path = tmp_path / "bad.bin"
    np.zeros(10, dtype="<c16").tofile(path)
    with pytest.raises(dm.DatasetFormatError):
        dm.ingest_raw_volume(path, dm.RawVolumeDescriptor(extents=(4, 4, 4)))
    vol = np.zeros((4, 4, 4), dtype="<c16")
    path2 = tmp_path / "trim.bin"
    vol.tofile(path2)
    with pytest.raises(dm.DatasetFormatError):
        dm.ingest_raw_volume(path2, dm.RawVolumeDescriptor(extents=(4, 4, 4), trim=(2, 2)))
