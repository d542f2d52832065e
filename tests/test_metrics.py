import hashlib
import re

import numpy as np
import pytest

from shiftmri import data as dm
from shiftmri import metrics
from oracles import (box_sums_reference, laplacian_score_reference, ols_reference,
                     spread_reference, ssim_reference)


def test_ssim_identity_is_exactly_one():
    rng = np.random.default_rng(0)
    x = rng.random((16, 16))
    assert metrics.ssim(x, x) == 1.0
    assert metrics.ssim(np.zeros((8, 8)), np.zeros((8, 8))) == 1.0


def test_ssim_constant_images_closed_form():
    a = np.full((10, 10), 1.0)
    b = np.full((10, 10), 2.0)
    c1 = (0.01 * 2.0) ** 2
    expected = (2 * 1 * 2 + c1) / (1 + 4 + c1)
    assert abs(metrics.ssim(a, b, data_range=2.0) - expected) < 1e-12


def test_ssim_matches_bruteforce_reference():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.random((16, 16))
        y = rng.random((16, 16))
        got = metrics.ssim(x, y, data_range=1.0)
        ref = ssim_reference(x, y, data_range=1.0)
        assert abs(got - ref) < 1e-8


WINDOW_CASES = [(3, (9, 14)), (7, (16, 16)), (7, (23, 11)), (11, (11, 30)), (11, (19, 12))]


@pytest.mark.parametrize("k,shape", WINDOW_CASES)
def test_separable_window_sums_match_the_per_offset_loops(k, shape):
    rng = np.random.default_rng(k)
    img = rng.standard_normal(shape)
    ref = box_sums_reference(img, k)
    got = metrics._box_sums(img, k)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    field = rng.standard_normal(ref.shape)
    ref = spread_reference(field, k, shape)
    got = metrics._spread(field, k, shape)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("k,shape", WINDOW_CASES)
def test_spread_is_the_adjoint_of_box_sums(k, shape):
    rng = np.random.default_rng(100 + k)
    img = rng.standard_normal(shape)
    field = rng.standard_normal((shape[0] - k + 1, shape[1] - k + 1))
    lhs = float(np.sum(metrics._spread(field, k, shape) * img))
    rhs = float(np.sum(field * metrics._box_sums(img, k)))
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(field)) * np.max(np.abs(img)) * k * k


def test_stacked_window_sums_equal_per_field_calls_bytewise():
    rng = np.random.default_rng(6)
    stack = rng.random((5, 17, 21))
    sums = metrics._box_sums(stack, 7)
    spread = metrics._spread(sums, 7, (17, 21))
    for i in range(5):
        assert sums[i].tobytes() == metrics._box_sums(stack[i], 7).tobytes()
        assert spread[i].tobytes() == metrics._spread(sums[i], 7, (17, 21)).tobytes()


def test_ssim_gradient_is_exactly_zero_at_the_target():
    rng = np.random.default_rng(7)
    for shape in ((16, 16), (23, 11)):
        x = rng.random(shape) * 3.0
        value, grad = metrics.ssim_and_grad(x, x)
        assert value == 1.0
        assert not np.any(grad)


def test_ssim_symmetry_with_fixed_range():
    rng = np.random.default_rng(2)
    x, y = rng.random((12, 12)), rng.random((12, 12))
    assert abs(metrics.ssim(x, y, 1.0) - metrics.ssim(y, x, 1.0)) < 1e-12


def test_ssim_rejects_small_images():
    with pytest.raises(ValueError):
        metrics.ssim(np.ones((5, 5)), np.ones((5, 5)))


def test_region_ssim_full_box_equals_ssim():
    rng = np.random.default_rng(3)
    x, y = rng.random((16, 16)), rng.random((16, 16))
    full = metrics.region_ssim(x, y, (0, 0, 16, 16))
    assert abs(full - metrics.ssim(x, y)) < 1e-14


def test_region_ssim_identical_images():
    rng = np.random.default_rng(4)
    x = rng.random((20, 20))
    assert metrics.region_ssim(x, x, (3, 5, 9, 8)) == 1.0


def test_region_ssim_differs_on_local_structure():
    rng = np.random.default_rng(5)
    target = rng.random((24, 24)) + 0.5
    recon = target.copy()
    recon[8:15, 8:15] += 0.3 * rng.random((7, 7))  # local lesion-like error
    region = metrics.region_ssim(recon, target, (8, 8, 7, 7))
    overall = metrics.ssim(recon, target)
    assert abs(region - overall) > 1e-6


def _digest(*arrays) -> str:
    d = hashlib.sha256()
    for a in arrays:
        d.update(np.asarray(a, dtype=np.float64).tobytes())
    return d.hexdigest()


# digests of SSIM's value, value and gradient, and region value on fixed
# images, taken when an SsimConfig held the data range
SSIM_DIGESTS = {
    None: ("a28876851fc806b9c042c1637d9cb06d0c6f54ddde58081dc2424417976a75ca",
           "f279fb142bb45dd84881dc01842e0d0edd4dc76df0cb1148d48e83f79dc7655b"),
    2.0: ("d3673ca53499ea1c66602c6b21b9147237adad498c86a56aaaddd2557639aeea",
          "24f3932ab9c20f6fcce7d04b1c543694a907abf79783a98d95911cba7b629ba2"),
}


def _pinned_images():
    rng = np.random.default_rng(34)
    y = 1.5 * rng.random((24, 20))
    return y + 0.2 * rng.standard_normal((24, 20)), y


@pytest.mark.parametrize("data_range", SSIM_DIGESTS)
def test_ssim_and_grad_keep_their_bytes(data_range):
    x, y = _pinned_images()
    assert _digest(metrics.ssim(x, y, data_range)) == SSIM_DIGESTS[data_range][0]
    assert _digest(*metrics.ssim_and_grad(x, y, data_range)) == SSIM_DIGESTS[data_range][1]


def test_region_ssim_keeps_its_bytes():
    x, y = _pinned_images()
    assert _digest(metrics.region_ssim(x, y, (5, 3, 12, 9))) == (
        "5a32224a14b8bf5315cae223851ca3e1cd123bdb17a648dd30396b6519f6f882")


def test_region_ssim_rejects_small_box():
    x = np.ones((16, 16))
    with pytest.raises(ValueError, match="rejected"):
        metrics.region_ssim(x, x, (0, 0, 5, 9))
    with pytest.raises(ValueError, match="extents"):
        metrics.region_ssim(x, x, (10, 10, 8, 8))


def test_normalize_output_identity():
    rng = np.random.default_rng(6)
    t = rng.random((10, 10))
    out, fallback = metrics.normalize_output(t.copy(), t)
    assert not fallback
    np.testing.assert_allclose(out, t, atol=1e-12)


def test_normalize_output_inverts_affine():
    rng = np.random.default_rng(7)
    t = rng.random((10, 10))
    out, fallback = metrics.normalize_output(2.0 * t + 3.0, t)
    assert not fallback
    np.testing.assert_allclose(out, t, atol=1e-12)


def test_normalize_output_moments():
    rng = np.random.default_rng(8)
    r, t = rng.random((9, 9)), 3 * rng.random((9, 9)) + 1
    out, _ = metrics.normalize_output(r, t)
    assert abs(out.mean() - t.mean()) < 1e-12
    assert abs(out.var() - t.var()) < 1e-12


def test_normalize_output_idempotent():
    rng = np.random.default_rng(9)
    r, t = rng.random((9, 9)), rng.random((9, 9))
    once, _ = metrics.normalize_output(r, t)
    twice, _ = metrics.normalize_output(once, t)
    np.testing.assert_allclose(once, twice, atol=1e-12)


def test_normalize_output_flat_recon_falls_back():
    t = np.arange(16.0).reshape(4, 4)
    out, fallback = metrics.normalize_output(np.full((4, 4), 2.0), t)
    assert fallback
    assert abs(out.mean() - t.mean()) < 1e-12


def test_laplacian_zero_for_perfect_recon():
    rng = np.random.default_rng(10)
    t = rng.random((12, 12))
    assert metrics.laplacian_artifact_score(t, t) == 0.0


def test_laplacian_zero_for_ramp_difference():
    rows = np.arange(10.0)[:, None] * np.ones((1, 12))
    target = rows * 0.25 + 1.0
    recon = np.zeros_like(target) + 1.0
    assert metrics.laplacian_artifact_score(recon, target) < 1e-20


def test_laplacian_mean_shift_invariance():
    rng = np.random.default_rng(11)
    t = rng.random((10, 10)) + 2.0
    r = rng.random((10, 10))
    base = metrics.laplacian_artifact_score(r, t)
    shifted = metrics.laplacian_artifact_score(r - 0.5, t)  # difference + 0.5
    assert abs(base - shifted) < 1e-10


def test_laplacian_checkerboard_matches_bruteforce():
    ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    target = ((ii + jj) % 2).astype(float)
    recon = np.zeros((8, 8))
    got = metrics.laplacian_artifact_score(recon, target)
    ref = laplacian_score_reference(recon, target)
    assert abs(got - ref) < 1e-12
    assert got > 0


def test_extract_features_duplicates_and_norm():
    rng = np.random.default_rng(12)
    imgs = [rng.random((24, 24)) + 0.2 for _ in range(3)]
    feats = metrics.extract_features(imgs + imgs, seed=0)
    np.testing.assert_allclose(feats[:3], feats[3:], atol=0)
    np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)


def test_extract_features_keep_their_bytes():
    """PATCH_SIZE, PATCHES_PER_ITEM, NOISE_FLOOR and PROJECTION_DIM hold the
    former keyword defaults: the digest was taken when they were parameters."""
    ds = dm.generate(dm.DistributionSpec("p", extents=(32, 32), coils=2, seed=3), 4)
    assert hashlib.sha256(metrics.extract_features(ds, seed=5).tobytes()).hexdigest() == (
        "ce7a1ddbdc7b5d19b2c02d79180167cdc37c7092f1b35a575e4c7462d893950c")


def test_extract_features_noise_floor_discards():
    flat = [np.zeros((16, 16))]
    with pytest.raises(ValueError, match="item 0"):
        metrics.extract_features(flat, seed=0)


def _extent_id(shape):
    return "x".join(map(str, shape))


# the CLI refuses a dataset by these rules before any work, so each must refuse
# exactly the extents its computation cannot run at
@pytest.mark.parametrize("shape", [(7, 7), (64, 7), (6, 7), (7, 6)], ids=_extent_id)
def test_ssim_check_extents_refuses_exactly_what_ssim_cannot_score(shape):
    x = np.random.default_rng(14).random(shape)
    if min(shape) >= 7:
        metrics.check_window_fits(shape)
        assert metrics.ssim(x, x) == 1.0
        return
    message = re.escape(f"image extents {shape} smaller than SSIM window 7")
    with pytest.raises(ValueError, match=message):
        metrics.check_window_fits(shape)
    with pytest.raises(ValueError, match=message):
        metrics.ssim(x, x)


@pytest.mark.parametrize("shape", [(12, 12), (11, 12), (12, 11)], ids=_extent_id)
def test_patch_check_refuses_exactly_what_extract_features_cannot_sample(shape):
    img = np.random.default_rng(15).random(shape) + 0.2
    if min(shape) >= metrics.PATCH_SIZE:
        metrics.check_patch_fits(shape)
        assert metrics.extract_features([img], 0).shape == (1, 64)
        return
    message = re.escape(f"patch_size 12 exceeds extents {shape}")
    with pytest.raises(ValueError, match=message):
        metrics.check_patch_fits(shape)
    with pytest.raises(ValueError, match=message):
        metrics.extract_features([img], 0)


def test_nn_similarity_identical_sets():
    rng = np.random.default_rng(13)
    f = rng.standard_normal((5, 8))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    report = metrics.nn_similarity(f, f)
    np.testing.assert_allclose(report.similarities, 1.0, atol=1e-12)
    assert abs(report.mean - 1.0) < 1e-12


def test_nn_similarity_orthogonal_features():
    test = np.eye(3)[:2]
    train = np.eye(3)[2:]
    report = metrics.nn_similarity(test, train)
    np.testing.assert_allclose(report.similarities, 0.0, atol=1e-12)


def test_nn_similarity_superset_monotone():
    rng = np.random.default_rng(14)
    test = rng.standard_normal((6, 10))
    test /= np.linalg.norm(test, axis=1, keepdims=True)
    a = rng.standard_normal((4, 10))
    b = rng.standard_normal((5, 10))
    small = metrics.nn_similarity(test, a).similarities
    big = metrics.nn_similarity(test, np.vstack([a, b])).similarities
    assert np.all(big >= small - 1e-15)
    report = metrics.nn_similarity(test, a)
    assert report.similarities.min() - 1e-12 <= report.mean <= report.similarities.max() + 1e-12


def test_nn_similarity_rejects_empty():
    with pytest.raises(ValueError):
        metrics.nn_similarity(np.zeros((0, 4)), np.ones((2, 4)))


def test_fit_two_points_interpolates():
    fit = metrics.effective_robustness_fit([(0.0, 1.0), (2.0, 2.0)],
                                           [(0.0, 1.0), (2.0, 2.0)])
    assert abs(fit.slope - 0.5) < 1e-12
    assert abs(fit.intercept - 1.0) < 1e-12
    assert max(abs(r) for r in fit.residuals) < 1e-12


def test_fit_candidate_on_line_zero_residual():
    fit = metrics.effective_robustness_fit([(0.0, 0.0), (1.0, 2.0)], [(0.5, 1.0)])
    assert abs(fit.residuals[0]) < 1e-12


def test_fit_matches_normal_equations():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)]
    fit = metrics.effective_robustness_fit(pts, [])
    assert abs(fit.slope - 0.5) < 1e-12
    assert abs(fit.intercept - 1.0 / 6.0) < 1e-12
    slope_ref, intercept_ref = ols_reference(pts)
    assert abs(fit.slope - slope_ref) < 1e-12
    assert abs(fit.intercept - intercept_ref) < 1e-12


def test_fit_degenerate_baseline_errors():
    with pytest.raises(ValueError):
        metrics.effective_robustness_fit([(1.0, 0.0)], [])
    with pytest.raises(ValueError):
        metrics.effective_robustness_fit([(1.0, 0.0), (1.0, 5.0)], [])


def test_pearson_examples():
    xs = [0.0, 1.0, 2.0, 3.0]
    assert abs(metrics.pearson_corr(xs, [2 * v + 1 for v in xs]) - 1.0) < 1e-12
    assert abs(metrics.pearson_corr(xs, [-v for v in xs]) + 1.0) < 1e-12
    assert abs(metrics.pearson_corr([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])) < 1e-12
    with pytest.raises(ValueError):
        metrics.pearson_corr([1.0, 1.0], [0.0, 1.0])
