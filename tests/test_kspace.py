import numpy as np
import pytest

from shiftmri import kspace
from oracles import mask_counts_reference, centered_idft_reference


def test_fft2c_delta_gives_flat_spectrum():
    delta = np.zeros((8, 8), dtype=complex)
    delta[4, 4] = 1.0
    k = kspace.fft2c(delta)
    np.testing.assert_allclose(np.abs(k), 1.0 / 8.0, atol=1e-14)


def test_fft2c_constant_concentrates_at_center():
    img = np.full((8, 8), 3.0, dtype=complex)
    k = kspace.fft2c(img)
    assert abs(k[4, 4] - 24.0) < 1e-12
    off = k.copy()
    off[4, 4] = 0.0
    assert np.abs(off).max() < 1e-12


def test_fft2c_parseval_and_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert abs(np.linalg.norm(kspace.fft2c(x)) - np.linalg.norm(x)) < 1e-12
    np.testing.assert_allclose(kspace.ifft2c(kspace.fft2c(x)), x, atol=1e-12)


# ---------------------------------------------------------------------------
# Masks.
# ---------------------------------------------------------------------------


def test_mask_100_cols_4x():
    mask = kspace.make_equispaced_mask(100, 4, 0.08, np.random.default_rng(0))
    total, acs, start = mask_counts_reference(mask.sampled)
    assert mask.acs_count == 8 and acs >= 8
    assert mask.target_count == 25
    assert abs(total - 25) <= 1
    # stride over the 92 outer columns
    assert max(1, round((100 - 8) / 17)) == 5


def test_mask_full_sampling():
    for cf in (0.04, 0.08, 0.2):
        mask = kspace.make_equispaced_mask(64, 1, cf)
        assert mask.n_sampled == 64


def test_mask_16_cols_4x():
    mask = kspace.make_equispaced_mask(16, 4, 0.08, np.random.default_rng(1))
    assert mask.acs_count == 1
    assert mask.target_count == 4
    assert abs(mask.n_sampled - 4) <= 1


def test_mask_infeasible_budget_errors():
    with pytest.raises(kspace.InfeasibleMaskError):
        kspace.make_equispaced_mask(64, 16, 0.08)


@pytest.mark.parametrize("width", [64, 100, 368])
@pytest.mark.parametrize("accel", [2, 3, 4, 8, 16])
def test_mask_cardinality_grid(width, accel):
    n_acs = int(np.floor(0.08 * width + 0.5))
    target = int(np.floor(width / accel + 0.5))
    if target <= n_acs:
        with pytest.raises(kspace.InfeasibleMaskError):
            kspace.make_equispaced_mask(width, accel, 0.08)
        return
    for seed in range(5):
        mask = kspace.make_equispaced_mask(width, accel, 0.08,
                                           np.random.default_rng(seed))
        total, acs_run, acs_start = mask_counts_reference(mask.sampled)
        assert abs(total - target) <= 1
        assert acs_run >= n_acs  # an outer column may adjoin the block
        block = mask.sampled[width // 2 - n_acs // 2 : width // 2 - n_acs // 2 + n_acs]
        assert block.all()  # contiguous centered ACS block present
        assert abs((width // 2 - n_acs // 2) + (n_acs - 1) / 2 - width / 2) <= 1


def test_mask_policy_hooks_are_deterministic():
    a = kspace.mask_for_batch(64, 4, 0.08, seed=3, batch_index=5)
    b = kspace.mask_for_batch(64, 4, 0.08, seed=3, batch_index=5)
    np.testing.assert_array_equal(a.sampled, b.sampled)
    v1 = kspace.mask_for_volume(64, 4, 0.08, seed=3, volume_index=2)
    v2 = kspace.mask_for_volume(64, 4, 0.08, seed=3, volume_index=2)
    np.testing.assert_array_equal(v1.sampled, v2.sampled)
    batch_masks = [kspace.mask_for_batch(64, 4, 0.08, 3, i).sampled for i in range(20)]
    assert any(not np.array_equal(batch_masks[0], m) for m in batch_masks[1:])


def test_feasible_center_fraction_halves_until_room():
    cf = kspace.feasible_center_fraction(64, 16, 0.08)
    assert cf < 0.08
    mask = kspace.make_equispaced_mask(64, 16, cf)
    assert abs(mask.n_sampled - 4) <= 1
    # both mask policies apply the halving; out-of-domain input still fails
    for policy in (kspace.mask_for_batch, kspace.mask_for_volume):
        mask = policy(32, 12, 0.08, 0, 1)
        assert (mask.center_fraction, mask.acs_count, mask.n_sampled) == (0.04, 1, 3)
        with pytest.raises(ValueError, match="center_fraction"):
            policy(32, 12, 1.5, 0, 1)
        with pytest.raises(kspace.InfeasibleMaskError):
            policy(16, 40, 0.08, 0, 1)


# ---------------------------------------------------------------------------
# Sensitivities.
# ---------------------------------------------------------------------------


def test_single_coil_sensitivity_has_unit_magnitude():
    s = kspace.simulate_sensitivities(12, 12, 1, rng=np.random.default_rng(0))
    np.testing.assert_allclose(np.abs(s[0]), 1.0, atol=1e-12)


def test_sensitivities_normalized():
    s = kspace.simulate_sensitivities(16, 16, 4, rng=np.random.default_rng(1))
    np.testing.assert_allclose(np.sum(np.abs(s) ** 2, axis=0), 1.0, atol=1e-9)


def test_sensitivity_smoothness_tracks_cutoff():
    # numeric bound: gradients at cutoff 2 stay below the worst case measured
    # at cutoff 6 across seeds (smoother maps for lower cutoffs)
    def max_grad(cutoff, seed):
        s = kspace.simulate_sensitivities(32, 32, 4, smoothness=cutoff,
                                          rng=np.random.default_rng(seed))
        mag = np.abs(s)
        return max(np.abs(np.diff(mag, axis=1)).max(), np.abs(np.diff(mag, axis=2)).max())

    smooth = [max_grad(2.0, seed) for seed in range(5)]
    rough = [max_grad(6.0, seed) for seed in range(5)]
    assert np.mean(smooth) < np.mean(rough)
    assert max(smooth) < 0.2  # frozen numeric bound from generated instances


# ---------------------------------------------------------------------------
# Forward model and adjoint.
# ---------------------------------------------------------------------------


def _random_problem(rng, h, w, coils, accel=4):
    x = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
    sens = kspace.simulate_sensitivities(h, w, coils, rng=rng)
    mask = kspace.make_equispaced_mask(w, accel, 0.08, rng)
    return x, sens, mask


def test_forward_reduces_to_fft():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    sens = kspace.unit_sensitivities(8, 8, 1)
    y = kspace.apply_forward(x, sens, kspace.full_mask(8))
    np.testing.assert_allclose(y[0], kspace.fft2c(x), atol=1e-12)


def test_forward_zero_image():
    sens = kspace.unit_sensitivities(8, 8, 2)
    y = kspace.apply_forward(np.zeros((8, 8), complex), sens, kspace.full_mask(8))
    assert np.abs(y).max() == 0.0


def test_forward_unsampled_columns_exactly_zero():
    rng = np.random.default_rng(3)
    x, sens, mask = _random_problem(rng, 16, 16, 3)
    y = kspace.apply_forward(x, sens, mask)
    assert np.abs(y[:, :, ~mask.sampled]).max() == 0.0


def test_adjoint_identity_at_full_sampling():
    rng = np.random.default_rng(4)
    x, sens, _ = _random_problem(rng, 16, 16, 4)
    fm = kspace.full_mask(16)
    xhat = kspace.apply_adjoint(kspace.apply_forward(x, sens, fm), sens, fm)
    assert np.linalg.norm(xhat - x) / np.linalg.norm(x) < 1e-10


def test_adjoint_single_coil_reduces_to_ifft():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((1, 8, 8)) + 1j * rng.standard_normal((1, 8, 8))
    sens = kspace.unit_sensitivities(8, 8, 1)
    np.testing.assert_allclose(kspace.apply_adjoint(y, sens, kspace.full_mask(8)),
                               kspace.ifft2c(y[0]), atol=1e-12)


@pytest.mark.parametrize("coils", [1, 4, 8])
def test_adjointness_property(coils):
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        h = int(rng.integers(8, 65))
        w = int(rng.integers(8, 65))
        x, sens, mask = _random_problem(rng, h, w, coils, accel=int(rng.integers(2, 5)))
        y = rng.standard_normal((coils, h, w)) + 1j * rng.standard_normal((coils, h, w))
        lhs = np.vdot(kspace.apply_forward(x, sens, mask), y)
        rhs = np.vdot(x, kspace.apply_adjoint(y, sens, mask))
        assert abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y)) < 1e-10


# ---------------------------------------------------------------------------
# Stacked transforms equal the per-slice and per-coil definitions byte for byte.
# ---------------------------------------------------------------------------


def _fft2c_slice(x, inverse=False):
    transform = np.fft.ifft2 if inverse else np.fft.fft2
    return np.fft.fftshift(transform(np.fft.ifftshift(x), norm="ortho"))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("extents", [(16, 16), (33, 33), (48, 64), (96, 96)])
@pytest.mark.parametrize("depth", [1, 8])
def test_stacked_fft2c_bytes_equal_per_slice_reference(extents, depth):
    x = _complex(np.random.default_rng(depth), (depth, *extents))
    for inverse, fn in ((False, kspace.fft2c), (True, kspace.ifft2c)):
        ref = np.stack([_fft2c_slice(s, inverse) for s in x])
        assert fn(x).tobytes() == ref.tobytes()
        assert fn(x[0]).tobytes() == ref[0].tobytes()


@pytest.mark.parametrize("extents", [(16, 16), (33, 33), (48, 64), (96, 96)])
@pytest.mark.parametrize("accel", [1, 2, 4, 8])
def test_operators_equal_per_coil_loops(extents, accel):
    rng = np.random.default_rng(accel)
    h, w = extents
    x, sens = _complex(rng, extents), _complex(rng, (8, h, w))
    mask = kspace.make_equispaced_mask(w, accel, 0.08, rng)
    ref = np.stack([_fft2c_slice(s * x) for s in sens]) * mask.sampled
    y = kspace.apply_forward(x, sens, mask)
    assert y.dtype == np.complex128 and np.array_equal(y, ref)
    assert not y[..., ~mask.sampled].any()
    k = _complex(rng, (8, h, w))
    ref_adj = np.zeros(extents, dtype=np.complex128)
    for s, ks in zip(sens, k * mask.sampled):
        ref_adj += np.conj(s) * _fft2c_slice(ks, inverse=True)
    assert kspace.apply_adjoint(k, sens, mask).tobytes() == ref_adj.tobytes()
    ref_zf = kspace.rss(np.stack([_fft2c_slice(ks, inverse=True) for ks in k]))
    assert kspace.zero_filled_rss(k).tobytes() == ref_zf.tobytes()


def test_operators_reject_mismatched_extents():
    rng = np.random.default_rng(9)
    x, sens, mask = _random_problem(rng, 16, 16, 2)
    y = kspace.apply_forward(x, sens, mask)
    narrow = kspace.make_equispaced_mask(12, 4, 0.08, rng)
    with pytest.raises(ValueError, match="sensitivity extents"):
        kspace.apply_forward(x, sens[:, :, :12], mask)
    with pytest.raises(ValueError, match="sensitivity extents"):
        kspace.apply_adjoint(y, sens[:, :12], mask)
    with pytest.raises(ValueError, match="mask width"):
        kspace.apply_forward(x, sens, narrow)
    with pytest.raises(ValueError, match="mask width"):
        kspace.apply_adjoint(y, sens, narrow)


def test_rss_examples():
    rng = np.random.default_rng(6)
    img = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    np.testing.assert_allclose(kspace.rss(img[None]), np.abs(img), atol=1e-14)
    stack = np.stack([np.full((4, 4), 3.0 + 0j), np.full((4, 4), 4j)])
    np.testing.assert_allclose(kspace.rss(stack), 5.0, atol=1e-14)
    stack2 = np.stack([img, np.zeros_like(img)])
    np.testing.assert_allclose(kspace.rss(stack2), np.abs(img), atol=1e-14)
    with pytest.raises(ValueError):
        kspace.rss(np.zeros((0, 4, 4)))


def test_zero_filled_rss_examples():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    sens = kspace.unit_sensitivities(8, 8, 1)
    y = kspace.apply_forward(x, sens, kspace.full_mask(8))
    np.testing.assert_allclose(kspace.zero_filled_rss(y), np.abs(x), atol=1e-12)
    assert np.abs(kspace.zero_filled_rss(np.zeros((2, 8, 8), complex))).max() == 0.0


def test_noise_model_examples():
    rng = np.random.default_rng(8)
    mask = kspace.make_equispaced_mask(100, 2, 0.08, rng)
    y = np.zeros((8, 125, 100), dtype=complex)
    same = kspace.add_noise(y, mask, kspace.NoiseModel(0.0, seed=1))
    assert np.abs(same).max() == 0.0
    sigma = 0.7
    noisy = kspace.add_noise(y, mask, kspace.NoiseModel(sigma, seed=2))
    assert np.abs(noisy[:, :, ~mask.sampled]).max() == 0.0
    samples = noisy[:, :, mask.sampled]
    components = np.concatenate([samples.real.ravel(), samples.imag.ravel()])
    assert components.size >= 1e5
    assert abs(np.var(components) - sigma**2 / 2) / (sigma**2 / 2) < 0.03


def test_noise_model_validation():
    with pytest.raises(ValueError):
        kspace.NoiseModel(-1.0)
    with pytest.raises(ValueError):
        kspace.NoiseModel(float("nan"))


# ---------------------------------------------------------------------------
# Interleaved repetition and 3D view synthesis.
# ---------------------------------------------------------------------------


def test_interleave_duplicates_columns_and_mask():
    y = np.arange(8, dtype=complex).reshape(1, 2, 4)
    mask = kspace.SamplingMask(4, np.array([True, False, True, False]), 2.0, 0.25, 0, 1, 2)
    up, m2 = kspace.interleave_upsample(y, mask, "horizontal")
    np.testing.assert_array_equal(up[0, 0], [0, 0, 1, 1, 2, 2, 3, 3])
    np.testing.assert_array_equal(m2.sampled, [True, True, False, False,
                                               True, True, False, False])
    assert m2.width == 8


def test_interleave_twice_doubles_both_extents():
    y = np.ones((2, 4, 6), dtype=complex)
    mask = kspace.full_mask(6)
    up, m2 = kspace.interleave_upsample(y, mask, "horizontal")
    up, m2 = kspace.interleave_upsample(up, m2, "vertical")
    assert up.shape == (2, 8, 12)
    assert m2.width == 12


def test_interleave_recon_path_matches_direct(seeded_phantom_item):
    from shiftmri import data as dm
    from shiftmri.metrics import normalize_output, ssim, SsimConfig

    item = seeded_phantom_item
    mask = kspace.mask_for_volume(32, 4, 0.08, 3, 0)
    y = dm.simulate_measurements(item, mask, 5)
    direct = kspace.zero_filled_rss(y)
    up, m2 = kspace.interleave_upsample(y, mask, "horizontal")
    up, m2 = kspace.interleave_upsample(up, m2, "vertical")
    cropped = kspace.center_crop(kspace.zero_filled_rss(up), 32, 32)
    matched, _ = normalize_output(cropped, direct)
    score = ssim(matched, direct, SsimConfig(data_range=float(direct.max())))
    assert score >= 0.95


def test_views_from_3d_extent_one_is_identity():
    rng = np.random.default_rng(9)
    vol = rng.standard_normal((1, 6, 6)) + 1j * rng.standard_normal((1, 6, 6))
    views = kspace.views_from_3d(vol, axis=0)
    assert len(views) == 1
    np.testing.assert_allclose(views[0], vol[0], atol=1e-12)


def test_views_from_3d_energy_preserved():
    rng = np.random.default_rng(10)
    vol = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    views = kspace.views_from_3d(vol, axis=0)
    total = sum(np.sum(np.abs(v) ** 2) for v in views)
    assert abs(total - np.sum(np.abs(vol) ** 2)) < 1e-10


def test_views_from_3d_separable_volume_matches_bruteforce():
    rng = np.random.default_rng(11)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    vol = f[:, None, None] * g[None, :, :]
    views = kspace.views_from_3d(vol, axis=0)
    f_img = centered_idft_reference(f)
    for d in range(4):
        np.testing.assert_allclose(views[d], f_img[d] * g, atol=1e-12)
