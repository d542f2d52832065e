import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shiftmri import kspace
from oracles import (centered_idft_reference, hybrid_dft_reference, hybrid_fft_reference,
                     mask_counts_reference, unit_sensitivities)


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


def test_sensitivities_keep_their_bytes():
    # digest taken when the smoothness was a keyword parameter defaulting to 3.0
    s = kspace.simulate_sensitivities(32, 24, 4, rng=np.random.default_rng(7))
    assert hashlib.sha256(s.tobytes()).hexdigest() == (
        "fff21c6d31a27bce55112a4b1d33348488dee7a20b5f3918026d1dcc8d30de7e")


def test_sensitivity_smoothness_tracks_cutoff(monkeypatch):
    # numeric bound: gradients at cutoff 2 stay below the worst case measured
    # at cutoff 6 across seeds (smoother maps for lower cutoffs)
    def max_grad(cutoff, seed):
        monkeypatch.setattr(kspace, "SENSITIVITY_SMOOTHNESS", cutoff)
        s = kspace.simulate_sensitivities(32, 32, 4, rng=np.random.default_rng(seed))
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
    sens = unit_sensitivities(8, 8, 1)
    y = kspace.apply_forward(x, kspace.Encoding(sens, kspace.full_mask(8)))
    np.testing.assert_allclose(y[0], kspace.fft2c(x), atol=1e-12)


def test_forward_zero_image():
    sens = unit_sensitivities(8, 8, 2)
    enc = kspace.Encoding(sens, kspace.full_mask(8))
    y = kspace.apply_forward(np.zeros((8, 8), complex), enc)
    assert np.abs(y).max() == 0.0


def test_forward_unsampled_columns_exactly_zero():
    rng = np.random.default_rng(3)
    x, sens, mask = _random_problem(rng, 16, 16, 3)
    y = kspace.apply_forward(x, kspace.Encoding(sens, mask))
    assert np.abs(y[:, :, ~mask.sampled]).max() == 0.0


def test_adjoint_identity_at_full_sampling():
    rng = np.random.default_rng(4)
    x, sens, _ = _random_problem(rng, 16, 16, 4)
    enc = kspace.Encoding(sens, kspace.full_mask(16))
    xhat = kspace.apply_adjoint(kspace.apply_forward(x, enc), enc)
    assert np.linalg.norm(xhat - x) / np.linalg.norm(x) < 1e-10


def test_adjoint_single_coil_reduces_to_ifft():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((1, 8, 8)) + 1j * rng.standard_normal((1, 8, 8))
    sens = unit_sensitivities(8, 8, 1)
    enc = kspace.Encoding(sens, kspace.full_mask(8))
    np.testing.assert_allclose(kspace.apply_adjoint(y, enc), kspace.ifft2c(y[0]), atol=1e-12)


@pytest.mark.parametrize("coils", [1, 4, 8])
def test_adjointness_property(coils):
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        h = int(rng.integers(8, 65))
        w = int(rng.integers(8, 65))
        x, sens, mask = _random_problem(rng, h, w, coils, accel=int(rng.integers(2, 5)))
        y = rng.standard_normal((coils, h, w)) + 1j * rng.standard_normal((coils, h, w))
        enc = kspace.Encoding(sens, mask)
        lhs = np.vdot(kspace.apply_forward(x, enc), y)
        rhs = np.vdot(x, kspace.apply_adjoint(y, enc))
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


def _check_operators(rng, x, sens, mask):
    """The bound operators against per-coil loops: the forward equals fft2c's
    values, and the adjoint ifft2c's byte for byte."""
    enc = kspace.Encoding(sens, mask)
    ref = np.stack([_fft2c_slice(s * x) for s in sens]) * mask.sampled
    y = kspace.apply_forward(x, enc)
    assert y.dtype == np.complex128 and np.array_equal(y, ref)
    assert not y[..., ~mask.sampled].any()
    k = _complex(rng, sens.shape)
    ref_ifft2c = np.zeros(x.shape, dtype=np.complex128)
    for s, ks in zip(sens, k * mask.sampled):
        ref_ifft2c += np.conj(s) * _fft2c_slice(ks, inverse=True)
    adj = kspace.apply_adjoint(k, enc)
    assert adj.tobytes() == ref_ifft2c.tobytes()
    lhs, rhs = np.vdot(y, k), np.vdot(x, adj)
    assert abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(k)) < 1e-10
    return k


@pytest.mark.parametrize("extents", [(16, 16), (33, 33), (48, 64), (96, 96)])
@pytest.mark.parametrize("accel", [1, 2, 4, 8])
def test_operators_equal_per_coil_loops(extents, accel):
    rng = np.random.default_rng(accel)
    h, w = extents
    x, sens = _complex(rng, extents), _complex(rng, (8, h, w))
    mask = kspace.make_equispaced_mask(w, accel, 0.08, rng)
    k = _check_operators(rng, x, sens, mask)
    ref_zf = kspace.rss(np.stack([_fft2c_slice(ks, inverse=True) for ks in k]))
    assert kspace.zero_filled_rss(k).tobytes() == ref_zf.tobytes()


@pytest.mark.parametrize("extents", [(16, 16), (33, 33), (48, 64), (33, 20), (96, 96)])
@pytest.mark.parametrize("accel", [1, 2, 4, 8])
@pytest.mark.parametrize("coils", [1, 8])
def test_bound_operators_equal_per_coil_loops(extents, accel, coils):
    rng = np.random.default_rng([coils, accel, *extents])
    h, w = extents
    x, sens = _complex(rng, extents), kspace.simulate_sensitivities(h, w, coils, rng=rng)
    _check_operators(rng, x, sens, kspace.make_equispaced_mask(w, accel, 0.08, rng))


@pytest.mark.parametrize("cls", [kspace.Encoding, kspace.HybridEncoding],
                         ids=lambda cls: cls.__name__)
def test_operator_is_read_only_and_repeatable(cls):
    rng = np.random.default_rng(11)
    x, sens, mask = _random_problem(rng, 24, 20, 4)
    y = kspace.apply_forward(x, kspace.Encoding(sens, mask)) + _complex(rng, sens.shape)
    before = [a.tobytes() for a in (sens, mask.sampled, y)]
    hybrid = cls is kspace.HybridEncoding
    args = (sens, mask, y) if hybrid else (sens, mask)
    names = ("sens", "conj", "cols") + (("dft", "idft", "y_h") if hybrid else ())
    op = cls(*args)
    for name in names:
        arr = getattr(op, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[...] = 0
    assert sens.flags.writeable  # the operator holds its own copy of the maps
    fx = kspace.apply_forward(x, op)
    assert kspace.apply_forward(x, op).tobytes() == fx.tobytes()
    adj = kspace.apply_adjoint(fx, op)
    assert kspace.apply_adjoint(fx, op).tobytes() == adj.tobytes()
    assert [a.tobytes() for a in (sens, mask.sampled, y)] == before
    again = cls(*args)
    for name in names:
        assert getattr(again, name).tobytes() == getattr(op, name).tobytes(), name


def test_operators_reject_mismatched_extents():
    rng = np.random.default_rng(9)
    x, sens, mask = _random_problem(rng, 16, 16, 2)
    y = kspace.apply_forward(x, kspace.Encoding(sens, mask))
    narrow = kspace.make_equispaced_mask(12, 4, 0.08, rng)
    with pytest.raises(ValueError, match="sensitivity extents"):
        kspace.apply_forward(x, kspace.Encoding(sens[:, :, :12], narrow))
    with pytest.raises(ValueError, match="sensitivity extents"):
        kspace.apply_adjoint(y, kspace.Encoding(sens[:, :12], mask))
    with pytest.raises(ValueError, match="mask width"):
        kspace.Encoding(sens, narrow)
    with pytest.raises(ValueError, match="mask width"):
        kspace.Encoding(sens[:, :, :12], mask)
    with pytest.raises(ValueError, match="coils, h, w"):
        kspace.Encoding(sens[0], mask)


@pytest.mark.parametrize("y_coils,sens_coils", [(8, 4), (4, 8)])
def test_adjoint_rejects_mismatched_coil_counts(y_coils, sens_coils):
    rng = np.random.default_rng(10)
    _, sens, mask = _random_problem(rng, 16, 16, sens_coils)
    y = rng.standard_normal((y_coils, 16, 16)) + 1j * rng.standard_normal((y_coils, 16, 16))
    with pytest.raises(ValueError, match=f"k-space has {y_coils} coils, sensitivities {sens_coils}"):
        kspace.apply_adjoint(y, kspace.Encoding(sens, mask))


# ---------------------------------------------------------------------------
# The hybrid (h, k_w) operator B = M F_w S against the full k-space operator.
# ---------------------------------------------------------------------------


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


_hybrid_extents = pytest.mark.parametrize("extents", [(16, 16), (33, 33), (48, 64), (33, 20), (96, 96)])
_hybrid_accel = pytest.mark.parametrize("accel", [1, 2, 4, 8])
_hybrid_coils = pytest.mark.parametrize("coils", [1, 8])


def _hybrid_problem(extents, accel, coils):
    """(rng, x, sens, mask, enc, y): an image, maps and a mask, and a noisy
    measurement of another image under them."""
    rng = np.random.default_rng([7, coils, accel, *extents])
    h, w = extents
    x, sens = _complex(rng, extents), kspace.simulate_sensitivities(h, w, coils, rng=rng)
    mask = kspace.make_equispaced_mask(w, accel, 0.08, rng)
    enc = kspace.Encoding(sens, mask)
    y = kspace.apply_forward(_complex(rng, extents), enc) + _complex(rng, sens.shape) * mask.sampled
    return rng, x, sens, mask, enc, y


@_hybrid_extents
@_hybrid_accel
@_hybrid_coils
def test_hybrid_data_term_and_gradient_equal_full_kspace(extents, accel, coils):
    rng, x, sens, mask, enc, y = _hybrid_problem(extents, accel, coils)
    op = kspace.HybridEncoding(sens, mask, y)
    assert op.y_h.shape == (coils, extents[0], mask.n_sampled)
    resid, resid_h = kspace.apply_forward(x, enc) - y, kspace.apply_forward(x, op) - op.y_h
    assert resid_h.shape == op.y_h.shape
    norm, norm_h = np.linalg.norm(resid), np.linalg.norm(resid_h)
    assert abs(norm_h - norm) / norm < 1e-13
    assert _rel(kspace.apply_adjoint(resid_h, op), kspace.apply_adjoint(resid, enc)) < 1e-13
    assert _rel(kspace.apply_adjoint(op.y_h, op), kspace.apply_adjoint(y, enc)) < 1e-13
    r = _complex(rng, op.y_h.shape)
    lhs, rhs = np.vdot(kspace.apply_forward(x, op), r), np.vdot(x, kspace.apply_adjoint(r, op))
    assert abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(r)) < 1e-13


@_hybrid_extents
@_hybrid_accel
@_hybrid_coils
def test_hybrid_gemm_matches_fft_reference(extents, accel, coils):
    rng, x, sens, mask, _, y = _hybrid_problem(extents, accel, coils)
    op = kspace.HybridEncoding(sens, mask, y)
    forward, adjoint = hybrid_fft_reference(sens, mask)
    r = _complex(rng, op.y_h.shape)
    assert _rel(kspace.apply_forward(x, op), forward(x)) < 1e-13
    assert _rel(kspace.apply_adjoint(r, op), adjoint(r)) < 1e-13


@pytest.mark.parametrize("width, accel", [(16, 2), (17, 4), (32, 4), (64, 8)])
def test_hybrid_dft_equals_identity_fft_construction(width, accel):
    rng = np.random.default_rng(width)
    sens = kspace.simulate_sensitivities(width, width, 2, rng=rng)
    mask = kspace.make_equispaced_mask(width, accel, 0.08, rng)
    op = kspace.HybridEncoding(sens, mask, _complex(rng, sens.shape))
    dft, idft = hybrid_dft_reference(width, np.flatnonzero(mask.sampled))
    assert op.dft.tobytes() == dft.tobytes() and op.idft.tobytes() == idft.tobytes()
    assert op.dft.flags.c_contiguous and op.idft.flags.c_contiguous


@pytest.mark.parametrize("inverse", [False, True])
def test_dft_matrix_is_built_once_and_read_only(inverse):
    m = kspace.dft_matrix(12, inverse)
    assert kspace.dft_matrix(12, inverse) is m and not m.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 0
    x = _complex(np.random.default_rng(3), (12, 5))
    want = kspace.ifft1c(x, 0) if inverse else kspace.fft1c(x, 0)
    assert _rel(m @ x, want) < 1e-14


def test_hybrid_rejects_mismatched_shapes():
    rng = np.random.default_rng(13)
    x, sens, mask = _random_problem(rng, 16, 16, 2)
    y = kspace.apply_forward(x, kspace.Encoding(sens, mask))
    with pytest.raises(ValueError, match="k-space has 3 coils, sensitivities 2"):
        kspace.HybridEncoding(sens, mask, np.concatenate([y, y[:1]]))
    with pytest.raises(ValueError, match="sensitivity extents"):
        kspace.HybridEncoding(sens, mask, y[:, :12])
    with pytest.raises(ValueError, match="coils, h, w"):
        kspace.HybridEncoding(sens, mask, y[0])
    with pytest.raises(ValueError, match="mask width"):
        kspace.HybridEncoding(sens[..., :12], mask, y[..., :12])
    op = kspace.HybridEncoding(sens, mask, y)
    for bad in (x[:12], x[:, :12], x[None]):
        with pytest.raises(ValueError, match="image shape"):
            kspace.apply_forward(bad, op)
    for bad in (op.y_h[:1], op.y_h[:, :12], y, op.y_h[0]):
        with pytest.raises(ValueError, match="residual shape"):
            kspace.apply_adjoint(bad, op)


_BLAS_DIGEST = """
import hashlib
import numpy as np
from shiftmri import kspace
rng = np.random.default_rng(21)
x = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
sens = kspace.simulate_sensitivities(64, 64, 8, rng=rng)
mask = kspace.make_equispaced_mask(64, 4, 0.08, rng)
y = rng.standard_normal((8, 64, 64)) + 1j * rng.standard_normal((8, 64, 64))
op = kspace.HybridEncoding(sens, mask, y)
r = rng.standard_normal(op.y_h.shape) + 1j * rng.standard_normal(op.y_h.shape)
digest = hashlib.sha256(kspace.apply_forward(x, op).tobytes())
digest.update(kspace.apply_adjoint(r, op).tobytes())
print(digest.hexdigest())
"""


def test_hybrid_bytes_do_not_depend_on_blas_threads():
    """B x and B^H r run as GEMMs; their bytes are the same whether OpenBLAS
    runs one thread or two."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _BLAS_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


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
    sens = unit_sensitivities(8, 8, 1)
    y = kspace.apply_forward(x, kspace.Encoding(sens, kspace.full_mask(8)))
    np.testing.assert_allclose(kspace.zero_filled_rss(y), np.abs(x), atol=1e-12)
    assert np.abs(kspace.zero_filled_rss(np.zeros((2, 8, 8), complex))).max() == 0.0


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
def test_noise_model_rejects_unusable_sigma(sigma):
    y = np.ones((2, 4, 8), dtype=complex)
    with pytest.raises(ValueError, match=r"^add_noise sigma must be finite and >= 0, got "):
        kspace.add_noise(y, kspace.full_mask(8), sigma, 0)


def test_noise_model_examples():
    rng = np.random.default_rng(8)
    mask = kspace.make_equispaced_mask(100, 2, 0.08, rng)
    y = np.zeros((8, 125, 100), dtype=complex)
    same = kspace.add_noise(y, mask, 0.0, 1)
    assert np.abs(same).max() == 0.0
    sigma = 0.7
    noisy = kspace.add_noise(y, mask, sigma, 2)
    rng = kspace.rng_from(2, 0x7015E)  # the noise stream of seed 2
    z = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    np.testing.assert_array_equal(noisy, z * (sigma / np.sqrt(2.0)) * mask.sampled)
    assert np.abs(noisy[:, :, ~mask.sampled]).max() == 0.0
    samples = noisy[:, :, mask.sampled]
    components = np.concatenate([samples.real.ravel(), samples.imag.ravel()])
    assert components.size >= 1e5
    assert abs(np.var(components) - sigma**2 / 2) / (sigma**2 / 2) < 0.03


# ---------------------------------------------------------------------------
# One-axis centered transform.
# ---------------------------------------------------------------------------


def test_ifft1c_preserves_energy():
    rng = np.random.default_rng(10)
    vol = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    assert abs(np.sum(np.abs(kspace.ifft1c(vol, 0)) ** 2) - np.sum(np.abs(vol) ** 2)) < 1e-10


def test_ifft1c_along_one_axis_matches_explicit_formula():
    rng = np.random.default_rng(11)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    vol = f[:, None, None] * g[None, :, :]
    got = kspace.ifft1c(vol, 0)
    f_img = centered_idft_reference(f)
    for d in range(4):
        np.testing.assert_allclose(got[d], f_img[d] * g, atol=1e-12)
