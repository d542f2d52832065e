import hashlib

import numpy as np
import pytest

from shiftmri import data as dm
from shiftmri import fista, kspace
from shiftmri.metrics import ssim
from oracles import fista_full_kspace_reference, haar_dwt_reference, haar_idwt_reference


def test_haar_constant_image_has_no_detail():
    c = fista.haar_dwt(np.full((8, 8), 3.0), 2)
    detail = c.copy()
    detail[:2, :2] = 0.0
    assert np.abs(detail).max() < 1e-12


def test_haar_perfect_reconstruction_and_energy():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    c = fista.haar_dwt(x, 2)
    np.testing.assert_allclose(fista.haar_idwt(c, 2), x, atol=1e-12)
    assert abs(np.linalg.norm(c) - np.linalg.norm(x)) < 1e-12


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("shape", [(16, 24), (64, 64)])
def test_haar_equals_the_division_reference(shape, levels):
    # zeros of both signs planted in either part, and equal neighbours whose
    # differences are exact zeros
    rng = np.random.default_rng(levels)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x[::4] = x[1::4]
    x.real[rng.random(shape) < 0.2] = 0.0
    x.imag[rng.random(shape) < 0.2] = -0.0
    x.real[rng.random(shape) < 0.1] = -0.0
    for transform, reference in ((fista.haar_dwt, haar_dwt_reference),
                                 (fista.haar_idwt, haar_idwt_reference)):
        got, want = transform(x, levels), reference(x, levels)
        np.testing.assert_array_equal(got, want)
        for part in (np.real, np.imag):
            nonzero = part(want) != 0
            assert part(got)[nonzero].tobytes() == part(want)[nonzero].tobytes()


def test_haar_rejects_indivisible_extents():
    with pytest.raises(ValueError):
        fista.haar_dwt(np.zeros((12, 12)), 3)


def test_soft_threshold_examples():
    assert abs(fista.soft_threshold(np.array(3.0), 1.0) - 2.0) < 1e-15
    assert fista.soft_threshold(np.array(0.5 + 0.5j), 2.0) == 0.0
    np.testing.assert_allclose(fista.soft_threshold(np.array(4j), 1.0), 3j, atol=1e-15)
    with pytest.raises(ValueError):
        fista.soft_threshold(np.array(1.0), -0.1)


@pytest.mark.parametrize("field, value", [
    ("lam", float("nan")), ("lam", float("inf")), ("lam", -float("inf")), ("lam", -1e-3),
    ("max_iters", 0),
])
def test_fista_config_rejects_out_of_domain_values(monkeypatch, field, value):
    """fista_l1 refuses a λ or an iteration cap outside its domain."""
    item, mask, y = _phantom_problem(1)
    # the check comes before any work: no operator is built
    monkeypatch.setattr(kspace, "HybridEncoding", None)
    with pytest.raises(ValueError, match=rf"^{field} must be in "):
        fista.fista_l1(y, item.sens, mask, **{"lam": 1e-3, "max_iters": 10, field: value})


def _phantom_problem(seed, snr_db=40.0, accel=4, coils=4):
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=coils, snr_db=snr_db, seed=seed)
    item = dm.generate(spec, 1).items[0]
    mask = kspace.full_mask(32) if accel == 1 else kspace.mask_for_volume(32, accel, 0.08, seed, 0)
    y = dm.simulate_measurements(item, mask, seed + 1)
    return item, mask, y


def test_fista_lambda_zero_full_mask_recovers():
    item, _, _ = _phantom_problem(1)
    fm = kspace.full_mask(32)
    enc = kspace.Encoding(item.sens, fm)
    y = kspace.apply_forward(item.image, enc)
    res = fista.fista_l1(y, item.sens, fm, lam=0.0, max_iters=50)
    assert np.linalg.norm(res.image - item.image) / np.linalg.norm(item.image) < 1e-8
    # data consistency at the fixed point
    resid = kspace.apply_forward(res.image, enc) - y
    assert np.linalg.norm(resid) / np.linalg.norm(y) < 1e-8


def test_fista_huge_lambda_shrinks_to_zero():
    item, mask, y = _phantom_problem(2)
    res = fista.fista_l1(y, item.sens, mask, lam=1e9, max_iters=30)
    assert np.linalg.norm(res.image) < 1e-8


def test_fista_beats_zero_filled_at_4x():
    item, mask, y = _phantom_problem(3)
    target = kspace.ground_truth_rss(item.image, item.sens)
    data_range = float(target.max())
    recon = np.abs(fista.fista_l1(y, item.sens, mask, lam=1e-3, max_iters=100).image)
    zf = kspace.zero_filled_rss(y)
    assert ssim(recon, target, data_range) - ssim(zf, target, data_range) >= 0.01


@pytest.mark.parametrize("seed", range(20))
def test_fista_objective_trace_monotone(seed):
    item, mask, y = _phantom_problem(100 + seed, snr_db=25.0)
    res = fista.fista_l1(y, item.sens, mask, lam=1e-3, max_iters=40)
    tr = res.objective_trace
    assert len(tr) == res.iterations_run
    assert all(tr[i + 1] <= tr[i] + 1e-12 for i in range(len(tr) - 1))
    assert all(np.isfinite(v) for v in tr)


@pytest.mark.parametrize("step_size, restarted", [(1.0, False), (1.9, True)])
def test_fista_counts_restarts(monkeypatch, step_size, restarted):
    # an over-long step makes the momentum candidate overshoot; every restart
    # scores one extra candidate, so the objective is evaluated once at the
    # start, once per iteration and once more per restart
    item, mask, y = _phantom_problem(100, snr_db=25.0)
    calls = []
    objective = fista._objective
    monkeypatch.setattr(fista, "_objective", lambda *a: calls.append(1) or objective(*a))
    monkeypatch.setattr(fista, "STEP_SIZE", step_size)
    res = fista.fista_l1(y, item.sens, mask, lam=1e-3, max_iters=40)
    assert res.restarts == len(calls) - 1 - res.iterations_run
    assert (res.restarts > 0) == restarted
    tr = res.objective_trace
    assert all(b <= a for a, b in zip(tr, tr[1:]))
    assert res.final_rel_change == abs(tr[-2] - tr[-1]) / abs(tr[-2])


def test_fista_image_keeps_its_bytes():
    """A solve that TOLERANCE stops before max_iters keeps the digest its image
    had when STEP_SIZE, TOLERANCE and WAVELET_LEVELS were config fields."""
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=4, snr_db=25.0, seed=22)
    item = dm.generate(spec, 1).items[0]
    mask = kspace.mask_for_volume(32, 4, 0.08, 22, 0)
    y = dm.simulate_measurements(item, mask, 23)
    res = fista.fista_l1(y, item.sens, mask, lam=1e-3, max_iters=200)
    assert res.iterations_run == 194
    assert hashlib.sha256(res.image.tobytes()).hexdigest() == (
        "5c970d31d964d4f626158f17405bbbeec5488ac4dbcb2bd94525d27eebd07197")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("lam, iterations, digest", [
    (0.0, 60, "671c8635d064d56e8a1996db6e09ea3586867e8e739ac3e26d13bf69952c6501"),
    (1e-3, 60, "7fd956b2dc6fbdb068ea67ef7ccafef36d44f9a68d0dfc7d1249ff2eddc62820"),
    (1e9, 2, "1ab7367c0e1395d55b324438f30a50f8250fa62a7febd8f9fb6714206a499d86"),
])
def test_fista_result_keeps_its_bytes(lam, iterations, digest):
    """Image, objective trace and iteration count, as they were when lam and
    max_iters were the fields of a config object."""
    item, mask, y = _phantom_problem(9, snr_db=25.0)
    res = fista.fista_l1(y, item.sens, mask, lam, max_iters=60)
    assert res.iterations_run == iterations
    assert _digest(res.image, np.array(res.objective_trace),
                   np.array([res.iterations_run])) == digest


def test_tune_lambda_table_keeps_its_bytes():
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=2, snr_db=20, seed=12)
    ds = dm.generate(spec, 2)
    best, table = fista.tune_lambda(ds, [0.0, 1e-3, 1e-2], max_iters=20, acceleration=4.0,
                                    seed=3)
    assert _digest(np.array([best, *table]), np.array(list(table.values()))) == (
        "7e1bd69e3d7205ae9864584861a467e612d5a6a7fa66d2ecd0028579f97da32d")


@pytest.mark.parametrize("accel", [1, 2, 4, 8])
@pytest.mark.parametrize("coils", [1, 4])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_fista_matches_full_kspace_loop(accel, coils, lam):
    item, mask, y = _phantom_problem(100, snr_db=25.0, accel=accel, coils=coils)
    res = fista.fista_l1(y, item.sens, mask, lam, max_iters=40)
    ref = fista_full_kspace_reference(y, item.sens, mask, lam, max_iters=40)
    assert res.iterations_run == ref.iterations_run
    rel = np.linalg.norm(res.image - ref.image) / np.linalg.norm(ref.image)
    assert rel < 1e-12
    # At full sampling E^H E = I, and for one coil E E^H = I on the sampled
    # columns, so at lam 0 the start E^H y is already a least-squares minimizer,
    # and at full sampling the first unit step lands on the minimizer for any
    # lam. From there on a restart compares two objectives that are equal to
    # rounding, so its count is rounding's call; for one coil at lam 0 the
    # objectives themselves are rounding noise beside the data energy.
    tied = accel == 1 or (coils == 1 and lam == 0)
    if not tied:
        assert res.restarts == ref.restarts
    floor = 0.5 * float(np.sum(np.abs(y) ** 2)) if coils == 1 and lam == 0 else 0.0
    for a, b in zip(res.objective_trace, ref.objective_trace):
        assert abs(a - b) <= 1e-12 * max(abs(b), floor)


@pytest.mark.parametrize("step_size", [1.0, 1.9])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_fista_runs_one_dwt_per_prox_step(monkeypatch, step_size, lam):
    # the objective reads ||W x||_1 off the prox step's coefficients, so the
    # only other DWT is the starting point's
    item, mask, y = _phantom_problem(100, snr_db=25.0)
    calls = {"haar_dwt": 0, "haar_idwt": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(fista, name, counted(name, getattr(fista, name)))
    monkeypatch.setattr(fista, "STEP_SIZE", step_size)
    res = fista.fista_l1(y, item.sens, mask, lam=lam, max_iters=40)
    assert calls["haar_dwt"] == 1 + res.iterations_run + res.restarts
    assert calls["haar_idwt"] == res.iterations_run + res.restarts
    assert step_size == 1.0 or res.restarts > 0


def test_tune_lambda_single_grid_point():
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=2, snr_db=30, seed=4)
    ds = dm.generate(spec, 2)
    best, table = fista.tune_lambda(ds, [1e-3], max_iters=20, acceleration=4.0, seed=0)
    assert best == 1e-3
    assert set(table) == {1e-3}


def test_tune_lambda_deterministic_across_duplicates():
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=2, snr_db=30, seed=5)
    ds1 = dm.generate(spec, 2)
    ds2 = dm.generate(spec, 2)
    b1, t1 = fista.tune_lambda(ds1, [1e-3, 1e-2], max_iters=25, acceleration=4.0, seed=0)
    b2, t2 = fista.tune_lambda(ds2, [1e-3, 1e-2], max_iters=25, acceleration=4.0, seed=0)
    assert b1 == b2
    assert t1 == t2


def test_tune_lambda_ties_break_toward_smaller_lambda():
    # lambda 1e-300 shrinks no coefficient and adds nothing to the objective,
    # so it scores exactly as lambda 0 does
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=2, snr_db=30, seed=7)
    ds = dm.generate(spec, 2)
    for grid in ([1e-300, 0.0], [0.0, 1e-300]):
        best, table = fista.tune_lambda(ds, grid, max_iters=10, acceleration=4.0, seed=0)
        assert table[0.0] == table[1e-300]
        assert best == 0.0


def test_tune_lambda_noise_direction():
    grid = [1e-4, 1e-3, 1e-2, 1e-1]
    low = dm.generate(dm.DistributionSpec("low", extents=(32, 32), coils=4,
                                          snr_db=30, seed=100), 3)
    high = dm.generate(dm.DistributionSpec("high", extents=(32, 32), coils=4,
                                           snr_db=10, seed=100), 3)
    best_low, _ = fista.tune_lambda(low, grid, max_iters=60, acceleration=4.0, seed=0)
    best_high, _ = fista.tune_lambda(high, grid, max_iters=60, acceleration=4.0, seed=0)
    assert best_low < best_high


def test_tune_lambda_solves_at_each_grid_lambda_and_the_cap(monkeypatch):
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=2, snr_db=30, seed=8)
    ds = dm.generate(spec, 2)
    solved, solve = [], fista.fista_l1

    def recording(y, sens, mask, lam, max_iters):
        solved.append((lam, max_iters))
        return solve(y, sens, mask, lam, max_iters)

    monkeypatch.setattr(fista, "fista_l1", recording)
    fista.tune_lambda(ds, [0.0, 1e-2], max_iters=3, acceleration=4.0, seed=0)
    assert solved == [(0.0, 3), (1e-2, 3)] * 2


def test_tune_lambda_rejects_empty():
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=2, snr_db=30, seed=6)
    ds = dm.generate(spec, 1)
    with pytest.raises(ValueError):
        fista.tune_lambda(ds, [], max_iters=10, acceleration=4.0, seed=0)
