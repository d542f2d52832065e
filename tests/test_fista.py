import numpy as np
import pytest

from shiftmri import data as dm
from shiftmri import fista, kspace
from shiftmri.metrics import SsimConfig, ssim


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
    ("lam", float("nan")), ("lam", float("inf")), ("lam", -1e-3),
    ("step_size", float("nan")), ("step_size", float("inf")), ("step_size", 0.0),
    ("tolerance", float("nan")), ("tolerance", float("inf")), ("tolerance", -1e-6),
    ("max_iters", 0),
])
def test_fista_config_rejects_out_of_domain_values(field, value):
    with pytest.raises(ValueError, match=field):
        fista.FistaConfig(**{field: value})


def _phantom_problem(seed, snr_db=40.0, accel=4):
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=4, snr_db=snr_db, seed=seed)
    item = dm.generate(spec, 1).items[0]
    mask = kspace.mask_for_volume(32, accel, 0.08, seed, 0)
    y = dm.simulate_measurements(item, mask, seed + 1)
    return item, mask, y


def test_fista_lambda_zero_full_mask_recovers():
    item, _, _ = _phantom_problem(1)
    fm = kspace.full_mask(32)
    enc = kspace.Encoding(item.sens, fm)
    y = kspace.apply_forward(item.image, enc)
    res = fista.fista_l1(y, item.sens, fm, fista.FistaConfig(lam=0.0, max_iters=50))
    assert np.linalg.norm(res.image - item.image) / np.linalg.norm(item.image) < 1e-8
    # data consistency at the fixed point
    resid = kspace.apply_forward(res.image, enc) - y
    assert np.linalg.norm(resid) / np.linalg.norm(y) < 1e-8


def test_fista_huge_lambda_shrinks_to_zero():
    item, mask, y = _phantom_problem(2)
    res = fista.fista_l1(y, item.sens, mask, fista.FistaConfig(lam=1e9, max_iters=30))
    assert np.linalg.norm(res.image) < 1e-8


def test_fista_beats_zero_filled_at_4x():
    item, mask, y = _phantom_problem(3)
    target = kspace.ground_truth_rss(item.image, item.sens)
    cfg = SsimConfig(data_range=float(target.max()))
    recon = np.abs(fista.fista_l1(y, item.sens, mask,
                                  fista.FistaConfig(lam=1e-3, max_iters=100)).image)
    zf = kspace.zero_filled_rss(y)
    assert ssim(recon, target, cfg) - ssim(zf, target, cfg) >= 0.01


@pytest.mark.parametrize("seed", range(20))
def test_fista_objective_trace_monotone(seed):
    item, mask, y = _phantom_problem(100 + seed, snr_db=25.0)
    res = fista.fista_l1(y, item.sens, mask, fista.FistaConfig(lam=1e-3, max_iters=40))
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
    res = fista.fista_l1(y, item.sens, mask,
                         fista.FistaConfig(lam=1e-3, max_iters=40, step_size=step_size))
    assert res.restarts == len(calls) - 1 - res.iterations_run
    assert (res.restarts > 0) == restarted
    tr = res.objective_trace
    assert all(b <= a for a, b in zip(tr, tr[1:]))
    assert res.final_rel_change == abs(tr[-2] - tr[-1]) / abs(tr[-2])


def test_tune_lambda_single_grid_point():
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=2, snr_db=30, seed=4)
    ds = dm.generate(spec, 2)
    best, table = fista.tune_lambda(ds, [1e-3], fista.FistaConfig(max_iters=20))
    assert best == 1e-3
    assert set(table) == {1e-3}


def test_tune_lambda_deterministic_across_duplicates():
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=2, snr_db=30, seed=5)
    ds1 = dm.generate(spec, 2)
    ds2 = dm.generate(spec, 2)
    cfg = fista.FistaConfig(max_iters=25)
    b1, t1 = fista.tune_lambda(ds1, [1e-3, 1e-2], cfg, seed=0)
    b2, t2 = fista.tune_lambda(ds2, [1e-3, 1e-2], cfg, seed=0)
    assert b1 == b2
    assert t1 == t2


def test_tune_lambda_noise_direction():
    grid = [1e-4, 1e-3, 1e-2, 1e-1]
    cfg = fista.FistaConfig(max_iters=60)
    low = dm.generate(dm.DistributionSpec("low", extents=(32, 32), coils=4,
                                          snr_db=30, seed=100), 3)
    high = dm.generate(dm.DistributionSpec("high", extents=(32, 32), coils=4,
                                           snr_db=10, seed=100), 3)
    best_low, _ = fista.tune_lambda(low, grid, cfg, seed=0)
    best_high, _ = fista.tune_lambda(high, grid, cfg, seed=0)
    assert best_low < best_high


def test_tune_lambda_rejects_empty():
    spec = dm.DistributionSpec("p", extents=(32, 32), coils=2, snr_db=30, seed=6)
    ds = dm.generate(spec, 1)
    with pytest.raises(ValueError):
        fista.tune_lambda(ds, [])
