"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with -s to see
them live). Numbers frozen here were computed with the independent oracles in
oracles.py or recorded from seeded calibration runs.
"""

import json
import time

import numpy as np
import pytest

import shiftmri.autodiff as ad
from shiftmri import data as dm
from shiftmri import fista, harness, kspace, learned, metrics, toy
from oracles import (grad_check, mask_counts_reference, overfit_scan_reference,
                     ssim_reference)
from test_autodiff import OP_KINDS, _op_instances


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_operator_algebra():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_adj = 0.0
    worst_unit = 0.0
    for _ in range(100):
        h = int(rng.integers(8, 65))
        w = int(rng.integers(8, 65))
        coils = int(rng.choice([1, 4, 8]))
        accel = int(rng.integers(2, 5))
        x = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
        sens = kspace.simulate_sensitivities(h, w, coils, rng=rng)
        mask = kspace.make_equispaced_mask(w, accel, 0.08, rng)
        y = rng.standard_normal((coils, h, w)) + 1j * rng.standard_normal((coils, h, w))
        enc = kspace.Encoding(sens, mask)
        lhs = np.vdot(kspace.apply_forward(x, enc), y)
        rhs = np.vdot(x, kspace.apply_adjoint(y, enc))
        worst_adj = max(worst_adj,
                        abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y)))
        k = kspace.fft2c(x)
        worst_unit = max(worst_unit,
                         abs(np.linalg.norm(k) - np.linalg.norm(x)) / np.linalg.norm(x),
                         np.abs(kspace.ifft2c(k) - x).max())
    elapsed = time.time() - start
    assert worst_adj < 1e-10
    assert worst_unit < 1e-12
    assert elapsed < 10.0
    _report(1, f"adjoint defect {worst_adj:.2e}, unitarity {worst_unit:.2e}, "
               f"100 instances in {elapsed:.1f}s")


def test_criterion_02_autodiff_finite_differences():
    start = time.time()
    # every op kind against a central directional derivative
    worst_kind = 0.0
    for kind in OP_KINDS:
        for seed in range(3):
            rng = np.random.default_rng(5000 + seed)
            builder, arrays = _op_instances(kind, rng)
            weight = None

            def scalarize(ls):
                nonlocal weight
                out = builder(ls)
                if out.data.shape == ():
                    return out
                if weight is None:
                    weight = np.random.default_rng(6000 + seed).standard_normal(out.data.shape)
                return ad.reduce_mean(ad.mul(out, ad.Tensor(weight)))

            with ad.Tape() as tape:
                leaves = [tape.leaf(a) for a in arrays]
                grads = ad.backward(tape, scalarize(leaves))
            direction = [rng.standard_normal(a.shape) for a in arrays]
            h = 1e-6
            fd = (float(scalarize([ad.Tensor(a + h * d) for a, d in zip(arrays, direction)]).data)
                  - float(scalarize([ad.Tensor(a - h * d) for a, d in zip(arrays, direction)]).data)) / (2 * h)
            analytic = sum(float(np.sum(grads[l.node_id].data * d))
                           for l, d in zip(leaves, direction))
            worst_kind = max(worst_kind, abs(analytic - fd) / max(1e-8, abs(fd)))
    assert worst_kind < 1e-4

    # full model losses on 8x8 inputs, per-parameter central differences
    spec = dm.DistributionSpec("fd", extents=(16, 16), coils=2, snr_db=30, seed=1)
    item = dm.generate(spec, 1).items[0]
    image = item.image[:8, :8]
    sens = item.sens[:, :8, :8]
    sens = sens / np.sqrt(np.sum(np.abs(sens) ** 2, axis=0))
    mask = kspace.make_equispaced_mask(8, 2, 0.08, np.random.default_rng(2))
    y = kspace.apply_forward(image, kspace.Encoding(sens, mask))
    target = kspace.ground_truth_rss(image, sens)
    data_range = float(target.max())

    results = {}
    for kind, model_cfg in (
        ("unet_lite", learned.ModelConfig("unet_lite", channels=2, pool_levels=1, seed=0)),
        ("varnet_lite", learned.ModelConfig("varnet_lite", cascades=1,
                                            denoiser_channels=2, seed=0)),
    ):
        model = learned.construct_model(model_cfg)
        params = model.split(model.init_params())
        if kind == "varnet_lite":
            # random denoiser output layer so the loss is not at a fixed point
            rng = np.random.default_rng(3)
            params = [rng.standard_normal(p.shape) * 0.3 if p.shape else p
                      for p in params]

        def loss_fn(leaves):
            out = model.reconstruct(leaves, y, sens, mask)
            return ad.ssim_loss(out, ad.Tensor(target), data_range)

        results[kind] = grad_check(loss_fn, params, h=1e-5)
        assert results[kind] < 1e-4, kind
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(2, f"op kinds worst {worst_kind:.2e}; unet {results['unet_lite']:.2e}, "
               f"varnet {results['varnet_lite']:.2e} in {elapsed:.1f}s")


def test_criterion_03_mask_construction():
    start = time.time()
    checked = 0
    for width in (64, 100, 368):
        n_acs = int(np.floor(0.08 * width + 0.5))
        for accel in (2, 3, 4, 8, 16):
            target = int(np.floor(width / accel + 0.5))
            if target <= n_acs:
                # 8% ACS alone exceeds the budget; the documented error path
                with pytest.raises(kspace.InfeasibleMaskError):
                    kspace.make_equispaced_mask(width, accel, 0.08)
                continue
            for seed in range(10):
                mask = kspace.make_equispaced_mask(width, accel, 0.08,
                                                   np.random.default_rng(seed))
                total, _, _ = mask_counts_reference(mask.sampled)
                assert abs(total - target) <= 1
                start_col = width // 2 - n_acs // 2
                assert mask.sampled[start_col : start_col + n_acs].all()
                assert mask.acs_count == n_acs
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(3, f"{checked} feasible (W, R, seed) cells verified by count oracle "
               f"in {elapsed * 1000:.0f}ms; R=16 cells correctly infeasible at 8% ACS")


def test_criterion_04_fista():
    start = time.time()
    # monotone objective on 20 seeded problems
    for seed in range(20):
        spec = dm.DistributionSpec("f", extents=(32, 32), coils=4, snr_db=25,
                                   seed=300 + seed)
        item = dm.generate(spec, 1).items[0]
        mask = kspace.mask_for_volume(32, 4, 0.08, seed, 0)
        y = dm.simulate_measurements(item, mask, seed)
        res = fista.fista_l1(y, item.sens, mask, lam=1e-3, max_iters=40)
        tr = res.objective_trace
        assert all(tr[i + 1] <= tr[i] + 1e-12 for i in range(len(tr) - 1))
    # lambda=0 full-mask recovery
    spec = dm.DistributionSpec("f0", extents=(32, 32), coils=4, snr_db=30, seed=7)
    item = dm.generate(spec, 1).items[0]
    fm = kspace.full_mask(32)
    y0 = kspace.apply_forward(item.image, kspace.Encoding(item.sens, fm))
    res = fista.fista_l1(y0, item.sens, fm, lam=0.0, max_iters=50)
    rel = np.linalg.norm(res.image - item.image) / np.linalg.norm(item.image)
    assert rel < 1e-8
    # 4x margin over zero-filled on the seeded phantom family
    margins = []
    for seed in range(5):
        spec = dm.DistributionSpec("fam", extents=(32, 32), coils=4, snr_db=40,
                                   seed=400 + seed)
        item = dm.generate(spec, 1).items[0]
        mask = kspace.mask_for_volume(32, 4, 0.08, seed, 0)
        y = dm.simulate_measurements(item, mask, seed)
        target = kspace.ground_truth_rss(item.image, item.sens)
        data_range = float(target.max())
        recon = np.abs(fista.fista_l1(y, item.sens, mask, lam=1e-3, max_iters=100).image)
        margins.append(metrics.ssim(recon, target, data_range)
                       - metrics.ssim(kspace.zero_filled_rss(y), target, data_range))
    assert min(margins) >= 0.01
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(4, f"20 monotone traces; recovery {rel:.1e}; min 4x margin "
               f"{min(margins):.3f} in {elapsed:.1f}s")


def test_criterion_05_lambda_tuning_direction():
    start = time.time()
    grid = [1e-4, 1e-3, 1e-2, 1e-1]
    results = []
    for seed in range(5):
        low = dm.generate(dm.DistributionSpec("low", extents=(32, 32), coils=4,
                                              snr_db=30, seed=100 + seed), 3)
        high = dm.generate(dm.DistributionSpec("high", extents=(32, 32), coils=4,
                                               snr_db=10, seed=100 + seed), 3)
        best_low, _ = fista.tune_lambda(low, grid, max_iters=60, acceleration=4.0, seed=seed)
        best_high, _ = fista.tune_lambda(high, grid, max_iters=60, acceleration=4.0, seed=seed)
        assert best_high > best_low, f"seed {seed}"
        results.append((best_low, best_high))
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(5, f"grid-optimal lambda(high noise) > lambda(low noise) on 5/5 seeds "
               f"{results} in {elapsed:.1f}s")


def test_criterion_06_toy_subspace_claim():
    start = time.time()
    world = toy.SubspaceWorld(64, 4, 0.05, 0.5, seed=0)
    table = toy.mse_table(world, count=100_000, seed=0)
    lines = []
    for which in ("P", "Q"):
        t = table[which]
        margin = t["pooled_linear"] - t["specialist_linear"]
        se = np.hypot(t["pooled_linear_se"], t["specialist_linear_se"])
        assert margin > 5 * se, which
        assert t["adaptive_nonlinear"] <= 1.05 * t["specialist_linear"], which
        lines.append(f"{which}: margin {margin:.4f} ({margin / se:.0f}x SE)")
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(6, "; ".join(lines) + f"; nonlinear within 5% of specialists "
                                  f"in {elapsed:.1f}s")


def test_criterion_07_ssim_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        x = rng.random((16, 16))
        y = rng.random((16, 16))
        got = metrics.ssim(x, y, data_range=1.0)
        worst = max(worst, abs(got - ssim_reference(x, y, data_range=1.0)))
    assert worst < 1e-8
    x = rng.random((16, 16))
    y = rng.random((16, 16))
    assert metrics.region_ssim(x, y, (0, 0, 16, 16)) == metrics.ssim(x, y)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(7, f"50 pairs vs direct reference, worst dev {worst:.1e}; "
               f"region(full box) == ssim in {elapsed:.1f}s")


def test_criterion_08_metric_fixtures():
    start = time.time()
    rng = np.random.default_rng(2)
    t = rng.random((12, 12))
    affine_dev = 0.0
    for a, b in ((2.0, 3.0), (0.25, -1.0), (1.75, 4.0)):
        out, _ = metrics.normalize_output(a * t + b, t)
        affine_dev = max(affine_dev, np.abs(out - t).max())
    assert affine_dev < 1e-12
    assert metrics.laplacian_artifact_score(t, t) == 0.0
    ramp = np.arange(10.0)[:, None] * np.ones((1, 10)) * 0.3
    assert metrics.laplacian_artifact_score(np.zeros_like(ramp), ramp) < 1e-20
    fit = metrics.effective_robustness_fit([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)], [])
    assert abs(fit.slope - 0.5) < 1e-12
    assert abs(fit.intercept - 1.0 / 6.0) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(8, f"normalize affine dev {affine_dev:.1e}; Laplacian zeros exact; "
               f"OLS matches normal equations in {elapsed:.2f}s")


def test_criterion_09_similarity_methodology(monkeypatch):
    start = time.time()
    rng = np.random.default_rng(3)
    test_f = rng.standard_normal((6, 10))
    test_f /= np.linalg.norm(test_f, axis=1, keepdims=True)
    a = rng.standard_normal((4, 10))
    b = rng.standard_normal((3, 10))
    small = metrics.nn_similarity(test_f, a).similarities
    big = metrics.nn_similarity(test_f, np.vstack([a, b])).similarities
    assert np.all(big >= small - 1e-15)
    assert abs(metrics.nn_similarity(test_f, test_f).mean - 1.0) < 1e-12

    # seeded 3-source diversity experiment: similarity tracks transfer SSIM
    ex = (48, 48)
    target = dm.DistributionSpec("T", contrast=dm.Contrast(gamma=1.0),
                                 extents=ex, coils=4, snr_db=30, seed=7)
    sources = [
        dm.DistributionSpec("S0", contrast=dm.Contrast(gamma=1.05),
                            extents=ex, coils=4, snr_db=30, seed=70),
        dm.DistributionSpec("S1", contrast=dm.Contrast(gamma=2.2),
                            extents=ex, coils=4, snr_db=30, seed=80),
        dm.DistributionSpec("S2", shape_family="polygon-phantom",
                            contrast=dm.Contrast(gamma=1.0),
                            extents=ex, coils=4, snr_db=30, seed=90),
    ]
    _, ttest = dm.train_test(target, 24, 12)
    monkeypatch.setattr(metrics, "PROJECTION_DIM", 256)
    monkeypatch.setattr(metrics, "PATCHES_PER_ITEM", 64)
    tf = metrics.extract_features(ttest, seed=0)
    ssims, sims = [], []
    for src in sources:
        tr, _ = dm.train_test(src, 24, 8)
        cks, _ = learned.train(learned.ModelConfig("unet_lite", seed=0), tr,
                               learned.TrainConfig(epochs=6, seed=0))
        scores, _ = learned.evaluate_params(cks[-1].config, [cks[-1].params], ttest, 0,
                                            kspace.ACCELERATION, kspace.CENTER_FRACTION, False)
        ssims.append(dm.column_means(scores)[0])
        feats = metrics.extract_features(tr, seed=0)
        sims.append(metrics.nn_similarity(tf, feats).mean)
    corr = metrics.pearson_corr(sims, ssims)
    assert corr > 0
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(9, f"superset monotone; identical mean 1; 3-source correlation "
               f"{corr:.2f} > 0 in {elapsed:.1f}s")


def test_criterion_10_joint_vs_separate_band():
    start = time.time()
    p_spec = dm.DistributionSpec("P", contrast=dm.Contrast(gamma=0.7),
                                 extents=(32, 32), coils=4, snr_db=30, seed=11)
    q_spec = dm.DistributionSpec("Q", contrast=dm.Contrast(gamma=1.6),
                                 extents=(32, 32), coils=4, snr_db=30, seed=22)
    from dataclasses import replace

    specialist = {"P": [], "Q": []}
    union_scores = {"P": [], "Q": []}
    for seed in range(5):
        train_p, test_p = dm.train_test(replace(p_spec, seed=p_spec.seed + 1000 * seed),
                                        24, 8)
        train_q, test_q = dm.train_test(replace(q_spec, seed=q_spec.seed + 1000 * seed),
                                        24, 8)
        union = dm.combine([train_p, train_q])
        mc = learned.ModelConfig("unet_lite", channels=8, pool_levels=2, seed=seed)
        tc = learned.TrainConfig(epochs=5, seed=seed)
        tests = {"P": test_p, "Q": test_q}
        for mid, train_set in (("P", train_p), ("Q", train_q), ("U", union)):
            cks, _ = learned.train(mc, train_set, tc)
            for dist, test_set in tests.items():
                scores, _ = learned.evaluate_params(mc, [cks[-1].params], test_set, seed,
                                                    kspace.ACCELERATION, kspace.CENTER_FRACTION,
                                                    False)
                mean = dm.column_means(scores)[0]
                if mid == dist:
                    specialist[dist].append(mean)
                elif mid == "U":
                    union_scores[dist].append(mean)
    lines = []
    for dist in ("P", "Q"):
        s = np.asarray(specialist[dist])
        u_mean = float(np.mean(union_scores[dist]))
        lo = s.mean() - 2 * s.std(ddof=1)
        hi = s.mean() + 2 * s.std(ddof=1)
        assert lo <= u_mean <= hi, (dist, lo, u_mean, hi)
        lines.append(f"{dist}: union {u_mean:.3f} in [{lo:.3f}, {hi:.3f}]")
    elapsed = time.time() - start
    assert elapsed < 1800.0
    _report(10, "; ".join(lines) + f" (5 seeds) in {elapsed:.0f}s")


def test_criterion_11_overfitting_detector_oracle(monkeypatch):
    start = time.time()
    rng = np.random.default_rng(4)
    for trial in range(200):
        n = int(rng.integers(5, 50))
        w = int(rng.integers(1, min(5, n - 1) + 1))
        peak = int(rng.integers(1, n))
        e = np.arange(n)
        up = rng.uniform(0.001, 0.02)
        tail = rng.uniform(0.0, 0.003)
        drop = rng.uniform(0.0, 0.01)
        id_t = np.where(e <= peak, up * e, up * peak + tail * (e - peak))
        ood_t = np.where(e <= peak, up * e, up * peak - drop * (e - peak))
        id_t = id_t + rng.normal(0, 1e-6, n)
        ood_t = ood_t + rng.normal(0, 1e-6, n)
        eps = float(rng.uniform(1e-4, 5e-3))
        delta = float(rng.uniform(0.0, 0.02))
        monkeypatch.setattr(harness, "OVERFIT_EPS", eps)
        monkeypatch.setattr(harness, "OVERFIT_DELTA", delta)
        got = harness.detect_distributional_overfitting(id_t, ood_t, w)
        ref = overfit_scan_reference(id_t, ood_t, w, eps, delta)
        assert (got.peak_epoch, got.stop_epoch, got.detected) == (ref[0], ref[1], ref[4])
        assert got.id_gain_over_window == ref[2]
        assert got.ood_drop_from_peak == ref[3]
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(11, f"verdicts match the direct scan oracle on 200 planted trace "
                f"pairs in {elapsed * 1000:.0f}ms")


def test_criterion_12_run_determinism(tmp_path):
    start = time.time()
    config = {
        "template": "accel_combo", "seed": 0, "train_count": 4, "test_count": 2,
        "accelerations": [4],
        "model": {"kind": "unet_lite", "channels": 4, "pool_levels": 2, "seed": 0},
        "train": {"epochs": 1, "seed": 0},
        "distributions": {"P": {"name": "P", "extents": [32, 32], "coils": 2,
                                "snr_db": 30, "seed": 1}},
    }
    for name in ("r1", "r2"):
        cfg = harness.ExperimentConfig.from_dict(json.loads(json.dumps(config)))
        harness.run_experiment(cfg, tmp_path / name)
    files = ("records.csv", "fits.json", "details.json", "manifest.json")
    for f in files:
        a = (tmp_path / "r1" / f).read_bytes()
        b = (tmp_path / "r2" / f).read_bytes()
        assert a == b, f
    ck1 = sorted((tmp_path / "r1" / "checkpoints").rglob("*.ckpt"))
    ck2 = sorted((tmp_path / "r2" / "checkpoints").rglob("*.ckpt"))
    assert [p.read_bytes() for p in ck1] == [p.read_bytes() for p in ck2]
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(12, f"byte-identical reports and checkpoints across reruns "
                f"in {elapsed:.1f}s")
