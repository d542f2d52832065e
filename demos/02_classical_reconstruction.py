#!/usr/bin/env python3
"""l1-wavelet regularized least squares: FISTA convergence at 4-fold
undersampling, and why the regularization weight must be tuned per
distribution (low-noise vs high-noise data prefer different lambdas).
"""

import numpy as np

from shiftmri import data as dm
from shiftmri import fista, kspace
from shiftmri.metrics import ssim

spec = dm.DistributionSpec("demo", extents=(32, 32), coils=4, snr_db=40.0, seed=3)
item = dm.generate(spec, 1).items[0]
mask = kspace.mask_for_volume(32, 4, 0.08, seed=0, volume_index=0)
y = dm.simulate_measurements(item, mask, noise_seed=1)
target = kspace.ground_truth_rss(item.image, item.sens)

result = fista.fista_l1(y, item.sens, mask, lam=1e-3, max_iters=100)
zf = kspace.zero_filled_rss(y)
print(f"objective: {result.objective_trace[0]:.4f} -> {result.objective_trace[-1]:.4f} "
      f"over {result.iterations_run} iterations (monotone, {result.restarts} restarts, "
      f"last relative change {result.final_rel_change:.1e})")
# fista_l1 fits the data in hybrid (h, k_w) space, where the residual has
# the same norm as on full k-space, because the transform along h is unitary
enc = kspace.Encoding(item.sens, mask)
resid = kspace.apply_forward(result.image, enc) - y
print(f"data residual ||A x - y|| / ||y||: {np.linalg.norm(resid) / np.linalg.norm(y):.3f}")
print(f"SSIM: zero-filled {ssim(zf, target):.3f} -> "
      f"FISTA {ssim(np.abs(result.image), target):.3f}")

# Per-distribution lambda tuning: same phantoms, different measurement SNR.
grid = [1e-4, 1e-3, 1e-2, 1e-1]
print(f"\nlambda grid search on {grid}")
for name, snr in (("low-noise (30 dB)", 30.0), ("high-noise (10 dB)", 10.0)):
    ds = dm.generate(dm.DistributionSpec("tune", extents=(32, 32), coils=4,
                                         snr_db=snr, seed=100), 3)
    best, table = fista.tune_lambda(ds, grid, max_iters=60, acceleration=4.0, seed=0)
    row = "  ".join(f"{lam:g}: {v:.3f}" for lam, v in table.items())
    print(f"  {name:20s} best lambda = {best:g}   ({row})")
print("\nhigher measurement noise pushes the optimal lambda up; one weight "
      "cannot serve both distributions")
