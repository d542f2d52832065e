#!/usr/bin/env python3
"""Tour of the measurement model: synthetic phantoms, coil maps, equispaced
column masks, the forward operator and its adjoint, and the two baseline
reconstructions (zero-filled RSS vs fully-sampled).
"""

import numpy as np

from shiftmri import data as dm
from shiftmri import kspace

# A 32x32 four-coil phantom distribution at 30 dB SNR.
spec = dm.DistributionSpec("demo", shape_family="ellipse-phantom",
                           extents=(32, 32), coils=4, snr_db=30.0, seed=7)
item = dm.generate(spec, 1).items[0]
print(f"phantom magnitude range: [{np.abs(item.image).min():.3f}, "
      f"{np.abs(item.image).max():.3f}]")
print(f"coil maps normalized: max |sum|S_i|^2 - 1| = "
      f"{np.abs(np.sum(np.abs(item.sens) ** 2, axis=0) - 1).max():.2e}")

# 4-fold equispaced mask with an 8% fully sampled center band.
mask = kspace.make_equispaced_mask(32, acceleration=4, center_fraction=0.08,
                                   rng=np.random.default_rng(0))
print(f"\nmask: {mask.n_sampled}/{mask.width} columns sampled "
      f"(target {mask.target_count}, ACS {mask.acs_count}, offset {mask.offset})")
print("pattern:", "".join("#" if s else "." for s in mask.sampled))

# Forward model y_i = M F S_i x + z_i and its adjoint.
y = dm.simulate_measurements(item, mask, noise_seed=1)
print(f"\nk-space shape: {y.shape}; unsampled columns are exactly zero: "
      f"{np.abs(y[:, :, ~mask.sampled]).max() == 0.0}")

x = np.random.default_rng(1).standard_normal((32, 32)) \
    + 1j * np.random.default_rng(2).standard_normal((32, 32))
yk = np.random.default_rng(3).standard_normal((4, 32, 32)) \
    + 1j * np.random.default_rng(4).standard_normal((4, 32, 32))
enc = kspace.Encoding(item.sens, mask)  # bound once, applied many times
lhs = np.vdot(kspace.apply_forward(x, enc), yk)
rhs = np.vdot(x, kspace.apply_adjoint(yk, enc))
print(f"adjointness <Ax, y> vs <x, A^H y>: defect "
      f"{abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(yk)):.2e}")

# Zero-filled RSS vs the fully sampled baseline.
from shiftmri.metrics import ssim

target = kspace.ground_truth_rss(item.image, item.sens)
zf = kspace.zero_filled_rss(y)
full = kspace.zero_filled_rss(kspace.apply_forward(
    item.image, kspace.Encoding(item.sens, kspace.full_mask(32))))
print(f"\nSSIM zero-filled (4x):    {ssim(zf, target):.3f}")
print(f"SSIM fully sampled:        {ssim(full, target):.3f}")
