#!/usr/bin/env python3
"""Training the two learned reconstructions end to end at desk scale.

The U-net post-processes the zero-filled RSS image; the unrolled network
alternates learnable data-consistency steps with a small conv denoiser.
Both train against SSIM with Adam, linear warmup/decay, gradient clipping,
and a fresh undersampling mask per training step; checkpoints are written per
epoch and evaluation uses fixed per-volume masks.
"""

import numpy as np

from shiftmri import data as dm
from shiftmri import kspace, learned

train_set = dm.generate(dm.DistributionSpec("train", extents=(32, 32), coils=4,
                                            snr_db=30.0, seed=1), 16)
test_set = dm.generate(dm.DistributionSpec("test", extents=(32, 32), coils=4,
                                           snr_db=30.0, seed=2), 6)

for kind, model_cfg in (
    ("unet", learned.ModelConfig("unet_lite", channels=8, pool_levels=2, seed=0)),
    ("varnet", learned.ModelConfig("varnet_lite", cascades=3, denoiser_channels=6,
                                   seed=0)),
):
    train_cfg = learned.TrainConfig(epochs=4, seed=0)
    checkpoints, traces = learned.train(model_cfg, train_set, train_cfg)
    # per-epoch test SSIM: score each epoch's checkpoint under fixed per-volume masks
    test_ssim = [learned.evaluate_checkpoint(ck, test_set, train_cfg.seed)[0]
                 for ck in checkpoints[1:]]
    n_params = learned.parameter_count(model_cfg)
    print(f"{kind}: {n_params} parameters")
    print(f"  train loss per epoch: {[round(v, 3) for v in traces['train_loss']]}")
    print(f"  test SSIM per epoch:  {[round(v, 3) for v in test_ssim]}")

# Checkpoints are binary containers; inference is deterministic.
ck = checkpoints[-1]
blob = ck.to_bytes()
restored = learned.Checkpoint.from_bytes(blob)
print(f"\ncheckpoint: {len(blob)} bytes, magic {blob[:4]}, epoch {restored.epoch}")

item = test_set.items[0]
mask = kspace.mask_for_volume(32, 4, 0.08, seed=9, volume_index=0)
y = dm.simulate_measurements(item, mask, noise_seed=3)
recon = learned.infer(restored, y, item.sens, mask)
again = learned.infer(restored, y, item.sens, mask)
print(f"inference deterministic: {np.array_equal(recon, again)}")

# A trained model runs at its input's own extents, as every score does: the
# 32x32-trained VarNet reconstructs a 16x16 item directly.
small_item = dm.generate(dm.DistributionSpec("small", extents=(16, 16), coils=4,
                                             snr_db=30.0, seed=5), 1).items[0]
small_mask = kspace.mask_for_volume(16, 2, 0.08, seed=0, volume_index=0)
small_y = dm.simulate_measurements(small_item, small_mask, noise_seed=4)
small = learned.infer(restored, small_y, small_item.sens, small_mask)
print(f"16x16 input run at its own extents -> output {small.shape}")
