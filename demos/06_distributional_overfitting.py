#!/usr/bin/env python3
"""Distributional overfitting and the early-stopping rule.

Late in training, the in-distribution metric keeps inching up while the
out-of-distribution metric falls off its peak. The detector scans per-epoch
traces for the first epoch whose trailing-window in-distribution gain drops
below a marginal threshold and reports the out-of-distribution drop from its
peak. Shown on synthetic traces with a planted peak, then on a real (tiny)
training run via the experiment template.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from shiftmri import harness

# Synthetic traces: steady gains for 15 epochs, marginal gains afterwards,
# with the out-of-distribution metric decaying past its peak.
epochs = np.arange(0, 25)
id_trace = np.where(epochs <= 15, 0.01 * epochs, 0.15 + 1e-4 * (epochs - 15))
ood_trace = np.where(epochs <= 15, 0.01 * epochs, 0.15 - 0.005 * (epochs - 15))
verdict = harness.detect_distributional_overfitting(id_trace, ood_trace, window=3)
print("synthetic traces with a planted peak at epoch 15:")
print(f"  ood peak epoch:        {verdict.peak_epoch}")
print(f"  recommended stop:      {verdict.stop_epoch}")
print(f"  id gain over window:   {verdict.id_gain_over_window:.5f}")
print(f"  ood drop from peak:    {verdict.ood_drop_from_peak:.4f}")
print(f"  overfitting detected:  {verdict.detected}")

# The same rule applied to an actual (tiny) training run: the template trains
# one model and scores both test sets with every epoch's checkpoint.
config = {
    "template": "overfit_monitor",
    "seed": 0,
    "train_count": 12,
    "test_count": 6,
    "distributions": {
        "P": {"name": "P", "contrast": {"kind": "gamma", "gamma": 0.8},
              "extents": [32, 32], "coils": 4, "snr_db": 30, "seed": 1},
        "Q": {"name": "Q", "shape_family": "polygon-phantom",
              "extents": [32, 32], "coils": 4, "snr_db": 30, "seed": 2},
    },
    "model": {"kind": "unet_lite", "seed": 0},
    "train": {"epochs": 6, "seed": 0},
    "overfit_window": 2,
}
with tempfile.TemporaryDirectory() as td:
    harness.run_experiment(harness.ExperimentConfig.from_dict(config), td)
    details = json.loads((Path(td) / "details.json").read_text())
print("\ntiny training run (6 epochs), per-epoch SSIM traces:")
print(f"  in-distribution:      {[round(v, 3) for v in details['id_trace']]}")
print(f"  out-of-distribution:  {[round(v, 3) for v in details['ood_trace']]}")
print(f"  verdict: {details['verdict']}")
