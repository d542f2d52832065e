#!/usr/bin/env python3
"""Effective robustness and train/test similarity on a controlled shift.

Two source distributions bracket the target in contrast space. Specialists
trained per source define the baseline out-of-distribution-vs-in-distribution
line, and the demo states on which side of it the model trained on the union
of sources lands (above it is positive effective robustness). It also compares
the nearest-neighbor feature similarity of the union's training set to the
target test set with each source's.
"""

import json
import tempfile
from pathlib import Path

from shiftmri import harness

config = {
    "template": "diversity_robustness",
    "seed": 0,
    "train_count": 24,
    "test_count": 8,
    "sources": [
        {"name": "P1", "contrast": {"kind": "gamma", "gamma": 1.35},
         "extents": [32, 32], "coils": 4, "snr_db": 30, "seed": 31},
        {"name": "P2", "contrast": {"kind": "gamma", "gamma": 0.75},
         "extents": [32, 32], "coils": 4, "snr_db": 30, "seed": 32},
    ],
    "target": {"name": "Q", "contrast": {"kind": "gamma", "gamma": 1.0},
               "extents": [32, 32], "coils": 4, "snr_db": 30, "seed": 33},
    "model": {"kind": "unet_lite", "seed": 0},
    "train": {"epochs": 6, "seed": 0},
}

with tempfile.TemporaryDirectory() as td:
    out = harness.run_experiment(harness.ExperimentConfig.from_dict(config), td)
    details = json.loads((Path(td) / "details.json").read_text())
    fits = json.loads((Path(td) / "fits.json").read_text())

print(f"best single source (by transfer SSIM): index {details['best_source_index']}")
print(f"per-source transfer SSIM on the target: "
      f"{[round(v, 3) for v in details['source_target_ssim']]}")
print(f"baseline line: ood = {fits['ood_vs_id']['slope']:.3f} * id + "
      f"{fits['ood_vs_id']['intercept']:.3f}")
print(f"union-trained model effective robustness (final epoch): "
      f"{details['union_final_effective_robustness']:+.4f}")
print(f"\nsimilarity of each source train set to the target test set: "
      f"{[round(v, 3) for v in details['similarity_means']]}")
print(f"similarity of the union train set: "
      f"{details['union_similarity_mean']:.3f}")

sims, union_sim = details["similarity_means"], details["union_similarity_mean"]
print(f"\nthe union train set is more similar to the target test set than "
      f"{sum(union_sim > v for v in sims)} of {len(sims)} source train sets")
er = details["union_final_effective_robustness"]
side = "above" if er > 0 else "below" if er < 0 else "on"
print(f"the union-trained model's out-of-distribution SSIM lies {side} the specialist line")
