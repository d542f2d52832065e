"""Evaluation metrics: SSIM, region SSIM, output normalization, artifact
scoring, patch-feature dataset similarity, robustness line fits, correlation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .kspace import rng_from


SSIM_WINDOW = 7  # side of the uniform window
SSIM_K1, SSIM_K2 = 0.01, 0.03  # stabilizers, as fractions of the data range


def check_window_fits(shape) -> None:
    """Refuse image extents that hold no whole SSIM window."""
    if min(shape) < SSIM_WINDOW:
        raise ValueError(f"image extents {shape} smaller than SSIM window {SSIM_WINDOW}")


def _box_sums(img: np.ndarray, k: int) -> np.ndarray:
    """Sum of each k-by-k window (valid positions only) over the last two axes
    of a (..., h, w) stack.

    The uniform window is separable: k row-offset adds into an
    (..., h-k+1, w) buffer, then k column-offset adds over that buffer, 2k
    array ops instead of k*k.
    """
    h, w = img.shape[-2:]
    oh, ow = h - k + 1, w - k + 1
    rows = img[..., 0:oh, :].copy()
    for di in range(1, k):
        rows += img[..., di : di + oh, :]
    out = rows[..., 0:ow].copy()
    for dj in range(1, k):
        out += rows[..., dj : dj + ow]
    return out


def _spread(field_: np.ndarray, k: int, shape: tuple[int, int]) -> np.ndarray:
    """Exact adjoint of _box_sums: scatter each window value of a
    (..., h-k+1, w-k+1) stack onto its k*k pixels of a (..., h, w) stack,
    running _box_sums' two passes in reverse (columns, then rows)."""
    h, w = shape
    oh, ow = field_.shape[-2:]
    cols = np.zeros(field_.shape[:-1] + (w,))
    for dj in range(k):
        cols[..., dj : dj + ow] += field_
    out = np.zeros(field_.shape[:-2] + (h, w))
    for di in range(k):
        out[..., di : di + oh, :] += cols
    return out


def _ssim_fields(x, y, data_range: float | None):
    check_window_fits(x.shape)
    if data_range is None:
        data_range = float(np.max(y))
    if data_range <= 0:
        data_range = 1.0
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    n = SSIM_WINDOW * SSIM_WINDOW
    cn = n / (n - 1)  # unbiased covariance normalization
    ux, uy, uxx, uyy, uxy = _box_sums(np.stack([x, y, x * x, y * y, x * y]), SSIM_WINDOW) / n
    vx = cn * (uxx - ux * ux)
    vy = cn * (uyy - uy * uy)
    vxy = cn * (uxy - ux * uy)
    a1 = 2.0 * ux * uy + c1
    a2 = 2.0 * vxy + c2
    b1 = ux * ux + uy * uy + c1
    b2 = vx + vy + c2
    # factored so that s == 1 and the x-gradient cancel bit-exactly at x == y
    q1 = a1 / b1
    q2 = a2 / b2
    s = q1 * q2
    return s, (ux, uy, a1, a2, b1, b2, q1, q2, cn)


def ssim(recon: np.ndarray, target: np.ndarray, data_range: float | None = None) -> float:
    """Mean SSIM index over all valid window positions of a uniform window.

    The stabilizers scale with `data_range`; None means the max of the target
    passed in (1.0 when that is not positive)."""
    recon = np.asarray(recon, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if recon.shape != target.shape:
        raise ValueError(f"shape mismatch {recon.shape} vs {target.shape}")
    s, _ = _ssim_fields(recon, target, data_range)
    return float(np.mean(s))


def ssim_and_grad(recon, target, data_range: float | None = None):
    """SSIM value plus its gradient with respect to `recon`.

    Used by the autodiff SSIM loss node; the value agrees exactly with
    ssim() so training and evaluation share one metric definition.
    """
    x = np.asarray(recon, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    s, (ux, uy, a1, a2, b1, b2, q1, q2, cn) = _ssim_fields(x, y, data_range)
    # dS/d(window mean of x), dS/d(var x), dS/d(cov xy)
    g_ux = 2.0 * q2 * (uy * b1 - ux * a1) / (b1 * b1)
    g_vx = -s / b2
    g_vxy = 2.0 * q1 / b2
    sp_ux, sp_vx, sp_vx_ux, sp_vxy, sp_vxy_uy = _spread(
        np.stack([g_ux, g_vx, g_vx * ux, g_vxy, g_vxy * uy]), SSIM_WINDOW, x.shape)
    grad = sp_ux + 2.0 * cn * (x * sp_vx - sp_vx_ux)
    grad += cn * (y * sp_vxy - sp_vxy_uy)
    grad /= s.size * SSIM_WINDOW * SSIM_WINDOW
    return float(np.mean(s)), grad


def region_ssim(recon, target, box) -> float:
    """SSIM restricted to a (row, col, height, width) box, at the full
    target's max as data range, so the crop does not change the intensity scale."""
    recon = np.asarray(recon, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    r, c, bh, bw = box
    h, w = target.shape
    if r < 0 or c < 0 or r + bh > h or c + bw > w:
        raise ValueError(f"box {box} not within extents {target.shape}")
    if bh < SSIM_WINDOW or bw < SSIM_WINDOW:
        raise ValueError(f"box {bh}x{bw} smaller than SSIM window {SSIM_WINDOW}; "
                         "small boxes are rejected rather than padded")
    return ssim(recon[r : r + bh, c : c + bw], target[r : r + bh, c : c + bw],
                float(np.max(target)))


class NormalizedOutput(NamedTuple):
    image: np.ndarray
    mean_only: bool  # True when the recon had no variance to rescale


def normalize_output(recon: np.ndarray, target: np.ndarray) -> NormalizedOutput:
    """Affinely map recon to the target's mean and variance.

    Falls back to mean-only matching (flagged) when either side has zero
    variance.
    """
    recon = np.asarray(recon, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    mt, mr = float(np.mean(target)), float(np.mean(recon))
    st, sr = float(np.std(target)), float(np.std(recon))
    if st == 0.0 or sr == 0.0:
        return NormalizedOutput(recon - mr + mt, True)
    return NormalizedOutput((recon - mr) * (st / sr) + mt, False)


_LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


def laplacian_artifact_score(recon: np.ndarray, target: np.ndarray) -> float:
    """Variance of the 5-point Laplacian of abs(target - recon), borders excluded."""
    recon = np.asarray(recon, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if recon.shape != target.shape:
        raise ValueError(f"shape mismatch {recon.shape} vs {target.shape}")
    if min(recon.shape) < 3:
        raise ValueError("extents must be >= 3")
    d = np.abs(target - recon)
    lap = np.zeros((d.shape[0] - 2, d.shape[1] - 2))
    for di in range(3):
        for dj in range(3):
            if _LAPLACIAN[di, dj] != 0.0:
                lap += _LAPLACIAN[di, dj] * d[di : di + lap.shape[0], dj : dj + lap.shape[1]]
    return float(np.var(lap))


# ---------------------------------------------------------------------------
# Dataset similarity via seeded random-projection patch features.
# ---------------------------------------------------------------------------

def _item_magnitude(item) -> np.ndarray:
    """Accept either a raw 2D array or a dataset item with a .image field."""
    img = getattr(item, "image", item)
    return np.abs(np.asarray(img))


PATCH_SIZE = 12  # side of a feature patch
PATCHES_PER_ITEM = 48  # patches drawn from each item
NOISE_FLOOR = 1e-3  # patches whose standard deviation is below this are background
PROJECTION_DIM = 64  # length of a feature vector


def check_patch_fits(shape) -> None:
    """Refuse image extents smaller than a feature patch."""
    if PATCH_SIZE > min(shape):
        raise ValueError(f"patch_size {PATCH_SIZE} exceeds extents {shape}")


def extract_features(dataset, seed: int) -> np.ndarray:
    """One unit-norm feature vector per item from seeded local patches.

    Patches with standard deviation below NOISE_FLOOR count as background and
    are discarded; each survivor is mean-removed, l2-normalized and projected
    with a Gaussian matrix fixed by `seed`, then averaged per item.
    """
    items = list(getattr(dataset, "items", dataset))
    if not items:
        raise ValueError("empty dataset")
    proj = rng_from(seed, 0xFEA7).standard_normal((PROJECTION_DIM, PATCH_SIZE * PATCH_SIZE))
    proj /= math.sqrt(PATCH_SIZE * PATCH_SIZE)
    features = np.zeros((len(items), PROJECTION_DIM))
    for idx, item in enumerate(items):
        img = _item_magnitude(item)
        check_patch_fits(img.shape)
        h, w = img.shape
        # patch positions keyed on content so duplicate items embed identically
        content_key = int.from_bytes(
            hashlib.sha256(np.ascontiguousarray(img).tobytes()).digest()[:8], "little")
        rng = rng_from(seed, 1, content_key)
        kept = []
        for _ in range(PATCHES_PER_ITEM):
            r = int(rng.integers(0, h - PATCH_SIZE + 1))
            c = int(rng.integers(0, w - PATCH_SIZE + 1))
            patch = img[r : r + PATCH_SIZE, c : c + PATCH_SIZE].ravel()
            if float(np.std(patch)) < NOISE_FLOOR:
                continue
            patch = patch - patch.mean()
            patch = patch / np.linalg.norm(patch)
            kept.append(proj @ patch)
        if not kept:
            raise ValueError(f"all patches discarded for item {idx} (below noise floor)")
        feat = np.mean(kept, axis=0)
        features[idx] = feat / np.linalg.norm(feat)
    return features


@dataclass
class SimilarityReport:
    similarities: np.ndarray  # per test item, max cosine similarity to train
    bin_edges: np.ndarray
    counts: np.ndarray
    mean: float

    def to_dict(self) -> dict:
        return {
            "similarities": [float(v) for v in self.similarities],
            "bin_edges": [float(v) for v in self.bin_edges],
            "counts": [int(v) for v in self.counts],
            "mean": self.mean,
        }


def nn_similarity(test_features: np.ndarray, train_features: np.ndarray) -> SimilarityReport:
    """Nearest-neighbor cosine similarity of each test feature to the train set."""
    test_features = np.atleast_2d(np.asarray(test_features, dtype=np.float64))
    train_features = np.atleast_2d(np.asarray(train_features, dtype=np.float64))
    if test_features.size == 0 or train_features.size == 0:
        raise ValueError("empty feature set")
    sims = (test_features @ train_features.T).max(axis=1)
    counts, edges = np.histogram(sims, bins=20, range=(0.0, 1.0))
    return SimilarityReport(sims, edges, counts, float(np.mean(sims)))


# ---------------------------------------------------------------------------
# Effective robustness fits and correlation.
# ---------------------------------------------------------------------------


@dataclass
class RobustnessFit:
    slope: float
    intercept: float
    residuals: list[float] = field(default_factory=list)  # per candidate, ood above/below line

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept, "residuals": self.residuals}


def effective_robustness_fit(
    baseline: Sequence[tuple[float, float]],
    candidates: Sequence[tuple[float, float]],
) -> RobustnessFit:
    """OLS line of ood vs id over the baseline; candidate residuals above it."""
    if len(baseline) < 2:
        raise ValueError("need at least 2 baseline points")
    xs = np.array([p[0] for p in baseline], dtype=np.float64)
    ys = np.array([p[1] for p in baseline], dtype=np.float64)
    if np.ptp(xs) == 0.0:
        raise ValueError("degenerate baseline: all id values equal")
    xbar, ybar = xs.mean(), ys.mean()
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / np.sum((xs - xbar) ** 2))
    intercept = float(ybar - slope * xbar)
    residuals = [float(ood - (slope * idv + intercept)) for idv, ood in candidates]
    return RobustnessFit(slope, intercept, residuals)


def pearson_corr(xs: Sequence[float], ys: Sequence[float]) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need two equal-length sequences of length >= 2")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    denom = math.sqrt(float(np.sum(xc * xc)) * float(np.sum(yc * yc)))
    if denom == 0.0:
        raise ValueError("zero variance input")
    return float(np.sum(xc * yc) / denom)
