"""l1-wavelet regularized least-squares reconstruction.

Minimizes 0.5 * sum_i ||M F S_i x - y_i||^2 + lambda * ||W x||_1 with FISTA,
where W is an orthonormal multi-level Haar transform. The operator norm of
A^H A is at most 1 under the unitary FFT and normalized coils, so the default
unit step is safe. A restart-on-increase rule keeps the objective trace
monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import data as datamod
from . import kspace
from .metrics import SsimConfig, ssim


# ---------------------------------------------------------------------------
# Orthonormal Haar transform, packed layout (LL in the top-left quadrant).
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


def _haar_step(block: np.ndarray) -> np.ndarray:
    h, w = block.shape
    lo_r = (block[0::2] + block[1::2]) / _SQRT2
    hi_r = (block[0::2] - block[1::2]) / _SQRT2
    rows = np.concatenate([lo_r, hi_r], axis=0)
    lo_c = (rows[:, 0::2] + rows[:, 1::2]) / _SQRT2
    hi_c = (rows[:, 0::2] - rows[:, 1::2]) / _SQRT2
    return np.concatenate([lo_c, hi_c], axis=1)


def _haar_step_inv(block: np.ndarray) -> np.ndarray:
    h, w = block.shape
    lo_c, hi_c = block[:, : w // 2], block[:, w // 2 :]
    rows = np.empty_like(block)
    rows[:, 0::2] = (lo_c + hi_c) / _SQRT2
    rows[:, 1::2] = (lo_c - hi_c) / _SQRT2
    lo_r, hi_r = rows[: h // 2], rows[h // 2 :]
    out = np.empty_like(block)
    out[0::2] = (lo_r + hi_r) / _SQRT2
    out[1::2] = (lo_r - hi_r) / _SQRT2
    return out


def _check_levels(shape, levels):
    h, w = shape
    if levels < 1:
        raise ValueError("levels must be >= 1")
    div = 2**levels
    if h % div or w % div:
        raise ValueError(f"extents {shape} not divisible by 2^{levels}")


def _as_inexact(a: np.ndarray) -> np.ndarray:
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    return np.asarray(a, dtype=dtype)


def haar_dwt(image: np.ndarray, levels: int) -> np.ndarray:
    image = _as_inexact(image)
    _check_levels(image.shape, levels)
    out = image.copy()
    h, w = image.shape
    for _ in range(levels):
        out[:h, :w] = _haar_step(out[:h, :w])
        h, w = h // 2, w // 2
    return out


def haar_idwt(coeffs: np.ndarray, levels: int) -> np.ndarray:
    coeffs = _as_inexact(coeffs)
    _check_levels(coeffs.shape, levels)
    out = coeffs.copy()
    sizes = [(coeffs.shape[0] >> k, coeffs.shape[1] >> k) for k in range(levels)]
    for h, w in reversed(sizes):
        out[:h, :w] = _haar_step_inv(out[:h, :w])
    return out


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Complex soft-thresholding: shrink magnitudes by t, preserving phase."""
    if t < 0:
        raise ValueError("threshold must be >= 0")
    v = np.asarray(v)
    mag = np.abs(v)
    return v * np.maximum(0.0, 1.0 - t / np.maximum(mag, 1e-300))


# ---------------------------------------------------------------------------
# FISTA.
# ---------------------------------------------------------------------------


@dataclass
class FistaConfig:
    lam: float = 1e-3
    max_iters: int = 200
    step_size: float = 1.0  # 1/L; A^H A has norm <= 1 here
    tolerance: float = 1e-6  # relative objective change
    wavelet_levels: int = 2

    def __post_init__(self):
        if self.lam < 0 or self.max_iters < 1 or self.step_size <= 0:
            raise ValueError("invalid FISTA config")


@dataclass
class FistaResult:
    image: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    iterations_run: int = 0


def _objective(x, y, sens, mask, lam, levels) -> float:
    data = 0.5 * float(np.sum(np.abs(kspace.apply_forward(x, sens, mask) - y) ** 2))
    reg = lam * float(np.sum(np.abs(haar_dwt(x, levels)))) if lam > 0 else 0.0
    return data + reg


def fista_l1(y: np.ndarray, sens: np.ndarray, mask: kspace.SamplingMask,
             config: FistaConfig = FistaConfig()) -> FistaResult:
    """FISTA with restart on objective increase; the trace is non-increasing."""
    _check_levels(y.shape[-2:], config.wavelet_levels)
    step, lam, levels = config.step_size, config.lam, config.wavelet_levels

    def grad(x):
        return kspace.apply_adjoint(kspace.apply_forward(x, sens, mask) - y, sens, mask)

    def prox_step(z):
        w = haar_dwt(z - step * grad(z), levels)
        if lam > 0:
            w = soft_threshold(w, lam * step)
        return haar_idwt(w, levels)

    x = kspace.apply_adjoint(y, sens, mask)
    momentum = x.copy()
    t = 1.0
    obj = _objective(x, y, sens, mask, lam, levels)
    trace: list[float] = []
    for it in range(config.max_iters):
        candidate = prox_step(momentum)
        cand_obj = _objective(candidate, y, sens, mask, lam, levels)
        if cand_obj > obj:
            # restart: plain proximal step from x cannot increase the objective
            t = 1.0
            candidate = prox_step(x)
            cand_obj = _objective(candidate, y, sens, mask, lam, levels)
        if not np.isfinite(cand_obj):
            raise FloatingPointError(f"non-finite objective at iteration {it}")
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = candidate + ((t - 1.0) / t_next) * (candidate - x)
        x, t = candidate, t_next
        trace.append(cand_obj)
        rel_change = abs(obj - cand_obj) / max(abs(obj), 1e-300)
        obj = cand_obj
        if rel_change < config.tolerance:
            break
    return FistaResult(x, trace, len(trace))


# ---------------------------------------------------------------------------
# Per-distribution regularization tuning.
# ---------------------------------------------------------------------------


def tune_lambda(dataset, grid, config: FistaConfig = FistaConfig(),
                acceleration: float = 4.0, center_fraction: float = 0.08,
                seed: int = 0, ssim_config: SsimConfig | None = None):
    """Reconstruct every item at every lambda; return (best lambda, mean SSIM
    per lambda). Ties break toward the smaller lambda.

    Measurements are simulated per item with a fixed per-item mask and noise
    at the item's distribution SNR, all derived from `seed`.
    """
    grid = [float(g) for g in grid]
    items = list(getattr(dataset, "items", dataset))
    if not grid or not items:
        raise ValueError("empty grid or dataset")
    measured = [datamod.measure(item, idx, seed, acceleration, center_fraction, 0x10153)
                for idx, item in enumerate(items)]
    mean_ssims = []
    for lam in grid:
        cfg = replace(config, lam=lam)
        vals = []
        for item, (y, mask, target) in zip(items, measured):
            recon = np.abs(fista_l1(y, item.sens, mask, cfg).image)
            sc = ssim_config or SsimConfig(data_range=float(target.max()))
            vals.append(ssim(recon, target, sc))
        mean_ssims.append(float(np.mean(vals)))
    best_idx = 0
    for i in range(1, len(grid)):
        if mean_ssims[i] > mean_ssims[best_idx] or (
            mean_ssims[i] == mean_ssims[best_idx] and grid[i] < grid[best_idx]
        ):
            best_idx = i
    return grid[best_idx], dict(zip(grid, mean_ssims))
