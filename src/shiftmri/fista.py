"""l1-wavelet regularized least-squares reconstruction.

Minimizes 0.5 * sum_i ||M F S_i x - y_i||^2 + lambda * ||W x||_1 with FISTA,
where W is an orthonormal multi-level Haar transform. The operator norm of
A^H A is at most 1 under the unitary FFT and normalized coils, so the unit
step STEP_SIZE is safe. A restart-on-increase rule keeps the objective trace
monotone.

The data term and its gradient are taken in hybrid (h, k_w) space through
one kspace.HybridEncoding per solve: the masks sample whole columns, so the
unitary transform along h drops out of both, and the residual lives on the
sampled columns only. There the transform along w is pruned to those
columns: B x and B^H r are each one GEMM with the sampled DFT columns, and
no FFT runs inside the loop. W is orthonormal, so ||W x||_1 of a candidate
is read off the thresholded coefficients its proximal step produced: one DWT
and one IDWT per proximal step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import data as datamod
from . import kspace
from .metrics import ssim


# ---------------------------------------------------------------------------
# Orthonormal Haar transform, packed layout (LL in the top-left quadrant).
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _haar_step(block: np.ndarray, out: np.ndarray) -> None:
    """One Haar level of `block` into `out`, which may be `block` itself, each
    subband into its quadrant. On complex input, multiplying by 1/sqrt(2) is
    what numpy's division by sqrt(2) computes."""
    h, w = block.shape[0] // 2, block.shape[1] // 2
    for rows, half in ((block[0::2] + block[1::2], slice(None, h)),
                       (block[0::2] - block[1::2], slice(h, None))):
        rows *= _INV_SQRT2
        np.add(rows[:, 0::2], rows[:, 1::2], out=out[half, :w])
        np.subtract(rows[:, 0::2], rows[:, 1::2], out=out[half, w:])
    out *= _INV_SQRT2


def _haar_step_inv(block: np.ndarray) -> None:
    """The inverse of _haar_step, in place."""
    h, w = block.shape[0] // 2, block.shape[1] // 2
    rows = np.empty_like(block)
    np.add(block[:, :w], block[:, w:], out=rows[:, 0::2])
    np.subtract(block[:, :w], block[:, w:], out=rows[:, 1::2])
    rows *= _INV_SQRT2
    np.add(rows[:h], rows[h:], out=block[0::2])
    np.subtract(rows[:h], rows[h:], out=block[1::2])
    block *= _INV_SQRT2


def check_levels(shape, levels):
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
    check_levels(image.shape, levels)
    out = np.empty_like(image)
    _haar_step(image, out)
    for k in range(1, levels):
        h, w = image.shape[0] >> k, image.shape[1] >> k
        _haar_step(out[:h, :w], out[:h, :w])
    return out


def haar_idwt(coeffs: np.ndarray, levels: int) -> np.ndarray:
    coeffs = _as_inexact(coeffs)
    check_levels(coeffs.shape, levels)
    out = coeffs.copy()
    for k in reversed(range(levels)):
        _haar_step_inv(out[: out.shape[0] >> k, : out.shape[1] >> k])
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


STEP_SIZE = 1.0  # 1/L; A^H A has norm <= 1 here
TOLERANCE = 1e-6  # relative objective change that stops a solve
WAVELET_LEVELS = 2


@dataclass
class FistaConfig:
    lam: float = datamod.within("[0, inf)", 1e-3)
    max_iters: int = datamod.within("[1, inf)", 200)

    def __post_init__(self):
        datamod.check_fields(self)


@dataclass
class FistaResult:
    image: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    iterations_run: int = 0
    restarts: int = 0  # iterations whose momentum step was replaced by a plain step
    final_rel_change: float = float("nan")  # relative objective change of the last iteration


def _objective(resid, coeffs, lam) -> float:
    """0.5 ||B x - y_h||^2 + lam ||W x||_1 from x's residual on the sampled
    columns and its wavelet coefficients."""
    data = 0.5 * float(np.sum(np.abs(resid) ** 2))
    reg = lam * float(np.sum(np.abs(coeffs))) if lam > 0 else 0.0
    return data + reg


def fista_l1(y: np.ndarray, sens: np.ndarray, mask: kspace.SamplingMask,
             config: FistaConfig = FistaConfig()) -> FistaResult:
    """FISTA with restart on objective increase; the trace is non-increasing."""
    check_levels(y.shape[-2:], WAVELET_LEVELS)
    step, lam, levels = STEP_SIZE, config.lam, WAVELET_LEVELS
    op = kspace.HybridEncoding(sens, mask, y)

    def residual(x):
        return kspace.apply_forward(x, op) - op.y_h

    def prox_step(z):
        """The candidate and the coefficients it was synthesized from."""
        w = haar_dwt(z - step * kspace.apply_adjoint(residual(z), op), levels)
        if lam > 0:
            w = soft_threshold(w, lam * step)
        return haar_idwt(w, levels), w

    x = kspace.apply_adjoint(op.y_h, op)
    momentum = x
    t = 1.0
    obj = _objective(residual(x), haar_dwt(x, levels), lam)
    trace: list[float] = []
    restarts = 0
    for it in range(config.max_iters):
        candidate, coeffs = prox_step(momentum)
        cand_obj = _objective(residual(candidate), coeffs, lam)
        if cand_obj > obj:
            # restart: plain proximal step from x cannot increase the objective
            restarts += 1
            t = 1.0
            candidate, coeffs = prox_step(x)
            cand_obj = _objective(residual(candidate), coeffs, lam)
        if not np.isfinite(cand_obj):
            raise FloatingPointError(f"non-finite objective at iteration {it}")
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = candidate + ((t - 1.0) / t_next) * (candidate - x)
        x, t = candidate, t_next
        trace.append(cand_obj)
        rel_change = abs(obj - cand_obj) / max(abs(obj), 1e-300)
        obj = cand_obj
        if rel_change < TOLERANCE:
            break
    return FistaResult(x, trace, len(trace), restarts, rel_change)


# ---------------------------------------------------------------------------
# Per-distribution regularization tuning.
# ---------------------------------------------------------------------------


def tune_lambda(dataset: datamod.Dataset, grid, config: FistaConfig = FistaConfig(),
                acceleration: float = 4.0, center_fraction: float = 0.08,
                seed: int = 0):
    """Reconstruct every item at every lambda; return (best lambda, mean SSIM
    per lambda). Ties break toward the smaller lambda.

    Each item is measured once (`data.score`), with a fixed per-item mask and
    noise at its distribution SNR derived from `seed`, and solved at every lambda.
    """
    grid = [float(g) for g in grid]
    if not grid or not dataset.items:
        raise ValueError("empty grid or dataset")
    solvers = [lambda y, sens, mask, cfg=replace(config, lam=lam):
               np.abs(fista_l1(y, sens, mask, cfg).image) for lam in grid]
    scores = datamod.score(dataset, solvers, seed, acceleration, center_fraction,
                           datamod.TUNE_NOISE_TAG, lambda recon, target, item: ssim(recon, target))
    mean_ssims = datamod.column_means(scores)
    best = max(range(len(grid)), key=lambda i: (mean_ssims[i], -grid[i]))
    return grid[best], dict(zip(grid, mean_ssims))
