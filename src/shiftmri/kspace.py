"""Multi-coil Cartesian measurement model: centered unitary FFTs, equispaced
column masks with a fully sampled center band, simulated coil sensitivities,
forward/adjoint operators, RSS combination and k-space utilities.

Images are 2D complex128 arrays (h, w); multi-coil k-space and sensitivities
are stacked (coils, h, w). Masks act on k-space columns, i.e. the phase
encoding direction is horizontal and readout rows are fully sampled.

The centered transforms act on the last two axes of any (..., h, w) stack,
so the operators transform all coils in one call. Each runs as two 1-D
passes, axis -1 then axis -2, the order np.fft.fft2 uses, so every slice is
byte-identical to a per-slice fft2 of the same data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def rng_from(*keys: int) -> np.random.Generator:
    """Deterministic, order-independent stream for a tuple of integer keys."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


# ---------------------------------------------------------------------------
# Centered unitary transforms.
# ---------------------------------------------------------------------------


def _centered2(x: np.ndarray, transform) -> np.ndarray:
    """Centered 1-D passes over the last two axes, axis -1 then axis -2
    (np.fft.fft2's order), in place on the ifftshifted copy so that a call
    allocates two full-size arrays."""
    k = np.fft.ifftshift(np.asarray(x, dtype=np.complex128), axes=(-2, -1))
    transform(k, axis=-1, norm="ortho", out=k)
    transform(k, axis=-2, norm="ortho", out=k)
    return np.fft.fftshift(k, axes=(-2, -1))


def fft2c(image: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT of the last two axes of an (..., h, w) stack, with the
    DC component at index (h//2, w//2). Axis -1 is transformed first, then
    axis -2, as in np.fft.fft2, so each slice equals
    fftshift(fft2(ifftshift(slice), norm="ortho")) byte for byte."""
    return _centered2(image, np.fft.fft)


def ifft2c(kspace: np.ndarray) -> np.ndarray:
    """Inverse of fft2c over the last two axes of an (..., h, w) stack, in
    np.fft.ifft2's axis order (-1, then -2)."""
    return _centered2(kspace, np.fft.ifft)


def fft1c(x: np.ndarray, axis: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(x, axes=axis), norm="ortho", axis=axis), axes=axis)


def ifft1c(x: np.ndarray, axis: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(x, axes=axis), norm="ortho", axis=axis), axes=axis)


# ---------------------------------------------------------------------------
# Sampling masks.
# ---------------------------------------------------------------------------


@dataclass
class SamplingMask:
    """Column mask: contiguous centered ACS band plus equispaced outer columns.

    acs_count and target_count record both budget conventions so either
    can be audited; the equispaced budget includes the ACS lines.
    """

    width: int
    sampled: np.ndarray  # bool per column
    acceleration: float
    center_fraction: float
    offset: int
    acs_count: int
    target_count: int

    @property
    def n_sampled(self) -> int:
        return int(self.sampled.sum())

    def as_row(self) -> np.ndarray:
        """Mask as a (1, width) float array broadcastable over k-space rows."""
        return self.sampled.astype(np.float64)[None, :]


class InfeasibleMaskError(ValueError):
    pass


def make_equispaced_mask(width: int, acceleration: float, center_fraction: float = 0.08,
                         rng: np.random.Generator | None = None) -> SamplingMask:
    """Centered ACS band of round(center_fraction*width) columns plus outer
    columns stepped with stride max(1, (width-n_acs)//n_rem) from a random
    offset, capped at n_rem so the total stays within 1 of round(width/R).
    Flooring the stride guarantees the stepped sequence never runs short.
    """
    if acceleration < 1:
        raise ValueError("acceleration must be >= 1")
    if not (0 < center_fraction < 1):
        raise ValueError("center_fraction must be in (0, 1)")
    rng = rng or np.random.default_rng(0)
    n_acs = _round_half_up(center_fraction * width)
    sampled = np.zeros(width, dtype=bool)
    if acceleration == 1:
        sampled[:] = True
        return SamplingMask(width, sampled, acceleration, center_fraction, 0, n_acs, width)
    target = _round_half_up(width / acceleration)
    n_rem = target - n_acs
    if n_rem <= 0:
        raise InfeasibleMaskError(
            f"budget round({width}/{acceleration})={target} does not exceed "
            f"ACS count {n_acs} at center_fraction {center_fraction}"
        )
    start = width // 2 - n_acs // 2
    sampled[start : start + n_acs] = True
    outer = np.concatenate([np.arange(0, start), np.arange(start + n_acs, width)])
    stride = max(1, len(outer) // n_rem)
    offset = int(rng.integers(0, stride))
    chosen = outer[offset::stride][:n_rem]
    sampled[chosen] = True
    return SamplingMask(width, sampled, acceleration, center_fraction, offset, n_acs, target)


def full_mask(width: int) -> SamplingMask:
    return make_equispaced_mask(width, 1)


def feasible_center_fraction(width: int, acceleration: float, center_fraction: float) -> float:
    """Largest of center_fraction / 2^k that leaves room for equispaced lines.

    High accelerations cannot keep the full 8% center band; halving mirrors
    the convention of pairing higher acceleration with a smaller band. Values
    make_equispaced_mask rejects pass through unchanged for it to reject.
    """
    if not (acceleration > 1 and 0 < center_fraction < 1):
        return center_fraction
    cf = center_fraction
    target = _round_half_up(width / acceleration)
    while cf > 1e-6 and _round_half_up(cf * width) >= target:
        cf /= 2.0
    return cf


def mask_for_batch(width: int, acceleration: float, center_fraction: float,
                   seed: int, batch_index: int) -> SamplingMask:
    """Training policy: a fresh mask per mini-batch, derived from (seed, batch),
    with the center band halved as feasible_center_fraction requires."""
    cf = feasible_center_fraction(width, acceleration, center_fraction)
    return make_equispaced_mask(width, acceleration, cf, rng_from(seed, 0x6BA7C4, batch_index))


def mask_for_volume(width: int, acceleration: float, center_fraction: float,
                    seed: int, volume_index: int) -> SamplingMask:
    """Evaluation policy: one mask per volume, reused for all its slices, with
    the center band halved by the same rule as mask_for_batch."""
    cf = feasible_center_fraction(width, acceleration, center_fraction)
    return make_equispaced_mask(width, acceleration, cf, rng_from(seed, 0xE7A1, volume_index))


# ---------------------------------------------------------------------------
# Coil sensitivities.
# ---------------------------------------------------------------------------


def _lowpass_field(height, width, cutoff, rng) -> np.ndarray:
    """Complex random field containing only centered frequencies within cutoff."""
    noise = rng.standard_normal((height, width)) + 1j * rng.standard_normal((height, width))
    k = fft2c(noise)
    rr = np.arange(height)[:, None] - height // 2
    cc = np.arange(width)[None, :] - width // 2
    keep = (rr**2 + cc**2) <= cutoff**2
    return ifft2c(k * keep)


def simulate_sensitivities(height: int, width: int, coils: int, smoothness: float = 3.0,
                           rng: np.random.Generator | None = None) -> np.ndarray:
    """Low-pass complex random fields, jointly normalized to sum |S_i|^2 = 1.

    A constant per-coil phasor keeps the joint magnitude bounded away from
    zero so the normalized maps stay smooth. Lower smoothness = smoother maps.
    """
    if coils < 1:
        raise ValueError("coils must be >= 1")
    rng = rng or np.random.default_rng(0)
    maps = np.empty((coils, height, width), dtype=np.complex128)
    for i in range(coils):
        anchor = 2.0 * np.exp(2j * np.pi * i / coils)
        maps[i] = anchor + _lowpass_field(height, width, smoothness, rng)
    norm = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return maps / norm


def unit_sensitivities(height: int, width: int, coils: int = 1) -> np.ndarray:
    s = np.zeros((coils, height, width), dtype=np.complex128)
    s[:] = 1.0 / np.sqrt(coils)
    return s


# ---------------------------------------------------------------------------
# Forward model y_i = M F S_i x + z_i and its adjoint.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    sigma: float = 0.0  # complex std; each of re/im has variance sigma^2/2
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError("sigma must be finite and >= 0")


def _check_extents(x, sens, mask):
    h, w = x.shape[-2:]
    if sens.shape[-2:] != (h, w):
        raise ValueError(f"sensitivity extents {sens.shape[-2:]} != image extents {(h, w)}")
    if mask.width != w:
        raise ValueError(f"mask width {mask.width} != k-space width {w}")


def apply_forward(x: np.ndarray, sens: np.ndarray, mask: SamplingMask) -> np.ndarray:
    """Masked per-coil k-space of the image; unsampled columns are exactly zero.

    fft2c of the whole coil stack, pruned: the row pass (axis -1) covers
    every row, the column pass (axis -2) only the sampled columns, which are
    then scattered into zeroed k-space. Sampled values equal fft2c's bytes.
    """
    x = np.asarray(x, dtype=np.complex128)
    _check_extents(x, sens, mask)
    w = x.shape[-1]
    k = np.fft.ifftshift(sens * x, axes=(-2, -1))
    np.fft.fft(k, axis=-1, norm="ortho", out=k)
    cols = np.flatnonzero(np.fft.ifftshift(mask.sampled))  # before the column shift
    kept = np.fft.fft(k[..., cols], axis=-2, norm="ortho")
    k.fill(0)  # reused as the output: one full-size array per call
    k[..., (cols + w // 2) % w] = np.fft.fftshift(kept, axes=-2)
    return k


def apply_adjoint(y: np.ndarray, sens: np.ndarray, mask: SamplingMask) -> np.ndarray:
    """Coil-combined image sum_i conj(S_i) * ifft2c(M y_i), one stacked
    ifft2c, summed in coil order."""
    y = np.asarray(y, dtype=np.complex128)
    _check_extents(y[0], sens, mask)
    imgs = ifft2c(y * mask.sampled)
    out = np.zeros(y.shape[-2:], dtype=np.complex128)
    for i in range(sens.shape[0]):
        out += np.conj(sens[i]) * imgs[i]
    return out


def add_noise(y: np.ndarray, mask: SamplingMask, noise: NoiseModel) -> np.ndarray:
    """Add iid complex Gaussian noise on sampled columns only."""
    if noise.sigma == 0:
        return y.copy()
    rng = rng_from(noise.seed, 0x7015E)
    z = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    z *= noise.sigma / np.sqrt(2.0)
    return y + z * mask.sampled[None, None, :]


NOISELESS_SNR_DB = 200.0


def sigma_for_snr(clean: np.ndarray, mask: SamplingMask, snr_db: float) -> float:
    """Noise std giving the target SNR (dB) of sampled signal power vs noise power.

    `clean` is the noiseless masked k-space, apply_forward(x, sens, mask).
    Targets at or above NOISELESS_SNR_DB are treated as exactly noiseless so
    that zero-noise contracts hold bit-exactly.
    """
    if snr_db >= NOISELESS_SNR_DB:
        return 0.0
    m = int(mask.sampled.sum()) * clean.shape[0] * clean.shape[1]
    if m == 0:
        return 0.0
    power_per_sample = float(np.sum(np.abs(clean) ** 2)) / m
    return float(np.sqrt(power_per_sample / 10.0 ** (snr_db / 10.0)))


def rss(coil_images: np.ndarray) -> np.ndarray:
    """Root-sum-of-squares combination of (coils, h, w) images."""
    coil_images = np.asarray(coil_images)
    if coil_images.ndim != 3 or coil_images.shape[0] < 1:
        raise ValueError("need a nonempty (coils, h, w) stack")
    return np.sqrt(np.sum(np.abs(coil_images) ** 2, axis=0))


def zero_filled_rss(y: np.ndarray) -> np.ndarray:
    """RSS of per-coil inverse transforms of zero-filled k-space."""
    return rss(ifft2c(y))


def ground_truth_rss(x: np.ndarray, sens: np.ndarray) -> np.ndarray:
    """RSS target of a ground-truth image under given coil maps."""
    return rss(np.asarray(sens) * np.asarray(x)[None])


# ---------------------------------------------------------------------------
# k-space utilities from the evaluation pipeline.
# ---------------------------------------------------------------------------


def interleave_upsample(y: np.ndarray, mask: SamplingMask, axis: str):
    """Repeat each k-space line adjacently along 'horizontal' or 'vertical'.

    Horizontal repetition doubles the column count and duplicates the mask
    columns identically; vertical repetition leaves the mask unchanged.
    Returns (upsampled k-space, mask).
    """
    y = np.asarray(y, dtype=np.complex128)
    if axis == "horizontal":
        out = np.repeat(y, 2, axis=-1)
        new_mask = SamplingMask(
            width=mask.width * 2,
            sampled=np.repeat(mask.sampled, 2),
            acceleration=mask.acceleration,
            center_fraction=mask.center_fraction,
            offset=mask.offset,
            acs_count=mask.acs_count * 2,
            target_count=mask.target_count * 2,
        )
        return out, new_mask
    if axis == "vertical":
        return np.repeat(y, 2, axis=-2), mask
    raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")


def center_crop(img: np.ndarray, height: int, width: int) -> np.ndarray:
    h, w = img.shape[-2:]
    if h < height or w < width:
        raise ValueError(f"cannot crop {img.shape[-2:]} to {(height, width)}")
    top = (h - height) // 2
    left = (w - width) // 2
    return img[..., top : top + height, left : left + width]


def views_from_3d(volume: np.ndarray, axis: int) -> list[np.ndarray]:
    """2D k-space slices of a 3D k-space: 1D centered unitary IFFT along
    `axis`, then slicing along that axis."""
    volume = np.asarray(volume, dtype=np.complex128)
    if volume.ndim != 3:
        raise ValueError("need a 3D volume")
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    hybrid = ifft1c(volume, axis)
    return [np.take(hybrid, i, axis=axis) for i in range(volume.shape[axis])]
