"""Multi-coil Cartesian measurement model: centered unitary FFTs, equispaced
column masks with a fully sampled center band, simulated coil sensitivities,
forward/adjoint operators, RSS combination and k-space utilities.

Images are 2D complex128 arrays (h, w); multi-coil k-space and sensitivities
are stacked (coils, h, w). Masks act on k-space columns, i.e. the phase
encoding direction is horizontal and readout rows are fully sampled.

The centered transforms act on the last two axes of any (..., h, w) stack.
Each runs as two 1-D passes, axis -1 then axis -2, the order np.fft.fft2
uses, so every slice is byte-identical to a per-slice fft2 of the same data.
The forward and adjoint operators take an Encoding bound to one set of coil
maps and one mask, and are E = M F S and E^H written as their definitions:
fft2c of the coil images with the unsampled columns zeroed, and the coil sum
of conj(S_i) times ifft2c of the masked k-space.

They also take a HybridEncoding, an Encoding bound to one measurement for
one solve: FISTA runs on it, and VarNet forms its first image E^H y through
it and prunes its tape DFT to the sampled columns with its `dft` and `idft`.
Masks sample whole columns, so E = F_h M F_w S with F_h the centered
transform along h, and since F_h is unitary the data term and its gradient
need no pass along h:
||E x - y|| = ||B x - y_h|| and E^H (E x - y) = B^H (B x - y_h), with
B = M F_w S and y_h = F_h^H y on the sampled columns. M F_w is a pruned DFT
(Markel 1971): only n_sampled of its w outputs are kept, so B applies it as
one GEMM with the (w, n_sampled) matrix of the sampled DFT columns, and B^H
as one GEMM with its conjugate transpose, with no FFT, gather or scatter.
"""

from __future__ import annotations

import functools
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


def _centered(x: np.ndarray, transform, axes: tuple[int, ...]) -> np.ndarray:
    """Centered unitary 1-D passes of `transform` over `axes`, the last listed
    first (np.fft.fftn's order), in place on the ifftshifted copy so that a
    call allocates two full-size arrays."""
    k = np.fft.ifftshift(np.asarray(x, dtype=np.complex128), axes=axes)
    for axis in reversed(axes):
        transform(k, axis=axis, norm="ortho", out=k)
    return np.fft.fftshift(k, axes=axes)


def fft2c(image: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT of the last two axes of an (..., h, w) stack, with the
    DC component at index (h//2, w//2). Axis -1 is transformed first, then
    axis -2, as in np.fft.fft2, so each slice equals
    fftshift(fft2(ifftshift(slice), norm="ortho")) byte for byte."""
    return _centered(image, np.fft.fft, (-2, -1))


def ifft2c(kspace: np.ndarray) -> np.ndarray:
    """Inverse of fft2c over the last two axes of an (..., h, w) stack, in
    np.fft.ifft2's axis order (-1, then -2)."""
    return _centered(kspace, np.fft.ifft, (-2, -1))


def fft1c(x: np.ndarray, axis: int) -> np.ndarray:
    return _centered(x, np.fft.fft, (axis,))


def ifft1c(x: np.ndarray, axis: int) -> np.ndarray:
    return _centered(x, np.fft.ifft, (axis,))


@functools.cache
def dft_matrix(n: int, inverse: bool = False) -> np.ndarray:
    """The (n, n) centered unitary DFT matrix (or its inverse), built once per
    size and kept read-only: column j is fft1c (ifft1c) of the j-th unit vector."""
    return _read_only((ifft1c if inverse else fft1c)(np.eye(n, dtype=np.complex128), 0))


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


class InfeasibleMaskError(ValueError):
    pass


ACCELERATION = 4.0  # the default acceleration of training, evaluation and tune-lambda
CENTER_FRACTION = 0.08  # the default share of columns in the fully sampled center band


def make_equispaced_mask(width: int, acceleration: float, center_fraction: float = CENTER_FRACTION,
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
    """Training policy: a fresh mask per training step, derived from (seed, step),
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


def lowpass(x: np.ndarray, cutoff: float) -> np.ndarray:
    """An (h, w) image with only its centered frequencies within `cutoff` kept."""
    height, width = x.shape
    rr = np.arange(height)[:, None] - height // 2
    cc = np.arange(width)[None, :] - width // 2
    keep = (rr**2 + cc**2) <= cutoff**2
    return ifft2c(fft2c(x) * keep)


SENSITIVITY_SMOOTHNESS = 3.0  # low-pass cutoff of the coil maps; lower is smoother


def simulate_sensitivities(height: int, width: int, coils: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Low-pass complex random fields, jointly normalized to sum |S_i|^2 = 1.

    A constant per-coil phasor keeps the joint magnitude bounded away from
    zero so the normalized maps stay smooth; SENSITIVITY_SMOOTHNESS is the cutoff.
    """
    if coils < 1:
        raise ValueError("coils must be >= 1")
    maps = np.empty((coils, height, width), dtype=np.complex128)
    for i in range(coils):
        anchor = 2.0 * np.exp(2j * np.pi * i / coils)
        noise = rng.standard_normal((height, width)) + 1j * rng.standard_normal((height, width))
        maps[i] = anchor + lowpass(noise, SENSITIVITY_SMOOTHNESS)
    norm = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return maps / norm


# ---------------------------------------------------------------------------
# Forward model y_i = M F S_i x + z_i and its adjoint.
# ---------------------------------------------------------------------------


class Encoding:
    """The multi-coil encoding operator E = M F S for one set of coil maps and
    one column mask, bound once per solve for apply_forward and apply_adjoint,
    with the shape checks the operators run against it.

    It holds read-only copies of the maps (`sens`) and their conjugates
    (`conj`) in the image's centered order, and the sampled columns (`cols`).
    """

    def __init__(self, sens: np.ndarray, mask: SamplingMask):
        sens = np.array(sens, dtype=np.complex128)  # a copy: it is made read-only
        if sens.ndim != 3:
            raise ValueError(f"sensitivities must be a (coils, h, w) stack, got shape {sens.shape}")
        self.coils, h, w = sens.shape
        self.extents = (h, w)
        if mask.width != w:
            raise ValueError(f"mask width {mask.width} != k-space width {w}")
        self.sens = _read_only(sens)
        self.conj = _read_only(np.conj(sens))
        self.cols = _read_only(np.flatnonzero(mask.sampled))

    def check(self, x: np.ndarray) -> None:
        """x is an (h, w) image or a (coils, h, w) k-space stack."""
        if x.shape[-2:] != self.extents:
            raise ValueError(f"sensitivity extents {self.extents} != image extents {x.shape[-2:]}")
        if x.ndim == 3 and x.shape[0] != self.coils:
            raise ValueError(f"k-space has {x.shape[0]} coils, sensitivities {self.coils}")


class HybridEncoding(Encoding):
    """B = M F_w S with y_h = F_h^H y, bound to one measurement for one solve.

    `dft` is the (w, n_sampled) matrix of the centered unitary DFT's columns
    at the sampled frequencies `cols`, so B x is (S_i x) @ dft for every
    coil, and `idft` is its conjugate transpose. Centering along w is folded
    into both, and `y_h`, the inverse centered transform along h of y's
    sampled columns, keeps the image's row order, so no plane is shifted per
    call. y's unsampled columns are not measurements and are ignored, as
    apply_adjoint ignores them. Its arrays are read-only.
    """

    def __init__(self, sens: np.ndarray, mask: SamplingMask, y: np.ndarray):
        super().__init__(sens, mask)
        y = np.asarray(y, dtype=np.complex128)
        if y.ndim != 3:
            raise ValueError(f"k-space must be a (coils, h, w) stack, got shape {y.shape}")
        self.check(y)
        self.dft = _read_only(dft_matrix(mask.width).T.take(self.cols, axis=1))
        self.idft = _read_only(np.ascontiguousarray(np.conj(self.dft).T))
        self.y_h = _read_only(ifft1c(y[..., self.cols], -2))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _coil_sum(k: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """sum_i conj[i] * k[i], in coil order."""
    out = np.zeros(k.shape[-2:], dtype=np.complex128)
    for i in range(len(conj)):
        out += conj[i] * k[i]
    return out


def apply_forward(x: np.ndarray, enc: Encoding) -> np.ndarray:
    """Masked per-coil k-space of the image, fft2c(S_i x) for every coil, with
    the unsampled columns set to exactly zero.

    With a HybridEncoding it returns B x, a (coils, h, n_sampled) array laid
    out like enc.y_h: the coil images times enc.dft, as one GEMM over every
    (coil, row).
    """
    x = np.asarray(x, dtype=np.complex128)
    if isinstance(enc, HybridEncoding):
        if x.shape != enc.extents:
            raise ValueError(f"image shape {x.shape} != operator extents {enc.extents}")
        return ((enc.sens * x).reshape(-1, x.shape[-1]) @ enc.dft).reshape(enc.y_h.shape)
    enc.check(x)
    k = fft2c(enc.sens * x)
    kept = k[..., enc.cols]
    k.fill(0)
    k[..., enc.cols] = kept
    return k


def apply_adjoint(y: np.ndarray, enc: Encoding) -> np.ndarray:
    """Coil-combined image sum_i conj(S_i) * ifft2c(M y_i), in coil order.
    Only y's sampled columns are read.

    With a HybridEncoding, y is a (coils, h, n_sampled) residual laid out
    like enc.y_h, and the result is B^H y: y times enc.idft, as one GEMM over
    every (coil, row), then the coil sum in coil order.
    """
    y = np.asarray(y, dtype=np.complex128)
    if isinstance(enc, HybridEncoding):
        if y.shape != enc.y_h.shape:
            raise ValueError(f"residual shape {y.shape} != sampled k-space shape {enc.y_h.shape}")
        k = y.reshape(-1, y.shape[-1]) @ enc.idft
        return _coil_sum(k.reshape(enc.sens.shape), enc.conj)
    enc.check(y)
    k = np.zeros(y.shape, dtype=np.complex128)
    k[..., enc.cols] = y[..., enc.cols]
    return _coil_sum(ifft2c(k), enc.conj)


def add_noise(y: np.ndarray, mask: SamplingMask, sigma: float, seed: int) -> np.ndarray:
    """Add iid complex Gaussian noise of std `sigma` (each of re/im has variance
    sigma^2/2), drawn from the stream of `seed`, on sampled columns only."""
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError(f"add_noise sigma must be finite and >= 0, got {sigma!r}")
    if sigma == 0:
        return y.copy()
    rng = rng_from(seed, 0x7015E)
    z = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    z *= sigma / np.sqrt(2.0)
    return y + z * mask.sampled[None, None, :]


NOISELESS_SNR_DB = 200.0


def sigma_for_snr(clean: np.ndarray, mask: SamplingMask, snr_db: float) -> float:
    """Noise std giving the target SNR (dB) of sampled signal power vs noise power.

    `clean` is the noiseless masked k-space, apply_forward(x, enc).
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
