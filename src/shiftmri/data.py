"""Synthetic multi-distribution data generation and the on-disk dataset format.

Distributions vary along the same axes as real multi-site MRI archives:
shape family (anatomy stand-in), a monotone contrast transform, target SNR
(field-strength stand-in), coil count and resolution. Everything is a pure
function of (spec, count).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import kspace


class DatasetFormatError(Exception):
    pass


class VersionError(DatasetFormatError):
    pass


class TruncatedPayloadError(DatasetFormatError):
    pass


class ChecksumError(DatasetFormatError):
    pass


FORMAT_VERSION = 1

SHAPE_FAMILIES = ("ellipse-phantom", "polygon-phantom", "textured-phantom")


@dataclass(frozen=True)
class DistributionSpec:
    name: str
    shape_family: str = "ellipse-phantom"
    contrast: dict = field(default_factory=lambda: {"kind": "gamma", "gamma": 1.0})
    snr_db: float = 30.0
    coils: int = 4
    extents: tuple[int, int] = (32, 32)
    seed: int = 0

    def __post_init__(self):
        if self.shape_family not in SHAPE_FAMILIES:
            raise ValueError(f"unknown shape family {self.shape_family!r}")
        if not np.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")
        h, w = self.extents
        if h < 16 or w < 16 or h % 4 or w % 4:
            raise ValueError("extents must be >= 16 and divisible by 4")
        if self.coils < 1:
            raise ValueError("coils must be >= 1")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "shape_family": self.shape_family,
            "contrast": self.contrast,
            "snr_db": self.snr_db,
            "coils": self.coils,
            "extents": list(self.extents),
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "DistributionSpec":
        return DistributionSpec(
            name=d["name"],
            shape_family=d.get("shape_family", "ellipse-phantom"),
            contrast=d.get("contrast", {"kind": "gamma", "gamma": 1.0}),
            snr_db=float(d.get("snr_db", 30.0)),
            coils=int(d.get("coils", 4)),
            extents=tuple(d.get("extents", (32, 32))),
            seed=int(d.get("seed", 0)),
        )


@dataclass(frozen=True)
class LesionAnnotation:
    row: int
    col: int
    height: int
    width: int
    area_fraction: float
    size_class: str  # "small" iff area_fraction <= 0.01

    def box(self) -> tuple[int, int, int, int]:
        return (self.row, self.col, self.height, self.width)

    def to_dict(self) -> dict:
        return {
            "row": self.row, "col": self.col, "height": self.height,
            "width": self.width, "area_fraction": self.area_fraction,
            "size_class": self.size_class,
        }


@dataclass
class Item:
    image: np.ndarray  # complex (h, w) ground truth
    sens: np.ndarray  # complex (coils, h, w), sum |S|^2 = 1
    spec_name: str
    snr_db: float
    lesion: LesionAnnotation | None = None


@dataclass
class Dataset:
    name: str
    items: list[Item]
    specs: dict[str, dict] = field(default_factory=dict)

    def __len__(self):
        return len(self.items)


# ---------------------------------------------------------------------------
# Phantom generation.
# ---------------------------------------------------------------------------


def _grid(h, w):
    r = (np.arange(h)[:, None] - (h - 1) / 2.0) / (h / 2.0)
    c = (np.arange(w)[None, :] - (w - 1) / 2.0) / (w / 2.0)
    return r, c


def _ellipse_phantom(h, w, rng) -> np.ndarray:
    r, c = _grid(h, w)
    mag = np.zeros((h, w))
    # enclosing body
    mag += 0.35 * (((r / 0.92) ** 2 + (c / 0.92) ** 2) <= 1.0)
    for _ in range(int(rng.integers(3, 8))):
        cr, cc = rng.uniform(-0.55, 0.55, size=2)
        ar, ac = rng.uniform(0.12, 0.45, size=2)
        ang = rng.uniform(0, np.pi)
        amp = rng.uniform(-0.35, 0.75)
        rr = (r - cr) * np.cos(ang) + (c - cc) * np.sin(ang)
        cc2 = -(r - cr) * np.sin(ang) + (c - cc) * np.cos(ang)
        mag += amp * ((rr / ar) ** 2 + (cc2 / ac) ** 2 <= 1.0)
    return np.clip(mag, 0.0, None)


def _polygon_phantom(h, w, rng) -> np.ndarray:
    r, c = _grid(h, w)
    mag = 0.3 * ((np.abs(r) <= 0.9) & (np.abs(c) <= 0.9)).astype(float)
    for _ in range(int(rng.integers(3, 7))):
        pts = rng.uniform(-0.8, 0.8, size=(int(rng.integers(3, 7)), 2))
        center = pts.mean(axis=0)
        amp = rng.uniform(0.2, 0.7)
        inside = np.ones((h, w), dtype=bool)
        n = len(pts)
        order = np.argsort(np.arctan2(pts[:, 0] - center[0], pts[:, 1] - center[1]))
        pts = pts[order]
        for k in range(n):
            p0, p1 = pts[k], pts[(k + 1) % n]
            # half-plane test against the edge, oriented by the centroid
            cross = (p1[1] - p0[1]) * (r - p0[0]) - (p1[0] - p0[0]) * (c - p0[1])
            sign = (p1[1] - p0[1]) * (center[0] - p0[0]) - (p1[0] - p0[0]) * (center[1] - p0[1])
            inside &= (cross * np.sign(sign)) >= 0
        mag += amp * inside
    return np.clip(mag, 0.0, None)


def _lowpass_real(h, w, cutoff, rng) -> np.ndarray:
    noise = rng.standard_normal((h, w))
    k = kspace.fft2c(noise)
    rr = np.arange(h)[:, None] - h // 2
    cc = np.arange(w)[None, :] - w // 2
    keep = (rr**2 + cc**2) <= cutoff**2
    return np.real(kspace.ifft2c(k * keep))


def _textured_phantom(h, w, rng) -> np.ndarray:
    base = _ellipse_phantom(h, w, rng)
    texture = _lowpass_real(h, w, min(h, w) / 6.0, rng)
    texture = 0.18 * texture / max(np.abs(texture).max(), 1e-12)
    body = base > 0
    return np.clip(base + texture * body, 0.0, None)


_FAMILIES = {
    "ellipse-phantom": _ellipse_phantom,
    "polygon-phantom": _polygon_phantom,
    "textured-phantom": _textured_phantom,
}


def apply_contrast(mag: np.ndarray, contrast: dict) -> np.ndarray:
    """Monotone intensity transform of nonnegative magnitudes."""
    kind = contrast.get("kind", "gamma")
    peak = float(mag.max())
    if peak == 0.0:
        return mag
    u = mag / peak
    if kind == "gamma":
        out = u ** float(contrast.get("gamma", 1.0))
    elif kind == "piecewise":
        xs = np.asarray(contrast["xs"], dtype=np.float64)
        ys = np.asarray(contrast["ys"], dtype=np.float64)
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) < 0):
            raise ValueError("piecewise contrast map must be monotone")
        out = np.interp(u, xs, ys)
    else:
        raise ValueError(f"unknown contrast kind {kind!r}")
    return out * peak


def _make_item(spec: DistributionSpec, index: int) -> Item:
    h, w = spec.extents
    rng = kspace.rng_from(spec.seed, 0x17E3, index)
    mag = _FAMILIES[spec.shape_family](h, w, rng)
    mag = apply_contrast(mag, spec.contrast)
    phase = _lowpass_real(h, w, 2.5, rng)
    phase = (np.pi / 4.0) * phase / max(np.abs(phase).max(), 1e-12)
    image = mag * np.exp(1j * phase)
    sens = kspace.simulate_sensitivities(h, w, spec.coils,
                                         rng=kspace.rng_from(spec.seed, 0x5E45, index))
    return Item(image, sens, spec.name, spec.snr_db)


def generate(spec: DistributionSpec, count: int) -> Dataset:
    """Materialize `count` items; a pure function of (spec, count)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    items = [_make_item(spec, i) for i in range(count)]
    return Dataset(spec.name, items, {spec.name: spec.to_dict()})


def train_test(spec: DistributionSpec, train_count: int = 2048, test_count: int = 128):
    """Disjoint-seed train/test pair for one distribution."""
    train = generate(replace(spec, seed=spec.seed * 2 + 1), train_count)
    test = generate(replace(spec, seed=spec.seed * 2 + 2), test_count)
    return train, test


# ---------------------------------------------------------------------------
# Dataset algebra.
# ---------------------------------------------------------------------------


def combine(datasets: list[Dataset]) -> Dataset:
    if not datasets:
        raise ValueError("nothing to combine")
    extents = {tuple(items.image.shape) for d in datasets for items in d.items}
    if len(extents) > 1:
        raise ValueError(f"incompatible extents across datasets: {sorted(extents)}")
    items = [it for d in datasets for it in d.items]
    specs: dict[str, dict] = {}
    for d in datasets:
        specs.update(d.specs)
    return Dataset("+".join(d.name for d in datasets), items, specs)


def subsample(dataset: Dataset, fraction: float, rng: np.random.Generator) -> Dataset:
    if not (0 < fraction <= 1):
        raise ValueError("fraction must be in (0, 1]")
    n = len(dataset.items)
    count = int(np.floor(fraction * n + 0.5))
    if count < 1:
        raise ValueError("subsample would be empty")
    idx = np.sort(rng.choice(n, size=count, replace=False))
    return Dataset(f"{dataset.name}~{fraction:g}", [dataset.items[i] for i in idx],
                   dict(dataset.specs))


def skew(d_large: Dataset, factor: float, seed: int = 0):
    """Return (d_large, d_small) with |d_small| = round(|d_large| / factor)."""
    if factor <= 1:
        raise ValueError("skew factor must exceed 1")
    count = int(np.floor(len(d_large.items) / factor + 0.5))
    if count < 1:
        raise ValueError("skewed set would be empty")
    small = subsample(d_large, count / len(d_large.items), kspace.rng_from(seed, 0x5CE4))
    small.name = f"{d_large.name}/skew{factor:g}"
    return d_large, small


# ---------------------------------------------------------------------------
# Synthetic lesions.
# ---------------------------------------------------------------------------


SCOREABLE_MIN_SIDE = 7  # lesion side the 7x7 windowed region metric can score


def small_lesion_fits(h: int, w: int, min_side: int = SCOREABLE_MIN_SIDE) -> bool:
    """Whether a min_side x min_side box stays within the small class's 1% of
    an h x w image, i.e. h * w >= 100 * min_side**2."""
    return min_side * min_side <= 0.01 * h * w


def insert_lesion(image: np.ndarray, rng: np.random.Generator, size_class: str = "small",
                  amplitude: float = 0.4, min_side: int = 4):
    """Add a smooth elliptical intensity anomaly inside an annotated box.

    Small means box area <= 1% of the image area. Pixels outside the box are
    untouched; amplitude 0 still emits the annotation. min_side 7 keeps boxes
    scoreable by the windowed region metric.
    """
    image = np.asarray(image, dtype=np.complex128)
    h, w = image.shape
    if size_class == "small":
        max_area = 0.01 * h * w
        if not small_lesion_fits(h, w, min_side):
            raise ValueError(f"image {h}x{w} too small for a small-class lesion")
        bh = int(rng.integers(min_side, int(np.sqrt(max_area)) + 1))
        bw_hi = max(min_side, int(max_area / bh))
        bw = int(rng.integers(min_side, bw_hi + 1))
    elif size_class == "large":
        min_area = 0.01 * h * w
        hi_h, hi_w = max(min_side, h // 3), max(min_side, w // 3)
        if hi_h * hi_w <= min_area:
            raise ValueError(f"image {h}x{w} too small for a large-class lesion")
        for _ in range(64):
            bh = int(rng.integers(min_side, hi_h + 1))
            bw = int(rng.integers(min_side, hi_w + 1))
            if bh * bw > min_area:
                break
        else:
            raise ValueError("could not place a large-class lesion")
    else:
        raise ValueError(f"size_class must be 'small' or 'large', got {size_class!r}")
    row = int(rng.integers(h // 8, h - h // 8 - bh + 1))
    col = int(rng.integers(w // 8, w - w // 8 - bw + 1))
    area_fraction = (bh * bw) / (h * w)
    ann = LesionAnnotation(row, col, bh, bw, area_fraction,
                           "small" if area_fraction <= 0.01 else "large")
    out = image.copy()
    rr = (np.arange(bh)[:, None] - (bh - 1) / 2.0) / (bh / 2.0)
    cc = (np.arange(bw)[None, :] - (bw - 1) / 2.0) / (bw / 2.0)
    rho2 = rr**2 + cc**2
    bump = np.where(rho2 < 1.0, np.cos(np.sqrt(np.minimum(rho2, 1.0)) * np.pi / 2) ** 2, 0.0)
    box = out[row : row + bh, col : col + bw]
    # adding along the local phase direction bumps the magnitude and leaves
    # the image bit-identical when amplitude is zero
    out[row : row + bh, col : col + bw] = box + amplitude * bump * np.exp(1j * np.angle(box))
    return out, ann


def add_lesions(dataset: Dataset, seed: int, size_class: str = "small",
                amplitude: float = 0.4, min_side: int = SCOREABLE_MIN_SIDE) -> Dataset:
    """Lesion-bearing copy of a dataset, one annotated lesion per item.

    The default min_side keeps every annotation scoreable by the 7x7
    windowed region metric.
    """
    items = []
    for idx, it in enumerate(dataset.items):
        img, ann = insert_lesion(it.image, kspace.rng_from(seed, 0x1E5, idx),
                                 size_class, amplitude, min_side)
        items.append(Item(img, it.sens, it.spec_name, it.snr_db, ann))
    return Dataset(f"{dataset.name}+lesions", items, dict(dataset.specs))


# ---------------------------------------------------------------------------
# Measurement simulation against a spec's SNR target.
# ---------------------------------------------------------------------------


EVAL_NOISE_TAG = 0xE7A2  # noise stream of per-volume evaluation measurements


def simulate_measurements(item: Item, mask: kspace.SamplingMask, noise_seed: int) -> np.ndarray:
    """Undersampled noisy k-space for an item at its distribution's SNR."""
    clean = kspace.apply_forward(item.image, item.sens, mask)
    sigma = kspace.sigma_for_snr(clean, mask, item.snr_db)
    return kspace.add_noise(clean, mask, kspace.NoiseModel(sigma, noise_seed))


def measure(item: Item, index: int, seed: int, acceleration: float,
            center_fraction: float, noise_tag: int):
    """Evaluation measurement of the `index`-th volume of a set.

    The mask is the per-volume evaluation mask and the noise seed is drawn
    from (seed, noise_tag, index). Returns (k-space, mask, RSS target).
    """
    mask = kspace.mask_for_volume(item.image.shape[1], acceleration, center_fraction,
                                  seed, index)
    noise_seed = int(kspace.rng_from(seed, noise_tag, index).integers(2**31))
    y = simulate_measurements(item, mask, noise_seed)
    return y, mask, kspace.ground_truth_rss(item.image, item.sens)


# ---------------------------------------------------------------------------
# On-disk format: manifest.json plus one blob of little-endian complex128.
# ---------------------------------------------------------------------------


def _payload_bytes(item: Item) -> bytes:
    return (item.image.astype("<c16").tobytes()
            + item.sens.astype("<c16").tobytes())


def save(dataset: Dataset, path: str | Path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    records = []
    offset = 0
    blob = bytearray()
    for idx, item in enumerate(dataset.items):
        payload = _payload_bytes(item)
        records.append({
            "index": idx,
            "spec": item.spec_name,
            "snr_db": item.snr_db,
            "height": item.image.shape[0],
            "width": item.image.shape[1],
            "coils": item.sens.shape[0],
            "offset": offset,
            "nbytes": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "lesion": item.lesion.to_dict() if item.lesion else None,
        })
        blob.extend(payload)
        offset += len(payload)
    manifest = {
        "format_version": FORMAT_VERSION,
        "name": dataset.name,
        "count": len(dataset.items),
        "specs": dataset.specs,
        "items": records,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    (path / "data.bin").write_bytes(bytes(blob))


def _load_item(rec: dict, blob: bytes) -> Item:
    h, w, c = rec["height"], rec["width"], rec["coils"]
    offset, nbytes = rec["offset"], rec["nbytes"]
    if not all(type(v) is int and v > 0 for v in (h, w, c, nbytes)):
        raise DatasetFormatError(f"item {rec['index']}: height, width, coils and nbytes "
                                 f"must be positive integers")
    if nbytes != (1 + c) * h * w * 16:
        raise DatasetFormatError(f"item {rec['index']}: nbytes {nbytes} != (1 + coils) * "
                                 f"height * width * 16 = {(1 + c) * h * w * 16}")
    if type(offset) is not int or offset < 0:
        raise DatasetFormatError(f"item {rec['index']}: offset {offset!r} is not a "
                                 f"non-negative integer")
    end = offset + nbytes
    if end > len(blob):
        raise TruncatedPayloadError(f"item {rec['index']} extends past end of blob")
    payload = blob[offset:end]
    if hashlib.sha256(payload).hexdigest() != rec["sha256"]:
        raise ChecksumError(f"checksum mismatch for item {rec['index']}")
    img_bytes = h * w * 16
    image = np.frombuffer(payload[:img_bytes], dtype="<c16").reshape(h, w).copy()
    sens = np.frombuffer(payload[img_bytes:], dtype="<c16").reshape(c, h, w).copy()
    lesion = LesionAnnotation(**rec["lesion"]) if rec["lesion"] else None
    return Item(image, sens, rec["spec"], rec["snr_db"], lesion)


def load(path: str | Path) -> Dataset:
    """Read a saved dataset; any damage to it raises DatasetFormatError."""
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text())
    except FileNotFoundError as e:
        raise DatasetFormatError(f"no manifest at {path}") from e
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise DatasetFormatError(f"malformed manifest at {path}: {e}") from e
    if not isinstance(manifest, dict):
        raise DatasetFormatError(f"malformed manifest at {path}: not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise VersionError(f"unsupported format version {manifest.get('format_version')!r}")
    try:
        blob = (path / "data.bin").read_bytes()
    except FileNotFoundError as e:
        raise DatasetFormatError(f"no data.bin at {path}") from e
    try:
        items = [_load_item(rec, blob) for rec in manifest["items"]]
        return Dataset(manifest["name"], items, manifest.get("specs", {}))
    except (KeyError, TypeError) as e:
        raise DatasetFormatError(f"malformed manifest at {path}: "
                                 f"{type(e).__name__}: {e}") from e


def content_hash(dataset: Dataset) -> str:
    """Stable fingerprint of a dataset's full content."""
    digest = hashlib.sha256()
    digest.update(dataset.name.encode())
    digest.update(json.dumps(dataset.specs, sort_keys=True).encode())
    for item in dataset.items:
        digest.update(_payload_bytes(item))
        digest.update(item.spec_name.encode())
        if item.lesion:
            digest.update(json.dumps(item.lesion.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Raw-volume ingestion.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawVolumeDescriptor:
    """Layout of a raw little-endian complex128 file.

    kind "3d_kspace": extents (d0, d1, d2); 2D views are synthesized with a
    1D IFFT along `axis` and sliced. kind "2d_stack": extents (n, h, w) of
    ready 2D k-spaces. trim = (leading, trailing) slices to drop.
    """

    extents: tuple[int, ...]
    kind: str = "3d_kspace"
    axis: int = 0
    trim: tuple[int, int] = (0, 0)
    name: str = "ingested"
    snr_db: float = 60.0


def ingest_raw_volume(path: str | Path, descriptor: RawVolumeDescriptor) -> Dataset:
    raw = np.fromfile(str(path), dtype="<c16")
    expected = int(np.prod(descriptor.extents))
    if raw.size != expected:
        raise DatasetFormatError(
            f"payload holds {raw.size} values, descriptor declares {expected}")
    volume = raw.reshape(descriptor.extents)
    if descriptor.kind == "3d_kspace":
        slices = kspace.views_from_3d(volume, descriptor.axis)
    elif descriptor.kind == "2d_stack":
        slices = [volume[i] for i in range(volume.shape[0])]
    else:
        raise ValueError(f"unknown raw volume kind {descriptor.kind!r}")
    lo, hi = descriptor.trim
    if lo + hi >= len(slices):
        raise DatasetFormatError("trim removes every slice")
    slices = slices[lo : len(slices) - hi] if hi else slices[lo:]
    items = []
    for ks in slices:
        image = kspace.ifft2c(ks)
        h, w = image.shape
        items.append(Item(image, kspace.unit_sensitivities(h, w, 1),
                          descriptor.name, descriptor.snr_db))
    spec_meta = {"name": descriptor.name, "ingested": True, "snr_db": descriptor.snr_db}
    return Dataset(descriptor.name, items, {descriptor.name: spec_meta})
