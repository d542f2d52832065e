"""Synthetic multi-distribution data generation and the on-disk dataset format.

Distributions vary along the same axes as real multi-site MRI archives:
shape family (anatomy stand-in), a monotone contrast transform, target SNR
(field-strength stand-in), coil count and resolution. Everything is a pure
function of (spec, count).
"""

from __future__ import annotations

import hashlib
import json
import os
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import kspace


class FormatError(ValueError):
    """Bytes read from disk that are not a well-formed file of their format."""


class DatasetFormatError(FormatError):
    pass


class VersionError(DatasetFormatError):
    pass


class TruncatedPayloadError(DatasetFormatError):
    pass


class ChecksumError(DatasetFormatError):
    pass


def from_fields(cls, d: dict):
    """Build the dataclass `cls` from a JSON object keyed by its field names,
    each value read by its field's annotation (`_read`). Defaults live only on
    the dataclass; a missing required key or an unknown key raises TypeError naming
    where it sits."""
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    return _read(cls, d, cls.__name__)


def _read(tp, value, where: str):
    """`value` read as the annotation `tp`: `X | None`, `list[X]`, a tuple from a JSON
    list (of its length if fixed), `dict[K, V]`, a dataclass from a JSON object of its
    fields (every required one, no other), a plain type, or a `Literal` as its choices'
    type. An int passes as a float and becomes one; a bool is never a number. Any other
    value raises TypeError naming `where`. An error of a dataclass's own checks that
    names `Class.field` is raised again naming `where`."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Literal:
        return _read(type(args[0]), value, where)
    if type(None) in args:
        return None if value is None else _read(args[0], value, where)
    if origin in (list, tuple):
        value = _read(list, value, where)
        fixed = args if origin is tuple and args[-1] is not Ellipsis else ()
        if fixed and len(value) != len(fixed):
            raise TypeError(f"{where} must hold {len(fixed)} items, got {value!r}")
        kinds = fixed or args[:1] * len(value)
        return origin(_read(k, v, f"{where}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    if origin is dict:
        return {_read(args[0], k, where): _read(args[1], v, f"{where}[{k!r}]")
                for k, v in _read(dict, value, where).items()}
    if is_dataclass(tp):
        value, hints = _read(dict, value, where), typing.get_type_hints(tp)
        for k in value:
            if k not in hints:
                raise TypeError(f"{where} got an unexpected keyword argument '{k}'")
        for f in fields(tp):
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise TypeError(f"{where} lacks the required key '{f.name}'")
        try:
            return tp(**{k: _read(hints[k], v, f"{where}.{k}") for k, v in value.items()})
        except (TypeError, ValueError) as e:
            if where == tp.__name__ or not str(e).startswith(f"{tp.__name__}."):
                raise
            raise type(e)(where + str(e)[len(tp.__name__):]) from e
    if (isinstance(value, bool) and tp is not bool
            or not isinstance(value, (int, float) if tp is float else tp)):
        raise TypeError(f"{where} must be {tp.__name__}, got {value!r}")
    return float(value) if tp is float else value


def within(interval: str, default=MISSING, default_factory=MISSING):
    """A field check_fields keeps in `interval`: "[1, inf)", "(0, 1]"; "[" is closed, "(" open.
    Each entry of a list or tuple value is kept there; None is left alone."""
    return field(default=default, default_factory=default_factory, metadata={"within": interval})


def check_fields(obj, error: type[Exception] = ValueError) -> None:
    """Raise `error` naming `Class.field` (and `[i]` in a list) at the first value of the
    dataclass `obj` outside its `Literal` choices or `within` interval (NaN is in none),
    or not an instance of its dataclass type."""
    hints = typing.get_type_hints(type(obj))
    for f in fields(obj):
        value, where = getattr(obj, f.name), f"{type(obj).__name__}.{f.name}"
        if is_dataclass(hints[f.name]) and not isinstance(value, hints[f.name]):
            raise error(f"{where} must be a {hints[f.name].__name__}, got {value!r}")
        if (typing.get_origin(hints[f.name]) is typing.Literal
                and value not in (choices := typing.get_args(hints[f.name]))):
            raise error(f"{where} must be one of {choices}, got {value!r}")
        if (interval := f.metadata.get("within")) and value is not None:
            lo, hi = (float(end) for end in interval[1:-1].split(","))
            entries = ([(f"{where}[{i}]", v) for i, v in enumerate(value)]
                       if isinstance(value, (list, tuple)) else [(where, value)])
            for at, v in entries:
                if not ((lo <= v if interval[0] == "[" else lo < v)
                        and (v <= hi if interval[-1] == "]" else v < hi)):
                    raise error(f"{at} must be in {interval}, got {v!r}")


FORMAT_VERSION = 1

ShapeFamily = typing.Literal["ellipse-phantom", "polygon-phantom", "textured-phantom"]
SHAPE_FAMILIES = typing.get_args(ShapeFamily)


@dataclass(frozen=True)
class Contrast:
    """The gamma map (mag / peak) ** gamma * peak that a distribution applies to
    its phantoms' magnitudes; `kind` tags the map's JSON form."""

    kind: typing.Literal["gamma"] = "gamma"
    gamma: float = within("(0, inf)", 1.0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class DistributionSpec:
    name: str
    shape_family: ShapeFamily = "ellipse-phantom"
    contrast: Contrast = Contrast()
    snr_db: float = within("(-inf, inf)", 30.0)
    coils: int = within("[1, inf)", 4)
    extents: tuple[int, int] = (32, 32)
    seed: int = within("[0, inf)", 0)

    def __post_init__(self):
        check_fields(self)
        if min(self.extents) < 16 or self.extents[0] % 4 or self.extents[1] % 4:
            raise ValueError(f"DistributionSpec.extents must be >= 16 and divisible by 4, "
                             f"got {self.extents}")

    def to_dict(self) -> dict:
        return {**asdict(self), "extents": list(self.extents)}


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


def _textured_phantom(h, w, rng) -> np.ndarray:
    base = _ellipse_phantom(h, w, rng)
    texture = np.real(kspace.lowpass(rng.standard_normal((h, w)), min(h, w) / 6.0))
    texture = 0.18 * texture / max(np.abs(texture).max(), 1e-12)
    body = base > 0
    return np.clip(base + texture * body, 0.0, None)


_FAMILIES = {
    "ellipse-phantom": _ellipse_phantom,
    "polygon-phantom": _polygon_phantom,
    "textured-phantom": _textured_phantom,
}


def apply_contrast(mag: np.ndarray, contrast: Contrast) -> np.ndarray:
    """Monotone intensity transform of nonnegative magnitudes."""
    peak = float(mag.max())
    if peak == 0.0:
        return mag
    return (mag / peak) ** contrast.gamma * peak


def _make_item(spec: DistributionSpec, index: int) -> Item:
    h, w = spec.extents
    rng = kspace.rng_from(spec.seed, 0x17E3, index)
    mag = _FAMILIES[spec.shape_family](h, w, rng)
    mag = apply_contrast(mag, spec.contrast)
    phase = np.real(kspace.lowpass(rng.standard_normal((h, w)), 2.5))
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


def train_test(spec: DistributionSpec, train_count: int, test_count: int):
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


def skew_count(n: int, factor: float) -> int:
    """Size of skew's small set drawn from n items: round(n / factor), halves up."""
    return int(np.floor(n / factor + 0.5))


def skew(d_large: Dataset, factor: float, seed: int) -> Dataset:
    """A subset of skew_count(|d_large|, factor) items of d_large."""
    count = skew_count(len(d_large.items), factor)
    if count < 1:
        raise ValueError("skewed set would be empty")
    small = subsample(d_large, count / len(d_large.items), kspace.rng_from(seed, 0x5CE4))
    small.name = f"{d_large.name}/skew{factor:g}"
    return small


# ---------------------------------------------------------------------------
# Synthetic lesions.
# ---------------------------------------------------------------------------


SCOREABLE_MIN_SIDE = 7  # least lesion side, so the 7x7 windowed region metric can score it
LESION_AMPLITUDE = 0.4  # peak magnitude a lesion adds


def small_lesion_fits(h: int, w: int) -> bool:
    """Whether a SCOREABLE_MIN_SIDE square box stays within the small class's
    1% of an h x w image, i.e. h * w >= 100 * SCOREABLE_MIN_SIDE**2."""
    return SCOREABLE_MIN_SIDE**2 <= 0.01 * h * w


def insert_lesion(image: np.ndarray, rng: np.random.Generator, size_class: str):
    """Add a smooth elliptical intensity anomaly of LESION_AMPLITUDE inside an
    annotated box whose sides are at least SCOREABLE_MIN_SIDE.

    Small means box area <= 1% of the image area. Pixels outside the box are
    untouched; amplitude 0 still emits the annotation.
    """
    image = np.asarray(image, dtype=np.complex128)
    h, w = image.shape
    min_side = SCOREABLE_MIN_SIDE
    if size_class == "small":
        max_area = 0.01 * h * w
        if not small_lesion_fits(h, w):
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
    bump = LESION_AMPLITUDE * np.where(rho2 < 1.0,
                                       np.cos(np.sqrt(np.minimum(rho2, 1.0)) * np.pi / 2) ** 2, 0.0)
    box = out[row : row + bh, col : col + bw]
    # adding along the local phase direction bumps the magnitude and leaves
    # the image bit-identical when the amplitude is zero
    out[row : row + bh, col : col + bw] = box + bump * np.exp(1j * np.angle(box))
    return out, ann


def add_lesions(dataset: Dataset, seed: int, size_class: str) -> Dataset:
    """Lesion-bearing copy of a dataset, one annotated lesion per item."""
    items = []
    for idx, it in enumerate(dataset.items):
        img, ann = insert_lesion(it.image, kspace.rng_from(seed, 0x1E5, idx), size_class)
        items.append(Item(img, it.sens, it.spec_name, it.snr_db, ann))
    return Dataset(f"{dataset.name}+lesions", items, dict(dataset.specs))


# ---------------------------------------------------------------------------
# Measurement simulation against a spec's SNR target.
# ---------------------------------------------------------------------------


EVAL_NOISE_TAG = 0xE7A2  # noise stream of per-volume evaluation measurements
TUNE_NOISE_TAG = 0x10153  # noise stream of fista.tune_lambda's measurements
TRAIN_NOISE_TAG = 0x4015E  # noise stream of learned.train's per-step measurements


def simulate_measurements(item: Item, mask: kspace.SamplingMask, noise_seed: int) -> np.ndarray:
    """Undersampled noisy k-space for an item at its distribution's SNR."""
    clean = kspace.apply_forward(item.image, kspace.Encoding(item.sens, mask))
    sigma = kspace.sigma_for_snr(clean, mask, item.snr_db)
    return kspace.add_noise(clean, mask, sigma, noise_seed)


def measure(item: Item, mask: kspace.SamplingMask, *noise_keys: int):
    """Measurement of `item` under `mask`, its noise seed drawn from the stream
    of `noise_keys` (a noise tag among them). Returns (k-space, RSS target)."""
    noise_seed = int(kspace.rng_from(*noise_keys).integers(2**31))
    y = simulate_measurements(item, mask, noise_seed)
    return y, kspace.ground_truth_rss(item.image, item.sens)


def score(dataset: Dataset, reconstructors, mask_seed: int, acceleration: float,
          center_fraction: float, noise_tag: int, metric) -> np.ndarray:
    """(items x reconstructors) float64 matrix: the i-th item is measured once, under
    its per-volume mask with noise keys (mask_seed, noise_tag, i), then each
    reconstructor in order runs on it as `reconstruct(y, sens, mask)` and is
    scored as `metric(recon, target, item)`.
    A non-finite image raises FloatingPointError naming the item."""
    scores = np.empty((len(dataset.items), len(reconstructors)))
    for i, item in enumerate(dataset.items):
        mask = kspace.mask_for_volume(item.image.shape[1], acceleration, center_fraction,
                                      mask_seed, i)
        y, target = measure(item, mask, mask_seed, noise_tag, i)
        for j, reconstruct in enumerate(reconstructors):
            recon = reconstruct(y, item.sens, mask)
            if not np.isfinite(recon).all():
                raise FloatingPointError(f"non-finite reconstruction of item {i}")
            scores[i, j] = metric(recon, target, item)
    return scores


def column_means(scores: np.ndarray) -> list[float]:
    """Column means summed in item order (`scores.mean(axis=0)` can differ in the last bit)."""
    return [float(np.mean(scores[:, j])) for j in range(scores.shape[1])]


# ---------------------------------------------------------------------------
# On-disk format: manifest.json plus one blob of little-endian complex128.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ItemRecord:
    """One item of a manifest: where its payload sits in data.bin and what it holds."""

    index: int
    spec: str
    snr_db: float
    height: int
    width: int
    coils: int
    offset: int
    nbytes: int
    sha256: str
    lesion: LesionAnnotation | None


@dataclass(frozen=True)
class Manifest:
    """A dataset's manifest.json; `items` lists the payloads of data.bin in order."""

    format_version: int
    name: str
    count: int
    specs: dict[str, dict]
    items: list[ItemRecord]


def _payload_bytes(item: Item) -> bytes:
    return (item.image.astype("<c16").tobytes()
            + item.sens.astype("<c16").tobytes())


def save(dataset: Dataset, path: str | Path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    records = []
    offset = 0
    # the blob first, so a failed write never leaves a manifest beside it
    with open(path / "data.bin", "wb") as blob:
        for index, item in enumerate(dataset.items):
            payload = _payload_bytes(item)
            blob.write(payload)
            records.append(ItemRecord(index, item.spec_name, item.snr_db, *item.image.shape,
                                      item.sens.shape[0], offset, len(payload),
                                      hashlib.sha256(payload).hexdigest(), item.lesion))
            offset += len(payload)
    manifest = Manifest(FORMAT_VERSION, dataset.name, len(records), dataset.specs, records)
    (path / "manifest.json").write_text(json.dumps(asdict(manifest), indent=1, sort_keys=True))


def _load_item(rec: ItemRecord, blob: typing.BinaryIO, blob_size: int) -> Item:
    """Check one record, then read, verify and copy out its payload only. The
    payload's end is checked against `blob_size` before anything is read, so no
    read or buffer is sized from an `nbytes` the blob cannot hold."""
    h, w, c, offset, nbytes = rec.height, rec.width, rec.coils, rec.offset, rec.nbytes
    if min(h, w, c, nbytes) <= 0 or offset < 0:
        raise DatasetFormatError(f"item {rec.index}: height, width, coils and nbytes must "
                                 f"be positive and offset non-negative")
    if nbytes != (1 + c) * h * w * 16:
        raise DatasetFormatError(f"item {rec.index}: nbytes {nbytes} != (1 + coils) * "
                                 f"height * width * 16 = {(1 + c) * h * w * 16}")
    if not np.isfinite(rec.snr_db):
        raise DatasetFormatError(f"item {rec.index}: snr_db {rec.snr_db!r} is not finite")
    if offset + nbytes > blob_size:
        raise TruncatedPayloadError(f"item {rec.index} extends past end of blob")
    blob.seek(offset)
    payload = blob.read(nbytes)
    if len(payload) != nbytes:  # the file shrank after it was opened
        raise TruncatedPayloadError(f"item {rec.index} extends past end of blob")
    if hashlib.sha256(payload).hexdigest() != rec.sha256:
        raise ChecksumError(f"checksum mismatch for item {rec.index}")
    view, img_bytes = memoryview(payload), h * w * 16
    image = np.frombuffer(view[:img_bytes], dtype="<c16").reshape(h, w).copy()
    sens = np.frombuffer(view[img_bytes:], dtype="<c16").reshape(c, h, w).copy()
    return Item(image, sens, rec.spec, rec.snr_db, rec.lesion)


def load(path: str | Path) -> Dataset:
    """Read a saved dataset; any damage to it raises DatasetFormatError.

    The manifest is checked whole first. `data.bin` is then opened once and
    read one item at a time: each record is checked, its payload read and
    verified, and its arrays copied out, so at most one payload is held
    beside the loaded arrays."""
    path = Path(path)
    try:
        raw = json.loads((path / "manifest.json").read_text())
    except OSError as e:
        raise DatasetFormatError(f"no readable manifest.json at {path}: {e.strerror}") from e
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise DatasetFormatError(f"malformed manifest at {path}: {e}") from e
    if not isinstance(raw, dict):
        raise DatasetFormatError(f"malformed manifest at {path}: not a JSON object")
    if raw.get("format_version") != FORMAT_VERSION:
        raise VersionError(f"unsupported format version {raw.get('format_version')!r}")
    try:
        manifest = from_fields(Manifest, raw)
    except TypeError as e:
        raise DatasetFormatError(f"malformed manifest at {path}: {e}") from e
    if manifest.count < 1:
        raise DatasetFormatError(f"malformed manifest at {path}: count {manifest.count} < 1")
    if [r.index for r in manifest.items] != list(range(manifest.count)):
        raise DatasetFormatError(f"malformed manifest at {path}: count {manifest.count} with "
                                 f"item indices {[r.index for r in manifest.items]}")
    try:
        with open(path / "data.bin", "rb") as blob:
            size = os.fstat(blob.fileno()).st_size
            items = [_load_item(rec, blob, size) for rec in manifest.items]
    except OSError as e:
        raise DatasetFormatError(f"no readable data.bin at {path}: {e.strerror}") from e
    return Dataset(manifest.name, items, manifest.specs)


def content_hash(dataset: Dataset) -> str:
    """Stable fingerprint of a dataset's full content."""
    digest = hashlib.sha256()
    digest.update(dataset.name.encode())
    digest.update(json.dumps(dataset.specs, sort_keys=True).encode())
    for item in dataset.items:
        digest.update(_payload_bytes(item))
        digest.update(item.spec_name.encode())
        if item.lesion:
            digest.update(json.dumps(asdict(item.lesion), sort_keys=True).encode())
    return digest.hexdigest()
