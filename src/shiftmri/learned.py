"""End-to-end trained reconstruction at desk scale.

Two models: a U-net style image-domain post-processor of the zero-filled RSS
reconstruction, and an unrolled network alternating learnable data-consistency
steps x <- x - eta * A^H(A x - y) with a small convolutional denoiser. Both
are built from the autodiff op set; complex images live on the tape as
2-channel real tensors. The Fourier transform inside the unroll is the exact
centered unitary DFT realized as constant matrix products.

The training loop follows the standard recipe: SSIM (or MSE) loss against the
RSS target, Adam or SGD, linear warmup then linear decay, global gradient-norm
clipping, a fresh undersampling mask per mini-batch and fixed per-volume masks
for evaluation. A checkpoint is written after every epoch.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as datamod
from . import kspace
from .metrics import SsimConfig, normalize_output, ssim

MAGIC = b"SMRI"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "unet_lite"  # or "varnet_lite"
    channels: int = 8  # first-level channel count (unet) / ignored by varnet
    pool_levels: int = 2
    cascades: int = 3  # varnet only
    denoiser_channels: int = 6  # varnet only
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("unet_lite", "varnet_lite"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.pool_levels < 1 or self.channels < 1:
            raise ValueError("pool_levels and channels must be >= 1")
        if self.kind == "varnet_lite" and self.cascades < 1:
            raise ValueError("cascades must be >= 1")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "channels": self.channels,
            "pool_levels": self.pool_levels, "cascades": self.cascades,
            "denoiser_channels": self.denoiser_channels, "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(**d)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4
    batch_size: int = 1
    optimizer: str = "adam"  # or "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    momentum: float = 0.0  # sgd only
    lr_max: float = 1e-3
    lr_min: float = 4e-5
    warmup_fraction: float = 0.01
    clip_norm: float = 1.0
    loss: str = "one_minus_ssim"  # or "mse"
    acceleration: float = 4.0
    center_fraction: float = 0.08
    accelerations: tuple[float, ...] | None = None  # per-batch sampling when set
    mask_policy: str = "fresh-per-batch"
    eval_mask_policy: str = "fixed-per-volume"
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.warmup_fraction <= 1):
            raise ValueError("warmup_fraction must be in [0, 1]")
        if self.clip_norm <= 0 or self.lr_max < self.lr_min or self.lr_min <= 0:
            raise ValueError("need clip_norm > 0 and lr_max >= lr_min > 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.loss not in ("one_minus_ssim", "mse"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size >= 1 and epochs >= 0 required")
        if self.mask_policy != "fresh-per-batch":
            raise ValueError("training always samples a fresh mask per mini-batch")
        if self.eval_mask_policy != "fixed-per-volume":
            raise ValueError("evaluation always fixes one mask per volume")

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "epochs", "batch_size", "optimizer", "beta1", "beta2", "momentum",
            "lr_max", "lr_min", "warmup_fraction", "clip_norm", "loss",
            "acceleration", "center_fraction", "mask_policy", "eval_mask_policy",
            "seed")}
        if self.accelerations is not None:
            d["accelerations"] = list(self.accelerations)
        return d

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        d = dict(d)
        if d.get("accelerations") is not None:
            d["accelerations"] = tuple(float(a) for a in d["accelerations"])
        return TrainConfig(**d)


def learning_rate_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Piecewise-linear schedule. `step` is 1-based; warmup has a 1-step floor."""
    if step < 1 or step > total_steps:
        raise ValueError(f"step {step} outside 1..{total_steps}")
    warmup = max(1, int(np.floor(config.warmup_fraction * total_steps + 0.5)))
    warmup = min(warmup, total_steps)
    if step <= warmup:
        return config.lr_max * step / warmup
    return config.lr_max + (config.lr_min - config.lr_max) * (step - warmup) / (total_steps - warmup)


# ---------------------------------------------------------------------------
# Models.
# ---------------------------------------------------------------------------


def _he_init(rng, cout, cin, k):
    return rng.standard_normal((cout, cin, k, k)) * np.sqrt(2.0 / (cin * k * k))


class UnetLite:
    """Image-domain post-processor of the normalized zero-filled RSS image."""

    def __init__(self, config: ModelConfig):
        self.config = config
        ch, levels = config.channels, config.pool_levels
        self.layer_shapes: list[tuple[str, tuple]] = []
        self._add_conv("in", ch, 1)
        for i in range(1, levels + 1):
            self._add_conv(f"enc{i}", ch * 2**i, ch * 2 ** (i - 1))
        for i in range(levels - 1, -1, -1):
            self._add_conv(f"dec{i}", ch * 2**i, ch * 2 ** (i + 1) + ch * 2**i)
        self._add_conv("out", 1, ch)

    def _add_conv(self, name, cout, cin, k=3):
        self.layer_shapes.append((f"{name}.w", (cout, cin, k, k)))
        self.layer_shapes.append((f"{name}.b", (cout,)))

    @property
    def param_shapes(self):
        return [s for _, s in self.layer_shapes]

    def init_params(self) -> list[np.ndarray]:
        rng = kspace.rng_from(self.config.seed, 0x0DE1)
        params = []
        for name, shape in self.layer_shapes:
            if name.endswith(".b"):
                params.append(np.zeros(shape))
            elif name.startswith("out"):
                params.append(rng.standard_normal(shape) * np.sqrt(1.0 / np.prod(shape[1:])))
            else:
                params.append(_he_init(rng, shape[0], shape[1], shape[2]))
        return params

    def _check_extents(self, h, w):
        div = 2**self.config.pool_levels
        if h % div or w % div:
            raise ValueError(
                f"extents {(h, w)} not divisible by 2^{self.config.pool_levels}")

    def reconstruct(self, params, y, sens, mask) -> ad.Tensor:
        zf = kspace.zero_filled_rss(y)
        h, w = zf.shape
        self._check_extents(h, w)
        mean = float(zf.mean())
        std = float(zf.std())
        std = std if std > 1e-12 else 1.0
        x = ad.Tensor(((zf - mean) / std)[None])
        p = iter(params)

        def conv_relu(t):
            return ad.relu(ad.conv2d(t, next(p), next(p)))

        skips = [conv_relu(x)]
        for _ in range(self.config.pool_levels):
            skips.append(conv_relu(ad.avgpool2(skips[-1])))
        cur = skips.pop()
        while skips:
            cur = conv_relu(ad.concat_channels([ad.upsample2(cur), skips.pop()]))
        out = ad.conv2d(cur, next(p), next(p))
        out = ad.reshape(out, (h, w))
        out = ad.scale(out, std)
        return ad.add(out, ad.Tensor(np.full((h, w), mean)))


def _dft_matrix(n: int, inverse: bool) -> np.ndarray:
    eye = np.eye(n, dtype=np.complex128)
    return kspace.ifft1c(eye, 0) if inverse else kspace.fft1c(eye, 0)


_DFT_CACHE: dict = {}


def _dft_pair(n: int, inverse: bool):
    key = (n, inverse)
    if key not in _DFT_CACHE:
        m = _dft_matrix(n, inverse)
        _DFT_CACHE[key] = (ad.Tensor(m.real), ad.Tensor(m.imag))
    return _DFT_CACHE[key]


def _split2ch(x: ad.Tensor):
    h, w = x.shape[1], x.shape[2]
    xr = ad.reshape(ad.slice_channels(x, 0, 1), (h, w))
    xi = ad.reshape(ad.slice_channels(x, 1, 2), (h, w))
    return xr, xi


def _stack2ch(xr: ad.Tensor, xi: ad.Tensor) -> ad.Tensor:
    h, w = xr.shape
    return ad.concat_channels([ad.reshape(xr, (1, h, w)), ad.reshape(xi, (1, h, w))])


def _complex_lmatmul(ar, ai, xr, xi):
    # (ar + i ai) @ (xr + i xi)
    re = ad.add(ad.matmul(ar, xr), ad.scale(ad.matmul(ai, xi), -1.0))
    im = ad.add(ad.matmul(ar, xi), ad.matmul(ai, xr))
    return re, im


def tape_fft2c(x: ad.Tensor, inverse: bool = False) -> ad.Tensor:
    """Centered unitary 2D DFT of a (2,h,w) tensor via constant matrix products."""
    h, w = x.shape[1], x.shape[2]
    fr_h, fi_h = _dft_pair(h, inverse)
    fr_w, fi_w = _dft_pair(w, inverse)
    xr, xi = _split2ch(x)
    r1, i1 = _complex_lmatmul(fr_h, fi_h, xr, xi)
    # right-multiply by F_w^T: (z @ F^T) = (F @ z^T)^T; use transposed constants
    frt = ad.Tensor(fr_w.data.T)
    fit = ad.Tensor(fi_w.data.T)
    re = ad.add(ad.matmul(r1, frt), ad.scale(ad.matmul(i1, fit), -1.0))
    im = ad.add(ad.matmul(r1, fit), ad.matmul(i1, frt))
    return _stack2ch(re, im)


def _as2ch(z: np.ndarray) -> np.ndarray:
    return np.stack([np.real(z), np.imag(z)])


class VarnetLite:
    """Unrolled reconstruction with learnable per-cascade step sizes.

    Consumes the simulated sensitivity maps directly. The final denoiser conv
    of each cascade is zero-initialized so the unroll starts as pure data
    consistency.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        dch = config.denoiser_channels
        self.layer_shapes: list[tuple[str, tuple]] = []
        for c in range(config.cascades):
            self.layer_shapes.append((f"c{c}.eta", ()))
            for name, cout, cin in ((f"c{c}.d1", dch, 2), (f"c{c}.d2", dch, dch),
                                    (f"c{c}.d3", 2, dch)):
                self.layer_shapes.append((f"{name}.w", (cout, cin, 3, 3)))
                self.layer_shapes.append((f"{name}.b", (cout,)))

    @property
    def param_shapes(self):
        return [s for _, s in self.layer_shapes]

    def init_params(self) -> list[np.ndarray]:
        rng = kspace.rng_from(self.config.seed, 0x7A12)
        params = []
        for name, shape in self.layer_shapes:
            if name.endswith(".eta"):
                params.append(np.ones(()))
            elif ".d3" in name or name.endswith(".b"):
                params.append(np.zeros(shape))
            else:
                params.append(_he_init(rng, shape[0], shape[1], shape[2]))
        return params

    def _check_extents(self, h, w):
        div = 2  # denoiser is pool-free; only the FFT matrices constrain extents
        if h < div or w < div:
            raise ValueError(f"extents {(h, w)} too small")

    def reconstruct(self, params, y, sens, mask) -> ad.Tensor:
        coils, h, w = y.shape
        self._check_extents(h, w)
        y2 = [ad.Tensor(_as2ch(y[i])) for i in range(coils)]
        s2 = [ad.Tensor(_as2ch(sens[i])) for i in range(coils)]
        sc2 = [ad.Tensor(_as2ch(np.conj(sens[i]))) for i in range(coils)]
        mask2 = ad.Tensor(np.broadcast_to(mask.sampled.astype(np.float64), (2, h, w)).copy())
        x = ad.Tensor(_as2ch(kspace.apply_adjoint(y, sens, mask)))
        p = iter(params)
        for _ in range(self.config.cascades):
            eta = next(p)
            adj = None
            for i in range(coils):
                k = tape_fft2c(ad.complex_mul_2ch(s2[i], x))
                resid = ad.add(ad.mul(mask2, k), ad.scale(y2[i], -1.0))
                back = ad.complex_mul_2ch(sc2[i], tape_fft2c(ad.mul(mask2, resid), inverse=True))
                adj = back if adj is None else ad.add(adj, back)
            dc = ad.mul(eta, adj)
            d = ad.relu(ad.conv2d(x, next(p), next(p)))
            d = ad.relu(ad.conv2d(d, next(p), next(p)))
            d = ad.conv2d(d, next(p), next(p))
            x = ad.add(x, ad.scale(ad.add(dc, d), -1.0))
        return ad.magnitude_2ch(x)


def construct_model(config: ModelConfig):
    return UnetLite(config) if config.kind == "unet_lite" else VarnetLite(config)


def parameter_count(config: ModelConfig) -> int:
    return int(sum(np.prod(s) for s in construct_model(config).param_shapes))


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    config: ModelConfig
    params: list[np.ndarray]
    epoch: int
    fingerprint: str  # content hash of the training set
    rng_state: dict
    train_extents: tuple[int, int]
    provenance: list[str] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        header = {
            "model": self.config.to_dict(),
            "epoch": self.epoch,
            "fingerprint": self.fingerprint,
            "rng_state": self.rng_state,
            "train_extents": list(self.train_extents),
            "provenance": self.provenance,
        }
        hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        buf = io.BytesIO()
        buf.write(MAGIC)
        buf.write(struct.pack("<I", CHECKPOINT_VERSION))
        buf.write(struct.pack("<Q", len(hjson)))
        buf.write(hjson)
        for p in self.params:
            buf.write(np.ascontiguousarray(p, dtype="<f8").tobytes())
        return buf.getvalue()

    @staticmethod
    def from_bytes(raw: bytes) -> "Checkpoint":
        if raw[:4] != MAGIC:
            raise ValueError("bad checkpoint magic")
        version = struct.unpack("<I", raw[4:8])[0]
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        hlen = struct.unpack("<Q", raw[8:16])[0]
        header = json.loads(raw[16 : 16 + hlen])
        config = ModelConfig.from_dict(header["model"])
        shapes = construct_model(config).param_shapes
        params = []
        off = 16 + hlen
        for shape in shapes:
            n = int(np.prod(shape)) if shape else 1
            chunk = raw[off : off + 8 * n]
            if len(chunk) != 8 * n:
                raise ValueError("truncated checkpoint payload")
            params.append(np.frombuffer(chunk, dtype="<f8").reshape(shape).copy())
            off += 8 * n
        return Checkpoint(config, params, header["epoch"], header["fingerprint"],
                          header["rng_state"], tuple(header["train_extents"]),
                          header.get("provenance", []))

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @staticmethod
    def load(path: str | Path) -> "Checkpoint":
        return Checkpoint.from_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


# gradients below this global norm are floating-point ghosts of an exact
# fixed point (e.g. perfect data consistency); stepping on them would let the
# scale-invariant Adam update walk away from the optimum
GRAD_FLOOR = 1e-12


def _clip_gradients(grads: list[np.ndarray], clip_norm: float) -> list[np.ndarray]:
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > clip_norm:
        factor = clip_norm / total
        return [g * factor for g in grads]
    return grads


class _Optimizer:
    def __init__(self, config: TrainConfig, shapes):
        self.config = config
        self.t = 0
        if config.optimizer == "adam":
            self.m = [np.zeros(s) for s in shapes]
            self.v = [np.zeros(s) for s in shapes]
        else:
            self.buf = [np.zeros(s) for s in shapes]

    def step(self, params, grads, lr):
        self.t += 1
        c = self.config
        if c.optimizer == "adam":
            for i, g in enumerate(grads):
                self.m[i] = c.beta1 * self.m[i] + (1 - c.beta1) * g
                self.v[i] = c.beta2 * self.v[i] + (1 - c.beta2) * g * g
                mhat = self.m[i] / (1 - c.beta1**self.t)
                vhat = self.v[i] / (1 - c.beta2**self.t)
                params[i] = params[i] - lr * mhat / (np.sqrt(vhat) + 1e-8)
        else:
            for i, g in enumerate(grads):
                self.buf[i] = c.momentum * self.buf[i] + g
                params[i] = params[i] - lr * self.buf[i]


def _loss_node(out: ad.Tensor, target: np.ndarray, kind: str) -> ad.Tensor:
    if kind == "one_minus_ssim":
        cfg = SsimConfig(data_range=float(target.max()) or 1.0)
        return ad.ssim_loss(out, ad.Tensor(target), cfg)
    diff = ad.add(out, ad.scale(ad.Tensor(target), -1.0))
    return ad.reduce_mean(ad.mul(diff, diff))


def train(model_config: ModelConfig, train_set: datamod.Dataset, config: TrainConfig,
          monitors: list[tuple[str, datamod.Dataset]] | None = None,
          init_params: list[np.ndarray] | None = None,
          provenance: list[str] | None = None):
    """Train on simulated measurements with a fresh mask per mini-batch.

    Returns (checkpoints, traces): one checkpoint per epoch (index 0 is the
    initialization) and per-epoch mean-SSIM traces for every monitor set,
    evaluated under fixed per-volume masks.
    """
    if not train_set.items:
        raise ValueError("empty training set")
    model = construct_model(model_config)
    params = [p.copy() for p in (init_params or model.init_params())]
    for p, s in zip(params, model.param_shapes):
        if p.shape != tuple(s):
            raise ValueError(f"parameter shape {p.shape} does not match config {s}")
    monitors = monitors or []
    fingerprint = datamod.content_hash(train_set)
    extents = train_set.items[0].image.shape
    opt = _Optimizer(config, model.param_shapes)
    n = len(train_set.items)
    steps_per_epoch = int(np.ceil(n / config.batch_size))
    total_steps = max(1, config.epochs * steps_per_epoch)

    def snapshot(epoch):
        return Checkpoint(model_config, [p.copy() for p in params], epoch, fingerprint,
                          {"seed": config.seed, "epochs_completed": epoch},
                          extents, list(provenance or []))

    checkpoints = [snapshot(0)]
    traces: dict[str, list[float]] = {name: [] for name, _ in monitors}
    loss_trace: list[float] = []
    step = 0
    for epoch in range(config.epochs):
        order = kspace.rng_from(config.seed, 0x0EA2, epoch).permutation(n)
        epoch_losses = []
        for b0 in range(0, n, config.batch_size):
            step += 1
            batch = order[b0 : b0 + config.batch_size]
            if config.accelerations:
                pick = int(kspace.rng_from(config.seed, 0xACCE1, step)
                           .integers(len(config.accelerations)))
                accel = config.accelerations[pick]
            else:
                accel = config.acceleration
            cf = kspace.feasible_center_fraction(extents[1], accel, config.center_fraction)
            mask = kspace.mask_for_batch(extents[1], accel, cf, config.seed, step)
            with ad.Tape() as tape:
                leaves = [tape.leaf(p) for p in params]
                loss = None
                for j, idx in enumerate(batch):
                    item = train_set.items[int(idx)]
                    noise_seed = int(kspace.rng_from(config.seed, 0x4015E, step, j).integers(2**31))
                    y = datamod.simulate_measurements(item, mask, noise_seed)
                    target = kspace.ground_truth_rss(item.image, item.sens)
                    out = model.reconstruct(leaves, y, item.sens, mask)
                    li = _loss_node(out, target, config.loss)
                    loss = li if loss is None else ad.add(loss, li)
                loss = ad.scale(loss, 1.0 / len(batch))
                if not np.isfinite(loss.data):
                    raise FloatingPointError(
                        f"non-finite loss at epoch {epoch} step {step}")
                grads_map = ad.backward(tape, loss)
            grads = [grads_map[leaf.node_id].data for leaf in leaves]
            gnorm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
            lr = learning_rate_at(step, total_steps, config)
            if gnorm > GRAD_FLOOR:
                grads = _clip_gradients(grads, config.clip_norm)
                opt.step(params, grads, lr)
            epoch_losses.append(float(loss.data))
        loss_trace.append(float(np.mean(epoch_losses)))
        checkpoints.append(snapshot(epoch + 1))
        for name, mon_set in monitors:
            traces[name].append(evaluate_params(model_config, params, mon_set,
                                                mask_seed=config.seed,
                                                acceleration=config.acceleration,
                                                center_fraction=config.center_fraction)[0])
    traces["train_loss"] = loss_trace
    return checkpoints, traces


def finetune(checkpoint: Checkpoint, new_set: datamod.Dataset, config: TrainConfig,
             monitors=None):
    """Continue training from a checkpoint on a new dataset."""
    model = construct_model(checkpoint.config)
    for p, s in zip(checkpoint.params, model.param_shapes):
        if p.shape != tuple(s):
            raise ValueError("checkpoint parameters do not match its config")
    chain = checkpoint.provenance + [checkpoint.fingerprint]
    return train(checkpoint.config, new_set, config, monitors,
                 init_params=checkpoint.params, provenance=chain)


# ---------------------------------------------------------------------------
# Inference and evaluation.
# ---------------------------------------------------------------------------


def _upsample_sens(sens: np.ndarray) -> np.ndarray:
    up = np.repeat(np.repeat(sens, 2, axis=1), 2, axis=2)
    norm = np.sqrt(np.sum(np.abs(up) ** 2, axis=0))
    return up / norm


def infer(checkpoint: Checkpoint, y: np.ndarray, sens: np.ndarray,
          mask: kspace.SamplingMask) -> np.ndarray:
    """Deterministic reconstruction from a checkpoint.

    Extents matching the training extents run directly; half-extent inputs
    are routed through interleaved k-space repetition along both axes and the
    output is center-cropped back.
    """
    model = construct_model(checkpoint.config)
    params = [ad.Tensor(p) for p in checkpoint.params]
    h, w = y.shape[-2:]
    th, tw = checkpoint.train_extents
    if (h, w) == (th, tw):
        return model.reconstruct(params, y, sens, mask).data
    if (2 * h, 2 * w) == (th, tw):
        y2, mask2 = kspace.interleave_upsample(y, mask, "horizontal")
        y2, mask2 = kspace.interleave_upsample(y2, mask2, "vertical")
        out = model.reconstruct(params, y2, _upsample_sens(sens), mask2).data
        return kspace.center_crop(out, h, w)
    raise ValueError(
        f"extents {(h, w)} not resolvable against training extents {(th, tw)}")


def evaluate_params(model_config: ModelConfig, params: list[np.ndarray],
                    dataset: datamod.Dataset, mask_seed: int,
                    acceleration: float = 4.0, center_fraction: float = 0.08,
                    normalize: bool = False):
    """Mean SSIM of a parameter set over a dataset under per-volume masks.

    Returns (mean ssim, per-item ssims, any-normalization-fallback flag).
    """
    model = construct_model(model_config)
    tensors = [ad.Tensor(p) for p in params]
    vals = []
    fallback = False
    for idx, item in enumerate(dataset.items):
        y, mask, target = datamod.measure(item, idx, mask_seed, acceleration,
                                          center_fraction, datamod.EVAL_NOISE_TAG)
        out = model.reconstruct(tensors, y, item.sens, mask).data
        if normalize:
            out, used_fallback = normalize_output(out, target)
            fallback = fallback or used_fallback
        vals.append(ssim(out, target, SsimConfig(data_range=float(target.max()) or 1.0)))
    return float(np.mean(vals)), vals, fallback


def evaluate_checkpoint(checkpoint: Checkpoint, dataset: datamod.Dataset, mask_seed: int,
                        acceleration: float = 4.0, center_fraction: float = 0.08,
                        normalize: bool = False):
    return evaluate_params(checkpoint.config, checkpoint.params, dataset, mask_seed,
                           acceleration, center_fraction, normalize)
