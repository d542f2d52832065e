"""End-to-end trained reconstruction at desk scale.

Two models: a U-net style image-domain post-processor of the zero-filled RSS
reconstruction, and an unrolled network alternating learnable data-consistency
steps x <- x - eta * A^H(A x - y) with a small convolutional denoiser. The
unroll starts from A^H y, formed through one kspace.HybridEncoding as
fista_l1 forms its first image. Both models are built from the autodiff op
set; complex images live on the tape as 2-channel real tensors and
multi-coil data as (2, coils, h, w) stacks. The Fourier transform inside the
unroll is the exact centered unitary DFT realized as real constant matrix
products on the 2-channel coil stack, so each cascade records one
data-consistency graph whatever the coil count.

A model's parameters are one float64 vector in its layer order: training,
the optimizer and checkpoints work on the whole vector, and `split` gives the
per-layer arrays as views of it.

Every model trains under one fixed recipe, the module constants below: one
item per step, 1 - SSIM loss against the RSS target, Adam, linear warmup then
linear decay, global gradient-norm clipping, a fresh undersampling mask per
step and fixed per-volume masks for evaluation. A checkpoint is written after
every epoch.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as datamod
from . import kspace
from .metrics import normalize_output, ssim

MAGIC = b"SMRI"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    kind: typing.Literal["unet_lite", "varnet_lite"] = "unet_lite"
    channels: int = datamod.within("[1, inf)", 8)  # first-level channels; unet only
    pool_levels: int = datamod.within("[1, inf)", 2)
    cascades: int = datamod.within("[1, inf)", 3)  # varnet only
    denoiser_channels: int = datamod.within("[1, inf)", 6)  # varnet only
    seed: int = 0

    def __post_init__(self):
        datamod.check_fields(self)

    def to_dict(self) -> dict:
        return asdict(self)


BETA1, BETA2 = 0.9, 0.999  # Adam's moment decay rates
LR_MAX, LR_MIN = 1e-3, 4e-5  # the learning rate at the end of warmup and at the last step
WARMUP_FRACTION = 0.01  # of all steps, rounded half up, at least one
CLIP_NORM = 1.0  # largest global gradient norm a step applies


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = datamod.within("[0, inf)", 4)
    acceleration: float = datamod.within("[1, inf)", 4.0)
    center_fraction: float = datamod.within("(0, 1)", 0.08)
    accelerations: tuple[float, ...] | None = None  # per-step sampling when set
    seed: int = 0

    def __post_init__(self):
        datamod.check_fields(self)
        for i, r in enumerate(self.accelerations or ()):
            if not r >= 1:  # NaN too
                raise ValueError(f"TrainConfig.accelerations[{i}] must be in [1, inf), got {r!r}")


def learning_rate_at(step: int, total_steps: int) -> float:
    """Piecewise-linear schedule. `step` is 1-based; warmup has a 1-step floor."""
    if step < 1 or step > total_steps:
        raise ValueError(f"step {step} outside 1..{total_steps}")
    warmup = max(1, int(np.floor(WARMUP_FRACTION * total_steps + 0.5)))
    if step <= warmup:
        return LR_MAX * step / warmup
    return LR_MAX + (LR_MIN - LR_MAX) * (step - warmup) / (total_steps - warmup)


# ---------------------------------------------------------------------------
# Models.
# ---------------------------------------------------------------------------


def _he_init(rng, shape, gain=2.0):
    return rng.standard_normal(shape) * np.sqrt(gain / np.prod(shape[1:]))


class _Layout:
    """Parameters as one float64 vector in the layer order of `layer_shapes`,
    the (name, shape) list each model fills in its constructor."""

    layer_shapes: list[tuple[str, tuple]]

    @property
    def param_shapes(self) -> list[tuple]:
        return [s for _, s in self.layer_shapes]

    @property
    def size(self) -> int:
        return sum(math.prod(s) for s in self.param_shapes)

    def split(self, theta: np.ndarray) -> list[np.ndarray]:
        """Per-layer views of `theta`, no copies."""
        ends = list(itertools.accumulate(math.prod(s) for s in self.param_shapes))
        return [v.reshape(s) for v, s in zip(np.split(theta, ends[:-1]), self.param_shapes)]

    def _add_conv(self, name, cout, cin, k=3):
        self.layer_shapes.append((f"{name}.w", (cout, cin, k, k)))
        self.layer_shapes.append((f"{name}.b", (cout,)))


class UnetLite(_Layout):
    """Image-domain post-processor of the normalized zero-filled RSS image."""

    def __init__(self, config: ModelConfig):
        self.config = config
        ch, levels = config.channels, config.pool_levels
        self.layer_shapes = []
        self._add_conv("in", ch, 1)
        for i in range(1, levels + 1):
            self._add_conv(f"enc{i}", ch * 2**i, ch * 2 ** (i - 1))
        for i in range(levels - 1, -1, -1):
            self._add_conv(f"dec{i}", ch * 2**i, ch * 2 ** (i + 1) + ch * 2**i)
        self._add_conv("out", 1, ch)

    def init_params(self) -> np.ndarray:
        rng = kspace.rng_from(self.config.seed, 0x0DE1)
        theta = np.zeros(self.size)
        for (name, shape), p in zip(self.layer_shapes, self.split(theta)):
            if name.endswith(".w"):  # biases start at zero
                p[...] = _he_init(rng, shape, 1.0 if name == "out.w" else 2.0)
        return theta

    def check_extents(self, h, w):
        div = 2**self.config.pool_levels
        if h % div or w % div:
            raise ValueError(
                f"extents {(h, w)} not divisible by 2^{self.config.pool_levels}")

    def reconstruct(self, params, y, sens, mask) -> ad.Tensor:
        zf = kspace.zero_filled_rss(y)
        h, w = zf.shape
        self.check_extents(h, w)
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


@functools.cache
def _dft_constants(h: int, w: int, inverse: bool):
    """Tape constants (Re F_h, Im F_h, Re F_w^T, Im F_w^T) for (h, w) planes,
    the w-axis factors transposed into C order."""
    fh, fw = (kspace.dft_matrix(n, inverse) for n in (h, w))
    return tuple(ad.Tensor(m) for m in (fh.real, fh.imag, fw.T.real, fw.T.imag))


def tape_fft2c(x: ad.Tensor, inverse: bool = False) -> ad.Tensor:
    """Centered unitary 2D DFT of every (h, w) plane of a (2, h, w) or
    (2, coils, h, w) tensor as real matrix products on the 2-channel tensor:
    with F = Re F + i Im F, F x = (Re F) x + i (Im F) x, along h and then
    along w, 6 tape nodes in all."""
    h, w = x.shape[-2:]
    fr_h, fi_h, frt_w, fit_w = _dft_constants(h, w, inverse)
    x = ad.add_times_i(ad.matmul(fr_h, x), ad.matmul(fi_h, x))
    return ad.add_times_i(ad.matmul(x, frt_w), ad.matmul(x, fit_w))


def _as2ch(z: np.ndarray) -> np.ndarray:
    return np.stack([np.real(z), np.imag(z)])


class VarnetLite(_Layout):
    """Unrolled reconstruction with learnable per-cascade step sizes.

    Consumes the simulated sensitivity maps directly. The final denoiser conv
    of each cascade is zero-initialized so the unroll starts as pure data
    consistency.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        dch = config.denoiser_channels
        self.layer_shapes = []
        for c in range(config.cascades):
            self.layer_shapes.append((f"c{c}.eta", ()))
            for name, cout, cin in ((f"c{c}.d1", dch, 2), (f"c{c}.d2", dch, dch),
                                    (f"c{c}.d3", 2, dch)):
                self._add_conv(name, cout, cin)

    def init_params(self) -> np.ndarray:
        rng = kspace.rng_from(self.config.seed, 0x7A12)
        theta = np.zeros(self.size)
        for (name, shape), p in zip(self.layer_shapes, self.split(theta)):
            if name.endswith(".eta"):
                p[...] = 1.0
            elif name.endswith(".w") and ".d3" not in name:  # the rest start at zero
                p[...] = _he_init(rng, shape)
        return theta

    def check_extents(self, h, w):
        div = 2  # denoiser is pool-free; only the FFT matrices constrain extents
        if h < div or w < div:
            raise ValueError(f"extents {(h, w)} too small")

    def reconstruct(self, params, y, sens, mask) -> ad.Tensor:
        coils, h, w = y.shape
        self.check_extents(h, w)
        op = kspace.HybridEncoding(sens, mask, y)  # checks coils too
        x = ad.Tensor(_as2ch(kspace.apply_adjoint(op.y_h, op)))  # E^H y, as fista_l1 starts
        s2 = ad.Tensor(_as2ch(op.sens))
        sc2 = ad.Tensor(_as2ch(op.conj))
        mask2 = ad.Tensor(np.broadcast_to(mask.sampled.astype(np.float64),
                                          (2, coils, h, w)).copy())
        minus_y = ad.Tensor(-_as2ch(y) * mask2.data)  # so the residual below is masked
        p = iter(params)
        for _ in range(self.config.cascades):
            eta = next(p)
            k = tape_fft2c(ad.complex_mul_2ch(s2, x))
            resid = ad.add(ad.mul(mask2, k), minus_y)
            back = ad.complex_mul_2ch(sc2, tape_fft2c(resid, inverse=True))
            dc = ad.mul(eta, ad.coil_sum(back))
            d = ad.relu(ad.conv2d(x, next(p), next(p)))
            d = ad.relu(ad.conv2d(d, next(p), next(p)))
            d = ad.conv2d(d, next(p), next(p))
            x = ad.add(x, ad.scale(ad.add(dc, d), -1.0))
        return ad.magnitude_2ch(x)


def construct_model(config: ModelConfig):
    return UnetLite(config) if config.kind == "unet_lite" else VarnetLite(config)


def parameter_count(config: ModelConfig) -> int:
    return construct_model(config).size


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------


class CheckpointFormatError(datamod.FormatError):
    """Raised for bytes that are not one complete, well-formed checkpoint."""


@dataclass
class Checkpoint:
    config: ModelConfig
    params: np.ndarray  # one float64 vector in the model's layer order
    epoch: int
    fingerprint: str  # content hash of the training set
    rng_state: dict
    train_extents: tuple[int, int]  # recorded; inference runs at its input's extents
    provenance: list[str] = field(default_factory=list)

    def _check_finite(self, error: type[Exception]) -> None:
        finite = np.isfinite(self.params)
        if not finite.all():
            raise error(f"non-finite value in checkpoint parameter {int(np.argmin(finite))}")

    def to_bytes(self) -> bytes:
        self._check_finite(ValueError)
        header = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in ("config", "params")}
        hjson = json.dumps({**header, "model": self.config.to_dict()},
                           sort_keys=True, separators=(",", ":")).encode()
        return (MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(hjson)) + hjson
                + np.ascontiguousarray(self.params, dtype="<f8").tobytes())

    @staticmethod
    def from_bytes(raw: bytes) -> "Checkpoint":
        if len(raw) < 16:
            raise CheckpointFormatError(
                f"truncated checkpoint: {len(raw)} bytes, shorter than the 16-byte preamble")
        if raw[:4] != MAGIC:
            raise CheckpointFormatError("bad checkpoint magic")
        version, hlen = struct.unpack("<IQ", raw[4:16])
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(raw[16 : 16 + hlen])
            # the header holds every field but the parameters, the config as "model"
            if "config" in header or "params" in header:
                raise ValueError(f"unexpected key in {sorted(header)}")
            ck = datamod.from_fields(Checkpoint, {"config": header.pop("model"),
                                                  "params": np.empty(0), **header})
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise CheckpointFormatError(f"undecodable checkpoint header: {e}") from e
        expected = 16 + hlen + 8 * construct_model(ck.config).size
        if len(raw) != expected:
            kind = "truncated checkpoint" if len(raw) < expected else "trailing bytes in checkpoint"
            raise CheckpointFormatError(f"{kind}: {len(raw)} bytes, expected {expected}")
        ck.params = np.frombuffer(raw, "<f8", offset=16 + hlen).copy()
        ck._check_finite(CheckpointFormatError)
        return ck

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @staticmethod
    def load(path: str | Path) -> "Checkpoint":
        try:
            raw = Path(path).read_bytes()
        except OSError as e:
            raise CheckpointFormatError(f"no checkpoint at {path}: {e.strerror}") from e
        return Checkpoint.from_bytes(raw)


def save_checkpoints(checkpoints: list[Checkpoint], directory: Path) -> None:
    """Write each checkpoint as `directory`/epoch_XXX.ckpt, making the directory if missing."""
    directory.mkdir(parents=True, exist_ok=True)
    for ck in checkpoints:
        ck.save(directory / f"epoch_{ck.epoch:03d}.ckpt")


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


# gradients below this global norm are floating-point ghosts of an exact
# fixed point (e.g. perfect data consistency); stepping on them would let the
# scale-invariant Adam update walk away from the optimum
GRAD_FLOOR = 1e-12


def _global_norm(grads: list[np.ndarray]) -> float:
    """Euclidean norm of the per-layer gradients, summed layer by layer."""
    return np.sqrt(sum(float(np.sum(g * g)) for g in grads))


def _clip_gradients(grad: np.ndarray, clip_norm: float, total: float) -> np.ndarray:
    """Scale `grad`, whose norm is `total`, down to norm clip_norm."""
    return grad * (clip_norm / total) if total > clip_norm else grad


class _Optimizer:
    """Adam, updating the parameter vector in place."""

    def __init__(self, size: int):
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        self.m = BETA1 * self.m + (1 - BETA1) * grad
        self.v = BETA2 * self.v + (1 - BETA2) * grad * grad
        mhat = self.m / (1 - BETA1**self.t)
        vhat = self.v / (1 - BETA2**self.t)
        theta -= lr * mhat / (np.sqrt(vhat) + 1e-8)


def train_extents(train_set: datamod.Dataset) -> tuple[int, int]:
    """The one (h, w) of every item of `train_set`: each step's mask is drawn at its width."""
    extents = sorted({item.image.shape for item in train_set.items})
    if len(extents) != 1:
        raise ValueError(f"train needs one item extent; dataset {train_set.name!r} has {extents}")
    return extents[0]


def train(model_config: ModelConfig, train_set: datamod.Dataset, config: TrainConfig,
          init_params: np.ndarray | None = None,
          provenance: list[str] | None = None):
    """Train on simulated measurements, one item and a fresh mask per step.

    Returns (checkpoints, {"train_loss": per-epoch mean loss}): one checkpoint
    per epoch, index 0 being the initialization. Per-epoch test scores come
    from evaluating the checkpoints.
    """
    extents = train_extents(train_set)
    model = construct_model(model_config)
    theta = np.array(model.init_params() if init_params is None else init_params,
                     dtype=np.float64)
    if theta.shape != (model.size,):
        raise ValueError(f"{theta.size} parameters given, config has {model.size}")
    fingerprint = datamod.content_hash(train_set)
    opt = _Optimizer(model.size)
    n = len(train_set.items)
    total_steps = config.epochs * n

    def snapshot(epoch):
        return Checkpoint(model_config, theta.copy(), epoch, fingerprint,
                          {"seed": config.seed, "epochs_completed": epoch},
                          extents, list(provenance or []))

    checkpoints = [snapshot(0)]
    loss_trace: list[float] = []
    step = 0
    for epoch in range(config.epochs):
        order = kspace.rng_from(config.seed, 0x0EA2, epoch).permutation(n)
        epoch_losses = []
        for idx in order:
            step += 1
            if config.accelerations:
                pick = int(kspace.rng_from(config.seed, 0xACCE1, step)
                           .integers(len(config.accelerations)))
                accel = config.accelerations[pick]
            else:
                accel = config.acceleration
            mask = kspace.mask_for_batch(extents[1], accel, config.center_fraction,
                                         config.seed, step)
            item = train_set.items[int(idx)]
            with ad.Tape() as tape:
                leaves = [tape.leaf(p) for p in model.split(theta)]
                y, target = datamod.measure(item, mask, config.seed, datamod.TRAIN_NOISE_TAG,
                                            step, 0)
                loss = ad.ssim_loss(model.reconstruct(leaves, y, item.sens, mask),
                                    ad.Tensor(target))
                if not np.isfinite(loss.data):
                    raise FloatingPointError(
                        f"non-finite loss at epoch {epoch} step {step}")
                grads_map = ad.backward(tape, loss)
            grad = np.concatenate([grads_map[leaf.node_id].data.ravel() for leaf in leaves])
            gnorm = _global_norm(model.split(grad))
            if gnorm > GRAD_FLOOR:
                opt.step(theta, _clip_gradients(grad, CLIP_NORM, gnorm),
                         learning_rate_at(step, total_steps))
            epoch_losses.append(float(loss.data))
        loss_trace.append(float(np.mean(epoch_losses)))
        checkpoints.append(snapshot(epoch + 1))
    return checkpoints, {"train_loss": loss_trace}


def finetune(checkpoint: Checkpoint, new_set: datamod.Dataset, config: TrainConfig):
    """Continue training from a checkpoint on a new dataset."""
    chain = checkpoint.provenance + [checkpoint.fingerprint]
    return train(checkpoint.config, new_set, config,
                 init_params=checkpoint.params, provenance=chain)


# ---------------------------------------------------------------------------
# Inference and evaluation.
# ---------------------------------------------------------------------------


def _runner(model, theta: np.ndarray):
    """Untaped `reconstruct(y, sens, mask) -> image` of `model` at the parameters `theta`."""
    tensors = [ad.Tensor(p) for p in model.split(theta)]
    return lambda y, sens, mask: model.reconstruct(tensors, y, sens, mask).data


def infer(checkpoint: Checkpoint, y: np.ndarray, sens: np.ndarray,
          mask: kspace.SamplingMask) -> np.ndarray:
    """Deterministic reconstruction from a checkpoint at the input's own
    extents, as `evaluate_params` scores it; raises ValueError for extents
    the model's `check_extents` refuses."""
    return _runner(construct_model(checkpoint.config), checkpoint.params)(y, sens, mask)


def evaluate_params(model_config: ModelConfig, params: list[np.ndarray],
                    dataset: datamod.Dataset, mask_seed: int, acceleration: float = 4.0,
                    center_fraction: float = 0.08, normalize: bool = False):
    """SSIM of each parameter vector in `params` on every item of a dataset,
    one per-volume-mask measurement per item (`data.score`). Returns (items x
    vectors SSIM matrix, per-vector flag: normalization fell back on an item)."""
    model = construct_model(model_config)
    fell_back = []  # one normalization flag per score, in data.score's call order

    def metric(out, target, item):
        out, used_fallback = normalize_output(out, target) if normalize else (out, False)
        fell_back.append(used_fallback)
        return ssim(out, target)

    scores = datamod.score(dataset, [_runner(model, theta) for theta in params], mask_seed,
                           acceleration, center_fraction, datamod.EVAL_NOISE_TAG, metric)
    return scores, [any(fell_back[j :: len(params)]) for j in range(len(params))]


def evaluate_checkpoint(checkpoint: Checkpoint, dataset: datamod.Dataset, mask_seed: int,
                        acceleration: float = 4.0, center_fraction: float = 0.08,
                        normalize: bool = False):
    """(mean ssim, per-item ssims, normalization-fallback flag) of one checkpoint."""
    scores, fallback = evaluate_params(checkpoint.config, [checkpoint.params], dataset,
                                       mask_seed, acceleration, center_fraction, normalize)
    return datamod.column_means(scores)[0], scores[:, 0].tolist(), fallback[0]
