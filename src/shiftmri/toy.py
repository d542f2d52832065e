"""Analytical toy denoising problem on a low-dimensional subspace.

Signals are uniform on the unit sphere of a d-dimensional subspace of R^n and
observed as y = x + e with isotropic Gaussian noise whose variance depends on
the source distribution (P or Q). The population-optimal linear estimator is a
scaled subspace projection; pooling two noise levels forces one shared shrink
factor, which is suboptimal for both. A noise-adaptive estimator that reads
the noise level off the out-of-subspace residual matches the per-distribution
linear estimators on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import check_fields, within
from .kspace import rng_from

# Rows drawn and scored at a time. At n=64, d=4 it keeps y @ U above 10^6
# multiply-adds, below which OpenBLAS uses small-matrix kernels that round
# differently, so the blocks keep the whole-array products' bytes.
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SubspaceWorld:
    n: int
    d: int = within("[1, inf)")
    sigma_p: float = within("[0, inf)")
    sigma_q: float = within("[0, inf)")
    seed: int = within("[0, inf)", 0)

    def __post_init__(self):
        check_fields(self)
        if not self.d < self.n:
            raise ValueError(f"SubspaceWorld.d must be < n = {self.n}, got {self.d}")

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal n x d basis drawn from the seed; computed once, read-only."""
        q, _ = np.linalg.qr(rng_from(self.seed, 0x5B5).standard_normal((self.n, self.d)))
        q.flags.writeable = False
        return q

    def sigma(self, which: str) -> float:
        if which == "P":
            return self.sigma_p
        if which == "Q":
            return self.sigma_q
        raise ValueError(f"unknown distribution {which!r}")

    def noise_variance(self, which: str) -> float:
        """Per-coordinate noise variance, mixture = equal-weight average."""
        if which == "mixture":
            return 0.5 * (self.sigma_p**2 + self.sigma_q**2)
        return self.sigma(which) ** 2


def _fork(rng: np.random.Generator) -> np.random.Generator:
    """A new generator that draws what `rng` would draw next, leaving `rng` as it is."""
    bit_generator = type(rng.bit_generator)()
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator)


def _skip(draw, count: int) -> None:
    """Advance a generator past `draw(count)` by drawing and discarding blocks."""
    for start in range(0, count, BLOCK_ROWS):
        draw(min(BLOCK_ROWS, count - start))


def _blocks(world: SubspaceWorld, which: str, count: int, rng: np.random.Generator):
    """Yield (rows, x, y) windows of min(count, BLOCK_ROWS) rows of one draw.

    The values are those of one whole-array draw: all direction coefficients,
    then (mixture) all P/Q choices, then all the noise. Each stream is read a
    block at a time, the first two from copies of `rng`, which itself is moved
    past them and then draws the noise, so it ends where that draw leaves it.
    Generator fills go element by element, so a chunked draw equals a whole
    one. The last window ends at `count`, overlapping the one before and
    keeping its tail, so every product has as many rows."""
    u = world.basis
    coeff_rng = _fork(rng)
    _skip(lambda k: rng.standard_normal((k, world.d)), count)
    choice_rng = None
    if which == "mixture":
        choice_rng = _fork(rng)
        _skip(rng.random, count)
    else:
        sig = world.sigma(which)
    size = min(count, BLOCK_ROWS)
    for start in range(0, count, size):
        stop = min(start + size, count)
        new = stop - start
        coeff_new = coeff_rng.standard_normal((new, world.d))
        coeff_new /= np.linalg.norm(coeff_new, axis=1, keepdims=True)
        coeff = coeff_new if new == size else np.concatenate([coeff[new:], coeff_new])
        x = coeff @ u.T
        if choice_rng is not None:
            sig = np.where(choice_rng.random(new) < 0.5, world.sigma_p, world.sigma_q)[:, None]
        noise = rng.standard_normal((new, world.n))
        noise *= sig
        noise += x[-new:]
        y = noise if new == size else np.concatenate([y[new:], noise])
        yield slice(stop - size, stop), x, y


def sample(world: SubspaceWorld, which: str, count: int, rng: np.random.Generator):
    """(x, y) pairs with x uniform on the subspace sphere and y = x + e.

    For the mixture, each sample picks P or Q with probability one half.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    x, y = np.empty((count, world.n)), np.empty((count, world.n))
    for rows, x_rows, y_rows in _blocks(world, which, count, rng):
        x[rows], y[rows] = x_rows, y_rows
    return x, y


def fit_linear(world: SubspaceWorld, which: str) -> np.ndarray:
    """Population MSE-optimal linear estimator W = U U^T / (1 + d sigma^2)."""
    u = world.basis
    shrink = 1.0 / (1.0 + world.d * world.noise_variance(which))
    return shrink * (u @ u.T)


def estimate_nonlinear(world: SubspaceWorld, y: np.ndarray) -> np.ndarray:
    """Noise-adaptive shrinkage of the subspace projection.

    The noise level is estimated per sample from the energy outside the
    subspace, then the per-distribution optimal shrink factor is applied.
    This is one witness of an estimator matching both per-distribution linear
    estimators, not a claim of Bayes optimality.
    """
    if world.n <= world.d:
        raise ValueError("need n > d for an off-subspace residual")
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    u = world.basis
    proj = (y @ u) @ u.T
    resid = y - proj
    sigma2 = np.sum(np.square(resid, out=resid), axis=1, keepdims=True) / (world.n - world.d)
    proj /= 1.0 + world.d * sigma2
    return proj


def mse_linear(world: SubspaceWorld, w: np.ndarray, which: str) -> float:
    """Closed-form population MSE of a linear estimator on P or Q."""
    u = world.basis
    sigma2 = world.noise_variance(which)
    signal = np.sum(((w - np.eye(world.n)) @ u) ** 2) / world.d
    noise = sigma2 * float(np.sum(w**2))
    return float(signal + noise)


def mse_monte_carlo(world: SubspaceWorld, estimator, which: str, count: int,
                    rng: np.random.Generator):
    """Empirical MSE and its standard error under `which`.

    `estimator` is either an (n, n) matrix or a callable mapping y to x-hat.
    """
    return _score(world, [estimator], which, count, rng)[0]


def _squared_error(estimator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row squared error of `estimator` on one window. The difference is a
    local, so it is freed before the next estimator or window needs memory."""
    if isinstance(estimator, np.ndarray):
        diff = y @ estimator.T
        diff -= x
    else:  # a callable may return y itself or an array it keeps: subtract into a new one
        diff = estimator(y) - x
    return np.sum(np.square(diff, out=diff), axis=1)


def _score(world: SubspaceWorld, estimators, which: str, count: int,
           rng: np.random.Generator) -> list[tuple[float, float]]:
    """Empirical MSE and its standard error of each estimator on one draw, from
    a per-sample squared-error array per estimator that the blocks fill."""
    if count < 2:
        raise ValueError("count must be >= 2 for a standard error")
    errors = [np.empty(count) for _ in estimators]
    for rows, x, y in _blocks(world, which, count, rng):
        for est, err in zip(estimators, errors):
            err[rows] = _squared_error(est, x, y)
    return [(float(e.mean()), float(e.std(ddof=1) / np.sqrt(count))) for e in errors]


def mse_table(world: SubspaceWorld, count: int, seed: int) -> dict:
    """All six MSE values: three estimators evaluated on P and on Q, all three
    on the same samples of each distribution."""
    w_pool = fit_linear(world, "mixture")
    results: dict[str, dict[str, float]] = {}
    for which in ("P", "Q"):
        rng = rng_from(seed, 0xA7B, ord(which))
        estimators = {"specialist_linear": fit_linear(world, which), "pooled_linear": w_pool,
                      "adaptive_nonlinear": lambda v: estimate_nonlinear(world, v)}
        results[which] = {}
        for name, (mse, se) in zip(estimators, _score(world, list(estimators.values()),
                                                      which, count, rng)):
            results[which] |= {name: mse, f"{name}_se": se}
    return results
