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

import numpy as np


@dataclass(frozen=True)
class SubspaceWorld:
    n: int
    d: int
    sigma_p: float
    sigma_q: float
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.d < self.n):
            raise ValueError("need 1 <= d < n")
        if self.sigma_p < 0 or self.sigma_q < 0:
            raise ValueError("noise stds must be >= 0")

    @property
    def basis(self) -> np.ndarray:
        """Orthonormal n x d basis drawn deterministically from the seed."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x5B5]))
        q, _ = np.linalg.qr(rng.standard_normal((self.n, self.d)))
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


def sample(world: SubspaceWorld, which: str, count: int, rng: np.random.Generator):
    """(x, y) pairs with x uniform on the subspace sphere and y = x + e.

    For the mixture, each sample picks P or Q with probability one half.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    u = world.basis
    coeff = rng.standard_normal((count, world.d))
    coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
    x = coeff @ u.T
    if which == "mixture":
        sig = np.where(rng.random(count) < 0.5, world.sigma_p, world.sigma_q)[:, None]
    else:
        sig = world.sigma(which)
    e = sig * rng.standard_normal((count, world.n))
    return x, x + e


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
    sigma2 = np.sum(resid**2, axis=1, keepdims=True) / (world.n - world.d)
    return proj / (1.0 + world.d * sigma2)


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
    x, y = sample(world, which, count, rng)
    return _mse_on(estimator, x, y)


def _mse_on(estimator, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Empirical MSE and its standard error of `estimator` on drawn (x, y)."""
    xhat = y @ estimator.T if isinstance(estimator, np.ndarray) else estimator(y)
    per_sample = np.sum((xhat - x) ** 2, axis=1)
    return float(per_sample.mean()), float(per_sample.std(ddof=1) / np.sqrt(len(x)))


def mse_table(world: SubspaceWorld, count: int = 100_000, seed: int = 0) -> dict:
    """All six MSE values: three estimators evaluated on P and on Q, all three
    on the same samples of each distribution."""
    w_pool = fit_linear(world, "mixture")
    results: dict[str, dict[str, float]] = {}
    for which in ("P", "Q"):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA7B, ord(which)]))
        x, y = sample(world, which, count, rng)
        pooled, pooled_se = _mse_on(w_pool, x, y)
        spec, spec_se = _mse_on(fit_linear(world, which), x, y)
        nonlin, nonlin_se = _mse_on(lambda v: estimate_nonlinear(world, v), x, y)
        results[which] = {
            "specialist_linear": spec,
            "specialist_linear_se": spec_se,
            "pooled_linear": pooled,
            "pooled_linear_se": pooled_se,
            "adaptive_nonlinear": nonlin,
            "adaptive_nonlinear_se": nonlin_se,
        }
    return results
