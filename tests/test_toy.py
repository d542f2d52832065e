import tracemalloc

import numpy as np
import pytest

from oracles import toy_mse_reference, toy_mse_table_reference, toy_sample_reference
from shiftmri import toy


WORLD = toy.SubspaceWorld(64, 4, 0.05, 0.5, seed=0)


def test_world_validation():
    with pytest.raises(ValueError, match=r"^SubspaceWorld\.d must be < n"):
        toy.SubspaceWorld(4, 4, 0.1, 0.2)
    with pytest.raises(ValueError, match=r"^SubspaceWorld\.d must be in \[1, "):
        toy.SubspaceWorld(4, 0, 0.1, 0.2)
    with pytest.raises(ValueError, match=r"^SubspaceWorld\.sigma_p must be in "):
        toy.SubspaceWorld(8, 2, -0.1, 0.2)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"^SubspaceWorld\.sigma_q must be in "):
            toy.SubspaceWorld(8, 2, 0.1, bad)
    with pytest.raises(ValueError, match=r"^SubspaceWorld\.seed must be in \[0, inf\), got -1$"):
        toy.SubspaceWorld(8, 2, 0.1, 0.2, seed=-1)
    u = WORLD.basis
    np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-10)


def test_basis_is_computed_once_and_read_only():
    world = toy.SubspaceWorld(64, 4, 0.05, 0.5, seed=0)
    u = world.basis
    assert world.basis is u and not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.0
    assert toy.SubspaceWorld(64, 4, 0.05, 0.5, seed=0).basis.tobytes() == u.tobytes()


@pytest.mark.parametrize("count", [-1, 0, 1])
def test_scores_need_two_samples(count):
    with pytest.raises(ValueError):
        toy.mse_table(WORLD, count=count, seed=0)
    with pytest.raises(ValueError):
        toy.mse_monte_carlo(WORLD, toy.fit_linear(WORLD, "P"), "P", count,
                            np.random.default_rng(0))


def test_sample_noiseless_lies_on_sphere_in_subspace():
    world = toy.SubspaceWorld(16, 3, 0.0, 0.5, seed=1)
    x, y = toy.sample(world, "P", 50, np.random.default_rng(0))
    np.testing.assert_allclose(x, y, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
    u = world.basis
    resid = y - (y @ u) @ u.T
    assert np.abs(resid).max() < 1e-12


def test_sample_unit_norm_always():
    x, _ = toy.sample(WORLD, "mixture", 200, np.random.default_rng(1))
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)


def test_sample_noise_energy_monte_carlo():
    world = toy.SubspaceWorld(32, 2, 0.3, 0.5, seed=2)
    x, y = toy.sample(world, "P", 100_000, np.random.default_rng(2))
    mean_e2 = float(np.mean(np.sum((y - x) ** 2, axis=1)))
    expected = 32 * 0.3**2
    assert abs(mean_e2 - expected) / expected < 0.03


def test_fit_linear_noiseless_is_projection():
    world = toy.SubspaceWorld(16, 3, 0.0, 0.5, seed=3)
    w = toy.fit_linear(world, "P")
    u = world.basis
    np.testing.assert_allclose(w, u @ u.T, atol=1e-12)
    assert toy.mse_linear(world, w, "P") < 1e-24


def test_fit_linear_large_noise_shrinks_to_zero():
    world = toy.SubspaceWorld(16, 3, 1e6, 0.5, seed=4)
    w = toy.fit_linear(world, "P")
    assert np.abs(w).max() < 1e-9


def test_fit_linear_matches_empirical_ridge():
    # gentler parameters keep the finite-sample OLS fluctuation under 2%
    world = toy.SubspaceWorld(16, 2, 0.1, 0.5, seed=5)
    rng = np.random.default_rng(5)
    x, y = toy.sample(world, "P", 100_000, rng)
    w_emp = (x.T @ y) @ np.linalg.inv(y.T @ y)
    w_pop = toy.fit_linear(world, "P")
    assert np.linalg.norm(w_emp - w_pop) / np.linalg.norm(w_pop) < 0.02


def test_nonlinear_noiseless_is_exact():
    world = toy.SubspaceWorld(16, 3, 0.0, 0.5, seed=6)
    x, y = toy.sample(world, "P", 20, np.random.default_rng(6))
    np.testing.assert_allclose(toy.estimate_nonlinear(world, y), x, atol=1e-12)


def test_nonlinear_parity_with_specialist_on_p():
    world = toy.SubspaceWorld(64, 4, 0.1, 0.5, seed=7)
    rng = np.random.default_rng(7)
    spec_mse, _ = toy.mse_monte_carlo(world, toy.fit_linear(world, "P"), "P",
                                      100_000, np.random.default_rng(7))
    nl_mse, _ = toy.mse_monte_carlo(world, lambda y: toy.estimate_nonlinear(world, y),
                                    "P", 100_000, np.random.default_rng(7))
    assert nl_mse <= 1.05 * spec_mse


def test_nonlinear_beats_pooled_on_both_distributions():
    world = toy.SubspaceWorld(64, 4, 0.05, 0.5, seed=8)
    pooled = toy.fit_linear(world, "mixture")
    for which in ("P", "Q"):
        rng_a = np.random.default_rng(8)
        pooled_mse, _ = toy.mse_monte_carlo(world, pooled, which, 50_000, rng_a)
        rng_b = np.random.default_rng(8)
        nl_mse, _ = toy.mse_monte_carlo(world, lambda y: toy.estimate_nonlinear(world, y),
                                        which, 50_000, rng_b)
        assert nl_mse < pooled_mse


def test_pooled_suboptimal_with_margin():
    table = toy.mse_table(WORLD, count=50_000, seed=0)
    for which in ("P", "Q"):
        t = table[which]
        margin = t["pooled_linear"] - t["specialist_linear"]
        se = np.hypot(t["pooled_linear_se"], t["specialist_linear_se"])
        assert margin > 5 * se


def test_mse_closed_form_matches_monte_carlo():
    world = toy.SubspaceWorld(32, 3, 0.2, 0.6, seed=9)
    for which in ("P", "Q"):
        w = toy.fit_linear(world, which)
        closed = toy.mse_linear(world, w, which)
        mc, se = toy.mse_monte_carlo(world, w, which, 100_000, np.random.default_rng(9))
        assert abs(mc - closed) < 5 * se


@pytest.mark.parametrize("n", [64, 256])
def test_residual_noise_estimator_consistency(n):
    world = toy.SubspaceWorld(n, 4, 0.3, 0.5, seed=10)
    _, y = toy.sample(world, "P", 2000, np.random.default_rng(10))
    u = world.basis
    resid = y - (y @ u) @ u.T
    sigma2 = np.sum(resid**2, axis=1) / (n - 4)
    # estimator concentrates: relative std shrinks like sqrt(2/(n-d))
    rel_std = np.std(sigma2) / np.mean(sigma2)
    assert abs(np.mean(sigma2) - 0.09) / 0.09 < 0.05
    assert rel_std < 1.2 * np.sqrt(2.0 / (n - 4))


def test_mixture_uses_equal_weights():
    assert WORLD.noise_variance("mixture") == pytest.approx(
        0.5 * (0.05**2 + 0.5**2))
    x, y = toy.sample(WORLD, "mixture", 40_000, np.random.default_rng(11))
    mean_e2 = float(np.mean(np.sum((y - x) ** 2, axis=1)))
    expected = 64 * WORLD.noise_variance("mixture")
    assert abs(mean_e2 - expected) / expected < 0.05


def test_nonlinear_requires_off_subspace_room():
    world = toy.SubspaceWorld(4, 3, 0.1, 0.2, seed=12)
    flat = toy.SubspaceWorld.__new__(toy.SubspaceWorld)
    object.__setattr__(flat, "n", 4)
    object.__setattr__(flat, "d", 4)
    object.__setattr__(flat, "sigma_p", 0.1)
    object.__setattr__(flat, "sigma_q", 0.2)
    object.__setattr__(flat, "seed", 0)
    with pytest.raises(ValueError):
        toy.estimate_nonlinear(flat, np.zeros((1, 4)))
    # sanity: a valid world accepts a single vector
    out = toy.estimate_nonlinear(world, np.zeros(4))
    assert out.shape == (1, 4)


def test_mse_table_equals_one_draw_per_estimator():
    """Scoring all three estimators on one draw per distribution gives the
    same bytes as three mse_monte_carlo calls on identically seeded draws."""
    table = toy.mse_table(WORLD, count=5_000, seed=3)
    for which in ("P", "Q"):
        estimators = {"pooled_linear": toy.fit_linear(WORLD, "mixture"),
                      "specialist_linear": toy.fit_linear(WORLD, which),
                      "adaptive_nonlinear": lambda y: toy.estimate_nonlinear(WORLD, y)}
        for name, est in estimators.items():
            rng = np.random.default_rng(np.random.SeedSequence([3, 0xA7B, ord(which)]))
            mse, se = toy.mse_monte_carlo(WORLD, est, which, 5_000, rng)
            assert (table[which][name], table[which][f"{name}_se"]) == (mse, se)


B = toy.BLOCK_ROWS


def _rows_keep_bytes(world, count):
    """Whether the BLAS gives the first min(count, B) rows of each of the toy's
    product shapes the same bytes as a `count`-row product. OpenBLAS runs small
    products (rows x cols x inner <= 10^6) through kernels that round differently."""
    rows = min(count, B)
    a = np.random.default_rng(0).standard_normal((count, world.n))
    u = world.basis
    pairs = ((a, u), (a, toy.fit_linear(world, "P").T), (a[:, : world.d], u.T))
    return all(np.array_equal(m[:rows] @ f, (m @ f)[:rows]) for m, f in pairs)


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("n, d", [(64, 4), (32, 3), (5, 1)])
@pytest.mark.parametrize("count", [2, B - 1, B, B + 1, 2 * B + 3, 100_000])
def test_block_scoring_keeps_whole_array_bytes(n, d, count, seed):
    """Row blocks give the same table, sample and mixture MSE as the former
    whole-array draw and scoring, wherever the BLAS rounds each row of a
    product the same at B rows as at `count` rows."""
    world = toy.SubspaceWorld(n, d, 0.05, 0.5, seed=seed)
    table, ref = toy.mse_table(world, count, seed), toy_mse_table_reference(world, count, seed)
    adaptive = lambda y: toy.estimate_nonlinear(world, y)  # noqa: E731
    mixture = toy.mse_monte_carlo(world, adaptive, "mixture", count, np.random.default_rng(seed))
    x, y = toy_sample_reference(world, "mixture", count, np.random.default_rng(seed))
    mixture_ref = toy_mse_reference(adaptive, x, y)
    if _rows_keep_bytes(world, count):
        assert table == ref
        assert mixture == mixture_ref
        xs, ys = toy.sample(world, "mixture", count, np.random.default_rng(seed))
        assert xs.tobytes() == x.tobytes() and ys.tobytes() == y.tobytes()
    else:
        # each row moves by rounding only, so the means move by at most an ulp or two
        got = [v for t in table.values() for v in t.values()] + list(mixture)
        want = [v for t in ref.values() for v in t.values()] + list(mixture_ref)
        assert all(abs(g - w) <= 2 * np.spacing(w) for g, w in zip(got, want))


def test_default_world_rows_keep_bytes():
    """The world the CLI, demo 03 and the benchmark use takes the exact branch above."""
    assert all(_rows_keep_bytes(WORLD, count) for count in (B + 1, 100_000))


def test_mse_table_memory_is_bounded_by_blocks():
    """Beyond one block of each stream, a table holds only its three per-sample
    error arrays, so 300 000 more samples add at most 3 x 8 B x 300 000."""
    world = toy.SubspaceWorld(64, 4, 0.05, 0.5)
    peaks = []
    for count in (100_000, 400_000):
        tracemalloc.start()
        try:
            toy.mse_table(world, count, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] < 32e6, f"peak {peaks[-1] / 1e6:.1f} MB at {count} samples"
    assert peaks[0] < 16e6, f"peak {peaks[0] / 1e6:.1f} MB"
    growth = peaks[1] - peaks[0]
    assert growth <= 3 * 8 * 300_000 + 1e6, f"growth {growth / 1e6:.1f} MB"


@pytest.mark.parametrize("which", ["P", "mixture"])
@pytest.mark.parametrize("count", [2, B - 1, B, B + 1, 2 * B + 3])
def test_caller_generator_ends_where_one_draw_leaves_it(which, count):
    """A caller that reuses its generator draws the same values next as after
    the whole-array draw, although the blocks read each stream from a copy."""
    world = toy.SubspaceWorld(16, 3, 0.05, 0.5, seed=1)
    reference = np.random.default_rng(count)
    toy_sample_reference(world, which, count, reference)
    expected = reference.random()
    adaptive = lambda y: toy.estimate_nonlinear(world, y)  # noqa: E731
    for run in (lambda rng: toy.sample(world, which, count, rng),
                lambda rng: toy.mse_monte_carlo(world, adaptive, which, count, rng)):
        rng = np.random.default_rng(count)
        run(rng)
        assert rng.random() == expected
