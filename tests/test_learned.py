import hashlib
import re

import numpy as np
import pytest

import shiftmri.autodiff as ad
from shiftmri import data as dm
from shiftmri import kspace, learned
from shiftmri.metrics import SsimConfig
from oracles import (OptimizerReference, clip_reference, global_norm_reference,
                     tape_dft_reference, varnet_per_coil_reference)


def small_dataset(seed=0, count=4, extents=(32, 32), snr_db=30.0, coils=3):
    spec = dm.DistributionSpec("train", extents=extents, coils=coils,
                               snr_db=snr_db, seed=seed)
    return dm.generate(spec, count)


UNET = learned.ModelConfig("unet_lite", channels=4, pool_levels=2, seed=0)
VARNET = learned.ModelConfig("varnet_lite", cascades=2, denoiser_channels=4, seed=0)


def test_unet_output_shape():
    model = learned.construct_model(learned.ModelConfig("unet_lite", channels=8,
                                                        pool_levels=2, seed=0))
    item = small_dataset().items[0]
    mask = kspace.mask_for_volume(32, 4, 0.08, 0, 0)
    y = dm.simulate_measurements(item, mask, 1)
    out = model.reconstruct([ad.Tensor(p) for p in model.split(model.init_params())],
                            y, item.sens, mask)
    assert out.data.shape == (32, 32)


def test_unet_rejects_indivisible_extents():
    model = learned.construct_model(learned.ModelConfig("unet_lite", pool_levels=3, seed=0))
    item = small_dataset(extents=(20, 20)).items[0]
    mask = kspace.full_mask(20)
    y = kspace.apply_forward(item.image, kspace.Encoding(item.sens, mask))
    with pytest.raises(ValueError, match="divisible"):
        model.reconstruct([ad.Tensor(p) for p in model.split(model.init_params())],
                          y, item.sens, mask)


def test_varnet_single_cascade_full_mask_is_adjoint():
    config = learned.ModelConfig("varnet_lite", cascades=1, denoiser_channels=4, seed=0)
    model = learned.construct_model(config)
    params = model.split(model.init_params())  # final denoiser conv zero-initialized
    item = small_dataset(seed=3).items[0]
    fm = kspace.full_mask(32)
    y = kspace.apply_forward(item.image, kspace.Encoding(item.sens, fm))
    out = model.reconstruct([ad.Tensor(p) for p in params], y, item.sens, fm)
    np.testing.assert_allclose(out.data, np.abs(item.image), atol=1e-10)


def test_varnet_with_zero_steps_returns_the_image_fista_starts_from():
    """At its initial parameters the denoisers output zero, so with every eta
    set to 0 the unroll returns |E^H y|, formed as fista_l1 forms its first
    image: B^H y_h through a HybridEncoding."""
    model = learned.construct_model(VARNET)
    theta = model.init_params()
    for (name, _), p in zip(model.layer_shapes, model.split(theta)):
        if name.endswith(".eta"):
            p[...] = 0.0
    item = small_dataset(seed=5).items[0]
    mask = kspace.mask_for_volume(32, 4, 0.08, 0, 0)
    y = dm.simulate_measurements(item, mask, 1)
    out = model.reconstruct([ad.Tensor(p) for p in model.split(theta)], y, item.sens, mask).data
    op = kspace.HybridEncoding(item.sens, mask, y)
    ref = np.abs(kspace.apply_adjoint(op.y_h, op))
    assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(ref)


def _varnet_problem(coils, seed, extents=(16, 24), cascades=3):
    """A VarnetLite with every parameter perturbed off its initialization
    (so the denoisers pass gradients), and noisy measurements for it."""
    h, w = extents
    rng = np.random.default_rng(seed)
    config = learned.ModelConfig("varnet_lite", cascades=cascades, denoiser_channels=4,
                                 seed=seed)
    model = learned.construct_model(config)
    params = [p + 0.1 * rng.standard_normal(p.shape) for p in model.split(model.init_params())]
    image = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
    sens = kspace.simulate_sensitivities(h, w, coils, rng=rng)
    mask = kspace.make_equispaced_mask(w, 4, 0.16, rng)
    y = kspace.add_noise(kspace.apply_forward(image, kspace.Encoding(sens, mask)), mask,
                         0.05, seed)
    return model, params, y, sens, mask, np.abs(image)


def _taped(reconstruct, params, target):
    """(reconstruction, per-parameter gradients of its SSIM loss, tape length)."""
    with ad.Tape() as tape:
        leaves = [tape.leaf(p) for p in params]
        out = reconstruct(leaves)
        loss = ad.ssim_loss(out, ad.Tensor(target), SsimConfig(data_range=float(target.max())))
        grads = ad.backward(tape, loss)
    return out.data, [grads[leaf.node_id].data for leaf in leaves], len(tape.nodes)


@pytest.mark.parametrize("coils", [1, 2, 8])
def test_varnet_untaped_bytes_equal_per_coil_reference(coils):
    model, params, y, sens, mask, _ = _varnet_problem(coils, seed=20 + coils)
    tensors = [ad.Tensor(p) for p in params]
    got = model.reconstruct(tensors, y, sens, mask).data
    ref = varnet_per_coil_reference(model.config, tensors, y, sens, mask).data
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("coils", [1, 2, 8])
def test_varnet_gradients_match_per_coil_reference(coils):
    model, params, y, sens, mask, target = _varnet_problem(coils, seed=30 + coils)
    out, grads, _ = _taped(lambda ls: model.reconstruct(ls, y, sens, mask), params, target)
    ref_out, ref_grads, _ = _taped(
        lambda ls: varnet_per_coil_reference(model.config, ls, y, sens, mask), params, target)
    assert out.tobytes() == ref_out.tobytes()
    for i, (g, r) in enumerate(zip(grads, ref_grads)):
        assert np.any(r != 0), i
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r)), i


def test_varnet_tape_length_independent_of_coil_count():
    lengths = []
    for coils in (2, 8):
        model, params, y, sens, mask, target = _varnet_problem(coils, seed=40)
        lengths.append(_taped(lambda ls: model.reconstruct(ls, y, sens, mask),
                              params, target)[2])
    assert lengths[0] == lengths[1]


def test_varnet_data_consistency_gradients_match_finite_differences():
    # two cascades, so the second one's data-consistency graph is on the tape
    model, params, y, sens, mask, target = _varnet_problem(3, seed=50, extents=(8, 8),
                                                           cascades=2)

    def loss_fn(leaves):
        out = model.reconstruct(leaves, y, sens, mask)
        return ad.ssim_loss(out, ad.Tensor(target), SsimConfig(data_range=float(target.max())))

    assert ad.grad_check(loss_fn, params, h=1e-5) < 1e-4


def test_varnet_two_cascade_tape_length():
    # the first cascade's input is constant, so only the second cascade's two
    # transforms are on the tape: 6 nodes each (two matmuls and an add_times_i
    # per axis), 4 fewer than the 8 a complex product by i took, and the
    # residual, already masked, takes one mask product, not two: 56 - 4 - 1
    model, params, y, sens, mask, target = _varnet_problem(3, seed=50, extents=(8, 8),
                                                           cascades=2)
    assert _taped(lambda ls: model.reconstruct(ls, y, sens, mask), params, target)[2] == 51


@pytest.mark.parametrize("shape", [(2, 6, 10), (2, 3, 12, 8)])
@pytest.mark.parametrize("inverse", [False, True])
def test_tape_fft2c_matches_centered_fft(shape, inverse):
    x = np.random.default_rng(len(shape) + 2 * inverse).standard_normal(shape)
    got = learned.tape_fft2c(ad.Tensor(x), inverse=inverse).data
    want = (kspace.ifft2c if inverse else kspace.fft2c)(x[0] + 1j * x[1])
    err = np.max(np.abs(got[0] + 1j * got[1] - want))
    assert err <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(2, 4, 6), (2, 2, 6, 4)])
@pytest.mark.parametrize("inverse", [False, True])
def test_tape_fft2c_gradient_matches_finite_differences(shape, inverse):
    rng = np.random.default_rng(7 + len(shape) + 2 * inverse)
    weights = ad.Tensor(rng.standard_normal(shape))

    def loss_fn(leaves):
        return ad.reduce_mean(ad.mul(weights, learned.tape_fft2c(leaves[0], inverse=inverse)))

    assert ad.grad_check(loss_fn, [rng.standard_normal(shape)]) < 1e-4


@pytest.mark.parametrize("y_coils,sens_coils", [(8, 4), (4, 8)])
def test_varnet_rejects_mismatched_coil_counts(y_coils, sens_coils):
    model, params, y, sens, mask, _ = _varnet_problem(max(y_coils, sens_coils), seed=60)
    with pytest.raises(ValueError, match="coils"):
        model.reconstruct([ad.Tensor(p) for p in params], y[:y_coils], sens[:sens_coils], mask)


def test_same_seed_same_initial_parameters():
    a = learned.construct_model(UNET).init_params()
    b = learned.construct_model(UNET).init_params()
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa, pb)


def test_parameter_count_deterministic():
    assert learned.parameter_count(UNET) == learned.parameter_count(UNET)
    bigger = learned.ModelConfig("unet_lite", channels=8, pool_levels=2, seed=1)
    assert learned.parameter_count(bigger) > learned.parameter_count(UNET)


def test_model_config_validation():
    with pytest.raises(ValueError):
        learned.ModelConfig("resnet")
    with pytest.raises(ValueError):
        learned.ModelConfig("varnet_lite", cascades=0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        learned.TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        learned.TrainConfig(center_fraction=1.0)
    with pytest.raises(ValueError):
        learned.TrainConfig(accelerations=(4.0, 0.5))


def test_learning_rate_schedule_pointwise():
    lr_max, lr_min = learned.LR_MAX, learned.LR_MIN
    total = 1000
    warmup = 10  # WARMUP_FRACTION of the steps
    for s in (1, 5, 10, 11, 500, 1000):
        got = learned.learning_rate_at(s, total)
        if s <= warmup:
            expected = lr_max * s / warmup
        else:
            expected = lr_max + (lr_min - lr_max) * (s - warmup) / (total - warmup)
        assert got == pytest.approx(expected, abs=0)
    assert learned.learning_rate_at(total, total) == pytest.approx(lr_min)
    # warmup has a floor of one step
    assert learned.learning_rate_at(1, 3) == lr_max
    with pytest.raises(ValueError):
        learned.learning_rate_at(4, 3)


def test_clipping_scales_by_norm():
    grad = np.full(4, 5.0)  # norm 10
    assert learned._global_norm([grad]) == 10.0
    clipped = learned._clip_gradients(grad, 1.0, learned._global_norm([grad]))
    np.testing.assert_allclose(clipped, grad * 0.1, atol=1e-15)
    assert np.sqrt(np.sum(clipped**2)) <= 1.0 + 1e-12
    small = np.full(4, 0.1)
    np.testing.assert_array_equal(
        learned._clip_gradients(small, 1.0, learned._global_norm([small])), small)


@pytest.mark.parametrize("kind", ["unet_lite", "varnet_lite"])
def test_flat_optimizer_step_bytes_equal_per_layer_reference(kind):
    model = learned.construct_model(learned.ModelConfig(kind))
    assert len(model.layer_shapes) == {"unet_lite": 12, "varnet_lite": 21}[kind]
    clip_norm = 0.05
    rng = np.random.default_rng([len(kind), 0])
    theta = model.init_params()
    params = [p.copy() for p in model.split(theta)]
    opt = learned._Optimizer(model.size)
    ref = OptimizerReference(model.param_shapes, learned.BETA1, learned.BETA2)
    clipped = []
    for step in range(1, 7):
        scale = 1e-5 if step % 2 else 1.0  # clipping inactive on odd steps
        grads = [scale * rng.standard_normal(s) for s in model.param_shapes]
        total = global_norm_reference(grads)
        clipped.append(total > clip_norm)
        ref.step(params, clip_reference(grads, clip_norm, total), 1e-3 * step)
        grad = np.concatenate([np.ravel(g) for g in grads])
        norm = learned._global_norm(model.split(grad))
        assert norm == total
        opt.step(theta, learned._clip_gradients(grad, clip_norm, norm), 1e-3 * step)
        assert theta.tobytes() == np.concatenate([np.ravel(p) for p in params]).tobytes()
    assert clipped == [False, True] * 3


def test_split_views_the_vector_in_layer_order():
    model = learned.construct_model(VARNET)
    theta = np.arange(model.size, dtype=np.float64)
    views = model.split(theta)
    assert [v.shape for v in views] == model.param_shapes
    assert all(np.shares_memory(v, theta) for v in views)
    assert np.concatenate([v.ravel() for v in views]).tobytes() == theta.tobytes()
    assert learned.parameter_count(VARNET) == model.size == theta.size


def test_train_zero_epochs_returns_init():
    ds = small_dataset()
    cks, traces = learned.train(UNET, ds, learned.TrainConfig(epochs=0, seed=0))
    assert len(cks) == 1 and cks[0].epoch == 0
    assert traces["train_loss"] == []
    init = learned.construct_model(UNET).init_params()
    for p, q in zip(cks[0].params, init):
        np.testing.assert_array_equal(p, q)


def test_train_loss_decreases_on_seeded_run():
    ds = small_dataset(seed=1, count=16)
    cks, traces = learned.train(UNET, ds, learned.TrainConfig(epochs=5, seed=0))
    assert traces["train_loss"][4] < traces["train_loss"][0]
    assert len(cks) == 6


def test_train_reproducible_bitwise():
    ds = small_dataset(seed=2, count=6)
    cfg = learned.TrainConfig(epochs=2, seed=3)
    cks1, _ = learned.train(UNET, ds, cfg)
    cks2, _ = learned.train(UNET, ds, cfg)
    for a, b in zip(cks1, cks2):
        assert a.to_bytes() == b.to_bytes()


def _epoch_trace(checkpoints, dataset, config):
    """Per-epoch mean SSIM of trained checkpoints under fixed per-volume masks."""
    return [learned.evaluate_checkpoint(ck, dataset, config.seed, config.acceleration,
                                        config.center_fraction)[0]
            for ck in checkpoints[1:]]


def test_train_monitor_traces_fixed_masks():
    ds = small_dataset(seed=4, count=4)
    mon = small_dataset(seed=5, count=3)
    cfg = learned.TrainConfig(epochs=2, seed=0)
    cks, traces = learned.train(UNET, ds, cfg)
    assert set(traces) == {"train_loss"}
    trace = _epoch_trace(cks, mon, cfg)
    assert len(trace) == 2
    assert _epoch_trace(cks, mon, cfg) == trace  # fixed masks: rescoring repeats


def test_varnet_training_never_degrades_at_full_sampling():
    for seed in range(5):
        ds = small_dataset(seed=40 + seed, count=4, snr_db=300.0)
        cfg = learned.TrainConfig(epochs=2, seed=seed, acceleration=1.0)
        cks, _ = learned.train(
            learned.ModelConfig("varnet_lite", cascades=2, denoiser_channels=4,
                                seed=seed), ds, cfg)
        init, _, _ = learned.evaluate_checkpoint(cks[0], ds, seed, acceleration=1.0)
        final, _, _ = learned.evaluate_checkpoint(cks[-1], ds, seed, acceleration=1.0)
        assert final >= init


def test_checkpoint_roundtrip(tmp_path):
    ds = small_dataset(seed=6)
    cks, _ = learned.train(VARNET, ds, learned.TrainConfig(epochs=1, seed=0))
    path = tmp_path / "model.ckpt"
    cks[-1].save(path)
    loaded = learned.Checkpoint.load(path)
    assert loaded.epoch == 1
    assert loaded.fingerprint == cks[-1].fingerprint
    assert loaded.config == cks[-1].config
    for a, b in zip(loaded.params, cks[-1].params):
        np.testing.assert_array_equal(a, b)
    raw = path.read_bytes()
    assert raw[:4] == b"SMRI"
    with pytest.raises(ValueError, match="magic"):
        learned.Checkpoint.from_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="truncated"):
        learned.Checkpoint.from_bytes(raw[: len(raw) - 8])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_parameters(bad):
    ck = learned.Checkpoint(VARNET, learned.construct_model(VARNET).init_params(), 0, "x",
                            {}, (32, 32))
    raw = bytearray(ck.to_bytes())
    payload = len(raw) - 8 * ck.params.size
    for i in (37, 40):  # the first bad value is named
        raw[payload + 8 * i : payload + 8 * i + 8] = np.float64(bad).tobytes()
    with pytest.raises(learned.CheckpointFormatError, match="non-finite .* parameter 37$"):
        learned.Checkpoint.from_bytes(bytes(raw))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_never_writes_non_finite_parameters(tmp_path, bad):
    params = learned.construct_model(VARNET).init_params()
    params[[5, 9]] = bad
    ck = learned.Checkpoint(VARNET, params, 0, "x", {}, (32, 32))
    with pytest.raises(ValueError, match="non-finite .* parameter 5$"):
        ck.save(tmp_path / "bad.ckpt")
    assert not (tmp_path / "bad.ckpt").exists()


def test_evaluate_rejects_non_finite_reconstruction():
    ds = small_dataset(seed=19, count=3)
    params = learned.construct_model(VARNET).init_params()
    params[0] = np.array(np.nan)  # first cascade's step size
    with pytest.raises(FloatingPointError, match="item 0"):
        learned.evaluate_params(VARNET, [params], ds, 0)


def _header_boundaries(raw):
    """Offsets where a checkpoint field starts or ends: magic, version and
    header length, every key and value of the JSON header, then the payload."""
    hlen = int.from_bytes(raw[8:16], "little")
    header = raw[16 : 16 + hlen]
    inner = [16 + i for i, ch in enumerate(header) if ch in b'{}[],:"']
    return sorted({0, 4, 8, 16, *inner, 16 + hlen})


def test_checkpoint_rejects_trailing_and_truncated_bytes():
    ds = small_dataset(seed=6)
    cks, _ = learned.train(UNET, ds, learned.TrainConfig(epochs=0, seed=0))
    raw = cks[0].to_bytes()
    for junk in (b"\0", b"\0" * 8, raw[:16]):
        with pytest.raises(learned.CheckpointFormatError, match="trailing"):
            learned.Checkpoint.from_bytes(raw + junk)
    cuts = _header_boundaries(raw)
    assert len(cuts) > 20
    for cut in cuts + [len(raw) - 8, len(raw) - 1]:
        with pytest.raises(learned.CheckpointFormatError):
            learned.Checkpoint.from_bytes(raw[:cut])
    for bad in (raw[:16] + b"\xff" + raw[17:], raw.replace(b'"epoch"', b'"epoc_"')):
        with pytest.raises(learned.CheckpointFormatError, match="header"):
            learned.Checkpoint.from_bytes(bad)
    loaded = learned.Checkpoint.from_bytes(raw)
    assert loaded.to_bytes() == raw


@pytest.mark.parametrize("h, w, inverse", [(32, 32, False), (32, 32, True), (16, 24, False)])
def test_tape_dft_constants_equal_identity_fft_construction(h, w, inverse):
    got = learned._dft_constants(h, w, inverse)
    assert learned._dft_constants(h, w, inverse) is got
    for t, want in zip(got, tape_dft_reference(h, w, inverse), strict=True):
        assert t.data.flags.c_contiguous
        assert t.data.tobytes() == np.ascontiguousarray(want).tobytes()


def test_training_measures_through_data_measure(monkeypatch):
    ds = small_dataset(seed=15, coils=2)
    config = learned.TrainConfig(epochs=2, seed=3)
    seen = []
    reconstruct = learned.UnetLite.reconstruct
    monkeypatch.setattr(learned.UnetLite, "reconstruct", lambda model, params, y, sens, mask:
                        seen.append((y, sens, mask)) or reconstruct(model, params, y, sens, mask))
    learned.train(UNET, ds, config)
    assert len(seen) == 2 * len(ds.items)
    assert dm.TRAIN_NOISE_TAG == 0x4015E  # the stream every trained checkpoint was drawn with
    for step, (y, sens, mask) in enumerate(seen, start=1):  # one item per step
        want_mask = kspace.mask_for_batch(32, 4, 0.08, 3, step)
        assert mask.sampled.tobytes() == want_mask.sampled.tobytes()
        item = next(item for item in ds.items if item.sens is sens)
        want, _ = dm.measure(item, mask, 3, dm.TRAIN_NOISE_TAG, step, 0)
        assert y.tobytes() == want.tobytes()


@pytest.mark.parametrize("config", [UNET, VARNET], ids=["unet", "varnet"])
def test_infer_and_evaluate_params_run_one_model(monkeypatch, config):
    ck = learned.train(config, small_dataset(seed=14, count=2),
                       learned.TrainConfig(epochs=1, seed=0))[0][-1]
    scored = []
    monkeypatch.setattr(learned, "ssim", lambda out, target: scored.append(out) or 0.0)
    # at the training extents, half of them and 1.5 times them
    for side in (32, 16, 48):
        ds = small_dataset(seed=side, count=2, extents=(side, side))
        scored.clear()
        learned.evaluate_params(config, [ck.params], ds, 5)
        assert len(scored) == len(ds.items)
        for i, item in enumerate(ds.items):
            mask = kspace.mask_for_volume(side, 4, 0.08, 5, i)
            y, _ = dm.measure(item, mask, 5, dm.EVAL_NOISE_TAG, i)
            out = learned.infer(ck, y, item.sens, mask)
            assert out.shape == (side, side)
            assert out.tobytes() == scored[i].tobytes()


def test_infer_deterministic():
    ds = small_dataset(seed=7)
    cks, _ = learned.train(UNET, ds, learned.TrainConfig(epochs=1, seed=0))
    item = ds.items[0]
    mask = kspace.mask_for_volume(32, 4, 0.08, 1, 0)
    y = dm.simulate_measurements(item, mask, 2)
    a = learned.infer(cks[-1], y, item.sens, mask)
    b = learned.infer(cks[-1], y, item.sens, mask)
    np.testing.assert_array_equal(a, b)


def test_infer_varnet_zero_denoiser_full_mask():
    ds = small_dataset(seed=8)
    model_cfg = learned.ModelConfig("varnet_lite", cascades=1, denoiser_channels=4, seed=0)
    cks, _ = learned.train(model_cfg, ds, learned.TrainConfig(epochs=0, seed=0))
    item = ds.items[0]
    fm = kspace.full_mask(32)
    y = kspace.apply_forward(item.image, kspace.Encoding(item.sens, fm))
    out = learned.infer(cks[0], y, item.sens, fm)
    np.testing.assert_allclose(out, np.abs(item.image), atol=1e-10)


def test_infer_unresolvable_extents_error():
    """`infer` refuses exactly the extents the model's `check_extents` refuses."""
    rng = np.random.default_rng(10)
    unet3 = learned.ModelConfig("unet_lite", channels=4, pool_levels=3, seed=0)
    for config in (UNET, unet3, VARNET):
        ck = learned.train(config, small_dataset(seed=10),
                           learned.TrainConfig(epochs=0, seed=0))[0][-1]
        model = learned.construct_model(config)
        for extents in ((32, 32), (16, 16), (48, 24), (20, 20), (36, 16), (1, 8), (8, 1)):
            y = rng.standard_normal((2, *extents)) + 1j * rng.standard_normal((2, *extents))
            sens = kspace.simulate_sensitivities(*extents, 2, rng=rng)
            mask = kspace.full_mask(extents[1])
            try:
                model.check_extents(*extents)
            except ValueError as e:
                with pytest.raises(ValueError, match=re.escape(str(e))):
                    learned.infer(ck, y, sens, mask)
            else:
                assert learned.infer(ck, y, sens, mask).shape == extents


def test_train_refuses_mixed_extents_before_its_first_step(monkeypatch):
    items = [*small_dataset(seed=17, count=1).items,
             *small_dataset(seed=18, count=1, extents=(32, 48)).items]
    monkeypatch.setattr(ad, "Tape", None)  # any training step would raise
    with pytest.raises(ValueError, match=re.escape(
            "train needs one item extent; dataset 'odd' has [(32, 32), (32, 48)]")):
        learned.train(UNET, dm.Dataset("odd", items), learned.TrainConfig(epochs=1))


# SHA-256 of each checkpoint (epochs 0, 1 and 2) of a 2-epoch training on 4
# items, taken when the recipe constants were TrainConfig fields defaulting to
# the same values
TRAINED_SHA256 = {
    "unet_lite": ["bcf2017eda1ad7db7e3c22b8ee6751247fac7656d3f0025c70e4be01494f275c",
                  "6cbdc1a400bc4988f011c5769e7bf9597630e3ad4db2ee68f0b44a51239f9050",
                  "a02840bd936b5ce5de4b94f3922846c4fbe8b15023cc16fe2282eed78468f97d"],
    "varnet_lite": ["5bd2f92deae279fc36ea5ac348ada6fafa9e5565733347c4562c3ad1359718c3",
                    "b6f6db67a8f3a23e7271c465738a0e864b57b833df99a3667093a185d0dd2487",
                    "c7be7e46d9697fe6eda10b71723b9662124fb4f1cdeec2f471818bb1b91672e4"],
}


@pytest.mark.parametrize("config", [UNET, VARNET], ids=["unet", "varnet"])
def test_trained_checkpoints_keep_their_bytes(config):
    cks, _ = learned.train(config, small_dataset(seed=21), learned.TrainConfig(epochs=2, seed=5))
    assert [hashlib.sha256(ck.to_bytes()).hexdigest() for ck in cks] == TRAINED_SHA256[config.kind]


def test_finetune_zero_epochs_keeps_parameters():
    ds = small_dataset(seed=12)
    cks, _ = learned.train(UNET, ds, learned.TrainConfig(epochs=1, seed=0))
    f_cks, _ = learned.finetune(cks[-1], ds, learned.TrainConfig(epochs=0, seed=1))
    for a, b in zip(f_cks[0].params, cks[-1].params):
        np.testing.assert_array_equal(a, b)
    assert f_cks[0].provenance == [cks[-1].fingerprint]


def test_finetune_tiny_lr_traces_flat(monkeypatch):
    ds = small_dataset(seed=13, count=4)
    cks, _ = learned.train(UNET, ds, learned.TrainConfig(epochs=1, seed=0))
    monkeypatch.setattr(learned, "LR_MAX", 1e-12)
    monkeypatch.setattr(learned, "LR_MIN", 1e-13)
    cfg = learned.TrainConfig(epochs=2, seed=0)
    f_cks, _ = learned.finetune(cks[-1], ds, cfg)
    vals = _epoch_trace(f_cks, ds, cfg)
    assert len(vals) == 2
    assert max(vals) - min(vals) < 1e-6


def test_finetune_improves_target_metric():
    parent_set = small_dataset(seed=14, count=12)
    q_spec = dm.DistributionSpec("Q", contrast={"kind": "gamma", "gamma": 2.0},
                                 extents=(32, 32), coils=3, snr_db=30.0, seed=15)
    q_train, q_test = dm.train_test(q_spec, 12, 6)
    cks, _ = learned.train(UNET, parent_set, learned.TrainConfig(epochs=4, seed=0))
    before, _, _ = learned.evaluate_checkpoint(cks[-1], q_test, 0)
    f_cks, _ = learned.finetune(cks[-1], q_train, learned.TrainConfig(epochs=4, seed=0))
    after, _, _ = learned.evaluate_checkpoint(f_cks[-1], q_test, 0)
    assert after > before


def test_finetune_rejects_mismatched_params():
    ds = small_dataset(seed=16)
    cks, _ = learned.train(UNET, ds, learned.TrainConfig(epochs=0, seed=0))
    bad = learned.Checkpoint(VARNET, cks[0].params, 0, "x", {}, (32, 32))
    with pytest.raises(ValueError):
        learned.finetune(bad, ds, learned.TrainConfig(epochs=1, seed=0))


def test_multi_acceleration_training_runs():
    ds = small_dataset(seed=17, count=4)
    cfg = learned.TrainConfig(epochs=1, seed=0, accelerations=(2.0, 4.0))
    cks, traces = learned.train(UNET, ds, cfg)
    assert len(cks) == 2
    assert np.isfinite(traces["train_loss"][0])


@pytest.mark.parametrize("cut", [-1, 1], ids=["short", "long"])
def test_train_rejects_parameter_count_mismatch(cut):
    ds = small_dataset(seed=18, count=1)
    params = learned.construct_model(UNET).init_params()
    params = params[:-1] if cut < 0 else np.append(params, params[-1])
    with pytest.raises(ValueError, match="parameters given"):
        learned.train(UNET, ds, learned.TrainConfig(epochs=1, seed=0), init_params=params)
