import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import shiftmri.autodiff as ad
from shiftmri import learned
from oracles import _col2im, _im2col, grad_check, slice_channels


def rng_for(seed):
    return np.random.default_rng(seed)


def test_relu_values():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_conv2d_identity_kernel():
    rng = rng_for(0)
    img = rng.standard_normal((1, 9, 7))
    kernel = np.zeros((1, 1, 3, 3))
    kernel[0, 0, 1, 1] = 1.0
    out = ad.conv2d(ad.Tensor(img), ad.Tensor(kernel))
    np.testing.assert_allclose(out.data, img, atol=0)


def test_ssim_loss_identical_is_zero():
    rng = rng_for(1)
    x = rng.random((10, 10))
    with ad.Tape() as tape:
        leaf = tape.leaf(x)
        loss = ad.ssim_loss(leaf, ad.Tensor(x), data_range=1.0)
    assert float(loss.data) == 0.0


def test_backward_mean_square():
    with ad.Tape() as tape:
        w = tape.leaf(np.array([1.0, 2.0]))
        loss = ad.reduce_mean(ad.mul(w, w))
        grads = ad.backward(tape, loss)
    np.testing.assert_allclose(grads[w.node_id].data, [1.0, 2.0])


def test_backward_disconnected_parameter_zero_grad():
    with ad.Tape() as tape:
        used = tape.leaf(np.array([3.0]))
        unused = tape.leaf(np.ones((2, 2)))
        loss = ad.reduce_mean(ad.mul(used, used))
        grads = ad.backward(tape, loss)
    np.testing.assert_array_equal(grads[unused.node_id].data, np.zeros((2, 2)))


def test_backward_rejects_nonscalar_loss():
    with ad.Tape() as tape:
        w = tape.leaf(np.ones(3))
        out = ad.mul(w, w)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(tape, out)


def test_nested_tapes_record_on_the_innermost():
    with ad.Tape() as outer:
        a = outer.leaf(np.ones(2))
        with ad.Tape() as inner:
            b = inner.leaf(np.ones(2))
            ad.mul(b, b)
        assert ad._active_tape() is outer
        ad.mul(a, a)
    assert ad._active_tape() is None
    assert [n.op for n in outer.nodes] == [n.op for n in inner.nodes] == ["leaf", "mul"]


def test_two_layer_conv_net_matches_finite_differences():
    rng = rng_for(2)
    x = rng.standard_normal((2, 6, 6)) + 0.3
    params = [
        rng.standard_normal((3, 2, 3, 3)) * 0.5,
        rng.standard_normal(3) * 0.1,
        rng.standard_normal((1, 3, 3, 3)) * 0.5,
        rng.standard_normal(1) * 0.1,
    ]

    def net(leaves):
        h = ad.relu(ad.conv2d(ad.Tensor(x), leaves[0], leaves[1]))
        h = ad.conv2d(h, leaves[2], leaves[3])
        return ad.reduce_mean(ad.mul(h, h))

    assert grad_check(net, params, h=1e-5) < 1e-4


def test_grad_check_linear_layer_tight():
    rng = rng_for(3)
    x = rng.standard_normal((4, 5))

    def fn(leaves):
        return ad.reduce_mean(ad.matmul(leaves[0], ad.Tensor(x)))

    assert grad_check(fn, [rng.standard_normal((3, 4))], h=1e-5) < 1e-6


def test_grad_check_relu_away_from_kink():
    rng = rng_for(4)
    base = rng.standard_normal((3, 3))
    base[np.abs(base) < 0.2] = 0.5

    def fn(leaves):
        return ad.reduce_mean(ad.relu(leaves[0]))

    assert grad_check(fn, [base], h=1e-5) < 1e-6


def test_grad_check_zero_parameters():
    def fn(leaves):
        return ad.reduce_mean(ad.Tensor(np.ones((2, 2))))

    assert grad_check(fn, []) == 0.0


def _rand_like(rng, shape, kink_safe=False):
    x = rng.standard_normal(shape)
    if kink_safe:
        x = np.where(np.abs(x) < 0.2, x + np.sign(x + 0.5) * 0.4, x)
    return x


def _op_instances(kind, rng):
    """(builder(list of leaves) -> Tensor, list of leaf arrays)."""
    if kind == "add":
        a, b = _rand_like(rng, (3, 4)), _rand_like(rng, (3, 4))
        return lambda ls: ad.add(ls[0], ls[1]), [a, b]
    if kind == "mul":
        a, b = _rand_like(rng, (3, 4)), _rand_like(rng, (3, 4))
        return lambda ls: ad.mul(ls[0], ls[1]), [a, b]
    if kind == "mul-scalar-broadcast":
        a, b = _rand_like(rng, ()), _rand_like(rng, (3, 4))
        return lambda ls: ad.mul(ls[0], ls[1]), [a, b]
    if kind == "scale":
        return lambda ls: ad.scale(ls[0], 1.7), [_rand_like(rng, (2, 5))]
    if kind == "matmul":
        a, b = _rand_like(rng, (3, 4)), _rand_like(rng, (4, 2))
        return lambda ls: ad.matmul(ls[0], ls[1]), [a, b]
    if kind == "matmul-stacked-lhs":
        a, b = _rand_like(rng, (3, 4, 5)), _rand_like(rng, (5, 2))
        return lambda ls: ad.matmul(ls[0], ls[1]), [a, b]
    if kind == "matmul-stacked-rhs":
        a, b = _rand_like(rng, (4, 3)), _rand_like(rng, (2, 3, 5))
        return lambda ls: ad.matmul(ls[0], ls[1]), [a, b]
    if kind in ("conv2d", "conv2d-rect"):
        rect = kind == "conv2d-rect"
        x = _rand_like(rng, (2, 4, 7) if rect else (2, 5, 5))
        w = _rand_like(rng, (3, 2, 3, 5) if rect else (3, 2, 3, 3)) * 0.5
        b = _rand_like(rng, (3,)) * 0.1
        return lambda ls: ad.conv2d(ls[0], ls[1], ls[2]), [x, w, b]
    if kind == "relu":
        return lambda ls: ad.relu(ls[0]), [_rand_like(rng, (3, 4), kink_safe=True)]
    if kind == "avgpool2":
        return lambda ls: ad.avgpool2(ls[0]), [_rand_like(rng, (2, 4, 6))]
    if kind == "upsample2":
        return lambda ls: ad.upsample2(ls[0]), [_rand_like(rng, (2, 3, 2))]
    if kind == "concat-channels":
        a, b = _rand_like(rng, (1, 3, 3)), _rand_like(rng, (2, 3, 3))
        return lambda ls: ad.concat_channels([ls[0], ls[1]]), [a, b]
    if kind == "complex-mul-as-2ch":
        a, b = _rand_like(rng, (2, 3, 4)), _rand_like(rng, (2, 3, 4))
        return lambda ls: ad.complex_mul_2ch(ls[0], ls[1]), [a, b]
    if kind == "complex-mul-broadcast":
        a, b = _rand_like(rng, (2, 3, 4, 5)), _rand_like(rng, (2, 4, 5))
        return lambda ls: ad.complex_mul_2ch(ls[0], ls[1]), [a, b]
    if kind == "add-times-i":
        a, b = _rand_like(rng, (2, 3, 4)), _rand_like(rng, (2, 3, 4))
        return lambda ls: ad.add_times_i(ls[0], ls[1]), [a, b]
    if kind == "add-times-i-constant":
        a, b = _rand_like(rng, (2, 3, 4, 5)), _rand_like(rng, (2, 3, 4, 5))
        return lambda ls: ad.add_times_i(ad.Tensor(a), ls[0]), [b]
    if kind == "coil-sum":
        return lambda ls: ad.coil_sum(ls[0]), [_rand_like(rng, (2, 3, 4, 5))]
    if kind == "reduce-mean":
        return lambda ls: ls[0], [_rand_like(rng, (4, 3))]
    if kind == "reshape":
        return lambda ls: ad.reshape(ls[0], (6, 2)), [_rand_like(rng, (3, 4))]
    if kind == "slice-channels":
        return lambda ls: slice_channels(ls[0], 1, 3), [_rand_like(rng, (4, 3, 3))]
    if kind == "magnitude-2ch":
        x = _rand_like(rng, (2, 3, 3))
        x += np.sign(x) * 0.3  # keep the magnitude away from zero
        return lambda ls: ad.magnitude_2ch(ls[0]), [x]
    if kind == "ssim-loss-node":
        x = rng.random((9, 9)) + 0.3
        y = rng.random((9, 9)) + 0.3
        return (lambda ls: ad.ssim_loss(ls[0], ad.Tensor(y), data_range=1.3),
                [x])
    raise AssertionError(kind)


OP_KINDS = [
    "add", "mul", "mul-scalar-broadcast", "scale", "matmul", "matmul-stacked-lhs",
    "matmul-stacked-rhs", "conv2d", "conv2d-rect", "relu", "avgpool2", "upsample2",
    "concat-channels", "complex-mul-as-2ch", "complex-mul-broadcast", "add-times-i",
    "add-times-i-constant", "coil-sum", "reduce-mean", "reshape", "slice-channels",
    "magnitude-2ch", "ssim-loss-node",
]


@pytest.mark.parametrize("kind", OP_KINDS)
def test_op_gradients_match_directional_finite_differences(kind):
    """100 seeded instances per kind against a central directional derivative."""
    for seed in range(100):
        rng = rng_for(1000 + seed)
        builder, arrays = _op_instances(kind, rng)
        weight = None

        def scalarize(ls):
            nonlocal weight
            out = builder(ls)
            if out.data.shape == ():
                return out
            if weight is None:
                weight = rng_for(2000 + seed).standard_normal(out.data.shape)
            return ad.reduce_mean(ad.mul(out, ad.Tensor(weight)))

        with ad.Tape() as tape:
            leaves = [tape.leaf(a) for a in arrays]
            loss = scalarize(leaves)
            grads = ad.backward(tape, loss)
        direction = [rng.standard_normal(a.shape) for a in arrays]
        h = 1e-6
        plus = [a + h * d for a, d in zip(arrays, direction)]
        minus = [a - h * d for a, d in zip(arrays, direction)]
        fd = (float(scalarize([ad.Tensor(a) for a in plus]).data)
              - float(scalarize([ad.Tensor(a) for a in minus]).data)) / (2 * h)
        analytic = sum(float(np.sum(grads[l.node_id].data * d))
                       for l, d in zip(leaves, direction))
        assert abs(analytic - fd) / max(1e-8, abs(fd)) < 1e-4, f"{kind} seed {seed}"


def test_determinism_bitwise():
    def run():
        rng = rng_for(7)
        x = rng.standard_normal((2, 8, 8))
        w = rng.standard_normal((2, 2, 3, 3))
        with ad.Tape() as tape:
            leaf = tape.leaf(w)
            out = ad.relu(ad.conv2d(ad.Tensor(x), leaf))
            loss = ad.reduce_mean(ad.mul(out, out))
            grads = ad.backward(tape, loss)
        return loss.data.tobytes(), grads[leaf.node_id].data.tobytes()

    assert run() == run()


def test_backward_linearity():
    rng = rng_for(8)
    x = rng.standard_normal((3, 3))
    a, b = 2.5, -1.25
    with ad.Tape() as tape:
        w = tape.leaf(x)
        l1 = ad.reduce_mean(ad.mul(w, w))
        l2 = ad.reduce_mean(ad.relu(w))
        g1 = ad.backward(tape, l1)[w.node_id].data
        g2 = ad.backward(tape, l2)[w.node_id].data
        combined = ad.add(ad.scale(l1, a), ad.scale(l2, b))
        gc = ad.backward(tape, combined)[w.node_id].data
    np.testing.assert_allclose(gc, a * g1 + b * g2, atol=1e-10)


def test_shape_errors_name_the_op():
    with pytest.raises(ad.ShapeMismatch, match="add"):
        ad.add(ad.Tensor(np.ones(3)), ad.Tensor(np.ones(4)))
    with pytest.raises(ad.ShapeMismatch, match="matmul"):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))
    with pytest.raises(ad.ShapeMismatch, match="conv2d"):
        ad.conv2d(ad.Tensor(np.ones((2, 4, 4))), ad.Tensor(np.ones((1, 3, 3, 3))))
    with pytest.raises(ad.ShapeMismatch, match="avgpool2"):
        ad.avgpool2(ad.Tensor(np.ones((1, 5, 4))))
    with pytest.raises(ad.ShapeMismatch, match="matmul"):
        ad.matmul(ad.Tensor(np.ones((2, 3, 4))), ad.Tensor(np.ones((2, 4, 3))))
    with pytest.raises(ad.ShapeMismatch, match="complex-mul-as-2ch"):
        ad.complex_mul_2ch(ad.Tensor(np.ones((2, 3, 4, 4))), ad.Tensor(np.ones((2, 4, 5))))
    with pytest.raises(ad.ShapeMismatch, match="coil-sum"):
        ad.coil_sum(ad.Tensor(np.ones((2, 4, 4))))
    with pytest.raises(ad.ShapeMismatch, match="add-times-i"):
        ad.add_times_i(ad.Tensor(np.ones((2, 4, 4))), ad.Tensor(np.ones((2, 4, 5))))
    with pytest.raises(ad.ShapeMismatch, match="add-times-i"):
        ad.add_times_i(ad.Tensor(np.ones((3, 4, 4))), ad.Tensor(np.ones((3, 4, 4))))


def test_coil_sum_adds_in_coil_order():
    x = np.random.default_rng(9).standard_normal((2, 5, 3, 3))
    ref = x[:, 0] + x[:, 1]
    for i in range(2, 5):
        ref = ref + x[:, i]
    assert ad.coil_sum(ad.Tensor(x)).data.tobytes() == ref.tobytes()


def test_requires_grad_outside_tape_is_an_error():
    t = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError, match="Tape"):
        ad.relu(t)


def test_shared_first_gradients_accumulate_to_g_plus_g2():
    """backward stores the first gradient to reach a node without copying it,
    so add hands one array to both x and y (through two reshapes, a view of
    it to x). x's later contribution g2, from a node recorded earlier, must
    allocate a new sum, not write into the array y's gradient shares."""
    rng = rng_for(10)
    x0, y0 = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    weight, w2 = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    g = np.full(weight.shape, 1.0 / weight.size) * weight  # d mean(z * weight) / d z
    g2 = np.full(w2.shape, 1.0 / w2.size) * w2  # d mean(x * w2) / d x
    for through_reshape in (False, True):
        with ad.Tape() as tape:
            x, y = tape.leaf(x0), tape.leaf(y0)
            u = ad.reduce_mean(ad.mul(x, ad.Tensor(w2)))  # swept after z's nodes
            xz = ad.reshape(ad.reshape(x, (4, 3)), (3, 4)) if through_reshape else x
            z = ad.add(xz, y)
            loss = ad.add(u, ad.reduce_mean(ad.mul(z, ad.Tensor(weight))))
            grads = ad.backward(tape, loss)
        assert set(grads) == {x.node_id, y.node_id}  # leaves only
        np.testing.assert_array_equal(grads[y.node_id].data, g)
        np.testing.assert_array_equal(grads[x.node_id].data, g + g2)


def test_chain_forward_and_backward_hold_few_full_size_arrays():
    """20 scale+add pairs on a 1 MiB leaf: neither the tape nor the sweep
    keeps one array per node alive."""
    x0 = rng_for(15).standard_normal(2**17)
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            x = tape.leaf(x0)
            y = x
            for _ in range(20):
                y = ad.add(y, ad.scale(y, 0.5))
            loss = ad.reduce_mean(y)
            del y
            grads = ad.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(grads[x.node_id].data, 1.5**20 / x0.size, rtol=1e-12)
    assert peak < 5 * x0.nbytes


def _read_inputs(kind, needs):
    """Indices of the inputs whose arrays a node's backward reads, given which
    inputs require a gradient."""
    if kind.startswith(("mul", "matmul", "complex-mul")):
        return {i for i in (0, 1) if needs[1 - i]}  # the other operand's gradient
    if kind.startswith("conv2d"):
        return {1} if needs[0] else set()  # the input gradient reads the kernel
    if kind == "magnitude-2ch":
        return {0}
    return set()


def _constant_variants(kind):
    n = len(_op_instances(kind, rng_for(0))[1])
    return [(kind, None)] + ([(kind, i) for i in range(n)] if n > 1 else [])


@pytest.mark.parametrize("kind,constant",
                         [v for kind in OP_KINDS for v in _constant_variants(kind)])
def test_tape_keeps_only_the_inputs_backward_reads(kind, constant):
    """With all inputs differentiable, or with input `constant` a plain
    tensor: once the caller drops its arrays, an input array the node's
    backward does not read is freed, one it reads stays alive, and the
    gradients still match those of a tape whose inputs were kept."""
    builder, arrays = _op_instances(kind, rng_for(16))
    weight = None

    def record():
        nonlocal weight
        with ad.Tape() as tape:
            inputs = [ad.Tensor(a) if i == constant else tape.leaf(a)
                      for i, a in enumerate(arrays)]
            out = builder(inputs)
            if kind == "reduce-mean":  # its builder is the identity
                out = ad.reduce_mean(out)
            if weight is None:
                weight = rng_for(17).standard_normal(out.shape)
            loss = ad.reduce_mean(ad.mul(out, ad.Tensor(weight)))
        return tape, loss, [t.node_id for t in inputs]

    tape, loss, _ = record()
    want = ad.backward(tape, loss)
    arrays = [np.array(a) for a in arrays]  # held here and by the tape only
    refs = [weakref.ref(a) for a in arrays]
    tape, loss, ids = record()
    needs = [i != constant for i in range(len(arrays))]
    del arrays
    gc.collect()
    alive = {i for i, r in enumerate(refs) if r() is not None}
    assert alive == _read_inputs(kind, needs)
    got = ad.backward(tape, loss)
    for nid, need in zip(ids, needs):
        if need:
            np.testing.assert_array_equal(got[nid].data, want[nid].data)


@pytest.mark.parametrize("shape", [(1, 2, 2), (3, 2, 6), (2, 6, 2), (16, 32, 32), (4, 10, 14)])
def test_pooling_sums_match_reshape_reductions_bytewise(shape):
    c, h, w = shape
    rng = rng_for(11)
    for _ in range(20):
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        blocks = a.reshape(c, h // 2, 2, w // 2, 2)
        assert ad.avgpool2(ad.Tensor(a)).data.tobytes() == blocks.mean(axis=(2, 4)).tobytes()
        with ad.Tape() as tape:
            x = tape.leaf(a[:, : h // 2, : w // 2])
            up = ad.upsample2(x)
            loss = ad.reduce_mean(ad.mul(up, ad.Tensor(a)))
            grads = ad.backward(tape, loss)
        upstream = np.full(a.shape, 1.0 / a.size) * a  # d loss / d up
        ref = upstream.reshape(c, h // 2, 2, w // 2, 2).sum(axis=(2, 4))
        assert grads[x.node_id].data.tobytes() == ref.tobytes()


def _check_input_gradient(rng, cout, cin, kh, kw, h, w):
    """conv2d's input gradient for an output gradient g, from its backward
    closure, against the scatter-add of the per-patch gradient columns."""
    weight = rng.standard_normal((cout, cin, kh, kw))
    with ad.Tape() as tape:
        out = ad.conv2d(tape.leaf(rng.standard_normal((cin, h, w))), ad.Tensor(weight))
    g = rng.standard_normal((cout, h, w))
    got = tape.nodes[out.node_id].backward_fn(g)[0]
    ref = _col2im(weight.reshape(cout, -1).T @ g.reshape(cout, -1), cin, kh, kw, h, w)
    assert got.shape == ref.shape and got.flags.c_contiguous
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# (cout, cin, h, w) of every conv in unet_lite (8 channels, 2 pool levels)
# and in a varnet_lite denoiser, at 32x32
UNET_CONVS = {"in": (8, 1, 32, 32), "enc1": (16, 8, 16, 16), "enc2": (32, 16, 8, 8),
              "dec1": (16, 48, 16, 16), "dec0": (8, 24, 32, 32), "out": (1, 8, 32, 32)}
VARNET_CONVS = {"d1": (6, 2, 32, 32), "d2": (6, 6, 32, 32), "d3": (2, 6, 32, 32)}


def test_model_conv_shapes_are_the_configured_ones():
    unet = learned.UnetLite(learned.ModelConfig("unet_lite", channels=8, pool_levels=2))
    varnet = learned.VarnetLite(learned.ModelConfig("varnet_lite", cascades=1))
    for model, convs, prefix in ((unet, UNET_CONVS, ""), (varnet, VARNET_CONVS, "c0.")):
        weights = {n[:-2]: s for n, s in model.layer_shapes if n.endswith(".w")}
        assert weights == {prefix + n: (co, ci, 3, 3) for n, (co, ci, _, _) in convs.items()}


@pytest.mark.parametrize("layer", [*UNET_CONVS.values(), *VARNET_CONVS.values()],
                         ids=[*UNET_CONVS, *(f"varnet-{n}" for n in VARNET_CONVS)])
def test_conv_input_gradient_matches_col2im_at_model_shapes(layer):
    cout, cin, h, w = layer
    _check_input_gradient(rng_for([cout, cin, h]), cout, cin, 3, 3, h, w)


@pytest.mark.parametrize("kernel", [(1, 1), (1, 5), (5, 3), (3, 3)])
@pytest.mark.parametrize("extents", [(1, 7), (9, 4), (6, 6)])
def test_conv_input_gradient_matches_col2im_on_rectangles(kernel, extents):
    """Non-square kernels and images catch a flip or transpose on the wrong axis."""
    rng = rng_for([*kernel, *extents])
    for _ in range(10):
        cout, cin = (int(c) for c in rng.integers(1, 5, size=2))
        _check_input_gradient(rng, cout, cin, *kernel, *extents)


def _check_against_im2col(rng, cout, cin, kh, kw, h, w):
    """conv2d's output and its input, weight and bias gradients, from its
    backward closure, against the products of the im2col patch matrix."""
    x = rng.standard_normal((cin, h, w))
    weight = rng.standard_normal((cout, cin, kh, kw))
    bias = rng.standard_normal(cout)
    with ad.Tape() as tape:
        out = ad.conv2d(*(tape.leaf(a) for a in (x, weight, bias)))
    g = rng.standard_normal((cout, h, w))
    got = [out.data, *tape.nodes[out.node_id].backward_fn(g)]
    cols, gmat = _im2col(x, kh, kw), g.reshape(cout, h * w)
    wflip = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
    ref = [(weight.reshape(cout, -1) @ cols + bias[:, None]).reshape(cout, h, w),
           (wflip @ _im2col(g, kh, kw)).reshape(cin, h, w),
           (gmat @ cols.T).reshape(cout, cin, kh, kw),
           gmat.sum(axis=1)]
    for name, a, b in zip(("output", "input grad", "weight grad", "bias grad"), got, ref):
        assert a.shape == b.shape, name
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


@pytest.mark.parametrize("layer", [*UNET_CONVS.values(), *VARNET_CONVS.values()],
                         ids=[*UNET_CONVS, *(f"varnet-{n}" for n in VARNET_CONVS)])
def test_conv_matches_im2col_at_model_shapes(layer):
    cout, cin, h, w = layer
    _check_against_im2col(rng_for([cout, cin, h, 1]), cout, cin, 3, 3, h, w)


@pytest.mark.parametrize("kernel", [(1, 1), (1, 5), (5, 3), (3, 3)])
@pytest.mark.parametrize("extents", [(1, 7), (9, 4), (6, 6)])
def test_conv_matches_im2col_on_rectangles(kernel, extents):
    rng = rng_for([*kernel, *extents, 1])
    for _ in range(10):
        cout, cin = (int(c) for c in rng.integers(1, 5, size=2))
        _check_against_im2col(rng, cout, cin, *kernel, *extents)


def test_conv_matches_im2col_with_kernels_wider_than_the_image():
    """Kernel columns that fall wholly outside the image read only padding."""
    rng = rng_for(13)
    for kernel, extents in [((5, 7), (2, 2)), ((7, 1), (3, 1)), ((3, 9), (1, 3))]:
        _check_against_im2col(rng, 3, 2, *kernel, *extents)


def test_conv_input_gradient_is_c_contiguous_and_not_copied_by_backward():
    """backward's Tensor wrapper would copy a non-contiguous gradient; the
    weight and bias gradients are checked the same way."""
    rng = rng_for(12)
    returned = []
    with ad.Tape() as tape:
        x = tape.leaf(rng.standard_normal((3, 6, 5)))
        weight = tape.leaf(rng.standard_normal((4, 3, 3, 5)))
        bias = tape.leaf(rng.standard_normal(4))
        out = ad.conv2d(x, weight, bias)
        loss = ad.reduce_mean(ad.mul(out, ad.Tensor(rng.standard_normal(out.shape))))
        node = tape.nodes[out.node_id]
        closure = node.backward_fn

        def recording(g):
            input_grads = closure(g)
            returned.extend(input_grads)
            return input_grads

        node.backward_fn = recording
        grads = ad.backward(tape, loss)
    for leaf, grad in zip((x, weight, bias), returned):
        assert grad.flags.c_contiguous
        assert np.shares_memory(grads[leaf.node_id].data, grad)


def test_conv_forward_peak_memory_stays_below_five_inputs():
    """One forward at the dec0 shape: the row-shift buffer is about 3.2x the
    input; a kh*kw patch matrix with its padded copy would be about 10x."""
    rng = rng_for(14)
    x = ad.Tensor(rng.standard_normal((24, 32, 32)))
    weight = ad.Tensor(rng.standard_normal((8, 24, 3, 3)))
    bias = ad.Tensor(rng.standard_normal(8))
    tracemalloc.start()
    try:
        ad.conv2d(x, weight, bias)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * x.data.nbytes
