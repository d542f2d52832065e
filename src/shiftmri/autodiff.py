"""Minimal dense float64 tensor engine with reverse-mode autodiff.

Graphs are recorded on an explicit Tape: every op appends a node whose
backward closure scatters the incoming gradient to its inputs. A closure keeps
only the arrays its gradient formula reads, and only for inputs that require a
gradient; otherwise it keeps flags and shapes, so the tape does not hold the
forward pass's intermediates alive. Node order is creation order, which is
automatically topological, so backward() is a single reverse sweep. Tapes are
single-owner and single-threaded; tensors detached from any tape are immutable
data carriers and safe to share.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .metrics import SsimConfig, ssim_and_grad


class ShapeMismatch(ValueError):
    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


class Tensor:
    """Row-major float64 array, optionally attached to a tape node."""

    __slots__ = ("data", "requires_grad", "node_id")

    def __init__(self, data, requires_grad: bool = False):
        # note: asarray keeps 0-d shapes; ascontiguousarray would promote to 1-d
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.node_id = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("op", "input_ids", "backward_fn", "shape")

    def __init__(self, op: str, input_ids, backward_fn, shape):
        self.op = op
        self.input_ids = input_ids
        self.backward_fn = backward_fn
        self.shape = shape


_ACTIVE = threading.local()


def _active_tape():
    stack = getattr(_ACTIVE, "stack", None)
    return stack[-1] if stack else None


class Tape:
    """Records ops in creation order; backward() sweeps them in reverse."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self):
        if not hasattr(_ACTIVE, "stack"):
            _ACTIVE.stack = []
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.stack.pop()
        return False

    def leaf(self, data) -> Tensor:
        """Register a differentiable input."""
        t = Tensor(data, requires_grad=True)
        t.node_id = self._record("leaf", [], None, t.data.shape)
        return t

    def _record(self, op, input_ids, backward_fn, shape) -> int:
        self.nodes.append(_Node(op, input_ids, backward_fn, shape))
        return len(self.nodes) - 1


def _record_op(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
               backward_fn: Callable) -> Tensor:
    """Wrap op output; attach to the active tape when any input is differentiable.

    backward_fn(g) must return one gradient (or None) per input, in order.
    """
    out = Tensor(out_data)
    if not any(t.requires_grad for t in inputs):
        return out
    tape = _active_tape()
    if tape is None:
        raise RuntimeError(f"{op}: differentiable inputs outside any Tape context")
    input_ids = []
    for t in inputs:
        if t.requires_grad:
            if t.node_id is None:
                raise RuntimeError(f"{op}: requires_grad input was not registered with tape.leaf")
            input_ids.append(t.node_id)
        else:
            input_ids.append(None)
    out.requires_grad = True
    out.node_id = tape._record(op, input_ids, backward_fn, out.data.shape)
    return out


def backward(tape: Tape, loss: Tensor) -> dict[int, Tensor]:
    """Reverse sweep from a scalar loss; returns leaf node_id -> gradient tensor.

    Only leaves get gradients: a node's gradient is dropped as soon as its
    closure has consumed it, so the sweep holds few full-size arrays at once.
    Closures stay on the tape, so backward can run again on it. Differentiable
    leaves with no path to the loss get zero gradients. The first gradient to
    reach a node is stored uncopied, so returned gradients may share memory
    (add and reshape pass theirs through): read them, never write into them.
    No backward closure writes into its incoming gradient, and accumulation
    allocates a new array.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss.node_id is None:
        raise ValueError("loss tensor is not on the tape")
    grads: list[np.ndarray | None] = [None] * len(tape.nodes)
    grads[loss.node_id] = np.ones(())
    for nid in range(loss.node_id, -1, -1):
        g = grads[nid]
        if g is None:
            continue
        node = tape.nodes[nid]
        if node.backward_fn is None:
            continue
        grads[nid] = None
        input_grads = node.backward_fn(g)
        for iid, ig in zip(node.input_ids, input_grads):
            if iid is None or ig is None:
                continue
            if grads[iid] is None:
                grads[iid] = np.asarray(ig)
            else:
                grads[iid] = grads[iid] + ig
    return {nid: Tensor(np.zeros(node.shape) if grads[nid] is None else grads[nid])
            for nid, node in enumerate(tape.nodes) if node.op == "leaf"}


# ---------------------------------------------------------------------------
# Op kinds.
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch("add", a.shape, b.shape)
    ra, rb = a.requires_grad, b.requires_grad
    return _record_op("add", a.data + b.data, [a, b],
                      lambda g: [g if ra else None, g if rb else None])


def add_times_i(a: Tensor, b: Tensor) -> Tensor:
    """a + i b for 2-channel complex tensors (channel 0 real, 1 imaginary):
    (a0 - b1, a1 + b0), with no complex product."""
    if a.shape != b.shape or a.data.ndim < 3 or a.shape[0] != 2:
        raise ShapeMismatch("add-times-i", a.shape, b.shape)
    ra, rb = a.requires_grad, b.requires_grad
    out = np.stack([a.data[0] - b.data[1], a.data[1] + b.data[0]])
    return _record_op("add-times-i", out, [a, b],
                      lambda g: [g if ra else None, np.stack([g[1], -g[0]]) if rb else None])


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; a scalar (0-d or length-1) operand broadcasts."""
    as_, bs = a.shape, b.shape
    scalar_a = a.data.size == 1
    scalar_b = b.data.size == 1
    if as_ != bs and not (scalar_a or scalar_b):
        raise ShapeMismatch("mul", as_, bs)
    out = a.data * b.data
    out_shape = out.shape
    # each operand's gradient reads only the other operand
    for_a = b.data if a.requires_grad else None
    for_b = a.data if b.requires_grad else None

    def bw(g):
        ga = gb = None
        if for_a is not None:
            ga = g * for_a
            if scalar_a and as_ != out_shape:
                ga = np.sum(ga).reshape(as_)
        if for_b is not None:
            gb = g * for_b
            if scalar_b and bs != out_shape:
                gb = np.sum(gb).reshape(bs)
        return [ga, gb]

    return _record_op("mul", out, [a, b], bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record_op("scale", a.data * c, [a], lambda g: [g * c])


def _sum_stack(g: np.ndarray, ndim: int) -> np.ndarray:
    """Gradient of a 2-D matmul operand that numpy broadcast over a stack."""
    return g.sum(axis=tuple(range(g.ndim - 2))) if g.ndim > ndim else g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. One operand may be a (..., m, n) stack; the other, 2-D
    one then multiplies every matrix of it, as numpy's @ broadcasts."""
    if min(a.data.ndim, b.data.ndim) != 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch("matmul", a.shape, b.shape)
    a_ndim, b_ndim = a.data.ndim, b.data.ndim
    # each operand's gradient reads only the other operand, transposed
    bt = np.swapaxes(b.data, -1, -2) if a.requires_grad else None
    at = np.swapaxes(a.data, -1, -2) if b.requires_grad else None

    def bw(g):
        ga = None if bt is None else _sum_stack(g @ bt, a_ndim)
        gb = None if at is None else _sum_stack(at @ g, b_ndim)
        return [ga, gb]

    return _record_op("matmul", a.data @ b.data, [a, b], bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient at 0 is 0
    return _record_op("relu", np.where(mask, a.data, 0.0), [a], lambda g: [g * mask])


def _row_shifts(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The kw horizontal shifts of x (c,h,w), zero-padded by kh//2 rows above
    and below, as (c*kw, (h+2*(kh//2))*w). Row (ci, j) holds x[ci] moved by
    j - kw//2 columns, so kernel row i of a same-padded correlation reads the
    contiguous window [i*w, i*w + h*w) of every row."""
    c, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    buf = np.zeros((c, kw, h + 2 * ph, w))
    for j in range(kw):
        s = j - pw
        n = w - abs(s)  # kernel columns wider than the image read only zeros
        if n > 0:
            dst, src = max(0, -s), max(0, s)
            buf[:, j, ph : ph + h, dst : dst + n] = x[:, :, src : src + n]
    return buf.reshape(c * kw, (h + 2 * ph) * w)


def _correlate(rows: np.ndarray, wrows: np.ndarray, h: int, w: int) -> np.ndarray:
    """Same-padded correlation from a _row_shifts buffer and the kernel's rows
    wrows (kh, cout, c*kw): the sum over i of wrows[i] @ window i, (cout, h*w).
    BLAS reads each window in place, as a matrix with leading dimension
    rows.shape[1]."""
    out = wrows[0] @ rows[:, : h * w]
    for i in range(1, len(wrows)):
        out += wrows[i] @ rows[:, i * w : i * w + h * w]
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Stride-1 zero-pad-same convolution of (cin,h,w) with (cout,cin,kh,kw).

    The input is lowered along its columns only: a _row_shifts buffer holds its
    kw horizontal shifts (3x the input for a 3-wide kernel, where an im2col
    patch matrix would be kh*kw = 9x), and kernel row i multiplies the window
    of that buffer shifted down by i rows, so the output is kh GEMMs on views.
    The input gradient is the same correlation of the output gradient with the
    kernel flipped in space and transposed in/out; the weight gradient for
    kernel row i is window i times the output gradient, read from the buffer
    the forward pass kept.
    """
    if x.data.ndim != 3 or weight.data.ndim != 4:
        raise ShapeMismatch("conv2d", x.shape, weight.shape)
    cout, cin, kh, kw = weight.shape
    if x.shape[0] != cin or kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatch("conv2d", x.shape, weight.shape)
    if bias is not None and bias.shape != (cout,):
        raise ShapeMismatch("conv2d bias", bias.shape, (cout,))
    _, h, w = x.shape
    rows = _row_shifts(x.data, kh, kw)
    wrows = weight.data.transpose(2, 0, 1, 3).reshape(kh, cout, cin * kw)
    out = _correlate(rows, wrows, h, w).reshape(cout, h, w)
    if bias is not None:
        out += bias.data[:, None, None]
    inputs = [x, weight] if bias is None else [x, weight, bias]
    # the input gradient reads the kernel and the weight gradient the row shifts
    kernel = weight.data if x.requires_grad else None
    kept_rows = rows if weight.requires_grad else None
    n_inputs = len(inputs)
    bias_needs = bias is not None and bias.requires_grad

    def bw(g):
        grads = [None] * n_inputs
        if kernel is not None:
            wflip = kernel[:, :, ::-1, ::-1].transpose(2, 1, 0, 3).reshape(kh, cin, cout * kw)
            grads[0] = _correlate(_row_shifts(g, kh, kw), wflip, h, w).reshape(cin, h, w)
        if kept_rows is not None:
            gt = g.reshape(cout, h * w).T
            gw = np.empty((kh, cin * kw, cout))
            for i in range(kh):
                np.matmul(kept_rows[:, i * w : i * w + h * w], gt, out=gw[i])
            gw = gw.reshape(kh, cin, kw, cout).transpose(3, 1, 0, 2)
            grads[1] = np.ascontiguousarray(gw)  # backward would copy a strided one
        if bias_needs:
            grads[2] = g.sum(axis=(1, 2))
        return grads

    return _record_op("conv2d", out, inputs, bw)


def _sum_2x2(a: np.ndarray) -> np.ndarray:
    """Sum of each 2x2 block of a (c, 2h, 2w) array, added in the order numpy
    uses for a.reshape(c, h, 2, w, 2).sum(axis=(2, 4)), so the bytes match:
    row pairs first, except that at width 2 a block is four contiguous
    elements, which numpy adds in sequence."""
    tl, tr, bl, br = a[:, 0::2, 0::2], a[:, 0::2, 1::2], a[:, 1::2, 0::2], a[:, 1::2, 1::2]
    if a.shape[2] == 2:
        return ((tl + tr) + bl) + br
    return (tl + tr) + (bl + br)


def avgpool2(x: Tensor) -> Tensor:
    if x.data.ndim != 3 or x.shape[1] % 2 or x.shape[2] % 2:
        raise ShapeMismatch("avgpool2", x.shape)
    out = _sum_2x2(x.data) / 4

    def bw(g):
        return [np.repeat(np.repeat(g, 2, axis=1), 2, axis=2) * 0.25]

    return _record_op("avgpool2", out, [x], bw)


def upsample2(x: Tensor) -> Tensor:
    if x.data.ndim != 3:
        raise ShapeMismatch("upsample2", x.shape)
    out = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

    def bw(g):
        return [_sum_2x2(g)]

    return _record_op("upsample2", out, [x], bw)


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise ShapeMismatch("concat-channels", ())
    hw = tensors[0].shape[1:]
    for t in tensors:
        if t.data.ndim < 3 or t.shape[1:] != hw:
            raise ShapeMismatch("concat-channels", *[t.shape for t in tensors])
    sizes = [t.shape[0] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=0)
    offsets = np.cumsum([0] + sizes)
    needs = [t.requires_grad for t in tensors]

    def bw(g):
        return [g[offsets[i] : offsets[i + 1]] if need else None
                for i, need in enumerate(needs)]

    return _record_op("concat-channels", out, list(tensors), bw)


def complex_mul_2ch(a: Tensor, b: Tensor) -> Tensor:
    """Complex product of 2-channel tensors, channel 0 real and channel 1
    imaginary: two (2, h, w) or two (2, coils, h, w) tensors, or a (2, h, w)
    operand broadcast over a (2, coils, h, w) stack, whose gradient is then
    summed over the coils."""
    if a.shape == b.shape:
        ok = a.data.ndim in (3, 4)
    else:
        short, full = sorted((a.shape, b.shape), key=len)
        ok = len(short) == 3 and len(full) == 4 and full[:1] + full[2:] == short
    if not ok or a.shape[0] != 2:
        raise ShapeMismatch("complex-mul-as-2ch", a.shape, b.shape)
    ar, ai = a.data[0], a.data[1]
    br, bi = b.data[0], b.data[1]
    out = np.stack([ar * br - ai * bi, ar * bi + ai * br])
    a_shape, b_shape = a.shape, b.shape
    # each operand's gradient reads only the other operand
    for_a = (br, bi) if a.requires_grad else None
    for_b = (ar, ai) if b.requires_grad else None

    def conj_mul(g, planes, shape):
        """g times the conjugate of `planes`, summed over the coils to `shape`."""
        (gr, gi), (pr, pi) = g, planes
        grad = np.stack([gr * pr + gi * pi, -gr * pi + gi * pr])
        return grad if grad.shape == shape else grad.sum(axis=1)

    def bw(g):
        return [None if for_a is None else conj_mul(g, for_a, a_shape),
                None if for_b is None else conj_mul(g, for_b, b_shape)]

    return _record_op("complex-mul-as-2ch", out, [a, b], bw)


def coil_sum(x: Tensor) -> Tensor:
    """Sum of a (2, coils, h, w) tensor over its coils, added in coil order
    (((c0 + c1) + c2) + ...), giving a (2, h, w) tensor."""
    if x.data.ndim != 4 or x.shape[0] != 2:
        raise ShapeMismatch("coil-sum", x.shape)
    out = x.data[:, 0].copy()
    for i in range(1, x.shape[1]):
        out += x.data[:, i]
    shape = x.shape

    def bw(g):
        return [np.broadcast_to(g[:, None], shape)]

    return _record_op("coil-sum", out, [x], bw)


def reduce_mean(x: Tensor) -> Tensor:
    n = x.data.size
    shape = x.data.shape

    def bw(g):
        return [np.full(shape, float(g) / n)]

    return _record_op("reduce-mean", np.asarray(x.data.mean()), [x], bw)


def ssim_loss(x: Tensor, target: Tensor, config: SsimConfig = SsimConfig()) -> Tensor:
    """1 - SSIM(x, target) as a scalar node; gradient flows into x only.

    The target is the reference image and is treated as a constant.
    """
    if target.requires_grad:
        raise ValueError("ssim-loss-node: target must not require grad")
    if x.shape != target.shape or x.data.ndim != 2:
        raise ShapeMismatch("ssim-loss-node", x.shape, target.shape)
    value, grad_x = ssim_and_grad(x.data, target.data, config)

    def bw(g):
        return [-float(g) * grad_x, None]

    return _record_op("ssim-loss-node", np.asarray(1.0 - value), [x, target], bw)


# Plumbing kinds used by the models to route channels; differentiated like the rest.


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return _record_op("reshape", x.data.reshape(shape), [x], lambda g: [g.reshape(old)])


def magnitude_2ch(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Pointwise complex magnitude of a (2,h,w) tensor."""
    if x.data.ndim != 3 or x.shape[0] != 2:
        raise ShapeMismatch("magnitude-2ch", x.shape)
    mag = np.sqrt(x.data[0] ** 2 + x.data[1] ** 2)

    def bw(g):
        denom = np.maximum(mag, eps)
        return [np.stack([g * x.data[0] / denom, g * x.data[1] / denom])]

    return _record_op("magnitude-2ch", mag, [x], bw)


# ---------------------------------------------------------------------------
# Gradient checking.
# ---------------------------------------------------------------------------


def grad_check(fn, params: Sequence[np.ndarray], h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients.

    `fn(leaves)` must deterministically map a list of leaf tensors to a scalar
    tensor. Returns 0.0 for a closure with no parameters.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    params = [np.asarray(p, dtype=np.float64) for p in params]
    if not params:
        return 0.0
    with Tape() as tape:
        leaves = [tape.leaf(p) for p in params]
        loss = fn(leaves)
        grads = backward(tape, loss)
    analytic = [grads[leaf.node_id].data for leaf in leaves]

    def eval_at(arrays) -> float:
        value = fn([Tensor(a) for a in arrays])
        return float(value.data)

    worst = 0.0
    for k, p in enumerate(params):
        for idx in np.ndindex(p.shape):
            plus = [q.copy() for q in params]
            minus = [q.copy() for q in params]
            plus[k][idx] += h
            minus[k][idx] -= h
            fd = (eval_at(plus) - eval_at(minus)) / (2.0 * h)
            a = float(analytic[k][idx])
            if not np.isfinite(fd) or not np.isfinite(a):
                raise FloatingPointError("non-finite value in gradient check")
            err = abs(a - fd) / max(1e-8, abs(fd))
            worst = max(worst, err)
    return worst
