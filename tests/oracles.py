"""Independent reference implementations used to check the optimized paths.

Everything here is written directly from the mathematical definitions with
plain loops, no shared code with the package internals. Two exceptions keep
a former package path as the reference for the one that replaced it: the
per-coil VarNet unroll is built from the autodiff ops so that its gradients
can be compared with the coil-batched model's, the full k-space FISTA
loop runs on the package's full k-space operators and Haar transform,
the toy MSE table is scored on whole arrays with the package's estimators,
the DFT matrices are the package's centered FFT of an identity, and the
optimizer steps and clips one array per layer. The per-coil unroll's one op
that no model records, `slice_channels`, lives here as a tape op.
"""

import numpy as np

import shiftmri.autodiff as ad
from shiftmri import fista, kspace, toy


def ssim_reference(x, y, window=7, k1=0.01, k2=0.03, data_range=None):
    """Direct sliding-window SSIM: per-window means/variances via np on the crop."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if data_range is None:
        data_range = float(np.max(y))
    if data_range <= 0:
        data_range = 1.0
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    h, w = x.shape
    n = window * window
    vals = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            a = x[i : i + window, j : j + window].ravel()
            b = y[i : i + window, j : j + window].ravel()
            ma, mb = a.mean(), b.mean()
            # unbiased sample variance/covariance
            va = ((a - ma) ** 2).sum() / (n - 1)
            vb = ((b - mb) ** 2).sum() / (n - 1)
            cab = ((a - ma) * (b - mb)).sum() / (n - 1)
            vals.append(((2 * ma * mb + c1) * (2 * cab + c2))
                        / ((ma * ma + mb * mb + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def unit_sensitivities(height, width, coils=1):
    """Flat coil maps with sum_i |S_i|^2 = 1."""
    return np.full((coils, height, width), 1.0 / np.sqrt(coils), dtype=np.complex128)


def box_sums_reference(img, k):
    """Sum of every valid k-by-k window of a 2D image: one shifted slice of
    the image added per window offset, k*k adds."""
    h, w = img.shape
    out = np.zeros((h - k + 1, w - k + 1))
    for di in range(k):
        for dj in range(k):
            out += img[di : di + h - k + 1, dj : dj + w - k + 1]
    return out


def spread_reference(field, k, shape):
    """Adjoint of box_sums_reference: each window value added onto its k*k
    pixels, one shifted slice per window offset."""
    h, w = shape
    out = np.zeros(shape)
    for di in range(k):
        for dj in range(k):
            out[di : di + h - k + 1, dj : dj + w - k + 1] += field
    return out


def laplacian_score_reference(recon, target):
    """Elementwise 5-point Laplacian of abs(target - recon), then variance."""
    d = np.abs(np.asarray(target, float) - np.asarray(recon, float))
    h, w = d.shape
    vals = []
    for i in range(1, h - 1):
        for j in range(1, w - 1):
            vals.append(d[i - 1, j] + d[i + 1, j] + d[i, j - 1] + d[i, j + 1] - 4 * d[i, j])
    vals = np.array(vals)
    return float(np.mean((vals - vals.mean()) ** 2))


def mask_counts_reference(sampled):
    """(total, acs run length, acs start) by direct scan of the boolean mask."""
    sampled = np.asarray(sampled, dtype=bool)
    total = int(sampled.sum())
    w = len(sampled)
    center = w // 2
    if not sampled[center]:
        return total, 0, -1
    lo = center
    while lo > 0 and sampled[lo - 1]:
        lo -= 1
    hi = center
    while hi < w - 1 and sampled[hi + 1]:
        hi += 1
    return total, hi - lo + 1, lo


def centered_idft_reference(f):
    """1D centered unitary inverse DFT by the explicit formula (even length)."""
    f = np.asarray(f, dtype=np.complex128)
    n = len(f)
    c = n // 2
    out = np.zeros(n, dtype=np.complex128)
    for m in range(n):
        acc = 0.0j
        for k in range(n):
            acc += f[k] * np.exp(2j * np.pi * (k - c) * (m - c) / n)
        out[m] = acc / np.sqrt(n)
    return out


def overfit_scan_reference(id_trace, ood_trace, window, eps, delta):
    """Direct scan restating the overfitting rule."""
    n = len(id_trace)
    peak = 0
    for e in range(n):
        if ood_trace[e] > ood_trace[peak]:
            peak = e
    stop = n - 1
    for e in range(window, n):
        if id_trace[e] - id_trace[e - window] < eps:
            stop = e
            break
    drop = ood_trace[peak] - ood_trace[-1]
    gain = id_trace[stop] - id_trace[stop - window]
    return peak, stop, gain, drop, drop > delta


def ols_reference(points):
    """Normal-equation OLS on (x, y) pairs."""
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef = np.linalg.solve(a.T @ a, a.T @ ys)
    return float(coef[0]), float(coef[1])


def slice_channels(x, lo, hi):
    """Channels lo:hi of a (c, ...) tensor, recorded as tape op "slice-channels"."""
    if x.data.ndim < 3 or not (0 <= lo < hi <= x.shape[0]):
        raise ad.ShapeMismatch("slice-channels", x.shape, (lo, hi))
    shape = x.shape

    def bw(g):
        full = np.zeros(shape)
        full[lo:hi] = g
        return [full]

    return ad._record_op("slice-channels", x.data[lo:hi].copy(), [x], bw)


def _centered_dft_pair(n, inverse):
    """Real and imaginary parts of the centered unitary DFT matrix, as
    constant tensors; column j is the transform of the j-th unit vector."""
    eye = np.fft.ifftshift(np.eye(n, dtype=np.complex128), axes=0)
    m = (np.fft.ifft if inverse else np.fft.fft)(eye, axis=0, norm="ortho")
    m = np.fft.fftshift(m, axes=0)
    return ad.Tensor(m.real), ad.Tensor(m.imag)


def _fft2c_per_plane(x, inverse=False):
    """Centered 2D DFT of one (2, h, w) tensor: F_h X F_w^T in real arithmetic."""
    h, w = x.shape[1:]
    fr_h, fi_h = _centered_dft_pair(h, inverse)
    fr_w, fi_w = _centered_dft_pair(w, inverse)
    frt, fit = ad.Tensor(fr_w.data.T), ad.Tensor(fi_w.data.T)
    xr = ad.reshape(slice_channels(x, 0, 1), (h, w))
    xi = ad.reshape(slice_channels(x, 1, 2), (h, w))
    r1 = ad.add(ad.matmul(fr_h, xr), ad.scale(ad.matmul(fi_h, xi), -1.0))
    i1 = ad.add(ad.matmul(fr_h, xi), ad.matmul(fi_h, xr))
    re = ad.add(ad.matmul(r1, frt), ad.scale(ad.matmul(i1, fit), -1.0))
    im = ad.add(ad.matmul(r1, fit), ad.matmul(i1, frt))
    return ad.concat_channels([ad.reshape(re, (1, h, w)), ad.reshape(im, (1, h, w))])


def varnet_per_coil_reference(config, params, y, sens, mask):
    """VarnetLite.reconstruct with one data-consistency graph per coil: each
    cascade loops over the coils and adds their A^H(A x - y) terms in coil
    order, then applies the same denoiser and update. The first image A^H y
    is formed as VarnetLite forms it, through a HybridEncoding, so the two
    differ only in the data-consistency graph."""
    coils, h, w = y.shape

    def as2ch(z):
        return np.stack([np.real(z), np.imag(z)])

    y2 = [ad.Tensor(as2ch(y[i])) for i in range(coils)]
    s2 = [ad.Tensor(as2ch(sens[i])) for i in range(coils)]
    sc2 = [ad.Tensor(as2ch(np.conj(sens[i]))) for i in range(coils)]
    mask2 = ad.Tensor(np.broadcast_to(mask.sampled.astype(np.float64), (2, h, w)).copy())
    op = kspace.HybridEncoding(sens, mask, y)
    x = ad.Tensor(as2ch(kspace.apply_adjoint(op.y_h, op)))
    p = iter(params)
    for _ in range(config.cascades):
        eta = next(p)
        adj = None
        for i in range(coils):
            k = _fft2c_per_plane(ad.complex_mul_2ch(s2[i], x))
            resid = ad.add(ad.mul(mask2, k), ad.scale(y2[i], -1.0))
            back = ad.complex_mul_2ch(sc2[i], _fft2c_per_plane(ad.mul(mask2, resid), True))
            adj = back if adj is None else ad.add(adj, back)
        dc = ad.mul(eta, adj)
        d = ad.relu(ad.conv2d(x, next(p), next(p)))
        d = ad.relu(ad.conv2d(d, next(p), next(p)))
        d = ad.conv2d(d, next(p), next(p))
        x = ad.add(x, ad.scale(ad.add(dc, d), -1.0))
    return ad.magnitude_2ch(x)


# conv2d's former lowering: every kernel tap's shifted copy of x, a (cin*kh*kw,
# h*w) patch matrix. Its forward was wmat @ cols plus the bias, its weight
# gradient gmat @ cols.T and its input gradient wflip @ _im2col(g, kh, kw).
def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Zero-padded same-size patches of x (cin,h,w) as (cin*kh*kw, h*w)."""
    cin, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((cin, h + 2 * ph, w + 2 * pw))
    xp[:, ph : ph + h, pw : pw + w] = x
    cols = np.empty((cin, kh, kw, h, w))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + h, j : j + w]
    return cols.reshape(cin * kh * kw, h * w)


# conv2d's former input gradient is _col2im(wmat.T @ gmat, ...), with wmat the
# (cout, cin*kh*kw) kernel matrix and gmat the (cout, h*w) output gradient:
# each patch row of the gradient columns is added back where im2col read it.
def _col2im(cols: np.ndarray, cin: int, kh: int, kw: int, h: int, w: int) -> np.ndarray:
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((cin, h + 2 * ph, w + 2 * pw))
    cols = cols.reshape(cin, kh, kw, h, w)
    for i in range(kh):
        for j in range(kw):
            xp[:, i : i + h, j : j + w] += cols[:, i, j]
    return xp[:, ph : ph + h, pw : pw + w]


# The hybrid operator's former FFT passes, in HybridEncoding's layout (rows
# and sampled columns in centered order): B x as a row FFT of every coil
# image then a gather of the sampled columns, and B^H r as a scatter into
# zeroed k-space, an inverse row FFT and a coil sum in coil order.
def hybrid_fft_reference(sens, mask):
    sens = np.asarray(sens, dtype=np.complex128)
    cols = np.flatnonzero(mask.sampled)

    def row_pass(k, transform):
        k = transform(np.fft.ifftshift(k, axes=-1), axis=-1, norm="ortho")
        return np.fft.fftshift(k, axes=-1)

    def forward(x):
        return row_pass(sens * x, np.fft.fft)[..., cols]

    def adjoint(r):
        k = np.zeros(sens.shape, dtype=np.complex128)
        k[..., cols] = r
        k = row_pass(k, np.fft.ifft)
        out = np.zeros(sens.shape[1:], dtype=np.complex128)
        for i in range(len(sens)):
            out += np.conj(sens[i]) * k[i]
        return out

    return forward, adjoint


# The DFT constants as built before kspace.dft_matrix: the centered FFT of an
# identity, along its rows for HybridEncoding's sampled columns and their
# conjugate transpose, and along its columns for the tape DFT's real factors
# (Re F_h, Im F_h, Re F_w^T, Im F_w^T).
def hybrid_dft_reference(width, cols):
    dft = kspace.fft1c(np.eye(width), -1)[:, cols]
    return dft, np.ascontiguousarray(np.conj(dft).T)


def tape_dft_reference(h, w, inverse):
    dft1c = kspace.ifft1c if inverse else kspace.fft1c
    fh, fw = (dft1c(np.eye(n, dtype=np.complex128), 0) for n in (h, w))
    return fh.real, fh.imag, fw.T.real, fw.T.imag


# fista's former Haar transform: each level divides by sqrt(2) and joins its
# subbands with concatenate, on a copy of the whole input.
def _haar_step_reference(block):
    lo_r = (block[0::2] + block[1::2]) / np.sqrt(2.0)
    hi_r = (block[0::2] - block[1::2]) / np.sqrt(2.0)
    rows = np.concatenate([lo_r, hi_r], axis=0)
    lo_c = (rows[:, 0::2] + rows[:, 1::2]) / np.sqrt(2.0)
    hi_c = (rows[:, 0::2] - rows[:, 1::2]) / np.sqrt(2.0)
    return np.concatenate([lo_c, hi_c], axis=1)


def _haar_step_inv_reference(block):
    h, w = block.shape
    lo_c, hi_c = block[:, : w // 2], block[:, w // 2 :]
    rows = np.empty_like(block)
    rows[:, 0::2] = (lo_c + hi_c) / np.sqrt(2.0)
    rows[:, 1::2] = (lo_c - hi_c) / np.sqrt(2.0)
    lo_r, hi_r = rows[: h // 2], rows[h // 2 :]
    out = np.empty_like(block)
    out[0::2] = (lo_r + hi_r) / np.sqrt(2.0)
    out[1::2] = (lo_r - hi_r) / np.sqrt(2.0)
    return out


def haar_dwt_reference(image, levels):
    out = np.array(image, dtype=np.complex128)
    h, w = out.shape
    for _ in range(levels):
        out[:h, :w] = _haar_step_reference(out[:h, :w])
        h, w = h // 2, w // 2
    return out


def haar_idwt_reference(coeffs, levels):
    out = np.array(coeffs, dtype=np.complex128)
    for k in reversed(range(levels)):
        h, w = out.shape[0] >> k, out.shape[1] >> k
        out[:h, :w] = _haar_step_inv_reference(out[:h, :w])
    return out


# fista_l1's former loop: the data term on full k-space through the Encoding
# operators, and the objective with a DWT of its own on every call.
def _objective_full_kspace(x, y, enc, lam, levels) -> float:
    data = 0.5 * float(np.sum(np.abs(kspace.apply_forward(x, enc) - y) ** 2))
    reg = lam * float(np.sum(np.abs(fista.haar_dwt(x, levels)))) if lam > 0 else 0.0
    return data + reg


def fista_full_kspace_reference(y, sens, mask, config) -> fista.FistaResult:
    step, lam, levels = fista.STEP_SIZE, config.lam, fista.WAVELET_LEVELS
    enc = kspace.Encoding(sens, mask)

    def grad(x):
        return kspace.apply_adjoint(kspace.apply_forward(x, enc) - y, enc)

    def prox_step(z):
        w = fista.haar_dwt(z - step * grad(z), levels)
        if lam > 0:
            w = fista.soft_threshold(w, lam * step)
        return fista.haar_idwt(w, levels)

    x = kspace.apply_adjoint(y, enc)
    momentum = x.copy()
    t = 1.0
    obj = _objective_full_kspace(x, y, enc, lam, levels)
    trace = []
    restarts = 0
    for it in range(config.max_iters):
        candidate = prox_step(momentum)
        cand_obj = _objective_full_kspace(candidate, y, enc, lam, levels)
        if cand_obj > obj:
            restarts += 1
            t = 1.0
            candidate = prox_step(x)
            cand_obj = _objective_full_kspace(candidate, y, enc, lam, levels)
        if not np.isfinite(cand_obj):
            raise FloatingPointError(f"non-finite objective at iteration {it}")
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = candidate + ((t - 1.0) / t_next) * (candidate - x)
        x, t = candidate, t_next
        trace.append(cand_obj)
        rel_change = abs(obj - cand_obj) / max(abs(obj), 1e-300)
        obj = cand_obj
        if rel_change < fista.TOLERANCE:
            break
    return fista.FistaResult(x, trace, len(trace), restarts, rel_change)


# The toy problem's former whole-array draw and scoring: every sample of a
# distribution is held as one (count, n) array while each estimator runs.
def toy_sample_reference(world, which, count, rng):
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


def toy_mse_reference(estimator, x, y):
    xhat = y @ estimator.T if isinstance(estimator, np.ndarray) else estimator(y)
    per_sample = np.sum((xhat - x) ** 2, axis=1)
    return float(per_sample.mean()), float(per_sample.std(ddof=1) / np.sqrt(len(x)))


def toy_mse_table_reference(world, count, seed):
    w_pool = toy.fit_linear(world, "mixture")
    results = {}
    for which in ("P", "Q"):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA7B, ord(which)]))
        x, y = toy_sample_reference(world, which, count, rng)
        pooled, pooled_se = toy_mse_reference(w_pool, x, y)
        spec, spec_se = toy_mse_reference(toy.fit_linear(world, which), x, y)
        nonlin, nonlin_se = toy_mse_reference(lambda v: toy.estimate_nonlinear(world, v), x, y)
        results[which] = {
            "specialist_linear": spec,
            "specialist_linear_se": spec_se,
            "pooled_linear": pooled,
            "pooled_linear_se": pooled_se,
            "adaptive_nonlinear": nonlin,
            "adaptive_nonlinear_se": nonlin_se,
        }
    return results


def global_norm_reference(grads):
    return np.sqrt(sum(float(np.sum(g * g)) for g in grads))


def clip_reference(grads, clip_norm, total):
    """Per-layer gradients, whose global norm is `total`, scaled down to clip_norm."""
    if total > clip_norm:
        factor = clip_norm / total
        return [g * factor for g in grads]
    return grads


class OptimizerReference:
    """Adam, stepping each layer's array on its own."""

    def __init__(self, shapes, beta1, beta2):
        self.beta1, self.beta2 = beta1, beta2
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, g in enumerate(grads):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1**self.t)
            vhat = self.v[i] / (1 - b2**self.t)
            params[i] = params[i] - lr * mhat / (np.sqrt(vhat) + 1e-8)
