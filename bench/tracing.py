"""Timing hooks and per-layer spans installed around shiftmri's public functions.

Nothing under src/ is edited. A wrapper replaces a function in every shiftmri
namespace that binds it (for example `autodiff` binds `metrics.ssim_and_grad`
and `cli` binds `fista.tune_lambda`); otherwise the callee's time would land
in its caller. `Recorder.installed()` restores every original on exit.

Two levels:
- end-to-end hooks (always on): one autodiff.Tape context per training step,
  the time inside learned.train, untaped model reconstructions, fista_l1
  solves and their objective traces;
- spans (traced runs only): name, start, end, parent and job id for each call
  of the functions in LAYERS, kept in flat arrays and written out at the end.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

perf = time.perf_counter

# The layers are shiftmri's modules; these are the public functions timed in each.
LAYERS = {
    "kspace": ["fft2c", "ifft2c", "apply_forward", "apply_adjoint", "sigma_for_snr",
               "zero_filled_rss", "ground_truth_rss", "simulate_sensitivities",
               "mask_for_batch", "mask_for_volume"],
    "autodiff": ["conv2d", "matmul", "complex_mul_2ch", "ssim_loss", "backward"],
    "metrics": ["ssim", "ssim_and_grad", "region_ssim", "extract_features", "nn_similarity"],
    "fista": ["fista_l1", "haar_dwt", "haar_idwt", "soft_threshold", "tune_lambda"],
    "learned": ["train", "evaluate_params", "infer", "tape_fft2c", "Checkpoint.save"],
    "data": ["generate", "simulate_measurements", "save", "load", "content_hash"],
    "toy": ["mse_table", "fit_linear", "mse_monte_carlo"],
    "harness": ["run_experiment", "emit_report"],
    "cli": ["main"],
}

# Span names besides "<module>.<function>": model reconstructions split by
# whether a tape is recording, and the backward closure of every tape node
# kind (autodiff.OP names).
RECONSTRUCT_SPANS = ("learned.reconstruct_train", "learned.reconstruct_infer")
BACKWARD_OPS = ("add", "mul", "scale", "matmul", "relu", "conv2d", "avgpool2", "upsample2",
                "concat-channels", "complex-mul-as-2ch", "reduce-mean", "ssim-loss-node",
                "reshape", "slice-channels", "magnitude-2ch")

FUNCTION_SPANS = tuple(f"{m}.{f}" for m, fns in LAYERS.items() for f in fns)
ALL_SPANS = FUNCTION_SPANS + RECONSTRUCT_SPANS + tuple(f"autodiff.bw.{op}" for op in BACKWARD_OPS)

MB = 1e6  # bytes per MB in every *.mb metric


def _shiftmri_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("shiftmri.") and m is not None]


class _Patcher:
    """Sets attributes and remembers the originals so they can be put back."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, fn, wrapper):
        """Rebind `fn` to `wrapper` in every shiftmri module that binds it."""
        for mod in _shiftmri_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.set(mod, attr, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Spans:
    """In-memory span store with per-name call counts, total and self time.

    Self time is a span's duration minus the time its child spans cover.
    Calls are strictly nested (one thread), so children never overlap.
    """

    def __init__(self, job_id: int = 0):
        self.job_id = job_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.depth: Counter = Counter()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]

    def enter(self, name: str) -> None:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.start))
        self._child.append(0.0)
        self.depth[name] += 1
        self.name.append(idx)
        self.end.append(0.0)
        self.start.append(perf())

    def exit(self) -> None:
        end = perf()
        sid = self._stack.pop()
        child = self._child.pop()
        self.end[sid] = end
        dur = end - self.start[sid]
        name = self.names[self.name[sid]]
        self.depth[name] -= 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._child:
            self._child[-1] += dur

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(args, kwargs, result)` runs once it returns."""
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {"job": self.job_id, "names": self.names, "name": list(self.name),
                "start": list(self.start), "end": list(self.end), "parent": list(self.parent)}


def _digest(arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Recorder:
    """Installs the hooks for one job; with `trace=True` also the spans."""

    def __init__(self, shiftmri, trace: bool, job_id: int = 0):
        self.sm = shiftmri
        self.trace = trace
        self.spans = Spans(job_id) if trace else None
        # end-to-end samples
        self.step_s: list[float] = []
        self.recon_s: list[float] = []
        self.train_s = 0.0
        self.train_steps = 0
        self.tape_nodes = 0
        self.fista_solves = 0
        self.fista_iterations = 0
        self.nonmonotone_traces = 0
        # traced-run counts
        self.fft_bytes = 0
        self.fista_forwards = 0
        self.checkpoint_bytes = 0
        self.io_bytes = 0
        self.simulate_calls = 0
        self.simulate_keys: set = set()
        self.eval_calls = 0
        self.eval_keys: set = set()
        self._pinned: dict[int, object] = {}  # keeps id()-keyed objects alive

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        patcher = _Patcher()
        try:
            if self.trace:
                self._install_spans(patcher)
            self._install_hooks(patcher)
            yield self
        finally:
            patcher.restore()

    def _install_hooks(self, p: _Patcher) -> None:
        sm = self.sm
        ad, learned, fista = sm.autodiff, sm.learned, sm.fista
        rec = self
        tape_enter, tape_exit = vars(ad.Tape)["__enter__"], vars(ad.Tape)["__exit__"]
        starts: list[float] = []

        def enter(tape):
            starts.append(perf())
            return tape_enter(tape)

        def exit_(tape, *exc):
            out = tape_exit(tape, *exc)
            rec.step_s.append(perf() - starts.pop())
            rec.tape_nodes += len(tape.nodes)
            return out

        p.set(ad.Tape, "__enter__", enter)
        p.set(ad.Tape, "__exit__", exit_)

        train = learned.train

        @functools.wraps(train)
        def timed_train(*args, **kwargs):
            steps0, t0 = len(rec.step_s), perf()
            try:
                return train(*args, **kwargs)
            finally:
                rec.train_s += perf() - t0
                rec.train_steps += len(rec.step_s) - steps0

        p.replace_everywhere(train, timed_train)

        for cls in (learned.UnetLite, learned.VarnetLite):
            p.set(cls, "reconstruct", self._timed_reconstruct(vars(cls)["reconstruct"]))

        solve = fista.fista_l1

        @functools.wraps(solve)
        def timed_solve(*args, **kwargs):
            t0 = perf()
            result = solve(*args, **kwargs)
            rec.recon_s.append(perf() - t0)
            rec.fista_solves += 1
            rec.fista_iterations += result.iterations_run
            tr = result.objective_trace
            if any(b > a for a, b in zip(tr, tr[1:])):
                rec.nonmonotone_traces += 1
            return result

        p.replace_everywhere(solve, timed_solve)

    def _timed_reconstruct(self, method):
        active_tape = self.sm.autodiff._active_tape
        rec = self

        @functools.wraps(method)
        def reconstruct(model, *args, **kwargs):
            if active_tape() is not None:
                return method(model, *args, **kwargs)
            t0 = perf()
            out = method(model, *args, **kwargs)
            rec.recon_s.append(perf() - t0)
            return out

        return reconstruct

    def _install_spans(self, p: _Patcher) -> None:
        sm, spans = self.sm, self.spans
        after = {
            "kspace.fft2c": self._after_fft,
            "kspace.ifft2c": self._after_fft,
            "kspace.apply_forward": self._after_forward,
            "learned.Checkpoint.save": self._after_checkpoint_save,
            "data.simulate_measurements": self._after_simulate,
            "learned.evaluate_params": self._after_evaluate,
            "data.save": functools.partial(self._after_io, "data.save"),
            "data.load": functools.partial(self._after_io, "data.load"),
        }
        self._signatures = {}  # for reading arguments by name in the `after` hooks
        for name in ("data.simulate_measurements", "data.save", "data.load",
                     "learned.evaluate_params"):
            module, fn = name.split(".")
            self._signatures[name] = inspect.signature(getattr(getattr(sm, module), fn))
        for module, fns in LAYERS.items():
            mod = getattr(sm, module)
            for fn_name in fns:
                name = f"{module}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    p.set(cls, meth, spans.wrap(name, vars(cls)[meth], after.get(name)))
                    continue
                fn = getattr(mod, fn_name)
                inner = self._backward_by_op(fn) if name == "autodiff.backward" else fn
                p.replace_everywhere(fn, spans.wrap(name, inner, after.get(name)))

        for cls in (sm.learned.UnetLite, sm.learned.VarnetLite):
            p.set(cls, "reconstruct", self._spanned_reconstruct(vars(cls)["reconstruct"]))

    def _backward_by_op(self, backward):
        """Wraps each recorded node's backward closure just before the sweep."""

        @functools.wraps(backward)
        def backward_by_op(tape, loss):
            for node in tape.nodes:
                if node.backward_fn is not None:
                    node.backward_fn = self._spanned_closure(f"autodiff.bw.{node.op}",
                                                             node.backward_fn)
            return backward(tape, loss)

        return backward_by_op

    def _spanned_reconstruct(self, method):
        active_tape, spans = self.sm.autodiff._active_tape, self.spans

        @functools.wraps(method)
        def reconstruct(model, *args, **kwargs):
            spans.enter(RECONSTRUCT_SPANS[0] if active_tape() is not None
                        else RECONSTRUCT_SPANS[1])
            try:
                return method(model, *args, **kwargs)
            finally:
                spans.exit()

        return reconstruct

    def _spanned_closure(self, name, fn):
        # lighter than Spans.wrap: one is made for every node of every tape
        spans = self.spans

        def closure(g):
            spans.enter(name)
            try:
                return fn(g)
            finally:
                spans.exit()

        return closure

    # -- counters read at layer boundaries ---------------------------------

    def _after_fft(self, args, kwargs, result):
        # bytes computed from array sizes: complex128 input read plus output written
        self.fft_bytes += 2 * 16 * result.size

    def _after_forward(self, args, kwargs, result):
        if self.spans.depth["fista.fista_l1"]:
            self.fista_forwards += 1

    def _after_checkpoint_save(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.checkpoint_bytes += os.path.getsize(path)

    def _bind(self, name, args, kwargs) -> dict:
        bound = self._signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _after_io(self, name, args, kwargs, result):
        self.io_bytes += _dir_bytes(self._bind(name, args, kwargs)["path"])

    def _after_simulate(self, args, kwargs, result):
        bound = self._bind("data.simulate_measurements", args, kwargs)
        item, mask = bound["item"], bound["mask"]
        self._pinned[id(item)] = item
        self.simulate_calls += 1
        self.simulate_keys.add((id(item), mask.sampled.tobytes(), int(bound["noise_seed"])))

    def _after_evaluate(self, args, kwargs, result):
        bound = self._bind("learned.evaluate_params", args, kwargs)
        dataset = bound["dataset"]
        self._pinned[id(dataset)] = dataset
        self.eval_calls += 1
        self.eval_keys.add((_digest(bound["params"]), id(dataset), int(bound["mask_seed"]),
                            float(bound["acceleration"])))

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of a traced job as name -> (value, unit): calls and
        self time per span name, plus the derived counts. A ratio whose base
        is zero reads 0."""
        stats = self.spans.stats
        out: dict[str, tuple[float, str]] = {}
        # op kinds missing from BACKWARD_OPS (a new autodiff op) still show up
        seen = sorted(n for n in stats if n not in ALL_SPANS and not n.startswith("job."))
        for name in ALL_SPANS + tuple(seen):
            calls, _, self_s = stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")

        def ratio(a, b):
            return a / b if b else 0.0

        fft_calls = stats.get("kspace.fft2c", [0])[0] + stats.get("kspace.ifft2c", [0])[0]
        fft_s = out["kspace.fft2c.self_s"][0] + out["kspace.ifft2c.self_s"][0]
        out.update({
            "kspace.fft.us_per_call": (1e6 * ratio(fft_s, fft_calls), "us"),
            "kspace.fft.mb_computed": (self.fft_bytes / MB, "MB"),
            "autodiff.tape_nodes_per_step": (ratio(self.tape_nodes, len(self.step_s)),
                                             "count/step"),
            "fista.iterations_per_solve": (ratio(self.fista_iterations, self.fista_solves),
                                           "count/solve"),
            "fista.forward_per_iteration": (ratio(self.fista_forwards, self.fista_iterations),
                                            "count/iter"),
            "learned.checkpoint.mb_written": (self.checkpoint_bytes / MB, "MB"),
            "learned.eval_distinct_ratio": (ratio(len(self.eval_keys), self.eval_calls), "ratio"),
            "data.simulate_distinct_ratio": (ratio(len(self.simulate_keys), self.simulate_calls),
                                             "ratio"),
            "data.io.mb": (self.io_bytes / MB, "MB"),
        })
        return out


def check_spans(spans_json: dict, wall_s: float) -> list[str]:
    """Problems with a span dump: a self time above its total or below zero, or
    a top-level span set that does not cover the traced wall time."""
    start, end, parent = spans_json["start"], spans_json["end"], spans_json["parent"]
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    problems = []
    for i in range(len(start)):
        total = end[i] - start[i]
        self_s = total - child[i]
        if total < 0 or self_s < -1e-9 or self_s > total + 1e-12:
            problems.append(f"span {i} ({spans_json['names'][spans_json['name'][i]]}): "
                            f"self {self_s} total {total}")
            break
    top = sum(end[i] - start[i] for i, p in enumerate(parent) if p < 0)
    if not (0.999 * wall_s - 1e-3 <= top <= wall_s + 1e-6):
        problems.append(f"top-level spans cover {top} s of {wall_s} s traced wall time")
    return problems
