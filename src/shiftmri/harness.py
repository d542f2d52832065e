"""Config-driven experiment templates, overfitting detection, report emission.

Every template is a pure function of (config, seed): datasets are generated
from their specs, models are trained with explicit seeds, and the emitted
report files are byte-stable under reruns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data as datamod
from . import kspace, learned, metrics


@dataclass
class EvalRecord:
    model_id: str
    sources: str
    epoch: int
    test_set: str
    metric: str
    value: float
    mask_seed: int
    flags: str = ""


CSV_HEADER = "model_id,sources,epoch,test_set,metric,value,mask_seed,flags"


@dataclass
class OverfitVerdict:
    peak_epoch: int
    stop_epoch: int
    id_gain_over_window: float
    ood_drop_from_peak: float
    detected: bool

    def to_dict(self) -> dict:
        return {
            "peak_epoch": self.peak_epoch,
            "stop_epoch": self.stop_epoch,
            "id_gain_over_window": self.id_gain_over_window,
            "ood_drop_from_peak": self.ood_drop_from_peak,
            "detected": self.detected,
        }


def detect_distributional_overfitting(id_trace, ood_trace, window: int = 3,
                                      marginal_eps: float = 1e-3,
                                      drop_delta: float = 0.0) -> OverfitVerdict:
    """Scan per-epoch traces for the late-training regime where the
    out-of-distribution metric falls off its peak while the in-distribution
    metric only inches forward.

    The recommended stop is the first epoch whose trailing-window
    in-distribution gain falls below marginal_eps (the last epoch if none).
    """
    id_trace = np.asarray(id_trace, dtype=np.float64)
    ood_trace = np.asarray(ood_trace, dtype=np.float64)
    if id_trace.shape != ood_trace.shape:
        raise ValueError("trace length mismatch")
    if id_trace.size < window + 1:
        raise ValueError(f"need at least window+1={window + 1} epochs")
    peak = int(np.argmax(ood_trace))
    stop = id_trace.size - 1
    for e in range(window, id_trace.size):
        if id_trace[e] - id_trace[e - window] < marginal_eps:
            stop = e
            break
    drop = float(ood_trace[peak] - ood_trace[-1])
    gain = float(id_trace[stop] - id_trace[stop - window])
    return OverfitVerdict(peak, stop, gain, drop, drop > drop_delta)


# ---------------------------------------------------------------------------
# Experiment configuration.
# ---------------------------------------------------------------------------

TEMPLATES = (
    "joint_vs_separate", "skewed", "diversity_robustness", "pathology",
    "accel_combo", "coil_shift", "overfit_monitor", "finetune_ablation",
)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    template: str
    seed: int
    model: learned.ModelConfig
    train: learned.TrainConfig
    distributions: dict[str, datamod.DistributionSpec] = field(default_factory=dict)
    sources: list[datamod.DistributionSpec] = field(default_factory=list)
    target: datamod.DistributionSpec | None = None
    train_count: int = 16
    test_count: int = 8
    seeds: list[int] = field(default_factory=list)  # multi-seed band runs
    accelerations: list[float] = field(default_factory=lambda: [4.0])
    unseen_acceleration: float | None = None
    skew_factor: float = 10.0
    lesion_amplitude: float = 0.4
    overfit_window: int = 3
    overfit_eps: float = 1e-3
    overfit_delta: float = 0.0
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        # the overfitting scan needs window + 1 epochs; fail before training
        if self.template == "overfit_monitor" and self.train.epochs < self.overfit_window + 1:
            raise ConfigError(f"overfit_monitor needs train.epochs >= overfit_window + 1 = "
                              f"{self.overfit_window + 1}, got {self.train.epochs}")
        # pathology puts scoreable (SCOREABLE_MIN_SIDE) small-class lesions into Q,
        # which defaults to P; fail before any data is generated
        if self.template == "pathology":
            for key, spec in self.distributions.items():
                if key in ("P", "Q") and not datamod.small_lesion_fits(*spec.extents):
                    raise ConfigError(f"pathology distribution {key!r} extents "
                                      f"{spec.extents[0]}x{spec.extents[1]} are too small "
                                      f"for a small-class lesion (need height * width >= "
                                      f"{100 * datamod.SCOREABLE_MIN_SIDE ** 2})")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        try:
            template = d["template"]
            if template not in TEMPLATES:
                raise ConfigError(f"unknown template {template!r}; valid: {TEMPLATES}")
            if "seed" not in d:
                raise ConfigError("seed must be explicit")
            model = learned.ModelConfig.from_dict(d.get("model", {}))
            train = learned.TrainConfig.from_dict(d.get("train", {}))
            dists = {k: datamod.DistributionSpec.from_dict(v)
                     for k, v in d.get("distributions", {}).items()}
            sources = [datamod.DistributionSpec.from_dict(v) for v in d.get("sources", [])]
            target = (datamod.DistributionSpec.from_dict(d["target"])
                      if "target" in d else None)
            return ExperimentConfig(
                template=template,
                seed=int(d["seed"]),
                model=model,
                train=train,
                distributions=dists,
                sources=sources,
                target=target,
                train_count=int(d.get("train_count", 16)),
                test_count=int(d.get("test_count", 8)),
                seeds=[int(s) for s in d.get("seeds", [])],
                accelerations=[float(a) for a in d.get("accelerations", [4.0])],
                unseen_acceleration=(float(d["unseen_acceleration"])
                                     if d.get("unseen_acceleration") is not None else None),
                skew_factor=float(d.get("skew_factor", 10.0)),
                lesion_amplitude=float(d.get("lesion_amplitude", 0.4)),
                overfit_window=int(d.get("overfit_window", 3)),
                overfit_eps=float(d.get("overfit_eps", 1e-3)),
                overfit_delta=float(d.get("overfit_delta", 0.0)),
                raw=d,
            )
        except (KeyError, TypeError, ValueError) as e:
            if isinstance(e, ConfigError):
                raise
            raise ConfigError(str(e)) from e

    def canonical_json(self) -> str:
        d = {k: v for k, v in self.raw.items() if k != "out"}
        return json.dumps(d, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Shared plumbing.
# ---------------------------------------------------------------------------


def _dist(cfg: ExperimentConfig, key: str) -> datamod.DistributionSpec:
    if key not in cfg.distributions:
        raise ConfigError(f"template {cfg.template!r} needs distribution {key!r}")
    return cfg.distributions[key]


def _seeded(spec: datamod.DistributionSpec, seed: int) -> datamod.DistributionSpec:
    return replace(spec, seed=spec.seed + 1_000_003 * seed)


def _train_model(cfg: ExperimentConfig, train_set, seed: int, **train_overrides):
    tc = replace(cfg.train, seed=seed, **train_overrides)
    mc = replace(cfg.model, seed=seed)
    return learned.train(mc, train_set, tc)


def _eval_records(cfg: ExperimentConfig, model_id: str, sources: str,
                  checkpoint: learned.Checkpoint, test_sets: dict[str, datamod.Dataset],
                  mask_seed: int, normalize: bool = False,
                  acceleration: float | None = None) -> list[EvalRecord]:
    """One record per test set, at `acceleration` or else the training one."""
    if acceleration is None:
        acceleration = cfg.train.acceleration
    records = []
    for name, ds in test_sets.items():
        mean, _, fallback = learned.evaluate_checkpoint(
            checkpoint, ds, mask_seed, acceleration, cfg.train.center_fraction,
            normalize=normalize)
        flags = "normalize_fallback" if fallback else ("normalized" if normalize else "")
        records.append(EvalRecord(model_id, sources, checkpoint.epoch, name,
                                  "ssim", mean, mask_seed, flags))
    return records


def _save_checkpoints(outdir: Path, model_id: str, checkpoints) -> None:
    safe = model_id.replace("/", "_").replace(":", "_").replace("+", "u").replace(" ", "")
    d = outdir / "checkpoints" / safe
    d.mkdir(parents=True, exist_ok=True)
    for ck in checkpoints:
        ck.save(d / f"epoch_{ck.epoch:03d}.ckpt")


# ---------------------------------------------------------------------------
# Templates.
# ---------------------------------------------------------------------------


def _tpl_joint_vs_separate(cfg: ExperimentConfig, outdir: Path):
    p_spec, q_spec = _dist(cfg, "P"), _dist(cfg, "Q")
    seeds = cfg.seeds or [cfg.seed]
    records: list[EvalRecord] = []
    cells: dict[tuple[str, str], list[float]] = {}
    for seed in seeds:
        train_p, test_p = datamod.train_test(_seeded(p_spec, seed), cfg.train_count, cfg.test_count)
        train_q, test_q = datamod.train_test(_seeded(q_spec, seed), cfg.train_count, cfg.test_count)
        union = datamod.combine([train_p, train_q])
        half = datamod.subsample(union, 0.5, kspace.rng_from(seed, 0x4A1F))
        tests = {"P-test": test_p, "Q-test": test_q}
        for model_id, train_set in (("P", train_p), ("Q", train_q),
                                    ("P+Q", union), ("P+Q-half", half)):
            cks, _ = _train_model(cfg, train_set, seed)
            _save_checkpoints(outdir, f"{model_id}-s{seed}", cks)
            recs = _eval_records(cfg, model_id, train_set.name, cks[-1], tests, seed)
            records.extend(recs)
            for r in recs:
                cells.setdefault((model_id, r.test_set), []).append(r.value)
    bands = {
        f"{mid}|{ts}": {
            "mean": float(np.mean(vs)),
            "std": float(np.std(vs, ddof=1)) if len(vs) > 1 else 0.0,
            "band": [float(np.mean(vs) - 2 * np.std(vs, ddof=1)) if len(vs) > 1 else float(np.mean(vs)),
                     float(np.mean(vs) + 2 * np.std(vs, ddof=1)) if len(vs) > 1 else float(np.mean(vs))],
            "values": [float(v) for v in vs],
        }
        for (mid, ts), vs in sorted(cells.items())
    }
    return records, {}, {"seed_bands": bands, "n_seeds": len(seeds)}


def _tpl_skewed(cfg: ExperimentConfig, outdir: Path):
    p_spec, q_spec = _dist(cfg, "P"), _dist(cfg, "Q")
    pool_p, test_p = datamod.train_test(p_spec, cfg.train_count, cfg.test_count)
    train_q, test_q = datamod.train_test(q_spec, cfg.train_count, cfg.test_count)
    _, small_p = datamod.skew(pool_p, cfg.skew_factor, cfg.seed)
    joint = datamod.combine([small_p, train_q])
    tests = {"P-test": test_p, "Q-test": test_q}
    records = []
    for model_id, train_set in (("P-small", small_p), ("Q", train_q), ("P+Q", joint)):
        cks, _ = _train_model(cfg, train_set, cfg.seed)
        _save_checkpoints(outdir, model_id, cks)
        records.extend(_eval_records(cfg, model_id, train_set.name, cks[-1], tests, cfg.seed))
    return records, {}, {"small_set_size": len(small_p.items), "skew_factor": cfg.skew_factor}


def select_best_source(sources: list[datamod.Dataset], target_test: datamod.Dataset,
                       model_config: learned.ModelConfig, train_config: learned.TrainConfig,
                       mask_seed: int = 0):
    """Index of the source whose specialist scores highest on the target.

    Every specialist is trained under identical configs and seeds; ties break
    toward the lowest index.
    """
    if not sources:
        raise ValueError("no sources")
    means = []
    specialists = []
    for src in sources:
        cks, _ = learned.train(model_config, src, train_config)
        mean, _, _ = learned.evaluate_checkpoint(
            cks[-1], target_test, mask_seed, train_config.acceleration,
            train_config.center_fraction)
        means.append(mean)
        specialists.append(cks)
    best = 0
    for i in range(1, len(means)):
        if means[i] > means[best]:
            best = i
    return best, specialists, means


def _per_epoch_points(cfg, checkpoints, id_set, ood_set, mask_seed):
    pts = []
    for ck in checkpoints[1:]:
        idv, _, _ = learned.evaluate_checkpoint(ck, id_set, mask_seed,
                                                cfg.train.acceleration, cfg.train.center_fraction)
        oodv, _, _ = learned.evaluate_checkpoint(ck, ood_set, mask_seed,
                                                 cfg.train.acceleration, cfg.train.center_fraction)
        pts.append((idv, oodv))
    return pts


def _tpl_diversity_robustness(cfg: ExperimentConfig, outdir: Path):
    if not cfg.sources or cfg.target is None:
        raise ConfigError("diversity_robustness needs sources and target")
    source_sets = []
    source_tests = []
    for spec in cfg.sources:
        tr, te = datamod.train_test(spec, cfg.train_count, cfg.test_count)
        source_sets.append(tr)
        source_tests.append(te)
    target_train, target_test = datamod.train_test(cfg.target, cfg.train_count, cfg.test_count)
    tc = replace(cfg.train, seed=cfg.seed)
    mc = replace(cfg.model, seed=cfg.seed)
    best_idx, specialists, source_means = select_best_source(
        source_sets, target_test, mc, tc, cfg.seed)
    id_test = source_tests[best_idx]
    union = datamod.combine(source_sets)
    union_cks, _ = _train_model(cfg, union, cfg.seed)
    both_cks, _ = _train_model(cfg, datamod.combine([union, target_train]), cfg.seed)
    _save_checkpoints(outdir, "P_best", specialists[best_idx])
    _save_checkpoints(outdir, "P-union", union_cks)
    _save_checkpoints(outdir, "P+Q", both_cks)

    baseline_pts = _per_epoch_points(cfg, specialists[best_idx], id_test, target_test, cfg.seed)
    union_pts = _per_epoch_points(cfg, union_cks, id_test, target_test, cfg.seed)
    both_pts = _per_epoch_points(cfg, both_cks, id_test, target_test, cfg.seed)
    fit = metrics.effective_robustness_fit(baseline_pts, union_pts + both_pts)

    records = []
    for mid, cks, pts in (("P_best", specialists[best_idx], baseline_pts),
                          ("P-union", union_cks, union_pts), ("P+Q", both_cks, both_pts)):
        for ck, (idv, oodv) in zip(cks[1:], pts):
            records.append(EvalRecord(mid, mid, ck.epoch, "ID(P_best)-test", "ssim", idv,
                                      cfg.seed))
            records.append(EvalRecord(mid, mid, ck.epoch, "Q-test", "ssim", oodv, cfg.seed))

    # train-set similarity to the target test set, per source and for the union
    sim_means = []
    test_feats = metrics.extract_features(target_test, seed=cfg.seed)
    for tr in source_sets + [union]:
        feats = metrics.extract_features(tr, seed=cfg.seed)
        sim_means.append(metrics.nn_similarity(test_feats, feats).mean)
    details = {
        "best_source_index": best_idx,
        "source_target_ssim": source_means,
        "similarity_means": sim_means[:-1],
        "union_similarity_mean": sim_means[-1],
        "union_final_effective_robustness": fit.residuals[len(union_pts) - 1],
    }
    fits = {"ood_vs_id": fit}
    return records, fits, details


def _tpl_pathology(cfg: ExperimentConfig, outdir: Path):
    p_spec = _dist(cfg, "P")
    q_spec = cfg.distributions.get("Q", p_spec)
    train_p, test_p = datamod.train_test(p_spec, cfg.train_count, cfg.test_count)
    train_q_clean, test_q_clean = datamod.train_test(_seeded(q_spec, 1), cfg.train_count,
                                                     cfg.test_count)
    half = cfg.test_count // 2 or 1
    test_q = datamod.combine([
        datamod.add_lesions(datamod.Dataset(test_q_clean.name, test_q_clean.items[:half],
                                            test_q_clean.specs),
                            cfg.seed, "small", cfg.lesion_amplitude),
        datamod.add_lesions(datamod.Dataset(test_q_clean.name, test_q_clean.items[half:],
                                            test_q_clean.specs),
                            cfg.seed + 1, "large", cfg.lesion_amplitude),
    ])
    train_q = datamod.add_lesions(train_q_clean, cfg.seed + 2, "small", cfg.lesion_amplitude)
    records = []
    for model_id, train_set in (("P", train_p), ("P+Q", datamod.combine([train_p, train_q]))):
        cks, _ = _train_model(cfg, train_set, cfg.seed)
        _save_checkpoints(outdir, model_id, cks)
        ck = cks[-1]
        records.extend(_eval_records(cfg, model_id, train_set.name, ck,
                                     {"P-test": test_p}, cfg.seed))
        by_class = {"small": [], "large": []}
        for idx, item in enumerate(test_q.items):
            y, mask, target = datamod.measure(item, idx, cfg.seed, cfg.train.acceleration,
                                              cfg.train.center_fraction,
                                              datamod.EVAL_NOISE_TAG)
            recon = learned.infer(ck, y, item.sens, mask)
            sc = metrics.SsimConfig(data_range=float(target.max()) or 1.0)
            by_class[item.lesion.size_class].append(
                metrics.region_ssim(recon, target, item.lesion.box(), sc))
        for cls, vals in by_class.items():
            if vals:
                records.append(EvalRecord(model_id, train_set.name, ck.epoch,
                                          "Q-lesion-test", f"region_ssim_{cls}",
                                          float(np.mean(vals)), cfg.seed))
    return records, {}, {"lesion_counts": {cls: sum(1 for it in test_q.items
                                                    if it.lesion.size_class == cls)
                                           for cls in ("small", "large")}}


def _tpl_accel_combo(cfg: ExperimentConfig, outdir: Path):
    spec = _dist(cfg, "P")
    train_set, test_set = datamod.train_test(spec, cfg.train_count, cfg.test_count)
    accels = list(cfg.accelerations)
    unseen = [] if cfg.unseen_acceleration is None else [cfg.unseen_acceleration]
    models = [(f"R{r:g}", {"acceleration": r}, [r]) for r in accels]
    if len(accels) > 1:
        models.append(("R-all", {"accelerations": tuple(accels)}, accels))
    records = []
    for model_id, overrides, trained_at in models:
        cks, _ = _train_model(cfg, train_set, cfg.seed, **overrides)
        _save_checkpoints(outdir, model_id, cks)
        for r in trained_at + unseen:
            records.extend(_eval_records(cfg, model_id, train_set.name, cks[-1],
                                         {f"P-test@R{r:g}": test_set}, cfg.seed,
                                         acceleration=r))
    return records, {}, {"accelerations": accels}


def _tpl_coil_shift(cfg: ExperimentConfig, outdir: Path):
    p_spec, q_spec = _dist(cfg, "P"), _dist(cfg, "Q")
    train_p, test_p = datamod.train_test(p_spec, cfg.train_count, cfg.test_count)
    train_q, test_q = datamod.train_test(q_spec, cfg.train_count, cfg.test_count)
    tests = {"P-test": test_p, "Q-test": test_q}
    records = []
    for model_id, train_set in (("P", train_p), ("Q", train_q),
                                ("P+Q", datamod.combine([train_p, train_q]))):
        cks, _ = _train_model(cfg, train_set, cfg.seed)
        _save_checkpoints(outdir, model_id, cks)
        records.extend(_eval_records(cfg, model_id, train_set.name, cks[-1], tests,
                                     cfg.seed, normalize=True))
    return records, {}, {"coils": {"P": p_spec.coils, "Q": q_spec.coils}}


def _tpl_overfit_monitor(cfg: ExperimentConfig, outdir: Path):
    p_spec, q_spec = _dist(cfg, "P"), _dist(cfg, "Q")
    train_p, test_p = datamod.train_test(p_spec, cfg.train_count, cfg.test_count)
    _, test_q = datamod.train_test(q_spec, cfg.train_count, cfg.test_count)
    cks, _ = _train_model(cfg, train_p, cfg.seed)
    _save_checkpoints(outdir, "P", cks)
    id_trace, ood_trace = zip(*_per_epoch_points(cfg, cks, test_p, test_q, cfg.seed))
    verdict = detect_distributional_overfitting(
        id_trace, ood_trace, cfg.overfit_window, cfg.overfit_eps, cfg.overfit_delta)
    records = []
    for epoch, (idv, oodv) in enumerate(zip(id_trace, ood_trace), start=1):
        records.append(EvalRecord("P", train_p.name, epoch, "P-test", "ssim", idv, cfg.seed))
        records.append(EvalRecord("P", train_p.name, epoch, "Q-test", "ssim", oodv, cfg.seed))
    details = {
        "verdict": verdict.to_dict(),
        "id_trace": list(id_trace),
        "ood_trace": list(ood_trace),
        "thresholds": {"window": cfg.overfit_window, "eps": cfg.overfit_eps,
                       "delta": cfg.overfit_delta},
    }
    return records, {}, details


def _tpl_finetune_ablation(cfg: ExperimentConfig, outdir: Path):
    if not cfg.sources:
        raise ConfigError("finetune_ablation needs sources (parent pool) and targets in distributions")
    targets = {k: v for k, v in cfg.distributions.items()}
    if not targets:
        raise ConfigError("finetune_ablation needs target distributions")
    parent_sets = [datamod.train_test(s, cfg.train_count, cfg.test_count)[0] for s in cfg.sources]
    parent_train = datamod.combine(parent_sets) if len(parent_sets) > 1 else parent_sets[0]
    target_data = {k: datamod.train_test(v, cfg.train_count, cfg.test_count)
                   for k, v in targets.items()}
    tests = {f"{k}-test": tt for k, (_, tt) in target_data.items()}
    parent_cks, _ = _train_model(cfg, parent_train, cfg.seed)
    _save_checkpoints(outdir, "P", parent_cks)
    records = _eval_records(cfg, "P", parent_train.name, parent_cks[-1], tests, cfg.seed)
    for k, (ttrain, _) in target_data.items():
        tc = replace(cfg.train, seed=cfg.seed)
        cks, _ = learned.finetune(parent_cks[-1], ttrain, tc)
        _save_checkpoints(outdir, f"P_{k}", cks)
        records.extend(_eval_records(cfg, f"P_{k}", f"{parent_train.name}->{ttrain.name}",
                                     cks[-1], tests, cfg.seed))
    return records, {}, {"targets": sorted(targets)}


_TEMPLATE_FNS = {
    "joint_vs_separate": _tpl_joint_vs_separate,
    "skewed": _tpl_skewed,
    "diversity_robustness": _tpl_diversity_robustness,
    "pathology": _tpl_pathology,
    "accel_combo": _tpl_accel_combo,
    "coil_shift": _tpl_coil_shift,
    "overfit_monitor": _tpl_overfit_monitor,
    "finetune_ablation": _tpl_finetune_ablation,
}


# ---------------------------------------------------------------------------
# Report emission.
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def records_to_csv(records: list[EvalRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([r.model_id, r.sources, str(r.epoch), r.test_set,
                               r.metric, _fmt(r.value), str(r.mask_seed), r.flags]))
    return "\n".join(lines) + "\n"


def parse_records_csv(text: str) -> list[EvalRecord]:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected records header")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        out.append(EvalRecord(parts[0], parts[1], int(parts[2]), parts[3], parts[4],
                              float(parts[5]), int(parts[6]), parts[7]))
    return out


def emit_report(records: list[EvalRecord], fits: dict[str, metrics.RobustnessFit],
                path: str | Path, details: dict | None = None,
                config_json: str | None = None) -> dict[str, str]:
    """Write records.csv, fits.json, details.json and manifest.json.

    Byte-stable: identical inputs produce identical files. Returns the file
    hash table that also lands in the manifest.
    """
    if not records:
        raise ValueError("no records to emit")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    files = {
        "records.csv": records_to_csv(records),
        "fits.json": json.dumps({k: f.to_dict() for k, f in sorted(fits.items())},
                                sort_keys=True, indent=1),
        "details.json": json.dumps(details or {}, sort_keys=True, indent=1),
    }
    hashes = {}
    for name, text in files.items():
        (path / name).write_text(text)
        hashes[name] = hashlib.sha256(text.encode()).hexdigest()
    manifest = {
        "complete": True,
        "config_sha256": (hashlib.sha256(config_json.encode()).hexdigest()
                          if config_json else None),
        "files": hashes,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return hashes


def run_experiment(config: ExperimentConfig, outdir: str | Path) -> Path:
    """Execute a template end to end; reports land in `outdir`."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stage = "setup"
    try:
        fn = _TEMPLATE_FNS[config.template]
        stage = config.template
        records, fits, details = fn(config, outdir)
        stage = "emit"
        details = dict(details or {})
        details["template"] = config.template
        details["seed"] = config.seed
        emit_report(records, fits, outdir, details, config.canonical_json())
    except Exception as e:
        marker = {"complete": False, "failed_stage": stage, "error": str(e)}
        (outdir / "manifest.json").write_text(json.dumps(marker, sort_keys=True, indent=1))
        raise RuntimeError(f"experiment stage {stage!r} failed: {e}") from e
    return outdir
