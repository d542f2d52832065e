"""Config-driven experiment templates, overfitting detection, report emission.

Every template is a pure function of (config, seed): datasets are generated
from their specs, models are trained with explicit seeds, and the emitted
report files are byte-stable under reruns.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
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


CSV_HEADER = ",".join(f.name for f in fields(EvalRecord))


@dataclass
class OverfitVerdict:
    peak_epoch: int
    stop_epoch: int
    id_gain_over_window: float
    ood_drop_from_peak: float
    detected: bool


OVERFIT_EPS = 1e-3  # trailing-window in-distribution gain below which training should stop
OVERFIT_DELTA = 0.0  # out-of-distribution drop from its peak above which overfitting is detected


def detect_distributional_overfitting(id_trace, ood_trace, window: int) -> OverfitVerdict:
    """Scan per-epoch traces for the late-training regime where the
    out-of-distribution metric falls off its peak while the in-distribution
    metric only inches forward.

    The recommended stop is the first epoch whose trailing-window
    in-distribution gain falls below OVERFIT_EPS (the last epoch if none);
    overfitting is detected when the final drop exceeds OVERFIT_DELTA.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    id_trace = np.asarray(id_trace, dtype=np.float64)
    ood_trace = np.asarray(ood_trace, dtype=np.float64)
    if id_trace.shape != ood_trace.shape:
        raise ValueError("trace length mismatch")
    if id_trace.size < window + 1:
        raise ValueError(f"need at least window+1={window + 1} epochs")
    peak = int(np.argmax(ood_trace))
    stop = id_trace.size - 1
    for e in range(window, id_trace.size):
        if id_trace[e] - id_trace[e - window] < OVERFIT_EPS:
            stop = e
            break
    drop = float(ood_trace[peak] - ood_trace[-1])
    gain = float(id_trace[stop] - id_trace[stop - window])
    return OverfitVerdict(peak, stop, gain, drop, drop > OVERFIT_DELTA)


# ---------------------------------------------------------------------------
# Experiment configuration.
# ---------------------------------------------------------------------------

DISTRIBUTION_KEYS = ("P", "Q")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """An experiment read from JSON whose keys are these fields."""

    template: str
    seed: int = datamod.within("[0, inf)")
    model: learned.ModelConfig = field(default_factory=learned.ModelConfig)
    train: learned.TrainConfig = field(default_factory=learned.TrainConfig)
    distributions: dict[str, datamod.DistributionSpec] = field(default_factory=dict)
    sources: list[datamod.DistributionSpec] = field(default_factory=list)
    target: datamod.DistributionSpec | None = None
    train_count: int = datamod.within("[1, inf)", 16)
    test_count: int = datamod.within("[1, inf)", 8)
    seeds: list[int] = datamod.within("[0, inf)", default_factory=list)  # multi-seed bands
    accelerations: list[float] = field(default_factory=lambda: [kspace.ACCELERATION])
    unseen_acceleration: float | None = None
    skew_factor: float = datamod.within("(1, inf)", 10.0)
    overfit_window: int = datamod.within("[1, inf)", 3)

    def __post_init__(self):
        datamod.check_fields(self, ConfigError)
        if self.template not in TEMPLATES:
            raise ConfigError(f"ExperimentConfig.template must be one of {tuple(TEMPLATES)}, "
                              f"got {self.template!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"ExperimentConfig.seeds must not repeat a seed, got {self.seeds}")
        for need in TEMPLATES[self.template][1]:
            if need in DISTRIBUTION_KEYS and need not in self.distributions:
                raise ConfigError(f"ExperimentConfig.distributions lacks distribution {need!r}")
            if need not in DISTRIBUTION_KEYS and not getattr(self, need):
                raise ConfigError(f"ExperimentConfig.{need} must not be empty for {self.template}")
        if self.template == "accel_combo" and self.train.accelerations is not None:
            raise ConfigError("ExperimentConfig.train.accelerations must be unset for "
                              "accel_combo, which trains each model at its own 'accelerations'")
        # epochs the overfitting scan and the effective-robustness fit need
        why, least = {"overfit_monitor": ("overfit_window + 1 = ", self.overfit_window + 1),
                      "diversity_robustness": ("", 2)}.get(self.template, ("", 0))
        if self.train.epochs < least:
            raise ConfigError(f"ExperimentConfig.train.epochs must be >= {why}{least} for "
                              f"{self.template}, got {self.train.epochs}")
        # pathology puts scoreable (SCOREABLE_MIN_SIDE) small-class lesions into Q,
        # which defaults to P; fail before any data is generated
        if self.template == "pathology":
            for key, spec in self.distributions.items():
                if key in DISTRIBUTION_KEYS and not datamod.small_lesion_fits(*spec.extents):
                    raise ConfigError(f"ExperimentConfig.distributions {key!r} extents "
                                      f"{_size(spec)} are too small "
                                      f"for a small-class lesion (need height * width >= "
                                      f"{100 * datamod.SCOREABLE_MIN_SIDE ** 2})")
        # every acceleration trained or scored at must leave the mask policies
        # room for outer lines on every distribution's width
        accels = ([*self.accelerations, self.unseen_acceleration]
                  if self.template == "accel_combo" else [self.train.acceleration])
        accels = [r for r in [*accels, *(self.train.accelerations or ())] if r is not None]
        model = learned.construct_model(self.model)
        for spec in [*self.distributions.values(), *self.sources, *filter(None, [self.target])]:
            try:
                model.check_extents(*spec.extents)
            except ValueError as e:
                raise ConfigError(f"ExperimentConfig.model.pool_levels {self.model.pool_levels} "
                                  f"on distribution {spec.name!r}: {e}") from e
            width = spec.extents[1]
            for r in accels:
                try:
                    kspace.mask_for_volume(width, r, self.train.center_fraction, 0, 0)
                except ValueError as e:
                    raise ConfigError(f"acceleration {r!r} on distribution {spec.name!r} "
                                      f"({width} columns): {e}") from e
        # training sets one model trains on together need one extent (data.combine)
        union = [pair for need in TEMPLATES[self.template][2] for pair in self._specs(need)]
        for where, spec in union[1:]:
            if spec.extents != union[0][1].extents:
                raise ConfigError(f"ExperimentConfig.{where} extents {_size(spec)} must equal "
                                  f"ExperimentConfig.{union[0][0]} extents {_size(union[0][1])}, "
                                  f"as {self.template} trains one model on their union")
        # each finetuned model P_<key> saves its checkpoints in a directory of its own
        if self.template == "finetune_ablation":
            seen = {}
            for key in self.distributions:
                if (d := checkpoint_dir("", f"P_{key}")) in seen:
                    raise ConfigError(f"ExperimentConfig.distributions keys {seen[d]!r} and "
                                      f"{key!r} would share the checkpoint directory {d}")
                seen[d] = key
        # each accel_combo model, its checkpoints and its test set are named by one label
        if self.template == "accel_combo":
            trained = {}
            for i, r in enumerate(self.accelerations):
                if (label := _accel_label(r)) in trained:
                    j = trained[label]
                    raise ConfigError(f"ExperimentConfig.accelerations[{i}] {r!r} and [{j}] "
                                      f"{self.accelerations[j]!r} share the label {label}")
                trained[label] = i
            if (r := self.unseen_acceleration) is not None and _accel_label(r) in trained:
                raise ConfigError(f"ExperimentConfig.unseen_acceleration {r!r} shares the "
                                  f"label {_accel_label(r)} with a trained acceleration")
        # skewed trains P-small on skew_count(train_count, skew_factor) items of P
        if self.template == "skewed" and datamod.skew_count(self.train_count, self.skew_factor) < 1:
            raise ConfigError(f"ExperimentConfig.skew_factor {self.skew_factor!r} leaves no item "
                              f"of train_count {self.train_count} in the small set")

    def _specs(self, need: str) -> list[tuple[str, datamod.DistributionSpec]]:
        """(field, spec) for each spec a TEMPLATES input names, if set."""
        if need in DISTRIBUTION_KEYS:
            spec = self.distributions.get(need)
            return [(f"distributions[{need!r}]", spec)] if spec else []
        if need == "sources":
            return [(f"sources[{i}]", spec) for i, spec in enumerate(self.sources)]
        return [(need, getattr(self, need))]

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        try:
            return datamod.from_fields(ExperimentConfig, d)
        except (TypeError, ValueError) as e:  # a ConfigError too, with its message kept
            raise ConfigError(str(e)) from e

    def canonical_json(self) -> str:
        """Every field, defaults included: what the report manifest's config_sha256 hashes."""
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Shared plumbing.
# ---------------------------------------------------------------------------


def _size(spec: datamod.DistributionSpec) -> str:
    return f"{spec.extents[0]}x{spec.extents[1]}"


def _accel_label(r: float) -> str:
    """accel_combo's name for acceleration `r`: its model id and test-set suffix."""
    return f"R{r:g}"


def _seeded(spec: datamod.DistributionSpec, seed: int) -> datamod.DistributionSpec:
    return replace(spec, seed=spec.seed + 1_000_003 * seed)


def _eval_records(cfg: ExperimentConfig, runs: list[tuple[str, str, learned.Checkpoint]],
                  test_sets: dict[str, datamod.Dataset], mask_seed: int, acceleration: float,
                  normalize: bool = False) -> list[EvalRecord]:
    """One record per (run, test set), in that order, for `runs` of (model_id, sources,
    checkpoint) of one model config, all scored in one pass per test set (`data.score`)."""
    means, flags = {}, {}
    for name, ds in test_sets.items():
        scores, fell_back = learned.evaluate_params(
            runs[0][2].config, [ck.params for _, _, ck in runs], ds, mask_seed,
            acceleration, cfg.train.center_fraction, normalize)
        means[name] = datamod.column_means(scores)
        flags[name] = ["normalize_fallback" if f else "normalized" if normalize else ""
                       for f in fell_back]
    return [EvalRecord(model_id, sources, ck.epoch, name, "ssim", means[name][j], mask_seed,
                       flags[name][j])
            for j, (model_id, sources, ck) in enumerate(runs) for name in test_sets]


def checkpoint_dir(outdir: str | Path, model_id: str) -> Path:
    """Where a model's checkpoints go: checkpoints/<model_id> under `outdir`, with
    '/' and ':' written as '_', '+' as 'u' and spaces dropped."""
    name = model_id.replace("/", "_").replace(":", "_").replace("+", "u").replace(" ", "")
    return Path(outdir) / "checkpoints" / name


def _fit(cfg: ExperimentConfig, outdir: Path, model_id: str, train_set, seed: int,
         **train_overrides) -> list[learned.Checkpoint]:
    """Train the config's model at `seed`, save every epoch's checkpoint under
    `model_id` and return them."""
    cks, _ = learned.train(replace(cfg.model, seed=seed), train_set,
                           replace(cfg.train, seed=seed, **train_overrides))
    learned.save_checkpoints(cks, checkpoint_dir(outdir, model_id))
    return cks


# ---------------------------------------------------------------------------
# Templates.
# ---------------------------------------------------------------------------


def _tpl_joint_vs_separate(cfg: ExperimentConfig, outdir: Path):
    p_spec, q_spec = cfg.distributions["P"], cfg.distributions["Q"]
    seeds = cfg.seeds or [cfg.seed]
    records: list[EvalRecord] = []
    cells: dict[tuple[str, str], list[float]] = {}
    for seed in seeds:
        train_p, test_p = datamod.train_test(_seeded(p_spec, seed), cfg.train_count, cfg.test_count)
        train_q, test_q = datamod.train_test(_seeded(q_spec, seed), cfg.train_count, cfg.test_count)
        union = datamod.combine([train_p, train_q])
        half = datamod.subsample(union, 0.5, kspace.rng_from(seed, 0x4A1F))
        runs = [(model_id, train_set.name,
                 _fit(cfg, outdir, f"{model_id}-s{seed}", train_set, seed)[-1])
                for model_id, train_set in (("P", train_p), ("Q", train_q),
                                            ("P+Q", union), ("P+Q-half", half))]
        records += _eval_records(cfg, runs, {"P-test": test_p, "Q-test": test_q}, seed,
                                 cfg.train.acceleration)
    for r in records:
        cells.setdefault((r.model_id, r.test_set), []).append(r.value)
    bands = {}
    for (mid, ts), vs in sorted(cells.items()):
        mean = float(np.mean(vs))
        std = float(np.std(vs, ddof=1)) if len(vs) > 1 else 0.0
        bands[f"{mid}|{ts}"] = {"mean": mean, "std": std, "band": [mean - 2 * std, mean + 2 * std],
                                "values": [float(v) for v in vs]}
    return records, {}, {"seed_bands": bands, "n_seeds": len(seeds)}


def _tpl_skewed(cfg: ExperimentConfig, outdir: Path):
    pool_p, test_p = datamod.train_test(cfg.distributions["P"], cfg.train_count, cfg.test_count)
    train_q, test_q = datamod.train_test(cfg.distributions["Q"], cfg.train_count, cfg.test_count)
    small_p = datamod.skew(pool_p, cfg.skew_factor, cfg.seed)
    joint = datamod.combine([small_p, train_q])
    runs = [(model_id, train_set.name, _fit(cfg, outdir, model_id, train_set, cfg.seed)[-1])
            for model_id, train_set in (("P-small", small_p), ("Q", train_q), ("P+Q", joint))]
    return (_eval_records(cfg, runs, {"P-test": test_p, "Q-test": test_q}, cfg.seed,
                          cfg.train.acceleration), {},
            {"small_set_size": len(small_p.items), "skew_factor": cfg.skew_factor})


def select_best_source(sources: list[datamod.Dataset], target_test: datamod.Dataset,
                       model_config: learned.ModelConfig, train_config: learned.TrainConfig,
                       mask_seed: int):
    """Index of the source whose specialist scores highest on the target.

    Every specialist is trained under identical configs and seeds; ties break
    toward the lowest index.
    """
    if not sources:
        raise ValueError("no sources")
    specialists = [learned.train(model_config, src, train_config)[0] for src in sources]
    scores, _ = learned.evaluate_params(model_config, [cks[-1].params for cks in specialists],
                                        target_test, mask_seed, train_config.acceleration,
                                        train_config.center_fraction, False)
    means = datamod.column_means(scores)
    return int(np.argmax(means)), specialists, means


def _tpl_diversity_robustness(cfg: ExperimentConfig, outdir: Path):
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
    learned.save_checkpoints(specialists[best_idx], checkpoint_dir(outdir, "P_best"))
    union_cks = _fit(cfg, outdir, "P-union", union, cfg.seed)
    both_cks = _fit(cfg, outdir, "P+Q", datamod.combine([union, target_train]), cfg.seed)

    # per-epoch (id, ood) points
    tests = {"ID(P_best)-test": id_test, "Q-test": target_test}
    models = {"P_best": specialists[best_idx], "P-union": union_cks, "P+Q": both_cks}
    records = _eval_records(cfg, [(mid, mid, ck) for mid, cks in models.items()
                                  for ck in cks[1:]], tests, cfg.seed, cfg.train.acceleration)
    pts = {mid: [(i.value, o.value) for i, o in paired(records, mid, *tests)]
           for mid in models}
    fit = metrics.effective_robustness_fit(pts["P_best"], pts["P-union"] + pts["P+Q"])

    # train-set similarity to the target test set, per source and for the union,
    # whose feature rows are its sources' rows: features are keyed on item content
    test_feats = metrics.extract_features(target_test, seed=cfg.seed)
    feats = [metrics.extract_features(tr, seed=cfg.seed) for tr in source_sets]
    sim_means = [metrics.nn_similarity(test_feats, f).mean
                 for f in feats + [np.concatenate(feats)]]
    details = {
        "best_source_index": best_idx,
        "source_target_ssim": source_means,
        "similarity_means": sim_means[:-1],
        "union_similarity_mean": sim_means[-1],
        "union_final_effective_robustness": fit.residuals[len(pts["P-union"]) - 1],
    }
    fits = {"ood_vs_id": fit}
    return records, fits, details


def _tpl_pathology(cfg: ExperimentConfig, outdir: Path):
    p_spec = cfg.distributions["P"]
    q_spec = cfg.distributions.get("Q", p_spec)
    train_p, test_p = datamod.train_test(p_spec, cfg.train_count, cfg.test_count)
    train_q_clean, test_q_clean = datamod.train_test(_seeded(q_spec, 1), cfg.train_count,
                                                     cfg.test_count)
    half = cfg.test_count // 2 or 1
    items = test_q_clean.items
    test_q = datamod.combine([
        datamod.add_lesions(replace(test_q_clean, items=items[:half]), cfg.seed, "small"),
        datamod.add_lesions(replace(test_q_clean, items=items[half:]), cfg.seed + 1, "large")])
    train_q = datamod.add_lesions(train_q_clean, cfg.seed + 2, "small")
    runs = [(model_id, train_set.name, _fit(cfg, outdir, model_id, train_set, cfg.seed)[-1])
            for model_id, train_set in (("P", train_p),
                                        ("P+Q", datamod.combine([train_p, train_q])))]
    ssim_records = _eval_records(cfg, runs, {"P-test": test_p}, cfg.seed, cfg.train.acceleration)
    region = datamod.score(test_q, [partial(learned.infer, ck) for _, _, ck in runs], cfg.seed,
                           cfg.train.acceleration, cfg.train.center_fraction,
                           datamod.EVAL_NOISE_TAG, lambda recon, target, item:
                           metrics.region_ssim(recon, target, item.lesion.box()))
    rows = {cls: [i for i, item in enumerate(test_q.items) if item.lesion.size_class == cls]
            for cls in ("small", "large")}
    records = []
    for j, rec in enumerate(ssim_records):
        records += [rec] + [EvalRecord(rec.model_id, rec.sources, rec.epoch, "Q-lesion-test",
                                       f"region_ssim_{cls}", float(np.mean(region[r, j])),
                                       cfg.seed) for cls, r in rows.items() if r]
    return records, {}, {"lesion_counts": {cls: len(r) for cls, r in rows.items()}}


def _tpl_accel_combo(cfg: ExperimentConfig, outdir: Path):
    train_set, test_set = datamod.train_test(cfg.distributions["P"], cfg.train_count,
                                             cfg.test_count)
    accels = list(cfg.accelerations)
    unseen = [] if cfg.unseen_acceleration is None else [cfg.unseen_acceleration]
    models = [(_accel_label(r), {"acceleration": r}, [r]) for r in accels]
    if len(accels) > 1:
        models.append(("R-all", {"accelerations": tuple(accels)}, accels))
    runs = {mid: (mid, train_set.name, _fit(cfg, outdir, mid, train_set, cfg.seed, **kw)[-1])
            for mid, kw, _ in models}
    scored = {}  # every model scored at one acceleration shares its measurements
    for r in dict.fromkeys(accels + unseen):
        at_r = [runs[mid] for mid, _, trained_at in models if r in trained_at + unseen]
        scored.update(((rec.model_id, r), rec) for rec in _eval_records(
            cfg, at_r, {f"P-test@{_accel_label(r)}": test_set}, cfg.seed, r))
    records = [scored[mid, r] for mid, _, trained_at in models for r in trained_at + unseen]
    return records, {}, {"accelerations": accels}


def _tpl_coil_shift(cfg: ExperimentConfig, outdir: Path):
    p_spec, q_spec = cfg.distributions["P"], cfg.distributions["Q"]
    train_p, test_p = datamod.train_test(p_spec, cfg.train_count, cfg.test_count)
    train_q, test_q = datamod.train_test(q_spec, cfg.train_count, cfg.test_count)
    tests = {"P-test": test_p, "Q-test": test_q}
    runs = [(model_id, train_set.name, _fit(cfg, outdir, model_id, train_set, cfg.seed)[-1])
            for model_id, train_set in (("P", train_p), ("Q", train_q),
                                        ("P+Q", datamod.combine([train_p, train_q])))]
    return (_eval_records(cfg, runs, tests, cfg.seed, cfg.train.acceleration, normalize=True), {},
            {"coils": {"P": p_spec.coils, "Q": q_spec.coils}})


def _tpl_overfit_monitor(cfg: ExperimentConfig, outdir: Path):
    train_p, test_p = datamod.train_test(cfg.distributions["P"], cfg.train_count, cfg.test_count)
    _, test_q = datamod.train_test(cfg.distributions["Q"], cfg.train_count, cfg.test_count)
    cks = _fit(cfg, outdir, "P", train_p, cfg.seed)
    tests = {"P-test": test_p, "Q-test": test_q}
    records = _eval_records(cfg, [("P", train_p.name, ck) for ck in cks[1:]], tests, cfg.seed,
                            cfg.train.acceleration)
    pairs = paired(records, "P", *tests)
    id_trace = [i.value for i, _ in pairs]
    ood_trace = [o.value for _, o in pairs]
    verdict = detect_distributional_overfitting(id_trace, ood_trace, cfg.overfit_window)
    details = {
        "verdict": asdict(verdict),
        "id_trace": id_trace,
        "ood_trace": ood_trace,
        "thresholds": {"window": cfg.overfit_window, "eps": OVERFIT_EPS, "delta": OVERFIT_DELTA},
    }
    return records, {}, details


def _tpl_finetune_ablation(cfg: ExperimentConfig, outdir: Path):
    parent_train = datamod.combine([datamod.train_test(s, cfg.train_count, cfg.test_count)[0]
                                    for s in cfg.sources])
    target_data = {k: datamod.train_test(v, cfg.train_count, cfg.test_count)
                   for k, v in cfg.distributions.items()}
    tests = {f"{k}-test": tt for k, (_, tt) in target_data.items()}
    parent = _fit(cfg, outdir, "P", parent_train, cfg.seed)[-1]
    runs = [("P", parent_train.name, parent)]
    tc = replace(cfg.train, seed=cfg.seed)
    for k, (ttrain, _) in target_data.items():
        cks, _ = learned.train(parent.config, ttrain, tc, parent)
        learned.save_checkpoints(cks, checkpoint_dir(outdir, f"P_{k}"))
        runs.append((f"P_{k}", f"{parent_train.name}->{ttrain.name}", cks[-1]))
    return (_eval_records(cfg, runs, tests, cfg.seed, cfg.train.acceleration), {},
            {"targets": sorted(cfg.distributions)})


# name -> (template function, the inputs it reads: keys of `distributions` in
# DISTRIBUTION_KEYS, or config fields that must be non-empty, and the spec
# inputs whose training sets it combines, which must share one extent)
TEMPLATES = {
    "joint_vs_separate": (_tpl_joint_vs_separate, ("P", "Q"), ("P", "Q")),
    "skewed": (_tpl_skewed, ("P", "Q"), ("P", "Q")),
    "diversity_robustness": (_tpl_diversity_robustness, ("sources", "target"),
                             ("sources", "target")),
    "pathology": (_tpl_pathology, ("P",), ("P", "Q")),
    "accel_combo": (_tpl_accel_combo, ("P", "accelerations"), ()),
    "coil_shift": (_tpl_coil_shift, ("P", "Q"), ("P", "Q")),
    "overfit_monitor": (_tpl_overfit_monitor, ("P", "Q"), ()),
    "finetune_ablation": (_tpl_finetune_ablation, ("sources", "distributions"), ("sources",)),
}


# ---------------------------------------------------------------------------
# Report emission.
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def records_to_csv(records: list[EvalRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, f.name)) for f in fields(EvalRecord)))
    return "\n".join(lines) + "\n"


class RecordsFormatError(datamod.FormatError):
    """Raised for text that is not a records.csv as records_to_csv writes it."""


def parse_records_csv(text: str) -> list[EvalRecord]:
    """Records from records_to_csv's text, each column read by its field's type;
    a value that is not finite is a format error."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise RecordsFormatError("unexpected records header")
    kinds = list(typing.get_type_hints(EvalRecord).values())
    out = []
    for row, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != len(kinds):
            raise RecordsFormatError(f"records row {row}: {len(parts)} fields, "
                                     f"expected {len(kinds)}")
        try:
            out.append(EvalRecord(*(kind(p) for kind, p in zip(kinds, parts))))
        except ValueError as e:
            raise RecordsFormatError(f"records row {row}: {e}") from e
        if not np.isfinite(out[-1].value):
            raise RecordsFormatError(f"records row {row}: value {out[-1].value} is not finite")
    return out


def paired(records: list[EvalRecord], model_id: str, id_set: str, ood_set: str):
    """(ID, OOD) SSIM record pairs of one model, one per epoch that has both, in
    epoch order. No pair at all raises RecordsFormatError."""
    by_epoch: dict[int, dict[str, EvalRecord]] = {}
    for r in records:
        if r.model_id == model_id and r.metric == "ssim" and r.test_set in (id_set, ood_set):
            by_epoch.setdefault(r.epoch, {})[r.test_set] = r
    pairs = [(sets[id_set], sets[ood_set]) for _, sets in sorted(by_epoch.items())
             if len(sets) == 2]
    if not pairs:
        raise RecordsFormatError(
            f"no (id, ood) pairs for model {model_id!r} on {id_set!r}/{ood_set!r}")
    return pairs


def emit_report(records: list[EvalRecord], fits: dict[str, metrics.RobustnessFit],
                path: str | Path, details: dict, config_json: str) -> dict[str, str]:
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
        "details.json": json.dumps(details, sort_keys=True, indent=1),
    }
    hashes = {}
    for name, text in files.items():
        (path / name).write_text(text)
        hashes[name] = hashlib.sha256(text.encode()).hexdigest()
    manifest = {
        "complete": True,
        "config_sha256": hashlib.sha256(config_json.encode()).hexdigest(),
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
        fn = TEMPLATES[config.template][0]
        stage = config.template
        records, fits, details = fn(config, outdir)
        stage = "emit"
        details = dict(details)
        details["template"] = config.template
        details["seed"] = config.seed
        emit_report(records, fits, outdir, details, config.canonical_json())
    except Exception as e:
        marker = {"complete": False, "failed_stage": stage, "error": str(e)}
        (outdir / "manifest.json").write_text(json.dumps(marker, sort_keys=True, indent=1))
        raise RuntimeError(f"experiment stage {stage!r} failed: {e}") from e
    return outdir
