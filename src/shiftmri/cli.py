"""Command-line front end.

Subcommands: gen-data, train, eval, tune-lambda, similarity,
robustness-report, toy-subspace, run. Config files are JSON. Exit codes:
0 success, 2 validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path


from . import data as datamod
from . import harness, kspace, learned, metrics, toy
from .fista import (STEP_SIZE, TOLERANCE, WAVELET_LEVELS, FistaConfig, check_levels,
                    tune_lambda)


class ValidationError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e.strerror}") from e
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise ValidationError(f"invalid JSON in {path}: {e}") from e
    if not isinstance(obj, dict):
        raise ValidationError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj


def _out_dir(args) -> Path:
    """`--out` as a directory, made if missing."""
    if not args.out:
        raise ValidationError("--out is required for this command")
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ValidationError(f"cannot make output directory {args.out}: {e.strerror}") from e
    return Path(args.out)


def cmd_gen_data(args) -> int:
    try:
        spec = datamod.from_fields(datamod.DistributionSpec, _load_json(args.spec))
    except (TypeError, ValueError) as e:
        raise ValidationError(f"bad spec {args.spec}: {e}") from e
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.count < 1:
        raise ValidationError(f"--count must be >= 1, got {args.count}")
    dataset = datamod.generate(spec, args.count)
    datamod.save(dataset, _out_dir(args))
    print(f"wrote {len(dataset.items)} items to {args.out}")
    return 0


@dataclass(frozen=True)
class TrainJob:
    """A `train` config file: the dataset's path and the two config sections."""

    dataset: str
    model: learned.ModelConfig = field(default_factory=learned.ModelConfig)
    train: learned.TrainConfig = field(default_factory=learned.TrainConfig)


def _check_extents(dataset: datamod.Dataset, who: str, *rules) -> None:
    """Refuse a dataset with an item extent (h, w) that one of `rules` raises
    ValueError for, before a command does any work on it."""
    for extents in dict.fromkeys(item.image.shape for item in dataset.items):
        for rule in rules:
            try:
                rule(extents)
            except ValueError as e:
                raise ValidationError(f"{who} cannot run on dataset {dataset.name!r}: {e}") from e


def _check_runs_on(model_config: learned.ModelConfig, dataset: datamod.Dataset) -> None:
    """Refuse a dataset with an item extent the model cannot run at or SSIM cannot score."""
    model = learned.construct_model(model_config)
    _check_extents(dataset, model_config.kind, lambda s: model.check_extents(*s),
                   metrics.check_window_fits)


def cmd_train(args) -> int:
    try:
        job = datamod.from_fields(TrainJob, _load_json(args.config))
    except (TypeError, ValueError) as e:
        raise ValidationError(str(e)) from e
    train_cfg = job.train if args.seed is None else replace(job.train, seed=args.seed)
    train_set = datamod.load(job.dataset)
    try:
        learned.train_extents(train_set)
    except ValueError as e:
        raise ValidationError(str(e)) from e
    _check_runs_on(job.model, train_set)
    out = _out_dir(args)
    checkpoints, traces = learned.train(job.model, train_set, train_cfg)
    learned.save_checkpoints(checkpoints, out)
    (out / "traces.json").write_text(json.dumps(traces, sort_keys=True, indent=1))
    print(f"trained {len(checkpoints) - 1} epochs; checkpoints in {args.out}")
    return 0


def _check_acceleration(args) -> None:
    if not args.acceleration >= 1:
        raise ValidationError(f"--acceleration must be >= 1, got {args.acceleration!r}")


def cmd_eval(args) -> int:
    _check_acceleration(args)
    ck = learned.Checkpoint.load(args.checkpoint)
    dataset = datamod.load(args.dataset)
    _check_runs_on(ck.config, dataset)
    mask_seed = args.seed if args.seed is not None else 0
    mean, _, fallback = learned.evaluate_checkpoint(
        ck, dataset, mask_seed, args.acceleration, normalize=args.normalize)
    lines = ["model_id,checkpoint_epoch,test_set,metric,value"]
    lines.append(f"{ck.config.kind},{ck.epoch},{dataset.name},ssim,{mean!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        out = _out_dir(args)
        (out / "eval.csv").write_text(text)
    sys.stdout.write(text)
    if fallback:
        print("note: normalization fell back to mean-only on some items", file=sys.stderr)
    return 0


def _parse_grid(text: str) -> list[float]:
    """Comma-separated lambdas: finite, >= 0 and distinct."""
    try:
        grid = [float(v) for v in text.split(",") if v]
    except ValueError as e:
        raise ValidationError(f"bad --grid: {e}") from e
    if not grid:
        raise ValidationError("--grid is empty")
    seen = set()
    for lam in grid:
        if not (math.isfinite(lam) and lam >= 0):
            raise ValidationError(f"--grid values must be finite and >= 0, got {lam!r}")
        if lam in seen:
            raise ValidationError(f"--grid lists {lam!r} more than once")
        seen.add(lam)
    return grid


def cmd_tune_lambda(args) -> int:
    _check_acceleration(args)
    grid = _parse_grid(args.grid)
    dataset = datamod.load(args.dataset)
    cfg = FistaConfig()
    _check_extents(dataset, "tune-lambda", lambda s: check_levels(s, WAVELET_LEVELS),
                   metrics.check_window_fits)
    seed = args.seed if args.seed is not None else 0
    best, table = tune_lambda(dataset, grid, cfg, acceleration=args.acceleration, seed=seed)
    lines = ["lambda,mean_ssim,n_items"]
    for lam in grid:
        lines.append(f"{lam!r},{table[lam]!r},{len(dataset.items)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        out = _out_dir(args)
        (out / "tune_lambda.csv").write_text(text)
        # solver settings recorded alongside the table for auditability
        (out / "tune_lambda.json").write_text(json.dumps({
            "best_lambda": best, "grid": grid, "acceleration": args.acceleration,
            "seed": seed, "max_iters": cfg.max_iters, "step_size": STEP_SIZE,
            "tolerance": TOLERANCE, "wavelet_levels": WAVELET_LEVELS},
            sort_keys=True, indent=1))
    sys.stdout.write(text)
    print(f"best lambda: {best!r}", file=sys.stderr)
    return 0


def _features(dataset: datamod.Dataset, seed: int):
    try:
        return metrics.extract_features(dataset, seed=seed)
    except ValueError as e:  # an item whose every patch lies below the noise floor
        raise ValidationError(f"similarity cannot run on dataset {dataset.name!r}: {e}") from e


def cmd_similarity(args) -> int:
    train_set = datamod.load(args.train_dataset)
    test_set = datamod.load(args.test_dataset)
    for dataset in (train_set, test_set):
        _check_extents(dataset, "similarity", metrics.check_patch_fits)
    seed = args.seed if args.seed is not None else 0
    train_feats, test_feats = (_features(dataset, seed) for dataset in (train_set, test_set))
    report = metrics.nn_similarity(test_feats, train_feats)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=1)
    if args.out:
        (_out_dir(args) / "similarity.json").write_text(text)
    print(text)
    return 0


def cmd_robustness_report(args) -> int:
    try:
        text = Path(args.records).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read records {args.records}: {e}") from e
    records = harness.parse_records_csv(text)

    def points(model_id):
        return [(i.value, o.value)
                for i, o in harness.paired(records, model_id, args.id_set, args.ood_set)]

    baseline = points(args.baseline_model)
    candidates = [pt for mid in args.candidate_model or [] for pt in points(mid)]
    try:
        fit = metrics.effective_robustness_fit(baseline, candidates)
    except ValueError as e:  # fewer than two baseline pairs, or all id values equal
        raise ValidationError(f"baseline {args.baseline_model!r}: {e}") from e
    text = json.dumps(fit.to_dict(), sort_keys=True, indent=1)
    if args.out:
        (_out_dir(args) / "robustness.json").write_text(text)
    print(text)
    return 0


def cmd_toy_subspace(args) -> int:
    try:
        world = toy.SubspaceWorld(args.n, args.d, args.sigma_p, args.sigma_q,
                                  seed=args.seed if args.seed is not None else 0)
        table = toy.mse_table(world, count=args.samples, seed=world.seed)
    except ValueError as e:
        raise ValidationError(str(e)) from e
    text = json.dumps({**asdict(world), "samples": args.samples, "mse": table},
                      sort_keys=True, indent=1)
    if args.out:
        (_out_dir(args) / "toy_subspace.json").write_text(text)
    print(text)
    return 0


def cmd_run(args) -> int:
    config = _load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    cfg = harness.ExperimentConfig.from_dict(config)
    path = harness.run_experiment(cfg, _out_dir(args))
    print(f"report written to {path}")
    return 0


def _global_flags(p, suppress=False):
    kw = {"default": argparse.SUPPRESS} if suppress else {"default": None}
    p.add_argument("--seed", type=int, help="override experiment seed", **kw)
    p.add_argument("--out", help="output directory", **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shiftmri")
    _global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="materialize a synthetic dataset")
    p.add_argument("--spec", required=True, help="distribution spec JSON path")
    p.add_argument("--count", type=int, required=True)
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model per a JSON config")
    p.add_argument("--config", required=True)
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--acceleration", type=float, default=4.0)
    p.add_argument("--normalize", action="store_true")
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("tune-lambda", help="grid-search the l1 weight on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--grid", required=True, help="comma-separated lambdas")
    p.add_argument("--acceleration", type=float, default=4.0)
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_tune_lambda)

    p = sub.add_parser("similarity", help="nearest-neighbor feature similarity report")
    p.add_argument("--train-dataset", required=True)
    p.add_argument("--test-dataset", required=True)
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_similarity)

    p = sub.add_parser("robustness-report", help="effective-robustness fit from records")
    p.add_argument("--records", required=True, help="records.csv path")
    p.add_argument("--baseline-model", required=True)
    p.add_argument("--candidate-model", action="append")
    p.add_argument("--id-set", required=True)
    p.add_argument("--ood-set", required=True)
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_robustness_report)

    p = sub.add_parser("toy-subspace", help="subspace estimator MSE table")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--sigma-p", type=float, default=0.05)
    p.add_argument("--sigma-q", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=100_000)
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_toy_subspace)

    p = sub.add_parser("run", help="run an experiment template")
    p.add_argument("--config", required=True)
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, harness.ConfigError, datamod.FormatError,
            kspace.InfeasibleMaskError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
