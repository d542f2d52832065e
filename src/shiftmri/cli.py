"""Command-line front end.

Subcommands: gen-data, train, eval, tune-lambda, similarity,
robustness-report, toy-subspace, run. Config files are JSON. Exit codes:
0 success, 2 validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


from . import data as datamod
from . import harness, kspace, learned, metrics, toy
from .fista import FistaConfig, tune_lambda


class ValidationError(Exception):
    pass


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"no such file: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON in {path}: {e}") from e


def _out_dir(args) -> Path:
    if not args.out:
        raise ValidationError("--out is required for this command")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(args) -> int:
    spec = datamod.DistributionSpec.from_dict(_load_json(args.spec))
    if args.seed is not None:
        spec = datamod.replace(spec, seed=args.seed)
    dataset = datamod.generate(spec, args.count)
    datamod.save(dataset, _out_dir(args))
    print(f"wrote {len(dataset.items)} items to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_json(args.config)
    try:
        model_cfg = learned.ModelConfig.from_dict(cfg.get("model", {}))
        train_cfg = learned.TrainConfig.from_dict(cfg.get("train", {}))
    except (TypeError, ValueError) as e:
        raise ValidationError(str(e)) from e
    if args.seed is not None:
        train_cfg = learned.TrainConfig.from_dict({**train_cfg.to_dict(), "seed": args.seed})
    if "dataset" not in cfg:
        raise ValidationError("train config needs a 'dataset' path")
    train_set = datamod.load(cfg["dataset"])
    out = _out_dir(args)
    checkpoints, traces = learned.train(model_cfg, train_set, train_cfg)
    for ck in checkpoints:
        ck.save(out / f"epoch_{ck.epoch:03d}.ckpt")
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


def cmd_tune_lambda(args) -> int:
    _check_acceleration(args)
    dataset = datamod.load(args.dataset)
    try:
        grid = [float(v) for v in args.grid.split(",") if v]
    except ValueError as e:
        raise ValidationError(f"bad --grid: {e}") from e
    if not grid:
        raise ValidationError("--grid is empty")
    seed = args.seed if args.seed is not None else 0
    best, table = tune_lambda(dataset, grid, FistaConfig(), acceleration=args.acceleration,
                              seed=seed)
    lines = ["lambda,mean_ssim,n_items"]
    for lam in grid:
        lines.append(f"{lam!r},{table[lam]!r},{len(dataset.items)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        out = _out_dir(args)
        (out / "tune_lambda.csv").write_text(text)
        # solver settings recorded alongside the table for auditability
        cfg = FistaConfig()
        (out / "tune_lambda.json").write_text(json.dumps({
            "best_lambda": best, "grid": grid, "acceleration": args.acceleration,
            "seed": seed, "max_iters": cfg.max_iters, "tolerance": cfg.tolerance,
            "step_size": cfg.step_size, "wavelet_levels": cfg.wavelet_levels,
        }, sort_keys=True, indent=1))
    sys.stdout.write(text)
    print(f"best lambda: {best!r}", file=sys.stderr)
    return 0


def cmd_similarity(args) -> int:
    train_set = datamod.load(args.train_dataset)
    test_set = datamod.load(args.test_dataset)
    seed = args.seed if args.seed is not None else 0
    train_feats = metrics.extract_features(train_set, seed=seed)
    test_feats = metrics.extract_features(test_set, seed=seed)
    report = metrics.nn_similarity(test_feats, train_feats)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=1)
    if args.out:
        (_out_dir(args) / "similarity.json").write_text(text)
    print(text)
    return 0


def cmd_robustness_report(args) -> int:
    records = harness.parse_records_csv(Path(args.records).read_text())
    baseline = [(r.value, r2.value) for r, r2 in _paired(records, args.baseline_model,
                                                         args.id_set, args.ood_set)]
    candidates = []
    for mid in args.candidate_model or []:
        candidates.extend((r.value, r2.value)
                          for r, r2 in _paired(records, mid, args.id_set, args.ood_set))
    if len(baseline) < 2:
        raise ValidationError("need at least two baseline (id, ood) pairs")
    fit = metrics.effective_robustness_fit(baseline, candidates)
    text = json.dumps(fit.to_dict(), sort_keys=True, indent=1)
    if args.out:
        (_out_dir(args) / "robustness.json").write_text(text)
    print(text)
    return 0


def _paired(records, model_id, id_set, ood_set):
    by_epoch = {}
    for r in records:
        if r.model_id == model_id and r.metric == "ssim":
            if r.test_set == id_set:
                by_epoch.setdefault(r.epoch, [None, None])[0] = r
            elif r.test_set == ood_set:
                by_epoch.setdefault(r.epoch, [None, None])[1] = r
    pairs = [(v[0], v[1]) for _, v in sorted(by_epoch.items()) if v[0] and v[1]]
    if not pairs:
        raise ValidationError(
            f"no (id, ood) pairs for model {model_id!r} on {id_set!r}/{ood_set!r}")
    return pairs


def cmd_toy_subspace(args) -> int:
    world = toy.SubspaceWorld(args.n, args.d, args.sigma_p, args.sigma_q,
                              seed=args.seed if args.seed is not None else 0)
    table = toy.mse_table(world, count=args.samples, seed=world.seed)
    payload = {
        "n": args.n, "d": args.d, "sigma_p": args.sigma_p, "sigma_q": args.sigma_q,
        "samples": args.samples, "seed": world.seed, "mse": table,
    }
    text = json.dumps(payload, sort_keys=True, indent=1)
    if args.out:
        (_out_dir(args) / "toy_subspace.json").write_text(text)
    print(text)
    return 0


def cmd_run(args) -> int:
    raw = _load_json(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        cfg = harness.ExperimentConfig.from_dict(raw)
    except harness.ConfigError as e:
        raise ValidationError(str(e)) from e
    out = args.out or raw.get("out")
    if not out:
        raise ValidationError("output directory required (--out or config 'out')")
    path = harness.run_experiment(cfg, out)
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
    except (ValidationError, harness.ConfigError, datamod.DatasetFormatError,
            kspace.InfeasibleMaskError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
