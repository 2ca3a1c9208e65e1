"""Command line harness: example verification, gradient checks, training
runs, and the approximation benchmark.

Subcommands:
  verify-examples               recompute the worked examples, report rows
  grad-check [--eps E]          finite-difference check over random nets
  train --config PATH           full-batch training run from a JSON config
  approx-bench --config PATH --out CSV
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bench import (
    approx_bench,
    bench_config_from_dict,
    train_multiplicative,
    write_bench_csv,
)
from .config import ConfigError, ExperimentConfig, load_experiment_config
from .datasets import (
    Dataset,
    gen_invariant_proxy_dataset,
    gen_linear_map_dataset,
    gen_monomial_dataset,
    read_dataset_csv,
)
from .gradients import DEFAULT_EPS, GRAD_CHECK_TOL, grad_check_suite
from .ioutil import dumps17, fmt17
from .network import random_network, save_network
from .optimizer import TrainingDivergenceError, train
from .spaces import GradedError, GradingVector, ones_grading
from .verify import format_report, verify_examples


def _cmd_verify_examples(args: argparse.Namespace) -> int:
    report = verify_examples()
    print(format_report(report))
    return 0 if report.ok() else 1


def _cmd_grad_check(args: argparse.Namespace) -> int:
    try:
        results = grad_check_suite(eps=args.eps, count=args.count, seed=args.seed)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    by_loss = {}
    for name, err in results:
        # np.maximum keeps a NaN error, which then fails the check
        by_loss[name] = np.maximum(by_loss.get(name, 0.0), err)
    for name in sorted(by_loss):
        print("loss %-28s worst rel err %.3e" % (name, by_loss[name]))
    worst = np.max([err for _, err in results])
    ok = worst < GRAD_CHECK_TOL
    print(
        "grad-check: %s (%d cases, eps=%g, worst=%.3e, tol=%g)"
        % ("PASS" if ok else "FAIL", len(results), args.eps, worst, GRAD_CHECK_TOL)
    )
    return 0 if ok else 1


def _model_out_grading(cfg: ExperimentConfig) -> GradingVector:
    if cfg.model.kind == "feedforward":
        return cfg.model.layers[-1][0]
    return ones_grading(1)


def _build_dataset(cfg: ExperimentConfig) -> Dataset:
    src = cfg.dataset.source
    p = cfg.dataset.params
    out_g = _model_out_grading(cfg)
    if src == "csv":
        ds = read_dataset_csv(p["path"], cfg.grading, out_g)
        return ds
    seed = p.get("seed", cfg.seed)
    count = p.get("count", 256)
    if src == "monomial":
        if "exponents" not in p:
            raise ConfigError("monomial dataset needs exponents")
        exponents = [Fraction(str(k)) for k in p["exponents"]]
        if "box" in p:
            box = [(lo, hi) for lo, hi in p["box"]]
        else:
            lo, hi = p.get("low", 0.1), p.get("high", 2.0)
            box = [(lo, hi)] * len(cfg.grading)
        if len(out_g) != 1:
            raise ConfigError("monomial targets are scalar; model output must be 1-dim")
        return gen_monomial_dataset(
            cfg.grading, exponents, p.get("coefficient", 1.0),
            box, count, seed)
    if src == "linear_map":
        if any(g != 1 for g in cfg.grading.grades):
            raise ConfigError("linear_map datasets use the all-ones input grading")
        ds, _, _ = gen_linear_map_dataset(len(cfg.grading), out_g, count, seed)
        return ds
    if src == "invariant_proxy":
        if len(out_g) != 1:
            raise ConfigError("invariant_proxy targets are scalar")
        return gen_invariant_proxy_dataset(cfg.grading, count, seed)
    raise ConfigError("unknown dataset source %r" % src)


def _check_finite(losses, grad_norms) -> None:
    """A divergence naming the first non-finite loss or gradient norm."""
    for i, pair in enumerate(zip(losses, grad_norms)):
        for name, v in zip(("loss", "gradient norm"), pair):
            if not math.isfinite(v):
                raise TrainingDivergenceError(
                    "%s became non-finite at iteration %d" % (name, i))


def _write_metrics(path: Path, losses, grad_norms) -> None:
    _check_finite(losses, grad_norms)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for i, (loss, gn) in enumerate(zip(losses, grad_norms)):
            fh.write(
                '{"iter": %d, "loss": %s, "grad_norm": %s}\n'
                % (i, fmt17(loss), fmt17(gn))
            )


def _train_feedforward(cfg: ExperimentConfig, ds: Dataset):
    gradings = [cfg.grading] + [g for g, _ in cfg.model.layers]
    activations = [a for _, a in cfg.model.layers]
    rng = np.random.default_rng(cfg.optimizer.seed)
    net = random_network(gradings, activations, rng)
    result = train(net, ds.graded_inputs(), ds.graded_targets(), cfg.loss, cfg.optimizer)

    def save_model(path: Path) -> None:
        save_network(result.network, path)

    return result.losses, result.grad_norms, result.stop_reason, save_model


def _train_multiplicative(cfg: ExperimentConfig, ds: Dataset):
    if cfg.loss.name not in ("graded_mse", "graded_norm"):
        raise ConfigError(
            "multiplicative training supports graded_mse/graded_norm losses")
    k = np.array([float(v) for v in cfg.model.exponents])
    rng = np.random.default_rng(cfg.optimizer.seed)
    w0 = rng.uniform(0.2, 0.9, size=len(cfg.grading))
    w, b, losses, grad_norms, finite = train_multiplicative(
        ds.inputs, ds.targets[:, 0], k, cfg.grading.floats, w0, 0.0,
        cfg.optimizer.learning_rate, cfg.optimizer.max_iters)
    _check_finite(losses, grad_norms)
    if not finite:
        raise TrainingDivergenceError(
            "multiplicative run left the finite range at iteration %d; lower the "
            "learning rate or evaluate in the log domain" % len(losses))

    def save_model(path: Path) -> None:
        doc = {
            "kind": "multiplicative",
            "grading": cfg.grading.as_text(),
            "exponents": ",".join(str(v) for v in cfg.model.exponents),
            "weights": [float(v) for v in w],
            "bias": float(b),
        }
        with open(path, "w") as fh:
            fh.write(dumps17(doc))
            fh.write("\n")

    return losses, grad_norms, "max_iters", save_model


def _cmd_train(args: argparse.Namespace) -> int:
    try:
        cfg = load_experiment_config(args.config)
        ds = _build_dataset(cfg)
        if ds.in_grading != cfg.grading:
            raise ConfigError("dataset grading does not match the config grading")
        if cfg.model.kind == "feedforward":
            losses, grad_norms, stop, save_model = _train_feedforward(cfg, ds)
        else:
            losses, grad_norms, stop, save_model = _train_multiplicative(cfg, ds)
        metrics_path = cfg.out_dir / "metrics.jsonl"
        model_path = cfg.out_dir / "model.json"
        _write_metrics(metrics_path, losses, grad_norms)
        save_model(model_path)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except TrainingDivergenceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (OSError, ValueError, GradedError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(
        "train: %d iterations recorded, initial_loss=%s final_loss=%s "
        "stop=%s metrics=%s model=%s"
        % (len(losses) - 1, fmt17(losses[0]), fmt17(losses[-1]), stop,
           metrics_path, model_path)
    )
    return 0


def _cmd_approx_bench(args: argparse.Namespace) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("benchmark config root must be a JSON object")
        cfg = bench_config_from_dict(doc)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    rows = approx_bench(cfg)
    write_bench_csv(rows, args.out)
    for r in rows:
        print(
            "%-9s m=%-3d max_abs_error=%.6e status=%s"
            % (r.model, r.hidden_units, r.max_abs_error, r.status)
        )
    print("approx-bench: wrote %s" % args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graded-nn",
        description="graded neural network toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-examples", help="recompute the worked examples and report")
    p.set_defaults(func=_cmd_verify_examples)

    p = sub.add_parser(
        "grad-check", help="finite-difference gradient check on random nets")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS,
                   help="central-difference step (default 1e-5)")
    p.add_argument("--count", type=int, default=100,
                   help="number of random cases (default 100)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("train", help="run full-batch training from a config")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "approx-bench",
        help="graded neuron vs classical MLP approximation benchmark")
    p.add_argument("--config", required=True, help="JSON benchmark config")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_approx_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
