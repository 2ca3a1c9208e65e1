"""Command line harness: example verification, gradient checks, training
runs and the approximation benchmark, each a subcommand of build_parser;
main turns a command's fault into one error line and exit status 2 or 3.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .bench import approx_bench, bench_config_from_dict, write_bench_csv
from .config import build_dataset, load_experiment_config
from .gradients import DEFAULT_EPS, GRAD_CHECK_TOL, grad_check_suite
from .ioutil import ConfigError, check_writable, fmt17, read_json
from .network import random_network, save_network
from .optimizer import TrainingDivergenceError, train
from .spaces import GradedError
from .verify import format_report, verify_examples


def _cmd_verify_examples(args: argparse.Namespace) -> int:
    report = verify_examples()
    print(format_report(report))
    return 0 if report.ok() else 1


def _cmd_grad_check(args: argparse.Namespace) -> int:
    results = grad_check_suite(eps=args.eps, count=args.count, seed=args.seed)
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


def _write_metrics(path: Path, losses, grad_norms) -> None:
    text = "".join(json.dumps({"iter": i, "loss": float(loss), "grad_norm": float(gn)},
                              allow_nan=False) + "\n"
                   for i, (loss, gn) in enumerate(zip(losses, grad_norms)))
    path.write_text(text)


@contextlib.contextmanager
def _out_dir(path: Path):
    """Create the directory path, and its missing parents, for the run in
    the with block: a path that cannot be created fails before the run, and
    a run that fails removes the directories made here."""
    made = list(itertools.takewhile(lambda d: not os.path.lexists(d), (path, *path.parents)))
    try:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out_dir: cannot create output directory %s: %s"
                              % (path, exc)) from None
        yield
    except BaseException:
        for d in made:  # deepest first
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = load_experiment_config(args.config)
    ds = build_dataset(cfg)
    net = random_network([cfg.grading] + [g for g, _ in cfg.model.layers],
                         [a for _, a in cfg.model.layers],
                         np.random.default_rng(cfg.optimizer.seed),
                         exponents=cfg.model.exponents)
    with _out_dir(cfg.out_dir):
        result = train(net, ds.graded_inputs(), ds.graded_targets(), cfg.loss,
                       cfg.optimizer)
    metrics_path = cfg.out_dir / "metrics.jsonl"
    model_path = cfg.out_dir / "model.json"
    _write_metrics(metrics_path, result.losses, result.grad_norms)
    save_network(result.network, model_path)
    print(
        "train: %d iterations recorded, initial_loss=%s final_loss=%s "
        "stop=%s metrics=%s model=%s"
        % (len(result.losses) - 1, fmt17(result.initial_loss),
           fmt17(result.final_loss), result.stop_reason, metrics_path, model_path)
    )
    return 0


def _cmd_approx_bench(args: argparse.Namespace) -> int:
    cfg = bench_config_from_dict(read_json(args.config, "benchmark config"))
    check_writable(args.out)  # before any restart trains
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

    p = sub.add_parser("verify-examples", help="recompute the worked examples and report")
    p.set_defaults(func=_cmd_verify_examples)

    p = sub.add_parser("grad-check", help="finite-difference gradient check on random nets")
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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """One parser per process for main: parse_args returns a fresh namespace
    and keeps no state, and building the parser costs more than parsing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, GradedError, MemoryError) as exc:  # ConfigError included
        print("error: %s" % exc, file=sys.stderr)
        return 3 if isinstance(exc, TrainingDivergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
