"""Approximation benchmark: one multiplicative graded neuron against plain
ReLU MLPs of growing width on the target f(x) = x_0^{q_0} x_1^{q_1}.

The target is exactly representable by the graded neuron (weights 1,
exponents equal to the grading), so its error is limited only by floating
point; a width-m ReLU net is piecewise linear and has to spend units on
curvature.  Each cell reports the max absolute error on a held-out grid.
Every cell keeps the best of several restarts, trained together as one
stacked run (`train_multiplicative` on the multiplicative kernel of
`network` for the graded neuron, `mlp_train` for a classical width), with
the same CSV as one run per restart.  Classical cells train with heavy-ball
momentum (plain GD stalls at larger widths); each width also considers the
previous width's row, because that width's best net padded with dead units
computes the same function.  The row keeps its score instead of a padded
net being scored again at the wider width, where a different summation
order could raise the error by an ulp; that makes the error column
non-increasing.

The widths train and score independently, and only their (error, mse)
pairs reach the rows.  With two or more usable CPUs, one thread and two or
more distinct widths, a forked child trains and scores every other width
from the largest down while this process runs the graded cell and the
other widths; the CSV is the same either way.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields
from typing import List, Tuple

import numpy as np

from .classical import mlp_batch_forward, mlp_init, mlp_train
from .datasets import monomial_value
from .ioutil import (
    ConfigError,
    _can_split,
    _split_run,
    fmt17,
    grading_value,
    int_value,
    list_value,
    number_value,
    read_object,
    str_value,
)
from .network import multiplicative_core, multiplicative_sign, multiplicative_slope
from .spaces import GradingVector, parse_grading


@dataclass(frozen=True)
class BenchConfig:
    grading: GradingVector
    hidden_sizes: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    train_count: int = 192
    sample_low: float = 0.05
    sample_high: float = 1.0
    grid_points: int = 101
    grid_low: float = 0.01
    grid_high: float = 1.0
    restarts: int = 5
    classical_iters: int = 5000
    classical_learning_rate: float = 0.01
    classical_momentum: float = 0.95
    graded_iters: int = 300
    graded_learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if len(self.grading) != 2:
            raise ValueError("grading must have 2 coordinates: the benchmark target "
                             "is bivariate")
        if not 0.0 < self.sample_high <= 1.0:
            raise ValueError("sample_high must lie in (0, 1]")
        if not 0.0 < self.sample_low < self.sample_high:
            raise ValueError("sample_low must be positive and below sample_high")
        for name, low in (("grid_points", 2), ("restarts", 1), ("train_count", 1),
                          ("classical_iters", 0), ("graded_iters", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError("%s must be >= %d" % (name, low))
        if min(self.hidden_sizes, default=1) < 1:
            raise ValueError("hidden_sizes must all be >= 1")
        if list(self.hidden_sizes) != sorted(self.hidden_sizes):
            raise ValueError("hidden_sizes must be non-decreasing")
        if not 0.0 < self.grid_low < self.grid_high:
            raise ValueError("grid_low must be positive and below grid_high")
        # the target grows in each coordinate, so the corner is its largest value
        with np.errstate(over="ignore"):
            corner = _target(self.grading, np.full((1, 2), self.grid_high))
        if not np.isfinite(corner).all():
            raise ValueError("grid_high: the target overflows a float64 at "
                             "(grid_high, grid_high)")
        for name in ("classical_learning_rate", "graded_learning_rate"):
            if not getattr(self, name) > 0:
                raise ValueError("%s must be positive" % name)
        if not 0.0 <= self.classical_momentum < 1.0:
            raise ValueError("classical_momentum must lie in [0, 1)")


# every setting is optional and takes the type of its default
_CHECKERS = {tuple: lambda v, path: tuple(list_value(v, path, int_value)),
             int: int_value, float: number_value}
_BENCH_KEYS = {f.name: (False, _CHECKERS.get(type(f.default))) for f in fields(BenchConfig)}
_BENCH_KEYS["grading"] = (False, lambda v, path: grading_value(str_value(v, path), path))


def bench_config_from_dict(doc: dict) -> BenchConfig:
    settings = read_object(doc, _BENCH_KEYS, "", "benchmark config root")
    return BenchConfig(**{"grading": parse_grading("2,3"), **settings})


@dataclass
class BenchRow:
    model: str
    hidden_units: int
    max_abs_error: float
    train_mse: float
    status: str = "ok"


def _cell_rng(seed: int, cell: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(cell.encode())])


def _target(q: GradingVector, x: np.ndarray) -> np.ndarray:
    return monomial_value(x, q.grades, 1.0)


def _grid(cfg: BenchConfig) -> np.ndarray:
    side = np.linspace(cfg.grid_low, cfg.grid_high, cfg.grid_points)
    a, b = np.meshgrid(side, side, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


def train_multiplicative(
    x: np.ndarray,
    y: np.ndarray,
    k: np.ndarray,
    q: np.ndarray,
    w0: np.ndarray,
    b0: np.ndarray,
    lr: float,
    iters: int,
):
    """Full-batch GD on mean squared error with grade-scaled rates, for R
    neurons as one stack from weights w0 (R, n) and biases b0 (R,); each
    slice computes exactly what a run of its own does.

    Returns (w, b, finite): `finite` (R,) marks the runs whose loss stayed
    finite at every iterate, the final one included, and whose weights are
    finite; the values of the other runs mean nothing.  The weight gradient
    is `multiplicative_slope`'s (0 where |w_i| < 1e-12).  Rates follow the
    usual convention: lr/q_i for the weight tied to coordinate i, lr for the
    bias (scalar output, grade 1).  `graded-nn train` trains the same neuron
    as a multiplicative first layer of the shared engine.
    """
    w = np.array(w0, dtype=float)
    b = np.array(b0, dtype=float)
    n = len(y)
    rate_w = lr / q
    sign = multiplicative_sign(k, x)
    finite = np.ones(b.shape, dtype=bool)
    for t in range(iters + 1):
        core = multiplicative_core(w, k, x, sign)
        diff = core + b[..., None] - y
        finite &= np.isfinite(np.mean(diff * diff, axis=-1))
        if t == iters or not finite.any():
            break
        g = 2.0 * diff / n
        w -= rate_w * (g[..., None] * multiplicative_slope(w, k, core)).sum(axis=-2)
        b -= lr * g.sum(axis=-1)
    finite &= np.all(np.isfinite(w), axis=-1)
    return w, b, finite


def _graded_cell(cfg: BenchConfig, x_train, y_train, grid, y_grid) -> BenchRow:
    q = cfg.grading.floats
    k = q.copy()  # the target's own exponents: exact representation exists
    rng = _cell_rng(cfg.seed, "graded-1")
    # Training draws nothing from rng, so drawing every init first keeps the
    # draw order of one init-then-train pass per restart.
    w0 = rng.uniform(0.2, 0.9, size=(cfg.restarts, 2))
    w, b, finite = train_multiplicative(
        x_train, y_train, k, q, w0, np.zeros(cfg.restarts),
        cfg.graded_learning_rate, cfg.graded_iters)
    # the analytic solution w=1, b=0 first, then the finite restarts
    ws = np.concatenate([np.ones((1, 2)), w[finite]])
    bs = np.concatenate([[0.0], b[finite]])
    pred_grid = multiplicative_core(ws, k, grid, multiplicative_sign(k, grid))
    pred_train = multiplicative_core(ws, k, x_train, multiplicative_sign(k, x_train))
    errs = np.max(np.abs(pred_grid + bs[:, None] - y_grid), axis=-1)
    mses = np.mean((pred_train + bs[:, None] - y_train) ** 2, axis=-1)
    best = int(np.nanargmin(errs))  # the first smallest error
    return BenchRow("graded", 1, float(errs[best]), float(mses[best]))


_ACTS = ("relu", "identity")


def _score_classical(weights, biases, x_train, y_train, grid, y_grid) -> Tuple[float, float]:
    """(max abs error on the grid, training mse) of one classical net."""
    pred_grid = mlp_batch_forward(weights, biases, grid, _ACTS)[:, 0]
    pred_train = mlp_batch_forward(weights, biases, x_train, _ACTS)[:, 0]
    return (float(np.max(np.abs(pred_grid - y_grid))),
            float(np.mean((pred_train - y_train) ** 2)))


def _fit_widths(cfg: BenchConfig, widths, data) -> dict:
    """Per width m: the (error, mse) of its restarts in restart order,
    trained as one stacked run and scored one net at a time, keeping a
    restart when its weights and both scores are finite."""
    x_train, y_train = data[:2]
    fits = {}
    for m in widths:
        rng = _cell_rng(cfg.seed, "classical-%d" % m)
        # Training draws nothing from rng, so drawing every init first keeps
        # the draw order of one init-then-train pass per restart.
        init_w, init_b = zip(*[mlp_init([2, m, 1], rng) for _ in range(cfg.restarts)])
        weights, biases, _ = mlp_train(
            [2, m, 1], [np.stack(ws) for ws in zip(*init_w)],
            [np.stack(bs) for bs in zip(*init_b)], x_train, y_train[:, None], _ACTS,
            cfg.classical_learning_rate, cfg.classical_iters,
            momentum=cfg.classical_momentum)
        scores = (_score_classical([w[r] for w in weights], [b[r] for b in biases], *data)
                  for r in range(cfg.restarts)
                  if all(np.all(np.isfinite(w[r])) for w in weights))
        fits[m] = [s for s in scores if np.isfinite(s).all()]
    return fits


def approx_bench(cfg: BenchConfig) -> List[BenchRow]:
    data_rng = np.random.default_rng([cfg.seed, zlib.crc32(b"data")])
    x_train = data_rng.uniform(
        cfg.sample_low, cfg.sample_high, size=(cfg.train_count, 2))
    y_train = _target(cfg.grading, x_train)
    grid = _grid(cfg)
    y_grid = _target(cfg.grading, grid)
    data = (x_train, y_train, grid, y_grid)

    widths = sorted(set(cfg.hidden_sizes), reverse=True)
    # A diverging restart overflows or turns nan, and `finite` and the
    # finite-weight test drop it, so numpy's warning would only repeat that;
    # a forked child inherits the setting.
    with np.errstate(over="ignore", invalid="ignore"):
        if len(widths) >= 2 and _can_split():
            fits, (graded, ours) = _split_run(
                lambda: _fit_widths(cfg, widths[0::2], data),
                lambda: (_graded_cell(cfg, *data), _fit_widths(cfg, widths[1::2], data)))
            fits.update(ours)
        else:
            graded, fits = _graded_cell(cfg, *data), _fit_widths(cfg, widths, data)

    rows, best = [graded], None
    for m in cfg.hidden_sizes:
        # best starts as the previous row: its net padded with dead units
        # computes the same function, so it keeps its score
        for score in fits[m]:
            if best is None or score[0] < best[0]:  # a tie keeps the earlier
                best = score
        rows.append(BenchRow("classical", m, *best) if best is not None else
                    BenchRow("classical", m, float("inf"), float("inf"), "diverged"))
    return rows


def write_bench_csv(rows: List[BenchRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("model,hidden_units,max_abs_error,train_mse,status\n")
        for r in rows:
            fh.write("%s,%d,%s,%s,%s\n" % (
                r.model, r.hidden_units, fmt17(r.max_abs_error),
                fmt17(r.train_mse), r.status))
