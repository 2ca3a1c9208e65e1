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
previous width's best net padded with dead units, which makes the error
column non-increasing by construction.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from .classical import mlp_batch_forward, mlp_init, mlp_train
from .config import ConfigError, int_value, is_int, number_value, reject_unknown_keys
from .datasets import monomial_value
from .gradients import _scaled_norm
from .ioutil import fmt17
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
            raise ValueError("the benchmark target is bivariate")
        if not (0.0 < self.sample_low < self.sample_high <= 1.0):
            raise ValueError("sampling range must sit inside (0, 1]")
        if self.grid_points < 2 or self.restarts < 1:
            raise ValueError("grid_points >= 2 and restarts >= 1 required")
        if min(self.hidden_sizes, default=1) < 1 or self.train_count < 1:
            raise ValueError("hidden sizes and train_count must be positive")
        if min(self.classical_iters, self.graded_iters) < 0:
            raise ValueError("iteration counts must be nonnegative")


def _bench_value(key: str, value, default):
    """value as the type of the field's default, or a ConfigError naming key."""
    if isinstance(default, tuple):
        if isinstance(value, list) and all(is_int(m) for m in value):
            return tuple(value)
        raise ConfigError("%s must be a list of integers" % key)
    if isinstance(default, int):
        return int_value(value, key)
    return number_value(value, key)


def bench_config_from_dict(doc: dict) -> BenchConfig:
    reject_unknown_keys(doc, {f.name for f in fields(BenchConfig)}, "")
    kwargs = {"grading": parse_grading(doc.get("grading", "2,3"))}
    for f in fields(BenchConfig):
        if f.name in doc and f.name != "grading":
            kwargs[f.name] = _bench_value(f.name, doc[f.name], f.default)
    return BenchConfig(**kwargs)


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
    b0,
    lr: float,
    iters: int,
):
    """Full-batch GD on mean squared error with grade-scaled rates.

    w0 (n,) and a scalar b0 train one neuron; w0 (R, n) and b0 (R,) train R
    neurons as one stack, each slice computing exactly what a run of its own
    does.  Returns (w, b, losses, grad_norms, finite): the histories hold a
    float per iterate for one neuron and an (R,) array for R, and `finite`
    (a bool, or (R,)) marks the runs that stayed in the finite range; the
    values of the other runs mean nothing.  The weight gradient is
    `multiplicative_slope`'s (0 where |w_i| < 1e-12).  Rates follow the usual
    convention: lr/q_i for the weight tied to coordinate i, lr for the bias
    (scalar output, grade 1).
    """
    w = np.array(w0, dtype=float)
    b = np.array(b0, dtype=float)
    n = len(y)
    rate_w = lr / q
    sign = multiplicative_sign(k, x)
    finite = np.ones(b.shape, dtype=bool)
    losses: list = []
    grads: list = []  # (dw, db) per iterate; their norms are taken in one call
    for t in range(iters + 1):
        core = multiplicative_core(w, k, x, sign)
        diff = core + b[..., None] - y
        loss = np.mean(diff * diff, axis=-1)
        finite &= np.isfinite(loss)
        if not finite.any():
            break
        g = 2.0 * diff / n
        dw = (g[..., None] * multiplicative_slope(w, k, core)).sum(axis=-2)
        db = g.sum(axis=-1)
        losses.append(loss if loss.ndim else float(loss))
        grads.append(np.concatenate([dw, db[..., None]], axis=-1))
        if t == iters:
            break
        w -= rate_w * dw
        b -= lr * db
    finite &= np.all(np.isfinite(w), axis=-1)
    norms = _scaled_norm(np.array(grads), axis=-1) if grads else []
    grad_norms = [v if v.ndim else float(v) for v in norms]
    return w, b, losses, grad_norms, finite


def _pad_classical(weights, biases, m: int):
    """Embed a smaller hidden layer into width m with dead (zero) units."""
    w1, w2 = weights
    b1, b2 = biases
    m_prev = w1.shape[0]
    w1p = np.zeros((m, w1.shape[1]))
    w1p[:m_prev] = w1
    b1p = np.zeros(m)
    b1p[:m_prev] = b1
    w2p = np.zeros((w2.shape[0], m))
    w2p[:, :m_prev] = w2
    return [w1p, w2p], [b1p, b2.copy()]


def _graded_cell(cfg: BenchConfig, x_train, y_train, grid, y_grid) -> BenchRow:
    q = cfg.grading.floats
    k = q.copy()  # the target's own exponents: exact representation exists
    rng = _cell_rng(cfg.seed, "graded-1")
    # Training draws nothing from rng, so drawing every init first keeps the
    # draw order of one init-then-train pass per restart.
    w0 = rng.uniform(0.2, 0.9, size=(cfg.restarts, 2))
    w, b, _, _, finite = train_multiplicative(
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


def _classical_cell(
    cfg: BenchConfig, m: int, x_train, y_train, grid, y_grid, carry
) -> Tuple[BenchRow, Optional[tuple]]:
    rng = _cell_rng(cfg.seed, "classical-%d" % m)
    widths = [2, m, 1]
    acts = ["relu", "identity"]
    candidates = []
    if carry is not None:
        candidates.append(_pad_classical(*carry, m=m))
    # Training draws nothing from rng, so drawing every init first keeps the
    # draw order of one init-then-train pass per restart.
    init_w, init_b = zip(*[mlp_init(widths, rng) for _ in range(cfg.restarts)])
    weights, biases, _ = mlp_train(
        widths, [np.stack(ws) for ws in zip(*init_w)],
        [np.stack(bs) for bs in zip(*init_b)], x_train, y_train[:, None], acts,
        cfg.classical_learning_rate, cfg.classical_iters,
        momentum=cfg.classical_momentum)
    for r in range(cfg.restarts):
        if all(np.all(np.isfinite(w[r])) for w in weights):
            candidates.append(([w[r] for w in weights], [b[r] for b in biases]))
    if not candidates:
        return BenchRow("classical", m, float("inf"), float("inf"), "diverged"), carry
    best = None
    for weights, biases in candidates:
        pred_grid = mlp_batch_forward(weights, biases, grid, acts)[:, 0]
        err = float(np.max(np.abs(pred_grid - y_grid)))
        pred_train = mlp_batch_forward(weights, biases, x_train, acts)[:, 0]
        mse = float(np.mean((pred_train - y_train) ** 2))
        if best is None or err < best[0]:
            best = (err, mse, (weights, biases))
    row = BenchRow("classical", m, best[0], best[1])
    return row, best[2]


def approx_bench(cfg: BenchConfig) -> List[BenchRow]:
    data_rng = np.random.default_rng([cfg.seed, zlib.crc32(b"data")])
    x_train = data_rng.uniform(
        cfg.sample_low, cfg.sample_high, size=(cfg.train_count, 2))
    y_train = _target(cfg.grading, x_train)
    grid = _grid(cfg)
    y_grid = _target(cfg.grading, grid)

    rows = [_graded_cell(cfg, x_train, y_train, grid, y_grid)]
    carry = None
    for m in cfg.hidden_sizes:
        row, carry = _classical_cell(cfg, m, x_train, y_train, grid, y_grid, carry)
        rows.append(row)
    return rows


def write_bench_csv(rows: List[BenchRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("model,hidden_units,max_abs_error,train_mse,status\n")
        for r in rows:
            fh.write("%s,%d,%s,%s,%s\n" % (
                r.model, r.hidden_units, fmt17(r.max_abs_error),
                fmt17(r.train_mse), r.status))
