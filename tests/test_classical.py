"""The classical MLP and the benchmark's multiplicative neuron on stacked
runs: R nets of one shape along a leading axis must train exactly as R
single-net calls, both must compute exactly what their one-run-per-restart
reference loops below compute, and the approximation benchmark must report
what one training run per restart reports."""

import math
import os
import signal
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest

from gradednn import bench, ioutil
from gradednn.classical import (
    check_shapes,
    classical_mlp_forward,
    mlp_batch_forward,
    mlp_init,
    mlp_train,
)
from gradednn.gradients import network_backward
from gradednn.losses import LossKind
from gradednn.network import (
    ActivationKind,
    Layer,
    Network,
    multiplicative_core,
    multiplicative_sign,
)
from gradednn.spaces import GradedDomainError, GradingVector, ones_grading

WIDTHS = [3, 5, 2]
RTOL = 1e-12


def _data():
    rng = np.random.default_rng(11)
    X = rng.uniform(-1.0, 1.0, size=(40, 3))
    Y = np.column_stack([X[:, 0] * X[:, 1], np.sin(X[:, 2])])
    return X, Y


def _stack(nets):
    weights = [np.stack(ws) for ws in zip(*(w for w, _ in nets))]
    biases = [np.stack(bs) for bs in zip(*(b for _, b in nets))]
    return weights, biases


def _close(a, b):
    scale = max(np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= RTOL * scale


def _same(a, b):
    """Bit-for-bit, with NaN equal to NaN (diverged slices)."""
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def _ref_mlp_train(weights, biases, X, Y, activations, lr, iters, momentum):
    """Full-batch GD of one net or a stack, the loop `mlp_train` must
    reproduce exactly: every activation and slope a new array, the loss by
    np.mean, every product a matmul."""
    weights = [w.copy() for w in weights]
    biases = [b.copy() for b in biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    n = X.shape[0]
    losses = []
    for t in range(iters + 1):
        zs, outs, cur = [], [X], X
        for w, b, a in zip(weights, biases, activations):
            z = cur @ np.swapaxes(w, -1, -2)
            z += b[..., None, :]
            cur = _REF_ACT[a](z)
            zs.append(z)
            outs.append(cur)
        diff = cur - Y
        loss = np.mean(np.sum(diff * diff, axis=-1), axis=-1)
        losses.append(loss if loss.ndim else float(loss))
        if t == iters:
            break
        g = 2.0 * diff / n
        for l in range(len(weights) - 1, -1, -1):
            dz = g
            dz *= _REF_SLOPE[activations[l]](zs[l])
            gw = np.swapaxes(dz, -1, -2) @ outs[l]
            gb = dz.sum(axis=-2)
            g = dz @ weights[l] if l else None
            vel_w[l] = momentum * vel_w[l] - lr * gw
            vel_b[l] = momentum * vel_b[l] - lr * gb
            weights[l] += vel_w[l]
            biases[l] += vel_b[l]
    return weights, biases, losses


_REF_ACT = {"relu": lambda z: np.maximum(z, 0.0), "expm1": np.expm1,
            "identity": lambda z: z + 0.0}
_REF_SLOPE = {"relu": lambda z: z > 0.0, "expm1": np.exp, "identity": np.ones_like}


def _ref_forward(weights, biases, X, activations):
    for w, b, a in zip(weights, biases, activations):
        X = _REF_ACT[a](X @ np.swapaxes(w, -1, -2) + b[..., None, :])
    return X


def _ref_mult_core(w, k, x):
    if np.any((k != np.round(k)) & np.any(x <= 0.0, axis=0)):
        raise GradedDomainError("fractional exponents need positive inputs")
    sign = np.where((x < 0.0) & (np.mod(k, 2.0) == 1.0), -1.0, 1.0)
    return np.prod(sign * np.abs(w * x) ** k, axis=1)


def _ref_mult_predict(w, b, k, x):
    return _ref_mult_core(w, k, x) + b


def _ref_norm(v):
    """Euclidean norm scaled by the largest magnitude."""
    big = np.max(np.abs(v))
    if big == 0.0 or not np.isfinite(big):
        return float(big)
    return float(big * np.sqrt(np.sum((v / big) ** 2)))


def _ref_train_multiplicative(x, y, k, q, w0, b0, lr, iters):
    """One neuron's run, the loop `train_multiplicative` must reproduce
    exactly; None when the run leaves the finite range.  The weight
    gradient is formed from the product itself, never as prediction minus
    bias, which would cancel when |core| is far below |b|."""
    w = np.array(w0, dtype=float)
    b = float(b0)
    n = len(y)
    losses, grad_norms = [], []
    for _ in range(iters + 1):
        core = _ref_mult_core(w, k, x)
        diff = core + b - y
        loss = float(np.mean(diff * diff))
        if not np.isfinite(loss):
            return None
        g = 2.0 * diff / n
        safe = np.where(np.abs(w) < 1e-12, np.inf, np.abs(w))
        dw = (g[:, None] * (core[:, None] * (k * np.sign(w) / safe))).sum(axis=0)
        db = float(g.sum())
        losses.append(loss)
        grad_norms.append(_ref_norm(np.append(dw, db)))
        if len(losses) == iters + 1:
            break
        w = w - (lr / q) * dw
        b = b - lr * db
    if not np.all(np.isfinite(w)):
        return None
    return w, b, losses, grad_norms


@pytest.mark.parametrize("acts", [["relu", "identity"], ["expm1", "identity"]])
def test_stacked_train_matches_single_net_calls(acts):
    X, Y = _data()
    rng = np.random.default_rng(5)
    nets = [mlp_init(WIDTHS, rng) for _ in range(3)]
    weights, biases, losses = mlp_train(
        WIDTHS, *_stack(nets), X, Y, acts, 0.05, 60, momentum=0.9)
    assert len(losses) == 61 and all(l.shape == (3,) for l in losses)
    for r, (w0, b0) in enumerate(nets):
        w1, b1, solo = mlp_train(WIDTHS, w0, b0, X, Y, acts, 0.05, 60, momentum=0.9)
        assert all(isinstance(l, float) for l in solo)
        assert _close([l[r] for l in losses], solo)
        for stacked, single in zip(weights + biases, w1 + b1):
            assert _close(stacked[r], single)
        pred = mlp_batch_forward(weights, biases, X, acts)
        assert pred.shape == (3, 40, 2)
        assert _close(pred[r], mlp_batch_forward(w1, b1, X, acts))


def test_diverged_restart_stays_in_its_own_slice():
    X, Y = _data()
    acts = ["relu", "identity"]
    rng = np.random.default_rng(7)
    nets = [mlp_init(WIDTHS, rng) for _ in range(3)]
    nets[1] = ([30.0 * w for w in nets[1][0]], nets[1][1])
    with np.errstate(all="ignore"):
        weights, biases, losses = mlp_train(
            WIDTHS, *_stack(nets), X, Y, acts, 0.05, 60, momentum=0.9)
    assert not np.isfinite(losses[-1][1])
    assert not all(np.all(np.isfinite(w[1])) for w in weights)
    for r in (0, 2):
        w1, b1, solo = mlp_train(WIDTHS, *nets[r], X, Y, acts, 0.05, 60, momentum=0.9)
        assert np.isfinite(solo[-1])
        assert _close([l[r] for l in losses], solo)
        for stacked, single in zip(weights + biases, w1 + b1):
            assert _close(stacked[r], single)


def test_check_shapes_rejects_mismatched_leading_axes():
    rng = np.random.default_rng(0)
    (w_a, w_b), (b_a, b_b) = _stack([mlp_init(WIDTHS, rng) for _ in range(3)])
    check_shapes(WIDTHS, [w_a, w_b], [b_a, b_b])
    with pytest.raises(ValueError, match="layer 1 weight"):
        check_shapes(WIDTHS, [w_a, w_b[:2]], [b_a, b_b])
    with pytest.raises(ValueError, match="layer 0 bias"):
        check_shapes(WIDTHS, [w_a, w_b], [b_a[:2], b_b])
    with pytest.raises(ValueError, match="layer 1 weight"):
        check_shapes(WIDTHS, [w_a, w_b[0]], [b_a, b_b])


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("widths", [
    [3, 5, 2], [3, 5, 1], [3, 5, 4, 2], [3, 5, 4, 1],
    # approx-bench's shapes: hidden width 1 sums its bias gradient with
    # `sum`, widths 2 and up with einsum
    [2, 1, 1], [2, 2, 1], [2, 32, 1],
])
@pytest.mark.parametrize("hidden", ["relu", "expm1", "identity"])
def test_mlp_train_matches_the_reference_loop_bit_for_bit(hidden, widths, stacked):
    X, Y = _data()
    X, Y = X[:, :widths[0]], Y[:, :widths[-1]]
    acts = [hidden] * (len(widths) - 2) + ["identity"]
    rng = np.random.default_rng(len(widths) * 10 + widths[-1])
    if stacked:
        weights, biases = _stack([mlp_init(widths, rng, 0.5) for _ in range(4)])
    else:
        weights, biases = mlp_init(widths, rng, 0.5)
    got_w, got_b, got_losses = mlp_train(
        widths, weights, biases, X, Y, acts, 0.01, 40, momentum=0.9)
    want_w, want_b, want_losses = _ref_mlp_train(
        weights, biases, X, Y, acts, 0.01, 40, 0.9)
    assert np.all(np.isfinite(got_losses[-1]))
    assert all(_same(a, b) for a, b in zip(got_w + got_b, want_w + want_b))
    assert _same(got_losses, want_losses)
    assert all(isinstance(l, float) for l in got_losses) != stacked
    assert _same(mlp_batch_forward(got_w, got_b, X, acts),
                 _ref_forward(got_w, got_b, X, acts))


@pytest.mark.parametrize("stacked", [False, True])
def test_mlp_train_mutates_nothing_and_returns_its_own_arrays(stacked):
    X, Y = _data()
    rng = np.random.default_rng(2)
    if stacked:
        weights, biases = _stack([mlp_init(WIDTHS, rng) for _ in range(3)])
    else:
        weights, biases = mlp_init(WIDTHS, rng)
    inputs = weights + biases + [X, Y]
    before = [a.copy() for a in inputs]
    got_w, got_b, _ = mlp_train(WIDTHS, weights, biases, X, Y,
                                ["relu", "identity"], 0.05, 5, momentum=0.9)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
    out = got_w + got_b
    assert [a.shape for a in out] == [a.shape for a in weights + biases]
    for i, a in enumerate(out):
        assert not any(np.shares_memory(a, b) for b in out[i + 1:] + inputs)


def _entry_point_case():
    widths = [2, 3, 1]
    rng = np.random.default_rng(0)
    weights, biases = mlp_init(widths, rng)
    X = rng.uniform(-1.0, 1.0, size=(8, 2))
    return widths, weights, biases, X, X[:, :1] * X[:, 1:]


@pytest.mark.parametrize("acts", [["relu"], ["relu", "identity", "identity"]],
                         ids=["one_too_few", "one_too_many"])
def test_classical_entry_points_need_one_activation_per_layer(acts):
    """One activation too few used to give the hidden layer's (8, 3) output
    from mlp_batch_forward and an IndexError from mlp_train; one too many
    was ignored."""
    widths, weights, biases, X, Y = _entry_point_case()
    with pytest.raises(ValueError, match="need one activation per layer"):
        mlp_batch_forward(weights, biases, X, acts)
    with pytest.raises(ValueError, match="need one activation per layer"):
        mlp_train(widths, weights, biases, X, Y, acts, 0.05, 3)
    with pytest.raises(ValueError, match="need one activation per layer"):
        classical_mlp_forward(widths, weights, biases, X[0], acts)


@pytest.mark.parametrize("keep", [1, 3], ids=["one_too_few", "one_too_many"])
def test_mlp_batch_forward_needs_one_bias_per_weight(keep):
    """One bias too few used to give the hidden layer's (8, 3) output; one
    too many was ignored."""
    _, weights, biases, X, _ = _entry_point_case()
    biases = (biases + [np.zeros(1)])[:keep]
    with pytest.raises(ValueError, match="need one weight/bias pair per layer"):
        mlp_batch_forward(weights, biases, X, ["relu", "identity"])


@pytest.mark.parametrize("x_shape, y_shape", [
    ((8, 3), (8, 1)), ((8,), (8, 1)), ((2, 8, 2), (8, 1)),
    ((8, 2), (8,)), ((8, 2), (8, 2)), ((8, 2), (7, 1)), ((8, 2), (2, 8, 1)),
], ids=["x_width", "x_1d", "x_3d", "y_1d", "y_width", "y_rows", "y_3d"])
def test_mlp_train_refuses_data_that_does_not_fit_the_widths(x_shape, y_shape):
    """A 1-D Y of 8 rows used to broadcast the residual to (8, 8) first."""
    widths, weights, biases, _, _ = _entry_point_case()
    with pytest.raises(ValueError, match=r"X must be \(N, 2\) and Y \(N, 1\)"):
        mlp_train(widths, weights, biases, np.zeros(x_shape), np.zeros(y_shape),
                  ["relu", "identity"], 0.05, 3)


def _row_by_row(a):
    acc = a[..., 0, :].copy()
    for i in range(1, a.shape[-2]):
        acc += a[..., i, :]
    return acc


@pytest.mark.parametrize("seed", range(5))
def test_numpy_sums_the_bias_gradient_in_the_order_mlp_train_assumes(seed):
    """mlp_train keeps the reference loop's `dz.sum(axis=-2)` bits by summing
    dz of width >= 2 with einsum and an (N, 1) column with `sum`.  A numpy
    whose summation order differs fails here, not in an approx-bench CSV."""
    rng = np.random.default_rng(seed)
    wide = rng.normal(size=(5, 192, 4)) * np.exp(rng.normal(scale=8.0, size=(5, 192, 4)))
    assert _same(wide.sum(axis=-2), _row_by_row(wide))
    assert _same(np.einsum("...nm->...m", wide), _row_by_row(wide))
    column = wide[..., :1].copy()
    pairwise = np.array([[np.sum(np.ascontiguousarray(c))] for c in column[..., 0]])
    assert _same(column.sum(axis=-2), pairwise)
    # summed row by row, as einsum sums it, the column moves
    assert not _same(_row_by_row(column), pairwise)


@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("hidden, widths", [
    ("relu", [3, 5, 1]), ("relu", [3, 5, 4, 1]),
    ("expm1", [3, 5, 1]), ("expm1", [3, 5, 2]),
])
def test_mlp_train_diverging_slice_matches_the_reference_loop(hidden, widths, momentum):
    X, Y = _data()
    Y = Y[:, :widths[-1]]
    acts = [hidden] * (len(widths) - 2) + ["identity"]
    rng = np.random.default_rng(7)
    nets = [mlp_init(widths, rng) for _ in range(3)]
    nets[1] = ([1e4 * w for w in nets[1][0]], nets[1][1])
    with np.errstate(all="ignore"):
        got = mlp_train(widths, *_stack(nets), X, Y, acts, 0.02, 60, momentum=momentum)
        want = _ref_mlp_train(*_stack(nets), X, Y, acts, 0.02, 60, momentum)
    assert not np.isfinite(got[2][-1][1]) and np.all(np.isfinite(got[2][-1][[0, 2]]))
    assert all(_same(a, b) for a, b in zip(got[0] + got[1], want[0] + want[1]))
    assert _same(got[2], want[2])


def _mult_data(negative):
    """Odd and even integer exponents on inputs of both signs, or
    fractional exponents on positive inputs."""
    rng = np.random.default_rng(3)
    if negative:
        x = rng.uniform(-1.0, 1.0, size=(30, 3))
        k = np.array([3.0, 2.0, 1.0])
    else:
        x = rng.uniform(0.05, 1.0, size=(30, 3))
        k = np.array([1.5, 0.5, 2.0])
    y = _ref_mult_predict(np.array([0.8, 1.2, 0.6]), 0.1, k, x)
    return x, y, k, np.array([1.0, 2.0, 3.0])


def _check_against_per_restart_runs(x, y, k, q, w0, b0, lr, iters):
    """Each slice of one stacked run against its own reference run; returns
    the slices that left the finite range."""
    w, b, finite = bench.train_multiplicative(x, y, k, q, w0, b0, lr, iters)
    assert finite.shape == b0.shape
    diverged = []
    for r in range(len(b0)):
        ref = _ref_train_multiplicative(x, y, k, q, w0[r], b0[r], lr, iters)
        assert finite[r] == (ref is not None)
        if ref is None:
            diverged.append(r)
            continue
        assert _same(w[r], ref[0]) and b[r] == ref[1]
    return diverged


@pytest.mark.parametrize("lr", [0.05, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("negative", [False, True])
@pytest.mark.parametrize("restarts", [1, 5])
def test_stacked_train_multiplicative_matches_per_restart_runs(restarts, negative, lr):
    x, y, k, q = _mult_data(negative)
    rng = np.random.default_rng(restarts)
    w0 = rng.uniform(0.2, 0.9, size=(restarts, 3))
    b0 = rng.uniform(-0.1, 0.1, size=restarts)
    with np.errstate(all="ignore"):
        _check_against_per_restart_runs(x, y, k, q, w0, b0, lr, 80)


@pytest.mark.parametrize("negative", [False, True])
def test_diverging_multiplicative_slice_leaves_the_others_untouched(negative):
    x, y, k, q = _mult_data(negative)
    w0 = np.array([[0.5, 0.7, 0.4], [40.0, 40.0, 40.0], [0.9, 0.3, 0.6]])
    with np.errstate(all="ignore"):
        diverged = _check_against_per_restart_runs(
            x, y, k, q, w0, np.zeros(3), 0.05, 80)
    assert diverged == [1]


def test_stacked_kernel_matches_one_neuron_at_a_time():
    x, _, k, _ = _mult_data(True)
    w = np.array([[0.5, 0.7, 0.4], [1.0, -2.0, 0.3]])
    b = np.array([0.0, 0.25])
    pred = multiplicative_core(w, k, x, multiplicative_sign(k, x)) + b[:, None]
    assert pred.shape == (2, 30)
    for r in range(2):
        assert _same(pred[r], _ref_mult_predict(w[r], b[r], k, x))
    with pytest.raises(GradedDomainError, match=r"^fractional exponent 0\.5 of input 0 needs "
                                                r"positive inputs, got -0\.828702 in row 0$"):
        multiplicative_sign(np.array([0.5, 1.0, 1.0]), x)


# Both predictions round to the bias 0.25 and the residuals +-0.5 cancel in
# db; the weight gradient, built from the cores 1e-18 and 2e-18, is -0.5e-18
# per weight, which prediction minus bias reads as 0.
_TINY_X = np.array([[1e-9, 1e-9], [2e-9, 1e-9]])
_TINY_Y = np.array([-0.25, 0.75])


def test_weight_gradient_survives_a_large_bias():
    """One step at lr = 1e3 moves each weight by 5e-16, to the float above
    1; a gradient of 0 would leave it at exactly 1."""
    k = np.ones(2)
    w, _, finite = bench.train_multiplicative(
        _TINY_X, _TINY_Y, k, k, np.ones((1, 2)), np.array([0.25]), 1e3, 1)
    assert finite[0] and np.array_equal(w[0], np.full(2, 1.0000000000000004))
    assert _same(w[0], _ref_train_multiplicative(
        _TINY_X, _TINY_Y, k, k, np.ones(2), 0.25, 1e3, 1)[0])


def test_engine_weight_gradient_survives_a_large_bias():
    """The same case through network_backward on a multiplicative layer,
    the gradient `graded-nn train` uses."""
    layer = Layer(np.ones((1, 2)), np.array([0.25]), ActivationKind.IDENTITY,
                  GradingVector([1, 1]), ones_grading(1), exponents=(1, 1))
    bundle = network_backward(Network([layer]), _TINY_X, _TINY_Y[:, None],
                              LossKind.graded_mse())
    assert np.array_equal(bundle.weight_grads[0], np.full((1, 2), -0.5e-18))
    assert bundle.grad_norm() == pytest.approx(math.sqrt(2) * 0.5e-18, rel=1e-12)


def _per_restart_rows(cfg):
    """approx_bench with one init-then-train pass per restart through the
    reference loops above, the table the stacked cells must reproduce."""
    data_rng = np.random.default_rng([cfg.seed, zlib.crc32(b"data")])
    x = data_rng.uniform(cfg.sample_low, cfg.sample_high, size=(cfg.train_count, 2))
    y = bench._target(cfg.grading, x)
    grid = bench._grid(cfg)
    y_grid = bench._target(cfg.grading, grid)
    q = cfg.grading.floats
    rng = bench._cell_rng(cfg.seed, "graded-1")
    candidates = [(np.ones(2), 0.0)]
    for _ in range(cfg.restarts):
        fit = _ref_train_multiplicative(
            x, y, q, q, rng.uniform(0.2, 0.9, size=2), 0.0,
            cfg.graded_learning_rate, cfg.graded_iters)
        if fit is not None:
            candidates.append(fit[:2])
    best = None
    for w, b in candidates:
        err = float(np.max(np.abs(_ref_mult_predict(w, b, q, grid) - y_grid)))
        mse = float(np.mean((_ref_mult_predict(w, b, q, x) - y) ** 2))
        if best is None or err < best[0]:
            best = (err, mse)
    rows = [bench.BenchRow("graded", 1, *best)]
    acts = ["relu", "identity"]
    best = None
    for m in cfg.hidden_sizes:
        rng = bench._cell_rng(cfg.seed, "classical-%d" % m)
        # the previous width's best, padded with dead units, keeps its score
        for _ in range(cfg.restarts):
            w, b = mlp_init([2, m, 1], rng)
            w, b, _ = _ref_mlp_train(
                w, b, x, y[:, None], acts, cfg.classical_learning_rate,
                cfg.classical_iters, cfg.classical_momentum)
            if not all(np.all(np.isfinite(a)) for a in w):
                continue
            err = float(np.max(np.abs(_ref_forward(w, b, grid, acts)[:, 0] - y_grid)))
            mse = float(np.mean((_ref_forward(w, b, x, acts)[:, 0] - y) ** 2))
            if not (math.isfinite(err) and math.isfinite(mse)):
                continue
            if best is None or err < best[0]:
                best = (err, mse, (w, b))
        rows.append(bench.BenchRow("classical", m, best[0], best[1]))
    return rows


def _small_bench(**changes):
    doc = {"hidden_sizes": [1, 3, 8], "train_count": 48, "restarts": 4,
           "classical_iters": 150, "graded_iters": 30, "grid_points": 21}
    doc.update(changes)
    return bench.bench_config_from_dict(doc)


@pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "forked"])
@pytest.mark.parametrize("seed", [0, 4])
def test_approx_bench_matches_per_restart_reference(seed, cpus, fork_counter):
    forks = fork_counter(cpus)
    cfg = _small_bench(seed=seed)
    assert bench.approx_bench(cfg) == _per_restart_rows(cfg)
    assert len(forks) == (cpus > 1)


@pytest.mark.parametrize("seed", [43, 9821])
def test_approx_bench_classical_column_never_rises(seed):
    """The benchmark's approx config at seeds where re-scoring the padded
    carry at the wider width raised the error by an ulp at widths 4 and 8."""
    cfg = bench.bench_config_from_dict({
        "grading": "2,3", "hidden_sizes": [1, 2, 4, 8, 16, 32], "restarts": 5,
        "classical_iters": 200, "graded_iters": 100, "seed": seed})
    errs = [r.max_abs_error for r in bench.approx_bench(cfg)[1:]]
    assert all(b <= a for a, b in zip(errs, errs[1:])), errs
    assert errs[1] == errs[2] == errs[3]


@pytest.mark.parametrize("failing", [8, 3], ids=["child", "parent"])
def test_approx_bench_raises_what_a_width_raises(failing, monkeypatch, fork_counter):
    """Widths 8 and 1 train in the child, 3 in the parent: either way the
    call raises the width's exception and leaves no process behind."""
    fork_counter(2)
    real_train = bench.mlp_train

    def mlp_train(widths, *args, **kwargs):
        if widths[1] == failing:
            raise FloatingPointError("width %d in process %d" % (failing, os.getpid()))
        return real_train(widths, *args, **kwargs)

    monkeypatch.setattr(bench, "mlp_train", mlp_train)
    with pytest.raises(FloatingPointError, match="width %d" % failing) as info:
        bench.approx_bench(_small_bench())
    in_parent = str(info.value).endswith(" %d" % os.getpid())
    assert in_parent == (failing == 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("hidden_sizes", [[4], [4, 4]], ids=["one", "repeated"])
def test_approx_bench_with_one_width_never_forks(hidden_sizes, fork_counter):
    forks = fork_counter(2)
    cfg = _small_bench(hidden_sizes=hidden_sizes)
    assert bench.approx_bench(cfg) == _per_restart_rows(cfg)
    assert forks == []


@pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "forked"])
@pytest.mark.parametrize("bad", [1, 3], ids=["first", "after_a_finite_width"])
def test_approx_bench_width_without_a_finite_restart(
        bad, cpus, fork_counter, monkeypatch, tmp_path):
    """Every restart of width `bad` comes back with a nan weight.  As the
    first width it reads diverged; after width 1 it repeats width 1's row.
    Forked, width 1 trains in the child and width 3 in this process."""
    forks = fork_counter(cpus)
    real_train = bench.mlp_train

    def mlp_train(widths, *args, **kwargs):
        weights, biases, losses = real_train(widths, *args, **kwargs)
        if widths[1] == bad:
            weights[0][:, 0, 0] = np.nan
        return weights, biases, losses

    monkeypatch.setattr(bench, "mlp_train", mlp_train)
    rows = bench.approx_bench(_small_bench())
    assert len(forks) == (cpus > 1)
    bench.write_bench_csv(rows, tmp_path / "bench.csv")
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    if bad == 1:
        assert lines[2] == "classical,1,inf,inf,diverged"
        monkeypatch.setattr(bench, "mlp_train", real_train)
        assert rows[2:] == bench.approx_bench(_small_bench(hidden_sizes=[3, 8]))[1:]
    else:
        assert lines[2].startswith("classical,1,") and lines[2].endswith(",ok")
        assert lines[3] == "classical,3," + lines[2].split(",", 2)[2]


@pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "forked"])
@pytest.mark.parametrize("doc", [
    {"graded_learning_rate": 3.0, "classical_iters": 5, "graded_iters": 50,
     "hidden_sizes": [1]},
    {"classical_learning_rate": 1000.0, "classical_iters": 200, "graded_iters": 5,
     "hidden_sizes": [1, 4]},
], ids=["graded", "classical"])
def test_approx_bench_diverging_restarts_warn_nothing(doc, cpus, fork_counter):
    """Diverged restarts are dropped, so they raise no numpy warning, which
    the suite's error::RuntimeWarning filter would turn into an error in
    this process or in the child."""
    forks = fork_counter(cpus)
    rows = bench.approx_bench(bench.bench_config_from_dict(doc))
    assert len(forks) == (cpus > 1 and len(doc["hidden_sizes"]) > 1)
    if "classical_learning_rate" in doc:
        assert [r.status for r in rows] == ["ok", "diverged", "diverged"]


@pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "forked"])
def test_approx_bench_drops_a_restart_whose_mse_overflows(cpus, fork_counter, tmp_path):
    """At learning rate 5 the classical restarts end with finite weights
    whose squared training residuals overflow; such a restart is dropped,
    so both widths read diverged instead of ok with an infinite mse."""
    forks = fork_counter(cpus)
    cfg = bench.bench_config_from_dict({
        "classical_learning_rate": 5.0, "classical_iters": 200, "graded_iters": 5,
        "hidden_sizes": [1, 4]})
    rows = bench.approx_bench(cfg)
    assert len(forks) == (cpus > 1)
    bench.write_bench_csv(rows, tmp_path / "bench.csv")
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[2:] == ["classical,1,inf,inf,diverged", "classical,4,inf,inf,diverged"]


def _time_out(signum, frame):
    raise TimeoutError("_split_run did not return")


def test_split_run_child_reply_larger_than_the_pipe_buffer():
    """A 204,800-byte reply is past a 64 KiB pipe: a parent that waited for
    the child before reading would never return."""
    reply = bytes(range(256)) * 800
    handler = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(60)
    try:
        got = ioutil._split_run(lambda: reply, lambda: "parent")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert got == (reply, "parent")


def _blas_threads():
    """numpy's OpenBLAS thread count, left as it was; None without the calls."""
    count = ioutil._set_blas_threads(1)
    if count is not None:
        ioutil._set_blas_threads(count)
    return count


def test_split_run_holds_blas_to_one_thread_in_both_processes():
    """A threaded OpenBLAS in the parent contends with the child for the
    CPUs the split counts on; the count comes back when the call returns,
    also when a part raises."""
    start = ioutil._set_blas_threads(2)
    if start is None:
        pytest.skip("numpy exports no OpenBLAS thread-count calls")
    try:
        threaded = _blas_threads()
        assert ioutil._split_run(_blas_threads, _blas_threads) == (1, 1)
        assert _blas_threads() == threaded

        def fail():
            raise FloatingPointError("parent part")

        with pytest.raises(FloatingPointError, match="parent part"):
            ioutil._split_run(_blas_threads, fail)
        assert _blas_threads() == threaded
    finally:
        ioutil._set_blas_threads(start)


@pytest.mark.parametrize("child_part, how", [
    (lambda: os._exit(1), "exited with code 1"),
    (lambda: os._exit(0), "exited with code 0"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "ended by signal 9"),
], ids=["exit-1", "exit-0", "killed"])
def test_split_run_child_ending_without_a_reply(child_part, how):
    """A ChildProcessError is an OSError, which the CLI reports as one
    error line and exit 2."""
    with pytest.raises(ChildProcessError,
                       match="^a forked child process %s without a reply$" % how):
        ioutil._split_run(child_part, lambda: "parent")


# a parent whose forked child writes its pid to argv[1]; both parts sleep
_ORPHANING_PARENT = """
import os, sys, time
from gradednn import ioutil

def child():
    with open(sys.argv[1] + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(sys.argv[1] + ".tmp", sys.argv[1])
    time.sleep(120)

ioutil._split_run(child, lambda: time.sleep(120))
"""


def _running(pid: int) -> bool:
    """Whether process pid runs; a zombie, which only waits to be reaped, does not."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="PR_SET_PDEATHSIG and /proc are Linux's")
def test_split_run_child_ends_when_its_parent_is_killed(tmp_path):
    """A parent killed by SIGKILL never waits for its child: the child used
    to run its whole part, reparented to pid 1."""
    pid_file = tmp_path / "child.pid"
    src = os.path.dirname(os.path.dirname(ioutil.__file__))
    parent = subprocess.Popen([sys.executable, "-c", _ORPHANING_PARENT, str(pid_file)],
                              env={**os.environ, "PYTHONPATH": src})
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert parent.poll() is None, "the parent ended before its child wrote"
            assert time.monotonic() < deadline, "the child wrote no pid"
            time.sleep(0.02)
        child = int(pid_file.read_text())
        assert _running(child)
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 5
        while _running(child) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(child), "the child outlived its killed parent"
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        if child is not None and _running(child):
            os.kill(child, signal.SIGKILL)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux's")
def test_die_with_parent_leaves_at_once_when_the_parent_has_ended():
    """A parent that ended before the child's prctl call sends no signal;
    the child sees another parent pid and exits with code 1."""
    pid = os.fork()
    if pid == 0:
        try:
            ioutil._die_with_parent(os.getpid())  # never this process's parent
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1


@pytest.mark.parametrize("error", [OSError, AttributeError])
def test_split_run_without_openblas_thread_calls(error, monkeypatch):
    """Where numpy's library cannot be opened or exports no thread-count
    calls, the split runs as it would with them and sets nothing."""
    class NoCalls:
        def __init__(self, name):
            if error is OSError:
                raise OSError("cannot open %s" % name)

    monkeypatch.setattr(ioutil.ctypes, "CDLL", NoCalls)
    assert ioutil._set_blas_threads(1) is None
    assert ioutil._split_run(lambda: "child", lambda: "parent") == ("child", "parent")
