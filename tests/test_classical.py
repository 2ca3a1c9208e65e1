"""The classical MLP and the benchmark's multiplicative neuron on stacked
runs: R nets of one shape along a leading axis must train exactly as R
single-net calls, both must compute exactly what their one-run-per-restart
reference loops below compute, and the approximation benchmark must report
what one training run per restart reports."""

import math
import zlib

import numpy as np
import pytest

from gradednn import bench
from gradednn.classical import check_shapes, mlp_batch_forward, mlp_init, mlp_train
from gradednn.network import multiplicative_core, multiplicative_sign
from gradednn.spaces import GradedDomainError

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
@pytest.mark.parametrize("widths", [[3, 5, 2], [3, 5, 1], [3, 5, 4, 2], [3, 5, 4, 1]])
@pytest.mark.parametrize("hidden", ["relu", "expm1", "identity"])
def test_mlp_train_matches_the_reference_loop_bit_for_bit(hidden, widths, stacked):
    X, Y = _data()
    Y = Y[:, :widths[-1]]
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
    w, b, losses, grad_norms, finite = bench.train_multiplicative(
        x, y, k, q, w0, b0, lr, iters)
    assert finite.shape == b0.shape
    diverged = []
    for r in range(len(b0)):
        ref = _ref_train_multiplicative(x, y, k, q, w0[r], b0[r], lr, iters)
        assert finite[r] == (ref is not None)
        if ref is None:
            diverged.append(r)
            continue
        assert _same(w[r], ref[0]) and b[r] == ref[1]
        assert _same([l[r] for l in losses], ref[2])
        assert _same([g[r] for g in grad_norms], ref[3])
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


@pytest.mark.parametrize("negative", [False, True])
def test_single_multiplicative_neuron_is_the_unstacked_case(negative):
    x, y, k, q = _mult_data(negative)
    w0 = np.array([0.5, 0.7, 0.4])
    w, b, losses, grad_norms, finite = bench.train_multiplicative(
        x, y, k, q, w0, 0.0, 0.05, 50)
    ref = _ref_train_multiplicative(x, y, k, q, w0, 0.0, 0.05, 50)
    assert finite.shape == () and finite
    assert w.shape == (3,) and _same(w, ref[0]) and b == ref[1]
    assert all(isinstance(v, float) for v in losses + grad_norms)
    assert losses == ref[2] and grad_norms == ref[3]
    with np.errstate(all="ignore"):
        assert not bench.train_multiplicative(
            x, y, k, q, np.full(3, 40.0), 0.0, 0.05, 50)[-1]
        assert _ref_train_multiplicative(
            x, y, k, q, np.full(3, 40.0), 0.0, 0.05, 50) is None


def test_stacked_kernel_matches_one_neuron_at_a_time():
    x, _, k, _ = _mult_data(True)
    w = np.array([[0.5, 0.7, 0.4], [1.0, -2.0, 0.3]])
    b = np.array([0.0, 0.25])
    pred = multiplicative_core(w, k, x, multiplicative_sign(k, x)) + b[:, None]
    assert pred.shape == (2, 30)
    for r in range(2):
        assert _same(pred[r], _ref_mult_predict(w[r], b[r], k, x))
    with pytest.raises(GradedDomainError):
        multiplicative_sign(np.array([0.5, 1.0, 1.0]), x)


def test_weight_gradient_survives_a_large_bias():
    """Both predictions round to the bias 0.25 and the residuals +-0.5
    cancel in db; the weight gradient, built from the cores 1e-18 and
    2e-18, is -0.5e-18 per weight, which prediction minus bias reads as 0."""
    x = np.array([[1e-9, 1e-9], [2e-9, 1e-9]])
    y = np.array([-0.25, 0.75])
    k = np.ones(2)
    grad_norms = bench.train_multiplicative(x, y, k, k, np.ones(2), 0.25, 1.0, 0)[3]
    assert grad_norms[0] == pytest.approx(math.sqrt(2) * 0.5e-18, rel=1e-12)
    assert grad_norms == _ref_train_multiplicative(x, y, k, k, np.ones(2), 0.25, 1.0, 0)[3]


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
    carry = None
    for m in cfg.hidden_sizes:
        rng = bench._cell_rng(cfg.seed, "classical-%d" % m)
        candidates = [] if carry is None else [bench._pad_classical(*carry, m=m)]
        for _ in range(cfg.restarts):
            w, b = mlp_init([2, m, 1], rng)
            w, b, _ = _ref_mlp_train(
                w, b, x, y[:, None], acts, cfg.classical_learning_rate,
                cfg.classical_iters, cfg.classical_momentum)
            if all(np.all(np.isfinite(a)) for a in w):
                candidates.append((w, b))
        best = None
        for w, b in candidates:
            err = float(np.max(np.abs(_ref_forward(w, b, grid, acts)[:, 0] - y_grid)))
            mse = float(np.mean((_ref_forward(w, b, x, acts)[:, 0] - y) ** 2))
            if best is None or err < best[0]:
                best = (err, mse, (w, b))
        rows.append(bench.BenchRow("classical", m, best[0], best[1]))
        carry = best[2]
    return rows


@pytest.mark.parametrize("seed", [0, 4])
def test_approx_bench_matches_per_restart_reference(seed):
    cfg = bench.bench_config_from_dict({
        "hidden_sizes": [1, 3, 8], "train_count": 48, "restarts": 4,
        "classical_iters": 150, "graded_iters": 30, "grid_points": 21,
        "seed": seed,
    })
    assert bench.approx_bench(cfg) == _per_restart_rows(cfg)
