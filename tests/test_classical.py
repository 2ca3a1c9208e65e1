"""The classical MLP on stacked nets: R nets of one shape along a leading axis
must train exactly as R single-net calls, and the approximation benchmark
must report what one training run per restart reports."""

import zlib

import numpy as np
import pytest

from gradednn import bench
from gradednn.classical import check_shapes, mlp_batch_forward, mlp_init, mlp_train

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


def _per_restart_rows(cfg):
    """approx_bench with one init-then-train pass per restart, the reference
    the stacked classical cells must reproduce."""
    data_rng = np.random.default_rng([cfg.seed, zlib.crc32(b"data")])
    x = data_rng.uniform(cfg.sample_low, cfg.sample_high, size=(cfg.train_count, 2))
    y = bench._target(cfg.grading, x)
    grid = bench._grid(cfg)
    y_grid = bench._target(cfg.grading, grid)
    rows = [bench._graded_cell(cfg, x, y, grid, y_grid)]
    acts = ["relu", "identity"]
    carry = None
    for m in cfg.hidden_sizes:
        rng = bench._cell_rng(cfg.seed, "classical-%d" % m)
        candidates = [] if carry is None else [bench._pad_classical(*carry, m=m)]
        for _ in range(cfg.restarts):
            w, b = mlp_init([2, m, 1], rng)
            w, b, _ = mlp_train(
                [2, m, 1], w, b, x, y[:, None], acts, cfg.classical_learning_rate,
                cfg.classical_iters, momentum=cfg.classical_momentum)
            if all(np.all(np.isfinite(a)) for a in w):
                candidates.append((w, b))
        best = None
        for w, b in candidates:
            err = float(np.max(np.abs(mlp_batch_forward(w, b, grid, acts)[:, 0] - y_grid)))
            mse = float(np.mean((mlp_batch_forward(w, b, x, acts)[:, 0] - y) ** 2))
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
    rows = bench.approx_bench(cfg)
    ref = _per_restart_rows(cfg)
    assert [(r.model, r.hidden_units, r.status) for r in rows] == [
        (r.model, r.hidden_units, r.status) for r in ref]
    for got, want in zip(rows, ref):
        assert got.max_abs_error == pytest.approx(want.max_abs_error, rel=RTOL, abs=0)
        assert got.train_mse == pytest.approx(want.train_mse, rel=RTOL, abs=0)
