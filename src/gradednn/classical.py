"""Plain dense MLP, written independently of the graded stack.

This is the reference implementation the graded code must reduce to when all
grades are 1: standard affine layers, elementwise activations, squared-error
loss summed over outputs and averaged over the batch, full-batch gradient
descent with optional momentum.  Kept deliberately free of any graded
imports so the comparison is meaningful.

`mlp_train` and `mlp_batch_forward` also take R nets stacked on a leading
axis (weights (R, out, in), biases (R, out), shared X and Y); each slice
computes exactly what a single-net call does.  The approximation benchmark
trains a width's restarts as one stacked run, with an unchanged CSV.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "expm1":
        return np.expm1(z)
    if name == "identity":
        return z + 0.0
    raise ValueError("unknown classical activation %r" % name)


def _act_slope(name: str, z: np.ndarray) -> np.ndarray:
    # A boolean relu slope multiplies exactly as 1.0/0.0 at an eighth of the memory.
    if name == "relu":
        return z > 0.0
    if name == "expm1":
        return np.exp(z)
    if name == "identity":
        return np.ones_like(z)
    raise ValueError("unknown classical activation %r" % name)


def check_shapes(widths: Sequence[int], weights, biases) -> None:
    """(out, in) weights and (out,) biases behind the same leading axes."""
    if len(weights) != len(widths) - 1 or len(biases) != len(widths) - 1:
        raise ValueError("need one weight/bias pair per layer")
    lead = weights[0].shape[:-2] if weights else ()
    for l, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != lead + (widths[l + 1], widths[l]):
            raise ValueError(
                "layer %d weight shape %s does not match widths %s with "
                "leading axes %s" % (l, w.shape, tuple(widths), lead)
            )
        if b.shape != lead + (widths[l + 1],):
            raise ValueError("layer %d bias shape %s mismatch" % (l, b.shape))


def classical_mlp_forward(
    widths: Sequence[int],
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    x: np.ndarray,
    activations: Sequence[str],
) -> np.ndarray:
    """Forward pass for a single input vector, one activation name per layer."""
    check_shapes(widths, weights, biases)
    if len(activations) != len(weights):
        raise ValueError("need one activation per layer")
    return mlp_batch_forward(weights, biases, np.atleast_2d(x), activations)[..., 0, :]


def mlp_init(widths: Sequence[int], rng: np.random.Generator, scale: float = 1.0):
    """He-style initialization for the ReLU baseline."""
    weights, biases = [], []
    for n_in, n_out in zip(widths, widths[1:]):
        weights.append(rng.normal(0.0, scale * np.sqrt(2.0 / n_in), size=(n_out, n_in)))
        biases.append(rng.uniform(-0.1, 0.1, size=n_out))
    return weights, biases


def mlp_batch_forward(weights, biases, X: np.ndarray, activations) -> np.ndarray:
    """Rows of X through the net(s); (N, out), or (R, N, out) when stacked."""
    cur = np.asarray(X, dtype=float)
    for w, b, act in zip(weights, biases, activations):
        cur = _act(act, cur @ np.swapaxes(w, -1, -2) + b[..., None, :])
    return cur


def mlp_train(
    widths: Sequence[int],
    weights: List[np.ndarray],
    biases: List[np.ndarray],
    X: np.ndarray,
    Y: np.ndarray,
    activations: Sequence[str],
    lr: float,
    iters: int,
    momentum: float = 0.0,
) -> Tuple[List[np.ndarray], List[np.ndarray], list]:
    """Full-batch GD on mean-over-samples sum-of-squares error.

    Mutates nothing; returns (weights, biases, loss history) where the
    history holds the loss at each iterate including the final one: a float
    per iterate for one net, an (R,) array for R stacked nets.
    """
    check_shapes(widths, weights, biases)
    weights = [w.copy() for w in weights]
    biases = [b.copy() for b in biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0]
    losses = []
    for t in range(iters + 1):
        zs = []
        outs = [X]
        cur = X
        for w, b, act in zip(weights, biases, activations):
            z = cur @ np.swapaxes(w, -1, -2)
            z += b[..., None, :]
            cur = _act(act, z)
            zs.append(z)
            outs.append(cur)
        diff = cur - Y
        loss = np.mean(np.sum(diff * diff, axis=-1), axis=-1)
        losses.append(loss if loss.ndim else float(loss))
        if t == iters:
            break
        g = 2.0 * diff / n
        for l in range(len(weights) - 1, -1, -1):
            # In place, as z above: allocating a large stacked temporary
            # costs more than the arithmetic on it.
            dz = g
            dz *= _act_slope(activations[l], zs[l])
            gw = np.swapaxes(dz, -1, -2) @ outs[l]
            gb = dz.sum(axis=-2)
            g = dz @ weights[l] if l else None  # no gradient for the input X
            vel_w[l] = momentum * vel_w[l] - lr * gw
            vel_b[l] = momentum * vel_b[l] - lr * gb
            weights[l] += vel_w[l]
            biases[l] += vel_b[l]
    return weights, biases, losses
