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

Both work in place where that leaves every float unchanged: relu overwrites
its pre-activation, identity returns it, and the training step skips the
identity slope of 1.  `mlp_train` does each iteration's float operations in
the order the plain loop does (the bit-for-bit reference in
tests/test_classical.py), through fewer and cheaper numpy calls:

- the forward matmul takes a contiguous copy of the transposed weights,
  which costs less than a matmul through the strided `swapaxes` view and
  gives the same sums;
- a bias gradient of width >= 2 is `einsum("...nm->...m", dz)`,
  which adds the rows of dz one by one as `dz.sum(axis=-2)` does, at half
  its cost or less; numpy sums an (N, 1) column pairwise, so width 1 keeps
  the sum;
- the K = 1 product `dz @ w` of a one-output layer is the outer product
  `einsum("...n,...m->...nm")`, whose entries are each one rounded product;
- parameters, velocities and gradients each live in one flat buffer whose
  views are the layer weights and biases: matmul and the bias sums write
  each gradient into its view, and a step is four in-place calls on the
  whole buffer.  Every update follows the whole backward pass, which moves
  no bit, since each layer's gradient is formed before its own update.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def _act(name: str, z: np.ndarray) -> np.ndarray:
    """The activation of z.  relu overwrites z, which leaves the mask `z > 0`
    unchanged; identity returns z itself."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "expm1":
        return np.expm1(z)
    if name == "identity":
        return z
    raise ValueError("unknown classical activation %r" % name)


def _act_slope(name: str, z: np.ndarray) -> np.ndarray:
    """Slope at the pre-activation z (for relu, z after `_act`); identity has
    slope 1, which its callers skip, since dz * 1.0 == dz."""
    # A boolean relu slope multiplies exactly as 1.0/0.0 at an eighth of the memory.
    if name == "relu":
        return z > 0.0
    if name == "expm1":
        return np.exp(z)
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


def _check_layers(weights, biases, activations) -> None:
    if len(biases) != len(weights):
        raise ValueError("need one weight/bias pair per layer")
    if len(activations) != len(weights):
        raise ValueError("need one activation per layer")


def mlp_init(widths: Sequence[int], rng: np.random.Generator, scale: float = 1.0):
    """He-style initialization for the ReLU baseline."""
    weights, biases = [], []
    for n_in, n_out in zip(widths, widths[1:]):
        weights.append(rng.normal(0.0, scale * np.sqrt(2.0 / n_in), size=(n_out, n_in)))
        biases.append(rng.uniform(-0.1, 0.1, size=n_out))
    return weights, biases


def mlp_batch_forward(weights, biases, X: np.ndarray, activations) -> np.ndarray:
    """Rows of X through the net(s); (N, out), or (R, N, out) when stacked."""
    _check_layers(weights, biases, activations)
    cur = np.asarray(X, dtype=float)
    for w, b, act in zip(weights, biases, activations):
        # In place: one (N, out) array per layer, however large the grid.
        z = cur @ np.swapaxes(w, -1, -2)
        z += b[..., None, :]
        cur = _act(act, z)
    return cur


def _views(flat: np.ndarray, like: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Consecutive views of flat, shaped as the arrays in like."""
    views, start = [], 0
    for a in like:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return views


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
    _check_layers(weights, biases, activations)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or X.shape[1] != widths[0] or Y.shape != (len(X), widths[-1]):
        raise ValueError("X must be (N, %d) and Y (N, %d), got %s and %s"
                         % (widths[0], widths[-1], X.shape, Y.shape))
    # One flat buffer each for the parameters, their velocities and their
    # gradients: every layer's weights and biases are views of it.
    layers = [a for pair in zip(weights, biases) for a in pair]
    params = np.concatenate([a.ravel() for a in layers])
    vel = np.zeros_like(params)
    grad = np.empty_like(params)
    views, grads = _views(params, layers), _views(grad, layers)
    weights, biases = views[0::2], views[1::2]
    grad_w, grad_b = grads[0::2], grads[1::2]
    bias_rows = [b[..., None, :] for b in biases]
    n = X.shape[0]
    losses = []
    for t in range(iters + 1):
        zs = []
        outs = [X]
        for w, b_row, act in zip(weights, bias_rows, activations):
            z = outs[-1] @ np.ascontiguousarray(np.swapaxes(w, -1, -2))
            z += b_row
            zs.append(z)
            outs.append(_act(act, z))
        diff = outs[-1] - Y
        # np.mean's own arithmetic without its wrapper
        loss = np.add.reduce(np.add.reduce(diff * diff, axis=-1), axis=-1) / n
        losses.append(loss if loss.ndim else float(loss))
        if t == iters:
            break
        # In place from here on: allocating a large stacked temporary costs
        # more than the arithmetic on it.
        g = diff
        g *= 2.0
        g /= n
        for l in range(len(weights) - 1, -1, -1):
            dz = g
            if activations[l] != "identity":
                dz *= _act_slope(activations[l], zs[l])
            np.matmul(dz.swapaxes(-1, -2), outs[l], out=grad_w[l])
            # Both add the rows of dz one by one at width >= 2, einsum at
            # less cost; numpy sums an (N, 1) column pairwise, einsum would not.
            if widths[l + 1] > 1:
                np.einsum("...nm->...m", dz, out=grad_b[l])
            else:
                np.add.reduce(dz, axis=-2, out=grad_b[l])
            if l == 0:
                break  # no gradient for the input X
            if widths[l + 1] == 1:
                # the products of the K = 1 matmul dz @ w, each rounded once
                g = np.einsum("...n,...m->...nm", dz[..., 0], weights[l][..., 0, :])
            else:
                g = dz @ weights[l]
        # One step for every layer: the backward pass above read only the
        # weights from before it.
        grad *= lr
        vel *= momentum
        vel -= grad
        params += vel
    return [w.copy() for w in weights], [b.copy() for b in biases], losses
