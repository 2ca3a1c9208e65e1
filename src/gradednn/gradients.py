"""Analytic gradients and a finite-difference checker.

loss_grad returns dL/d(yhat) from each loss kind's branch in losses.py;
network_backward chains it through the layers, differentiating with respect
to the base weights (the trainable parameters), not the effective ones.
Each layer's backward sits beside its forward in network.Layer, and both
read the layer's LayerRecord, so this module knows no layer kind.  The
gradient is one vector laid out as Network.theta, which defines the
parameter order; finite_diff_check perturbs theta in that same order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List

import numpy as np

from .ioutil import _split_map
from .losses import LossKind, _loss_part, _operands, loss_rows, loss_value
from .network import (
    ActivationKind,
    Network,
    activation_value,
    forward_trace,
    raise_if_non_finite,
    random_network,
)
from .spaces import ExponentScheme, GradingVector

# default central-difference step, and the relative error grad-check accepts
DEFAULT_EPS = 1e-5
GRAD_CHECK_TOL = 1e-5

# finite_diff_check stacks at most about this many parameter entries at once
_STACK_ENTRIES = 1 << 20


def loss_grad(kind: LossKind, y, yhat, grading) -> np.ndarray:
    """Gradient of loss_value with respect to yhat: an (N, n) array whose row
    k is the gradient of row k's loss divided by N, because loss_value
    averages along axis 0."""
    g = _loss_part(kind, "grad", *_operands(y, yhat, grading))
    return g / len(g)


# a zero vector scales by the smallest subnormal, one holding inf by the largest float
_SCALE_RANGE = (np.finfo(float).smallest_subnormal, np.finfo(float).max)


def _scaled_norm(values: np.ndarray) -> float:
    """Euclidean norm of every entry, inf or NaN where an entry is; scaled by
    the largest magnitude so that no square overflows."""
    # the ufunc reductions np.max and np.sum call, without their dispatch
    big = np.maximum.reduce(np.abs(values), axis=None, initial=0.0)
    scale = np.minimum(np.maximum(big, _SCALE_RANGE[0]), _SCALE_RANGE[1])
    return float(scale * np.sqrt(np.add.reduce((values / scale) ** 2, axis=None)))


@dataclass
class GradientBundle:
    """The loss and its gradient grad, a vector laid out as net.theta."""

    net: Network
    grad: np.ndarray
    loss: float

    def layer_norms(self) -> List[float]:
        """Euclidean norm of each layer's weight and bias gradients."""
        return [_scaled_norm(np.concatenate((w.ravel(), b)))
                for w, b in self.net.split(self.grad)]

    def grad_norm(self) -> float:
        """Euclidean norm over every entry; finite while the entries are."""
        return _scaled_norm(np.array(self.layer_norms()))


def network_backward(net: Network, x, y, kind: LossKind) -> GradientBundle:
    """Mean loss and its exact parameter gradients, averaged along axis 0,
    for (N, n_in) inputs and (N, n_out) targets with one sample per row."""
    if not net.layers:
        raise ValueError("an empty network has no parameters to differentiate")
    trace, out = forward_trace(net, x)
    raise_if_non_finite(trace, out)
    loss = loss_value(kind, y, out, net.out_grading)
    g = loss_grad(kind, y, out, net.out_grading)
    grad = np.empty_like(net.theta)
    for l, (gw, gb) in reversed(list(enumerate(net.split(grad)))):
        gw[...], gb[...], g = net.layers[l]._backward(trace[l], g, l > 0)
    return GradientBundle(net, grad, loss)


def _check_eps(eps: float) -> None:
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError("eps should lie in [1e-7, 1e-4]")


def finite_diff_check(
    net: Network,
    x: np.ndarray,
    y: np.ndarray,
    kind: LossKind,
    eps: float = DEFAULT_EPS,
) -> float:
    """Max over parameters of |analytic - central difference| / max(1, |fd|);
    NaN when any of them is NaN.  x (1, n_in) and y (1, n_out) are one sample.

    The perturbed passes run as one stack: the 2P copies of net.theta with
    one entry at theta + eps or theta - eps go through forward_trace at
    once, which gives the same floats as one pass each.  A network too
    large for one stack runs in chunks of entries.
    """
    _check_eps(eps)
    if net.layers and (np.shape(x) != (1, len(net.in_grading))
                       or np.shape(y) != (1, len(net.out_grading))):
        raise ValueError("need one sample as (1, n_in) and (1, n_out) arrays")
    bundle = network_backward(net, x, y, kind)
    n = len(net.theta)
    step = max(1, _STACK_ENTRIES // (2 * n))
    errs = []
    for lo in range(0, n, step):
        idx = np.arange(lo, min(lo + step, n))
        plus, minus = _perturbed_losses(net, idx, x, y, kind, eps)
        fd = (plus - minus) / (2.0 * eps)
        errs.append(np.abs(bundle.grad[idx] - fd) / np.maximum(1.0, np.abs(fd)))
    return float(np.max(np.concatenate(errs)))


def _perturbed_losses(net, idx, x, y, kind, eps):
    """Losses with entry idx[j] of net.theta at theta + eps and at
    theta - eps, as two (len(idx),) arrays."""
    k = len(idx)
    stack = np.tile(net.theta, (2 * k, 1))
    copies = np.arange(k)
    stack[copies, idx] += eps
    stack[copies + k, idx] -= eps
    trace, cur = forward_trace(net, x, stack)
    raise_if_non_finite(trace, cur)
    out = cur.reshape(2 * k, -1)
    losses = loss_rows(kind, np.broadcast_to(y, out.shape), out, net.out_grading)
    return losses[:k], losses[k:]


# randomized end-to-end check: small nets, every activation and loss, with
# sampling kept clear of kinks (the relu clamp band here, each loss's own in
# its branch of losses.py) and of large losses, so the central difference
# is trustworthy

# rounding limits a central difference to about |L| u / eps (u the float64
# epsilon); cases keep that under a tenth of the tolerance at the default
# step, whatever step is checked, so a seed draws the same cases at every eps
_MAX_CHECK_LOSS = 0.1 * GRAD_CHECK_TOL * DEFAULT_EPS / np.finfo(float).eps

_CHECK_KINDS = (
    LossKind.graded_mse(),
    LossKind.graded_norm(),
    LossKind.huber(0.7),
    LossKind.homogeneous(ExponentScheme.BY_MAX_GRADE),
    LossKind.homogeneous(ExponentScheme.BY_DISTINCT_COUNT),
    LossKind.cross_entropy(),
    LossKind.max_graded(),
)

# a second exponential on an already-amplified signal can overflow, so a
# layer whose incoming range passes 6 draws from the second pool, without exp
_CHECK_ACTIVATIONS = (tuple(ActivationKind),
                      tuple(k for k in ActivationKind if k is not ActivationKind.GRADED_EXP))


def _random_check_case(rng: np.random.Generator, kind: LossKind):
    """A net of <= 3 layers, widths <= 8, weights in (0.2, 1.5), plus inputs
    and targets keeping every unit away from activation and loss kinks."""
    for _ in range(200):
        depth = int(rng.integers(1, 4))
        widths = rng.integers(1, 9, size=depth + 1).tolist()
        gradings = [GradingVector(rng.integers(1, 5, size=w).tolist()) for w in widths]
        activations = []
        bound = 1.5
        for l in range(depth):
            z_bound = widths[l] * 1.5 ** max(gradings[l].grades) * bound
            pool = _CHECK_ACTIVATIONS[z_bound > 6.0]
            act = pool[int(rng.integers(0, len(pool)))]
            activations.append(act)
            bound = float(np.max(activation_value(act, z_bound, gradings[l + 1].floats)))
        net = random_network(gradings, activations, rng, low=0.2, high=1.5)
        x = rng.uniform(0.5, 1.5, (1, widths[0]))
        trace, yhat = forward_trace(net, x)
        # positive weights keep every z positive; require it to clear the
        # relu clamp band by more than any finite-difference step
        if min(float(np.min(np.abs(rec.z))) for rec in trace) < 2e-2:
            continue
        for _ in range(50):
            y = rng.uniform(0.1, 1.0, (1, widths[-1]))
            if _loss_part(kind, "kink", gradings[-1], y, yhat)[0]:
                continue
            if abs(loss_value(kind, y, yhat, gradings[-1])) > _MAX_CHECK_LOSS:
                break  # the outputs, not a target in (0.1, 1), make it large
            return net, x, y
        # targets kept colliding with a kink or the loss was too large;
        # rebuild the net instead
    raise RuntimeError("could not sample a kink-free gradient-check case")


def grad_check_suite(eps: float = DEFAULT_EPS, count: int = 100, seed: int = 0):
    """Relative analytic-vs-central-difference error for `count` random nets.

    Returns a list of (loss name, relative error) pairs, deterministic in
    the seed; losses cycle so every kind appears.  Case i is drawn from its
    own generator, default_rng([seed, i]), so no case depends on another.
    The cases go through ioutil._split_map: where a forked child can run
    alongside, this process draws and checks the even-numbered cases and
    the child the odd ones; the list is the same either way.
    """
    if count < 1:
        raise ValueError("count must be at least 1, got %d" % count)
    if count > sys.maxsize:  # the longest list a Python process can hold
        raise ValueError("count must be at most %d, got %d" % (sys.maxsize, count))
    if seed < 0:
        raise ValueError("seed must be >= 0, got %d" % seed)
    _check_eps(eps)

    def case(i):
        kind = _CHECK_KINDS[i % len(_CHECK_KINDS)]
        net, x, y = _random_check_case(np.random.default_rng([seed, i]), kind)
        return kind.as_text(), finite_diff_check(net, x, y, kind, eps)

    return _split_map(case, range(count))
