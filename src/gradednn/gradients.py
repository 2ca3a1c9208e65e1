"""Analytic gradients and a finite-difference checker.

loss_grad returns dL/d(yhat) for every loss kind; network_backward chains it
through the layers, differentiating with respect to the base weights (the
trainable parameters), not the effective ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .losses import CROSS_ENTROPY_CLAMP, LossKind, _operands, loss_rows, loss_value
from .network import (
    ActivationKind,
    Network,
    activation_slope,
    activation_value,
    forward_trace,
    raise_if_non_finite,
    random_network,
    weight_base_slope,
)
from .spaces import (
    ExponentScheme,
    GradedDomainError,
    GradedVector,
    GradingVector,
    homogeneous_parts,
    homogeneous_terms,
    stack_values,
)

# default central-difference step, and the relative error grad-check accepts
DEFAULT_EPS = 1e-5
GRAD_CHECK_TOL = 1e-5

# finite_diff_check stacks at most about this many parameter entries at once
_STACK_ENTRIES = 1 << 20


def loss_grad(kind: LossKind, y, yhat, grading=None):
    """Gradient of loss_value with respect to yhat: a graded vector for one
    sample, an (N, n) array for a batch, whose row k is the gradient of
    row k's loss divided by N because loss_value averages along axis 0."""
    single = grading is None
    grading, y, yhat = _operands(y, yhat, grading)
    q = grading.floats
    d = yhat - y
    if kind.name == "graded_mse":
        g = (2.0 / len(q)) * q * d
    elif kind.name == "graded_norm":
        g = 2.0 * q * d
    elif kind.name == "huber":
        # derivative of rho is the residual clipped to [-delta, delta]
        g = q * np.clip(d, -kind.delta, kind.delta)
    elif kind.name == "homogeneous":
        g = _homogeneous_grad(grading, d, kind.scheme)
    elif kind.name == "cross_entropy":
        if np.any(y < 0.0):
            raise GradedDomainError("cross entropy targets must be nonnegative")
        clamped = np.maximum(yhat, CROSS_ENTROPY_CLAMP)
        # inside the clamp the loss is locally constant in yhat
        g = np.where(yhat < CROSS_ENTROPY_CLAMP, 0.0, -q * y / clamped)
    elif kind.name == "max_graded":
        g = np.zeros_like(d)
        rows = np.arange(len(d))
        m = np.argmax(q * d * d, axis=1)  # ties resolve to the lowest index
        g[rows, m] = 2.0 * q[m] * d[rows, m]
    else:
        raise ValueError("unknown loss kind %r" % (kind,))
    if single:
        return GradedVector(g[0], grading)
    return g / len(g)


def _homogeneous_grad(grading: GradingVector, d: np.ndarray, scheme) -> np.ndarray:
    """Row-wise gradient of (sum_j n_j**e_j)**(2/E) in the residual rows d."""
    norms, exps, big_e = homogeneous_parts(d, grading, scheme)
    s = np.sum(norms ** exps, axis=1)
    # a row with s = 0 has d = 0; inf**(2/E - 1) keeps its factors finite,
    # and so does exps >= 2 at a zero group norm
    outer = (2.0 / big_e) * np.where(s > 0.0, s, np.inf) ** (2.0 / big_e - 1.0)
    coef = outer[:, np.newaxis] * exps * norms ** (exps - 2.0)
    out = np.empty_like(d)
    for j, (_, mask) in enumerate(grading.groups):
        out[:, mask] = coef[:, j, np.newaxis] * d[:, mask]
    return out


# a zero vector scales by the smallest subnormal, one holding inf by the largest float
_SCALE_RANGE = (np.finfo(float).smallest_subnormal, np.finfo(float).max)


def _scaled_norm(values: np.ndarray, axis=None):
    """Euclidean norm of every entry (a float) or along axis, inf or NaN where
    an entry is; scaled by the largest magnitude so that no square overflows."""
    keep = axis is not None
    big = np.max(np.abs(values), axis=axis, initial=0.0, keepdims=keep)
    scale = np.minimum(np.maximum(big, _SCALE_RANGE[0]), _SCALE_RANGE[1])
    norm = scale * np.sqrt(np.sum((values / scale) ** 2, axis=axis, keepdims=keep))
    return norm.squeeze(axis) if keep else float(norm)


@dataclass
class GradientBundle:
    """Per-layer parameter gradients plus the loss they belong to."""

    weight_grads: List[np.ndarray]
    bias_grads: List[np.ndarray]
    loss: float

    def layer_norms(self) -> List[float]:
        """Euclidean norm of each layer's weight and bias gradients."""
        pairs = zip(self.weight_grads, self.bias_grads)
        return [_scaled_norm(np.append(w, b)) for w, b in pairs]

    def grad_norm(self) -> float:
        """Euclidean norm over every entry; finite while the entries are."""
        return _scaled_norm(np.array(self.layer_norms()))


def network_backward(net: Network, x, y, kind: LossKind) -> GradientBundle:
    """Mean loss and its exact parameter gradients, averaged along axis 0, for
    one sample as graded vectors (the batch N = 1) or for (N, n_in) and
    (N, n_out) arrays with one sample per row."""
    if not net.layers:
        raise ValueError("an empty network has no parameters to differentiate")
    if isinstance(x, GradedVector):
        x, y = stack_values([x], net.in_grading), stack_values([y], net.out_grading)
    trace, out = forward_trace(net, x)
    raise_if_non_finite(trace, out)
    loss = loss_value(kind, y, out, net.out_grading)
    g = loss_grad(kind, y, out, net.out_grading)
    weight_grads, bias_grads = [], []
    for l in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[l]
        x_in, z, _ = trace[l]
        dz = g * activation_slope(layer.activation, z, layer.out_grading.floats)
        dw = (dz.T @ x_in) * weight_base_slope(layer.weight_base, layer.in_grading)
        if layer.mask is not None:
            dw = np.where(layer.mask, dw, 0.0)
        weight_grads.insert(0, dw)
        bias_grads.insert(0, dz.sum(axis=0))
        if l:
            g = dz @ layer.effective()
    return GradientBundle(weight_grads, bias_grads, loss)


def finite_diff_check(
    net: Network,
    x: GradedVector,
    y: GradedVector,
    kind: LossKind,
    eps: float = DEFAULT_EPS,
) -> float:
    """Max over parameters of |analytic - central difference| / max(1, |fd|);
    NaN when any of them is NaN.

    The perturbed passes of one layer run as one stack: every copy of the
    layer with one parameter at keep + eps or keep - eps evaluates from the
    layer's traced input, and the layers after it run on the (2P, 1, n)
    stack of activations, which gives the same floats as one pass each.
    """
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError("eps should lie in [1e-7, 1e-4]")
    xs, ys = stack_values([x], net.in_grading), stack_values([y], net.out_grading)
    bundle = network_backward(net, xs, ys, kind)
    trace, _ = forward_trace(net, xs)
    errs = []
    for l in range(len(net.layers)):
        analytic = np.append(bundle.weight_grads[l], bundle.bias_grads[l])
        step = max(1, _STACK_ENTRIES // (2 * len(analytic)))
        for lo in range(0, len(analytic), step):
            idx = np.arange(lo, min(lo + step, len(analytic)))
            plus, minus = _perturbed_losses(net, trace, l, idx, ys, kind, eps)
            fd = (plus - minus) / (2.0 * eps)
            errs.append(np.abs(analytic[idx] - fd) / np.maximum(1.0, np.abs(fd)))
    return float(np.max(np.concatenate(errs)))


def _perturbed_losses(net, trace, l, idx, ys, kind, eps):
    """Losses with parameter idx[k] of layer l (its weights in C order, then
    its bias) at keep + eps and at keep - eps, as two (len(idx),) arrays."""
    layer = net.layers[l]
    k, n_w = len(idx), layer.weight_base.size
    stack = np.tile(np.append(layer.weight_base, layer.bias), (2 * k, 1))
    copies = np.arange(k)
    stack[copies, idx] += eps
    stack[copies + k, idx] -= eps
    eff = layer.effective(stack[:, :n_w].reshape(2 * k, layer.n_out, layer.n_in))
    x_in = trace[l][0]
    z = x_in @ np.swapaxes(eff, -1, -2) + stack[:, np.newaxis, n_w:]
    y = activation_value(layer.activation, z, layer.out_grading.floats)
    tail, out = forward_trace(Network(net.layers[l + 1:]), y)
    raise_if_non_finite(trace[:l] + [(x_in, z, y)] + tail, out)
    out = out.reshape(2 * k, -1)
    losses = loss_rows(kind, np.broadcast_to(ys, out.shape), out, net.out_grading)
    return losses[:k], losses[k:]


# randomized end-to-end check: small nets, every activation and loss, with
# sampling kept clear of kinks (relu clamp band, huber corners, max ties,
# the cross-entropy floor) and of large losses, so the central difference is
# trustworthy

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


def _margins_ok(kind: LossKind, y: GradedVector, yhat: GradedVector) -> bool:
    d = np.abs(yhat.values - y.values)
    if kind.name == "huber":
        if np.any(np.abs(d - kind.delta) < 1e-3 * max(1.0, kind.delta)):
            return False
    if kind.name == "max_graded" and len(d) > 1:
        scores = np.sort(y.grading.floats * d * d)[::-1]
        if scores[0] - scores[1] < 1e-3 * max(scores[0], 1.0):
            return False
    if kind.name == "cross_entropy" and np.any(yhat.values < 1e-2):
        return False
    if kind.name == "homogeneous":
        diff = y.with_values(yhat.values - y.values)
        terms, _ = homogeneous_terms(diff, kind.scheme)
        if any(n < 1e-2 for _, n, _ in terms):
            return False
    return True


def _random_check_case(rng: np.random.Generator, kind: LossKind):
    """A net of <= 3 layers, widths <= 8, weights in (0.2, 1.5), plus inputs
    and targets keeping every unit away from activation and loss kinks."""
    for _ in range(200):
        depth = int(rng.integers(1, 4))
        widths = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
        gradings = [
            GradingVector([int(rng.integers(1, 5)) for _ in range(w)])
            for w in widths
        ]
        activations = []
        bound = 1.5
        for l in range(depth):
            max_eff = float(np.max(1.5 ** gradings[l].floats))
            z_bound = widths[l] * max_eff * bound
            pool = list(ActivationKind)
            if z_bound > 6.0:
                # a second exponential on an already-amplified signal can
                # overflow; keep exp for layers with a small incoming range
                pool = [k for k in pool if k is not ActivationKind.GRADED_EXP]
            act = pool[int(rng.integers(0, len(pool)))]
            activations.append(act)
            q_out = gradings[l + 1].floats
            if act in (ActivationKind.GRADED_RELU, ActivationKind.SIGNED_GRADED_RELU):
                bound = max(float(np.max(z_bound ** (1.0 / q_out))), 1.0)
            elif act is ActivationKind.GRADED_EXP:
                bound = float(np.max(np.expm1(z_bound / q_out)))
            else:
                bound = z_bound
        net = random_network(gradings, activations, rng, low=0.2, high=1.5)
        x = GradedVector(rng.uniform(0.5, 1.5, widths[0]), gradings[0])
        trace, out = forward_trace(net, x.values)
        # positive weights keep every z positive; require it to clear the
        # relu clamp band by more than any finite-difference step
        if min(float(np.min(np.abs(z))) for _, z, _ in trace) < 2e-2:
            continue
        yhat = GradedVector(out, net.out_grading)
        for _ in range(50):
            y = GradedVector(rng.uniform(0.1, 1.0, widths[-1]), gradings[-1])
            if not _margins_ok(kind, y, yhat):
                continue
            if abs(loss_value(kind, y, yhat)) > _MAX_CHECK_LOSS:
                break  # the outputs, not a target in (0.1, 1), make it large
            return net, x, y
        # targets kept colliding with a kink or the loss was too large;
        # rebuild the net instead
    raise RuntimeError("could not sample a kink-free gradient-check case")


def grad_check_suite(eps: float = DEFAULT_EPS, count: int = 100, seed: int = 0):
    """Relative analytic-vs-central-difference error for `count` random nets.

    Returns a list of (loss name, relative error) pairs, deterministic in
    the seed; losses cycle so every kind appears.
    """
    if count < 1:
        raise ValueError("count must be at least 1, got %d" % count)
    rng = np.random.default_rng(seed)
    results = []
    for i in range(count):
        kind = _CHECK_KINDS[i % len(_CHECK_KINDS)]
        net, x, y = _random_check_case(rng, kind)
        results.append((kind.as_text(), finite_diff_check(net, x, y, kind, eps)))
    return results
