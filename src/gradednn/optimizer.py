"""Grade-adaptive gradient descent.

Every parameter gets the per-coordinate rate eta_i = eta / q_i: weights use
the grade of the input coordinate they multiply, biases the grade of the
output coordinate they shift.  The rates, the velocity and the gradient are
vectors laid out as Network.theta, which defines the parameter order, so a
step is three whole-vector operations on theta.  Training is full batch and
deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .gradients import GradientBundle, network_backward
from .losses import LossKind
from .network import Network, NonFiniteForwardError
from .spaces import GradedError, GradedVector, stack_values


class TrainingDivergenceError(GradedError):
    """Raised when the loss, a gradient or a forward pass stops being finite."""


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float
    momentum: float = 0.0
    max_iters: int = 100
    stop_threshold: float = 0.0
    stop_window: int = 10
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.stop_threshold < 0:
            raise ValueError("stop_threshold must be >= 0")
        if self.stop_window < 1:
            raise ValueError("stop_window must be >= 1")


def sgd_step(
    net: Network,
    bundle: GradientBundle,
    cfg: OptimizerConfig,
    velocity: Optional[tuple] = None,
) -> tuple:
    """One in-place update of net.theta; returns the state for the next call.

    The state is (velocity, rate), two vectors laid out as net.theta: rate
    holds each weight's eta/q of its input coordinate and each bias's eta/q
    of its output coordinate.  The first call (velocity None) builds them
    from cfg.learning_rate; every later call reads the rates from the state
    it is handed, so a run builds them once."""
    if velocity is None:
        rate = np.empty_like(net.theta)
        for layer, (rw, rb) in zip(net.layers, net.split(rate)):
            rw[...] = cfg.learning_rate / layer.in_grading.floats
            rb[...] = cfg.learning_rate / layer.out_grading.floats
        velocity = (np.zeros_like(net.theta), rate)
    v, rate = velocity
    v *= cfg.momentum
    v -= rate * bundle.grad
    net.theta += v
    return velocity


def _stack(net: Network, inputs, targets):
    """(N, n_in) and (N, n_out) arrays of the samples; arrays pass through."""
    if len(inputs) != len(targets):
        raise ValueError("inputs and targets differ in length")
    if len(inputs) == 0:
        raise ValueError("dataset is empty")
    if isinstance(inputs, np.ndarray):
        return inputs, targets
    return stack_values(inputs, net.in_grading), stack_values(targets, net.out_grading)


def batch_gradient(net: Network, inputs, targets, kind: LossKind) -> GradientBundle:
    """Mean loss and mean gradients over the whole dataset, in one
    network_backward call.  inputs and targets are sequences of graded
    vectors or (N, n_in) and (N, n_out) arrays with one sample per row."""
    inputs, targets = _stack(net, inputs, targets)
    try:
        return network_backward(net, inputs, targets, kind)
    except NonFiniteForwardError as exc:
        raise TrainingDivergenceError(str(exc)) from exc


@dataclass
class TrainResult:
    network: Network
    losses: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def train(
    net: Network,
    inputs: Sequence[GradedVector],
    targets: Sequence[GradedVector],
    kind: LossKind,
    cfg: OptimizerConfig,
) -> TrainResult:
    """Full-batch grade-adaptive descent on the mean loss.

    losses[t] is the mean loss at the parameters of iteration t, so the
    history has max_iters + 1 entries unless the plateau rule stops earlier:
    with stop_threshold > 0, training stops once the loss decrease over the
    last stop_window iterations falls below the threshold.  The samples are
    checked and stacked into arrays once, before the first iteration.
    """
    inputs, targets = _stack(net, inputs, targets)
    result = TrainResult(network=net)
    velocity = None
    # an overflow or invalid operation inside an iteration shows as a
    # non-finite value that the checks below or the next forward pass
    # report as a divergence, so numpy's warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.max_iters + 1):
            try:
                bundle = batch_gradient(net, inputs, targets, kind)
            except TrainingDivergenceError as exc:
                raise TrainingDivergenceError("%s, at iteration %d" % (exc, t)) from exc
            if not math.isfinite(bundle.loss):
                raise TrainingDivergenceError(
                    "loss became non-finite at iteration %d; try a smaller "
                    "optimizer.learning_rate" % t)
            grad_norm = bundle.grad_norm()
            if not math.isfinite(grad_norm):
                # argmax picks the first NaN, else the first infinite layer norm
                raise TrainingDivergenceError(
                    "gradient became non-finite at iteration %d in layer %d; try a "
                    "smaller optimizer.learning_rate" % (t, np.argmax(bundle.layer_norms())))
            result.losses.append(bundle.loss)
            result.grad_norms.append(grad_norm)
            if t == cfg.max_iters:
                result.stop_reason = "max_iters"
                break
            w = cfg.stop_window
            if (
                cfg.stop_threshold > 0
                and len(result.losses) > w
                and result.losses[-1 - w] - result.losses[-1] < cfg.stop_threshold
            ):
                result.stop_reason = "plateau"
                break
            velocity = sgd_step(net, bundle, cfg, velocity)
    return result
