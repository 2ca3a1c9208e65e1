"""The batched engine against a per-sample reference.

The reference here loops over the samples, one N = 1 call each, and averages.
Batched values and gradients must agree with it to 1e-12, relative to the
largest magnitude any single sample contributes (a sum over the batch can
cancel, so the size of the mean alone is no scale for rounding).
"""

from fractions import Fraction

import numpy as np
import pytest

from gradednn.gradients import _CHECK_KINDS, loss_grad, network_backward
from gradednn.losses import loss_value
from gradednn.network import (
    ActivationKind,
    GradeBlock,
    Layer,
    Network,
    random_network,
)
from gradednn.optimizer import TrainingDivergenceError, batch_gradient
from gradednn.spaces import GradingVector

TOL = 1e-12
BATCH_SIZES = (1, 7, 64)


def _per_sample_backward(net, xs, ys, kind):
    """Mean loss and gradients from one network_backward call per sample,
    plus the largest magnitude of any per-sample loss or gradient entry."""
    bundles = [
        network_backward(net, x[np.newaxis], y[np.newaxis], kind)
        for x, y in zip(xs, ys)
    ]
    n = len(bundles)
    grad = sum(b.grad for b in bundles) / n
    loss = sum(b.loss for b in bundles) / n
    scale = max([1.0] + [abs(b.loss) for b in bundles] + [
        float(np.max(np.abs(b.grad))) for b in bundles])
    return loss, grad, scale


def _assert_matches_per_sample(net, xs, ys, kind):
    loss, grad, scale = _per_sample_backward(net, xs, ys, kind)
    bundle = network_backward(net, xs, ys, kind)
    assert abs(bundle.loss - loss) <= TOL * scale
    assert bundle.grad.shape == grad.shape
    assert np.max(np.abs(bundle.grad - grad)) <= TOL * scale
    assert batch_gradient(net, xs, ys, kind).loss == bundle.loss


def _samples(rng, net, n):
    xs = rng.uniform(0.5, 1.5, size=(n, len(net.in_grading)))
    ys = rng.uniform(0.1, 1.0, size=(n, len(net.out_grading)))
    return xs, ys


@pytest.mark.parametrize("n", BATCH_SIZES)
@pytest.mark.parametrize("act", list(ActivationKind), ids=lambda a: a.value)
def test_backward_matches_per_sample_for_every_activation(act, n):
    rng = np.random.default_rng(11)
    gradings = [GradingVector([1, 2, 3]), GradingVector([1, 1, 2, 3]),
                GradingVector([2, 1])]
    net = random_network(gradings, [act, act], rng)
    xs, ys = _samples(rng, net, n)
    _assert_matches_per_sample(net, xs, ys, _CHECK_KINDS[0])


@pytest.mark.parametrize("n", BATCH_SIZES)
@pytest.mark.parametrize("kind", _CHECK_KINDS, ids=lambda k: k.as_text())
def test_backward_matches_per_sample_for_every_loss(kind, n):
    rng = np.random.default_rng(12)
    gradings = [GradingVector([1, 2]), GradingVector([1, 2, 2]),
                GradingVector([1, 2, 2, 3])]
    net = random_network(
        gradings, [ActivationKind.SIGNED_GRADED_RELU, ActivationKind.IDENTITY], rng)
    xs, ys = _samples(rng, net, n)
    _assert_matches_per_sample(net, xs, ys, kind)


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_backward_matches_per_sample_with_block_masks(n):
    rng = np.random.default_rng(13)
    g_in, g_out = GradingVector([2, 2, 3]), GradingVector([2, 3, 3])
    blocks = [GradeBlock(Fraction(2), (0, 1), (0, 2)),
              GradeBlock(Fraction(3), (1, 3), (2, 3))]
    w = np.zeros((3, 3))
    w[0, 0:2] = rng.uniform(0.2, 0.9, 2)
    w[1:3, 2] = rng.uniform(0.2, 0.9, 2)
    net = Network([Layer(w, np.zeros(3), ActivationKind.GRADED_RELU,
                         g_in, g_out, blocks)])
    xs, ys = _samples(rng, net, n)
    _assert_matches_per_sample(net, xs, ys, _CHECK_KINDS[1])
    grads = net.split(network_backward(net, xs, ys, _CHECK_KINDS[1]).grad)[0][0]
    assert np.all(grads[~net.layers[0].mask] == 0.0)


@pytest.mark.parametrize("n", BATCH_SIZES)
@pytest.mark.parametrize("kind", _CHECK_KINDS, ids=lambda k: k.as_text())
def test_batched_loss_is_the_mean_of_per_sample_losses(kind, n):
    rng = np.random.default_rng(14)
    g = GradingVector([1, 2, 2, 3])
    ys = rng.uniform(0.1, 1.0, size=(n, 4))
    yhats = rng.uniform(0.2, 2.0, size=(n, 4))
    rows = [(y[np.newaxis], yh[np.newaxis]) for y, yh in zip(ys, yhats)]
    values = [loss_value(kind, y, yh, g) for y, yh in rows]
    grads = np.array([loss_grad(kind, y, yh, g)[0] for y, yh in rows])
    scale = max(1.0, max(abs(v) for v in values), float(np.max(np.abs(grads))))
    assert abs(loss_value(kind, ys, yhats, g) - sum(values) / n) <= TOL * scale
    assert np.max(np.abs(loss_grad(kind, ys, yhats, g) - grads / n)) <= TOL * scale


@pytest.mark.parametrize("bad_layer", [0, 1])
def test_non_finite_batch_names_the_layer(bad_layer):
    g = GradingVector([1])
    acts = [ActivationKind.IDENTITY, ActivationKind.IDENTITY]
    acts[bad_layer] = ActivationKind.GRADED_EXP
    net = Network([Layer(np.array([[2.0]]), np.zeros(1), a, g, g) for a in acts])
    xs = np.array([[0.5], [400.0], [1.0]])  # only the middle row overflows
    ys = np.zeros((3, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergenceError, match="layer %d" % bad_layer):
            batch_gradient(net, xs, ys, _CHECK_KINDS[0])


@pytest.mark.parametrize("kind", _CHECK_KINDS, ids=lambda k: k.as_text())
def test_an_empty_batch_is_refused(kind):
    """N = 0 has no mean: a loss, its gradient and a backward pass raise
    instead of returning nan under the suite's error::RuntimeWarning filter."""
    g = GradingVector([1, 2])
    net = Network([Layer(np.ones((1, 2)), np.zeros(1), ActivationKind.IDENTITY,
                         g, GradingVector([1]))])
    empty = np.zeros((0, 2))
    for call in (lambda: loss_value(kind, empty, empty, g),
                 lambda: loss_grad(kind, empty, empty, g),
                 lambda: network_backward(net, empty, np.zeros((0, 1)), kind)):
        with pytest.raises(ValueError, match="^an empty batch has no mean loss$"):
            call()
