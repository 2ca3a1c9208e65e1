"""Grade-adaptive descent: step semantics, convergence, classical reduction."""

import numpy as np
import pytest

from gradednn.classical import mlp_train
from gradednn.gradients import GradientBundle
from gradednn.losses import LossKind
from gradednn.network import ActivationKind, Layer, Network, network_to_dict, random_network
from gradednn.optimizer import (
    OptimizerConfig,
    TrainingDivergenceError,
    batch_gradient,
    sgd_step,
    train,
)
from gradednn.spaces import GradedVector, GradingVector, ones_grading


def _single_weight_net(w, q):
    g = GradingVector([q])
    return Network([Layer(np.array([[float(w)]]), np.zeros(1),
                          ActivationKind.IDENTITY, g, g)])


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.1, max_iters=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.1, stop_window=0)
    with pytest.raises(ValueError, match="^stop_threshold must be >= 0$"):
        OptimizerConfig(learning_rate=0.1, stop_threshold=-1)


def test_sgd_step_rate_scaled_by_grade():
    # q=2, eta=0.1, gradient 4 -> step eta/q * 4 = 0.2
    net = _single_weight_net(1.0, 2)
    bundle = GradientBundle(net, np.array([4.0, 0.0]), 0.0)
    sgd_step(net, bundle, OptimizerConfig(learning_rate=0.1))
    assert net.layers[0].weight_base[0, 0] == pytest.approx(0.8, abs=1e-15)


def test_sgd_step_reduces_to_classical_at_q1():
    net = _single_weight_net(1.0, 1)
    bundle = GradientBundle(net, np.array([4.0, 2.0]), 0.0)
    sgd_step(net, bundle, OptimizerConfig(learning_rate=0.1))
    assert net.layers[0].weight_base[0, 0] == pytest.approx(0.6, abs=1e-15)
    assert net.layers[0].bias[0] == pytest.approx(-0.2, abs=1e-15)


def test_bias_rate_uses_output_grade():
    g_in, g_out = GradingVector([1]), GradingVector([4])
    net = Network([Layer(np.array([[1.0]]), np.zeros(1),
                         ActivationKind.IDENTITY, g_in, g_out)])
    bundle = GradientBundle(net, np.array([0.0, 4.0]), 0.0)
    sgd_step(net, bundle, OptimizerConfig(learning_rate=0.1))
    assert net.layers[0].bias[0] == pytest.approx(-0.1, abs=1e-15)


def test_momentum_accumulates():
    net = _single_weight_net(0.0, 1)
    cfg = OptimizerConfig(learning_rate=0.1, momentum=0.5)
    bundle = GradientBundle(net, np.array([1.0, 0.0]), 0.0)
    v = sgd_step(net, bundle, cfg)
    assert net.layers[0].weight_base[0, 0] == pytest.approx(-0.1)
    sgd_step(net, bundle, cfg, v)
    # second velocity: 0.5*(-0.1) - 0.1 = -0.15
    assert net.layers[0].weight_base[0, 0] == pytest.approx(-0.25)


def test_sgd_step_updates_theta_and_the_layers_viewing_it():
    """A step is one update of net.theta; each layer's weight_base and bias
    are views into it, so the layers and the saved network show it too."""
    gradings = [GradingVector([1, 2]), GradingVector([2, 1]), GradingVector([3])]
    net = random_network(gradings, [ActivationKind.IDENTITY] * 2, np.random.default_rng(2))
    before = net.theta.copy()
    grad = np.arange(1.0, 10.0)
    sgd_step(net, GradientBundle(net, grad, 0.0), OptimizerConfig(learning_rate=0.1))
    # the weights of layer 0 step at 0.1/q of their input coordinate, its
    # biases at 0.1/q of their output coordinate; then layer 1 likewise
    rate = 0.1 / np.array([1, 2, 1, 2, 2, 1, 2, 1, 3])
    assert np.array_equal(net.theta, before - rate * grad)
    doc = network_to_dict(net)
    for (w, b), layer, saved in zip(net.split(net.theta), net.layers, doc["layers"]):
        assert np.shares_memory(layer.weight_base, net.theta)
        assert np.array_equal(layer.weight_base, w) and np.array_equal(layer.bias, b)
        assert saved["weight_base"] == w.ravel().tolist() and saved["bias"] == b.tolist()


def test_train_equals_a_hand_loop_that_threads_the_velocity():
    """train builds the eta/q rates once, in the first sgd_step's state;
    a loop that hands each step the state the last one returned takes the
    same steps, bit for bit."""
    gradings = [GradingVector([1, 2, "1/2"]), GradingVector([3, 1, 2, 2]), GradingVector([2])]
    acts = [ActivationKind.SIGNED_GRADED_RELU, ActivationKind.IDENTITY]
    net = random_network(gradings, acts, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    x, y = rng.uniform(0.5, 1.5, (32, 3)), rng.uniform(0.0, 1.0, (32, 1))
    kind = LossKind.graded_mse()
    cfg = OptimizerConfig(learning_rate=0.05, momentum=0.8, max_iters=8)
    ref = random_network(gradings, acts, np.random.default_rng(5))
    result = train(net, x, y, kind, cfg)
    losses, grad_norms, velocity = [], [], None
    for t in range(cfg.max_iters + 1):
        bundle = batch_gradient(ref, x, y, kind)
        losses.append(bundle.loss)
        grad_norms.append(bundle.grad_norm())
        if t < cfg.max_iters:
            velocity = sgd_step(ref, bundle, cfg, velocity)
    assert result.losses == losses and result.grad_norms == grad_norms
    assert losses[-1] < losses[0]
    for got, want in zip(net.layers, ref.layers):
        assert got.weight_base.tobytes() == want.weight_base.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()


def test_batch_gradient_averages():
    g = GradingVector([1])
    net = _single_weight_net(1.0, 1)
    xs = [GradedVector([1.0], g), GradedVector([3.0], g)]
    ys = [GradedVector([0.0], g), GradedVector([0.0], g)]
    bundle = batch_gradient(net, xs, ys, LossKind.graded_norm())
    # per-sample dL/dw = 2*x*x -> (2 + 18)/2 = 10
    assert net.split(bundle.grad)[0][0][0, 0] == pytest.approx(10.0, abs=1e-12)
    assert bundle.loss == pytest.approx((1.0 + 9.0) / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        batch_gradient(net, [], [], LossKind.graded_norm())
    with pytest.raises(ValueError, match="^inputs and targets differ in length$"):
        batch_gradient(net, xs, ys[:1], LossKind.graded_norm())


def test_train_records_initial_and_final():
    g = GradingVector([2])
    net = _single_weight_net(0.8, 2)
    x = [GradedVector([1.0], g)]
    cfg = OptimizerConfig(learning_rate=0.05, max_iters=50)
    res = train(net, x, x, LossKind.graded_norm(), cfg)
    assert len(res.losses) == 51 and len(res.grad_norms) == 51
    assert res.stop_reason == "max_iters"
    assert res.losses[-1] < res.losses[0]


def test_train_zero_iters_reports_initial_loss_only():
    g = GradingVector([2])
    net = _single_weight_net(0.8, 2)
    x = [GradedVector([1.0], g)]
    cfg = OptimizerConfig(learning_rate=0.05, max_iters=0)
    res = train(net, x, x, LossKind.graded_norm(), cfg)
    assert len(res.losses) == 1 and len(res.grad_norms) == 1


def test_interpolating_start_stays_at_zero():
    g = GradingVector([2])
    net = _single_weight_net(1.0, 2)
    x = [GradedVector([1.5], g)]
    cfg = OptimizerConfig(learning_rate=0.01, max_iters=20)
    res = train(net, x, x, LossKind.graded_norm(), cfg)
    assert np.allclose(res.losses, 0.0, atol=1e-24)


def test_plateau_stop():
    g = GradingVector([2])
    net = _single_weight_net(1.0, 2)
    x = [GradedVector([1.5], g)]
    cfg = OptimizerConfig(learning_rate=0.01, max_iters=500,
                          stop_threshold=1e-12, stop_window=5)
    res = train(net, x, x, LossKind.graded_norm(), cfg)
    assert res.stop_reason == "plateau"
    assert len(res.losses) < 501
    # threshold 0 disables the plateau stop
    net2 = _single_weight_net(1.0, 2)
    cfg2 = OptimizerConfig(learning_rate=0.01, max_iters=40)
    assert train(net2, x, x, LossKind.graded_norm(), cfg2).stop_reason == "max_iters"


def test_divergence_reported_with_layer():
    g = GradingVector([1])
    net = Network([Layer(np.array([[2.0]]), np.zeros(1),
                         ActivationKind.GRADED_EXP, g, g)])
    x = [GradedVector([500.0], g)]
    y = [GradedVector([1.0], g)]
    cfg = OptimizerConfig(learning_rate=0.1, max_iters=10)
    with np.errstate(over="ignore"):
        with pytest.raises(TrainingDivergenceError) as err:
            train(net, x, y, LossKind.graded_norm(), cfg)
    assert "layer 0" in str(err.value)
    assert str(err.value).endswith(", at iteration 0")


def test_forward_divergence_names_its_iteration():
    # expm1(5w) is finite at w = 1, but the first step toward the target
    # 1e6 moves w by about 1.5e9, and the forward pass of iteration 1 overflows
    g = GradingVector([1])
    net = Network([Layer(np.array([[1.0]]), np.zeros(1),
                         ActivationKind.GRADED_EXP, g, g)])
    cfg = OptimizerConfig(learning_rate=1.0, max_iters=10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergenceError) as err:
            train(net, np.array([[5.0]]), np.array([[1e6]]), LossKind.graded_mse(), cfg)
    assert str(err.value).startswith("layer 0 produced non-finite values")
    assert str(err.value).endswith(", at iteration 1")


def test_worked_convergence_setup():
    # single identity layer on q=(2,...,3), every base weight 0.72, one
    # sample mapped to itself: loss starts near 10 and reaches 0.02 well
    # inside 1000 iterations at eta_i = 0.01/q_i
    q = GradingVector([2, 2, 2, 3, 3, 3, 3])
    layer = Layer(np.full((7, 7), 0.72), np.zeros(7),
                  ActivationKind.IDENTITY, q, q)
    x = GradedVector([1, 0, 0, 1, 0, 0, 0], q)
    cfg = OptimizerConfig(learning_rate=0.01, max_iters=1000)
    res = train(Network([layer]), [x], [x], LossKind.graded_norm(), cfg)
    assert 9.0 < res.losses[0] < 11.0
    below = [i for i, v in enumerate(res.losses) if v < 0.02]
    assert below and below[0] <= 1000


def test_q1_trajectories_match_classical():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed + 100)
        widths = [3, 4, 2]
        gradings = [ones_grading(w) for w in widths]
        acts = [ActivationKind.CLASSICAL_RELU, ActivationKind.IDENTITY]
        net = random_network(gradings, acts, rng)
        w0 = [l.weight_base.copy() for l in net.layers]
        b0 = [l.bias.copy() for l in net.layers]
        x_arr = rng.uniform(-1.0, 1.0, size=(12, 3))
        y_arr = rng.uniform(-1.0, 1.0, size=(12, 2))
        cfg = OptimizerConfig(learning_rate=0.05, momentum=0.9, max_iters=50)
        res = train(net, [GradedVector(v, gradings[0]) for v in x_arr],
                    [GradedVector(v, gradings[-1]) for v in y_arr],
                    LossKind.graded_norm(), cfg)
        _, _, losses = mlp_train(widths, w0, b0, x_arr, y_arr,
                                 ["relu", "identity"], 0.05, 50, momentum=0.9)
        mine, theirs = np.array(res.losses), np.array(losses)
        assert np.max(np.abs(mine - theirs) / np.maximum(1.0, np.abs(theirs))) < 1e-10


def test_deterministic_histories():
    def run():
        rng = np.random.default_rng(77)
        g = GradingVector([2, 3])
        net = random_network([g, g], [ActivationKind.GRADED_RELU], rng)
        xs = [GradedVector(v, g) for v in rng.uniform(0.5, 1.5, (8, 2))]
        ys = [GradedVector(v, g) for v in rng.uniform(0.5, 1.5, (8, 2))]
        cfg = OptimizerConfig(learning_rate=0.02, momentum=0.3, max_iters=30)
        return train(net, xs, ys, LossKind.graded_mse(), cfg).losses

    assert run() == run()  # bit-identical


def test_grad_norm_does_not_overflow_on_large_entries():
    # squaring 1e200 overflows; the norm itself is representable
    g2, g1 = ones_grading(2), ones_grading(1)
    net = Network([Layer(np.zeros((1, 2)), np.zeros(1), ActivationKind.IDENTITY, g2, g1)])
    bundle = GradientBundle(net, np.array([1e200, 0.0, 1e200]), 0.0)
    assert bundle.grad_norm() == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert bundle.layer_norms() == [bundle.grad_norm()]
    tiny = GradientBundle(_single_weight_net(1.0, 1), np.array([3e-200, 4e-200]), 0.0)
    assert tiny.grad_norm() == pytest.approx(5e-200, rel=1e-15)


def test_non_finite_gradient_reported_with_iteration_and_layer():
    # q = 1/2 at a subnormal base weight: the effective weight and the loss
    # stay finite, but the base-weight slope times the input overflows
    g_in, g_out = GradingVector(["1/2"]), GradingVector([1])
    net = Network([Layer(np.array([[1e-320]]), np.zeros(1),
                         ActivationKind.IDENTITY, g_in, g_out)])
    x, y = [GradedVector([1e160], g_in)], [GradedVector([0.0], g_out)]
    cfg = OptimizerConfig(learning_rate=0.1, max_iters=5)
    with np.errstate(over="ignore"):
        with pytest.raises(TrainingDivergenceError) as err:
            train(net, x, y, LossKind.graded_mse(), cfg)
    assert "iteration 0" in str(err.value) and "layer 0" in str(err.value)
