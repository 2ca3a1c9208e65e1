"""Analytic gradients against hand values and finite differences."""

import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gradednn import gradients, network
from gradednn.cli import main
from gradednn.gradients import (
    _CHECK_KINDS,
    _MAX_CHECK_LOSS,
    GRAD_CHECK_TOL,
    _random_check_case,
    finite_diff_check,
    grad_check_suite,
    loss_grad,
    network_backward,
)
from gradednn.losses import LossKind, _loss_part, loss_rows, loss_value
from gradednn.network import (
    ActivationKind,
    GradeBlock,
    Layer,
    Network,
    NonFiniteForwardError,
    forward_trace,
    multiplicative_core,
    multiplicative_slope,
    random_network,
)
from gradednn.spaces import (
    ExponentScheme,
    GradedVector,
    GradingMismatchError,
    GradingVector,
    ones_grading,
)

Q7 = GradingVector([2, 2, 2, 3, 3, 3, 3])
Y = GradedVector([1, 0, 1, 1, -1, 0, 1], Q7)
YHAT = GradedVector([0, 1, 0, 1, 0, -1, 0], Q7)


def _row(v):
    return v.values[np.newaxis]


def test_norm_loss_grad_worked_vector():
    # 2 q_i (yhat_i - y_i) on the worked pair
    g = loss_grad(LossKind.graded_norm(), _row(Y), _row(YHAT), Q7)
    assert np.allclose(g[0], [-4, 4, -4, 0, 6, -6, -6], atol=1e-12)
    m = loss_grad(LossKind.graded_mse(), _row(Y), _row(YHAT), Q7)
    assert np.allclose(m[0], np.array([-4, 4, -4, 0, 6, -6, -6]) / 7.0,
                       atol=1e-12)


def test_max_loss_grad_single_support():
    g = loss_grad(LossKind.max_graded(), _row(Y), _row(YHAT), Q7)
    # the largest q_i d_i^2 is 3 at coordinates 4,5,6; ties resolve low
    expect = np.zeros(7)
    expect[4] = 2.0 * 3.0 * 1.0
    assert np.allclose(g[0], expect, atol=1e-12)


def test_homogeneous_grad_zero_at_zero_residual():
    for scheme in ExponentScheme:
        g = loss_grad(LossKind.homogeneous(scheme), _row(Y), _row(Y), Q7)
        assert np.all(g[0] == 0.0)


def test_cross_entropy_grad_clamped_region():
    g = GradingVector([2])
    y = GradedVector([1.0], g)
    below = GradedVector([0.0], g)
    assert loss_grad(LossKind.cross_entropy(), _row(y), _row(below), g)[0][0] == 0.0
    above = GradedVector([0.5], g)
    assert loss_grad(LossKind.cross_entropy(), _row(y), _row(above), g)[0][0] == (
        pytest.approx(-2.0 * 1.0 / 0.5, abs=1e-12))


def _loss_grad_fd(kind, y, yhat, eps=1e-6):
    out = np.zeros(len(y))
    for i in range(len(y)):
        up = yhat.values.copy()
        up[i] += eps
        dn = yhat.values.copy()
        dn[i] -= eps
        from gradednn.losses import loss_value
        out[i] = (loss_value(kind, _row(y), _row(y.with_values(up)), y.grading)
                  - loss_value(kind, _row(y), _row(y.with_values(dn)), y.grading)) / (2 * eps)
    return out


@pytest.mark.parametrize("kind", [
    LossKind.graded_mse(),
    LossKind.graded_norm(),
    LossKind.huber(0.7),
    LossKind.homogeneous(ExponentScheme.BY_MAX_GRADE),
    LossKind.homogeneous(ExponentScheme.BY_DISTINCT_COUNT),
    LossKind.cross_entropy(),
    LossKind.max_graded(),
], ids=lambda k: k.as_text())
def test_loss_grad_matches_fd(kind):
    rng = np.random.default_rng(3)
    g = GradingVector([1, 2, 2, 3])
    for _ in range(20):
        y = GradedVector(rng.uniform(0.1, 1.0, 4), g)
        yhat = GradedVector(rng.uniform(0.2, 2.0, 4), g)
        d = np.abs(yhat.values - y.values)
        if kind.name == "huber" and np.any(np.abs(d - kind.delta) < 1e-3):
            continue
        if kind.name == "max_graded":
            scores = np.sort(g.floats * d * d)[::-1]
            if scores[0] - scores[1] < 1e-3:
                continue
        an = loss_grad(kind, _row(y), _row(yhat), g)[0]
        fd = _loss_grad_fd(kind, y, yhat)
        assert np.allclose(an, fd, rtol=1e-5, atol=1e-6)


def test_backward_single_weight_worked_value():
    # identity activation, graded-norm loss, q=(2), w=1, x=2, y=0:
    # yhat = 2, dL/dw = 2*2*2 * (2*1*2) = 32
    g = GradingVector([2])
    net = Network([Layer(np.array([[1.0]]), np.zeros(1),
                         ActivationKind.IDENTITY, g, g)])
    bundle = network_backward(net, _row(GradedVector([2.0], g)),
                              _row(GradedVector([0.0], g)), LossKind.graded_norm())
    assert bundle.loss == pytest.approx(8.0, abs=1e-12)
    [(gw, gb)] = net.split(bundle.grad)
    assert gw[0, 0] == pytest.approx(32.0, abs=1e-10)
    assert gb[0] == pytest.approx(8.0, abs=1e-10)


def test_backward_respects_block_mask():
    from gradednn.network import GradeBlock
    from fractions import Fraction
    gio = GradingVector([2, 3])
    blocks = [GradeBlock(Fraction(2), (0, 1), (0, 1)),
              GradeBlock(Fraction(3), (1, 2), (1, 2))]
    w = np.array([[0.5, 0.0], [0.0, 0.5]])
    net = Network([Layer(w, np.zeros(2), ActivationKind.IDENTITY,
                         gio, gio, blocks)])
    x = GradedVector([1.0, 1.0], gio)
    y = GradedVector([0.0, 0.0], gio)
    bundle = network_backward(net, _row(x), _row(y), LossKind.graded_norm())
    off = ~np.eye(2, dtype=bool)
    assert np.all(net.split(bundle.grad)[0][0][off] == 0.0)


def test_finite_diff_check_eps_validated():
    g = GradingVector([1])
    net = Network([Layer(np.array([[0.5]]), np.zeros(1),
                         ActivationKind.IDENTITY, g, g)])
    x, y = _row(GradedVector([1.0], g)), _row(GradedVector([0.0], g))
    with pytest.raises(ValueError):
        finite_diff_check(net, x, y, LossKind.graded_norm(), eps=1e-2)
    with pytest.raises(ValueError):
        finite_diff_check(net, x, y, LossKind.graded_norm(), eps=1e-9)
    assert finite_diff_check(net, x, y, LossKind.graded_norm(), eps=1e-5) < 1e-9


@pytest.mark.parametrize("x, y", [
    (np.ones((2, 2)), np.ones((2, 1))),
    (np.ones((6, 2)), np.ones((6, 1))),
    (np.ones(2), np.ones(1)),
    (np.ones((1, 2)), np.ones(1)),
    (np.ones(2), np.ones((1, 1))),
    (np.ones((1, 3)), np.ones((1, 1))),
], ids=["two_rows", "six_rows", "one_d", "one_d_target", "one_d_input", "wide_input"])
def test_finite_diff_check_takes_one_sample(x, y, monkeypatch):
    g = GradingVector([1, 2])
    net = Network([Layer(np.full((1, 2), 0.5), np.zeros(1), ActivationKind.IDENTITY,
                         g, ones_grading(1))])
    kind = LossKind.graded_norm()
    assert finite_diff_check(net, np.ones((1, 2)), np.ones((1, 1)), kind) < 1e-9
    # the shape is refused before any pass runs
    monkeypatch.setattr(gradients, "network_backward", None)
    with pytest.raises(ValueError, match=re.escape(
            "need one sample as (1, n_in) and (1, n_out) arrays")):
        finite_diff_check(net, x, y, kind)


def test_linear_model_fd_is_tight():
    # identity single layer: analytic and numerical agree far below 1e-9
    rng = np.random.default_rng(9)
    g_in, g_out = GradingVector([1, 1, 1]), GradingVector([1, 1])
    net = Network([Layer(rng.uniform(0.3, 0.8, (2, 3)), np.zeros(2),
                         ActivationKind.IDENTITY, g_in, g_out)])
    x = GradedVector(rng.uniform(0.5, 1.5, 3), g_in)
    y = GradedVector(rng.uniform(0.1, 0.9, 2), g_out)
    assert finite_diff_check(net, _row(x), _row(y), LossKind.graded_norm(), 1e-5) < 1e-9


def _neuron(w, exponents, bias, grading):
    """One multiplicative neuron: a one-output identity Layer."""
    return Layer(np.array(w, dtype=float)[np.newaxis], [bias], ActivationKind.IDENTITY,
                 grading, ones_grading(1), exponents=exponents)


def _value(n: Layer, x: GradedVector) -> float:
    return n.forward(x.values[np.newaxis]).z[0, 0]


def _core_and_slope(n: Layer, x: GradedVector):
    k, w, xs = n.exponent_floats, n.weight_base[0], x.values[np.newaxis]
    core = multiplicative_core(w, k, xs)
    return core, multiplicative_slope(w, k, core)[0]


def test_backward_forms_weights_and_cores_only_in_the_forward_pass(monkeypatch):
    """network_backward reads each layer's effective weights and its
    multiplicative core from the forward records instead of forming them
    again."""
    calls = dict.fromkeys(("effective_weights", "multiplicative_core"), 0)
    for name in calls:
        def counted(*args, _real=getattr(network, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(network, name, counted)
    gradings = [GradingVector([1, 2]), GradingVector([1, 1, 2]), GradingVector([1])]
    acts = [ActivationKind.SIGNED_GRADED_RELU, ActivationKind.IDENTITY]
    x, y = np.full((3, 2), 0.7), np.ones((3, 1))
    for exponents, expected in ((None, (2, 0)), ((1, 2), (1, 1))):
        net = random_network(gradings, acts, np.random.default_rng(0), exponents=exponents)
        calls.update(dict.fromkeys(calls, 0))
        network_backward(net, x, y, LossKind.graded_mse())
        assert (calls["effective_weights"], calls["multiplicative_core"]) == expected


def test_a_wrong_operand_is_refused_by_network_backward():
    for exponents in (None, (2, 1)):
        net = random_network([GradingVector([1, 2]), GradingVector([1])],
                             [ActivationKind.IDENTITY], np.random.default_rng(1),
                             exponents=exponents)
        for x in (np.array([1.0, 2.0]), np.ones((1, 3))):
            with pytest.raises(GradingMismatchError, match=r"need \(N, 2\) rows"):
                network_backward(net, x, np.ones((1, 1)), LossKind.graded_mse())


def test_network_backward_refuses_the_empty_network():
    with pytest.raises(ValueError, match="^an empty network has no parameters"):
        network_backward(Network([]), np.ones((1, 2)), np.ones((1, 2)),
                         LossKind.graded_mse())


def test_multiplicative_slope_matches_fd():
    rng = np.random.default_rng(5)
    g = GradingVector([2, 3, 1])
    n = _neuron(rng.uniform(0.3, 1.2, 3), (2, 1, "1/2"), 0.3, g)
    x = GradedVector(rng.uniform(0.2, 2.0, 3), g)
    core, dw = _core_and_slope(n, x)
    assert core[0] + n.bias[0] == _value(n, x)
    eps = 1e-6
    for i in range(3):
        w_hi = n.weight_base[0].copy()
        w_hi[i] += eps
        w_lo = n.weight_base[0].copy()
        w_lo[i] -= eps
        hi = _value(_neuron(w_hi, n.exponents, n.bias[0], g), x)
        lo = _value(_neuron(w_lo, n.exponents, n.bias[0], g), x)
        assert dw[i] == pytest.approx((hi - lo) / (2 * eps), rel=1e-6, abs=1e-8)


def test_multiplicative_slope_at_zero_weight():
    g = GradingVector([1, 1])
    n = _neuron([0.0, 1.0], (2, 1), 0.0, g)
    x = GradedVector([1.0, 1.0], g)
    core, dw = _core_and_slope(n, x)
    assert core[0] == 0.0 and dw[0] == 0.0  # k=2: flat at w=0
    # k=1 has a kink at w=0; the kernel's convention is a zero slope there
    n = _neuron([0.0, 1.0], (1, 1), 0.0, g)
    assert np.array_equal(_core_and_slope(n, x)[1], [0.0, 0.0])


@pytest.mark.parametrize("negative", [False, True])
def test_multiplicative_kernel_stack_equals_single_neuron_calls(negative):
    rng = np.random.default_rng(8)
    if negative:
        x = rng.uniform(-1.5, 1.5, size=(25, 4))
        k = np.array([3.0, 2.0, 0.0, 1.0])
    else:
        x = rng.uniform(0.1, 1.5, size=(25, 4))
        k = np.array([0.5, 2.0, 0.0, 1.5])
    w = rng.uniform(-1.2, 1.2, size=(6, 4))
    w[2, 1] = 0.0  # one slice on the |w| < 1e-12 convention
    core = multiplicative_core(w, k, x)
    slope = multiplicative_slope(w, k, core)
    assert core.shape == (6, 25) and slope.shape == (6, 25, 4)
    for r in range(6):
        one = multiplicative_core(w[r], k, x)
        assert np.array_equal(core[r], one)
        assert np.array_equal(slope[r], multiplicative_slope(w[r], k, one))


def test_grad_check_suite_deterministic():
    a = grad_check_suite(eps=1e-5, count=7, seed=12)
    b = grad_check_suite(eps=1e-5, count=7, seed=12)
    assert a == b
    assert {name for name, _ in a} == {k.as_text() for k in (
        LossKind.graded_mse(), LossKind.graded_norm(), LossKind.huber(0.7),
        LossKind.homogeneous(ExponentScheme.BY_MAX_GRADE),
        LossKind.homogeneous(ExponentScheme.BY_DISTINCT_COUNT),
        LossKind.cross_entropy(), LossKind.max_graded())}


def _reference_fd_check(net, x, y, kind, eps=1e-5):
    """One full forward pass per perturbed parameter entry, changed in
    place: the loop the stacked finite_diff_check replaces.  x and y are
    (N, n) arrays of N samples whose mean loss counts."""
    bundle = network_backward(net, x, y, kind)
    analytic = [g for pair in net.split(bundle.grad) for g in pair]

    def current_loss():
        return loss_value(kind, y, forward_trace(net, x)[1], net.out_grading)

    worst = 0.0
    params = [p for layer in net.layers for p in (layer.weight_base, layer.bias)]
    for param, grads in zip(params, analytic):
        for idx in np.ndindex(param.shape):
            keep = param[idx]
            param[idx] = keep + eps
            hi = current_loss()
            param[idx] = keep - eps
            lo = current_loss()
            param[idx] = keep
            fd = (hi - lo) / (2.0 * eps)
            worst = max(worst, abs(grads[idx] - fd) / max(1.0, abs(fd)))
    return worst


@pytest.mark.parametrize("kind", _CHECK_KINDS, ids=lambda k: k.as_text())
def test_fd_check_passes_on_a_multiplicative_first_layer(kind):
    """Weights in (0.2, 1.5) and positive inputs keep every core positive
    and away from the fractional exponent's cusp at 0."""
    rng = np.random.default_rng(_CHECK_KINDS.index(kind))
    g0, g1, g2 = GradingVector([1, 2, "1/2"]), GradingVector([1, 3]), GradingVector([2])
    net = random_network([g0, g1, g2], [ActivationKind.GRADED_EXP, ActivationKind.IDENTITY],
                         rng, low=0.2, high=1.5, exponents=(2, 1, "1/2"))
    net.layers[0].bias[:] = [0.1, -0.2]
    x = _row(GradedVector(rng.uniform(0.5, 1.5, 3), g0))
    y = _row(GradedVector(rng.uniform(0.1, 1.0, 1), g2))
    err = finite_diff_check(net, x, y, kind)
    assert err < GRAD_CHECK_TOL
    assert err == _reference_fd_check(net, x, y, kind)


def _random_case(rng, activations):
    gradings = [GradingVector(rng.integers(1, 4, int(rng.integers(1, 5))))
                for _ in range(len(activations) + 1)]
    net = random_network(gradings, activations, rng, low=0.1, high=0.8)
    for layer in net.layers:
        layer.bias[:] = rng.uniform(-0.3, 0.3, layer.n_out)
    x = GradedVector(rng.uniform(0.5, 1.5, len(gradings[0])), gradings[0])
    y = GradedVector(rng.uniform(0.1, 1.0, len(gradings[-1])), gradings[-1])
    return net, _row(x), _row(y)


@pytest.mark.parametrize("act", list(ActivationKind), ids=lambda a: a.value)
@pytest.mark.parametrize("kind", _CHECK_KINDS, ids=lambda k: k.as_text())
def test_stacked_fd_check_equals_per_parameter_loop(act, kind):
    rng = np.random.default_rng([list(ActivationKind).index(act),
                                 _CHECK_KINDS.index(kind)])
    # other kinds around act; three nested exponentials overflow
    pool = [a for a in ActivationKind if a is not ActivationKind.GRADED_EXP]
    for depth in (1, 2, 3):
        same = min(depth, 2) if act is ActivationKind.GRADED_EXP else depth
        for acts in ([act] * same,
                     [pool[int(rng.integers(0, 4))] if l != depth // 2 else act
                      for l in range(depth)]):
            net, x, y = _random_case(rng, acts)
            for eps in (1e-5, 1e-4):
                assert finite_diff_check(net, x, y, kind, eps) == \
                    _reference_fd_check(net, x, y, kind, eps)


@pytest.mark.parametrize("kind", _CHECK_KINDS, ids=lambda k: k.as_text())
def test_stacked_fd_check_equals_loop_through_block_mask(kind):
    # a GradeBlock-masked layer first (perturbed, then in the tail) and last
    rng = np.random.default_rng(17)
    g = GradingVector([2, 2, 3])
    blocks = [GradeBlock(Fraction(2), (0, 2), (0, 2)),
              GradeBlock(Fraction(3), (2, 3), (2, 3))]
    mask = np.zeros((3, 3), dtype=bool)
    mask[:2, :2] = mask[2:, 2:] = True

    def masked(act):
        w = np.where(mask, rng.uniform(0.2, 1.2, (3, 3)), 0.0)
        return Layer(w, rng.uniform(-0.3, 0.3, 3), act, g, g, blocks)

    other = Layer(rng.uniform(0.2, 1.2, (3, 3)), np.zeros(3),
                  ActivationKind.GRADED_RELU, g, g)
    for layers in ([masked(ActivationKind.SIGNED_GRADED_RELU), other],
                   [other, masked(ActivationKind.IDENTITY)]):
        net = Network(layers)
        x = _row(GradedVector(rng.uniform(0.5, 1.5, 3), g))
        y = _row(GradedVector(rng.uniform(0.1, 1.0, 3), g))
        assert finite_diff_check(net, x, y, kind) == _reference_fd_check(net, x, y, kind)


def test_stacked_fd_check_equals_loop_on_sampled_cases():
    rng = np.random.default_rng(2024)
    for i in range(28):
        kind = _CHECK_KINDS[i % len(_CHECK_KINDS)]
        net, x, y = _random_check_case(rng, kind)
        assert finite_diff_check(net, x, y, kind) == _reference_fd_check(net, x, y, kind)


def test_fd_check_in_chunks_equals_loop(monkeypatch):
    # a layer too large for one stack runs in chunks of parameters
    import gradednn.gradients as gradients
    rng = np.random.default_rng(31)
    kind = LossKind.huber(0.7)
    net, x, y = _random_case(rng, [ActivationKind.SIGNED_GRADED_RELU,
                                   ActivationKind.IDENTITY])
    whole = finite_diff_check(net, x, y, kind)
    for entries in (1, 40):
        monkeypatch.setattr(gradients, "_STACK_ENTRIES", entries)
        assert finite_diff_check(net, x, y, kind) == whole
    assert whole == _reference_fd_check(net, x, y, kind)


def test_fd_check_names_the_layer_a_perturbed_pass_overflows():
    # expm1 of 709.7827 is finite; one step of 1e-4 further overflows
    g = GradingVector([1])
    exp_layer = Layer(np.array([[709.7827]]), np.zeros(1),
                      ActivationKind.GRADED_EXP, g, g)
    ident = Layer(np.array([[1.0]]), np.zeros(1), ActivationKind.IDENTITY, g, g)
    x, y = _row(GradedVector([1.0], g)), _row(GradedVector([1.0], g))
    kind = LossKind.cross_entropy()  # log keeps the unperturbed loss finite
    for layers, name in (([exp_layer], "layer 0"), ([ident, exp_layer], "layer 1")):
        net = Network(layers)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteForwardError, match=name):
                finite_diff_check(net, x, y, kind, eps=1e-4)


@pytest.mark.parametrize("kind", _CHECK_KINDS + (LossKind.huber(0.05),),
                         ids=lambda k: k.as_text())
def test_loss_value_is_the_mean_of_loss_rows(kind):
    rng = np.random.default_rng(8)
    g = GradingVector([1, 2, 2, 3])
    y = rng.uniform(0.1, 1.0, (9, 4))
    yhat = rng.uniform(0.2, 2.0, (9, 4))
    rows = loss_rows(kind, y, yhat, g)
    assert rows.shape == (9,)
    assert loss_value(kind, y, yhat, g) == rows.sum() / 9
    for k in range(9):
        # a row's loss does not depend on the rows stacked with it
        assert rows[k] == loss_value(kind, y[k:k + 1], yhat[k:k + 1], g)


def test_known_rounding_limited_seed_passes():
    # drawn in sequence from one generator of this seed, case 74 had a loss
    # near 1e18, where the rounding of the eps=1e-5 central difference alone
    # exceeded the tolerance: the direct draws below still reach that case
    # and check the large-loss screen, while the suite call checks the
    # seed's per-case streams
    results = grad_check_suite(count=75, seed=2204877786710033)
    assert max(err for _, err in results) < GRAD_CHECK_TOL
    assert 4e4 < _MAX_CHECK_LOSS < 5e4
    rng = np.random.default_rng(2204877786710033)
    for i in range(75):
        kind = _CHECK_KINDS[i % len(_CHECK_KINDS)]
        net, x, y = _random_check_case(rng, kind)
        out = forward_trace(net, x)[1]
        assert abs(loss_value(kind, y, out, net.out_grading)) <= _MAX_CHECK_LOSS


def test_grad_check_suite_rejects_empty_count():
    with pytest.raises(ValueError, match="count"):
        grad_check_suite(count=0)


def test_grad_check_suite_rejects_eps_before_drawing(monkeypatch, fork_counter):
    forks, drawn = fork_counter(2), []
    monkeypatch.setattr(gradients, "_random_check_case",
                        lambda rng, kind: drawn.append(kind))
    for eps in (1e-2, 1e-8):
        with pytest.raises(ValueError, match=re.escape("eps should lie in [1e-7, 1e-4]")):
            grad_check_suite(eps=eps, count=10)
    assert forks == [] and drawn == []


@pytest.mark.parametrize("seed", [0, 12, 2204877786710033])
@pytest.mark.parametrize("count", [1, 2, 7, 100])
def test_grad_check_suite_forked_matches_in_process(count, seed, fork_counter):
    """The parent checks the even-numbered cases while a forked child
    checks the odd ones; count 1 leaves the child no case, so it never
    forks."""
    forks = fork_counter(2)
    forked = grad_check_suite(count=count, seed=seed)
    assert len(forks) == (count > 1)
    fork_counter(1)
    assert forked == grad_check_suite(count=count, seed=seed)


@pytest.mark.parametrize("failing", [5, 2], ids=["child", "parent"])
def test_grad_check_suite_raises_what_a_case_raises(failing, monkeypatch, fork_counter):
    """Of 7 cases the parent checks 0, 2, 4 and 6 and the child 1, 3 and 5:
    either way the call raises the case's exception, as the in-process run
    does, and leaves no process behind."""
    real_check = gradients.finite_diff_check

    def finite_diff_check(net, x, y, kind, eps):
        if kind is _CHECK_KINDS[failing]:
            raise FloatingPointError("case %d in process %d" % (failing, os.getpid()))
        return real_check(net, x, y, kind, eps)

    monkeypatch.setattr(gradients, "finite_diff_check", finite_diff_check)
    forks = fork_counter(2)
    with pytest.raises(FloatingPointError, match="case %d" % failing) as info:
        grad_check_suite(count=7)
    assert len(forks) == 1
    assert str(info.value).endswith(" %d" % os.getpid()) == (failing == 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    fork_counter(1)
    with pytest.raises(FloatingPointError, match="case %d" % failing):
        grad_check_suite(count=7)


def test_cli_grad_check_child_ending_without_a_reply_is_one_error_line(
        monkeypatch, fork_counter, capsys):
    """The child checks cases 1 and 3 of 4 and ends at its first case."""
    parent, real_check = os.getpid(), gradients.finite_diff_check

    def finite_diff_check(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real_check(*args)

    monkeypatch.setattr(gradients, "finite_diff_check", finite_diff_check)
    forks = fork_counter(2)
    assert main(["grad-check", "--count", "4"]) == 2
    assert len(forks) == 1
    assert capsys.readouterr() == (
        "", "error: a forked child process exited with code 1 without a reply\n")


# what train can build and grad-check's sampler never draws: rational grades,
# batches of N > 1, a multiplicative first layer and block-masked layers
_RATIONAL_GRADES = tuple(Fraction(g) for g in ("1/3", "1/2", "2/3", "1", "3/2", "2", "5/2"))
_SMOOTH_ACTS = tuple(a for a in ActivationKind if a is not ActivationKind.GRADED_EXP)
_EXPONENTS = tuple(Fraction(k) for k in ("0", "1/2", "1", "2", "3"))


def _same_grade_blocks(g: GradingVector) -> list:
    """The blocks of a layer from g to g that keep every weight between two
    coordinates of one grade: each pair of runs of that grade."""
    runs, start = [], 0
    for i in range(1, len(g) + 1):
        if i == len(g) or g[i] != g[start]:
            runs.append((g[start], (start, i)))
            start = i
    return [GradeBlock(q, rows, cols) for q, rows in runs for p, cols in runs if p == q]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_backward_matches_central_differences_on_rational_batches(data):
    """Depth 1 or 2, widths 1 to 4, N = 1 to 5, a multiplicative first layer
    about half the time and block-masked layers from a grading to itself,
    screened as the grad-check sampler screens: weights in (0.2, 1.5) and
    inputs in (0.5, 1.5) keep every z positive, here at least 0.05, and every
    fractional exponent defined, and no sample sits at a loss kink or past
    the large-loss screen.  The nets come from a generator of their own,
    outside grad-check's stream."""
    kind = data.draw(st.sampled_from(_CHECK_KINDS))
    depth = data.draw(st.integers(1, 2))
    exponents_first = data.draw(st.booleans())
    masked = data.draw(st.lists(st.booleans(), min_size=depth, max_size=depth))
    masked[0] = masked[0] and not exponents_first  # a multiplicative layer takes no blocks
    pools = [_RATIONAL_GRADES] * (depth + 1)
    if kind.scheme is ExponentScheme.BY_MAX_GRADE:
        # its exponents are defined for integer output grades only
        pools[-1] = tuple(g for g in _RATIONAL_GRADES if g.denominator == 1)
    for l in reversed(range(depth)):
        if masked[l]:  # a masked layer keeps its grading, so it takes the next pool
            pools[l] = pools[l + 1]
    gradings = []
    for l, pool in enumerate(pools):
        if l and masked[l - 1]:
            gradings.append(gradings[-1])
        else:
            width = data.draw(st.integers(1, 4))
            gradings.append(GradingVector(data.draw(
                st.lists(st.sampled_from(pool), min_size=width, max_size=width))))
    acts = data.draw(st.lists(st.sampled_from(_SMOOTH_ACTS), min_size=depth, max_size=depth))
    n = data.draw(st.integers(1, 5))
    widths = [len(g) for g in gradings]
    exponents = data.draw(st.lists(st.sampled_from(_EXPONENTS), min_size=widths[0],
                                   max_size=widths[0])) if exponents_first else None
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    net = random_network(gradings, acts, rng, low=0.2, high=1.5, exponents=exponents)
    layers = list(net.layers)
    for l in np.flatnonzero(masked):
        g, old = gradings[l], layers[l]
        same = np.array([[p == q for q in g] for p in g])
        layers[l] = Layer(np.where(same, old.weight_base, 0.0), old.bias, old.activation,
                          g, g, _same_grade_blocks(g))
    net = Network(layers)
    x = rng.uniform(0.5, 1.5, (n, widths[0]))
    y = rng.uniform(0.1, 1.0, (n, widths[-1]))
    trace, out = forward_trace(net, x)
    assume(min(float(np.min(np.abs(rec.z))) for rec in trace) >= 0.05)
    assume(not np.any(_loss_part(kind, "kink", gradings[-1], y, out)))
    assume(abs(loss_value(kind, y, out, gradings[-1])) <= _MAX_CHECK_LOSS)
    assert _reference_fd_check(net, x, y, kind, eps=1e-6) < GRAD_CHECK_TOL


# widths, activation names, x and y of the first 21 cases the sampler draws
# in sequence from one generator of seed 0, three per loss kind, then the
# stream's next draw: all direct draws of the RNG, so a refactor that
# changes how _random_check_case consumes its generator fails here whatever
# the BLAS
_SEED0_CASES = (
    ((6, 5, 3, 3), ("classical_relu", "graded_relu", "signed_graded_relu"),
     (1.4421131105064977, 0.8651101682448286, 0.6054952795702295, 1.1291081515397092,
      1.4271545530678673, 0.940377154715784),
     (0.9591314443216635, 0.5499062323188824, 0.48270576236416796)),
    ((5, 2), ("identity",),
     (1.0849826802256783, 0.9765884217057704, 0.7561500214278923, 0.572658348648321,
      0.5178914208969753),
     (0.6219731625076853, 0.27199924611406734)),
    ((8, 8, 1), ("classical_relu", "identity"),
     (1.177798778095959, 0.8688215166959502, 1.0757220912190522, 1.0634124736739898,
      1.436566083474294, 0.8876742119556893, 0.6647826520660035, 1.3769328933290108),
     (0.9052556471981815,)),
    ((1, 1, 6), ("graded_relu", "graded_exp"),
     (1.2732645980412682,),
     (0.8391039454701301, 0.4585019959884119, 0.364668724151456, 0.349408800493262,
      0.4248742832455158, 0.6192168788046358)),
    ((6, 5), ("classical_relu",),
     (0.6833562431051275, 0.7959268470094133, 1.0744107688028173, 0.6430020842642805,
      0.5137378586164786, 0.9338912243499314),
     (0.7859774546732977, 0.6527415463685992, 0.3917317382266384, 0.745516845365944,
      0.536063169798886)),
    ((8, 8), ("identity",),
     (1.1874150023133265, 1.086264211018483, 0.6152789530785144, 1.1692037223800513,
      0.5065985237807048, 0.6828428789547006, 0.9208784051953482, 0.8783693804086546),
     (0.20706864617306586, 0.48426184363589864, 0.6612555192610081, 0.43971708837919066,
      0.7376495349580382, 0.30782988584044935, 0.2294427450438311, 0.7740098600396378)),
    ((6, 5), ("signed_graded_relu",),
     (0.7927529728195352, 0.9007447677615643, 1.4704494067485072, 0.5714085970534828,
      1.2813052652283012, 0.9754249535877287),
     (0.2168861722958212, 0.42947227780359276, 0.44281126637281965, 0.31921525027193126,
      0.36492738177149187)),
    ((8, 4, 3), ("signed_graded_relu", "classical_relu"),
     (0.8851523242262724, 0.6738281766236274, 1.2621716630603876, 1.354497703645547,
      0.6328046270642882, 1.0168349367640346, 0.895012929997587, 1.2900153179807998),
     (0.5184930701579296, 0.7577281442333555, 0.6094934889214662)),
    ((8, 5), ("identity",),
     (0.7395089554722614, 0.7706385504450568, 0.8756423257052541, 1.440738715728442,
      0.851819329148038, 0.9311328562045973, 0.7985072725024484, 1.4762450350517937),
     (0.42837150238052535, 0.1751836788906686, 0.692184154815169, 0.7449444286439287,
      0.4350169217755171)),
    ((5, 2, 6), ("signed_graded_relu", "identity"),
     (0.625431328653153, 1.4090719628493051, 0.9033915375960583, 1.3203077943609558,
      1.3953620927597767),
     (0.3036997430148558, 0.1293151148331499, 0.2623024778911145, 0.7956808350949955,
      0.1138718585090458, 0.6077188540160742)),
    ((2, 8), ("graded_relu",),
     (1.126160386805535, 0.9969348206161799),
     (0.2685526194781287, 0.8975574369210709, 0.8941479957886237, 0.5946115645265359,
      0.7354864247833531, 0.5062480615481825, 0.8212990279337812, 0.850470621652922)),
    ((7, 7, 2), ("identity", "classical_relu"),
     (0.8568377529611344, 1.0683712904835097, 1.0035028057334143, 1.1266625713376246,
      0.5769467112279523, 1.2697902263664145, 0.6234023281631537),
     (0.7132370156506317, 0.46192788923563965)),
    ((4, 1, 6, 8), ("identity", "graded_relu", "graded_relu"),
     (0.6353092440043893, 0.6132198858312805, 1.0222459329102984, 1.0687435895691126),
     (0.5668169884714713, 0.6518122101587929, 0.8898791167786961, 0.5537843604500985,
      0.4412329108298817, 0.33091543232238496, 0.3761619782094323, 0.6047263480231309)),
    ((4, 7, 2, 4), ("graded_relu", "graded_relu", "signed_graded_relu"),
     (0.6070445200447387, 1.0666782860196686, 0.5959945339433834, 0.6416023378231235),
     (0.8208751556719684, 0.3195192576183502, 0.15512833998233183, 0.641642392211749)),
    ((2, 2, 1, 1), ("classical_relu", "signed_graded_relu", "graded_relu"),
     (0.8874522444574018, 1.2549003383649948),
     (0.7200458121575566,)),
    ((6, 8, 7), ("graded_relu", "identity"),
     (1.0314625331171092, 0.9167841381885743, 0.8520259749571497, 0.5406222465209048,
      1.482967070578849, 0.5751972884863652),
     (0.122919480844487, 0.29377262620545047, 0.22256762200069916, 0.8149895534100039,
      0.23646669801458908, 0.4059550602742822, 0.1119235428851625)),
    ((6, 8, 3, 3), ("signed_graded_relu", "signed_graded_relu", "identity"),
     (0.5277380933588705, 0.7072584362114321, 0.947896798538948, 1.023812301502496,
      0.6253083894963875, 0.9590366978928448),
     (0.8024351513789386, 0.7352086739790673, 0.43217167977380266)),
    ((2, 4), ("classical_relu",),
     (1.3128116582970133, 0.8367981217058457),
     (0.6999307423854567, 0.910504266450553, 0.3264562942119986, 0.9940853976234123)),
    ((7, 1, 1, 1), ("graded_relu", "signed_graded_relu", "classical_relu"),
     (1.207244036943805, 1.4031598588825651, 1.3944909043468074, 1.372758590506412,
      0.7787471566816276, 0.9063009048306149, 1.0080966961754236),
     (0.9727055313237645,)),
    ((2, 3, 2), ("graded_relu", "classical_relu"),
     (1.222219989326994, 0.8395567095887363),
     (0.9269872446109308, 0.7411517872957502)),
    ((3, 3, 8, 2), ("graded_relu", "identity", "identity"),
     (1.0514409062392724, 1.1184311379949738, 1.3112386298776488),
     (0.6234271860870869, 0.28120941680643347)),
)
_SEED0_NEXT = 8946010837052829508


def test_check_case_sampler_keeps_its_rng_stream():
    rng = np.random.default_rng(0)
    for i, (widths, acts, x, y) in enumerate(_SEED0_CASES):
        net, xv, yv = _random_check_case(rng, _CHECK_KINDS[i % len(_CHECK_KINDS)])
        assert (net.layers[0].n_in,) + tuple(l.n_out for l in net.layers) == widths
        assert tuple(l.activation.value for l in net.layers) == acts
        assert tuple(xv[0].tolist()) == x and tuple(yv[0].tolist()) == y
    assert rng.integers(0, 2 ** 63) == _SEED0_NEXT


# the same for the cases grad-check draws for seed 0: case i from its own
# generator default_rng([0, i]), with loss kind i
_SEED0_STREAM_CASES = (
    ((6, 5, 3, 3), ("classical_relu", "graded_relu", "signed_graded_relu"),
     (1.4421131105064977, 0.8651101682448286, 0.6054952795702295, 1.1291081515397092,
      1.4271545530678673, 0.940377154715784),
     (0.9591314443216635, 0.5499062323188824, 0.48270576236416796)),
    ((8, 8, 5), ("graded_relu", "graded_relu"),
     (0.6306502572823975, 1.3788162710824703, 1.0731648745745974, 1.2985952968328152,
      1.1952530335957308, 0.5541976338068855, 0.5702246832464661, 1.3748310125879613),
     (0.5209561716453472, 0.6194244502443456, 0.5954748970473508, 0.9558032773814734,
      0.10342870421009771)),
    ((1, 3, 4, 2), ("signed_graded_relu", "graded_relu", "signed_graded_relu"),
     (1.414725610891003,),
     (0.4790571959480383, 0.6492428458326311)),
    ((8, 8, 7), ("graded_relu", "graded_relu"),
     (1.0518370500131495, 0.5076799406429385, 0.9753288317682978, 1.2626622859581738,
      0.6192574239879398, 1.0559596326021519, 1.243584976640505, 1.0607983200728681),
     (0.49898634728413005, 0.5079595904438456, 0.3174021965583117, 0.7695070436703052,
      0.8314806418715995, 0.6039931026232017, 0.10803341504672057)),
    ((8, 4, 2), ("identity", "classical_relu"),
     (0.5158444831726785, 1.2138980717651269, 1.4346185536344391, 1.0563116840213111,
      1.2956041726705179, 0.6633822466552184, 0.509828365628525, 1.1960022200030462),
     (0.6048182130138681, 0.6952544743403395)),
    ((4, 7, 5, 4), ("identity", "identity", "signed_graded_relu"),
     (0.9647432041510305, 0.5277527386677273, 0.5930586623200106, 1.115577276880575),
     (0.2902453331592979, 0.15859838913127772, 0.4283337692457321, 0.15504774934944363)),
    ((4, 5, 2), ("graded_relu", "classical_relu"),
     (0.6795234277803678, 1.4137603207013378, 1.1098723867779294, 1.498891189731008),
     (0.12525280706348152, 0.327620935978485)),
)


def test_grad_check_draws_each_case_from_its_own_stream():
    for i, (widths, acts, x, y) in enumerate(_SEED0_STREAM_CASES):
        net, xv, yv = _random_check_case(np.random.default_rng([0, i]), _CHECK_KINDS[i])
        assert (net.layers[0].n_in,) + tuple(l.n_out for l in net.layers) == widths
        assert tuple(l.activation.value for l in net.layers) == acts
        assert tuple(xv[0].tolist()) == x and tuple(yv[0].tolist()) == y


@pytest.mark.parametrize("count, seed", [(7, 0), (10, 12), (3, 2204877786710033)])
def test_grad_check_suite_is_the_list_of_its_cases(count, seed, fork_counter):
    """Forked or not, the suite reports case i of its own stream, in order."""
    expected = []
    for i in range(count):
        kind = _CHECK_KINDS[i % len(_CHECK_KINDS)]
        net, x, y = _random_check_case(np.random.default_rng([seed, i]), kind)
        expected.append((kind.as_text(), finite_diff_check(net, x, y, kind)))
    for cpus in (2, 1):
        forks = fork_counter(cpus)
        assert grad_check_suite(count=count, seed=seed) == expected
        assert len(forks) == (cpus == 2)
