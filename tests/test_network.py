"""Neurons, activations, layers, log-domain evaluation, serialization."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradednn.datasets import monomial_value
from gradednn.ioutil import ConfigError
from gradednn.network import (
    CLAMP,
    ActivationKind,
    GradeBlock,
    Layer,
    Network,
    NonFiniteForwardError,
    _signed_logsumexp,
    activation_slope,
    activation_value,
    effective_weights,
    forward_trace,
    load_network,
    log_domain_forward,
    multiplicative_core,
    multiplicative_sign,
    network_forward,
    network_from_dict,
    network_to_dict,
    parse_activation,
    random_network,
    save_network,
    weight_base_slope,
)
from gradednn.spaces import (
    GradedDomainError,
    GradedVector,
    GradingMismatchError,
    GradingVector,
    ones_grading,
)

Q7 = GradingVector([2, 2, 2, 3, 3, 3, 3])


def test_graded_relu_worked_vector():
    x = GradedVector([2, -3, 1, 1, -2, 1, 1], Q7)
    out = activation_value(ActivationKind.GRADED_RELU, x.values, x.grading.floats)
    expect = [math.sqrt(2), math.sqrt(3), 1, 1, 2 ** (1 / 3), 1, 1]
    assert np.allclose(out, expect, atol=1e-12)


def test_signed_relu_kills_negatives():
    x = GradedVector([2, -3, 1, 1, -2, 1, 1], Q7)
    out = activation_value(ActivationKind.SIGNED_GRADED_RELU, x.values, x.grading.floats)
    expect = [math.sqrt(2), 0, 1, 1, 0, 1, 1]
    assert np.allclose(out, expect, atol=1e-12)


def test_graded_exp_worked_values():
    x = GradedVector([2, -3, 1, 1, -2, 1, 1], Q7)
    out = activation_value(ActivationKind.GRADED_EXP, x.values, x.grading.floats)
    assert out[0] == pytest.approx(math.e - 1.0, abs=1e-12)
    assert out[1] == pytest.approx(math.exp(-1.5) - 1.0, abs=1e-12)
    assert out[3] == pytest.approx(math.exp(1 / 3) - 1.0, abs=1e-12)


def test_clamp_band_is_flat():
    q = np.array([2.0])
    for kind in (ActivationKind.GRADED_RELU, ActivationKind.SIGNED_GRADED_RELU):
        assert activation_value(kind, np.array([CLAMP / 2]), q) == 0.0
        assert activation_slope(kind, np.array([CLAMP / 2]), q) == 0.0
        assert activation_value(kind, np.array([-CLAMP / 2]), q) == 0.0


def test_parse_activation_names():
    assert parse_activation("graded_relu") is ActivationKind.GRADED_RELU
    assert parse_activation("identity") is ActivationKind.IDENTITY
    with pytest.raises(ValueError):
        parse_activation("swish")


@given(st.floats(0.01, 50.0), st.sampled_from([1, 2, 3, 4]))
def test_graded_relu_left_inverse_of_power(v, q):
    # |z|**(1/q) undoes z = v**q on positive values
    g = GradingVector([q])
    x = GradedVector([v ** q], g)
    assert activation_value(ActivationKind.GRADED_RELU, x.values, x.grading.floats)[0] == (
        pytest.approx(v, rel=1e-9))


def test_effective_weights_and_slope():
    g = GradingVector([2, 3])
    w = np.array([[0.5, -0.5]])
    eff = effective_weights(w, g)
    assert np.allclose(eff, [[0.25, -0.125]], atol=1e-15)
    slope = weight_base_slope(w, g)
    assert np.allclose(slope, [[2 * 0.5, 3 * 0.25]], atol=1e-15)
    # at w=0 the derivative of sgn(w)|w|**q is 0 unless q == 1
    z = np.zeros((1, 2))
    assert np.allclose(weight_base_slope(z, GradingVector([1, 2])), [[1.0, 0.0]])


def _neuron(w, b, grading, exponents=None):
    """One graded neuron: a one-output identity Layer."""
    return Layer(np.array(w, dtype=float)[np.newaxis], [b], ActivationKind.IDENTITY,
                 grading, ones_grading(1), exponents=exponents)


def _value(neuron, x):
    return neuron.forward(np.array([x], dtype=float)).z[0, 0]


def _log_form(neuron, x):
    """(sign, log|z|) of a one-output layer at one sample."""
    sign, log = log_domain_forward(neuron, np.array([x], dtype=float))
    assert sign.shape == log.shape == (1, 1)
    return float(sign[0, 0]), float(log[0, 0])


def test_additive_neuron_forward():
    n = _neuron([0.5, -0.5], 0.25, GradingVector([2, 3]))
    x = GradedVector([2.0, 2.0], GradingVector([2, 3]))
    # 0.25*2 - 0.125*2 + 0.25
    assert network_forward(Network([n]), x).values[0] == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(GradingMismatchError):
        network_forward(Network([n]), GradedVector([1.0, 1.0], GradingVector([1, 1])))


def test_multiplicative_neuron_worked_value():
    n = _neuron(np.ones(7), 0.0, Q7, exponents=(1, 0, 0, 2, 0, 0, 0))
    x = GradedVector([1, 0, 0, 2, 0, 0, 0], Q7)
    assert network_forward(Network([n]), x).values[0] == pytest.approx(4.0, abs=1e-12)
    degree = sum((q * k for q, k in zip(Q7.grades, n.exponents)), Fraction(0))
    assert degree == Fraction(8)  # 2*1 + 3*2


def test_multiplicative_fractional_domain():
    g = GradingVector([2])
    n = _neuron(np.ones(1), 0.0, g, exponents=("1/2",))
    assert _value(n, [4.0]) == pytest.approx(2.0)
    with pytest.raises(GradedDomainError):
        _value(n, [-4.0])


def test_multiplicative_integer_signs():
    g = GradingVector([1, 1])
    n = _neuron(np.ones(2), 0.0, g, exponents=(1, 2))
    # odd power keeps the sign, even power drops it
    assert _value(n, [-2.0, -3.0]) == pytest.approx(-18.0)


def test_multiplicative_kernel_follows_the_sign_rule():
    g = GradingVector([1, 1])
    n = _neuron(np.ones(2), 0.0, g, exponents=(1, 2))
    k = np.array([1.0, 2.0])
    x = np.array([[-2.0, 1.0]])
    pred = multiplicative_core(np.ones(2), k, x)
    assert pred[0] == -2.0 == _value(n, [-2.0, 1.0])
    with pytest.raises(GradedDomainError, match="^fractional exponent 0.5 of input 0 "
                                                "needs positive inputs, got 0 in row 1$"):
        multiplicative_sign(np.array([0.5]), np.array([[4.0], [0.0]]))
    # rows (1, N, n) as Layer.forward passes them: the first entry in row order
    rows = np.array([[[4.0, 1.0, 2.0], [3.0, 5.0, -2.5], [-1.0, 1.0, -3.0]]])
    with pytest.raises(GradedDomainError, match="^fractional exponent 0.25 of input 2 "
                                                "needs positive inputs, got -2.5 in row 1$"):
        multiplicative_sign(np.array([0.5, 1.0, 0.25]), rows)


def _signed_product(w, k, x):
    """prod_i s_i |w_i x_i|**k_i with every term signed before the product,
    s_i = -1 where an odd integer k_i meets a negative x_i: the sign rule
    applied entry by entry."""
    terms = np.abs(w[..., np.newaxis, :] * x) ** k
    return np.prod(np.where((x < 0.0) & (k % 2.0 == 1.0), -terms, terms), axis=-1)


def test_multiplicative_core_gives_the_floats_of_a_signed_product():
    """The core multiplies the product of the magnitudes by the row sign;
    rounding is symmetric in sign, so every float and every signed zero is
    that of the product of signed terms."""
    rng = np.random.default_rng(11)
    choices = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    negative_zeros = 0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        k = rng.choice(choices, size=n)
        w = rng.choice([0.0, -0.0, 0.25, -0.75, 1.5, rng.uniform(-2.0, 2.0)], size=(3, n))
        x = rng.choice([0.0, -0.0, -1.5, -0.5, 0.5, 2.0, rng.uniform(-2.0, 2.0)], size=(20, n))
        x = np.where(k != np.round(k), np.abs(x) + 0.25, x)  # fractional: positive inputs
        for weights in (w, w[0]):
            core, ref = multiplicative_core(weights, k, x), _signed_product(weights, k, x)
            assert np.array_equal(core, ref)
            assert np.array_equal(np.signbit(core), np.signbit(ref))
            negative_zeros += np.count_nonzero((core == 0.0) & np.signbit(core))
    assert negative_zeros > 0


def test_an_exponent_whose_float_is_an_integer_keeps_its_fractional_domain():
    """(2**53 + 1)/2 rounds to the even float 2**52, but it is fractional:
    the layer refuses a negative input as the monomial target does."""
    k = (Fraction(2 ** 53 + 1, 2), Fraction(1))
    assert float(k[0]) == 2.0 ** 52
    n = _neuron([1.0, 1.0], 0.0, GradingVector([1, 1]), exponents=k)
    x = np.array([[0.5, 1.0], [-1.0, 1.0]])
    for evaluate in (n.forward, lambda rows: log_domain_forward(n, rows),
                     lambda rows: monomial_value(rows, k, 1.0)):
        with pytest.raises(GradedDomainError, match="^fractional exponent 4.5036e"):
            evaluate(x)


def test_an_odd_exponent_beyond_the_float_integers_keeps_its_sign():
    """2**53 + 1 is odd, but its float 2**53 is even: at x = -1 the layer,
    its log-domain sign and the monomial target all give -1.  A float
    exponent is the rational it holds, so the float 2**53 gives +1."""
    k = (Fraction(2 ** 53 + 1),)
    n = _neuron([1.0], 0.0, GradingVector([1]), exponents=k)
    assert _value(n, [-1.0]) == -1.0
    assert _log_form(n, [-1.0]) == (-1.0, 0.0)
    assert monomial_value([[-1.0]], k, 1.0)[0] == -1.0
    assert multiplicative_sign(np.array([float(2 ** 53 + 1)]), np.array([[-1.0]]))[0] == 1.0


def test_log_domain_cancellation_is_sign_zero():
    n = _neuron([5.0], -5.0, GradingVector([1]))
    sign, log = _log_form(n, [1.0])
    assert sign == 0.0 and log == -math.inf
    # an all-zero layer is an exact zero too
    sign, log = _log_form(_neuron([0.0, 0.0], 0.0, GradingVector([1, 2])), [0.0, 3.0])
    assert sign == 0.0 and log == -math.inf


@given(st.lists(st.floats(-20.0, 20.0).filter(lambda v: abs(v) > 1e-6),
                min_size=1, max_size=6))
def test_signed_logsumexp_matches_direct(terms):
    t = np.array(terms)
    direct = sum(terms)
    if abs(direct) < 1e-9 * max(abs(v) for v in terms):
        return  # near-total cancellation: relative comparison meaningless
    sign, log = _signed_logsumexp(np.sign(t), np.log(np.abs(t)))
    assert sign * math.exp(log) == pytest.approx(direct, rel=1e-12)


def test_log_domain_additive_matches_direct():
    rng = np.random.default_rng(0)
    g = GradingVector([2, 3, 1])
    for _ in range(50):
        n = _neuron(rng.uniform(-2, 2, 3), float(rng.uniform(-1, 1)), g)
        x = rng.uniform(0.1, 3.0, 3)
        direct = _value(n, x)
        sign, log = _log_form(n, x)
        assert sign * math.exp(log) == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_log_domain_survives_overflow():
    g = GradingVector([1200])
    n = _neuron([2.0], 0.0, g)
    sign, log = _log_form(n, [1.0])
    assert sign == 1.0
    assert log == pytest.approx(1200 * math.log(2.0), rel=1e-15)
    assert math.isfinite(log)
    # the direct evaluation overflows to inf for the same parameters
    with np.errstate(over="ignore"):
        assert not np.isfinite(_value(n, [1.0]))


def test_log_domain_multiplicative():
    g = GradingVector([2, 3])
    n = _neuron([1.5, 0.5], 0.25, g, exponents=(2, 1))
    x = np.array([2.0, 3.0])
    sign, log = _log_form(n, x)
    assert sign * math.exp(log) == pytest.approx(_value(n, x), rel=1e-12)


def _random_layer(rng, kind, n_out, n_in):
    """An additive, block-masked or multiplicative layer with signed weights
    and biases, some of them zero."""
    w = rng.uniform(-2.0, 2.0, (n_out, n_in)) * (rng.random((n_out, n_in)) > 0.2)
    b = rng.uniform(-3.0, 3.0, n_out) * (rng.random(n_out) > 0.3)
    if kind == "blocked":
        g_in = GradingVector([1] * (n_in // 2) + [2] * (n_in - n_in // 2))
        g_out = GradingVector([1] * (n_out // 2) + [2] * (n_out - n_out // 2))
        blocks = [GradeBlock(Fraction(1), (0, n_out // 2), (0, n_in // 2)),
                  GradeBlock(Fraction(2), (n_out // 2, n_out), (n_in // 2, n_in))]
        mask = np.zeros((n_out, n_in), dtype=bool)
        for blk in blocks:
            mask[slice(*blk.rows), slice(*blk.cols)] = True
        layer = Layer(w * mask, b, ActivationKind.IDENTITY, g_in, g_out, blocks)
        layer.weight_base[~mask] = 7.0  # outside the blocks: no contribution
        return layer
    g_in = GradingVector(rng.integers(1, 5, n_in))
    ks = tuple(int(k) for k in rng.integers(0, 4, n_in)) if kind == "multiplicative" else None
    return Layer(w, b, ActivationKind.IDENTITY, g_in, ones_grading(n_out), exponents=ks)


@pytest.mark.parametrize("kind", ["additive", "blocked", "multiplicative"])
def test_log_domain_layer_matches_direct_evaluation(kind):
    rng = np.random.default_rng(11)
    for n_rows in range(1, 6):
        for _ in range(20):
            layer = _random_layer(rng, kind, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            x = rng.uniform(-2.0, 2.0, (n_rows, layer.n_in)) * (rng.random((n_rows, layer.n_in)) > 0.1)
            direct = layer.forward(x).z
            sign, log = log_domain_forward(layer, x)
            assert sign.shape == log.shape == direct.shape == (n_rows, layer.n_out)
            assert np.array_equal(sign == 0.0, log == -np.inf)
            back = sign * np.exp(log)
            # the scale of the largest term bounds the error of either sum
            terms = np.abs(layer.forward(np.abs(x)).z - layer.bias) + np.abs(layer.bias)
            assert np.all(np.abs(back - direct) <= 1e-12 * np.maximum(terms, 1e-300))
            one = log_domain_forward(layer, x[:1])
            assert one[0].shape == (1, layer.n_out)
            assert np.array_equal(one[0], sign[:1]) and np.array_equal(one[1], log[:1])


@pytest.mark.parametrize("kind", ["additive", "blocked", "multiplicative"])
def test_a_weight_stack_gives_each_slice_the_floats_of_its_own_layer(kind):
    """The contract that finite_diff_check's stacked passes and approx-bench's
    graded cell rely on, bit for bit, forward and backward; and through
    forward_trace, a stack of parameter vectors laid out as Network.theta
    gives each slice the floats of the network that holds it."""
    rng = np.random.default_rng(23)
    layer = _random_layer(rng, kind, 3, 4)
    layer.activation = ActivationKind.SIGNED_GRADED_RELU
    ws = layer.weight_base + rng.uniform(-0.5, 0.5, (5, 3, 4))
    bs = layer.bias + rng.uniform(-0.5, 0.5, (5, 3))
    x = rng.uniform(-2.0, 2.0, (6, 4))
    g = rng.uniform(-1.0, 1.0, (5, 6, 3))
    stacked = layer.forward(x, ws, bs)
    grads = layer._backward(stacked, g, True, ws)
    for s in range(5):
        w = ws[s] if layer.mask is None else np.where(layer.mask, ws[s], 0.0)
        own = Layer(w, bs[s], layer.activation, layer.in_grading, layer.out_grading,
                    layer.blocks, layer.exponents)
        one = own.forward(x)
        for name in ("w", "z", "y"):
            assert np.array_equal(getattr(stacked, name)[s], getattr(one, name)), name
        # weight, bias and input gradients; a multiplicative layer forms no
        # input gradient
        for got, want in zip(grads, own._backward(one, g[s], True)):
            assert got is want is None or np.array_equal(got[s], want)
    after = Layer(rng.uniform(-1.0, 1.0, (2, 3)), rng.uniform(-1.0, 1.0, 2),
                  ActivationKind.GRADED_EXP, layer.out_grading, ones_grading(2))
    net = Network([layer, after])
    thetas = net.theta + rng.uniform(-0.5, 0.5, (5, len(net.theta)))
    trace, out = forward_trace(net, x, thetas)
    for s in range(5):
        net.theta[:] = thetas[s]
        one_trace, one_out = forward_trace(net, x)
        assert np.array_equal(out[s], one_out)
        for got, want in zip(trace, one_trace):
            assert got.w is None
            for name in ("z", "y"):
                assert np.array_equal(getattr(got, name)[s], getattr(want, name)), name


@pytest.mark.parametrize("exponents", [None, (2, 1)], ids=["additive", "multiplicative"])
def test_a_wrong_operand_is_refused(exponents):
    layer = _neuron([0.5, 1.5], 0.25, GradingVector([1, 2]), exponents=exponents)
    net = Network([layer])
    for x in (np.array([1.0, 2.0]), np.ones((1, 3)), np.ones((4, 1)), np.float64(1.0)):
        for evaluate, operator in ((forward_trace, net), (log_domain_forward, layer),
                                   (Layer.forward, layer)):
            with pytest.raises(GradingMismatchError, match=r"need \(N, 2\) rows"):
                evaluate(operator, x)
    # a stack of row batches gives each batch's own rows
    x = np.arange(1.0, 13.0).reshape(3, 2, 2)
    out = forward_trace(net, x)[1]
    sign, log = log_domain_forward(layer, x)
    for s in range(3):
        assert np.array_equal(out[s], forward_trace(net, x[s])[1])
        assert np.array_equal(sign[s], log_domain_forward(layer, x[s])[0])
        assert np.array_equal(log[s], log_domain_forward(layer, x[s])[1])
    # the empty network checks nothing: it is the identity on any operand
    assert forward_trace(Network([]), x[0, 0])[1].shape == (2,)


def test_log_domain_multiplicative_survives_overflow_and_checks_its_domain():
    # |w x|^k = 4^600 = 2^1200 overflows float64 but not its log magnitude
    n = _neuron([2.0], 0.0, GradingVector([1]), exponents=(600,))
    sign, log = _log_form(n, [2.0])
    assert sign == 1.0 and log == pytest.approx(1200.0 * math.log(2.0), rel=1e-15)
    # odd exponents keep the sign of a negative input
    n = _neuron([2.0, 1.0], 0.0, GradingVector([1, 1]), exponents=(601, 2))
    sign, log = _log_form(n, [-2.0, 1.0])
    assert sign == -1.0 and log == pytest.approx(1202.0 * math.log(2.0), rel=1e-15)
    n = _neuron([1.0, 1.0], 0.0, GradingVector([1, 1]), exponents=("1/2", 1))
    for x in ([-4.0, 1.0], [0.0, 1.0]):
        with pytest.raises(GradedDomainError):
            _log_form(n, x)


def _simple_net():
    g1, g2 = GradingVector([2, 3]), GradingVector([1, 2, 3])
    l1 = Layer(np.full((3, 2), 0.5), np.array([0.1, 0.0, -0.1]),
               ActivationKind.GRADED_RELU, g1, g2)
    l2 = Layer(np.full((1, 3), 0.7), np.array([0.2]),
               ActivationKind.IDENTITY, g2, GradingVector([2]))
    return Network([l1, l2])


def test_forward_trace_shapes():
    net = _simple_net()
    trace, out = forward_trace(net, np.array([[1.0, 1.0]]))
    assert len(trace) == 2 and out.shape == (1, 1)
    rec = trace[0]
    assert rec.x.shape == (1, 2) and rec.z.shape == (1, 3) and rec.y.shape == (1, 3)


def test_network_grading_chain_enforced():
    g1, g2 = GradingVector([2]), GradingVector([3])
    l1 = Layer(np.ones((1, 1)), np.zeros(1), ActivationKind.IDENTITY, g1, g1)
    l2 = Layer(np.ones((1, 1)), np.zeros(1), ActivationKind.IDENTITY, g2, g2)
    with pytest.raises(GradingMismatchError):
        Network([l1, l2])


def test_network_forward_empty_is_identity():
    x = GradedVector([1.0, 2.0], GradingVector([1, 2]))
    assert network_forward(Network([]), x) is x


def test_non_finite_forward_names_layer():
    g = GradingVector([1])
    l1 = Layer(np.array([[2.0]]), np.zeros(1), ActivationKind.IDENTITY, g, g)
    l2 = Layer(np.array([[2.0]]), np.zeros(1), ActivationKind.GRADED_EXP, g, g)
    net = Network([l1, l2])  # 400 -> 800 -> expm1(1600) overflows in layer 1
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteForwardError) as err:
            network_forward(net, GradedVector([400.0], g))
    assert "layer 1" in str(err.value) and str(err.value).endswith("in its output")
    # 2**1200 overflows the effective weight, so layer 0's pre-activation goes first
    wide = Layer(np.array([[2.0]]), np.zeros(1), ActivationKind.IDENTITY,
                 GradingVector([1200]), g)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteForwardError) as err:
            network_forward(Network([wide, l2]), GradedVector([1.0], GradingVector([1200])))
    assert str(err.value) == "layer 0 produced non-finite values in its pre-activation"


def _mult_net():
    """A multiplicative first layer into an additive one."""
    net = random_network(
        [GradingVector(["1/2", 3]), GradingVector([1, 2]), GradingVector([1])],
        [ActivationKind.IDENTITY, ActivationKind.GRADED_EXP],
        np.random.default_rng(5), exponents=("1/2", 3))
    net.layers[0].bias[:] = [0.1, -0.2]
    return net


def test_multiplicative_layer_computes_one_neuron_per_output():
    net = _mult_net()
    layer = net.layers[0]
    x = np.array([[0.5, 2.0], [1.5, -0.25]])
    trace, _ = forward_trace(net, x)
    w, b = layer.weight_base, layer.bias
    for j in range(2):
        for s in range(2):
            # exponents (1/2, 3): the odd cube keeps the sign of x_1
            closed = math.sqrt(w[j, 0] * x[s, 0]) * (w[j, 1] * x[s, 1]) ** 3 + b[j]
            assert trace[0].z[s, j] == pytest.approx(closed, rel=1e-15, abs=1e-15)
    one, _ = forward_trace(net, x[1:])
    assert one[0].z.shape == (1, 2) and np.array_equal(one[0].z[0], trace[0].z[1])
    with pytest.raises(GradedDomainError):
        forward_trace(net, -x)  # the exponent 1/2 needs positive inputs


def test_multiplicative_layer_is_checked():
    g = GradingVector([1, 2])
    w, b, act = np.ones((2, 2)), np.zeros(2), ActivationKind.IDENTITY
    with pytest.raises(GradingMismatchError, match="exponents length"):
        Layer(w, b, act, g, g, exponents=(2,))
    with pytest.raises(GradedDomainError, match=">= 0"):
        Layer(w, b, act, g, g, exponents=(2, -1))
    with pytest.raises(GradedDomainError, match="fit a float64"):
        Layer(w, b, act, g, g, exponents=(2, "1e400"))
    # an integer exponent beyond float64 passes the parse and fails the conversion
    with pytest.raises(GradedDomainError, match="^multiplicative exponents must fit a float64$"):
        Layer(w, b, act, g, g, exponents=(10 ** 400, 1))
    blocks = [GradeBlock(Fraction(1), (0, 1), (0, 1)), GradeBlock(Fraction(2), (1, 2), (1, 2))]
    with pytest.raises(GradingMismatchError, match="takes no blocks"):
        Layer(np.eye(2), b, act, g, g, blocks, exponents=(2, 1))


def test_only_the_first_layer_may_be_multiplicative():
    g = GradingVector([1, 2])
    mult = Layer(np.ones((2, 2)), np.zeros(2), ActivationKind.IDENTITY, g, g,
                 exponents=(2, 1))
    add = Layer(np.ones((2, 2)), np.zeros(2), ActivationKind.IDENTITY, g, g)
    doc = network_to_dict(Network([mult, add]))
    with pytest.raises(GradedDomainError, match="^layer 1 is multiplicative"):
        Network([add, mult])
    doc["layers"][1]["exponents"] = "2,1"
    with pytest.raises(ConfigError, match=r"^layers\[1\]\.exponents: only the first "
                                          r"layer may be multiplicative$"):
        network_from_dict(doc)


@pytest.mark.parametrize("exponents, message", [
    (5, "layers[0].exponents must be a string"),
    ("3", 'layers[0].exponents must be 2 nonnegative rationals such as "2,2"'),
    ("1/2,-3", 'layers[0].exponents must be 2 nonnegative rationals such as "2,2"'),
    ("1/2,1e400", "layers[0].exponents: an exponent does not fit a float64"),
    pytest.param("1/2,%d" % 10 ** 400,
                 "layers[0].exponents: an exponent does not fit a float64", id="401-digit integer"),
])
def test_network_loader_checks_exponents(exponents, message):
    doc = network_to_dict(_mult_net())
    assert doc["layers"][0]["exponents"] == "1/2,3"
    doc["layers"][0]["exponents"] = exponents
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        network_from_dict(doc)


def test_blocks_validated_and_masked():
    gio = GradingVector([2, 3])
    blocks = [GradeBlock(Fraction(2), (0, 1), (0, 1)),
              GradeBlock(Fraction(3), (1, 2), (1, 2))]
    w = np.array([[0.5, 0.0], [0.0, 0.5]])
    layer = Layer(w, np.zeros(2), ActivationKind.IDENTITY, gio, gio, blocks)
    assert np.array_equal(layer.mask, np.eye(2, dtype=bool))

    bad_entry = np.array([[0.5, 0.4], [0.0, 0.5]])
    with pytest.raises(GradingMismatchError):
        Layer(bad_entry, np.zeros(2), ActivationKind.IDENTITY, gio, gio, blocks)

    wrong_grade = [GradeBlock(Fraction(3), (0, 1), (0, 1))]
    with pytest.raises(GradingMismatchError):
        Layer(np.array([[0.5, 0.0], [0.0, 0.0]]), np.zeros(2),
              ActivationKind.IDENTITY, gio, gio, wrong_grade)

    out_of_range = [GradeBlock(Fraction(2), (0, 5), (0, 1))]
    with pytest.raises(GradingMismatchError):
        Layer(np.zeros((2, 2)), np.zeros(2), ActivationKind.IDENTITY,
              gio, gio, out_of_range)

    swapped = GradingVector([3, 2])
    with pytest.raises(GradingMismatchError,
                       match="^block grade 2 does not match input coordinate 0$"):
        Layer(np.array([[0.5, 0.0], [0.0, 0.0]]), np.zeros(2), ActivationKind.IDENTITY,
              swapped, gio, [GradeBlock(Fraction(2), (0, 1), (0, 1))])


@pytest.mark.parametrize("side, out_grades, in_grades", [
    ("output", [2, 3], [2, 2]),
    ("input", [2, 2], [2, 3]),
])
def test_block_grade_is_checked_on_every_coordinate_it_spans(side, out_grades, in_grades):
    """A 2x2 block of grade 2 whose second output, or second input,
    coordinate has grade 3: built directly or loaded, the error names
    that coordinate, and the loader names the layer."""
    g_in, g_out = GradingVector(in_grades), GradingVector(out_grades)
    w = np.full((2, 2), 0.5)
    message = "block grade 2 does not match %s coordinate 1" % side
    with pytest.raises(GradingMismatchError, match="^%s$" % message):
        Layer(w, np.zeros(2), ActivationKind.IDENTITY, g_in, g_out,
              [GradeBlock(Fraction(2), (0, 2), (0, 2))])
    doc = network_to_dict(Network([Layer(w, np.zeros(2), ActivationKind.IDENTITY,
                                         g_in, g_out)]))
    doc["layers"][0]["blocks"] = [{"grade": "2", "rows": [0, 2], "cols": [0, 2]}]
    with pytest.raises(ConfigError, match=r"^layers\[0\]: %s$" % message):
        network_from_dict(doc)


def test_layer_refuses_weight_and_bias_shapes_off_its_gradings():
    g2, g3 = GradingVector([1, 2]), GradingVector([1, 2, 3])
    with pytest.raises(GradingMismatchError,
                       match=r"^weight shape \(2, 3\) does not match \(2, 2\)$"):
        Layer(np.ones((2, 3)), np.zeros(2), ActivationKind.IDENTITY, g2, g2)
    with pytest.raises(GradingMismatchError,
                       match="^bias length does not match output grading$"):
        Layer(np.ones((3, 2)), np.zeros(2), ActivationKind.IDENTITY, g2, g3)


def test_random_network_needs_one_activation_per_layer():
    with pytest.raises(ValueError, match="^need one activation per layer$"):
        random_network([ones_grading(2), ones_grading(1)],
                       [ActivationKind.IDENTITY] * 2, np.random.default_rng(0))


def test_serialization_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    gradings = [GradingVector([2, 3]), GradingVector(["1/2", "2", "3"]),
                GradingVector([1])]
    acts = [ActivationKind.GRADED_RELU, ActivationKind.IDENTITY]
    net = random_network(gradings, acts, rng)
    net.layers[0].bias[:] = rng.uniform(-1, 1, 3)
    path = tmp_path / "model.json"
    save_network(net, path)
    back = load_network(path)
    for mine, theirs in zip(net.layers, back.layers):
        assert np.array_equal(mine.weight_base, theirs.weight_base)
        assert np.array_equal(mine.bias, theirs.bias)
        assert mine.activation is theirs.activation
        assert mine.in_grading == theirs.in_grading
        assert mine.out_grading == theirs.out_grading
    # a second save is byte-identical
    path2 = tmp_path / "model2.json"
    save_network(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_serialization_keeps_blocks(tmp_path):
    gio = GradingVector([2, 3])
    blocks = [GradeBlock(Fraction(2), (0, 1), (0, 1)),
              GradeBlock(Fraction(3), (1, 2), (1, 2))]
    w = np.array([[0.25, 0.0], [0.0, 0.75]])
    net = Network([Layer(w, np.zeros(2), ActivationKind.IDENTITY, gio, gio, blocks)])
    doc = network_to_dict(net)
    assert doc["layers"][0]["blocks"][0] == {"grade": "2", "rows": [0, 1], "cols": [0, 1]}
    back = network_from_dict(doc)
    assert back.layers[0].blocks == tuple(blocks)
    path = tmp_path / "blocks.json"
    save_network(net, path)
    assert np.array_equal(load_network(path).layers[0].mask, np.eye(2, dtype=bool))


def _block_net():
    gio = GradingVector([2, 3])
    blocks = [GradeBlock(Fraction(2), (0, 1), (0, 1)),
              GradeBlock(Fraction(3), (1, 2), (1, 2))]
    w = np.array([[0.25, 0.0], [0.0, 0.75]])
    return Network([Layer(w, np.array([0.1, -0.2]), ActivationKind.GRADED_EXP,
                          gio, gio, blocks)])


@pytest.mark.parametrize("make", [
    lambda: Network([]),
    _block_net,
    lambda: random_network(
        [GradingVector(["1/2", 3]), GradingVector([1, 2, 2]), GradingVector([1])],
        [ActivationKind.SIGNED_GRADED_RELU, ActivationKind.CLASSICAL_RELU],
        np.random.default_rng(3)),
    _mult_net,
])
def test_every_saved_network_loads_back_bit_exactly(tmp_path, make):
    net = make()
    save_network(net, tmp_path / "a.json")
    back = load_network(tmp_path / "a.json")
    assert len(back.layers) == len(net.layers)
    for mine, theirs in zip(net.layers, back.layers):
        assert np.array_equal(mine.weight_base, theirs.weight_base)
        assert np.array_equal(mine.bias, theirs.bias)
        assert mine.blocks == theirs.blocks
        assert mine.exponents == theirs.exponents
    save_network(back, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("layers"), "missing key layers"),
    (lambda d: d.pop("gradings"), "missing key gradings"),
    (lambda d: d.update(kind="multiplicative"), "unknown key kind"),
    (lambda d: d["layers"][0].update(weights=[1.0]), "unknown key layers[0].weights"),
    (lambda d: d["layers"][0].pop("bias"), "missing key layers[0].bias"),
    # a renamed key is both missing and unknown: the missing one is named
    (lambda d: d["layers"][0].update(biases=d["layers"][0].pop("bias")),
     "missing key layers[0].bias"),
    (lambda d: d.update(layers={}), "layers must be a list"),
    (lambda d: d.update(layers=[]), "gradings must be a list of 0 entries"),
    (lambda d: d.update(gradings=5), "gradings must be a list of 2 entries"),
    (lambda d: d["gradings"].append("2,3"), "gradings must be a list of 2 entries"),
    (lambda d: d.update(gradings=[2, "2,3"]),
     'gradings[0]: grading must be a string such as "2,3"'),
    (lambda d: d["gradings"].__setitem__(0, "1e400,2"),
     "gradings[0]: grade 1e400 does not fit a float64"),
    (lambda d: d["layers"][0].update(rows="x"), "layers[0].rows must be an integer"),
    (lambda d: d["layers"][0].update(cols=True), "layers[0].cols must be an integer"),
    (lambda d: d["layers"][0].update(rows=3),
     "layers[0].rows is 3 but gradings[1] has 2 coordinates"),
    (lambda d: d["layers"][0].update(weight_base=[1.0]),
     "layers[0].weight_base must be a list of 4 entries"),
    (lambda d: d["layers"][0].update(weight_base=[10 ** 400, 0.0, 0.0, 0.0]),
     "layers[0].weight_base[0] must be a number"),
    (lambda d: d["layers"][0]["weight_base"].__setitem__(3, "0.75"),
     "layers[0].weight_base[3] must be a number"),
    (lambda d: d["layers"][0].update(bias=[0.0, math.nan]),
     "layers[0].bias[1] must be a number"),
    (lambda d: d["layers"][0].update(activation=5), "layers[0].activation must be a string"),
    (lambda d: d["layers"][0].update(activation="tanh"),
     "layers[0].activation: unknown activation 'tanh'"),
    (lambda d: d["layers"][0].update(blocks=3), "layers[0].blocks must be a list"),
    (lambda d: d["layers"][0]["blocks"][0].pop("grade"),
     "missing key layers[0].blocks[0].grade"),
    (lambda d: d["layers"][0]["blocks"][1].update(rows=[1]),
     "layers[0].blocks[1].rows must be a list of 2 entries"),
    (lambda d: d["layers"][0]["blocks"][0]["rows"].__setitem__(1, 1.0),
     "layers[0].blocks[0].rows[1] must be an integer"),
    (lambda d: d["layers"][0]["blocks"][0].update(grade="2/0"),
     "layers[0].blocks[0].grade: grade '2/0' has a zero denominator"),
    (lambda d: d["layers"][0]["blocks"][0].update(grade="1e10000000"),
     "layers[0].blocks[0].grade: grade 1e10000000 does not fit a float64"),
    (lambda d: d["layers"][0]["blocks"][0].update(grade="3"),
     "layers[0]: block grade 3 does not match output coordinate 0"),
])
def test_network_loader_rejects_missing_and_unknown_keys(mutate, message):
    doc = network_to_dict(_block_net())
    mutate(doc)
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        network_from_dict(doc)


@pytest.mark.parametrize("text, message", [
    (None, "cannot read saved network {path}: [Errno 2] No such file or directory: '{path}'"),
    ("gradings: []", "saved network {path} is not valid JSON: Expecting value: line 1 "
                     "column 1 (char 0)"),
    ('{"gradings": [], "layers": [], "gradings": []}',
     "saved network {path}: duplicate key gradings"),
    ('{"gradings": [], "layers": [{"rows": 1, "rows": 1}]}',
     "saved network {path}: duplicate key rows"),
], ids=["missing", "not_json", "repeated_key", "repeated_nested_key"])
def test_load_network_names_the_file(tmp_path, text, message):
    path = tmp_path / "model.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message.format(path=path))):
        load_network(path)


def test_network_loader_rejects_non_objects():
    with pytest.raises(ValueError, match="^a saved network must be a JSON object$"):
        network_from_dict([1, 2])
    doc = network_to_dict(_block_net())
    doc["layers"] = [[1]]
    with pytest.raises(ValueError, match=r"^layers\[0\] must be a JSON object$"):
        network_from_dict(doc)
    doc = network_to_dict(_block_net())
    doc["layers"][0]["blocks"] = [[1]]
    with pytest.raises(ConfigError, match=r"^layers\[0\]\.blocks\[0\] must be a JSON "):
        network_from_dict(doc)


def test_save_network_keeps_edge_floats_bit_exact(tmp_path):
    """-0.0 keeps its sign, and 2.0 is written as a float, not as 2."""
    w = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                  [0.1, 2.0, -1.7976931348623157e308]])
    b = np.array([-0.0, 2.0])
    g3, g2 = GradingVector([1, 2, 3]), GradingVector([1, 1])
    net = Network([Layer(w, b, ActivationKind.IDENTITY, g3, g2)])
    path = tmp_path / "model.json"
    save_network(net, path)
    back = load_network(path).layers[0]
    for mine, theirs in ((w, back.weight_base), (b, back.bias)):
        assert np.array_equal(mine, theirs)
        assert np.array_equal(np.signbit(mine), np.signbit(theirs))
    saved = json.loads(path.read_text())["layers"][0]
    assert all(isinstance(v, float) for v in saved["weight_base"] + saved["bias"])


def test_save_network_refuses_inf_and_keeps_the_old_file(tmp_path):
    g1 = GradingVector([1])
    path = tmp_path / "model.json"
    save_network(Network([Layer([[0.5]], [0.0], ActivationKind.IDENTITY, g1, g1)]), path)
    before = path.read_bytes()
    bad = Network([Layer([[math.inf]], [0.0], ActivationKind.IDENTITY, g1, g1)])
    with pytest.raises(ValueError):
        save_network(bad, path)
    assert path.read_bytes() == before


def test_weight_base_row_major_layout():
    g2, g1 = GradingVector([1, 1]), GradingVector([1])
    w = np.array([[1.0, 2.0]])
    net = Network([Layer(w, np.zeros(1), ActivationKind.IDENTITY, g2, g1)])
    assert network_to_dict(net)["layers"][0]["weight_base"] == [1.0, 2.0]


def test_random_network_init_range():
    rng = np.random.default_rng(7)
    net = random_network([ones_grading(4), ones_grading(4)],
                         [ActivationKind.IDENTITY], rng)
    w = net.layers[0].weight_base
    assert np.all((w >= 0.2) & (w < 0.9))
    assert np.all(net.layers[0].bias == 0.0)
