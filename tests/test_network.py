"""Neurons, activations, layers, log-domain evaluation, serialization."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradednn.network import (
    CLAMP,
    ActivationKind,
    AdditiveNeuron,
    GradeBlock,
    Layer,
    MultiplicativeNeuron,
    Network,
    NonFiniteForwardError,
    activation_slope,
    activation_value,
    additive_forward,
    effective_weights,
    forward_trace,
    graded_exp,
    graded_relu,
    load_network,
    log_domain_forward,
    multiplicative_core,
    multiplicative_forward,
    multiplicative_sign,
    network_forward,
    network_from_dict,
    network_to_dict,
    parse_activation,
    random_network,
    save_network,
    signed_log_sum,
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
    out = graded_relu(x)
    expect = [math.sqrt(2), math.sqrt(3), 1, 1, 2 ** (1 / 3), 1, 1]
    assert np.allclose(out.values, expect, atol=1e-12)


def test_signed_relu_kills_negatives():
    x = GradedVector([2, -3, 1, 1, -2, 1, 1], Q7)
    out = graded_relu(x, signed=True)
    expect = [math.sqrt(2), 0, 1, 1, 0, 1, 1]
    assert np.allclose(out.values, expect, atol=1e-12)


def test_graded_exp_worked_values():
    x = GradedVector([2, -3, 1, 1, -2, 1, 1], Q7)
    out = graded_exp(x)
    assert out.values[0] == pytest.approx(math.e - 1.0, abs=1e-12)
    assert out.values[1] == pytest.approx(math.exp(-1.5) - 1.0, abs=1e-12)
    assert out.values[3] == pytest.approx(math.exp(1 / 3) - 1.0, abs=1e-12)


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
    assert graded_relu(x).values[0] == pytest.approx(v, rel=1e-9)


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


def test_additive_neuron_forward():
    n = AdditiveNeuron(weights=np.array([0.5, -0.5]), bias=0.25,
                       grading=GradingVector([2, 3]))
    x = GradedVector([2.0, 2.0], GradingVector([2, 3]))
    # 0.25*2 - 0.125*2 + 0.25
    assert additive_forward(n, x) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(GradingMismatchError):
        additive_forward(n, GradedVector([1.0, 1.0], GradingVector([1, 1])))


def test_multiplicative_neuron_worked_value():
    n = MultiplicativeNeuron(weights=np.ones(7), exponents=(1, 0, 0, 2, 0, 0, 0),
                             bias=0.0, grading=Q7)
    x = GradedVector([1, 0, 0, 2, 0, 0, 0], Q7)
    assert multiplicative_forward(n, x) == pytest.approx(4.0, abs=1e-12)
    assert n.degree == Fraction(8)  # 2*1 + 3*2


def test_multiplicative_fractional_domain():
    g = GradingVector([2])
    n = MultiplicativeNeuron(weights=np.ones(1), exponents=("1/2",), bias=0.0,
                             grading=g)
    assert multiplicative_forward(n, GradedVector([4.0], g)) == pytest.approx(2.0)
    with pytest.raises(GradedDomainError):
        multiplicative_forward(n, GradedVector([-4.0], g))


def test_multiplicative_integer_signs():
    g = GradingVector([1, 1])
    n = MultiplicativeNeuron(weights=np.ones(2), exponents=(1, 2), bias=0.0,
                             grading=g)
    # odd power keeps the sign, even power drops it
    assert multiplicative_forward(n, GradedVector([-2.0, -3.0], g)) == pytest.approx(-18.0)


def test_multiplicative_kernel_follows_the_sign_rule():
    g = GradingVector([1, 1])
    n = MultiplicativeNeuron(weights=np.ones(2), exponents=(1, 2), bias=0.0,
                             grading=g)
    k = np.array([1.0, 2.0])
    x = np.array([[-2.0, 1.0]])
    pred = multiplicative_core(np.ones(2), k, x, multiplicative_sign(k, x))
    assert pred[0] == -2.0 == multiplicative_forward(n, GradedVector([-2.0, 1.0], g))
    with pytest.raises(GradedDomainError):
        multiplicative_sign(np.array([0.5]), np.array([[4.0], [0.0]]))


def test_signed_log_sum_cancellation():
    s = signed_log_sum([(1.0, math.log(5.0)), (-1.0, math.log(5.0))])
    assert s.sign == 0.0 and s.value == 0.0


@given(st.lists(st.floats(-20.0, 20.0).filter(lambda v: abs(v) > 1e-6),
                min_size=1, max_size=6))
def test_signed_log_sum_matches_direct(terms):
    pairs = [(float(np.sign(t)), math.log(abs(t))) for t in terms]
    direct = sum(terms)
    if abs(direct) < 1e-9 * max(abs(t) for t in terms):
        return  # near-total cancellation: relative comparison meaningless
    got = signed_log_sum(pairs).value
    assert got == pytest.approx(direct, rel=1e-12)


def test_log_domain_additive_matches_direct():
    rng = np.random.default_rng(0)
    g = GradingVector([2, 3, 1])
    for _ in range(50):
        n = AdditiveNeuron(weights=rng.uniform(-2, 2, 3),
                           bias=float(rng.uniform(-1, 1)), grading=g)
        x = GradedVector(rng.uniform(0.1, 3.0, 3), g)
        direct = additive_forward(n, x)
        viaslog = log_domain_forward(n, x).value
        assert viaslog == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_log_domain_survives_overflow():
    g = GradingVector([1200])
    n = AdditiveNeuron(weights=np.array([2.0]), bias=0.0, grading=g)
    x = GradedVector([1.0], g)
    out = log_domain_forward(n, x)
    assert out.sign == 1.0
    assert out.log_magnitude == pytest.approx(1200 * math.log(2.0), rel=1e-15)
    assert math.isfinite(out.log_magnitude)
    # the direct evaluation overflows to inf for the same parameters
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.float64(2.0) ** np.float64(1200.0))


def test_log_domain_multiplicative():
    g = GradingVector([2, 3])
    n = MultiplicativeNeuron(weights=np.array([1.5, 0.5]), exponents=(2, 1),
                             bias=0.25, grading=g)
    x = GradedVector([2.0, 3.0], g)
    direct = multiplicative_forward(n, x)
    assert log_domain_forward(n, x).value == pytest.approx(direct, rel=1e-12)


def _simple_net():
    g1, g2 = GradingVector([2, 3]), GradingVector([1, 2, 3])
    l1 = Layer(np.full((3, 2), 0.5), np.array([0.1, 0.0, -0.1]),
               ActivationKind.GRADED_RELU, g1, g2)
    l2 = Layer(np.full((1, 3), 0.7), np.array([0.2]),
               ActivationKind.IDENTITY, g2, GradingVector([2]))
    return Network([l1, l2])


def test_forward_trace_shapes():
    net = _simple_net()
    trace, out = forward_trace(net, np.array([1.0, 1.0]))
    assert len(trace) == 2 and out.shape == (1,)
    x_in, z, y = trace[0]
    assert x_in.shape == (2,) and z.shape == (3,) and y.shape == (3,)


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
    assert "layer 1" in str(err.value)
    assert "log-domain" in str(err.value)


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
    save_network(back, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("layers"), "missing key layers"),
    (lambda d: d.pop("gradings"), "missing key gradings"),
    (lambda d: d.update(kind="multiplicative"), "unknown key kind"),
    (lambda d: d["layers"][0].update(weights=[1.0]), "unknown key layers[0].weights"),
    (lambda d: d["layers"][0].pop("bias"), "missing key layers[0].bias"),
    (lambda d: d.update(layers={}),
     "need a list of layers and one grading per layer boundary"),
    (lambda d: d.update(layers=[]),
     "need a list of layers and one grading per layer boundary"),
])
def test_network_loader_rejects_missing_and_unknown_keys(mutate, message):
    doc = network_to_dict(_block_net())
    mutate(doc)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        network_from_dict(doc)


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
