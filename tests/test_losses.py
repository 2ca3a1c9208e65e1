"""Loss functions: worked values, parsing grammar, structural properties."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradednn.gradients import _CHECK_KINDS
from gradednn.losses import (
    CROSS_ENTROPY_CLAMP,
    LossKind,
    _loss_part,
    loss_value,
    parse_loss,
)
from gradednn.spaces import (
    ExponentScheme,
    GradedDomainError,
    GradedVector,
    GradingMismatchError,
    GradingVector,
    graded_euclidean_norm,
    scalar_action,
)

Q7 = GradingVector([2, 2, 2, 3, 3, 3, 3])
Y = GradedVector([1, 0, 1, 1, -1, 0, 1], Q7)
YHAT = GradedVector([0, 1, 0, 1, 0, -1, 0], Q7)


def _row(v):
    return v.values[np.newaxis]


def test_worked_example_values():
    # per-coordinate q*d^2 terms are 2,2,2,0,3,3,3 -> total 15
    assert loss_value(LossKind.graded_norm(), _row(Y), _row(YHAT), Q7) == (
        pytest.approx(15.0, abs=1e-12))
    assert loss_value(LossKind.graded_mse(), _row(Y), _row(YHAT), Q7) == (
        pytest.approx(15.0 / 7.0, abs=1e-12))
    assert loss_value(LossKind.homogeneous(ExponentScheme.BY_DISTINCT_COUNT),
                      _row(Y), _row(YHAT), Q7) == pytest.approx(math.sqrt(12.0), abs=1e-12)
    assert loss_value(LossKind.max_graded(), _row(Y), _row(YHAT), Q7) == (
        pytest.approx(3.0, abs=1e-12))
    # all residuals sit in the quadratic huber branch at delta=1
    assert loss_value(LossKind.huber(1.0), _row(Y), _row(YHAT), Q7) == (
        pytest.approx(7.5, abs=1e-12))


def test_norm_loss_is_squared_norm():
    d = Y.with_values(YHAT.values - Y.values)
    assert loss_value(LossKind.graded_norm(), _row(Y), _row(YHAT), Q7) == pytest.approx(
        graded_euclidean_norm(d) ** 2, abs=1e-12)


def test_parse_loss_grammar():
    assert parse_loss("graded_mse") == LossKind.graded_mse()
    assert parse_loss("graded_norm") == LossKind.graded_norm()
    assert parse_loss("cross_entropy") == LossKind.cross_entropy()
    assert parse_loss("max_graded") == LossKind.max_graded()
    k = parse_loss("huber:0.5")
    assert k.name == "huber" and k.delta == 0.5
    k = parse_loss("homogeneous:by_max_grade")
    assert k.scheme is ExponentScheme.BY_MAX_GRADE
    for bad in ("mse", "huber", "huber:zero", "homogeneous:none", ""):
        with pytest.raises(ValueError):
            parse_loss(bad)
    for bad in ("huber:x", "huber:", "huber:1e400", "huber:inf", "huber:-inf", "huber:nan",
                "huber:0", "huber:-0.5"):
        with pytest.raises(ValueError,
                           match="^huber threshold must be a positive finite number$"):
            parse_loss(bad)


def test_loss_name_round_trip():
    kinds = _CHECK_KINDS + (LossKind.huber(0.05), LossKind.huber(0.123456789),
                            LossKind.huber(1e-7))
    for k in kinds:
        assert parse_loss(k.as_text()) == k
    # the label grad-check prints
    assert LossKind.huber(0.7).as_text() == "huber:0.7"


@pytest.mark.parametrize("name, params, message", [
    ("bogus", {}, "unknown loss kind 'bogus'"),
    ("huber", {}, "huber threshold must be a positive finite number"),
    ("huber", {"delta": 0.0}, "huber threshold must be a positive finite number"),
    ("huber", {"delta": float("nan")}, "huber threshold must be a positive finite number"),
    ("huber", {"delta": float("inf")}, "huber threshold must be a positive finite number"),
    ("homogeneous", {}, "homogeneous loss needs an exponent scheme"),
    ("homogeneous", {"scheme": "by_max_grade"}, "homogeneous loss needs an exponent scheme"),
    ("graded_mse", {"delta": 3.0}, "loss graded_mse takes no delta"),
    ("max_graded", {"scheme": ExponentScheme.BY_MAX_GRADE}, "loss max_graded takes no scheme"),
    ("huber", {"delta": 0.5, "scheme": ExponentScheme.BY_MAX_GRADE},
     "loss huber takes no scheme"),
])
def test_loss_kind_rejects_malformed_kinds(name, params, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        LossKind(name, **params)


# (kind, grading, y, yhat on a kink, yhat clear of it)
_KINKS = [
    # a residual within 1e-3 of delta
    (LossKind.huber(0.7), [1, 2], [0.0, 0.0], [0.7005, -0.2], [0.75, -0.2]),
    # a near-tie of the top two q d**2
    (LossKind.max_graded(), [1, 4], [0.0, 0.0], [2.0, 1.00002], [2.0, 1.2]),
    # a prediction below 1e-2
    (LossKind.cross_entropy(), [1, 2], [0.5, 0.5], [0.005, 0.5], [0.5, 0.5]),
    # a group norm below 1e-2
    (LossKind.homogeneous(ExponentScheme.BY_MAX_GRADE), [1, 2, 2],
     [0.3, 0.3, 0.3], [0.8, 0.305, 0.3], [0.8, 0.5, 0.3]),
    (LossKind.homogeneous(ExponentScheme.BY_DISTINCT_COUNT), [1, 2, 2],
     [0.3, 0.3, 0.3], [0.305, 0.8, 0.1], [0.5, 0.8, 0.1]),
]


@pytest.mark.parametrize("kind, grading, y, on, clear", _KINKS,
                         ids=[k[0].as_text() for k in _KINKS])
def test_kink_column_flags_only_samples_on_a_kink(kind, grading, y, on, clear):
    g = GradingVector(grading)
    flags = _loss_part(kind, "kink", g, np.array([y, y]), np.array([on, clear]))
    assert flags.tolist() == [True, False]
    for smooth in (LossKind.graded_mse(), LossKind.graded_norm()):
        flags = _loss_part(smooth, "kink", g, np.array([y, y, y]), np.array([on, clear, y]))
        assert flags.tolist() == [False, False, False]


def test_max_graded_has_no_kink_on_one_entry():
    g = GradingVector([3])
    flags = _loss_part(LossKind.max_graded(), "kink", g, np.zeros((2, 1)),
                       np.array([[0.0], [1.0]]))
    assert flags.tolist() == [False, False]


def test_huber_matches_norm_for_large_delta():
    # with delta above every residual the huber sum is half the norm loss
    assert loss_value(LossKind.huber(10.0), _row(Y), _row(YHAT), Q7) == pytest.approx(
        0.5 * loss_value(LossKind.graded_norm(), _row(Y), _row(YHAT), Q7), abs=1e-12)


def test_huber_linear_branch():
    g = GradingVector([2])
    y = GradedVector([0.0], g)
    yhat = GradedVector([3.0], g)
    # rho_1(3) = 1*(3 - 0.5) = 2.5, weighted by q=2
    assert loss_value(LossKind.huber(1.0), _row(y), _row(yhat), g) == (
        pytest.approx(5.0, abs=1e-12))
    with pytest.raises(ValueError):
        loss_value(LossKind.huber(0.0), _row(y), _row(yhat), g)


def test_cross_entropy_values_and_domain():
    g = GradingVector([2, 3])
    y = GradedVector([1.0, 0.5], g)
    yhat = GradedVector([0.5, 0.25], g)
    expect = -(2 * 1.0 * math.log(0.5) + 3 * 0.5 * math.log(0.25))
    ce = LossKind.cross_entropy()
    assert loss_value(ce, _row(y), _row(yhat), g) == pytest.approx(expect, abs=1e-12)
    with pytest.raises(GradedDomainError):
        loss_value(ce, _row(GradedVector([-1.0, 0.0], g)), _row(yhat), g)
    # clamped below: finite even at zero prediction
    at_zero = loss_value(ce, _row(y), _row(GradedVector([0.0, 1.0], g)), g)
    assert at_zero == pytest.approx(-2.0 * math.log(CROSS_ENTROPY_CLAMP), abs=1e-9)


def test_mismatched_gradings_rejected():
    with pytest.raises(GradingMismatchError):
        loss_value(LossKind.graded_mse(), _row(Y), np.ones((1, 6)), Q7)


coords = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def pairs(draw, n=4):
    g = GradingVector(draw(st.lists(
        st.sampled_from([1, 2, 3, 4]), min_size=n, max_size=n)))
    a = draw(st.lists(coords, min_size=n, max_size=n))
    b = draw(st.lists(coords, min_size=n, max_size=n))
    return GradedVector(a, g), GradedVector(b, g)


@given(pairs())
def test_losses_nonnegative_and_zero_at_match(pair):
    y, yhat = pair
    for kind in (LossKind.graded_mse(), LossKind.graded_norm(),
                 LossKind.huber(0.5),
                 LossKind.homogeneous(ExponentScheme.BY_MAX_GRADE),
                 LossKind.max_graded()):
        assert loss_value(kind, _row(y), _row(yhat), y.grading) >= 0.0
        assert loss_value(kind, _row(y), _row(y), y.grading) == 0.0


@given(pairs(), st.floats(0.25, 4.0))
@settings(max_examples=60)
def test_homogeneous_loss_dilation(pair, lam):
    # scaling both arguments by the graded dilation multiplies the loss by
    # lam^2 under the max-grade scheme
    y, yhat = pair
    kind = LossKind.homogeneous(ExponentScheme.BY_MAX_GRADE)
    base = loss_value(kind, _row(y), _row(yhat), y.grading)
    scaled = loss_value(kind, _row(scalar_action(lam, y)), _row(scalar_action(lam, yhat)),
                        y.grading)
    assert scaled == pytest.approx(lam ** 2 * base, rel=1e-8, abs=1e-12)


@given(pairs())
@settings(max_examples=60)
def test_mse_is_norm_over_n(pair):
    y, yhat = pair
    assert loss_value(LossKind.graded_mse(), _row(y), _row(yhat), y.grading) == pytest.approx(
        loss_value(LossKind.graded_norm(), _row(y), _row(yhat), y.grading) / len(y),
        rel=1e-12, abs=1e-12)


def test_max_loss_bounds_norm_terms():
    # max term <= sum of terms
    assert loss_value(LossKind.max_graded(), _row(Y), _row(YHAT), Q7) <= (
        loss_value(LossKind.graded_norm(), _row(Y), _row(YHAT), Q7) + 1e-15)
