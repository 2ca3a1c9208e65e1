"""Graded vector space core: scalar action, norms, projections, gradings."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradednn.spaces import (
    ExponentScheme,
    GradedDomainError,
    GradedMatrix,
    GradedVector,
    GradingMismatchError,
    GradingVector,
    IllConditionedWarning,
    IllPosedSystemError,
    decompose,
    dual_grading,
    entry_degrees,
    graded_euclidean_norm,
    homogeneous_norm,
    homogeneous_terms,
    infer_map_degree,
    max_graded_norm,
    ones_grading,
    parse_grading,
    parse_scheme,
    scalar_action,
    stack_values,
    tensor_grading,
    vandermonde_project,
    _as_fraction,
)

GRADE_POOL = [Fraction(1), Fraction(2), Fraction(3), Fraction(4),
              Fraction(1, 2), Fraction(3, 2)]

gradings = st.lists(st.sampled_from(GRADE_POOL), min_size=1, max_size=6).map(
    GradingVector)
coords = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def graded_vectors(draw, grading_strategy=gradings):
    g = draw(grading_strategy)
    vals = draw(st.lists(coords, min_size=len(g), max_size=len(g)))
    return GradedVector(vals, g)


def test_parse_grading_literals():
    g = parse_grading("2,4,6,10")
    assert g.grades == (Fraction(2), Fraction(4), Fraction(6), Fraction(10))
    assert g.as_text() == "2,4,6,10"
    h = parse_grading("1/2,1/3")
    assert h.grades == (Fraction(1, 2), Fraction(1, 3))
    assert h.as_text() == "1/2,1/3"
    assert not h.is_integer and g.is_integer


def test_grading_rejects_nonpositive():
    with pytest.raises(GradedDomainError):
        GradingVector([1, 0])
    with pytest.raises(GradedDomainError):
        GradingVector([-2])
    with pytest.raises(ValueError):
        parse_grading("")
    with pytest.raises(ValueError, match="^grade '1/0' has a zero denominator$"):
        parse_grading("1/0,2")


@pytest.mark.parametrize("grades, named", [
    (["2", "1e400"], "1e400"),
    ([10 ** 400], str(10 ** 400)),
    (["1e-400", 2], "1e-400"),
    # Fraction would first build 10**10000000, about 13 s of work
    (["1e10000000", 2], "1e10000000"),
    ([2, " 2.5E-10_000_000"], "2.5E-10_000_000"),
], ids=["text_overflow", "integer_overflow", "rounds_to_zero", "huge_exponent",
        "huge_negative_exponent"])
def test_grading_rejects_a_grade_that_does_not_fit_a_float64(grades, named):
    """Beyond the float range, float(grade) overflows; so small that it
    rounds to 0, the eta/q rates divide by zero."""
    with pytest.raises(GradedDomainError, match="^grade %s does not fit a float64$" % named):
        GradingVector(grades)


@pytest.mark.parametrize("text", ["1e308", "1.7e308", "0.01e310", "12e307", "5e-324",
                                  "3e-324", "0.0001e-320", "1.e5", ".5e3", "-2.5E+10",
                                  "1_0e-3"])
def test_a_decimal_exponent_is_bounded_without_changing_the_value(text):
    """Literals at the edges of the float range read as Fraction reads them."""
    assert _as_fraction(text) == Fraction(text)


def test_a_zero_with_a_huge_decimal_exponent_reads_as_zero():
    # Fraction would first build 10**10000000
    assert _as_fraction("0e10000000") == 0
    assert _as_fraction("-0.00e-10000000") == 0


def test_grading_distinct_sorted():
    g = GradingVector([3, 1, 3, 2, 1])
    assert g.distinct == (Fraction(1), Fraction(2), Fraction(3))
    assert g.max_grade == Fraction(3)


@given(graded_vectors())
def test_scalar_action_identity(x):
    assert np.array_equal(scalar_action(1.0, x).values, x.values)


@given(graded_vectors(), st.floats(0.25, 4.0), st.floats(0.25, 4.0))
def test_scalar_action_composes(x, lam, mu):
    lhs = scalar_action(lam, scalar_action(mu, x)).values
    rhs = scalar_action(lam * mu, x).values
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_scalar_action_rejects_nonpositive():
    x = GradedVector([1.0], GradingVector([2]))
    with pytest.raises(GradedDomainError):
        scalar_action(0.0, x)
    with pytest.raises(GradedDomainError):
        scalar_action(-2.0, x)


def test_worked_norms():
    q = GradingVector([2, 2, 2, 3, 3, 3, 3])
    x = GradedVector([1, 0, 1, 1, -1, 0, 1], q)
    assert graded_euclidean_norm(x) == pytest.approx(math.sqrt(13), abs=1e-12)
    assert max_graded_norm(x) == pytest.approx(math.sqrt(3), abs=1e-12)


@st.composite
def vector_pairs(draw):
    g = draw(gradings)
    a = draw(st.lists(coords, min_size=len(g), max_size=len(g)))
    b = draw(st.lists(coords, min_size=len(g), max_size=len(g)))
    return GradedVector(a, g), GradedVector(b, g)


@given(vector_pairs())
def test_graded_norm_triangle(pair):
    x, y = pair
    s = x.with_values(x.values + y.values)
    assert graded_euclidean_norm(s) <= (
        graded_euclidean_norm(x) + graded_euclidean_norm(y) + 1e-9)


@given(graded_vectors(), st.floats(-3.0, 3.0))
def test_norms_absolutely_homogeneous_in_plain_scaling(x, c):
    scaled = x.with_values(c * x.values)
    assert graded_euclidean_norm(scaled) == pytest.approx(
        abs(c) * graded_euclidean_norm(x), rel=1e-9, abs=1e-12)
    assert max_graded_norm(scaled) == pytest.approx(
        abs(c) * max_graded_norm(x), rel=1e-9, abs=1e-12)


@given(graded_vectors())
def test_norm_positive_definite(x):
    n = graded_euclidean_norm(x)
    assert n >= 0.0
    # squares of sub-1e-100 entries underflow; only claim positivity above
    if np.any(np.abs(x.values) > 1e-100):
        assert n > 0.0
    if np.all(x.values == 0.0):
        assert n == 0.0 and max_graded_norm(x) == 0.0


@given(graded_vectors())
def test_decompose_reassembles(x):
    parts = decompose(x)
    assert [g for g, _ in parts] == list(x.grading.distinct)
    total = np.sum([p.values for _, p in parts], axis=0)
    assert np.array_equal(total, x.values)
    # components live on disjoint coordinate sets
    support = np.sum([p.values != 0.0 for _, p in parts], axis=0)
    assert np.all(support <= 1)


def test_tensor_grading_worked():
    t = tensor_grading(GradingVector([1, 2]), GradingVector([3, 4]))
    assert t.grades == (Fraction(4), Fraction(5), Fraction(5), Fraction(6))
    f = tensor_grading(GradingVector(["1/2", "1/3"]), GradingVector(["1/2", "1/3"]))
    assert Fraction(5, 6) in f.grades
    assert f.grades[0] == Fraction(1)


@given(gradings, gradings)
def test_tensor_grading_shape(q, r):
    t = tensor_grading(q, r)
    assert len(t) == len(q) * len(r)
    assert t.grades[0] == q.grades[0] + r.grades[0]


def test_dual_grading_negates():
    assert dual_grading(GradingVector([2, 3])) == (Fraction(-2), Fraction(-3))


def test_entry_degrees_and_inference():
    rowg, colg = GradingVector([3, 5]), GradingVector([1, 2])
    a = GradedMatrix([[0.0, 1.0], [0.0, 0.0]], rowg, colg)
    assert entry_degrees(a) == [(0, 1, Fraction(1))]
    assert infer_map_degree(a) == Fraction(1)
    zero = GradedMatrix(np.zeros((2, 2)), rowg, colg)
    assert infer_map_degree(zero) == Fraction(0)
    mixed = GradedMatrix([[1.0, 1.0], [0.0, 0.0]], rowg, colg)
    assert infer_map_degree(mixed) is None


def test_vandermonde_worked_example():
    q = GradingVector([2, 3])
    x = GradedVector([4.0, 5.0], q)
    out = vandermonde_project(x, 2, [1.0, 2.0])
    assert np.allclose(out.values, [4.0, 0.0], atol=1e-10)
    out3 = vandermonde_project(x, 3, [1.0, 2.0])
    assert np.allclose(out3.values, [0.0, 5.0], atol=1e-10)


@given(graded_vectors())
@settings(max_examples=60)
def test_vandermonde_matches_decompose(x):
    r = len(x.grading.distinct)
    lams = np.geomspace(0.6, 2.5, r) if r > 1 else [1.7]
    for target, comp in decompose(x):
        proj = vandermonde_project(x, target, lams)
        assert np.allclose(proj.values, comp.values, atol=1e-8)


def test_vandermonde_errors():
    q = GradingVector([2, 3])
    x = GradedVector([1.0, 1.0], q)
    with pytest.raises(IllPosedSystemError):
        vandermonde_project(x, 2, [1.0])  # wrong count
    with pytest.raises(IllPosedSystemError):
        vandermonde_project(x, 2, [1.0, -2.0])  # nonpositive
    with pytest.raises(IllPosedSystemError):
        vandermonde_project(x, 2, [1.5, 1.5])  # repeated
    with pytest.raises(GradedDomainError):
        vandermonde_project(x, 5, [1.0, 2.0])  # absent grade


def test_vandermonde_condition_warning():
    q = GradingVector([1, 2, 3, 4])
    x = GradedVector([1.0, 1.0, 1.0, 1.0], q)
    with pytest.warns(IllConditionedWarning):
        vandermonde_project(x, 1, [1.0, 1.0001, 1.0002, 1.0003])
    # well-spread factors stay quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        vandermonde_project(x, 1, [0.5, 1.0, 2.0, 4.0])


def test_homogeneous_terms_worked():
    q = GradingVector([2, 2, 2, 3, 3, 3, 3])
    d = GradedVector([-1, 1, -1, 0, 1, -1, -1], q)
    terms, big_e = homogeneous_terms(d, ExponentScheme.BY_DISTINCT_COUNT)
    assert big_e == 4
    assert [(g, e) for g, _, e in terms] == [(Fraction(2), 4.0), (Fraction(3), 2.0)]
    assert terms[0][1] == pytest.approx(math.sqrt(3), abs=1e-12)
    assert terms[1][1] == pytest.approx(math.sqrt(3), abs=1e-12)
    assert homogeneous_norm(d, ExponentScheme.BY_DISTINCT_COUNT) == pytest.approx(
        12.0 ** 0.25, abs=1e-12)

    terms, big_e = homogeneous_terms(d, ExponentScheme.BY_MAX_GRADE)
    assert big_e == 6
    assert [(g, e) for g, _, e in terms] == [(Fraction(2), 3.0), (Fraction(3), 2.0)]


def test_homogeneous_by_max_grade_requires_integer_grades():
    x = GradedVector([1.0, 1.0], GradingVector(["1/2", "2"]))
    with pytest.raises(GradedDomainError):
        homogeneous_norm(x, ExponentScheme.BY_MAX_GRADE)


@given(graded_vectors(st.lists(st.sampled_from(
    [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]),
    min_size=1, max_size=6).map(GradingVector)),
    st.floats(0.25, 4.0))
@settings(max_examples=60)
def test_homogeneous_norm_dilation_by_max_grade(x, lam):
    # the defining property of the max-grade scheme: one-homogeneous under
    # the graded dilation
    lhs = homogeneous_norm(scalar_action(lam, x), ExponentScheme.BY_MAX_GRADE)
    rhs = lam * homogeneous_norm(x, ExponentScheme.BY_MAX_GRADE)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_homogeneous_norm_zero():
    x = GradedVector([0.0, 0.0], GradingVector([2, 3]))
    for scheme in ExponentScheme:
        assert homogeneous_norm(x, scheme) == 0.0


def test_parse_scheme():
    assert parse_scheme("by_max_grade") is ExponentScheme.BY_MAX_GRADE
    assert parse_scheme("by_distinct_count") is ExponentScheme.BY_DISTINCT_COUNT
    with pytest.raises(ValueError):
        parse_scheme("by_vibes")


def test_graded_vector_validation():
    q = GradingVector([1, 2])
    q64, q10k = GradingVector([1] * 64), GradingVector([1] * 10 ** 4)
    for values, grading, error, message in [
        ([1.0], q, GradingMismatchError, "value length 1 does not match grading length 2"),
        ([1.0, 2.0, 3.0], q, GradingMismatchError,
         "value length 3 does not match grading length 2"),
        ([[1.0, 2.0]], q, GradingMismatchError, "graded vectors are one-dimensional"),
        (3.0, q, GradingMismatchError, "graded vectors are one-dimensional"),
        ([1.0, float("inf")], q, GradedDomainError, "graded vector entries must be finite"),
        ([-math.inf, 1.0], q, GradedDomainError, "graded vector entries must be finite"),
        ([1.0, math.nan], q, GradedDomainError, "graded vector entries must be finite"),
        # the one fault at either end of a longer row
        ([0.0] * (10 ** 4 - 1) + [math.nan], q10k, GradedDomainError,
         "graded vector entries must be finite"),
        ([-math.inf] + [1.0] * 63, q64, GradedDomainError,
         "graded vector entries must be finite"),
    ]:
        with pytest.raises(error, match="^%s$" % message):
            GradedVector(values, grading)
    src = np.array([1.0, 2.0])
    x = GradedVector(src, q)
    src[0] = 7.0
    assert x.values.tolist() == [1.0, 2.0]  # a copy
    with pytest.raises(ValueError):
        x.values[0] = 5.0  # read-only view


@pytest.mark.parametrize("values", [[1e308, 1e308], [-1e308, 1e308]])
def test_graded_vector_accepts_finite_entries_whose_sum_overflows(values):
    """The finiteness test looks at each entry; a sum or a square of these
    overflows, and pytest turns the RuntimeWarning into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = GradedVector(values, GradingVector([1, 2]))
    assert x.values.tolist() == values


def test_stack_values_accepts_an_equal_grading_held_by_another_object():
    q, same = GradingVector([1, 2]), GradingVector([1, 2])
    assert same == q and same is not q
    rows = [GradedVector([1.0, 2.0], same), GradedVector([3.0, 4.0], q),
            GradedVector([5.0, 6.0], same)]
    assert stack_values(rows, q).tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


@pytest.mark.parametrize("bad_at", [0, 5, 7])
def test_stack_values_rejects_a_mismatched_grading(bad_at):
    """Also after a run of vectors sharing one equal grading object, which
    the check compares once and then remembers."""
    q, same, other = GradingVector([1, 2]), GradingVector([1, 2]), GradingVector([2, 1])
    rows = [GradedVector([1.0, 2.0], same) for _ in range(8)]
    rows[bad_at] = GradedVector([1.0, 2.0], other)
    with pytest.raises(GradingMismatchError, match=r"^vector grading does not match "):
        stack_values(rows, q)


def test_ones_grading():
    g = ones_grading(3)
    assert g.grades == (Fraction(1),) * 3
