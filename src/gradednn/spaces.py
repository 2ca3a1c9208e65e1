"""Coordinate-wise graded vector spaces.

A grading assigns a positive rational weight q_i to each coordinate of R^n.
Scalars act by lam * x = (lam**q_i * x_i), which makes dilations, norms and
projections grade-aware.  Grades are kept as exact fractions so that grade
comparisons and degree arithmetic never suffer rounding; values are plain
float64 arrays.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Optional, Sequence

import numpy as np


class GradedError(Exception):
    """Base class for errors raised by the graded toolkit."""


class GradingMismatchError(GradedError):
    """Lengths or gradings of two objects do not line up."""


class GradedDomainError(GradedError):
    """An input is outside the mathematical domain of an operation."""


class FloatRangeError(GradedDomainError):
    """A rational grade or exponent lies beyond the float64 range."""


class IllPosedSystemError(GradedError):
    """A linear system needed by a projection is singular or malformed."""


class IllConditionedWarning(UserWarning):
    """Emitted when a projection system is numerically fragile."""


# a decimal literal with an exponent, in Fraction's syntax: whole digits,
# fraction digits, exponent
_DECIMAL = re.compile(r"[-+]?(?=\.?\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?"
                      r"[eE]([-+]?\d+(?:_\d+)*)", re.ASCII)


def _as_fraction(value) -> Fraction:
    # floats are accepted only when integral; "1/3" style strings are exact
    if isinstance(value, bool):
        raise TypeError("grades must be rational numbers, not bool")
    if isinstance(value, (int, Rational)):  # int first: the ABC test is slow
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if m := _DECIMAL.fullmatch(text):
            # Fraction builds 10**exponent as an exact integer, seconds of
            # work for a 7-digit exponent; the power of ten of the leading
            # digit tells first whether the value is 0 or beyond any float64
            whole = m[1].replace("_", "")
            digits = whole + (m[2] or "").replace("_", "")
            significant = digits.lstrip("0")
            if not significant:
                return Fraction(0)
            place = len(whole) - 1 - (len(digits) - len(significant)) + int(m[3])
            if not -325 < place < 309:
                raise FloatRangeError("grade %s does not fit a float64" % text)
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError("grade %r has a zero denominator" % value) from None
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise TypeError(
            "non-integral float grade %r is ambiguous; pass a string like '1/3'" % value
        )
    raise TypeError("cannot interpret %r as a rational grade" % (value,))


def _grade_float(raw, g: Fraction) -> float:
    """float(g) for a positive grade g that fits a float64, else an error naming raw."""
    # a Python int raw equals g, and compares and converts in C where the
    # Fraction's methods run in Python
    v = raw if type(raw) is int else g
    if v <= 0:
        raise GradedDomainError("grades must be positive, got %s" % g)
    try:
        if (f := float(v)) != 0.0:
            return f
    except OverflowError:
        pass
    raise FloatRangeError("grade %s does not fit a float64" % str(raw).strip())


class GradingVector:
    """Immutable tuple of positive rational grades, one per coordinate."""

    __slots__ = ("_grades", "_floats", "_groups")

    def __init__(self, grades: Iterable):
        grades = tuple(grades)
        gs = tuple(_as_fraction(g) for g in grades)
        if len(gs) == 0:
            raise ValueError("a grading needs at least one coordinate")
        self._grades = gs
        floats = np.array([_grade_float(r, g) for r, g in zip(grades, gs)], dtype=float)
        floats.flags.writeable = False
        self._floats = floats
        self._groups = None

    @property
    def grades(self) -> tuple:
        return self._grades

    @property
    def floats(self) -> np.ndarray:
        """Grades as a read-only float64 array (correctly rounded)."""
        return self._floats

    @property
    def distinct(self) -> tuple:
        """Distinct grades in ascending order."""
        return tuple(g for g, _ in self.groups)

    @property
    def groups(self) -> tuple:
        """(grade, read-only coordinate mask) per distinct grade, ascending;
        built on first use and kept, so grades are compared once per grading."""
        if self._groups is None:
            keys = sorted(set(self._grades))
            masks = np.array([[gi == g for gi in self._grades] for g in keys])
            masks.flags.writeable = False
            self._groups = tuple(zip(keys, masks))
        return self._groups

    @property
    def max_grade(self) -> Fraction:
        return max(self._grades)

    @property
    def is_integer(self) -> bool:
        return all(g.denominator == 1 for g in self._grades)

    def as_text(self) -> str:
        return ",".join(str(g) for g in self._grades)

    def __len__(self) -> int:
        return len(self._grades)

    def __iter__(self):
        return iter(self._grades)

    def __getitem__(self, idx):
        return self._grades[idx]

    def __eq__(self, other) -> bool:
        if isinstance(other, GradingVector):
            return self._grades == other._grades
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._grades)

    def __repr__(self) -> str:
        return "GradingVector(%s)" % (self.as_text(),)


def parse_grading(text: str) -> GradingVector:
    """Parse a comma-separated rational literal such as "2,4,6,10" or "1/2,1/3"."""
    if not isinstance(text, str):
        raise ValueError("grading must be a string such as \"2,3\"")
    if not text.strip():
        raise ValueError("empty grading literal")
    return GradingVector(tok for tok in text.split(","))


def ones_grading(n: int) -> GradingVector:
    return GradingVector([1] * n)


class GradedVector:
    """A float64 vector together with its grading.  Values are read-only."""

    __slots__ = ("_values", "_grading")

    def __init__(self, values, grading: GradingVector):
        if not isinstance(grading, GradingVector):
            grading = GradingVector(grading)
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise GradingMismatchError("graded vectors are one-dimensional")
        # built once per dataset row on the train path, so kept to direct
        # attribute reads; count_nonzero skips ndarray.all's Python wrapper,
        # which costs more than isfinite itself on a short row
        n = len(grading._grades)
        if arr.shape[0] != n:
            raise GradingMismatchError(
                "value length %d does not match grading length %d" % (arr.shape[0], n)
            )
        if np.count_nonzero(np.isfinite(arr)) != n:
            raise GradedDomainError("graded vector entries must be finite")
        arr.flags.writeable = False
        self._values = arr
        self._grading = grading

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def grading(self) -> GradingVector:
        return self._grading

    def with_values(self, values) -> "GradedVector":
        return GradedVector(values, self._grading)

    def __len__(self) -> int:
        return len(self._grading)

    def __repr__(self) -> str:
        return "GradedVector(%s, q=%s)" % (
            np.array2string(self._values, precision=6), self._grading.as_text())


@dataclass(frozen=True)
class GradedMatrix:
    """Matrix viewed as a map from a column-graded space to a row-graded space."""

    entries: np.ndarray
    row_grading: GradingVector
    col_grading: GradingVector

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2:
            raise GradingMismatchError("matrix entries must be two-dimensional")
        if arr.shape != (len(self.row_grading), len(self.col_grading)):
            raise GradingMismatchError(
                "matrix shape %s does not match gradings (%d, %d)"
                % (arr.shape, len(self.row_grading), len(self.col_grading))
            )
        if not np.isfinite(arr).all():
            raise GradedDomainError("matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


def stack_values(vectors: Sequence[GradedVector], grading: GradingVector) -> np.ndarray:
    """Values of graded vectors carrying `grading`, one per row of an array.

    Gradings are compared once per run of vectors sharing one grading
    object: a dataset's rows all carry its grading, which equals `grading`
    without being the same object."""
    checked = grading
    for v in vectors:
        if v._grading is not checked:
            if v._grading != grading:
                raise GradingMismatchError("vector grading does not match %s" % grading)
            checked = v._grading
    # every row has len(grading) entries, so one concatenation of the rows
    # is the array, built without np.array's search for the nested shape
    rows = [v._values for v in vectors] or [np.empty(0)]
    return np.concatenate(rows).reshape(len(vectors), len(grading))


def scalar_action(lam: float, x: GradedVector) -> GradedVector:
    """Graded scalar action: (lam * x)_i = lam**q_i * x_i, lam > 0."""
    lam = float(lam)
    if not lam > 0:
        raise GradedDomainError("scalar action requires lam > 0, got %r" % lam)
    return x.with_values(lam ** x.grading.floats * x.values)


def graded_euclidean_norm(x: GradedVector) -> float:
    """sqrt(sum_i q_i * x_i**2)."""
    return float(np.sqrt(np.sum(x.grading.floats * x.values ** 2)))


def max_graded_norm(x: GradedVector) -> float:
    """max_i sqrt(q_i) * |x_i|."""
    return float(np.max(np.sqrt(x.grading.floats) * np.abs(x.values)))


class ExponentScheme(Enum):
    """How the per-grade exponents of the homogeneous norm are chosen.

    BY_MAX_GRADE uses r = max grade (integer grades only) and exponent 2r/g
    for the grade-g group, which makes the norm exactly 1-homogeneous under
    the dilation that scales grade-g coordinates by t**g.  BY_DISTINCT_COUNT
    uses r = number of distinct grades and exponents 2r, 2r-2, ... down the
    ascending list of groups.
    """

    BY_MAX_GRADE = "by_max_grade"
    BY_DISTINCT_COUNT = "by_distinct_count"


def parse_scheme(text: str) -> ExponentScheme:
    try:
        return ExponentScheme(text.strip().lower())
    except ValueError:
        raise ValueError(
            "unknown exponent scheme %r (use by_max_grade or by_distinct_count)" % text
        ) from None


def decompose(x: GradedVector):
    """Split x into its graded components by coordinate masking.

    Returns [(grade, component)] over the distinct grades in ascending order.
    The components have the same length and grading as x and sum to x exactly.
    """
    parts = []
    for g, mask in x.grading.groups:
        parts.append((g, x.with_values(np.where(mask, x.values, 0.0))))
    return parts


def homogeneous_parts(values: np.ndarray, grading: GradingVector, scheme: ExponentScheme):
    """Norms n_j of the grade groups along the last axis of values, shaped
    (..., G); exponents e_j; outer exponent E of (sum_j n_j**e_j)**(1/E)."""
    grades = grading.distinct
    if scheme is ExponentScheme.BY_MAX_GRADE:
        if not grading.is_integer:
            raise GradedDomainError("the max-grade exponent scheme requires integer grades")
        r = int(grading.max_grade)
        exps = np.array([2.0 * r / float(g) for g in grades])
    else:
        r = len(grades)
        exps = 2.0 * np.arange(r, 0, -1)
    sq = values * values
    norms = np.stack([sq[..., mask].sum(axis=-1) for _, mask in grading.groups], axis=-1)
    return np.sqrt(norms), exps, 2 * r


def homogeneous_terms(x: GradedVector, scheme: ExponentScheme):
    """Per-group data (grade, euclidean norm of the group, exponent) plus the
    outer exponent E of the homogeneous norm (sum of terms)**(1/E)."""
    norms, exps, big_e = homogeneous_parts(x.values, x.grading, scheme)
    return [(g, float(n), float(e)) for g, n, e in zip(x.grading.distinct, norms, exps)], big_e


def homogeneous_norm(x: GradedVector, scheme: ExponentScheme) -> float:
    norms, exps, big_e = homogeneous_parts(x.values, x.grading, scheme)
    return float(np.sum(norms ** exps) ** (1.0 / big_e))


def vandermonde_project(x: GradedVector, target_grade, lambdas: Sequence[float]) -> GradedVector:
    """Extract the grade-q component of x from dilates, without masking.

    Solves sum_j c_j * lam_j**g_k = [g_k == target] over the distinct grades
    g_k, then returns sum_j c_j * (lam_j * x).  Needs as many distinct
    positive lambdas as there are distinct grades.
    """
    target = _as_fraction(target_grade)
    distinct = x.grading.distinct
    m = len(distinct)
    lams = [float(l) for l in lambdas]
    if len(lams) != m:
        raise IllPosedSystemError(
            "need %d scaling factors (one per distinct grade), got %d" % (m, len(lams))
        )
    if any(not l > 0 for l in lams):
        raise IllPosedSystemError("scaling factors must be positive")
    if len(set(lams)) != m:
        raise IllPosedSystemError("scaling factors must be pairwise distinct")
    if target not in distinct:
        raise GradedDomainError(
            "target grade %s does not occur in the grading" % target
        )
    mat = np.empty((m, m), dtype=float)
    for k, g in enumerate(distinct):
        for j, lam in enumerate(lams):
            mat[k, j] = lam ** float(g)
    cond = np.linalg.cond(mat)
    if cond > 1e12:
        warnings.warn(
            "projection system condition %.3g exceeds 1e12; results may lose "
            "precision" % cond,
            IllConditionedWarning,
            stacklevel=2,
        )
    rhs = np.array([1.0 if g == target else 0.0 for g in distinct])
    coeff = np.linalg.solve(mat, rhs)
    acc = np.zeros(len(x), dtype=float)
    for c, lam in zip(coeff, lams):
        acc += c * scalar_action(lam, x).values
    return x.with_values(acc)


def tensor_grading(q: GradingVector, r: GradingVector) -> GradingVector:
    """Grading of the tensor product, row-major: grade(i,j) = q_i + r_j."""
    return GradingVector([qi + rj for qi in q.grades for rj in r.grades])


def dual_grading(q: GradingVector) -> tuple:
    """Grades of the dual space, as a signed tuple (negatives are legal here)."""
    return tuple(-g for g in q.grades)


def entry_degrees(a: GradedMatrix):
    """Implied degree r_i - q_j for every nonzero entry, as [(i, j, degree)]."""
    rows, cols = np.nonzero(a.entries)
    return [
        (int(i), int(j), a.row_grading.grades[i] - a.col_grading.grades[j])
        for i, j in zip(rows, cols)
    ]


def infer_map_degree(a: GradedMatrix) -> Optional[Fraction]:
    """The unique degree d with r_i = q_j + d over nonzero entries.

    Returns Fraction(0) for the zero matrix and None when the nonzero entries
    imply conflicting degrees (see entry_degrees for the offending pairs).
    """
    degs = entry_degrees(a)
    if not degs:
        return Fraction(0)
    first = degs[0][2]
    for _, _, d in degs[1:]:
        if d != first:
            return None
    return first
