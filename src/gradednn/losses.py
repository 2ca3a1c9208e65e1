"""Grade-weighted loss functions.

All losses take (target, prediction) as graded vectors over the same grading,
or as (N, n) arrays of samples with their grading, and return the mean loss
over the samples.  Parametrized kinds are described by a LossKind value,
which also parses from compact text such as "huber:0.5" or
"homogeneous:by_distinct_count".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spaces import (
    ExponentScheme,
    GradedDomainError,
    GradedVector,
    GradingMismatchError,
    homogeneous_parts,
    parse_scheme,
    require_same_grading,
)

# predictions below this are clamped inside the cross entropy log
CROSS_ENTROPY_CLAMP = 1e-12


@dataclass(frozen=True)
class LossKind:
    name: str
    delta: Optional[float] = None
    scheme: Optional[ExponentScheme] = None

    @classmethod
    def graded_mse(cls):
        return cls("graded_mse")

    @classmethod
    def graded_norm(cls):
        return cls("graded_norm")

    @classmethod
    def huber(cls, delta: float):
        if not delta > 0:
            raise ValueError("huber threshold must be positive")
        return cls("huber", delta=float(delta))

    @classmethod
    def homogeneous(cls, scheme: ExponentScheme):
        return cls("homogeneous", scheme=scheme)

    @classmethod
    def cross_entropy(cls):
        return cls("cross_entropy")

    @classmethod
    def max_graded(cls):
        return cls("max_graded")

    def as_text(self) -> str:
        if self.name == "huber":
            return "huber:%g" % self.delta
        if self.name == "homogeneous":
            return "homogeneous:%s" % self.scheme.value
        return self.name


def parse_loss(text: str) -> LossKind:
    """Parse "graded_mse" | "graded_norm" | "huber:<delta>" |
    "homogeneous:<scheme>" | "cross_entropy" | "max_graded"."""
    tok = text.strip().lower()
    if tok in ("graded_mse", "graded_norm", "cross_entropy", "max_graded"):
        return LossKind(tok)
    if tok.startswith("huber:"):
        return LossKind.huber(float(tok.split(":", 1)[1]))
    if tok.startswith("homogeneous:"):
        return LossKind.homogeneous(parse_scheme(tok.split(":", 1)[1]))
    raise ValueError("unknown loss %r" % text)


def _operands(y, yhat, grading=None):
    """(grading, y, yhat) as (N, n) arrays; two graded vectors are N = 1."""
    if grading is None:
        require_same_grading(y, yhat)
        return y.grading, y.values[np.newaxis], yhat.values[np.newaxis]
    y, yhat = np.asarray(y, dtype=float), np.asarray(yhat, dtype=float)
    if y.ndim != 2 or y.shape != yhat.shape or y.shape[1] != len(grading):
        raise GradingMismatchError("need (N, %d) arrays" % len(grading))
    return grading, y, yhat


def graded_mse(y: GradedVector, yhat: GradedVector) -> float:
    """(1/n) sum_i q_i (yhat_i - y_i)**2."""
    return loss_value(LossKind.graded_mse(), y, yhat)


def graded_norm_loss(y: GradedVector, yhat: GradedVector) -> float:
    """sum_i q_i (yhat_i - y_i)**2, the squared graded euclidean norm."""
    return loss_value(LossKind.graded_norm(), y, yhat)


def graded_huber(y: GradedVector, yhat: GradedVector, delta: float) -> float:
    """sum_i q_i rho_delta(yhat_i - y_i) with the usual quadratic/linear split."""
    return loss_value(LossKind.huber(delta), y, yhat)


def homogeneous_loss(y: GradedVector, yhat: GradedVector, scheme: ExponentScheme) -> float:
    """Square of the homogeneous norm of the residual, (sum_j n_j**e_j)**(2/E)
    over the per-group euclidean norms n_j; zero residual gives zero."""
    return loss_value(LossKind.homogeneous(scheme), y, yhat)


def graded_cross_entropy(y: GradedVector, yhat: GradedVector) -> float:
    """-sum_i q_i y_i log(yhat_i), with yhat clamped below at 1e-12."""
    return loss_value(LossKind.cross_entropy(), y, yhat)


def max_graded_loss(y: GradedVector, yhat: GradedVector) -> float:
    """(max_i sqrt(q_i)|yhat_i - y_i|)**2 = max_i q_i (yhat_i - y_i)**2."""
    return loss_value(LossKind.max_graded(), y, yhat)


def loss_value(kind: LossKind, y, yhat, grading=None) -> float:
    """Mean loss along axis 0.  y and yhat are one sample as graded vectors
    over one grading, or (N, n) arrays, one sample per row, with `grading`."""
    rows = loss_rows(kind, y, yhat, grading)
    # rows.sum() / N is np.mean without its per-call overhead
    return float(rows.sum() / len(rows))


def loss_rows(kind: LossKind, y, yhat, grading=None) -> np.ndarray:
    """The (N,) per-sample losses that loss_value averages; operands as
    there, one graded-vector sample giving N = 1."""
    grading, y, yhat = _operands(y, yhat, grading)
    q, d = grading.floats, yhat - y
    if kind.name == "graded_mse":
        rows = np.sum(q * d * d, axis=1) / len(q)
    elif kind.name == "graded_norm":
        rows = np.sum(q * d * d, axis=1)
    elif kind.name == "huber":
        z, delta = np.abs(d), kind.delta
        rho = np.where(z <= delta, 0.5 * z * z, delta * (z - 0.5 * delta))
        rows = np.sum(q * rho, axis=1)
    elif kind.name == "homogeneous":
        norms, exps, big_e = homogeneous_parts(d, grading, kind.scheme)
        rows = np.sum(norms ** exps, axis=1) ** (2.0 / big_e)
    elif kind.name == "cross_entropy":
        if np.any(y < 0.0):
            raise GradedDomainError("cross entropy targets must be nonnegative")
        rows = -np.sum(q * y * np.log(np.maximum(yhat, CROSS_ENTROPY_CLAMP)), axis=1)
    elif kind.name == "max_graded":
        rows = np.max(q * d * d, axis=1)
    else:
        raise ValueError("unknown loss kind %r" % (kind,))
    return rows
