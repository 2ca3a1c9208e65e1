"""Grade-weighted loss functions.

All losses take (target, prediction) as (N, n) arrays, one sample per row,
with the grading of the n coordinates, and return the mean loss over the
samples.  A LossKind value names the kind and its parameter, and
parses from compact text such as "huber:0.5" or "homogeneous:by_max_grade".
Each kind's value, gradient and kink test sit in one branch of _loss_part.
Per sample, with d = yhat - y: graded_mse (1/n) sum_i q_i d_i**2,
graded_norm sum_i q_i d_i**2, huber sum_i q_i rho_delta(d_i), homogeneous
(sum_j n_j**e_j)**(2/E) over the euclidean norms n_j of d's grade groups,
cross_entropy -sum_i q_i y_i log(max(yhat_i, 1e-12)), max_graded
max_i q_i d_i**2.

cross_entropy is bounded below only while every output stays at most 1, and
no activation here caps the outputs at 1: a model whose outputs grow past 1
drives it below 0 and on down, and train reports that descent as progress
(the train-cross_entropy golden run reaches -0.615 in 6 iterations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spaces import (
    ExponentScheme,
    GradedDomainError,
    GradedVector,
    GradingMismatchError,
    homogeneous_parts,
    homogeneous_terms,
    parse_scheme,
)

# predictions below this are clamped inside the cross entropy log
CROSS_ENTROPY_CLAMP = 1e-12

# the loss kinds; huber takes a threshold delta, homogeneous an exponent scheme
_NAMES = ("graded_mse", "graded_norm", "huber", "homogeneous", "cross_entropy", "max_graded")


@dataclass(frozen=True)
class LossKind:
    name: str
    delta: Optional[float] = None
    scheme: Optional[ExponentScheme] = None

    def __post_init__(self):
        if self.name not in _NAMES:
            raise ValueError("unknown loss kind %r" % (self.name,))
        if self.name == "huber":
            if self.delta is None or not 0.0 < float(self.delta) < math.inf:
                raise ValueError("huber threshold must be a positive finite number")
            object.__setattr__(self, "delta", float(self.delta))
        if self.name == "homogeneous" and not isinstance(self.scheme, ExponentScheme):
            raise ValueError("homogeneous loss needs an exponent scheme")
        for field, owner in (("delta", "huber"), ("scheme", "homogeneous")):
            if getattr(self, field) is not None and self.name != owner:
                raise ValueError("loss %s takes no %s" % (self.name, field))

    @classmethod
    def graded_mse(cls):
        return cls("graded_mse")

    @classmethod
    def graded_norm(cls):
        return cls("graded_norm")

    @classmethod
    def huber(cls, delta: float):
        return cls("huber", delta=delta)

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
        """The text that parse_loss reads back as this kind."""
        if self.delta is not None:
            return "%s:%r" % (self.name, self.delta)
        if self.scheme is not None:
            return "%s:%s" % (self.name, self.scheme.value)
        return self.name


def parse_loss(text: str) -> LossKind:
    """Parse "graded_mse" | "graded_norm" | "huber:<delta>" |
    "homogeneous:<scheme>" | "cross_entropy" | "max_graded"."""
    name, colon, arg = text.strip().lower().partition(":")
    if colon and name == "huber":
        try:
            delta = float(arg)
        except ValueError:
            delta = math.nan
        return LossKind.huber(delta)
    if colon and name == "homogeneous":
        return LossKind.homogeneous(parse_scheme(arg))
    if colon or name not in _NAMES:
        raise ValueError("unknown loss %r" % text)
    return LossKind(name)


def _operands(y, yhat, grading):
    """(grading, y, yhat) with y and yhat as (N, n) float arrays, N >= 1."""
    y, yhat = np.asarray(y, dtype=float), np.asarray(yhat, dtype=float)
    if y.ndim != 2 or y.shape != yhat.shape or y.shape[1] != len(grading):
        raise GradingMismatchError("need (N, %d) arrays" % len(grading))
    if not len(y):
        raise ValueError("an empty batch has no mean loss")
    return grading, y, yhat


def loss_value(kind: LossKind, y, yhat, grading) -> float:
    """Mean loss along axis 0 of the (N, n) arrays y and yhat, one sample
    per row, over `grading`."""
    rows = loss_rows(kind, y, yhat, grading)
    # rows.sum() / N is np.mean without its per-call overhead
    return float(rows.sum() / len(rows))


def loss_rows(kind: LossKind, y, yhat, grading) -> np.ndarray:
    """The (N,) per-sample losses that loss_value averages."""
    return _loss_part(kind, "value", *_operands(y, yhat, grading))


def _loss_part(kind: LossKind, part: str, grading, y, yhat) -> np.ndarray:
    """One part of a loss on (N, n) operands, each kind in one branch.

    part "value" gives the (N,) per-sample losses, "grad" their (N, n)
    gradients in yhat, and "kink" the (N,) mask of samples so near a point
    where the loss is not differentiable that a central difference there
    cannot be trusted.
    """
    q, d = grading.floats, yhat - y
    if kind.name in ("graded_mse", "graded_norm"):
        # the mean over the n entries, or their sum
        n = len(q) if kind.name == "graded_mse" else 1
        if part == "value":
            return np.sum(q * d * d, axis=1) / n
        if part == "grad":
            return (2.0 / n) * q * d
        return np.zeros(len(d), dtype=bool)
    if kind.name == "huber":
        z, delta = np.abs(d), kind.delta
        if part == "value":
            rho = np.where(z <= delta, 0.5 * z * z, delta * (z - 0.5 * delta))
            return np.sum(q * rho, axis=1)
        if part == "grad":
            # derivative of rho is the residual clipped to [-delta, delta]
            return q * np.clip(d, -delta, delta)
        return np.any(np.abs(z - delta) < 1e-3 * max(1.0, delta), axis=1)
    if kind.name == "homogeneous":
        if part == "kink":
            # each group norm is a root, not differentiable at zero
            terms = (homogeneous_terms(GradedVector(r, grading), kind.scheme)[0] for r in d)
            return np.array([any(n < 1e-2 for _, n, _ in t) for t in terms])
        norms, exps, big_e = homogeneous_parts(d, grading, kind.scheme)
        s = np.sum(norms ** exps, axis=1)
        if part == "value":
            return s ** (2.0 / big_e)
        # a row with s = 0 has d = 0; inf**(2/E - 1) keeps its factors finite,
        # and so does exps >= 2 at a zero group norm
        outer = (2.0 / big_e) * np.where(s > 0.0, s, np.inf) ** (2.0 / big_e - 1.0)
        coef = outer[:, np.newaxis] * exps * norms ** (exps - 2.0)
        g = np.empty_like(d)
        for j, (_, mask) in enumerate(grading.groups):
            g[:, mask] = coef[:, j, np.newaxis] * d[:, mask]
        return g
    if kind.name == "cross_entropy":
        if np.any(y < 0.0):
            raise GradedDomainError("cross entropy targets must be nonnegative")
        clamped = np.maximum(yhat, CROSS_ENTROPY_CLAMP)
        if part == "value":
            return -np.sum(q * y * np.log(clamped), axis=1)
        if part == "grad":
            # inside the clamp the loss is locally constant in yhat
            return np.where(yhat < CROSS_ENTROPY_CLAMP, 0.0, -q * y / clamped)
        return np.any(yhat < 1e-2, axis=1)
    # max_graded, the last name LossKind admits
    scores = q * d * d
    if part == "value":
        return np.max(scores, axis=1)
    if part == "grad":
        g = np.zeros_like(d)
        rows = np.arange(len(d))
        m = np.argmax(scores, axis=1)  # ties resolve to the lowest index
        g[rows, m] = 2.0 * q[m] * d[rows, m]
        return g
    # a near-tie of the top two scores is where the maximum switches entry
    top = np.max(scores, axis=1)
    second = np.sort(scores, axis=1)[:, -2] if len(q) > 1 else -np.inf
    return top - second < 1e-3 * np.maximum(top, 1.0)
