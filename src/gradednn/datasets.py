"""Synthetic datasets and CSV round-tripping for the experiment harness.

CSV layout is a header row x0..x{n-1},y0..y{m-1} followed by one row per
sample; floats are written with 17 significant digits so that reading the
file back reproduces the doubles exactly.  monomial_value, the target of
the monomial datasets and of approx-bench, takes its sign and fractional
domain from network.multiplicative_sign, the rule the multiplicative
neuron follows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .ioutil import fmt17
from .network import multiplicative_sign
from .spaces import (
    GradedDomainError,
    GradedVector,
    GradingMismatchError,
    GradingVector,
    ones_grading,
)


@dataclass
class Dataset:
    inputs: np.ndarray
    targets: np.ndarray
    in_grading: GradingVector
    out_grading: GradingVector

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.array(self.inputs, dtype=float))
        self.targets = np.atleast_2d(np.array(self.targets, dtype=float))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise GradingMismatchError("inputs and targets differ in sample count")
        if self.inputs.shape[1] != len(self.in_grading):
            raise GradingMismatchError("input width does not match input grading")
        if self.targets.shape[1] != len(self.out_grading):
            raise GradingMismatchError("target width does not match output grading")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise GradedDomainError("dataset entries must be finite")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def graded_inputs(self) -> List[GradedVector]:
        return [GradedVector(row, self.in_grading) for row in self.inputs]

    def graded_targets(self) -> List[GradedVector]:
        return [GradedVector(row, self.out_grading) for row in self.targets]


def monomial_value(x: np.ndarray, exponents: Sequence[Fraction], coefficient: float) -> np.ndarray:
    """c * prod_i sgn(x_i)**k_i |x_i|**k_i for each row of x, the sign and
    the fractional domain by network.multiplicative_sign."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = float(coefficient) * multiplicative_sign(exponents, x)
    for i, k in enumerate(exponents):
        if k != 0:
            out = out * np.abs(x[:, i]) ** float(k)
    return out


def gen_monomial_dataset(
    grading: GradingVector,
    exponents: Sequence,
    coefficient: float,
    box: Sequence[Tuple[float, float]],
    count: int,
    seed: int,
) -> Dataset:
    """Uniform samples from a box with scalar monomial targets."""
    exponents = tuple(Fraction(k) for k in exponents)
    if len(exponents) != len(grading) or len(box) != len(grading):
        raise GradingMismatchError("exponents/box must match the grading length")
    for i, k in enumerate(exponents):
        try:
            float(k)
        except OverflowError:  # an integer such as 10**400
            raise GradedDomainError("exponents[%d] does not fit a float64" % i) from None
    if count < 1:
        raise ValueError("count must be >= 1")
    lows = np.array([b[0] for b in box], dtype=float)
    highs = np.array([b[1] for b in box], dtype=float)
    if np.any(lows >= highs):
        raise ValueError("box bounds must satisfy low < high")
    for k, lo in zip(exponents, lows):
        if k.denominator != 1 and lo <= 0:
            raise GradedDomainError(
                "fractional exponent %s needs a positive sampling box" % k
            )
    rng = np.random.default_rng(seed)
    x = rng.uniform(lows, highs, size=(count, len(grading)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = monomial_value(x, exponents, coefficient)
    if not np.isfinite(y).all():
        raise GradedDomainError("the target overflows a float64 on the sampling box")
    return Dataset(x, y[:, np.newaxis], grading, ones_grading(1))


def gen_linear_map_dataset(
    in_dim: int,
    out_grading: GradingVector,
    count: int,
    seed: int,
):
    """Noiseless targets of a random linear map on near-unit inputs.

    Inputs carry the all-ones grading, so a single identity-activation layer
    is linear in its parameters and the graded-norm objective is a convex
    quadratic.  Inputs are sign patterns with mild jitter, which keeps the
    sample Gram matrix well conditioned.  Returns (dataset, true_weights,
    true_bias); the optimum has zero loss.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(count, in_dim))
    x = signs * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=(count, in_dim)))
    w_true = rng.uniform(-1.0, 1.0, size=(len(out_grading), in_dim))
    b_true = rng.uniform(-0.5, 0.5, size=len(out_grading))
    y = x @ w_true.T + b_true
    ds = Dataset(x, y, ones_grading(in_dim), out_grading)
    return ds, w_true, b_true


def gen_invariant_proxy_dataset(
    grading: GradingVector,
    count: int,
    seed: int,
) -> Dataset:
    """Scalar regression on positively-sampled graded inputs.

    Targets are linear in the inputs with positive coefficients u_i**q_i, so
    a single-layer identity model realizes them exactly with base weights
    u_i inside the usual init range, and full-batch descent converges.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 1.5, size=(count, len(grading)))
    u = rng.uniform(0.3, 0.8, size=len(grading))
    coeff = u ** grading.floats
    intercept = rng.uniform(0.0, 0.2)
    y = x @ coeff + intercept
    return Dataset(x, y[:, np.newaxis], grading, ones_grading(1))


def write_dataset_csv(ds: Dataset, path) -> None:
    n, m = len(ds.in_grading), len(ds.out_grading)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x%d" % i for i in range(n)] + ["y%d" % j for j in range(m)])
        for xr, yr in zip(ds.inputs, ds.targets):
            writer.writerow([fmt17(v) for v in xr] + [fmt17(v) for v in yr])


def _csv_rows(reader, path):
    """The rows of a csv reader; a malformed one, such as a field over
    csv.field_size_limit(), is a ValueError naming the file and line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError("dataset file %s line %d: %s" % (path, reader.line_num, exc)) from None


def read_dataset_csv(path, in_grading: GradingVector, out_grading: GradingVector) -> Dataset:
    n, m = len(in_grading), len(out_grading)
    expected = ["x%d" % i for i in range(n)] + ["y%d" % j for j in range(m)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(reader, path)
        try:
            header = next(rows)
        except StopIteration:
            raise ValueError("dataset file %s is empty" % path) from None
        if [h.strip() for h in header] != expected:
            raise ValueError(
                "dataset header %r does not match expected %r" % (header, expected)
            )
        xs, ys = [], []
        for row in rows:
            if not row:
                continue
            where = "dataset file %s line %d" % (path, reader.line_num)
            if len(row) != n + m:
                # a short row names its first missing column
                col = " column %s" % expected[len(row)] if len(row) < n + m else ""
                raise ValueError("%s%s: row has %d fields, expected %d"
                                 % (where, col, len(row), n + m))
            vals = []
            for name, tok in zip(expected, row):
                try:
                    vals.append(float(tok))
                except ValueError as exc:
                    raise ValueError("%s column %s: %s" % (where, name, exc)) from None
                if not math.isfinite(vals[-1]):
                    raise GradedDomainError("%s column %s: dataset entries must be finite"
                                            % (where, name))
            xs.append(vals[:n])
            ys.append(vals[n:])
    if not xs:
        raise ValueError("dataset file %s has no samples" % path)
    return Dataset(np.array(xs), np.array(ys), in_grading, out_grading)
