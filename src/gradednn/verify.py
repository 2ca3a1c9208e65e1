"""Worked-example verification report.

Recomputes the reference worked examples through the library and compares
against closed forms.  Three of the published example values are known to be
inconsistent with the definitions they illustrate; those rows are reported
as "flagged" with the derived value shown, never silently adopted.  Two of
the loss rows carry printed literals (13/7 and 13) that restate the norm of
the target vector from the preceding example; the derived values (15/7 and
15) are asserted instead, with the discrepancy noted on the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .losses import LossKind, loss_value
from .network import (
    ActivationKind,
    Layer,
    Network,
    activation_value,
    log_domain_forward,
    network_forward,
)
from .spaces import (
    ExponentScheme,
    GradedVector,
    GradingVector,
    graded_euclidean_norm,
    max_graded_norm,
    ones_grading,
    tensor_grading,
)


@dataclass
class ReportRow:
    name: str
    computed: Tuple[float, ...]
    expected: Tuple[float, ...]
    tol: float
    status: str = ""  # pass | fail | flagged
    note: str = ""

    def max_err(self) -> float:
        return max(abs(c - e) for c, e in zip(self.computed, self.expected))


@dataclass
class VerifyReport:
    rows: List[ReportRow] = field(default_factory=list)

    def add(
        self,
        name: str,
        computed,
        expected,
        tol: float,
        printed: Optional[Sequence[float]] = None,
        note: str = "",
    ) -> ReportRow:
        row = ReportRow(
            name=name,
            computed=tuple(float(v) for v in np.atleast_1d(computed)),
            expected=tuple(float(v) for v in np.atleast_1d(expected)),
            tol=tol,
            note=note,
        )
        ok = len(row.computed) == len(row.expected) and row.max_err() <= tol
        if printed is not None:
            # a known-bad printed value: the row is healthy when the library
            # matches the derived value and still disagrees with the print
            printed = tuple(float(v) for v in np.atleast_1d(printed))
            differs = any(abs(c - p) > tol for c, p in zip(row.computed, printed))
            row.status = "flagged" if (ok and differs) else "fail"
            row.note = (row.note + " " if row.note else "") + (
                "printed reference value %s is inconsistent with the "
                "definition; derived value shown" % (_fmt_tuple(printed),)
            )
        else:
            row.status = "pass" if ok else "fail"
        self.rows.append(row)
        return row

    @property
    def flagged(self) -> List[ReportRow]:
        return [r for r in self.rows if r.status == "flagged"]

    @property
    def failed(self) -> List[ReportRow]:
        return [r for r in self.rows if r.status == "fail"]

    def ok(self) -> bool:
        return not self.failed


def _fmt_tuple(vals) -> str:
    if len(vals) == 1:
        return "%.6g" % vals[0]
    return "(" + ", ".join("%.6g" % v for v in vals) + ")"


def format_report(report: VerifyReport) -> str:
    lines = []
    width = max(len(r.name) for r in report.rows)
    for r in report.rows:
        mark = {"pass": "PASS", "flagged": "FLAG", "fail": "FAIL"}[r.status]
        line = "%s  %-*s  computed=%s expected=%s tol=%g" % (
            mark, width, r.name, _fmt_tuple(r.computed), _fmt_tuple(r.expected), r.tol)
        if r.note:
            line += "  [%s]" % r.note
        lines.append(line)
    lines.append(
        "summary: %d pass, %d flagged, %d fail"
        % (
            sum(1 for r in report.rows if r.status == "pass"),
            len(report.flagged),
            len(report.failed),
        )
    )
    return "\n".join(lines)


# the recurring worked-example grading and vectors
Q7 = GradingVector([2, 2, 2, 3, 3, 3, 3])
RELU_INPUT = (2.0, -3.0, 1.0, 1.0, -2.0, 1.0, 1.0)
NORM_INPUT = (1.0, 0.0, 1.0, 1.0, -1.0, 0.0, 1.0)
LOSS_Y = (1.0, 0.0, 1.0, 1.0, -1.0, 0.0, 1.0)
LOSS_YHAT = (0.0, 1.0, 0.0, 1.0, 0.0, -1.0, 0.0)

# Reported application results that this toolkit makes no attempt to
# reproduce.  They depend on external datasets, domain pipelines, or hardware
# that sit outside a desk-scale numerical package, so no check here can
# confirm or refute them; they are listed so the boundary is explicit.
OUT_OF_SCOPE_CLAIMS = (
    "genus-2 curve classification accuracy (about 99%): needs the external "
    "arithmetic-geometry dataset and labeling pipeline",
    "quantum-experiment regression MSE figures: need the physical dataset "
    "and preprocessing, not just the graded layers",
    "Sobolev/Besov embedding constants for graded function classes: "
    "analytic results with no finite computation to check",
    "photonic-hardware throughput and energy estimates: hardware "
    "projections, not properties of this software",
)


def verify_examples() -> VerifyReport:
    rep = VerifyReport()
    x_norm = GradedVector(NORM_INPUT, Q7)
    relu, q = ActivationKind.GRADED_RELU, Q7.floats

    relu_closed = (
        math.sqrt(2), math.sqrt(3), 1.0, 1.0, 2.0 ** (1.0 / 3.0), 1.0, 1.0)
    rep.add("graded relu vector (closed forms)",
            activation_value(relu, RELU_INPUT, q), relu_closed, 1e-12)
    rep.add("graded relu vector (printed 3-decimal)",
            activation_value(relu, RELU_INPUT, q),
            (1.414, 1.732, 1.0, 1.0, 1.260, 1.0, 1.0), 1e-3)

    exp_vec = activation_value(ActivationKind.GRADED_EXP, RELU_INPUT, q)
    rep.add("graded exp at x0=2 (e-1)", exp_vec[0], math.e - 1.0, 1e-12)
    rep.add("graded exp at x1=-3 (e^-1.5 - 1)",
            exp_vec[1], math.exp(-1.5) - 1.0, 1e-12)
    rep.add("graded exp at x3=1 (e^{1/3} - 1)",
            exp_vec[3], math.exp(1.0 / 3.0) - 1.0, 1e-12)

    rep.add("graded euclidean norm", graded_euclidean_norm(x_norm),
            math.sqrt(13), 1e-12)
    rep.add("max graded norm", max_graded_norm(x_norm), math.sqrt(3), 1e-12)

    tq = tensor_grading(GradingVector([1, 2]), GradingVector([3, 4]))
    rep.add("tensor grading (1,2)x(3,4)", tq.floats, (4.0, 5.0, 5.0, 6.0), 0.0)
    frac = tensor_grading(GradingVector(["1/2", "1/3"]), GradingVector(["1/2", "1/3"]))
    rep.add("tensor grading fractional contains 5/6",
            1.0 if Fraction(5, 6) in frac.grades else 0.0, 1.0, 0.0)

    mult = Layer(np.ones((1, 7)), [0.0], ActivationKind.IDENTITY, Q7, ones_grading(1),
                 exponents=(1, 0, 0, 2, 0, 0, 0))
    rep.add("multiplicative neuron worked value",
            network_forward(
                Network([mult]), GradedVector((1, 0, 0, 2, 0, 0, 0), Q7)).values,
            4.0, 1e-12)

    # loss block: the printed 13/7 and 13 restate ||y||_q^2 = 13 from the norm
    # example; the definitions give 15/7 and 15 on these vectors (the huber
    # half-sum 15/2 and the group norms behind sqrt(12) both confirm 15)
    y, yhat = [LOSS_Y], [LOSS_YHAT]
    rep.add("graded mse worked vectors",
            loss_value(LossKind.graded_mse(), y, yhat, Q7), 15.0 / 7.0, 1e-12,
            note="printed literal 13/7 follows a mis-summed total")
    rep.add("graded norm loss worked vectors",
            loss_value(LossKind.graded_norm(), y, yhat, Q7), 15.0, 1e-12,
            note="printed literal 13 restates the norm example")
    rep.add("homogeneous loss worked vectors",
            loss_value(LossKind.homogeneous(ExponentScheme.BY_DISTINCT_COUNT), y, yhat, Q7),
            math.sqrt(12), 1e-12)
    rep.add("max graded loss worked vectors",
            loss_value(LossKind.max_graded(), y, yhat, Q7), 3.0, 1e-12)

    # flag 1: huber at unit differences is half the (correct) norm total
    rep.add("graded huber worked vectors (delta=1)",
            loss_value(LossKind.huber(1.0), y, yhat, Q7), 7.5, 1e-12, printed=(6.5,))

    # flag 2: single-term neuron magnitudes, direct and log-domain
    neuron = Layer([[1.5]], [0.0], ActivationKind.IDENTITY, GradingVector([10]),
                   ones_grading(1))
    x_small = np.array([[0.1]])
    _, log_magnitude = log_domain_forward(neuron, x_small)
    rep.add("log-stabilization example (value, log-magnitude)",
            (neuron.forward(x_small).z[0, 0], log_magnitude[0, 0]),
            (1.5 ** 10 * 0.1, 10.0 * math.log(1.5) + math.log(0.1)),
            1e-12, printed=(5.7e5, 4.05))

    # flag 3: activation stability norms on the worked pair
    xs = np.array((1.0, -2.0, 0.0, 1.0, 0.0, 1.0, 1.0))
    ys = np.array((0.0, -1.0, 1.0, 1.0, -1.0, 0.0, 1.0))
    drelu = GradedVector(activation_value(relu, xs, q) - activation_value(relu, ys, q), Q7)
    dxy = GradedVector(xs - ys, Q7)
    rep.add("activation stability norms (relu diff^2, input diff^2)",
            (graded_euclidean_norm(drelu) ** 2, graded_euclidean_norm(dxy) ** 2),
            (16.0 - 4.0 * math.sqrt(2), 12.0),
            1e-12, printed=(7.342, 10.0))

    return rep
