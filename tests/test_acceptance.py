"""Acceptance gate: one test per headline guarantee, at the stated
tolerances.  Each test prints a PASS/FAIL line through conftest so a full
run reads as a checklist.  Tests recompute their own reference values; no
result from one criterion feeds another.
"""

import math
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gradednn.bench import approx_bench, bench_config_from_dict
from gradednn.classical import classical_mlp_forward, mlp_train
from gradednn.datasets import gen_linear_map_dataset
from gradednn.gradients import grad_check_suite
from gradednn.losses import LossKind, loss_value
from gradednn.network import (
    ActivationKind,
    Layer,
    Network,
    activation_value,
    log_domain_forward,
    network_forward,
    random_network,
)
from gradednn.optimizer import OptimizerConfig, train
from gradednn.spaces import (
    ExponentScheme,
    GradedVector,
    GradingVector,
    decompose,
    graded_euclidean_norm,
    max_graded_norm,
    ones_grading,
    scalar_action,
    vandermonde_project,
)
from gradednn.verify import (
    LOSS_Y,
    LOSS_YHAT,
    OUT_OF_SCOPE_CLAIMS,
    Q7,
    verify_examples,
)

def _row(v):
    return v.values[np.newaxis]


GRADE_POOL = [Fraction(1), Fraction(2), Fraction(3), Fraction(4),
              Fraction(1, 2), Fraction(3, 2)]


def test_01_worked_loss_values_match_closed_forms():
    t0 = time.perf_counter()
    rows = {r.name: r for r in verify_examples().rows}
    for name in (
        "graded relu vector (closed forms)",
        "graded exp at x0=2 (e-1)",
        "graded exp at x1=-3 (e^-1.5 - 1)",
        "graded euclidean norm",
        "max graded norm",
        "homogeneous loss worked vectors",
        "max graded loss worked vectors",
    ):
        assert rows[name].status == "pass" and rows[name].tol <= 1e-12, name

    y = GradedVector(LOSS_Y, Q7)
    yhat = GradedVector(LOSS_YHAT, Q7)
    # termwise q_i (y_i - yhat_i)^2 = (2,2,2,0,3,3,3): total 15
    assert abs(loss_value(LossKind.graded_norm(), _row(y), _row(yhat), Q7) - 15.0) <= 1e-12
    assert abs(
        loss_value(LossKind.graded_mse(), _row(y), _row(yhat), Q7) - 15.0 / 7.0) <= 1e-12
    assert abs(
        loss_value(LossKind.homogeneous(ExponentScheme.BY_DISTINCT_COUNT),
                   _row(y), _row(yhat), Q7)
        - math.sqrt(12.0)
    ) <= 1e-12
    assert abs(loss_value(LossKind.max_graded(), _row(y), _row(yhat), Q7) - 3.0) <= 1e-12
    # delta=1: every nonzero term has |d|=1 inside the quadratic branch,
    # so huber = half the norm total
    assert abs(loss_value(LossKind.huber(1.0), _row(y), _row(yhat), Q7) - 7.5) <= 1e-12
    # the reference totals 13/7 and 13 mis-sum those terms; the report says so
    assert "mis-summed" in rows["graded mse worked vectors"].note
    assert "norm example" in rows["graded norm loss worked vectors"].note
    assert time.perf_counter() - t0 < 1.0


def test_02_example_report_flags_inconsistent_printed_values():
    rep = verify_examples()
    assert rep.ok(), [r.name for r in rep.failed]
    assert sum(1 for r in rep.rows if r.status == "pass") == 14
    flagged = {r.name: r for r in rep.flagged}
    assert sorted(flagged) == [
        "activation stability norms (relu diff^2, input diff^2)",
        "graded huber worked vectors (delta=1)",
        "log-stabilization example (value, log-magnitude)",
    ]
    hub = flagged["graded huber worked vectors (delta=1)"]
    assert hub.computed == pytest.approx((7.5,), abs=1e-12)
    assert "6.5" in hub.note and "inconsistent" in hub.note
    log = flagged["log-stabilization example (value, log-magnitude)"]
    assert log.computed == pytest.approx(
        (1.5 ** 10 * 0.1, 10.0 * math.log(1.5) + math.log(0.1)), abs=1e-12)
    assert "570000" in log.note and "4.05" in log.note
    stab = flagged["activation stability norms (relu diff^2, input diff^2)"]
    assert stab.computed == pytest.approx(
        (16.0 - 4.0 * math.sqrt(2.0), 12.0), abs=1e-12)
    assert "7.342" in stab.note


def _neuron(weights, exponents, grading):
    """One graded neuron with a zero bias: a one-output identity Layer,
    multiplicative when it has exponents."""
    return Layer(np.asarray(weights)[np.newaxis], [0.0], ActivationKind.IDENTITY,
                 grading, ones_grading(1), exponents=exponents)


def test_03_one_multiplicative_neuron_represents_a_monomial_exactly():
    # f(x) = x_0 * x_3^2 carries degree 1*2 + 2*3 = 8 on q=(2,2,2,3,3,3,3)
    neuron = _neuron(np.ones(7), (1, 0, 0, 2, 0, 0, 0), Q7)
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.1, 2.0, size=(1000, 7))
    worst = 0.0
    for row in xs:
        got = network_forward(Network([neuron]), GradedVector(row, Q7)).values[0]
        worst = max(worst, abs(got - row[0] * row[3] ** 2))
    assert worst <= 1e-12, worst


def test_04_homogeneity_invariants_hold():
    rng = np.random.default_rng(7)
    n, m = 100, 100  # m scalings applied to length-n vectors: 10^4 checks each

    grading = GradingVector(rng.choice(GRADE_POOL, size=n))
    xs = rng.uniform(-3.0, 3.0, size=n)
    lams = rng.uniform(0.2, 5.0, size=m)
    mus = rng.uniform(0.2, 5.0, size=m)

    def rel(a, b):
        return np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))

    worst_act = worst_relu = 0.0
    x = GradedVector(xs, grading)
    for lam, mu in zip(lams, mus):
        # composition: lam * (mu * x) = (lam mu) * x
        lhs = scalar_action(lam, scalar_action(mu, x))
        rhs = scalar_action(lam * mu, x)
        worst_act = max(worst_act, rel(lhs.values, rhs.values))
        # graded relu is 1-homogeneous for the action: relu(lam*x) = lam relu(x)
        lhs = activation_value(ActivationKind.GRADED_RELU, scalar_action(lam, x).values,
                               x.grading.floats)
        rhs = lam * activation_value(ActivationKind.GRADED_RELU, x.values, x.grading.floats)
        worst_relu = max(worst_relu, rel(lhs, rhs))
    assert worst_act < 1e-9, worst_act
    assert worst_relu < 1e-9, worst_relu

    # multiplicative neurons scale by lam^degree when the bias is zero
    worst_mult = 0.0
    for _ in range(m):
        dim = int(rng.integers(2, 5))
        g = GradingVector(rng.choice(GRADE_POOL, size=dim))
        weights = rng.uniform(0.3, 1.5, size=dim)
        neuron = _neuron(weights, [int(e) for e in rng.integers(0, 3, size=dim)], g)
        deg = float(sum(k * q for k, q in zip(neuron.exponents, g.grades)))
        xv = GradedVector(rng.uniform(0.3, 2.0, size=dim), g)
        scaled = np.array([scalar_action(lam, xv).values for lam in lams])
        lhs = neuron.forward(scaled).z[:, 0]
        rhs = lams ** deg * neuron.forward(xv.values[np.newaxis]).z[0, 0]
        worst_mult = max(
            worst_mult, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))))
    assert worst_mult < 1e-9, worst_mult


def test_05_analytic_gradients_match_finite_differences():
    t0 = time.perf_counter()
    results = grad_check_suite(eps=1e-5, count=100, seed=0)
    assert len(results) == 100
    worst = max(err for _, err in results)
    assert worst < 1e-5, worst
    kinds = {name.split(":")[0] for name, _ in results}
    assert kinds == {"graded_mse", "graded_norm", "huber", "homogeneous",
                     "cross_entropy", "max_graded"}
    assert time.perf_counter() - t0 < 30.0


def test_06_graded_norms_are_midpoint_convex():
    rng = np.random.default_rng(13)
    worst_euc = worst_max = 0.0
    for _ in range(10000):
        n = int(rng.integers(1, 8))
        g = GradingVector(rng.choice(GRADE_POOL, size=n))
        xv = GradedVector(rng.uniform(-4.0, 4.0, size=n), g)
        yv = GradedVector(rng.uniform(-4.0, 4.0, size=n), g)
        mid = GradedVector(0.5 * (xv.values + yv.values), g)
        worst_euc = max(
            worst_euc,
            graded_euclidean_norm(mid)
            - 0.5 * (graded_euclidean_norm(xv) + graded_euclidean_norm(yv)),
        )
        worst_max = max(
            worst_max,
            max_graded_norm(mid)
            - 0.5 * (max_graded_norm(xv) + max_graded_norm(yv)),
        )
    assert worst_euc <= 1e-12, worst_euc
    assert worst_max <= 1e-12, worst_max


def test_07_unit_grades_reduce_to_a_classical_mlp():
    # forward pass on 100 random nets
    rng = np.random.default_rng(21)
    act_map = {
        ActivationKind.CLASSICAL_RELU: "relu",
        ActivationKind.GRADED_EXP: "expm1",
        ActivationKind.IDENTITY: "identity",
    }
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 4))
        widths = [int(w) for w in rng.integers(1, 7, size=depth + 1)]
        gradings = [ones_grading(w) for w in widths]
        acts = [list(act_map)[int(a)] for a in rng.integers(0, 3, size=depth)]
        net = random_network(gradings, acts, rng, low=-0.9, high=0.9)
        for layer in net.layers:
            layer.bias[:] = rng.uniform(-0.5, 0.5, size=len(layer.bias))
        x = rng.uniform(-1.0, 1.0, size=widths[0])
        mine = network_forward(net, GradedVector(x, gradings[0])).values
        ref = classical_mlp_forward(
            widths,
            [l.weight_base for l in net.layers],
            [l.bias for l in net.layers],
            x,
            [act_map[a] for a in acts],
        )
        worst = max(worst, np.max(np.abs(mine - ref) / np.maximum(1.0, np.abs(ref))))
    assert worst < 1e-10, worst

    # 50-iteration training trajectories, with momentum
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed + 100)
        widths = [3, 4, 2]
        gradings = [ones_grading(w) for w in widths]
        acts = [ActivationKind.CLASSICAL_RELU, ActivationKind.IDENTITY]
        net = random_network(gradings, acts, rng)
        w0 = [l.weight_base.copy() for l in net.layers]
        b0 = [l.bias.copy() for l in net.layers]
        x_arr = rng.uniform(-1.0, 1.0, size=(12, 3))
        y_arr = rng.uniform(-1.0, 1.0, size=(12, 2))
        cfg = OptimizerConfig(learning_rate=0.05, momentum=0.9, max_iters=50)
        res = train(
            net,
            [GradedVector(v, gradings[0]) for v in x_arr],
            [GradedVector(v, gradings[-1]) for v in y_arr],
            LossKind.graded_norm(),
            cfg,
        )
        _, _, ref_losses = mlp_train(
            widths, w0, b0, x_arr, y_arr, ["relu", "identity"], 0.05, 50,
            momentum=0.9)
        mine = np.array(res.losses)
        ref = np.array(ref_losses)
        assert np.max(np.abs(mine - ref) / np.maximum(1.0, np.abs(ref))) < 1e-10


def test_08_convex_objective_descends_at_the_expected_rate():
    out_g = GradingVector([2, 3])
    ds, w_true, b_true = gen_linear_map_dataset(3, out_g, 48, seed=5)

    # smoothness bound for the quadratic objective, then a safe step
    qmax = max(out_g.floats)
    lam = 2.0 * qmax ** 2 * max(
        float(np.sum(x * x)) + 1.0 for x in ds.inputs)
    eta = 0.9 / lam

    rng = np.random.default_rng(123)
    net = random_network(
        [ones_grading(3), out_g], [ActivationKind.IDENTITY], rng)
    w0 = net.layers[0].weight_base.copy()
    b0 = net.layers[0].bias.copy()

    cfg = OptimizerConfig(learning_rate=eta, max_iters=1000)
    res = train(net, ds.graded_inputs(), ds.graded_targets(),
                LossKind.graded_norm(), cfg)

    diffs = np.diff(res.losses)
    assert np.all(diffs <= 1e-15 * np.maximum(1.0, np.abs(res.losses[:-1])))
    assert res.final_loss / res.initial_loss < 1e-3
    assert res.final_loss <= 1e-12, res.final_loss

    # distance to the optimum in the step-rate metric bounds t * loss_t
    d2 = float(np.sum((w0 - w_true) ** 2) / eta)
    d2 += float(np.sum((b0 - b_true) ** 2 * out_g.floats / eta))
    scaled = [t * res.losses[t] for t in range(10, len(res.losses))]
    assert max(scaled) <= d2 / 2.0, (max(scaled), d2 / 2.0)


def test_09_dilation_samples_recover_graded_components():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(300):
        r = int(rng.integers(1, 5))
        distinct = list(rng.choice(GRADE_POOL, size=r, replace=False))
        n = int(rng.integers(r, 8))
        grading = GradingVector(
            list(distinct) + list(rng.choice(distinct, size=n - r)))
        x = GradedVector(rng.uniform(-2.0, 2.0, size=n), grading)
        parts = dict(decompose(x))
        lams = np.geomspace(0.6, 2.5, r) if r > 1 else np.array([1.7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grade, comp in parts.items():
                got = vandermonde_project(x, grade, lams)
                worst = max(worst, float(np.max(np.abs(got.values - comp.values))))
    assert worst <= 1e-8, worst


def test_10_log_domain_evaluation_survives_overflow():
    # agreement with direct evaluation at moderate magnitudes
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        g = GradingVector([int(q) for q in rng.integers(1, 5, size=dim)])
        weights = rng.uniform(0.2, 2.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        neuron = _neuron(weights, None, g)
        x = rng.uniform(0.1, 3.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        direct = neuron.forward(x[np.newaxis]).z[0, 0]
        sign, log_magnitude = log_domain_forward(neuron, x[np.newaxis])
        back = sign[0, 0] * math.exp(log_magnitude[0, 0])
        worst = max(worst, abs(back - direct) / max(1.0, abs(direct)))
    assert worst < 1e-12, worst

    # |w x|^k = 4^600 = 2^1200 overflows float64 but not its log magnitude
    big = _neuron(np.array([2.0]), (600,), GradingVector([2]))
    x1 = np.array([[2.0]])
    with np.errstate(over="ignore"):
        assert not np.isfinite(big.forward(x1).z).any()
    sign, log_magnitude = log_domain_forward(big, x1)
    assert sign[0, 0] == 1.0
    assert math.isfinite(log_magnitude[0, 0])
    assert log_magnitude[0, 0] == pytest.approx(1200.0 * math.log(2.0), rel=1e-15)


def test_11_one_graded_neuron_beats_relu_widths_on_the_monomial():
    t0 = time.perf_counter()
    cfg = bench_config_from_dict({})
    rows = approx_bench(cfg)
    by_model = {}
    for r in rows:
        by_model.setdefault(r.model, []).append(r)

    graded = by_model["graded"]
    assert len(graded) == 1 and graded[0].hidden_units == 1
    assert graded[0].status == "ok"
    assert graded[0].max_abs_error <= 1e-9, graded[0].max_abs_error

    classical = sorted(by_model["classical"], key=lambda r: r.hidden_units)
    assert [r.hidden_units for r in classical] == [1, 2, 4, 8, 16, 32]
    assert all(r.status == "ok" for r in classical)
    assert classical[0].max_abs_error > 1e-2, classical[0].max_abs_error
    errs = [r.max_abs_error for r in classical]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])), errs
    assert time.perf_counter() - t0 < 300.0


def test_12_application_results_are_documented_as_out_of_scope():
    assert len(OUT_OF_SCOPE_CLAIMS) == 4
    joined = " ".join(OUT_OF_SCOPE_CLAIMS).lower()
    for keyword in ("genus-2", "quantum", "sobolev", "photonic"):
        assert keyword in joined, keyword
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().lower()
    for keyword in ("genus-2", "quantum", "sobolev", "photonic"):
        assert keyword in readme, keyword
