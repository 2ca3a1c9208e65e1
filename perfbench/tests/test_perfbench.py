"""Self-checks of the benchmark: tracer counts, patch sites, output checks,
and agreement between BENCHMARK.json and the metric lists.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gradednn  # noqa: E402
import gradednn.cli  # noqa: E402

import compare  # noqa: E402
import metrics as M  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import WORKLOADS, ApproxBench, GradCheck, TrainMLP  # noqa: E402

TINY = {
    "train_mlp": lambda d: TrainMLP(d, 3, count=8, iters=2),
    "grad_check": lambda d: GradCheck(d, 3, count=7),
    "approx_bench": lambda d: ApproxBench(d, 3, restarts=1, classical_iters=20,
                                          graded_iters=10),
}


@pytest.fixture(scope="module")
def tracer():
    return Tracer("gradednn", M.OBSERVERS)


def traced_job(tracer, workload, i=0):
    """Run job i of the workload under the tracer; (snapshot, failure)."""
    workload.write_inputs()
    runner = Runner(gradednn, workload)
    tracer.reset()
    tracer.install()
    try:
        runner.job(i)
    finally:
        tracer.uninstall()
    return tracer.snapshot(), runner.failures


def test_train_counts_are_exact(tracer, tmp_path):
    wl = TINY["train_mlp"](tmp_path)
    snap, failures = traced_job(tracer, wl)
    assert failures == []
    spans = snap["spans"]
    assert spans["optimizer.batch_gradient"]["calls"] == wl.iters + 1
    assert spans["gradients.network_backward"]["calls"] == wl.count * (wl.iters + 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_listed_layer_is_reached(tracer, tmp_path, name):
    wl = TINY[name](tmp_path)
    first, failures = traced_job(tracer, wl)
    assert failures == []
    second, _ = traced_job(tracer, wl)
    assert M.count_mismatches([first, second]) == []
    metrics = M.per_layer(name, [first, second], [1.0, 1.0], [0.9, 0.9],
                          wl.work_per_job, wl.flops_per_job, 1)
    assert M.missing_layers(name, metrics) == []
    assert set(metrics) == {n for n, _, _, _ in M.PER_LAYER}


def test_shared_bindings_share_one_wrapper(tracer):
    sites = set(tracer.patch_sites())
    assert ("gradednn.optimizer", "network_backward") in sites
    assert ("gradednn.gradients", "network_backward") in sites
    assert ("gradednn.gradients", "forward_trace") in sites
    tracer.install()
    try:
        assert gradednn.optimizer.network_backward is gradednn.gradients.network_backward
        assert hasattr(gradednn.optimizer.network_backward, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(gradednn.optimizer.network_backward, "__wrapped__")
    assert not hasattr(gradednn.spaces.GradedVector.__init__, "__wrapped__")


def test_train_check_rejects_wrong_and_non_finite_losses(tmp_path):
    wl = TINY["train_mlp"](tmp_path)
    wl.write_inputs()
    rc, _, out = Runner(gradednn, wl).call(wl.argv(0))
    assert wl.check(0, rc, out) is None
    path = wl.out_dir / "metrics.jsonl"
    lines = path.read_text().splitlines()
    last = json.loads(lines[-1])
    for bad in ("%r" % (last["loss"] * (1 + 1e-6)), "Infinity", "NaN"):
        doc = '{"iter": %d, "loss": %s, "grad_norm": 1.0}' % (last["iter"], bad)
        path.write_text("\n".join(lines[:-1] + [doc]) + "\n")
        assert wl.check(0, rc, out) is not None
    assert wl.check(0, 3, out) is not None


def test_approx_check_rejects_an_increasing_column(tmp_path):
    wl = TINY["approx_bench"](tmp_path)
    wl.write_inputs()
    rc, _, out = Runner(gradednn, wl).call(wl.argv(0))
    assert wl.check(0, rc, out) is None
    rows = wl.csv_path.read_text().splitlines()
    fields = rows[-1].split(",")
    fields[2] = "9.0"
    wl.csv_path.write_text("\n".join(rows[:-1] + [",".join(fields)]) + "\n")
    assert "increases" in wl.check(0, rc, out)


def test_grad_check_line_is_parsed():
    wl = GradCheck(Path("."), 0, count=7)
    line = "grad-check: PASS (7 cases, eps=1e-05, worst=%s, tol=1e-05)\n"
    assert wl.check(0, 0, line % "3.1e-09") is None
    assert wl.check(0, 0, line % "2e-05") is not None
    assert wl.check(0, 1, line % "3.1e-09") is not None
    fail = "grad-check: FAIL (7 cases, eps=1e-05, worst=2e-05, tol=1e-05)\n"
    assert wl.check(2, 1, fail) == (
        "grad-check --seed 2: exit status 1, %s" % fail.strip())


# Case 74 of this seed has outputs near 1e3 under a homogeneous loss of
# degree 6, so the loss is near 1e18 and the eps=1e-5 central difference is
# limited by rounding: its error falls as eps grows (1.2e-05 at 1e-5,
# 8.4e-07 at 1e-4), so the analytic gradient is right and the FAIL is false.
# `graded-nn grad-check` exits 1 on it, and the benchmark counts the job as
# failed.  Strict, so that this test fails once the command is fixed.
@pytest.mark.xfail(strict=True, reason="graded-nn grad-check reports a false "
                   "FAIL when rounding limits its central difference")
def test_grad_check_known_false_fail(tmp_path):
    wl = GradCheck(tmp_path, 2102735316)
    rc, _, out = Runner(gradednn, wl).call(wl.argv(17))
    assert wl.check(17, rc, out) is None


def test_benchmark_json_matches_the_metric_lists():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(M.ALL) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == [tuple(m) for m in M.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [m[:3] for m in M.PER_LAYER]


def test_tail_has_ten_samples_above_it():
    value, pct = M.tail(list(range(1, 31)))
    assert value == 20 and sum(1 for v in range(1, 31) if v > value) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert M.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_compare_verdicts():
    base = [(s, 1.0 + 0.001 * s) for s in range(10)]
    assert compare.verdict(base, [(s, v * 0.8) for s, v in base], "lower", 0.1)[0] == "better"
    assert compare.verdict(base, [(s, v * 1.2) for s, v in base], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, [(s, v * 1.01) for s, v in base], "lower", 0.1)[0] == "same"
    assert compare.verdict(base, [(s, v * 1.2) for s, v in base], "higher", 0.1)[0] == "better"
    noisy = [(s, 1.0 + 0.5 * (s % 2)) for s in range(10)]
    assert compare.verdict(noisy, base, "lower", 0.1)[0] == "unresolved"
