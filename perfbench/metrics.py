"""Metric definitions and the statistics that turn raw samples into them.

END_TO_END and PER_LAYER are the lists `BENCHMARK.json` declares; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

import math
import statistics

TRAIN, GRAD, APPROX = "train_mlp", "grad_check", "approx_bench"
ALL = (TRAIN, GRAD, APPROX)

# (name, unit, better, bound): measured with tracing off, on every workload.
# work_per_s is the workload's own rate: sample_steps_per_s on train_mlp,
# cases_per_s on grad_check, fit_iters_per_s on approx_bench.
END_TO_END = [
    ("job_s", "s", "lower", 0.25),
    ("job_tail_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def _span(fn, workloads, calls=True, total=True, self_=False):
    out = []
    if calls:
        out.append(("%s.calls" % fn, "count", "lower", workloads))
    if self_:
        out.append(("%s.self_s" % fn, "s", "lower", workloads))
    if total:
        out.append(("%s.total_s" % fn, "s", "lower", workloads))
    return out


# (name, unit, better, workloads on which it must read above zero), from the
# traced run.  Every metric is reported on every workload, as zero where its
# layer is not used.
PER_LAYER = (
    _span("optimizer.batch_gradient", (TRAIN,), self_=True)
    + _span("optimizer.sgd_step", (TRAIN,))
    + _span("gradients.network_backward", (TRAIN, GRAD), self_=True)
    + _span("gradients.loss_grad", (TRAIN, GRAD))
    + _span("gradients.finite_diff_check", (GRAD,), self_=True)
    + _span("gradients.grad_check_suite", (GRAD,), calls=False, total=False, self_=True)
    + [("gradients.case_accept_ratio", "ratio", "higher", (GRAD,))]
    + _span("network.forward_trace", (TRAIN, GRAD))
    + _span("network.activation_value", (TRAIN, GRAD))
    + _span("network.activation_slope", (TRAIN, GRAD))
    + _span("network.effective_weights", (TRAIN,), total=False)
    + _span("network.weight_base_slope", (TRAIN,))
    + [("network.computed_flops", "flop", "lower", (TRAIN,)),
       ("network.achieved_mflops_per_s", "Mflop/s", "higher", (TRAIN,))]
    + _span("losses.loss_value", (TRAIN, GRAD))
    + _span("spaces.GradedVector", (TRAIN, GRAD), total=False)
    + _span("spaces.homogeneous_terms", (GRAD,))
    + _span("classical.mlp_train", (APPROX,))
    + [("classical.mlp_train.iters", "count", "lower", (APPROX,))]
    + _span("classical.mlp_batch_forward", (APPROX,))
    + [("classical.finite_restart_ratio", "ratio", "higher", (APPROX,))]
    + _span("bench.train_multiplicative", (APPROX,))
    + _span("bench.approx_bench", (APPROX,), calls=False, total=False, self_=True)
    + _span("config.load_experiment_config", (TRAIN,), calls=False)
    + _span("datasets.gen_invariant_proxy_dataset", (TRAIN,), calls=False)
    + _span("datasets.Dataset.graded_inputs", (TRAIN,), calls=False)
    + _span("network.save_network", (TRAIN,), calls=False)
    + _span("ioutil.fmt17", (TRAIN, APPROX), total=False)
    + [("io.bytes_written", "B", "lower", (TRAIN, APPROX)),
       ("trace.job_s", "s", "lower", ALL),
       ("trace.untraced_job_s", "s", "lower", ALL),
       ("trace.overhead_s", "s", "lower", ()),
       ("trace.overhead_frac", "ratio", "lower", ())]
)

_SPAN_FIELDS = ("calls", "total_s", "self_s")


def mlp_train_observer(counters, args, kwargs, result):
    """Iterations run and restarts that ended with finite weights."""
    weights, _, losses = result
    counters["classical.mlp_train.iters"] = (
        counters.get("classical.mlp_train.iters", 0) + len(losses) - 1)
    finite = all(math.isfinite(float(v)) for w in weights for v in w.ravel())
    counters["classical.mlp_train.finite"] = (
        counters.get("classical.mlp_train.finite", 0) + int(finite))


OBSERVERS = {"classical.mlp_train": mlp_train_observer}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(samples):
    """The highest order statistic with at least ten samples above it, and
    its percentile; the maximum when there are fewer than eleven samples."""
    ordered = sorted(samples)
    idx = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def end_to_end(job_s, work_per_job, setup_s, peak_rss_mb):
    tail_s, _ = tail(job_s)
    median = statistics.median(job_s)
    return {
        "job_s": median,
        "job_tail_s": tail_s,
        "work_per_s": work_per_job / median,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def count_mismatches(snapshots):
    """Names whose call count or counter differs between traced jobs of the
    same inputs; empty when every count repeats exactly."""
    def counts(snap):
        out = {n: s["calls"] for n, s in snap["spans"].items()}
        out.update(snap["counters"])
        return out

    first = counts(snapshots[0])
    bad = set()
    for snap in snapshots[1:]:
        other = counts(snap)
        bad.update(n for n in set(first) | set(other) if first.get(n) != other.get(n))
    return sorted(bad)


def per_layer(workload, snapshots, traced_job_s, untraced_job_s,
              work_per_job, flops_per_job, io_bytes):
    """Per-layer metrics of one traced run: counts from any traced job
    (they repeat exactly), times as medians over the traced jobs."""
    def span(name, field):
        vals = [s["spans"].get(name, {}).get(field, 0) for s in snapshots]
        return vals[0] if field == "calls" else statistics.median(vals)

    out = {}
    for name, _, _, _ in PER_LAYER:
        fn, _, field = name.rpartition(".")
        if field in _SPAN_FIELDS:
            out[name] = span(fn, field)
    counters = snapshots[0]["counters"]
    traced = statistics.median(traced_job_s)
    untraced = statistics.median(untraced_job_s)

    attempts = span("network.random_network", "calls")
    out["gradients.case_accept_ratio"] = (
        work_per_job / attempts if workload == GRAD and attempts else 0.0)
    out["network.computed_flops"] = flops_per_job
    out["network.achieved_mflops_per_s"] = flops_per_job / untraced / 1e6
    out["classical.mlp_train.iters"] = counters.get("classical.mlp_train.iters", 0)
    restarts = out["classical.mlp_train.calls"]
    out["classical.finite_restart_ratio"] = (
        counters.get("classical.mlp_train.finite", 0) / restarts if restarts else 0.0)
    out["io.bytes_written"] = io_bytes
    out["trace.job_s"] = traced
    out["trace.untraced_job_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    return out


def missing_layers(workload, metrics):
    """Per-layer metrics listed for this workload that read zero: a missed
    patch site or a layer the workload no longer reaches."""
    return [name for name, _, _, where in PER_LAYER
            if workload in where and not metrics.get(name, 0) > 0]
