"""The workload process: imports gradednn from the checkout's `src/`, writes
the workload's inputs, and runs `gradednn.cli.main` jobs in-process for a
fixed time, writing the raw samples as JSON.  `run.py` starts it with BLAS
threads pinned to 1 and turns the samples into metrics.

    python3 perfbench/worker.py --workload W --seed N --work-dir DIR \
        (--setup-only | --seconds S --trace 0|1 --result FILE)

Untraced (`--trace 0`): job 0 is a warm-up, then jobs 1, 2, ... are timed
until S seconds have passed.  Traced (`--trace 1`): job 0 runs over and
over, alternately untraced and traced, so the tracing overhead is measured
on identical inputs and every traced job must repeat the same counts.
Every job's outputs are checked after its timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from metrics import OBSERVERS
from tracer import Tracer
from workloads import WORKLOADS, check_verify_examples

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_gradednn():
    sys.path.insert(0, str(SRC))
    import gradednn
    import gradednn.cli

    where = Path(gradednn.__file__).resolve().parent
    if where != (SRC / "gradednn").resolve():
        raise ImportError("imported gradednn from %s, not from %s" % (where, SRC))
    return gradednn


def environment(gradednn) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "gradednn": gradednn.__version__,
    }


class Runner:
    """Runs jobs through `gradednn.cli.main`, times them and checks them."""

    def __init__(self, gradednn, workload):
        self.cli = gradednn.cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, argv):
        """(exit status, seconds, stdout) of one `cli.main` call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = traceback.format_exc(limit=3).strip().splitlines()[-1]
            dt = time.perf_counter() - t0
        return rc, dt, out.getvalue()

    def job(self, i: int) -> float:
        rc, dt, out = self.call(self.workload.argv(i))
        self.attempted += 1
        problem = self.workload.check(i, rc, out)
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append("job %d: %s" % (i, problem))
        return dt

    def gate(self):
        rc, _, out = self.call(["verify-examples"])
        return check_verify_examples(rc, out)

    def io_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.workload.output_files())


def measure(gradednn, workload, seconds: float, traced: bool) -> dict:
    runner = Runner(gradednn, workload)
    result = {"gate": runner.gate()}
    runner.job(0)
    start = time.perf_counter()
    if not traced:
        samples = []
        while time.perf_counter() - start < seconds:
            samples.append(runner.job(len(samples) + 1))
        result["job_s"] = samples
    else:
        tracer = Tracer("gradednn", OBSERVERS)
        untraced, traced_s, snapshots = [], [], []
        while time.perf_counter() - start < seconds or len(snapshots) < 2:
            untraced.append(runner.job(0))
            tracer.reset()
            tracer.install()
            try:
                traced_s.append(runner.job(0))
            finally:
                tracer.uninstall()
            snapshots.append(tracer.snapshot())
        result.update(untraced_job_s=untraced, traced_job_s=traced_s,
                      snapshots=snapshots, io_bytes=runner.io_bytes())
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(gradednn),
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    gradednn = _import_gradednn()
    workload = WORKLOADS[args.workload](Path(args.work_dir), args.seed)
    workload.write_inputs()
    if args.setup_only:
        return 0
    result = measure(gradednn, workload, args.seconds, bool(args.trace))
    result.update(work_per_job=workload.work_per_job, work_unit=workload.work_unit,
                  flops_per_job=workload.flops_per_job)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
