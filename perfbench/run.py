"""Benchmark of the `graded-nn` jobs, run from the root of a checkout.

    python3 perfbench/run.py --workload train_mlp --seed 1 --seconds 30 --trace 0

Workloads: train_mlp, grad_check, approx_bench, or `all` for each in turn.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
and the tracing overhead.  Set-up time is measured by starting the workload
process in set-up-only mode several times; the measured run happens in one
more workload process with BLAS threads pinned to 1.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Each result, with its
environment block, is also saved under .perfbench/results/ for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import metrics as M

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_REPS = 5
WORKER_GRACE_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    try:
        dirty = "-dirty" if git("status", "--porcelain", "--untracked-files=no") else ""
        return git("rev-parse", "HEAD") + dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def _worker(args, timeout):
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError("workload process failed (exit %d):\n%s"
                         % (proc.returncode, proc.stderr.strip()))
    return dt


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = STATE / "work" / ("%s-s%d-t%d-p%d" % (workload, seed, trace, os.getpid()))
    try:
        common = ["--workload", workload, "--seed", str(seed), "--work-dir", str(work)]
        setup_s = [_worker(common + ["--setup-only"], 60) for _ in range(SETUP_REPS)]
        result_path = work / "result.json"
        _worker(common + ["--seconds", str(seconds), "--trace", str(trace),
                          "--result", str(result_path)], seconds + WORKER_GRACE_S)
        with open(result_path) as fh:
            raw = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, trace, raw, setup_s)


def summarize(workload, seed, trace, raw, setup_s) -> dict:
    problems = list(raw["failures"])
    if raw["gate"] is not None:
        problems.append(raw["gate"])
    if trace:
        metrics = M.per_layer(workload, raw["snapshots"], raw["traced_job_s"],
                              raw["untraced_job_s"], raw["work_per_job"],
                              raw["flops_per_job"], raw["io_bytes"])
        units = {n: u for n, u, _, _ in M.PER_LAYER}
        mismatched = M.count_mismatches(raw["snapshots"])
        if mismatched:
            problems.append("counts differ between traced jobs: %s"
                            % ", ".join(mismatched[:5]))
        missing = M.missing_layers(workload, metrics)
        if missing:
            problems.append("no calls recorded for %s" % ", ".join(missing))
        samples = {"traced_job_s": raw["traced_job_s"],
                   "untraced_job_s": raw["untraced_job_s"]}
    else:
        metrics = M.end_to_end(raw["job_s"], raw["work_per_job"], setup_s,
                               raw["peak_rss_mb"])
        units = {n: u for n, u, _, _ in M.END_TO_END}
        samples = {"job_s": raw["job_s"], "setup_s": setup_s}
    env = dict(raw["env"], commit=git_commit(), seed=seed, traced=bool(trace),
               workload=workload)
    return {
        "workload": workload, "seed": seed, "trace": trace, "env": env,
        "correct": not problems and raw["failed"] == 0,
        "attempted": raw["attempted"], "failed": raw["failed"],
        "problems": problems, "work_unit": raw["work_unit"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
        "samples": samples,
    }


def report(res: dict) -> None:
    """Human-readable lines: environment, metrics by name and unit, checks."""
    w = res["workload"]
    env = res["env"]
    print("[%s] env: nproc=%s cpu=%r python=%s numpy=%s blas=%s threads=%s "
          "commit=%s seed=%s traced=%s" % (
              w, env["nproc"], env["cpu"], env["python"], env["numpy"], env["blas"],
              ",".join("%s=%s" % kv for kv in env["blas_threads"].items()),
              env["commit"], env["seed"], "yes" if env["traced"] else "no"))
    for name, m in res["metrics"].items():
        label = name
        if name == "work_per_s":
            label = "work_per_s (%s)" % res["work_unit"]
        elif name == "job_tail_s":
            _, pct = M.tail(res["samples"]["job_s"])
            label = "job_tail_s (p%.0f of %d jobs)" % (pct, len(res["samples"]["job_s"]))
        print("[%s] %-44s %.6g %s" % (w, label, m["value"], m["unit"]))
    frac = res["failed"] / res["attempted"]
    print("[%s] %-44s %.6g ratio (%d of %d jobs)"
          % (w, "failed_frac", frac, res["failed"], res["attempted"]))
    for p in res["problems"]:
        print("[%s] problem: %s" % (w, p))


def save(res: dict) -> Path:
    out = STATE / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / ("%s-s%d-t%d-%s-p%d.json" % (
        res["workload"], res["seed"], res["trace"], time.strftime("%Y%m%dT%H%M%S"),
        os.getpid()))
    path.write_text(json.dumps(res, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(M.ALL) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gradednn" / "__init__.py").is_file():
        print("error: %s holds no src/gradednn to benchmark" % ROOT, file=sys.stderr)
        return 2

    names = M.ALL if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
                ValueError) as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        report(res)
        print("[%s] saved %s" % (name, save(res).relative_to(ROOT)))
        results.append(res)
    if not all(r["correct"] for r in results):
        print("error: output checks failed; see the problem lines", file=sys.stderr)
    prefix = len(results) > 1
    last = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {("%s.%s" % (r["workload"], n) if prefix else n): m
                    for r in results for n, m in r["metrics"].items()},
    }
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
