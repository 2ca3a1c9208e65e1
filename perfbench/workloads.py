"""The benchmark's workloads: inputs generated from a seed, the `graded-nn`
argument list of each job, the work one job does, and the checks on each
job's outputs.

Each workload object is built from a work directory and a seed.
`write_inputs()` creates its input files (the set-up step), `argv(i)` gives
the command line of job i, and `check(i, rc, stdout)` returns None when
job i produced correct outputs or a one-line reason when it did not.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

# train_mlp: 4 -> 8 -> 1 on the invariant proxy dataset
TRAIN_GRADING = (2, 4, 6, 10)
TRAIN_HIDDEN = (1, 1, 2, 2, 3, 3, 4, 4)
TRAIN_COUNT = 256
TRAIN_ITERS = 10
TRAIN_LR = 0.01
TRAIN_MOMENTUM = 0.9
# a summation-order change moves the final loss by about 1e-15 relative; a
# wrong gradient moves it by far more than this
FINAL_LOSS_RTOL = 1e-9

# grad_check: cases per job; every job checks a fresh set of random nets
GRAD_CHECK_COUNT = 100
GRAD_CHECK_TOL = 1e-5

# approx_bench: a reduced table so that one job takes about a second; the
# default 5 restarts are kept because restart batching acts on them
APPROX_RESTARTS = 5
APPROX_CLASSICAL_ITERS = 200
APPROX_GRADED_ITERS = 100
APPROX_HIDDEN = (1, 2, 4, 8, 16, 32)
APPROX_GRADED_TOL = 1e-9

# the clamp of the signed graded ReLU in gradednn.network
RELU_CLAMP = 1e-10

_FLOAT = r"([-+0-9.eE]+|inf|nan)"


def _strict_json(line: str):
    def reject(token):
        raise ValueError("non-finite JSON token %s" % token)

    return json.loads(line, parse_constant=reject)


class TrainMLP:
    """`graded-nn train`: full-batch grade-scaled descent of a 4->8->1 net."""

    name = "train_mlp"
    work_unit = "sample_steps_per_s"

    def __init__(self, work_dir: Path, seed: int,
                 count: int = TRAIN_COUNT, iters: int = TRAIN_ITERS):
        self.work_dir = Path(work_dir)
        self.seed = seed
        self.count = count
        self.iters = iters
        self.config_path = self.work_dir / "train.json"
        self.out_dir = self.work_dir / "train_out"
        self._reference = None

    @property
    def work_per_job(self) -> int:
        """Sample-steps: samples times gradient evaluations."""
        return self.count * (self.iters + 1)

    @property
    def flops_per_job(self) -> int:
        """Computed from the layer shapes, not measured: per sample-step,
        2 n_in n_out for the forward pass and 4 n_in n_out for the weight
        and input gradients of each layer."""
        sizes = [len(TRAIN_GRADING), len(TRAIN_HIDDEN), 1]
        return 6 * sum(a * b for a, b in zip(sizes, sizes[1:])) * self.work_per_job

    def write_inputs(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "grading": ",".join(map(str, TRAIN_GRADING)),
            "model": {
                "type": "feedforward",
                "layers": [
                    {"grading": ",".join(map(str, TRAIN_HIDDEN)),
                     "activation": "signed_graded_relu"},
                    {"grading": "1", "activation": "identity"},
                ],
            },
            "loss": "graded_mse",
            "optimizer": {
                "learning_rate": TRAIN_LR,
                "max_iters": self.iters,
                "momentum": TRAIN_MOMENTUM,
                "stop_threshold": 0.0,
                "seed": self.seed,
            },
            "dataset": {"source": "invariant_proxy", "count": self.count,
                        "seed": self.seed},
            "out_dir": self.out_dir.name,
            "seed": self.seed,
        }
        self.config_path.write_text(json.dumps(doc, indent=1) + "\n")

    def argv(self, i: int):
        return ["train", "--config", str(self.config_path)]

    def output_files(self):
        return [self.out_dir / "metrics.jsonl", self.out_dir / "model.json"]

    def reference_losses(self):
        if self._reference is None:
            self._reference = reference_train_losses(
                self.seed, self.count, self.iters)
        return self._reference

    def check(self, i: int, rc, stdout: str):
        if rc != 0:
            return "exit status %r" % (rc,)
        m = re.search(r"^train: (\d+) iterations recorded, initial_loss=%s "
                      r"final_loss=%s stop=(\w+)" % (_FLOAT, _FLOAT),
                      stdout, re.M)
        if m is None:
            return "no train: line"
        if int(m.group(1)) != self.iters or m.group(4) != "max_iters":
            return "train: line reports %s iterations, stop=%s" % (
                m.group(1), m.group(4))
        try:
            with open(self.out_dir / "metrics.jsonl") as fh:
                lines = [_strict_json(line) for line in fh]
        except (OSError, ValueError) as exc:
            return "metrics.jsonl: %s" % exc
        if len(lines) != self.iters + 1:
            return "metrics.jsonl has %d lines" % len(lines)
        ref = self.reference_losses()[-1]
        for what, got in (("train: line", float(m.group(3))),
                          ("metrics.jsonl", float(lines[-1]["loss"]))):
            if not abs(got - ref) <= FINAL_LOSS_RTOL * abs(ref):
                return "%s final loss %r differs from reference %r" % (
                    what, got, ref)
        return None


class GradCheck:
    """`graded-nn grad-check`: analytic gradients against central
    differences on random nets; job i checks its own set of nets."""

    name = "grad_check"
    work_unit = "cases_per_s"
    flops_per_job = 0

    def __init__(self, work_dir: Path, seed: int, count: int = GRAD_CHECK_COUNT):
        self.work_dir = Path(work_dir)
        self.seed = seed
        self.count = count

    @property
    def work_per_job(self) -> int:
        return self.count

    def job_seed(self, i: int) -> int:
        # disjoint per-seed ranges for the first 2**20 jobs of a run
        return self.seed * 2 ** 20 + i

    def write_inputs(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def argv(self, i: int):
        return ["grad-check", "--seed", str(self.job_seed(i)),
                "--count", str(self.count)]

    def output_files(self):
        return []

    def check(self, i: int, rc, stdout: str):
        summary = re.search(r"^grad-check: .*$", stdout, re.M)
        if rc != 0:
            return "grad-check --seed %d: exit status %r, %s" % (
                self.job_seed(i), rc,
                summary.group(0) if summary else "no grad-check: line")
        m = re.search(r"^grad-check: PASS \((\d+) cases, eps=\S+, worst=%s,"
                      % _FLOAT, stdout, re.M)
        if m is None:
            return "no grad-check: PASS line"
        if int(m.group(1)) != self.count:
            return "checked %s cases, expected %d" % (m.group(1), self.count)
        worst = float(m.group(2))
        if not worst < GRAD_CHECK_TOL:
            return "worst relative error %r" % worst
        return None


class ApproxBench:
    """`graded-nn approx-bench`: one multiplicative graded neuron against
    classical ReLU MLPs of growing width."""

    name = "approx_bench"
    work_unit = "fit_iters_per_s"
    flops_per_job = 0

    def __init__(self, work_dir: Path, seed: int,
                 restarts: int = APPROX_RESTARTS,
                 classical_iters: int = APPROX_CLASSICAL_ITERS,
                 graded_iters: int = APPROX_GRADED_ITERS):
        self.work_dir = Path(work_dir)
        self.seed = seed
        self.restarts = restarts
        self.classical_iters = classical_iters
        self.graded_iters = graded_iters
        self.config_path = self.work_dir / "bench.json"
        self.csv_path = self.work_dir / "bench.csv"

    @property
    def work_per_job(self) -> int:
        """Restarts times iterations, summed over the classical and graded cells."""
        return self.restarts * (
            len(APPROX_HIDDEN) * self.classical_iters + self.graded_iters)

    def write_inputs(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "grading": "2,3",
            "hidden_sizes": list(APPROX_HIDDEN),
            "restarts": self.restarts,
            "classical_iters": self.classical_iters,
            "graded_iters": self.graded_iters,
            "seed": self.seed,
        }
        self.config_path.write_text(json.dumps(doc, indent=1) + "\n")

    def argv(self, i: int):
        return ["approx-bench", "--config", str(self.config_path),
                "--out", str(self.csv_path)]

    def output_files(self):
        return [self.csv_path]

    def check(self, i: int, rc, stdout: str):
        if rc != 0:
            return "exit status %r" % (rc,)
        if "approx-bench: wrote" not in stdout:
            return "no approx-bench: line"
        try:
            with open(self.csv_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return "csv: %s" % exc
        bad = [r for r in rows if r["status"] != "ok"]
        if bad:
            return "status %s in row %s/%s" % (
                bad[0]["status"], bad[0]["model"], bad[0]["hidden_units"])
        graded = [float(r["max_abs_error"]) for r in rows if r["model"] == "graded"]
        if len(graded) != 1 or not graded[0] <= APPROX_GRADED_TOL:
            return "graded row %r" % (graded,)
        classical = [r for r in rows if r["model"] == "classical"]
        widths = [int(r["hidden_units"]) for r in classical]
        if widths != list(APPROX_HIDDEN):
            return "classical widths %r" % (widths,)
        errors = [float(r["max_abs_error"]) for r in classical]
        if not all(math.isfinite(e) for e in errors):
            return "non-finite classical error"
        if any(b > a for a, b in zip(errors, errors[1:])):
            return "classical column increases: %r" % (errors,)
        return None


WORKLOADS = {w.name: w for w in (TrainMLP, GradCheck, ApproxBench)}


def check_verify_examples(rc, stdout: str):
    """The once-per-run gate: `verify-examples` exits 0 with 0 fail rows."""
    if rc != 0:
        return "verify-examples exit status %r" % (rc,)
    m = re.search(r"^summary: (\d+) pass, (\d+) flagged, (\d+) fail$", stdout, re.M)
    if m is None:
        return "verify-examples printed no summary line"
    if int(m.group(3)) != 0 or re.search(r"^FAIL ", stdout, re.M):
        return "verify-examples reported %s failing rows" % m.group(3)
    return None


def reference_train_losses(seed: int, count: int, iters: int):
    """Loss history of the train_mlp job, recomputed independently.

    Batched numpy over the whole dataset, written from the definitions:
    the invariant proxy data (x ~ U(0.5, 1.5), targets linear in x with
    coefficients u**q, u ~ U(0.3, 0.8), plus an intercept ~ U(0, 0.2)),
    weights ~ U(0.2, 0.9) with zero biases, effective weights
    sgn(w)|w|**q_in, the signed graded ReLU z**(1/q) above its clamp, the
    graded MSE, and heavy-ball descent at rates lr/q_in for weights and
    lr/q_out for biases.
    """
    q_in = np.array(TRAIN_GRADING, dtype=float)
    q_hid = np.array(TRAIN_HIDDEN, dtype=float)
    q_out = np.ones(1)
    gradings = [q_in, q_hid, q_out]

    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 1.5, size=(count, len(q_in)))
    u = rng.uniform(0.3, 0.8, size=len(q_in))
    intercept = rng.uniform(0.0, 0.2)
    y = (x @ u ** q_in + intercept)[:, None]

    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(gradings, gradings[1:]):
        weights.append(rng.uniform(0.2, 0.9, size=(len(n_out), len(n_in))))
        biases.append(np.zeros(len(n_out)))
    vel = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(weights, biases)]

    def hidden(z, q):
        safe = np.where(z > RELU_CLAMP, z, 1.0)
        return (np.where(z > RELU_CLAMP, safe ** (1.0 / q), 0.0),
                np.where(z > RELU_CLAMP, (1.0 / q) * safe ** (1.0 / q - 1.0), 0.0))

    losses = []
    for t in range(iters + 1):
        ins, slopes = [x], []
        for l, (w, b) in enumerate(zip(weights, biases)):
            z = ins[-1] @ (np.sign(w) * np.abs(w) ** gradings[l]).T + b
            if l == 0:
                out, slope = hidden(z, gradings[1])
            else:
                out, slope = z, np.ones_like(z)
            ins.append(out)
            slopes.append(slope)
        d = ins[-1] - y
        losses.append(float(np.mean(np.mean(q_out * d * d, axis=1))))
        if t == iters:
            break
        g = (2.0 / len(q_out)) * q_out * d / count
        grads = [None] * len(weights)
        for l in range(len(weights) - 1, -1, -1):
            w, q = weights[l], gradings[l]
            dz = g * slopes[l]
            grads[l] = ((dz.T @ ins[l]) * q * np.abs(w) ** (q - 1.0), dz.sum(axis=0))
            g = dz @ (np.sign(w) * np.abs(w) ** q)
        for l, ((gw, gb), (vw, vb)) in enumerate(zip(grads, vel)):
            vw *= TRAIN_MOMENTUM
            vw -= TRAIN_LR / gradings[l][None, :] * gw
            vb *= TRAIN_MOMENTUM
            vb -= TRAIN_LR / gradings[l + 1] * gb
            weights[l] += vw
            biases[l] += vb
    return losses
