"""The golden-output corpus: the exact bytes that the CLI commands and a
saved block-masked network give on fixed inputs.

    PYTHONPATH=src python tests/make_golden.py

rewrites tests/golden/ from the current tree; test_golden.py rebuilds the
corpus and compares it byte for byte.  An intended output change
regenerates the corpus, and the change that makes it names every file that
moved and why.  The bytes belong to one numpy build, so the corpus records
numpy's version in NUMPY_VERSION, and the test skips, naming both versions,
under any other.

Every case runs in the current directory with relative paths, because
train and approx-bench print the paths they write.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
VERSION_FILE = "NUMPY_VERSION"

_CSV = """x0,x1,y0
0.5,1.25,0.8
1.0,0.75,0.4
1.5,0.5,1.1
0.25,2.0,0.3
2.0,1.0,1.7
0.75,0.25,0.6
1.25,1.5,0.9
1.75,0.5,1.3
"""


def _layers(*pairs):
    return [{"grading": g, "activation": a} for g, a in pairs]


def _linear(count=12, seed=5):
    return {"source": "linear_map", "count": count, "seed": seed}


# name -> (grading, model, loss, optimizer, dataset): the seven loss kinds,
# each of the five activations at least once, momentum on and off, a
# plateau stop, both multiplicative domains and a csv dataset
_TRAIN = {
    "graded_mse": ("2,3", _layers(("1,2", "graded_relu"), ("1", "identity")), "graded_mse",
                   {"learning_rate": 0.02, "momentum": 0.9, "max_iters": 6},
                   {"source": "monomial", "exponents": [2, 3], "count": 16}),
    "graded_norm": ("1,1,1", _layers(("1,2", "signed_graded_relu")), "graded_norm",
                    {"learning_rate": 0.05, "max_iters": 6}, _linear()),
    "huber": ("1,2", _layers(("2,2", "graded_exp"), ("1", "identity")), "huber:0.5",
              {"learning_rate": 0.05, "momentum": 0.5, "max_iters": 6},
              {"source": "invariant_proxy", "count": 16, "seed": 2}),
    "homogeneous_max": ("1,1", _layers(("1,2,2", "classical_relu"), ("1,2", "identity")),
                        "homogeneous:by_max_grade",
                        {"learning_rate": 0.05, "momentum": 0.9, "max_iters": 6}, _linear()),
    "homogeneous_count": ("1,1,1", _layers(("1,3", "identity")),
                          "homogeneous:by_distinct_count",
                          {"learning_rate": 0.05, "max_iters": 6}, _linear(seed=8)),
    "cross_entropy": ("1,2", _layers(("1", "graded_relu")), "cross_entropy",
                      {"learning_rate": 0.02, "momentum": 0.9, "max_iters": 6},
                      {"source": "monomial", "exponents": [1, 1], "count": 16}),
    "max_graded": ("1,1", _layers(("1,2,3", "signed_graded_relu")), "max_graded",
                   {"learning_rate": 0.05, "max_iters": 40, "stop_threshold": 1e-3,
                    "stop_window": 2}, _linear(seed=9)),
    "multiplicative_integer": ("2,3", {"type": "multiplicative", "exponents": "2,3"},
                               "graded_mse",
                               {"learning_rate": 0.01, "momentum": 0.9, "max_iters": 8},
                               {"source": "monomial", "exponents": [2, 3], "count": 16,
                                "box": [[-1.0, 1.0], [-1.0, 1.0]]}),
    "multiplicative_fractional": ("1,2", {"type": "multiplicative", "exponents": "1/2,3/2"},
                                  "graded_mse", {"learning_rate": 0.01, "max_iters": 8},
                                  {"source": "monomial", "exponents": ["1/2", "3/2"],
                                   "count": 16, "box": [[0.5, 1.5], [0.5, 1.5]]}),
    "csv": ("1,2", _layers(("1,1", "classical_relu"), ("1", "identity")), "graded_mse",
            {"learning_rate": 0.05, "momentum": 0.9, "max_iters": 6},
            {"source": "csv", "path": "data.csv"}),
}

# reduced approx-bench configs, one per grading
_BENCH = {"2-3": "2,3", "1_2-3": "1/2,3", "3_2-5_2": "3/2,5/2", "7-1_3": "7,1/3"}
_BENCH_SETTINGS = {"hidden_sizes": [1, 2], "train_count": 24, "grid_points": 9,
                   "restarts": 2, "classical_iters": 40, "graded_iters": 20, "seed": 4}


def _run(argv) -> bytes:
    from gradednn.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError("%s exited %d" % (" ".join(argv), code))
    return out.getvalue().encode()


def _model(model):
    return model if "type" in model else {"type": "feedforward", "layers": model}


def _masked_network() -> bytes:
    """A block-masked two-layer network, saved, loaded back and evaluated:
    its outputs, loss, gradients, gradient norms and finite-difference
    error, one float per line."""
    from gradednn.gradients import finite_diff_check, network_backward
    from gradednn.ioutil import fmt17
    from gradednn.losses import LossKind
    from gradednn.network import (ActivationKind, GradeBlock, Layer, Network,
                                  load_network, network_forward, save_network)
    from gradednn.spaces import GradedVector, GradingVector

    g_in, g_mid = GradingVector([1, 1, 2]), GradingVector([1, 2])
    first = Layer([[0.7, -0.4, 0.0], [0.0, 0.0, 0.9]], [0.1, -0.2],
                  ActivationKind.GRADED_RELU, g_in, g_mid,
                  blocks=[GradeBlock(1, (0, 1), (0, 2)), GradeBlock(2, (1, 2), (2, 3))])
    second = Layer([[1.1, 0.0], [0.0, 1.3]], [0.05, -0.1], ActivationKind.IDENTITY,
                   g_mid, g_mid,
                   blocks=[GradeBlock(1, (0, 1), (0, 1)), GradeBlock(2, (1, 2), (1, 2))])
    Path("masked").mkdir()
    save_network(Network([first, second]), "masked/model.json")
    net = load_network("masked/model.json")
    x = np.array([[0.5, 1.5, 0.8], [1.2, 0.3, 2.0], [0.9, 0.9, 0.4]])
    y = np.array([[0.6, 1.0], [1.4, 0.7], [0.2, 0.5]])
    kind = LossKind.graded_mse()
    bundle = network_backward(net, x, y, kind)
    values = [v for row in x for v in network_forward(net, GradedVector(row, g_in)).values]
    values.append(bundle.loss)
    weights, biases = zip(*net.split(bundle.grad))
    values.extend(v for a in weights + biases for v in a.ravel())
    values.extend(bundle.layer_norms())
    values.append(bundle.grad_norm())
    values.append(finite_diff_check(net, x[:1], y[:1], kind))
    return "".join(fmt17(v) + "\n" for v in values).encode()


def build_corpus() -> dict:
    """{file name: bytes} of every case, run in the current directory."""
    files = {"verify-examples.stdout": _run(["verify-examples"])}
    for seed in (0, 1, 2):
        files["grad-check-seed%d.stdout" % seed] = _run(
            ["grad-check", "--count", "30", "--seed", str(seed)])
    Path("data.csv").write_text(_CSV)
    for name, (grading, model, loss, opt, data) in _TRAIN.items():
        doc = {"grading": grading, "model": _model(model), "loss": loss, "optimizer": opt,
               "dataset": data, "out_dir": "train-" + name, "seed": 3}
        Path(name + ".json").write_text(json.dumps(doc))
        files["train-%s.stdout" % name] = _run(["train", "--config", name + ".json"])
        for out in ("metrics.jsonl", "model.json"):
            files["train-%s.%s" % (name, out)] = Path("train-" + name, out).read_bytes()
    for name, grading in _BENCH.items():
        Path("bench-%s.json" % name).write_text(
            json.dumps({"grading": grading, **_BENCH_SETTINGS}))
        csv = "bench-%s.csv" % name
        files["approx-bench-%s.stdout" % name] = _run(
            ["approx-bench", "--config", "bench-%s.json" % name, "--out", csv])
        files["approx-bench-%s.csv" % name] = Path(csv).read_bytes()
    files["masked-network.values"] = _masked_network()
    files["masked-network.model.json"] = Path("masked/model.json").read_bytes()
    return files


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            files = build_corpus()
        finally:
            os.chdir(home)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for old in GOLDEN_DIR.iterdir():
        old.unlink()
    files[VERSION_FILE] = (np.__version__ + "\n").encode()
    for name, data in files.items():
        (GOLDEN_DIR / name).write_bytes(data)
    print("wrote %d files to %s" % (len(files), GOLDEN_DIR))
    return 0


if __name__ == "__main__":
    sys.exit(main())
