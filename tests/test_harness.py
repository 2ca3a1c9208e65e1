"""Dataset generators, CSV and config handling, and the CLI end to end."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

from gradednn.cli import main
from gradednn.config import (
    ConfigError,
    experiment_config_from_dict,
    load_experiment_config,
)
from gradednn.datasets import (
    gen_invariant_proxy_dataset,
    gen_linear_map_dataset,
    gen_monomial_dataset,
    monomial_value,
    read_dataset_csv,
    write_dataset_csv,
)
from gradednn.network import load_network, network_forward
from gradednn.spaces import GradedVector, GradingVector, ones_grading

Q23 = GradingVector([2, 3])


def _write_config(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def _base_train_doc(out_dir="run", max_iters=25):
    return {
        "grading": "2,3",
        "model": {
            "type": "feedforward",
            "layers": [{"grading": "1", "activation": "identity"}],
        },
        "loss": "graded_mse",
        "optimizer": {"learning_rate": 0.05, "max_iters": max_iters},
        "dataset": {"source": "monomial", "exponents": [2, 3], "count": 16},
        "out_dir": out_dir,
        "seed": 3,
    }


def test_monomial_value():
    assert monomial_value([[0.7, -0.3]], [Fraction(0), Fraction(0)], 5.0)[0] == 5.0
    assert monomial_value([[1.0, 1.0]], [Fraction(2), Fraction(3)], 1.0)[0] == 1.0
    # 0.5^2 * 2^3 = 2
    assert monomial_value([[0.5, 2.0]], [Fraction(2), Fraction(3)], 1.0)[0] == pytest.approx(2.0)
    # odd integer exponents keep the sign, fractional ones need positive input
    assert monomial_value([[-0.5, 2.0]], [Fraction(3), Fraction(0)], 1.0)[0] == pytest.approx(-0.125)
    from gradednn.spaces import GradedDomainError

    with pytest.raises(GradedDomainError):
        monomial_value([[-1.0]], [Fraction(1, 2)], 1.0)


def test_gen_monomial_dataset():
    box = [(0.1, 2.0), (0.1, 2.0)]
    ds = gen_monomial_dataset(Q23, [2, 3], 1.5, box, 50, seed=3)
    assert ds.inputs.shape == (50, 2) and ds.targets.shape == (50, 1)
    assert np.all(ds.inputs >= 0.1) and np.all(ds.inputs <= 2.0)
    expect = monomial_value(ds.inputs, [Fraction(2), Fraction(3)], 1.5)
    assert np.array_equal(ds.targets[:, 0], expect)
    again = gen_monomial_dataset(Q23, [2, 3], 1.5, box, 50, seed=3)
    assert np.array_equal(ds.inputs, again.inputs)


def test_gen_linear_map_dataset_is_noiseless():
    ds, w_true, b_true = gen_linear_map_dataset(3, Q23, 40, seed=5)
    assert ds.in_grading == ones_grading(3)
    assert ds.out_grading == Q23
    assert np.allclose(ds.targets, ds.inputs @ w_true.T + b_true, atol=0.0)
    # sign-pattern inputs with 5% jitter
    assert np.all(np.abs(np.abs(ds.inputs) - 1.0) <= 0.05 + 1e-12)


def test_gen_invariant_proxy_dataset():
    g = GradingVector([2, 4, 6, 10])
    ds = gen_invariant_proxy_dataset(g, 30, seed=9)
    assert ds.inputs.shape == (30, 4) and ds.targets.shape == (30, 1)
    assert np.all(ds.inputs >= 0.5) and np.all(ds.inputs <= 1.5)
    assert np.all(ds.targets > 0.0)
    assert np.array_equal(
        ds.targets, gen_invariant_proxy_dataset(g, 30, seed=9).targets
    )


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    ds = gen_monomial_dataset(Q23, [2, 3], 1.0, [(0.1, 2.0)] * 2, 25, seed=1)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,y0"
    back = read_dataset_csv(path, Q23, ones_grading(1))
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.targets, ds.targets)
    # a second encode of the reread data is byte-identical
    path2 = tmp_path / "data2.csv"
    write_dataset_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y0\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_dataset_csv(path, Q23, ones_grading(1))
    path.write_text("x0,x1,y0\n1,2\n")
    with pytest.raises(ValueError, match="fields"):
        read_dataset_csv(path, Q23, ones_grading(1))
    path.write_text("x0,x1,y0\n")
    with pytest.raises(ValueError, match="no samples"):
        read_dataset_csv(path, Q23, ones_grading(1))


def test_config_parses_round():
    cfg = experiment_config_from_dict(_base_train_doc())
    assert cfg.grading == Q23
    assert cfg.model.kind == "feedforward"
    assert cfg.loss.name == "graded_mse"
    assert cfg.optimizer.max_iters == 25
    assert cfg.optimizer.seed == 3  # falls back to the experiment seed
    assert cfg.dataset.source == "monomial"


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("grading"),
    lambda d: d.pop("model"),
    lambda d: d.pop("loss"),
    lambda d: d.pop("optimizer"),
    lambda d: d.pop("dataset"),
    lambda d: d.update(grading="2,0"),
    lambda d: d.update(loss="huber"),
    lambda d: d.update(model={"type": "polynomial"}),
    lambda d: d.update(model={"type": "feedforward", "layers": []}),
    lambda d: d.update(dataset={"source": "csv"}),
    lambda d: d.update(dataset={"source": "mystery"}),
    lambda d: d.update(optimizer={"learning_rate": 0.0, "max_iters": 5}),
])
def test_config_rejects_bad_documents(mutate):
    doc = _base_train_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        experiment_config_from_dict(doc)


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d.update(momentun=0.5), "momentun"),
    (lambda d: d["optimizer"].update(momentun=0.5), "optimizer.momentun"),
    (lambda d: d["model"].update(exponents="2,3"), "model.exponents"),
    (lambda d: d["model"]["layers"][0].update(grade="1"), "model.layers[0].grade"),
    (lambda d: d["dataset"].update(path="data.csv"), "dataset.path"),
    (lambda d: d.update(dataset={"source": "csv", "path": "d.csv", "count": 4}),
     "dataset.count"),
    (lambda d: d.update(dataset={"source": "linear_map", "low": 0.1}), "dataset.low"),
    (lambda d: d.update(model={"type": "multiplicative", "exponents": "2,3",
                               "layers": []}), "model.layers"),
])
def test_config_rejects_unknown_keys(tmp_path, capsys, mutate, path):
    doc = _base_train_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=r"unknown key %s$" % re.escape(path)):
        experiment_config_from_dict(doc)
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["optimizer"].update(max_iters=10.7), "optimizer.max_iters must be an integer"),
    (lambda d: d["optimizer"].update(max_iters=True), "optimizer.max_iters must be an integer"),
    (lambda d: d["optimizer"].update(max_iters="12"), "optimizer.max_iters must be an integer"),
    (lambda d: d["optimizer"].update(stop_window=2.0), "optimizer.stop_window must be an integer"),
    (lambda d: d["optimizer"].update(seed=False), "optimizer.seed must be an integer"),
    (lambda d: d.update(seed="3"), "seed must be an integer"),
    (lambda d: d["optimizer"].update(learning_rate="0.05"),
     "optimizer.learning_rate must be a number"),
    (lambda d: d["optimizer"].update(momentum=True), "optimizer.momentum must be a number"),
    (lambda d: d["dataset"].update(count=16.9), "dataset.count must be an integer"),
    (lambda d: d["dataset"].update(seed=True), "dataset.seed must be an integer"),
    (lambda d: d["dataset"].update(low="0.1"), "dataset.low must be a number"),
    (lambda d: d["dataset"].update(box=[[0.1, True], [0.1, 1.0]]),
     "dataset.box[0] must be a number"),
    (lambda d: d["dataset"].update(box=[[0.1], [0.1, 1.0]]),
     "dataset.box must be a list of [low, high] pairs"),
    (lambda d: d.update(dataset={"source": "csv", "path": 7}), "dataset.path must be a string"),
    (lambda d: d.update(out_dir=5), "out_dir must be a string"),
    (lambda d: d.update(loss=5), "loss must be a string"),
    (lambda d: d.update(grading=23), 'bad grading: grading must be a string such as "2,3"'),
    (lambda d: d["model"]["layers"][0].update(grading=1),
     'model.layers[0]: grading must be a string such as "2,3"'),
    (lambda d: d.update(model={"type": "multiplicative", "exponents": 2}),
     "model.exponents must be a string"),
    (lambda d: d.update(model={"type": "multiplicative", "exponents": [2, 2]}),
     "model.exponents must be a string"),
    (lambda d: d.update(model={"type": "multiplicative", "exponents": "2"}),
     'model.exponents must be 2 nonnegative rationals such as "2,2"'),
    (lambda d: d.update(model={"type": "multiplicative", "exponents": "2,-1"}),
     'model.exponents must be 2 nonnegative rationals such as "2,2"'),
    (lambda d: d.update(model={"type": "multiplicative", "exponents": "2,x"}),
     'model.exponents must be 2 nonnegative rationals such as "2,2"'),
])
def test_config_rejects_wrong_value_types(tmp_path, capsys, mutate, message):
    doc = _base_train_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        experiment_config_from_dict(doc)
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 2
    assert "error: %s\n" % message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_numbers_accept_integers():
    doc = _base_train_doc()
    doc["optimizer"].update(learning_rate=1, momentum=0, stop_threshold=0)
    doc["dataset"].update(low=1, high=2, coefficient=3, box=[[1, 2], [1, 2.5]])
    cfg = experiment_config_from_dict(doc)
    assert cfg.optimizer.learning_rate == 1.0 and cfg.dataset.params["low"] == 1.0
    assert cfg.dataset.params["box"] == [[1.0, 2.0], [1.0, 2.5]]


def test_config_sub_documents_must_be_objects():
    doc = _base_train_doc()
    doc["optimizer"] = [0.05, 25]
    with pytest.raises(ConfigError, match="optimizer must be a JSON object"):
        experiment_config_from_dict(doc)


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_experiment_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_experiment_config(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_experiment_config(bad)


def test_cli_verify_examples(capsys):
    assert main(["verify-examples"]) == 0
    out = capsys.readouterr().out
    assert "summary: 14 pass, 3 flagged, 0 fail" in out


def test_cli_grad_check_small(capsys):
    assert main(["grad-check", "--count", "10"]) == 0
    assert "grad-check: PASS" in capsys.readouterr().out


def test_cli_grad_check_rejects_eps(capsys):
    assert main(["grad-check", "--eps", "0.01"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_grad_check_rejects_count_below_one(capsys, count):
    assert main(["grad-check", "--count", count]) == 2
    assert "error: count must be at least 1" in capsys.readouterr().err


def test_cli_train_zero_iters_single_metrics_line(tmp_path, capsys):
    doc = _base_train_doc(out_dir="run0", max_iters=0)
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 0
    lines = (tmp_path / "run0" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert set(rec) == {"iter", "loss", "grad_norm"}
    assert rec["iter"] == 0 and rec["loss"] > 0.0


def test_cli_train_rerun_is_byte_identical(tmp_path):
    p1 = _write_config(tmp_path / "a.json", _base_train_doc(out_dir="run_a"))
    p2 = _write_config(tmp_path / "b.json", _base_train_doc(out_dir="run_b"))
    assert main(["train", "--config", p1]) == 0
    assert main(["train", "--config", p2]) == 0
    assert (tmp_path / "run_a" / "metrics.jsonl").read_bytes() == (
        tmp_path / "run_b" / "metrics.jsonl"
    ).read_bytes()
    assert (tmp_path / "run_a" / "model.json").read_bytes() == (
        tmp_path / "run_b" / "model.json"
    ).read_bytes()


def test_cli_train_model_reloads(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "exp.json", _base_train_doc())
    assert main(["train", "--config", cfg_path]) == 0
    net = load_network(tmp_path / "run" / "model.json")
    out = network_forward(net, GradedVector([1.0, 1.0], Q23))
    assert np.all(np.isfinite(out.values)) and len(out.values) == 1
    assert "train:" in capsys.readouterr().out


def test_cli_train_csv_source(tmp_path):
    ds = gen_monomial_dataset(Q23, [2, 3], 1.0, [(0.1, 2.0)] * 2, 20, seed=2)
    write_dataset_csv(ds, tmp_path / "data.csv")
    doc = _base_train_doc(out_dir="run_csv", max_iters=10)
    doc["dataset"] = {"source": "csv", "path": "data.csv"}
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 0
    assert (tmp_path / "run_csv" / "metrics.jsonl").exists()


def test_cli_train_linear_map_descends(tmp_path):
    doc = {
        "grading": "1,1,1",
        "model": {
            "type": "feedforward",
            "layers": [{"grading": "2,3", "activation": "identity"}],
        },
        "loss": "graded_norm",
        "optimizer": {"learning_rate": 0.01, "max_iters": 150},
        "dataset": {"source": "linear_map", "count": 32},
        "out_dir": "lin",
        "seed": 5,
    }
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 0
    recs = [json.loads(l) for l in
            (tmp_path / "lin" / "metrics.jsonl").read_text().splitlines()]
    assert len(recs) == 151
    assert recs[-1]["loss"] < 0.05 * recs[0]["loss"]


def test_cli_train_multiplicative(tmp_path):
    doc = _base_train_doc(out_dir="mult", max_iters=200)
    doc["model"] = {"type": "multiplicative", "exponents": "2,3"}
    doc["optimizer"]["learning_rate"] = 0.05
    doc["dataset"]["box"] = [[0.1, 1.0], [0.1, 1.0]]
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 0
    model = json.loads((tmp_path / "mult" / "model.json").read_text())
    assert model["kind"] == "multiplicative"
    assert model["exponents"] == "2,3" and len(model["weights"]) == 2


@pytest.mark.parametrize("key, value", [("momentum", 0.9), ("stop_threshold", 0.5)])
def test_cli_train_multiplicative_rejects_settings_it_cannot_honour(
        tmp_path, capsys, key, value):
    doc = _base_train_doc(out_dir="mult3")
    doc["model"] = {"type": "multiplicative", "exponents": "2,3"}
    doc["optimizer"].update(momentum=0.0, stop_threshold=0.0)
    experiment_config_from_dict(doc)  # the defaults load
    doc["optimizer"][key] = value
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 2
    assert "error: optimizer.%s must be 0" % key in capsys.readouterr().err
    assert not (tmp_path / "mult3").exists()


def test_cli_train_multiplicative_rejects_other_losses(tmp_path, capsys):
    doc = _base_train_doc(out_dir="mult2")
    doc["model"] = {"type": "multiplicative", "exponents": "2,3"}
    doc["loss"] = "huber:1.0"
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_train_multiplicative_model_is_not_a_network(tmp_path, capsys):
    """The multiplicative model.json has no gradings or layers; the network
    loader must refuse it instead of loading an empty network."""
    doc = _base_train_doc(out_dir="mult4", max_iters=3)
    doc["model"] = {"type": "multiplicative", "exponents": "2,3"}
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 0
    with pytest.raises(ConfigError, match="unknown key .*kind"):
        load_network(tmp_path / "mult4" / "model.json")


def _strict_lines(path):
    def reject(token):
        raise ValueError("non-finite %s in %s" % (token, path))
    return [json.loads(l, parse_constant=reject) for l in path.read_text().splitlines()]


def test_cli_train_multiplicative_gradient_norm_stays_finite(tmp_path):
    """Gradient entries near 1e199 overflow a plain sum of squares."""
    (tmp_path / "big.csv").write_text("x0,x1,y0\n1e25,1e25,1\n1e25,1e25,2\n")
    doc = _base_train_doc(out_dir="big", max_iters=3)
    doc.update(grading="1,1", dataset={"source": "csv", "path": "big.csv"})
    doc["model"] = {"type": "multiplicative", "exponents": "2,2"}
    doc["optimizer"]["learning_rate"] = 1e-300
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 0
    recs = _strict_lines(tmp_path / "big" / "metrics.jsonl")
    assert len(recs) == 4
    assert all(r["grad_norm"] > 1e155 for r in recs)  # its square overflows


@pytest.mark.parametrize("max_iters", [0, 4])
def test_cli_train_multiplicative_infinite_gradient_is_a_divergence(
        tmp_path, capsys, max_iters):
    """With k = 1, x = 4e154 and y = 0 the loss (4e154 w)**2 is finite for
    the drawn w = 0.26, but the weight gradient 2 (4e154)**2 w is not."""
    (tmp_path / "inf.csv").write_text("x0,y0\n4e154,0\n")
    doc = _base_train_doc(out_dir="inf", max_iters=max_iters)
    doc.update(grading="1", dataset={"source": "csv", "path": "inf.csv"})
    doc["model"] = {"type": "multiplicative", "exponents": "1"}
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert "error: gradient norm became non-finite at iteration 0" in err
    assert not (tmp_path / "inf").exists()


def test_cli_train_bad_config_exit_code(tmp_path, capsys):
    doc = _base_train_doc()
    del doc["loss"]
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_train_divergence_exit_code(tmp_path, capsys):
    doc = _base_train_doc(out_dir="div", max_iters=5)
    doc["dataset"] = {
        "source": "monomial",
        "exponents": [1, 0],
        "count": 8,
        "box": [[1e150, 2e150], [1e150, 2e150]],
    }
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    with np.errstate(over="ignore"):
        assert main(["train", "--config", cfg_path]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_approx_bench_smoke(tmp_path, capsys):
    doc = {
        "grading": "2,3",
        "hidden_sizes": [1],
        "train_count": 32,
        "restarts": 1,
        "classical_iters": 40,
        "graded_iters": 40,
        "grid_points": 21,
        "seed": 0,
    }
    cfg_path = _write_config(tmp_path / "bench.json", doc)
    out_csv = tmp_path / "bench.csv"
    assert main(["approx-bench", "--config", cfg_path, "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "model,hidden_units,max_abs_error,train_mse,status"
    assert len(lines) == 3  # one graded cell, one classical width
    assert lines[1].startswith("graded,1,")
    assert lines[2].startswith("classical,1,")
    assert "approx-bench: wrote" in capsys.readouterr().out


def test_cli_approx_bench_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "bench.json", {"restart": 3})
    out_csv = tmp_path / "bench.csv"
    assert main(["approx-bench", "--config", cfg_path, "--out", str(out_csv)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("doc, key", [
    ({"restarts": "5"}, "restarts"),
    ({"hidden_sizes": 3}, "hidden_sizes"),
    ({"hidden_sizes": [1, 2.5]}, "hidden_sizes"),
    ({"classical_learning_rate": "0.1"}, "classical_learning_rate"),
    ({"seed": True}, "seed"),
    ({"grading": 23}, "grading"),
])
def test_cli_approx_bench_rejects_wrong_value_types(tmp_path, capsys, doc, key):
    cfg_path = _write_config(tmp_path / "bench.json", doc)
    out_csv = tmp_path / "bench.csv"
    assert main(["approx-bench", "--config", cfg_path, "--out", str(out_csv)]) == 2
    assert "error: %s must be" % key in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("doc", [
    {"hidden_sizes": [0]}, {"train_count": 0}, {"classical_iters": -1},
])
def test_cli_approx_bench_rejects_out_of_range_values(tmp_path, capsys, doc):
    cfg_path = _write_config(tmp_path / "bench.json", doc)
    out_csv = tmp_path / "bench.csv"
    assert main(["approx-bench", "--config", cfg_path, "--out", str(out_csv)]) == 2
    assert "error:" in capsys.readouterr().err
