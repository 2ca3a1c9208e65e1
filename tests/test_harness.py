"""Dataset generators, CSV and config handling, and the CLI end to end."""

import copy
import functools
import json
import math
import operator
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradednn import bench, ioutil
from gradednn.cli import main
from gradednn.config import (
    ConfigError,
    build_dataset,
    experiment_config_from_dict,
    load_experiment_config,
)
from gradednn.datasets import (
    Dataset,
    gen_invariant_proxy_dataset,
    gen_linear_map_dataset,
    gen_monomial_dataset,
    monomial_value,
    read_dataset_csv,
    write_dataset_csv,
)
from gradednn.network import (
    ActivationKind,
    GradeBlock,
    Layer,
    Network,
    load_network,
    network_forward,
    network_from_dict,
    network_to_dict,
    save_network,
)
from gradednn.ioutil import int_value, read_object, str_value
from gradednn.optimizer import TrainingDivergenceError
from gradednn.spaces import (
    GradedDomainError,
    GradedError,
    GradedVector,
    GradingMismatchError,
    GradingVector,
    ones_grading,
)
from test_classical import _ref_train_multiplicative

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


@pytest.mark.parametrize("exponents, index", [([10 ** 400, 2], 0),
                                               ([2, Fraction(10 ** 400, 3)], 1)])
def test_gen_monomial_dataset_refuses_an_exponent_beyond_float64(exponents, index):
    from gradednn.spaces import GradedDomainError

    with pytest.raises(GradedDomainError,
                       match=r"^exponents\[%d\] does not fit a float64$" % index):
        gen_monomial_dataset(Q23, exponents, 1.0, [(0.1, 2.0)] * 2, 8, seed=0)


@pytest.mark.parametrize("change, error, message", [
    ({"exponents": [2]}, GradingMismatchError, "exponents/box must match the grading length"),
    ({"box": [(0.1, 2.0)]}, GradingMismatchError, "exponents/box must match the grading length"),
    ({"count": 0}, ValueError, "count must be >= 1"),
    ({"box": [(0.1, 2.0), (2.0, 2.0)]}, ValueError, "box bounds must satisfy low < high"),
    ({"exponents": [2, "1/2"], "box": [(0.1, 2.0), (0.0, 2.0)]}, GradedDomainError,
     "fractional exponent 1/2 needs a positive sampling box"),
], ids=["exponents_length", "box_length", "count", "box_bounds", "fractional_box"])
def test_gen_monomial_dataset_refuses_bad_arguments(change, error, message):
    args = {"exponents": [2, 3], "coefficient": 1.0, "box": [(0.1, 2.0)] * 2, "count": 8,
            "seed": 0, **change}
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        gen_monomial_dataset(Q23, **args)


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("generate", [
    lambda count: gen_invariant_proxy_dataset(Q23, count, seed=0),
    lambda count: gen_linear_map_dataset(2, Q23, count, seed=0),
], ids=["invariant_proxy", "linear_map"])
def test_generators_refuse_a_count_below_one(generate, count):
    with pytest.raises(ValueError, match="^count must be >= 1$"):
        generate(count)


@pytest.mark.parametrize("inputs, targets, error, message", [
    (np.ones((3, 2)), np.ones((2, 1)), GradingMismatchError,
     "inputs and targets differ in sample count"),
    (np.ones((2, 3)), np.ones((2, 1)), GradingMismatchError,
     "input width does not match input grading"),
    (np.ones((2, 2)), np.ones((2, 2)), GradingMismatchError,
     "target width does not match output grading"),
    (np.ones((2, 2)), np.array([[1.0], [np.inf]]), GradedDomainError,
     "dataset entries must be finite"),
], ids=["sample_count", "input_width", "target_width", "non_finite"])
def test_dataset_refuses_mismatched_arrays(inputs, targets, error, message):
    with pytest.raises(error, match="^%s$" % message):
        Dataset(inputs, targets, Q23, ones_grading(1))


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
    path.write_text("")
    with pytest.raises(ValueError, match="^dataset file %s is empty$" % re.escape(str(path))):
        read_dataset_csv(path, Q23, ones_grading(1))
    path.write_text("x0,x1,%s\n1,2,3\n" % ("y" * 131073))
    with pytest.raises(ValueError, match="^dataset file %s line 1: field larger than "
                                         "field limit" % re.escape(str(path))):
        read_dataset_csv(path, Q23, ones_grading(1))


@pytest.mark.parametrize("body, message", [
    ("1,2,3\n1,a,3\n", "line 3 column x1: could not convert string to float: 'a'"),
    ("1,2,3\n\n1,2\n", "line 4 column y0: row has 2 fields, expected 3"),
    ("1,2,3,4\n", "line 2: row has 4 fields, expected 3"),
    ("1,nan,3\n", "line 2 column x1: dataset entries must be finite"),
    ("1,%s,3\n" % ("9" * 131073), "line 2: field larger than field limit (131072)"),
], ids=["not_a_number", "short_row", "long_row", "nan", "field_over_the_csv_limit"])
def test_cli_train_csv_error_names_the_file_line_and_column(tmp_path, capsys, body, message):
    data = tmp_path / "data.csv"
    data.write_text("x0,x1,y0\n" + body)
    doc = _base_train_doc()
    doc["dataset"] = {"source": "csv", "path": str(data)}
    assert main(["train", "--config", _write_config(tmp_path / "cfg.json", doc)]) == 2
    assert capsys.readouterr().err == "error: dataset file %s %s\n" % (data, message)
    assert not (tmp_path / "run").exists()


def test_config_parses_round():
    cfg = experiment_config_from_dict(_base_train_doc())
    assert cfg.grading == Q23
    assert cfg.model.layers == [(ones_grading(1), ActivationKind.IDENTITY)]
    assert cfg.model.exponents is None
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
    # the monomial box is given only as dataset.box
    (lambda d: d["dataset"].update(low=0.5, high=1.5), "dataset.high, dataset.low"),
    (lambda d: d["dataset"].update(box=[[0.5, 1.5], [0.5, 1.5]], high=3.0), "dataset.high"),
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
    (lambda d: d["dataset"].update(box=[[0.1, True], [0.1, 1.0]]),
     "dataset.box[0][1] must be a number"),
    (lambda d: d["dataset"].update(box=[["0.1", 1.0], [0.1, 1.0]]),
     "dataset.box[0][0] must be a number"),
    (lambda d: d["dataset"].update(box=[[0.1], [0.1, 1.0]]),
     "dataset.box[0] must be a list of 2 entries"),
    (lambda d: d["dataset"].update(box={"0": [0.1, 1.0]}), "dataset.box must be a list"),
    (lambda d: d.update(dataset={"source": "csv", "path": 7}), "dataset.path must be a string"),
    (lambda d: d.update(out_dir=5), "out_dir must be a string"),
    (lambda d: d.update(loss=5), "loss must be a string"),
    (lambda d: d.update(grading=23), 'bad grading: grading must be a string such as "2,3"'),
    (lambda d: d.update(grading="1/0,2"), "bad grading: grade '1/0' has a zero denominator"),
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
    (lambda d: d.update(model={"type": "multiplicative", "exponents": "2,1e400"}),
     "model.exponents: an exponent does not fit a float64"),
    (lambda d: d.update(model={"type": "multiplicative", "exponents": "2,%d" % 10 ** 400}),
     "model.exponents: an exponent does not fit a float64"),
    (lambda d: d["dataset"].update(exponents="2,3"),
     "dataset.exponents must be a list of 2 entries"),
    (lambda d: d["dataset"].update(exponents=[True, 2.5]),
     'dataset.exponents[0] must be a rational such as 2 or "1/2"'),
    (lambda d: d["dataset"].update(exponents=[2]),
     "dataset.exponents must be a list of 2 entries"),
    (lambda d: d["dataset"].update(exponents=7),
     "dataset.exponents must be a list of 2 entries"),
    (lambda d: d["dataset"].pop("exponents"), "missing key dataset.exponents"),
    (lambda d: d["dataset"].update(box=[[0.1, 1.0]]),
     "dataset.box must hold 2 [low, high] pairs, one per coordinate"),
    # Python's json reads these, but they are not JSON numbers
    (lambda d: d["optimizer"].update(stop_threshold=math.nan),
     "optimizer.stop_threshold must be a number"),
    (lambda d: d["optimizer"].update(learning_rate=math.inf),
     "optimizer.learning_rate must be a number"),
    (lambda d: d["optimizer"].update(learning_rate=10 ** 400),
     "optimizer.learning_rate must be a number"),
    (lambda d: d["dataset"].update(box=[[0.1, 1.0], [-math.inf, 1.0]]),
     "dataset.box[1][0] must be a number"),
    (lambda d: d["dataset"].update(box=[[0.1, 1.0], [0.1, math.inf]]),
     "dataset.box[1][1] must be a number"),
    # dataset rules checked at load, before any file is read or sample drawn
    (lambda d: d["dataset"].update(box=[[0.5, 1.5], [1.5, 0.5]]),
     "dataset.box[1] must have low < high"),
    (lambda d: d["dataset"].update(box=[[1.0, 1.0], [0.5, 1.5]]),
     "dataset.box[0] must have low < high"),
    (lambda d: d["dataset"].update(box=[[0.1, 0.05], [0.5, 1.5]]),
     "dataset.box[0] must have low < high"),
    (lambda d: d["dataset"].update(count=0), "dataset.count must be >= 1"),
    (lambda d: d.update(grading="1,1", dataset={"source": "linear_map", "count": 0}),
     "dataset.count must be >= 1"),
    (lambda d: d.update(dataset={"source": "invariant_proxy", "count": 0}),
     "dataset.count must be >= 1"),
    (lambda d: d["dataset"].update(exponents=[2, "1/2"], box=[[-1.0, 1.0], [0.0, 1.0]]),
     "dataset.box[1]: fractional exponent 1/2 needs a positive sampling box"),
    (lambda d: d["dataset"].update(exponents=["3/2", 3], box=[[-1.0, 1.0], [0.5, 1.5]]),
     "dataset.box[0]: fractional exponent 3/2 needs a positive sampling box"),
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
    doc["dataset"].update(box=[[1, 2], [1, 2.5]], coefficient=3)
    cfg = experiment_config_from_dict(doc)
    assert cfg.optimizer.learning_rate == 1.0
    assert cfg.dataset.params["box"] == [[1.0, 2.0], [1.0, 2.5]]
    assert cfg.dataset.params["coefficient"] == 3.0


def test_config_resolves_dataset_defaults_at_load():
    """DatasetSpec.params holds exactly the arguments its generator takes."""
    doc = _base_train_doc()
    doc.update(seed=11, dataset={"source": "invariant_proxy"})
    assert experiment_config_from_dict(doc).dataset.params == {"count": 256, "seed": 11}
    doc["dataset"] = {"source": "monomial", "exponents": [2, "1/2"], "seed": 4}
    assert experiment_config_from_dict(doc).dataset.params == {
        "exponents": (2, Fraction(1, 2)), "coefficient": 1.0,
        "box": [[0.1, 2.0], [0.1, 2.0]], "count": 256, "seed": 4}


def test_readme_configs_load():
    """Every config that README shows (a json block, a heredoc or an echo)
    loads as a train or an approx-bench config, so no removed key lingers
    in the docs."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    docs = (re.findall(r"```json\n(.*?)```", text, re.S)
            + re.findall(r"<<'EOF'\n(.*?)^EOF$", text, re.S | re.M)
            + re.findall(r"echo '(.*?)' >", text))
    assert len(docs) >= 3  # the train example, the demo.json heredoc and {}
    for doc in map(json.loads, docs):
        errors = []
        for load in (experiment_config_from_dict, bench.bench_config_from_dict):
            try:
                load(doc)
                break
            except ConfigError as exc:
                errors.append(str(exc))
        else:
            pytest.fail("README config %s loads as neither: %s" % (doc, errors))


def test_config_sub_documents_must_be_objects():
    doc = _base_train_doc()
    doc["optimizer"] = [0.05, 25]
    with pytest.raises(ConfigError, match="optimizer must be a JSON object"):
        experiment_config_from_dict(doc)


# one table of each kind of entry: required and parsed, optional and parsed,
# optional and kept as it is
_WALK_TABLE = {"grade": (True, int_value), "name": (False, str_value), "raw": (False, None)}


@pytest.mark.parametrize("doc, path, name, message", [
    ([1], "layers[0]", "", "layers[0] must be a JSON object"),
    ("x", "", "a saved network", "a saved network must be a JSON object"),
    # both faults at once: the missing key is reported
    ({"name": "a", "grades": 2}, "opt", "", "missing key opt.grade"),
    ({"grade": 1, "z": 0, "y": 0}, "", "", "unknown key y, z"),
    ({"grade": "1/2"}, "layers[0].blocks[0]", "",
     "layers[0].blocks[0].grade must be an integer"),
    ({"grade": 1, "name": 2}, "model", "", "model.name must be a string"),
])
def test_read_object_reports_a_fault_by_its_path(doc, path, name, message):
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        read_object(doc, _WALK_TABLE, path, name)


def test_read_object_returns_the_keys_present_in_table_order():
    """An absent optional key is left out, and a key without a checker keeps
    its value as it is."""
    raw = [1, {"a": None}]
    assert list(read_object({"raw": raw, "grade": 3}, _WALK_TABLE, "").items()) == [
        ("grade", 3), ("raw", raw)]
    assert read_object({"grade": 0}, _WALK_TABLE, "opt") == {"grade": 0}


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
    # beyond Python's integer-digit limit: a ValueError that is no JSONDecodeError
    bad.write_text('{"seed": %s}' % ("1" * 5000))
    with pytest.raises(ConfigError, match="^config %s is not valid JSON: Exceeds the limit"
                                          % re.escape(str(bad))):
        load_experiment_config(bad)
    bad.write_text("[" * 100000)
    with pytest.raises(ConfigError, match="^config %s is not valid JSON: maximum recursion"
                                          % re.escape(str(bad))):
        load_experiment_config(bad)
    # json.load keeps the last of a repeated key's values, so each would run
    text = json.dumps(_base_train_doc())
    for key, repeated in (("loss", '"loss": "huber:1", '),
                          ("count", '"count": 3, ')):
        bad.write_text(text.replace('"%s": ' % key, repeated + '"%s": ' % key, 1))
        with pytest.raises(ConfigError, match="^config %s: duplicate key %s$"
                                              % (re.escape(str(bad)), key)):
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


@pytest.mark.parametrize("argv, message", [
    (["--count", "0"], "count must be at least 1, got 0"),
    (["--count", "-3"], "count must be at least 1, got -3"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--count", str(sys.maxsize + 1)],
     "count must be at most %d, got %d" % (sys.maxsize, sys.maxsize + 1)),
], ids=["0", "-3", "seed", "above_maxsize"])
def test_cli_grad_check_rejects_count_below_one(capsys, argv, message):
    assert main(["grad-check"] + argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_cli_train_zero_iters_single_metrics_line(tmp_path, capsys):
    doc = _base_train_doc(out_dir="run0", max_iters=0)
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 0
    lines = (tmp_path / "run0" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert set(rec) == {"iter", "loss", "grad_norm"}
    assert rec["iter"] == 0 and rec["loss"] > 0.0


def test_cli_train_metrics_hold_float_values(tmp_path):
    cfg_path = _write_config(tmp_path / "exp.json", _base_train_doc(max_iters=5))
    assert main(["train", "--config", cfg_path]) == 0
    recs = _strict_lines(tmp_path / "run" / "metrics.jsonl")
    assert [r["iter"] for r in recs] == list(range(6))
    assert all(isinstance(r["loss"], float) and isinstance(r["grad_norm"], float)
               for r in recs)


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


def test_repeated_in_process_main_calls_share_no_state(tmp_path, capsys):
    """main reuses one argument parser per process, so no option of one call
    may reach the next: a seeded grad-check followed by an unseeded one
    prints what a lone seed-0 run prints, and a second train on one config
    rewrites the same bytes."""
    assert main(["grad-check", "--count", "3"]) == 0
    alone = capsys.readouterr().out
    assert main(["grad-check", "--count", "3", "--seed", "7"]) == 0
    seeded = capsys.readouterr().out
    assert main(["grad-check", "--count", "3"]) == 0
    assert capsys.readouterr().out == alone != seeded

    cfg_path = _write_config(tmp_path / "cfg.json", _base_train_doc(max_iters=5))
    outputs = []
    for _ in range(2):
        assert main(["train", "--config", cfg_path]) == 0
        outputs.append((capsys.readouterr().out,
                        (tmp_path / "run" / "metrics.jsonl").read_bytes(),
                        (tmp_path / "run" / "model.json").read_bytes()))
    assert outputs[0] == outputs[1]


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


def _mult_doc(out_dir, max_iters=25, **optimizer):
    doc = _base_train_doc(out_dir=out_dir, max_iters=max_iters)
    doc["model"] = {"type": "multiplicative", "exponents": "2,3"}
    doc["optimizer"].update(optimizer)
    doc["dataset"]["box"] = [[0.1, 1.0], [0.1, 1.0]]
    return doc


def _metrics(path):
    return [json.loads(l) for l in path.read_text().splitlines()]


def test_cli_train_multiplicative(tmp_path):
    doc = _mult_doc("mult", max_iters=200)
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 0
    net = load_network(tmp_path / "mult" / "model.json")
    (layer,) = net.layers
    assert layer.exponents == (2, 3) and layer.weight_base.shape == (1, 2)
    assert net.out_grading == ones_grading(1)


def test_cli_train_multiplicative_honours_momentum_and_the_plateau_stop(tmp_path, capsys):
    runs = {}
    for name, optimizer in [("plain", {}), ("momentum", {"momentum": 0.9}),
                            ("plateau", {"stop_threshold": 0.5, "stop_window": 3})]:
        cfg_path = _write_config(tmp_path / (name + ".json"), _mult_doc(name, **optimizer))
        assert main(["train", "--config", cfg_path]) == 0
        runs[name] = (_metrics(tmp_path / name / "metrics.jsonl"), capsys.readouterr().out)
    plain, momentum, plateau = (runs[n][0] for n in ("plain", "momentum", "plateau"))
    assert len(momentum) == len(plain) == 26
    assert momentum[0] == plain[0] and momentum[2]["loss"] != plain[2]["loss"]
    assert len(plateau) == 4 and plateau == plain[:4]
    assert "stop=plateau" in runs["plateau"][1]


def test_cli_train_multiplicative_trains_on_any_loss(tmp_path):
    doc = _mult_doc("mult2")
    doc["loss"] = "huber:1.0"
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 0
    assert len(_metrics(tmp_path / "mult2" / "metrics.jsonl")) == 26


def _odd_exponent_csv(path):
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, size=(24, 2))
    y = 0.7 * x[:, 0] ** 3 * x[:, 1] + 0.1
    write_dataset_csv(Dataset(x, y[:, None], GradingVector([1, 2]), ones_grading(1)), path)
    return path.name


@pytest.mark.parametrize("case", ["positive", "odd_negative", "fractional"])
def test_cli_train_multiplicative_matches_the_reference_trainer(tmp_path, case):
    """The engine's run of a multiplicative model writes exactly the loss and
    gradient-norm history, and ends at exactly the weights and bias, of the
    one-neuron reference trainer from the same initial weights."""
    doc = _mult_doc(case, max_iters=60)
    if case == "odd_negative":
        doc.update(grading="1,2", seed=5,
                   dataset={"source": "csv", "path": _odd_exponent_csv(tmp_path / "neg.csv")})
        doc["model"]["exponents"] = "3,1"
        doc["optimizer"]["learning_rate"] = 0.1
    if case == "fractional":
        doc.update(grading="1/2,3/2", loss="graded_norm", seed=7)
        doc["model"]["exponents"] = "1/2,3/2"
        doc["optimizer"]["learning_rate"] = 0.02
        doc["dataset"].update(exponents=["1/2", "3/2"], count=32, box=[[0.2, 1.5]] * 2)
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 0
    recs = _metrics(tmp_path / case / "metrics.jsonl")
    (layer,) = load_network(tmp_path / case / "model.json").layers

    cfg = load_experiment_config(cfg_path)
    ds = build_dataset(cfg)
    k = np.array([float(v) for v in cfg.model.exponents])
    w0 = np.random.default_rng(cfg.optimizer.seed).uniform(0.2, 0.9, size=2)
    w, b, losses, grad_norms = _ref_train_multiplicative(
        ds.inputs, ds.targets[:, 0], k, cfg.grading.floats, w0, 0.0,
        cfg.optimizer.learning_rate, cfg.optimizer.max_iters)
    assert len(recs) == 61
    assert [r["loss"] for r in recs] == losses
    assert [r["grad_norm"] for r in recs] == grad_norms
    assert np.array_equal(layer.weight_base, w[None]) and np.array_equal(layer.bias, [b])


def test_cli_train_multiplicative_model_round_trips(tmp_path):
    """The multiplicative model.json is a network: loading and saving it
    again writes the same bytes."""
    cfg_path = _write_config(tmp_path / "exp.json", _mult_doc("mult4", max_iters=3))
    assert main(["train", "--config", cfg_path]) == 0
    path = tmp_path / "mult4" / "model.json"
    save_network(load_network(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _strict_lines(path):
    """Each line of a .jsonl file, or the one document of any other file,
    as JSON that holds no NaN or Infinity."""
    def reject(token):
        raise ValueError("non-finite %s in %s" % (token, path))
    text = path.read_text()
    lines = text.splitlines() if path.suffix == ".jsonl" else [text]
    return [json.loads(l, parse_constant=reject) for l in lines]


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
    assert "error: gradient became non-finite at iteration 0 in layer 0" in err
    assert not (tmp_path / "inf").exists()


def test_cli_train_multiplicative_overflow_is_one_error_line(tmp_path, capsys):
    """An overflowing product neuron is exit 3 with the divergence error as
    the whole of stderr: no numpy warning comes first."""
    doc = _base_train_doc(out_dir="over", max_iters=200)
    doc.update(grading="1,1", model={"type": "multiplicative", "exponents": "2,3"},
               seed=0)
    doc["optimizer"].update(momentum=0.9)
    doc["dataset"]["count"] = 64
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*at iteration 4\n", err), err


def _train_mlp_doc(learning_rate, hidden_activation):
    """The benchmark's train_mlp config on 64 samples, seed 1."""
    return {
        "grading": "2,4,6,10",
        "model": {"type": "feedforward", "layers": [
            {"grading": "1,1,2,2,3,3,4,4", "activation": hidden_activation},
            {"grading": "1", "activation": "identity"}]},
        "loss": "graded_mse",
        "optimizer": {"learning_rate": learning_rate, "max_iters": 100,
                      "momentum": 0.9, "seed": 1},
        "dataset": {"source": "invariant_proxy", "count": 64, "seed": 1},
        "out_dir": "diverged",
        "seed": 1,
    }


@pytest.mark.parametrize("learning_rate, hidden_activation, message", [
    (1000.0, "signed_graded_relu", "loss became non-finite at iteration 47"),
    (50.0, "graded_exp", "layer 0 produced non-finite values.*at iteration 2"),
], ids=["loss_overflow", "exp_overflow"])
def test_cli_train_feedforward_divergence_is_one_error_line(
        tmp_path, capsys, learning_rate, hidden_activation, message):
    """The loss overflows in graded_mse, or the exponential hidden layer in
    expm1 and then the next matmul: exit 3 with the divergence error as the
    whole of stderr, and no numpy warning before it."""
    doc = _train_mlp_doc(learning_rate, hidden_activation)
    cfg_path = _write_config(tmp_path / "exp.json", doc)
    assert main(["train", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*\n", err) and re.search(message, err), err
    assert not (tmp_path / "diverged").exists()


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
    ({"hidden_sizes": [1, 2.5]}, "hidden_sizes[1]"),
    ({"hidden_sizes": [1, 2, "8"]}, "hidden_sizes[2]"),
    ({"classical_learning_rate": "0.1"}, "classical_learning_rate"),
    ({"seed": True}, "seed"),
    ({"grading": 23}, "grading"),
    ({"grid_low": math.nan}, "grid_low"),
    ({"classical_learning_rate": math.inf}, "classical_learning_rate"),
    ({"sample_high": 10 ** 400}, "sample_high"),
])
def test_cli_approx_bench_rejects_wrong_value_types(tmp_path, capsys, doc, key):
    cfg_path = _write_config(tmp_path / "bench.json", doc)
    out_csv = tmp_path / "bench.csv"
    assert main(["approx-bench", "--config", cfg_path, "--out", str(out_csv)]) == 2
    assert "error: %s must be" % key in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("doc, message", [
    ({"grading": "2,3,4"}, "grading must have 2 coordinates: the benchmark target is bivariate"),
    ({"sample_high": 1.5}, "sample_high must lie in (0, 1]"),
    ({"sample_high": 0}, "sample_high must lie in (0, 1]"),
    ({"sample_low": 0}, "sample_low must be positive and below sample_high"),
    ({"sample_low": 0.5, "sample_high": 0.5},
     "sample_low must be positive and below sample_high"),
    ({"grid_points": 1}, "grid_points must be >= 2"),
    ({"restarts": 0}, "restarts must be >= 1"),
    ({"train_count": 0}, "train_count must be >= 1"),
    ({"classical_iters": -1}, "classical_iters must be >= 0"),
    ({"graded_iters": -1}, "graded_iters must be >= 0"),
    ({"hidden_sizes": [0]}, "hidden_sizes must all be >= 1"),
    ({"hidden_sizes": [0, 1]}, "hidden_sizes must all be >= 1"),
    ({"hidden_sizes": [4, 2]}, "hidden_sizes must be non-decreasing"),
    ({"grading": "1/2,1", "grid_low": 0}, "grid_low must be positive and below grid_high"),
    ({"grading": "1/2,1", "grid_low": -1}, "grid_low must be positive and below grid_high"),
    ({"grid_low": -1}, "grid_low must be positive and below grid_high"),
    ({"grid_low": 0.5, "grid_high": 0.2}, "grid_low must be positive and below grid_high"),
    ({"classical_learning_rate": -1}, "classical_learning_rate must be positive"),
    ({"graded_learning_rate": -1}, "graded_learning_rate must be positive"),
    ({"classical_learning_rate": 0}, "classical_learning_rate must be positive"),
    ({"classical_momentum": 1.5}, "classical_momentum must lie in [0, 1)"),
    ({"classical_momentum": -0.1}, "classical_momentum must lie in [0, 1)"),
])
def test_cli_approx_bench_rejects_out_of_range_values(tmp_path, capsys, doc, message):
    """Each range rule is one error line that starts with its own key."""
    cfg_path = _write_config(tmp_path / "bench.json", doc)
    out_csv = tmp_path / "bench.csv"
    assert main(["approx-bench", "--config", cfg_path, "--out", str(out_csv)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out_csv.exists()


@pytest.mark.parametrize("doc, message", [
    ({"model": {"type": "feedforward",
                "layers": [{"grading": "1", "activation": 1}]}},
     "model.layers[0].activation must be a string"),
    ({"model": {"type": "feedforward", "layers": 0}},
     "model.layers must be a list"),
    ({"model": {"type": "feedforward",
                "layers": [{"grading": "1,1", "activation": "identity"}, "1"]}},
     "model.layers[1] must be a JSON object"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"optimizer": {"learning_rate": 0.05, "max_iters": 400, "seed": -1}},
     "optimizer.seed must be >= 0"),
    ({"dataset": {"source": "invariant_proxy", "count": 256, "seed": -1}},
     "dataset.seed must be >= 0"),
    ({"grading": "2,4,6,1e400"}, "bad grading: grade 1e400 does not fit a float64"),
    ({"model": {"type": "feedforward",
                "layers": [{"grading": "1e400", "activation": "identity"}]}},
     "model.layers[0]: grade 1e400 does not fit a float64"),
    # Fraction would first build 10**10000000, about 13 s of work
    ({"grading": "2,4,6,1e10000000"}, "bad grading: grade 1e10000000 does not fit a float64"),
    ({"model": {"type": "multiplicative", "exponents": "1,1,1,1e10000000"}},
     "model.exponents: an exponent does not fit a float64"),
    ({"dataset": {"source": "monomial", "exponents": [1, 1, 1, "1e10000000"]}},
     "dataset.exponents[3]: an exponent does not fit a float64"),
    ({"grading": "1,2", "dataset": {"source": "monomial", "exponents": [1, 10 ** 400]}},
     "dataset.exponents[1]: an exponent does not fit a float64"),
    ({"grading": "1,2", "dataset": {"source": "monomial", "exponents": [1, True]}},
     'dataset.exponents[1] must be a rational such as 2 or "1/2"'),
    ({"grading": "1,2", "dataset": {"source": "monomial", "exponents": [1, 1],
                                    "box": [[0.1, 1.0], ["0.1", 1.0]]}},
     "dataset.box[1][0] must be a number"),
    ({"loss": "huber:x"}, "loss: huber threshold must be a positive finite number"),
    ({"loss": "huber:1e400"}, "loss: huber threshold must be a positive finite number"),
    ({"loss": "huber:nan"}, "loss: huber threshold must be a positive finite number"),
    ({"model": {"type": "feedforward", "layers": [
        {"grading": "1", "activation": "identity"},
        {"grading": "1,1", "activation": "identity"}]},
      "dataset": {"source": "monomial", "exponents": [1, 1, 1, 1]}},
     "model.layers[1].grading: monomial targets are scalar; model output must be 1-dim"),
    ({"dataset": {"source": "linear_map"}},
     "grading: linear_map datasets use the all-ones input grading"),
    ({"model": {"type": "feedforward",
                "layers": [{"grading": "1,1", "activation": "identity"}]}},
     "model.layers[0].grading: invariant_proxy targets are scalar"),
    # 0.1**-400 leaves the float range; exponents [2, 400] give finite targets
    ({"grading": "1,2", "dataset": {"source": "monomial", "exponents": [2, -400]}},
     "dataset.exponents: the target overflows a float64 on the sampling box"),
    ({"grading": "1,2", "model": {"type": "multiplicative", "exponents": "2,%d" % 10 ** 400},
      "dataset": {"source": "monomial", "exponents": [2, 1]}},
     "model.exponents: an exponent does not fit a float64"),
], ids=["activation_int", "layers_int", "layer_not_object", "seed", "optimizer_seed", "dataset_seed",
        "grading_overflow", "layer_grading_overflow", "grading_huge_exponent",
        "model_exponent_huge_exponent", "dataset_exponent_huge_exponent",
        "dataset_exponent_huge_integer", "dataset_exponent_bool", "box_entry_string",
        "huber_text",
        "huber_overflow", "huber_nan", "monomial_output", "linear_map_grading",
        "invariant_proxy_output", "monomial_target_overflow", "model_exponent_huge_integer"])
def test_cli_train_config_mistake_is_one_error_line_naming_the_key(
        tmp_path, capsys, doc, message):
    """Repros on the README demo config: each ended in a traceback, or in an
    error line that named no key."""
    base = {"grading": "2,4,6,10",
            "model": {"type": "feedforward",
                      "layers": [{"grading": "1", "activation": "identity"}]},
            "loss": "graded_mse",
            "optimizer": {"learning_rate": 0.05, "max_iters": 400},
            "dataset": {"source": "invariant_proxy", "count": 256},
            "out_dir": "run",
            "seed": 0}
    base.update(doc)
    cfg_path = _write_config(tmp_path / "demo.json", base)
    assert main(["train", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "run").exists()


# a valid benchmark config that runs in well under a second
_TINY_BENCH = {"hidden_sizes": [1], "restarts": 1, "classical_iters": 3, "graded_iters": 3}


@pytest.mark.parametrize("doc, out, message", [
    ({"grading": "0,1"}, "bench.csv", "grading: grades must be positive, got 0"),
    ({"seed": -1}, "bench.csv", "seed must be >= 0"),
    ({"grading": "1e400"}, "bench.csv", "grading: grade 1e400 does not fit a float64"),
    ({"grading": "2,1e10000000"}, "bench.csv",
     "grading: grade 1e10000000 does not fit a float64"),
    # json.load keeps the last value, so both widths would run
    ('{"hidden_sizes": [1], "hidden_sizes": [1, 2]}', "bench.csv",
     "benchmark config {config}: duplicate key hidden_sizes"),
    ("{not json", "bench.csv", "benchmark config {config} is not valid JSON: Expecting property "
                               "name enclosed in double quotes: line 1 column 2 (char 1)"),
    (None, "bench.csv",
     "cannot read benchmark config {config}: [Errno 2] No such file or directory: '{config}'"),
    # an unwritable output path fails before any restart trains
    (_TINY_BENCH, ".", "[Errno 21] Is a directory: '{out}'"),
    (_TINY_BENCH, "missing/bench.csv", "[Errno 2] No such file or directory: '{out}'"),
], ids=["grading_zero", "seed_negative", "grading_overflow", "grading_huge_exponent",
        "repeated_key", "not_json", "missing_config", "out_is_a_directory",
        "out_in_a_missing_directory"])
def test_cli_approx_bench_config_mistake_is_one_error_line_naming_the_key(
        tmp_path, capsys, doc, out, message):
    cfg_path, out_path = tmp_path / "bench.json", tmp_path / out
    if isinstance(doc, dict):
        _write_config(cfg_path, doc)
    elif doc is not None:
        cfg_path.write_text(doc)
    assert main(["approx-bench", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message.format(config=cfg_path,
                                                                      out=out_path)
    assert not out_path.is_file()


@pytest.mark.parametrize("out", [".", "missing/bench.csv"])
def test_cli_approx_bench_refuses_an_unwritable_out_before_training(
        tmp_path, capsys, monkeypatch, out):
    import gradednn.cli as cli
    runs = []
    monkeypatch.setattr(cli, "approx_bench", lambda cfg: runs.append(cfg) or [])
    cfg_path = _write_config(tmp_path / "bench.json", _TINY_BENCH)
    assert main(["approx-bench", "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno ")
    assert runs == []


@pytest.mark.parametrize("old", [None, "model,hidden_units\nkept\n"], ids=["new", "existing"])
def test_cli_approx_bench_failing_run_leaves_the_out_file_as_it_was(
        tmp_path, capsys, monkeypatch, old):
    import gradednn.cli as cli

    def fail(cfg):
        raise GradedDomainError("a width failed")

    monkeypatch.setattr(cli, "approx_bench", fail)
    out = tmp_path / "bench.csv"
    if old is not None:
        out.write_text(old)
    cfg_path = _write_config(tmp_path / "bench.json", _TINY_BENCH)
    assert main(["approx-bench", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: a width failed\n"
    assert (out.read_text() if out.exists() else None) == old


@pytest.mark.parametrize("grading, grid_high", [("2,3", 1e300), ("1/2,1", 1e300),
                                               ("2,3", 1e62)])
def test_cli_approx_bench_refuses_a_grid_on_which_the_target_overflows(
        tmp_path, capsys, monkeypatch, grading, grid_high):
    """The refusal comes before anything trains, with no numpy warning: it
    used to come from the parent's nanargmin after a whole run."""
    import gradednn.cli as cli
    runs = []
    monkeypatch.setattr(cli, "approx_bench", lambda cfg: runs.append(cfg) or [])
    cfg_path = _write_config(tmp_path / "bench.json",
                             {"grading": grading, "grid_high": grid_high})
    out = tmp_path / "bench.csv"
    assert main(["approx-bench", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: grid_high: the target overflows a float64 at (grid_high, grid_high)\n")
    assert runs == [] and not out.exists()


def test_approx_bench_accepts_a_large_grid_on_which_the_target_is_finite():
    # 1e61**5 is 1e305, below the largest float64
    cfg = bench.bench_config_from_dict({"grading": "2,3", "grid_high": 1e61})
    assert cfg.grid_high == 1e61


@pytest.mark.parametrize("out_dir, reason", [
    ("afile/out", "[Errno 20] Not a directory"),
    ("afile", "[Errno 17] File exists"),
], ids=["under_a_file", "a_file"])
def test_cli_train_refuses_an_out_dir_it_cannot_create_before_training(
        tmp_path, capsys, monkeypatch, out_dir, reason):
    """The error used to come after the whole run, from writing metrics.jsonl,
    and named neither the key nor the directory."""
    import gradednn.cli as cli
    runs = []
    monkeypatch.setattr(cli, "train", lambda *args: runs.append(args))
    (tmp_path / "afile").write_text("kept\n")
    cfg_path = _write_config(tmp_path / "cfg.json", _base_train_doc(out_dir=out_dir))
    assert main(["train", "--config", cfg_path]) == 2
    path = tmp_path / out_dir
    assert capsys.readouterr().err == (
        "error: out_dir: cannot create output directory %s: %s: '%s'\n"
        % (path, reason, path))
    assert runs == []
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_cli_train_failing_run_removes_the_directories_it_made(tmp_path, capsys, monkeypatch):
    """out_dir is created before the first iteration; a run that then fails
    leaves no directory behind, and a parent that was there stays."""
    import gradednn.cli as cli

    def diverge(*args):
        raise TrainingDivergenceError("loss became non-finite at iteration 0")

    monkeypatch.setattr(cli, "train", diverge)
    (tmp_path / "kept").mkdir()
    cfg_path = _write_config(tmp_path / "cfg.json", _base_train_doc(out_dir="kept/a/b"))
    assert main(["train", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == "error: loss became non-finite at iteration 0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "kept"]
    assert list((tmp_path / "kept").iterdir()) == []


def test_cli_train_missing_csv_dataset_names_the_key(tmp_path, capsys):
    doc = _base_train_doc()
    doc["dataset"] = {"source": "csv", "path": "nope.csv"}
    cfg_path = _write_config(tmp_path / "cfg.json", doc)
    assert main(["train", "--config", cfg_path]) == 2
    missing = tmp_path / "nope.csv"
    assert capsys.readouterr().err == (
        "error: dataset.path: cannot read dataset file %s: [Errno 2] No such file or "
        "directory: '%s'\n" % (missing, missing))
    assert not (tmp_path / "run").exists()


def test_cli_train_fractional_exponent_on_a_negative_input_names_the_entry(tmp_path, capsys):
    x = np.array([[0.5, 1.0], [-1.0, 2.0], [-2.0, 3.0]])
    write_dataset_csv(Dataset(x, np.ones((3, 1)), GradingVector([1, 2]), ones_grading(1)),
                      tmp_path / "data.csv")
    doc = _mult_doc("run")
    doc.update(grading="1,2", dataset={"source": "csv", "path": "data.csv"})
    doc["model"]["exponents"] = "1/2,1"
    assert main(["train", "--config", _write_config(tmp_path / "exp.json", doc)]) == 2
    assert capsys.readouterr().err == ("error: fractional exponent 1/2 of input 0 needs "
                                       "positive inputs, got -1 in row 1\n")


def test_cli_train_fractional_exponent_with_an_integer_float_is_refused(tmp_path, capsys):
    """The exponent (2**53 + 1)/2 is fractional although its float64 is the
    integer 2**52, so the sign patterns of linear_map are out of its domain."""
    doc = _mult_doc("run")
    doc.update(grading="1,1", dataset={"source": "linear_map", "count": 8})
    doc["model"]["exponents"] = "9007199254740993/2,1"
    assert main(["train", "--config", _write_config(tmp_path / "exp.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fractional exponent 9007199254740993/2 of input 0 "
                          "needs positive inputs, got -") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, doc", [
    ("train", dict(_base_train_doc(), dataset={"source": "monomial", "exponents": [2, 3],
                                                "count": 10 ** 17})),
    ("approx-bench", {"grid_points": 10 ** 17}),
], ids=["train", "approx-bench"])
def test_cli_allocation_beyond_the_address_space_is_one_error_line(
        tmp_path, capsys, command, doc):
    """10**17 entries ask for hundreds of PiB, past the 128 TiB user address
    space of 4-level paging and the 64 PiB of 5-level paging, so numpy
    refuses at once whatever the host's overcommit policy."""
    argv = [command, "--config", _write_config(tmp_path / "cfg.json", doc)]
    if command == "approx-bench":
        argv += ["--out", str(tmp_path / "bench.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert "(100000000000000000" in err


def _saved_model_doc():
    """A model.json with every optional part: a multiplicative first layer
    and a block-masked second one."""
    g1, g12 = GradingVector([1]), GradingVector([1, 2])
    blocks = [GradeBlock(Fraction(1), (0, 1), (0, 1)), GradeBlock(Fraction(2), (1, 2), (1, 2))]
    return network_to_dict(Network([
        Layer([[0.5, 0.25], [1.5, 2.0]], [0.1, -0.2], ActivationKind.IDENTITY, g12, g12,
              exponents=("1/2", 2)),
        Layer([[0.75, 0.0], [0.0, -1.25]], [0.0, 0.3], ActivationKind.GRADED_RELU, g12, g12,
              blocks),
        Layer([[1.0, -1.0]], [0.5], ActivationKind.IDENTITY, g12, g1),
    ]))


# the three JSON readers, each with a valid document: the benchmark's
# train_mlp config, a saved model and the benchmark's approx-bench config
_FUZZ_READERS = {
    "experiment": (experiment_config_from_dict, {
        "grading": "2,4,6,10",
        "model": {"type": "feedforward",
                  "layers": [{"grading": "1,1,2,2,3,3,4,4",
                              "activation": "signed_graded_relu"},
                             {"grading": "1", "activation": "identity"}]},
        "loss": "graded_mse",
        "optimizer": {"learning_rate": 0.01, "max_iters": 10, "momentum": 0.9,
                      "stop_threshold": 0.0, "seed": 0},
        "dataset": {"source": "invariant_proxy", "count": 256, "seed": 0},
        "out_dir": "run",
        "seed": 0,
    }),
    "model": (network_from_dict, _saved_model_doc()),
    "bench": (bench.bench_config_from_dict, {
        "grading": "2,3", "hidden_sizes": [1, 2, 4, 8, 16, 32], "restarts": 5,
        "classical_iters": 200, "graded_iters": 100, "seed": 0,
    }),
}
# the strings below "1/2" reach a grade beyond the float range and the key
# tables that model.type and dataset.source pick
_FUZZ_VALUES = (None, True, False, -1, -7, 2 ** 70, 0.5, -2.5, 1e300,
                "0,1", "", "x", "1/2", "2,1e400", "feedforward", "multiplicative", "csv",
                "monomial", "linear_map", [], [0, 1], {}, {"x": 1})


def _json_paths(doc, prefix=()):
    """The path (a tuple of keys and indices) of every value below doc."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_json_readers_raise_only_what_the_cli_maps_to_exit_2(data):
    """One or two values of a valid document set to a value of another JSON
    type, or deleted: the reader accepts the document or raises ValueError
    (ConfigError included) or GradedError, never anything else."""
    read, base = _FUZZ_READERS[data.draw(st.sampled_from(sorted(_FUZZ_READERS)))]
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(_json_paths(doc))
        if not paths:
            break
        *head, key = data.draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, head, doc)
        if data.draw(st.integers(0, len(_FUZZ_VALUES))) == len(_FUZZ_VALUES):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_VALUES)))
    try:
        read(doc)
    except (ValueError, GradedError):
        pass


@pytest.mark.parametrize("reader", sorted(_FUZZ_READERS))
def test_json_readers_survive_each_fuzz_string_at_each_path(reader):
    """The random draws above rarely set model.type or dataset.source to
    another table's name; here every value of each valid document is set to
    each string of _FUZZ_VALUES in turn, so every key table and the float
    range are reached."""
    read, base = _FUZZ_READERS[reader]
    for *head, key in _json_paths(base):
        for value in (v for v in _FUZZ_VALUES if isinstance(v, str)):
            doc = copy.deepcopy(base)
            functools.reduce(operator.getitem, head, doc)[key] = value
            try:
                read(doc)
            except (ValueError, GradedError):
                pass


# the documents that test_cli_survives_config_mutations mutates: every key
# is given, so a deleted key falls back to its default, and each accepted
# mutation runs in milliseconds
_MUTATION_BASES = {
    "feedforward": {
        "grading": "1,2",
        "model": {"type": "feedforward",
                  "layers": [{"grading": "1,2", "activation": "graded_relu"},
                             {"grading": "1", "activation": "identity"}]},
        "loss": "huber:0.5",
        "optimizer": {"learning_rate": 0.05, "momentum": 0.5, "max_iters": 3,
                      "stop_threshold": 0.0, "stop_window": 2, "seed": 1},
        "dataset": {"source": "monomial", "exponents": [2, 3], "count": 8, "seed": 2,
                    "box": [[0.5, 1.5], [0.5, 1.5]], "coefficient": 1.0},
        "out_dir": "run",
        "seed": 3,
    },
    "multiplicative": {
        "grading": "1,2",
        "model": {"type": "multiplicative", "exponents": "1/2,3"},
        "loss": "graded_mse",
        "optimizer": {"learning_rate": 0.02, "max_iters": 3},
        "dataset": {"source": "monomial", "exponents": ["1/2", 3], "count": 8,
                    "box": [[0.5, 1.5], [-1.0, 1.0]]},
        "out_dir": "run",
    },
    "approx-bench": {
        "grading": "2,3", "hidden_sizes": [1, 2], "train_count": 8, "sample_low": 0.1,
        "sample_high": 1.0, "grid_points": 4, "grid_low": 0.1, "grid_high": 1.0,
        "restarts": 2, "classical_iters": 5, "classical_learning_rate": 0.01,
        "classical_momentum": 0.9, "graded_iters": 5, "graded_learning_rate": 0.05,
        "seed": 0,
    },
}
# the replacement values by the JSON type they share with the value they
# replace.  No integer here is large: a size or an iteration count of 2**70
# would be accepted by its reader and then allocate or run for as long as
# it asks.
_MUTATION_VALUES = {
    int: (-1, 0, 1, 2, 3),
    float: (0.0, 0.5, 0.9, -2.5, 1e-300, 1e300),
    str: ("", "x", "1/2", "1,1", "2,3", "identity", "graded_exp", "cross_entropy",
          "homogeneous:by_max_grade"),
    "other": (None, True, [], [0, 1], {}, {"x": 1}),
}
_ANY_VALUE = tuple(v for values in _MUTATION_VALUES.values() for v in values)


def test_cli_survives_config_mutations(tmp_path, capsys, monkeypatch):
    """100 fixed-seed mutations of one or two leaf values of a valid train or
    approx-bench config, each value set to one of _MUTATION_VALUES or
    deleted: the command exits 0 with no error line, or 2 or 3 with exactly
    one, and every JSON artifact it leaves parses without NaN or Infinity.
    The forked child is switched off, so that every run is timed here."""
    monkeypatch.setattr(ioutil, "_usable_cpus", lambda: 1)
    rng = np.random.default_rng(12)
    names, seen = sorted(_MUTATION_BASES), set()
    for i in range(100):
        name = names[i % len(names)]
        doc, changes = copy.deepcopy(_MUTATION_BASES[name]), []
        for _ in range(int(rng.integers(1, 3))):
            leaves = [p for p in _json_paths(doc) if not isinstance(
                functools.reduce(operator.getitem, p, doc), (dict, list))]
            *head, key = leaves[rng.integers(len(leaves))]
            parent = functools.reduce(operator.getitem, head, doc)
            where = ".".join(map(str, (*head, key)))
            # three draws in four keep the JSON type, so that more configs are accepted
            values = _MUTATION_VALUES.get(type(parent[key])) if rng.random() < 0.75 else None
            pick = int(rng.integers(len(values or _ANY_VALUE) + (values is None)))
            if values is None and pick == len(_ANY_VALUE):
                del parent[key]
                changes.append("del " + where)
            else:
                parent[key] = copy.deepcopy((values or _ANY_VALUE)[pick])
                changes.append("%s=%r" % (where, parent[key]))
        run = tmp_path / ("m%03d" % i)
        run.mkdir()
        argv = [name if name == "approx-bench" else "train",
                "--config", _write_config(run / "config.json", doc)]
        if name == "approx-bench":
            argv += ["--out", str(run / "bench.csv")]
        label = "%s: %s" % (name, ", ".join(changes))
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), label
        seen.add(code)
        if code == 0:
            assert err == "", label
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, label
        artifacts = [*run.rglob("*.json"), *run.rglob("*.jsonl")]
        for artifact in artifacts:
            _strict_lines(artifact)
        if code == 0:  # the config, then metrics.jsonl and model.json or the csv
            assert len(artifacts) == 3 or (run / "bench.csv").exists(), label
    assert seen == {0, 2, 3}  # the draws reach every exit status
