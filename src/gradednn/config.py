"""Experiment configuration: JSON in, validated dataclasses out."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Tuple

from .ioutil import ConfigError, reject_unknown_keys
from .losses import LossKind, parse_loss
from .network import ActivationKind, parse_activation
from .optimizer import OptimizerConfig
from .spaces import GradedError, GradingVector, parse_grading


@dataclass
class ModelSpec:
    kind: str  # "feedforward" | "multiplicative"
    layers: List[Tuple[GradingVector, ActivationKind]] = field(default_factory=list)
    exponents: Tuple[Fraction, ...] = ()  # multiplicative only, one per coordinate


@dataclass
class DatasetSpec:
    source: str  # "csv" | "monomial" | "linear_map" | "invariant_proxy"
    params: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    grading: GradingVector
    model: ModelSpec
    loss: LossKind
    optimizer: OptimizerConfig
    dataset: DatasetSpec
    out_dir: Path
    seed: int = 0


# Keys each dataset source reads, besides "source" itself.
_DATASET_KEYS = {
    "csv": {"path"},
    "monomial": {"exponents", "box", "low", "high", "coefficient", "count", "seed"},
    "linear_map": {"count", "seed"},
    "invariant_proxy": {"count", "seed"},
}


def _need(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ConfigError("%s must be a JSON object" % where)
    if key not in doc:
        raise ConfigError("missing %r in %s" % (key, where))
    return doc[key]


def is_int(value) -> bool:
    """A JSON integer; Python's bool is an int, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def int_value(value, path: str) -> int:
    """value if it is a JSON integer, else a ConfigError naming path."""
    if is_int(value):
        return value
    raise ConfigError("%s must be an integer" % path)


def number_value(value, path: str) -> float:
    """value as a float if it is a JSON number, else a ConfigError naming path."""
    if is_int(value) or isinstance(value, float):
        return float(value)
    raise ConfigError("%s must be a number" % path)


def str_value(value, path: str) -> str:
    """value if it is a JSON string, else a ConfigError naming path."""
    if isinstance(value, str):
        return value
    raise ConfigError("%s must be a string" % path)


def _exponents(value, n: int) -> Tuple[Fraction, ...]:
    """model.exponents: n nonnegative rationals in a string such as "2,1/2"."""
    text = str_value(value, "model.exponents")
    try:
        ks = tuple(Fraction(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError):
        ks = ()
    if len(ks) != n or min(ks) < 0:
        raise ConfigError("model.exponents must be %d nonnegative rationals such "
                          "as \"%s\"" % (n, ",".join(["2"] * n)))
    return ks


def experiment_config_from_dict(doc: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    try:
        grading = parse_grading(_need(doc, "grading", "config"))
    except (ValueError, GradedError) as exc:
        raise ConfigError("bad grading: %s" % exc) from None
    reject_unknown_keys(
        doc, {"grading", "model", "loss", "optimizer", "dataset", "out_dir", "seed"}, "")

    mdoc = _need(doc, "model", "config")
    kind = _need(mdoc, "type", "model")
    if kind == "feedforward":
        reject_unknown_keys(mdoc, {"type", "layers"}, "model.")
        layers = []
        for i, ldoc in enumerate(_need(mdoc, "layers", "model")):
            where = "model.layers[%d]" % i
            try:
                g = parse_grading(_need(ldoc, "grading", where))
                act = parse_activation(_need(ldoc, "activation", where))
            except (ValueError, GradedError) as exc:
                raise ConfigError("%s: %s" % (where, exc)) from None
            reject_unknown_keys(ldoc, {"grading", "activation"}, where + ".")
            layers.append((g, act))
        if not layers:
            raise ConfigError("feedforward model needs at least one layer")
        model = ModelSpec(kind="feedforward", layers=layers)
    elif kind == "multiplicative":
        reject_unknown_keys(mdoc, {"type", "exponents"}, "model.")
        model = ModelSpec(kind="multiplicative",
                          exponents=_exponents(_need(mdoc, "exponents", "model"), len(grading)))
    else:
        raise ConfigError("unknown model type %r" % kind)

    loss_name = str_value(_need(doc, "loss", "config"), "loss")
    try:
        loss = parse_loss(loss_name)
    except ValueError as exc:
        raise ConfigError("bad loss: %s" % exc) from None

    seed = int_value(doc.get("seed", 0), "seed")
    odoc = _need(doc, "optimizer", "config")
    settings = dict(
        learning_rate=number_value(_need(odoc, "learning_rate", "optimizer"),
                                   "optimizer.learning_rate"),
        momentum=number_value(odoc.get("momentum", 0.0), "optimizer.momentum"),
        max_iters=int_value(_need(odoc, "max_iters", "optimizer"), "optimizer.max_iters"),
        stop_threshold=number_value(odoc.get("stop_threshold", 0.0),
                                    "optimizer.stop_threshold"),
        stop_window=int_value(odoc.get("stop_window", 10), "optimizer.stop_window"),
        seed=int_value(odoc.get("seed", seed), "optimizer.seed"),
    )
    try:
        optimizer = OptimizerConfig(**settings)
    except ValueError as exc:
        raise ConfigError("bad optimizer settings: %s" % exc) from None
    reject_unknown_keys(odoc, {"learning_rate", "momentum", "max_iters", "stop_threshold",
                               "stop_window", "seed"}, "optimizer.")
    if model.kind == "multiplicative":
        # The multiplicative neuron trains by plain descent for max_iters steps.
        if optimizer.momentum != 0.0:
            raise ConfigError("optimizer.momentum must be 0 for a multiplicative model")
        if optimizer.stop_threshold > 0.0:
            raise ConfigError("optimizer.stop_threshold must be 0 for a multiplicative model")

    ddoc = _need(doc, "dataset", "config")
    source = _need(ddoc, "source", "dataset")
    if not isinstance(source, str) or source not in _DATASET_KEYS:
        raise ConfigError("unknown dataset source %r" % source)
    reject_unknown_keys(ddoc, _DATASET_KEYS[source] | {"source"}, "dataset.")
    params = {k: v for k, v in ddoc.items() if k != "source"}
    for key in ("count", "seed"):
        if key in params:
            params[key] = int_value(params[key], "dataset." + key)
    for key in ("low", "high", "coefficient"):
        if key in params:
            params[key] = number_value(params[key], "dataset." + key)
    if "box" in params:
        box = params["box"]
        if not (isinstance(box, list)
                and all(isinstance(pair, list) and len(pair) == 2 for pair in box)):
            raise ConfigError("dataset.box must be a list of [low, high] pairs")
        params["box"] = [[number_value(v, "dataset.box[%d]" % i) for v in pair]
                         for i, pair in enumerate(box)]
    if source == "csv":
        if "path" not in params:
            raise ConfigError("csv dataset needs a path")
        params["path"] = str(base_dir / str_value(params["path"], "dataset.path"))

    out_dir = Path(str_value(doc.get("out_dir", "."), "out_dir"))
    if not out_dir.is_absolute():
        out_dir = base_dir / out_dir

    return ExperimentConfig(
        grading=grading,
        model=model,
        loss=loss,
        optimizer=optimizer,
        dataset=DatasetSpec(source=source, params=params),
        out_dir=out_dir,
        seed=seed,
    )


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc)) from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return experiment_config_from_dict(doc, base_dir=path.parent)
