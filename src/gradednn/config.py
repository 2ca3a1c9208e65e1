"""Experiment configuration: JSON in, validated dataclasses out."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from .ioutil import (
    ConfigError,
    int_value,
    is_int,
    number_value,
    reject_unknown_keys,
    str_value,
)
from .losses import LossKind, parse_loss
from .network import ActivationKind, parse_activation, parse_exponents
from .optimizer import OptimizerConfig
from .spaces import GradedError, GradingVector, ones_grading, parse_grading


@dataclass
class ModelSpec:
    layers: List[Tuple[GradingVector, ActivationKind]]
    exponents: Optional[Tuple[Fraction, ...]] = None  # a multiplicative first layer's


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


def _dataset_exponents(value, n: int) -> Tuple[Fraction, ...]:
    """dataset.exponents: a list of n rationals, each a JSON number or a
    string such as "1/2"."""
    ks = ()
    if isinstance(value, list) and not any(isinstance(v, bool) for v in value):
        try:
            ks = tuple(Fraction(str(v)) for v in value)
        except (ValueError, ZeroDivisionError):
            pass
    if len(ks) != n:
        raise ConfigError("dataset.exponents must be a list of %d rationals such as %s"
                          % (n, list(range(2, n + 2))))
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
        ldocs = _need(mdoc, "layers", "model")
        if not isinstance(ldocs, list):
            raise ConfigError("model.layers must be a list of layer objects")
        layers = []
        for i, ldoc in enumerate(ldocs):
            where = "model.layers[%d]" % i
            text = _need(ldoc, "grading", where)
            name = str_value(_need(ldoc, "activation", where), where + ".activation")
            try:
                g = parse_grading(text)
                act = parse_activation(name)
            except (ValueError, GradedError) as exc:
                raise ConfigError("%s: %s" % (where, exc)) from None
            reject_unknown_keys(ldoc, {"grading", "activation"}, where + ".")
            layers.append((g, act))
        if not layers:
            raise ConfigError("feedforward model needs at least one layer")
        model = ModelSpec(layers=layers)
    elif kind == "multiplicative":
        # one product neuron: a multiplicative identity layer to grade 1
        reject_unknown_keys(mdoc, {"type", "exponents"}, "model.")
        exponents = parse_exponents(_need(mdoc, "exponents", "model"), len(grading),
                                    "model.exponents")
        model = ModelSpec(layers=[(ones_grading(1), ActivationKind.IDENTITY)],
                          exponents=exponents)
    else:
        raise ConfigError("unknown model type %r" % kind)

    loss_name = str_value(_need(doc, "loss", "config"), "loss")
    try:
        loss = parse_loss(loss_name)
    except ValueError as exc:
        raise ConfigError("bad loss: %s" % exc) from None

    seed = int_value(doc.get("seed", 0), "seed", low=0)
    odoc = _need(doc, "optimizer", "config")
    settings = dict(
        learning_rate=number_value(_need(odoc, "learning_rate", "optimizer"),
                                   "optimizer.learning_rate"),
        momentum=number_value(odoc.get("momentum", 0.0), "optimizer.momentum"),
        max_iters=int_value(_need(odoc, "max_iters", "optimizer"), "optimizer.max_iters"),
        stop_threshold=number_value(odoc.get("stop_threshold", 0.0),
                                    "optimizer.stop_threshold"),
        stop_window=int_value(odoc.get("stop_window", 10), "optimizer.stop_window"),
        seed=int_value(odoc.get("seed", seed), "optimizer.seed", low=0),
    )
    try:
        optimizer = OptimizerConfig(**settings)
    except ValueError as exc:
        raise ConfigError("bad optimizer settings: %s" % exc) from None
    reject_unknown_keys(odoc, {"learning_rate", "momentum", "max_iters", "stop_threshold",
                               "stop_window", "seed"}, "optimizer.")

    ddoc = _need(doc, "dataset", "config")
    source = _need(ddoc, "source", "dataset")
    if not isinstance(source, str) or source not in _DATASET_KEYS:
        raise ConfigError("unknown dataset source %r" % source)
    reject_unknown_keys(ddoc, _DATASET_KEYS[source] | {"source"}, "dataset.")
    params = {k: v for k, v in ddoc.items() if k != "source"}
    for key in ("count", "seed"):
        if key in params:
            params[key] = int_value(params[key], "dataset." + key, low=0)
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
        if len(box) != len(grading):
            raise ConfigError("dataset.box must hold %d [low, high] pairs, one per "
                              "coordinate" % len(grading))
    if source == "monomial":
        if "exponents" not in params:
            raise ConfigError("monomial dataset needs exponents")
        params["exponents"] = _dataset_exponents(params["exponents"], len(grading))
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
