"""Experiment configuration: JSON in, validated dataclasses out."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from .ioutil import (
    ConfigError,
    grading_value,
    int_value,
    number_value,
    parsed,
    read_object,
    str_value,
)
from .losses import LossKind, parse_loss
from .network import ActivationKind, activation_kind, parse_exponents
from .optimizer import OptimizerConfig
from .spaces import GradedError, GradingVector, _as_fraction, ones_grading


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


_nonnegative = functools.partial(int_value, low=0)  # seeds and counts


def _key_table(doc, key: str, tables: dict, path: str) -> dict:
    """The key table doc[key] picks, else one that reports a non-object or no key."""
    if not (isinstance(doc, dict) and key in doc):
        return {key: (True, None)}
    if not (isinstance(doc[key], str) and doc[key] in tables):
        raise ConfigError("unknown %s.%s %r" % (path, key, doc[key]))
    return tables[doc[key]]


# the message names the layer, not its grading key
_LAYER_KEYS = {"grading": (True, lambda v, path: grading_value(v, path.rpartition(".")[0])),
               "activation": (True, activation_kind)}


def _layers(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError("%s must be a list of layer objects" % path)
    layers = [read_object(doc, _LAYER_KEYS, "%s[%d]" % (path, i))
              for i, doc in enumerate(value)]
    return [(layer["grading"], layer["activation"]) for layer in layers]


def _box(value, path: str) -> list:
    if not (isinstance(value, list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in value)):
        raise ConfigError("%s must be a list of [low, high] pairs" % path)
    return [[number_value(v, "%s[%d]" % (path, i)) for v in pair]
            for i, pair in enumerate(value)]


# model.exponents and dataset.exponents are counted against the grading
_MODEL_KEYS = {"feedforward": {"type": (True, None), "layers": (True, _layers)},
               "multiplicative": {"type": (True, None), "exponents": (True, None)}}
_OPTIMIZER_KEYS = {"learning_rate": (True, number_value), "momentum": (False, number_value),
                   "max_iters": (True, int_value), "stop_threshold": (False, number_value),
                   "stop_window": (False, int_value), "seed": (False, _nonnegative)}
_SAMPLES = {"source": (True, None), "count": (False, _nonnegative),
            "seed": (False, _nonnegative)}
_DATASET_KEYS = {
    "csv": {"source": (True, None), "path": (True, str_value)},
    "monomial": {**_SAMPLES, "exponents": (False, None), "box": (False, _box),
                 "low": (False, number_value), "high": (False, number_value),
                 "coefficient": (False, number_value)},
    "linear_map": _SAMPLES,
    "invariant_proxy": _SAMPLES,
}
_CONFIG_KEYS = {
    "grading": (True, lambda v, path: grading_value(v, "bad grading")),
    "model": (True, lambda v, path: read_object(
        v, _key_table(v, "type", _MODEL_KEYS, path), path)),
    "loss": (True, lambda v, path: parsed(path, parse_loss, str_value(v, path))),
    "optimizer": (True, lambda v, path: read_object(v, _OPTIMIZER_KEYS, path)),
    "dataset": (True, lambda v, path: read_object(
        v, _key_table(v, "source", _DATASET_KEYS, path), path)),
    "out_dir": (False, str_value),
    "seed": (False, _nonnegative),
}


def _dataset_exponents(value, n: int) -> Tuple[Fraction, ...]:
    """dataset.exponents: a list of n rationals that fit a float64, each a
    JSON number or a string such as "1/2"."""
    ks = ()
    if isinstance(value, list) and not any(isinstance(v, bool) for v in value):
        try:
            ks = tuple(_as_fraction(str(v)) for v in value)
            for k in ks:
                float(k)  # an integer such as 10**400 raises only here
        except (ValueError, OverflowError, GradedError):
            ks = ()
    if len(ks) != n:
        raise ConfigError("dataset.exponents must be a list of %d rationals such as %s"
                          % (n, list(range(2, n + 2))))
    return ks


def experiment_config_from_dict(doc: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    top = read_object(doc, _CONFIG_KEYS, "", "config root")
    grading, mdoc, params = top["grading"], top["model"], top["dataset"]
    if mdoc["type"] == "feedforward":
        if not mdoc["layers"]:
            raise ConfigError("model.layers must hold at least one layer")
        model = ModelSpec(layers=mdoc["layers"])
    else:
        # one product neuron: a multiplicative identity layer to grade 1
        model = ModelSpec(layers=[(ones_grading(1), ActivationKind.IDENTITY)],
                          exponents=parse_exponents(mdoc["exponents"], len(grading),
                                                    "model.exponents"))

    seed = top.get("seed", 0)
    optimizer = parsed("optimizer", OptimizerConfig, **{"seed": seed, **top["optimizer"]})

    source = params.pop("source")
    if "box" in params and len(params["box"]) != len(grading):
        raise ConfigError("dataset.box must hold %d [low, high] pairs, one per "
                          "coordinate" % len(grading))
    if source == "monomial":
        if "exponents" not in params:
            raise ConfigError("monomial dataset needs exponents")
        params["exponents"] = _dataset_exponents(params["exponents"], len(grading))
    if source == "csv":
        params["path"] = str(base_dir / params["path"])

    out_dir = Path(top.get("out_dir", "."))
    if not out_dir.is_absolute():
        out_dir = base_dir / out_dir

    return ExperimentConfig(
        grading=grading,
        model=model,
        loss=top["loss"],
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
    return experiment_config_from_dict(doc, base_dir=path.parent)
