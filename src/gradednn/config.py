"""Experiment configuration: JSON in, validated dataclasses out."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from .datasets import (Dataset, gen_invariant_proxy_dataset, gen_linear_map_dataset,
                       gen_monomial_dataset, read_dataset_csv)
from .ioutil import (
    ConfigError,
    grading_value,
    int_value,
    list_value,
    number_value,
    parsed,
    read_json,
    read_object,
    str_value,
)
from .losses import LossKind, parse_loss
from .network import ActivationKind, activation_kind, parse_exponents
from .optimizer import OptimizerConfig
from .spaces import FloatRangeError, GradedError, GradingVector, _as_fraction, ones_grading


@dataclass
class ModelSpec:
    layers: List[Tuple[GradingVector, ActivationKind]]
    exponents: Optional[Tuple[Fraction, ...]] = None  # a multiplicative first layer's


@dataclass
class DatasetSpec:
    source: str  # "csv" | "monomial" | "linear_map" | "invariant_proxy"
    params: dict  # exactly the arguments its generator takes


@dataclass
class ExperimentConfig:
    grading: GradingVector
    model: ModelSpec
    loss: LossKind
    optimizer: OptimizerConfig
    dataset: DatasetSpec
    out_dir: Path


_nonnegative = functools.partial(int_value, low=0)  # seeds


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


def _layer(doc, path: str) -> Tuple[GradingVector, ActivationKind]:
    layer = read_object(doc, _LAYER_KEYS, path)
    return layer["grading"], layer["activation"]


def _rational(value, path: str) -> Fraction:
    """A JSON number or a string such as "1/2", as a Fraction that fits a
    float64; the text of true, null, a list or an object is no rational."""
    try:
        k = _as_fraction(str(value))
        float(k)  # an integer such as 10**400 raises only here
        return k
    except (FloatRangeError, OverflowError):
        raise ConfigError("%s: an exponent does not fit a float64" % path) from None
    except (ValueError, GradedError):
        raise ConfigError('%s must be a rational such as 2 or "1/2"' % path) from None


# model.exponents and dataset.exponents are counted against the grading
_MODEL_KEYS = {"feedforward": {"type": (True, None),
                               "layers": (True, lambda v, path: list_value(v, path, _layer))},
               "multiplicative": {"type": (True, None), "exponents": (True, None)}}
_OPTIMIZER_KEYS = {"learning_rate": (True, number_value), "momentum": (False, number_value),
                   "max_iters": (True, int_value), "stop_threshold": (False, number_value),
                   "stop_window": (False, int_value), "seed": (False, _nonnegative)}
_SAMPLES = {"source": (True, None), "count": (False, functools.partial(int_value, low=1)),
            "seed": (False, _nonnegative)}
_DATASET_KEYS = {
    "csv": {"source": (True, None), "path": (True, str_value)},
    "monomial": {**_SAMPLES, "exponents": (True, None),
                 "box": (False, lambda v, path: list_value(
                     v, path, lambda pair, p: list_value(pair, p, number_value, 2))),
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


def _dataset_spec(params: dict, grading: GradingVector, model: ModelSpec, seed: int,
                  base_dir: Path) -> DatasetSpec:
    """The dataset section as exactly the arguments its generator takes, with
    every default filled in and every cross-key rule checked."""
    source, n = params["source"], len(grading)
    if source == "csv":
        return DatasetSpec(source, {"path": str(base_dir / params["path"])})
    resolved = {"count": params.get("count", 256), "seed": params.get("seed", seed)}
    # a multiplicative model's one output is scalar, so only a feedforward
    # model's last layer can break a scalar-target rule
    scalar = len(model.layers[-1][0]) == 1
    out_key = "model.layers[%d].grading" % (len(model.layers) - 1)
    if source == "linear_map" and any(g != 1 for g in grading.grades):
        raise ConfigError("grading: linear_map datasets use the all-ones input grading")
    if source == "invariant_proxy" and not scalar:
        raise ConfigError("%s: invariant_proxy targets are scalar" % out_key)
    if source != "monomial":
        return DatasetSpec(source, resolved)
    box = params.get("box", [[0.1, 2.0]] * n)
    if len(box) != n:
        raise ConfigError("dataset.box must hold %d [low, high] pairs, one per "
                          "coordinate" % n)
    for i, (lo, hi) in enumerate(box):
        if lo >= hi:
            raise ConfigError("dataset.box[%d] must have low < high" % i)
    exponents = tuple(list_value(params["exponents"], "dataset.exponents", _rational, n))
    for i, (k, (lo, _)) in enumerate(zip(exponents, box)):
        if k.denominator != 1 and lo <= 0:
            raise ConfigError("dataset.box[%d]: fractional exponent %s needs a positive "
                              "sampling box" % (i, k))
    if not scalar:
        raise ConfigError("%s: monomial targets are scalar; model output must be "
                          "1-dim" % out_key)
    return DatasetSpec(source, {"exponents": exponents,
                                "coefficient": params.get("coefficient", 1.0),
                                "box": box, **resolved})


def experiment_config_from_dict(doc: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    top = read_object(doc, _CONFIG_KEYS, "", "config root")
    grading, mdoc = top["grading"], top["model"]
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
    dataset = _dataset_spec(top["dataset"], grading, model, seed, base_dir)

    out_dir = Path(top.get("out_dir", "."))
    if not out_dir.is_absolute():
        out_dir = base_dir / out_dir

    return ExperimentConfig(grading=grading, model=model, loss=top["loss"],
                            optimizer=optimizer, dataset=dataset, out_dir=out_dir)


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    return experiment_config_from_dict(read_json(path, "config"), base_dir=path.parent)


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    """The Dataset of cfg: its source's generator called on the resolved params."""
    p, out_grading = cfg.dataset.params, cfg.model.layers[-1][0]
    if cfg.dataset.source == "csv":
        try:
            return read_dataset_csv(in_grading=cfg.grading, out_grading=out_grading, **p)
        except OSError as exc:
            raise ConfigError("dataset.path: cannot read dataset file %s: %s"
                              % (p["path"], exc)) from None
    if cfg.dataset.source == "monomial":
        return parsed("dataset.exponents", gen_monomial_dataset, cfg.grading, **p)
    if cfg.dataset.source == "linear_map":
        return gen_linear_map_dataset(len(cfg.grading), out_grading, **p)[0]
    return gen_invariant_proxy_dataset(cfg.grading, **p)
