"""Grade-aware neurons, activations, layers and networks.

An additive neuron computes sum_i sgn(w_i)|w_i|**q_i * x_i + b, so the weight
exponent follows the grade of the *input* coordinate.  Activations take the
grade of the coordinate they produce.  A multiplicative neuron computes
prod_i sgn(x_i)**k_i |w_i x_i|**k_i + b, graded-homogeneous of degree
sum_i q_i k_i; every caller takes its value and weight gradient from the
batched multiplicative_sign/_core/_slope kernel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .ioutil import ConfigError, dumps17, reject_unknown_keys
from .spaces import (
    GradedDomainError,
    GradedError,
    GradedVector,
    GradingMismatchError,
    GradingVector,
    _as_fraction,
    parse_grading,
)

# inputs this close to zero are treated as zero by the graded ReLU family;
# keeps |z|**(1/q - 1) factors from blowing up in backprop
CLAMP = 1e-10


class NonFiniteForwardError(GradedError):
    """Raised when a forward pass produces NaN or infinity."""


class ActivationKind(Enum):
    GRADED_RELU = "graded_relu"
    SIGNED_GRADED_RELU = "signed_graded_relu"
    GRADED_EXP = "graded_exp"
    CLASSICAL_RELU = "classical_relu"
    IDENTITY = "identity"


def parse_activation(text: str) -> ActivationKind:
    try:
        return ActivationKind(text.strip().lower())
    except ValueError:
        raise ValueError("unknown activation %r" % text) from None


def activation_value(kind: ActivationKind, z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Apply an activation elementwise; q is the grading of the outputs."""
    z = np.asarray(z, dtype=float)
    if kind is ActivationKind.GRADED_RELU:
        # unsigned variant: |z|**(1/q); positive even for negative inputs
        return np.where(np.abs(z) <= CLAMP, 0.0, np.abs(z) ** (1.0 / q))
    if kind is ActivationKind.SIGNED_GRADED_RELU:
        safe = np.where(z > CLAMP, z, 1.0)
        return np.where(z > CLAMP, safe ** (1.0 / q), 0.0)
    if kind is ActivationKind.GRADED_EXP:
        return np.expm1(z / q)
    if kind is ActivationKind.CLASSICAL_RELU:
        return np.maximum(z, 0.0)
    if kind is ActivationKind.IDENTITY:
        return z + 0.0
    raise ValueError("unknown activation kind %r" % kind)


def activation_slope(kind: ActivationKind, z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise derivative of activation_value with respect to z.

    Inside the clamp band the graded ReLU family is flat, so the derivative
    there is 0 by convention.
    """
    z = np.asarray(z, dtype=float)
    if kind is ActivationKind.GRADED_RELU:
        safe = np.where(np.abs(z) <= CLAMP, 1.0, np.abs(z))
        return np.where(
            np.abs(z) <= CLAMP, 0.0, np.sign(z) * (1.0 / q) * safe ** (1.0 / q - 1.0)
        )
    if kind is ActivationKind.SIGNED_GRADED_RELU:
        safe = np.where(z > CLAMP, z, 1.0)
        return np.where(z > CLAMP, (1.0 / q) * safe ** (1.0 / q - 1.0), 0.0)
    if kind is ActivationKind.GRADED_EXP:
        return np.exp(z / q) / q
    if kind is ActivationKind.CLASSICAL_RELU:
        return np.where(z > 0.0, 1.0, 0.0)
    if kind is ActivationKind.IDENTITY:
        return np.ones_like(z)
    raise ValueError("unknown activation kind %r" % kind)


def graded_relu(x: GradedVector, signed: bool = False) -> GradedVector:
    kind = ActivationKind.SIGNED_GRADED_RELU if signed else ActivationKind.GRADED_RELU
    return x.with_values(activation_value(kind, x.values, x.grading.floats))


def graded_exp(x: GradedVector) -> GradedVector:
    return x.with_values(
        activation_value(ActivationKind.GRADED_EXP, x.values, x.grading.floats)
    )


def effective_weights(weight_base: np.ndarray, in_grading: GradingVector) -> np.ndarray:
    """sgn(w)|w|**q_i with the exponent taken from the input coordinate."""
    q = in_grading.floats
    return np.sign(weight_base) * np.abs(weight_base) ** q


def weight_base_slope(weight_base: np.ndarray, in_grading: GradingVector) -> np.ndarray:
    """d(effective)/d(base) = q|w|**(q-1); at w=0 it is 1 for q=1, else 0."""
    q = in_grading.floats
    nz = weight_base != 0.0
    safe = np.where(nz, np.abs(weight_base), 1.0)
    at_zero = np.broadcast_to(np.where(q == 1.0, 1.0, 0.0), weight_base.shape)
    return np.where(nz, q * safe ** (q - 1.0), at_zero)


@dataclass
class AdditiveNeuron:
    """weights and bias of a single graded additive unit."""

    weights: np.ndarray
    bias: float
    grading: GradingVector

    def __post_init__(self):
        self.weights = np.array(self.weights, dtype=float)
        self.bias = float(self.bias)
        if self.weights.ndim != 1 or self.weights.shape[0] != len(self.grading):
            raise GradingMismatchError("weight length does not match grading")


def additive_forward(neuron: AdditiveNeuron, x: GradedVector) -> float:
    if x.grading != neuron.grading:
        raise GradingMismatchError("input grading does not match neuron grading")
    eff = effective_weights(neuron.weights, neuron.grading)
    return float(np.dot(eff, x.values) + neuron.bias)


@dataclass
class MultiplicativeNeuron:
    """prod_i sgn(x_i)**k_i |w_i x_i|**k_i plus a bias.

    The sign factor keeps the sign of x_i for odd integer k_i; fractional
    k_i are only defined on x_i > 0 (see multiplicative_sign).
    """

    weights: np.ndarray
    exponents: tuple
    bias: float
    grading: GradingVector

    def __post_init__(self):
        self.weights = np.array(self.weights, dtype=float)
        self.bias = float(self.bias)
        self.exponents = tuple(_as_fraction(k) for k in self.exponents)
        n = len(self.grading)
        if self.weights.shape != (n,) or len(self.exponents) != n:
            raise GradingMismatchError("weights/exponents length does not match grading")
        for k in self.exponents:
            if k < 0:
                raise GradedDomainError("multiplicative exponents must be >= 0")

    @property
    def degree(self) -> Fraction:
        """Graded homogeneity degree sum_i q_i k_i."""
        return sum(
            (q * k for q, k in zip(self.grading.grades, self.exponents)),
            Fraction(0),
        )

    @property
    def exponent_floats(self) -> np.ndarray:
        return np.array([float(k) for k in self.exponents])


def multiplicative_sign(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sgn(x_i)**k_i for each entry of the inputs x (N, n): -1 where an odd
    integer k_i meets a negative x_i, else 1.  A fractional k_i needs every
    x_i > 0 and raises GradedDomainError otherwise; k_i = 0 accepts any x_i."""
    if np.any((k != np.round(k)) & np.any(x <= 0.0, axis=0)):
        raise GradedDomainError("fractional exponents need positive inputs")
    return np.where((x < 0.0) & (np.mod(k, 2.0) == 1.0), -1.0, 1.0)


def multiplicative_core(w: np.ndarray, k: np.ndarray, x: np.ndarray,
                        sign: np.ndarray) -> np.ndarray:
    """The neuron without its bias, prod_i sign_i |w_i x_i|**k_i, for each
    row of x (N, n) with sign = multiplicative_sign(k, x): weights (n,) give
    (N,), a stack of R neurons (R, n) gives (R, N)."""
    terms = w[..., None, :] * x
    np.abs(terms, out=terms)
    terms **= k
    terms *= sign
    return np.prod(terms, axis=-1)


def multiplicative_slope(w: np.ndarray, k: np.ndarray, core: np.ndarray) -> np.ndarray:
    """d core / d w_i = k_i core sgn(w_i)/|w_i|, shape core.shape + (n,).

    It is 0 where |w_i| < 1e-12: the true slope at w_i = 0 for k_i > 1 or
    k_i = 0, and the convention at the kink or cusp that k_i <= 1 has there.
    """
    safe = np.where(np.abs(w) < 1e-12, np.inf, np.abs(w))
    return core[..., None] * (k * np.sign(w) / safe)[..., None, :]


def multiplicative_forward(neuron: MultiplicativeNeuron, x: GradedVector) -> float:
    if x.grading != neuron.grading:
        raise GradingMismatchError("input grading does not match neuron grading")
    k, xs = neuron.exponent_floats, x.values[np.newaxis]
    core = multiplicative_core(neuron.weights, k, xs, multiplicative_sign(k, xs))
    return float(core[0] + neuron.bias)


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as (sign, log|value|); sign 0 encodes exact zero."""

    sign: float
    log_magnitude: float

    @property
    def value(self) -> float:
        if self.sign == 0.0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)


def signed_log_sum(terms) -> SignedLog:
    """Sum of signed log-domain terms via a max-shifted exponential sum."""
    terms = [(s, lm) for s, lm in terms if s != 0.0 and lm != -math.inf]
    if not terms:
        return SignedLog(0.0, -math.inf)
    shift = max(lm for _, lm in terms)
    total = sum(s * math.exp(lm - shift) for s, lm in terms)
    if total == 0.0:
        return SignedLog(0.0, -math.inf)
    return SignedLog(math.copysign(1.0, total), shift + math.log(abs(total)))


def _log_abs(v: float) -> float:
    return math.log(abs(v)) if v != 0.0 else -math.inf


def log_domain_forward(neuron, x: GradedVector) -> SignedLog:
    """Evaluate a neuron in the log domain.

    Each additive term contributes log|w**q x| = q log|w| + log|x| with its
    sign tracked separately, so the result stays finite even when the direct
    evaluation would overflow.
    """
    if x.grading != neuron.grading:
        raise GradingMismatchError("input grading does not match neuron grading")
    if isinstance(neuron, AdditiveNeuron):
        terms = []
        for w, q, xi in zip(neuron.weights, neuron.grading.floats, x.values):
            if w == 0.0 or xi == 0.0:
                continue
            terms.append(
                (np.sign(w) * np.sign(xi), q * _log_abs(w) + _log_abs(xi))
            )
        terms.append((np.sign(neuron.bias), _log_abs(neuron.bias)))
        return signed_log_sum(terms)
    if isinstance(neuron, MultiplicativeNeuron):
        k, w, xs = neuron.exponent_floats, neuron.weights, x.values
        sign = float(np.prod(multiplicative_sign(k, xs[np.newaxis])))
        on = k != 0.0
        if np.any(w[on] == 0.0) or np.any(xs[on] == 0.0):
            sign, logmag = 0.0, -math.inf
        else:
            logs = np.log(np.abs(w[on])) + np.log(np.abs(xs[on]))
            logmag = float(np.sum(k[on] * logs))
        return signed_log_sum(
            [(sign, logmag), (np.sign(neuron.bias), _log_abs(neuron.bias))]
        )
    raise TypeError("log_domain_forward expects an additive or multiplicative neuron")


@dataclass(frozen=True)
class GradeBlock:
    """Half-open row/column ranges whose coordinates all share one grade."""

    grade: Fraction
    rows: tuple
    cols: tuple


class Layer:
    """Dense graded layer: y_j = g_j(sum_i sgn(w_ji)|w_ji|**q_i x_i + b_j).

    The weight exponent uses the input grading, the activation the output
    grading.  An optional block structure restricts the nonzero pattern to
    same-grade row/column ranges; training and evaluation then only touch
    in-block entries.
    """

    def __init__(
        self,
        weight_base: np.ndarray,
        bias: np.ndarray,
        activation: ActivationKind,
        in_grading: GradingVector,
        out_grading: GradingVector,
        blocks: Optional[Sequence[GradeBlock]] = None,
    ):
        self.weight_base = np.array(weight_base, dtype=float)
        self.bias = np.array(bias, dtype=float)
        self.activation = activation
        self.in_grading = in_grading
        self.out_grading = out_grading
        n_out, n_in = len(out_grading), len(in_grading)
        if self.weight_base.shape != (n_out, n_in):
            raise GradingMismatchError(
                "weight shape %s does not match (%d, %d)"
                % (self.weight_base.shape, n_out, n_in)
            )
        if self.bias.shape != (n_out,):
            raise GradingMismatchError("bias length does not match output grading")
        self.blocks = tuple(blocks) if blocks is not None else None
        self._mask = self._validate_blocks() if self.blocks is not None else None

    def _validate_blocks(self) -> np.ndarray:
        mask = np.zeros(self.weight_base.shape, dtype=bool)
        for blk in self.blocks:
            r0, r1 = blk.rows
            c0, c1 = blk.cols
            if not (0 <= r0 <= r1 <= len(self.out_grading)):
                raise GradingMismatchError("block row range out of bounds")
            if not (0 <= c0 <= c1 <= len(self.in_grading)):
                raise GradingMismatchError("block column range out of bounds")
            g = _as_fraction(blk.grade)
            for i in range(r0, r1):
                if self.out_grading.grades[i] != g:
                    raise GradingMismatchError(
                        "block grade %s does not match output coordinate %d" % (g, i)
                    )
            for j in range(c0, c1):
                if self.in_grading.grades[j] != g:
                    raise GradingMismatchError(
                        "block grade %s does not match input coordinate %d" % (g, j)
                    )
            mask[r0:r1, c0:c1] = True
        if np.any(self.weight_base[~mask] != 0.0):
            raise GradingMismatchError(
                "weight entries outside the declared blocks must be zero"
            )
        return mask

    @property
    def mask(self) -> Optional[np.ndarray]:
        return self._mask

    @property
    def n_in(self) -> int:
        return len(self.in_grading)

    @property
    def n_out(self) -> int:
        return len(self.out_grading)

    def effective(self, weight_base: Optional[np.ndarray] = None) -> np.ndarray:
        """Masked effective weights of the layer's base weights, or of a
        stack (..., n_out, n_in) of other base weights for this layer."""
        w = self.weight_base if weight_base is None else weight_base
        eff = effective_weights(w, self.in_grading)
        if self._mask is not None:
            eff = np.where(self._mask, eff, 0.0)
        return eff

    def copy(self) -> "Layer":
        return Layer(
            self.weight_base.copy(),
            self.bias.copy(),
            self.activation,
            self.in_grading,
            self.out_grading,
            self.blocks,
        )


class Network:
    """A chain of graded layers; adjacent gradings must match exactly."""

    def __init__(self, layers: Sequence[Layer]):
        self.layers = tuple(layers)
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_grading != nxt.in_grading:
                raise GradingMismatchError(
                    "output grading of one layer must equal the input grading "
                    "of the next"
                )

    @property
    def in_grading(self) -> Optional[GradingVector]:
        return self.layers[0].in_grading if self.layers else None

    @property
    def out_grading(self) -> Optional[GradingVector]:
        return self.layers[-1].out_grading if self.layers else None

    def copy(self) -> "Network":
        return Network([l.copy() for l in self.layers])

    def parameters(self):
        """Yields (layer_index, name, array) for in-place updates."""
        for i, layer in enumerate(self.layers):
            yield i, "weight_base", layer.weight_base
            yield i, "bias", layer.bias


def forward_trace(net: Network, x: np.ndarray):
    """Unchecked per-layer (input, pre-activation, output) triples and the
    output, for one sample x of shape (n,), a batch (N, n) with one sample
    per row, or a stack (..., N, n) of batches."""
    trace = []
    cur = np.asarray(x, dtype=float)
    for layer in net.layers:
        z = cur @ layer.effective().T + layer.bias
        y = activation_value(layer.activation, z, layer.out_grading.floats)
        trace.append((cur, z, y))
        cur = y
    return trace, cur


def raise_if_non_finite(trace, out: np.ndarray) -> None:
    """Raise NonFiniteForwardError naming the first offending layer."""
    if np.isfinite(out).all():
        return
    for i, (_, z, y) in enumerate(trace):
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
            raise NonFiniteForwardError(
                "layer %d produced non-finite values; consider log-domain "
                "evaluation for large magnitudes" % i
            )
    raise NonFiniteForwardError("forward pass produced non-finite values")


def network_forward(net: Network, x: GradedVector) -> GradedVector:
    """Evaluate the network; the empty network is the identity map."""
    if not net.layers:
        return x
    if x.grading != net.in_grading:
        raise GradingMismatchError("input grading does not match the first layer")
    trace, out = forward_trace(net, x.values)
    raise_if_non_finite(trace, out)
    return GradedVector(out, net.out_grading)


def random_network(
    gradings: Sequence[GradingVector],
    activations: Sequence[ActivationKind],
    rng: np.random.Generator,
    low: float = 0.2,
    high: float = 0.9,
) -> Network:
    """Fresh network with weights uniform in [low, high) and zero biases."""
    if len(activations) != len(gradings) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for l, act in enumerate(activations):
        n_in, n_out = len(gradings[l]), len(gradings[l + 1])
        w = rng.uniform(low, high, size=(n_out, n_in))
        layers.append(Layer(w, np.zeros(n_out), act, gradings[l], gradings[l + 1]))
    return Network(layers)


# --- serialization ---------------------------------------------------------
# floats are written with 17 significant digits, which round-trips float64
# bit-exactly


def network_to_dict(net: Network) -> dict:
    gradings = []
    if net.layers:
        gradings.append(net.layers[0].in_grading.as_text())
        gradings.extend(l.out_grading.as_text() for l in net.layers)
    layers = []
    for layer in net.layers:
        doc = {
            "rows": layer.n_out,
            "cols": layer.n_in,
            "weight_base": [float(v) for v in layer.weight_base.ravel(order="C")],
            "bias": [float(v) for v in layer.bias],
            "activation": layer.activation.value,
        }
        if layer.blocks is not None:
            doc["blocks"] = [
                {"grade": str(b.grade), "rows": list(b.rows), "cols": list(b.cols)}
                for b in layer.blocks
            ]
        layers.append(doc)
    return {"gradings": gradings, "layers": layers}


def _check_keys(doc: dict, required, optional, prefix: str) -> None:
    reject_unknown_keys(doc, set(required) | set(optional), prefix)
    missing = [prefix + k for k in required if k not in doc]
    if missing:
        raise ConfigError("missing key %s" % ", ".join(missing))


def network_from_dict(doc: dict) -> Network:
    """The network network_to_dict wrote; a missing or unknown key is an error."""
    _check_keys(doc, ("gradings", "layers"), (), "")
    gradings = [parse_grading(t) for t in doc["gradings"]]
    specs = doc["layers"]
    if not isinstance(specs, list) or len(gradings) != (len(specs) + 1 if specs else 0):
        raise ValueError("need a list of layers and one grading per layer boundary")
    layers = []
    for l, spec in enumerate(specs):
        _check_keys(spec, ("rows", "cols", "weight_base", "bias", "activation"),
                    ("blocks",), "layers[%d]." % l)
        rows, cols = int(spec["rows"]), int(spec["cols"])
        w = np.array(spec["weight_base"], dtype=float).reshape(rows, cols)
        blocks = None
        if "blocks" in spec and spec["blocks"] is not None:
            blocks = [
                GradeBlock(
                    Fraction(b["grade"]),
                    (int(b["rows"][0]), int(b["rows"][1])),
                    (int(b["cols"][0]), int(b["cols"][1])),
                )
                for b in spec["blocks"]
            ]
        layers.append(
            Layer(
                w,
                np.array(spec["bias"], dtype=float),
                parse_activation(spec["activation"]),
                gradings[l],
                gradings[l + 1],
                blocks,
            )
        )
    return Network(layers)


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps17(network_to_dict(net)))
        fh.write("\n")


def load_network(path) -> Network:
    with open(path) as fh:
        return network_from_dict(json.load(fh))
