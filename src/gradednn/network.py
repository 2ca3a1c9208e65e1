"""Grade-aware neurons, activations, layers and networks.

A neuron is one output of a Layer; a single neuron is a one-output Layer.
An additive neuron computes sum_i sgn(w_i)|w_i|**q_i * x_i + b, so the weight
exponent follows the grade of the *input* coordinate.  Activations take the
grade of the coordinate they produce.  A multiplicative neuron computes
prod_i sgn(x_i)**k_i |w_i x_i|**k_i + b, graded-homogeneous of degree
sum_i q_i k_i.  A Layer with exponents is a layer of such neurons, allowed
only as a network's first layer, and its value and weight gradient are
formed only in Layer.forward and Layer._backward, from the batched
multiplicative_sign/_core/_slope kernel: `graded-nn train` and
approx-bench's graded cell both run that Layer.  multiplicative_sign(k, x)
is the one statement of the sign rule and of the fractional domain, read
from the exact rationals k; multiplicative_core(w, k, x) multiplies the
product of the magnitudes |w x|**k by its row sign, and log_domain_forward
and datasets.monomial_value take their signs from it too.  Layer.forward
evaluates a layer on rows (..., N, n) into a LayerRecord, and
Layer._backward reads it back; both take a leading stack of weights.
Each layer kind's backward sits beside its forward, so
gradients.network_backward is one loop over the layers.  A Network owns
its parameters as one vector theta, and Network.split is the one place
that lays them out.  log_domain_forward evaluates a layer as signs and
log-magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

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
    write_json,
)
from .spaces import (
    FloatRangeError,
    GradedDomainError,
    GradedError,
    GradedVector,
    GradingMismatchError,
    GradingVector,
    _as_fraction,
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


def activation_kind(value, path: str) -> ActivationKind:
    """The activation a JSON string names, or a ConfigError naming path."""
    return parsed(path, parse_activation, str_value(value, path))


def activation_value(kind: ActivationKind, z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Apply an activation elementwise; q is the grading of the outputs."""
    z = np.asarray(z, dtype=float)
    if kind is ActivationKind.GRADED_RELU:
        # unsigned variant: |z|**(1/q); positive even for negative inputs
        mag = np.abs(z)
        return np.where(mag <= CLAMP, 0.0, mag ** (1.0 / q))
    if kind is ActivationKind.SIGNED_GRADED_RELU:
        live = z > CLAMP
        return np.where(live, np.where(live, z, 1.0) ** (1.0 / q), 0.0)
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
        mag = np.abs(z)
        flat = mag <= CLAMP
        safe = np.where(flat, 1.0, mag)
        return np.where(flat, 0.0, np.sign(z) * (1.0 / q) * safe ** (1.0 / q - 1.0))
    if kind is ActivationKind.SIGNED_GRADED_RELU:
        live = z > CLAMP
        return np.where(live, (1.0 / q) * np.where(live, z, 1.0) ** (1.0 / q - 1.0), 0.0)
    if kind is ActivationKind.GRADED_EXP:
        return np.exp(z / q) / q
    if kind is ActivationKind.CLASSICAL_RELU:
        return np.where(z > 0.0, 1.0, 0.0)
    if kind is ActivationKind.IDENTITY:
        return np.ones_like(z)
    raise ValueError("unknown activation kind %r" % kind)


def effective_weights(weight_base: np.ndarray, in_grading: GradingVector) -> np.ndarray:
    """sgn(w)|w|**q_i with the exponent taken from the input coordinate."""
    q = in_grading.floats
    return np.sign(weight_base) * np.abs(weight_base) ** q


def weight_base_slope(weight_base: np.ndarray, in_grading: GradingVector) -> np.ndarray:
    """d(effective)/d(base) = q|w|**(q-1); at w=0 it is 1 for q=1, else 0."""
    q = in_grading.floats
    nz = weight_base != 0.0
    safe = np.where(nz, np.abs(weight_base), 1.0)
    return np.where(nz, q * safe ** (q - 1.0), q == 1.0)


def _checked_exponents(exponents, n: int) -> tuple:
    """n exponents k_i >= 0 that fit a float64, as Fractions and as floats."""
    ks = tuple(_as_fraction(k) for k in exponents)
    if len(ks) != n:
        raise GradingMismatchError("exponents length does not match grading")
    if any(k < 0 for k in ks):
        raise GradedDomainError("multiplicative exponents must be >= 0")
    try:
        return ks, np.array([float(k) for k in ks])
    except OverflowError:
        raise FloatRangeError("multiplicative exponents must fit a float64") from None


def parse_exponents(value, n: int, where: str) -> tuple:
    """n nonnegative rationals from a string such as "2,1/2", or a
    ConfigError naming where."""
    text = str_value(value, where)
    try:
        return _checked_exponents(text.split(","), n)[0]
    except FloatRangeError:
        raise ConfigError("%s: an exponent does not fit a float64" % where) from None
    except (ValueError, GradedError):
        raise ConfigError("%s must be %d nonnegative rationals such as \"%s\""
                          % (where, n, ",".join(["2"] * n))) from None


def multiplicative_sign(k: Sequence, x: np.ndarray) -> np.ndarray:
    """prod_i sgn(x_i)**k_i of each input row x (..., N, n), shape (..., N):
    -1 where an odd number of odd integers k_i meet a negative x_i, else 1.
    A fractional k_i needs every x_i > 0 and otherwise raises
    GradedDomainError naming the first non-positive entry; k_i = 0 accepts
    any x_i.  Parity and integrality are read from the exact rationals
    Fraction(k_i), a float counting as the rational it holds, so an
    exponent whose float64 rounds to an integer keeps its own rule."""
    ks = [Fraction(e) for e in k]
    bad = np.array([e.denominator != 1 for e in ks]) & (x <= 0.0)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise GradedDomainError(
            "fractional exponent %g of input %d needs positive inputs, got %g in row %d"
            % (k[at[-1]], at[-1], x[at], at[-2]))
    negative = np.zeros(x.shape[:-1], dtype=bool)
    for i, e in enumerate(ks):
        if e.denominator == 1 and e.numerator % 2:  # an odd integer
            negative ^= x[..., i] < 0.0
    return np.where(negative, -1.0, 1.0)


def multiplicative_core(w: np.ndarray, k: Sequence, x: np.ndarray) -> np.ndarray:
    """The neuron without its bias, prod_i sgn(x_i)**k_i |w_i x_i|**k_i, for
    each row of x (N, n): weights (n,) give (N,), a stack of R neurons
    (R, n) gives (R, N).  The product of the magnitudes takes the row sign
    of multiplicative_sign(k, x) at the end, which gives the floats of a
    product of signed terms, signed zeros included, because rounding is
    symmetric in sign.  An overflow gives inf or nan without a warning:
    every caller checks the result for finiteness."""
    terms = w[..., None, :] * x
    np.abs(terms, out=terms)
    with np.errstate(over="ignore", invalid="ignore"):
        terms **= np.asarray(k, dtype=float)
        core = np.prod(terms, axis=-1)
    core *= multiplicative_sign(k, x)  # in place: no second array of the core's size
    return core


def multiplicative_slope(w: np.ndarray, k: np.ndarray, core: np.ndarray) -> np.ndarray:
    """d core / d w_i = k_i core sgn(w_i)/|w_i|, shape core.shape + (n,).

    It is 0 where |w_i| < 1e-12: the true slope at w_i = 0 for k_i > 1 or
    k_i = 0, and the convention at the kink or cusp that k_i <= 1 has there.
    """
    safe = np.where(np.abs(w) < 1e-12, np.inf, np.abs(w))
    return core[..., None] * (k * np.sign(w) / safe)[..., None, :]


@dataclass(frozen=True)
class GradeBlock:
    """Half-open row/column ranges whose coordinates all share one grade."""

    grade: Fraction
    rows: tuple
    cols: tuple


class LayerRecord(NamedTuple):
    """What Layer.forward formed from rows x: the weights w it applied, the
    pre-activation z and output y.  w is the masked effective weights, or for
    a multiplicative layer the bias-free core (..., n_out, N), which
    Layer._backward reads here because z - bias cancels to 0 when
    |core| << |bias|."""
    x: np.ndarray
    w: np.ndarray
    z: np.ndarray
    y: np.ndarray


class Layer:
    """Dense graded layer: y_j = g_j(sum_i sgn(w_ji)|w_ji|**q_i x_i + b_j).

    The weight exponent uses the input grading, the activation the output
    grading.  An optional block structure restricts the nonzero pattern to
    same-grade row/column ranges; training and evaluation then only touch
    in-block entries.

    With exponents k (one per input, no blocks) the layer is multiplicative,
    y_j = g_j(prod_i sgn(x_i)**k_i |w_ji x_i|**k_i + b_j), and only a first
    layer: d core/dx_i = k_i core/x_i has no value at x_i = 0.
    """

    def __init__(
        self,
        weight_base: np.ndarray,
        bias: np.ndarray,
        activation: ActivationKind,
        in_grading: GradingVector,
        out_grading: GradingVector,
        blocks: Optional[Sequence[GradeBlock]] = None,
        exponents: Optional[Sequence] = None,
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
        self.exponents = self.exponent_floats = None
        if exponents is not None:
            if self.blocks is not None:
                raise GradingMismatchError("a multiplicative layer takes no blocks")
            self.exponents, self.exponent_floats = _checked_exponents(exponents, n_in)

    def _validate_blocks(self) -> np.ndarray:
        """The mask of the blocks.  A block's grade is the grade of every
        output coordinate in its rows and every input coordinate in its
        columns, so the masked weights are a graded map of degree 0."""
        mask = np.zeros(self.weight_base.shape, dtype=bool)
        for blk in self.blocks:
            r0, r1 = blk.rows
            c0, c1 = blk.cols
            if not (0 <= r0 <= r1 <= len(self.out_grading)):
                raise GradingMismatchError("block row range out of bounds")
            if not (0 <= c0 <= c1 <= len(self.in_grading)):
                raise GradingMismatchError("block column range out of bounds")
            g = _as_fraction(blk.grade)
            for side, grades, lo, hi in (("output", self.out_grading.grades, r0, r1),
                                         ("input", self.in_grading.grades, c0, c1)):
                off = [i for i in range(lo, hi) if grades[i] != g]
                if off:
                    raise GradingMismatchError("block grade %s does not match %s "
                                               "coordinate %d" % (g, side, off[0]))
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

    def forward(self, x: np.ndarray, weight_base: Optional[np.ndarray] = None,
                bias: Optional[np.ndarray] = None) -> LayerRecord:
        """The LayerRecord of rows x (..., N, n_in), or GradingMismatchError.
        A stack (..., n_out, n_in) of other base weights and (..., n_out) of
        biases adds its leading axes in front; each slice gives the floats of
        a Layer built from it."""
        x = _rows(x, self.n_in)
        w = self.weight_base if weight_base is None else weight_base
        b = self.bias if bias is None else bias[..., np.newaxis, :]
        if self.exponents is None:
            w = effective_weights(w, self.in_grading)
            if self._mask is not None:
                w = np.where(self._mask, w, 0.0)
            z = x @ w.swapaxes(-1, -2) + b
        else:
            w = multiplicative_core(w, self.exponents, x[..., np.newaxis, :, :])
            z = w.swapaxes(-1, -2) + b
        return LayerRecord(x, w, z, activation_value(self.activation, z,
                                                     self.out_grading.floats))

    def _backward(self, rec: LayerRecord, g: np.ndarray, input_grad: bool,
                  weight_base: Optional[np.ndarray] = None):
        """(weight gradient, bias gradient, input gradient) of a loss whose
        gradient at this layer's output rows rec.y is g, with rec the
        LayerRecord that forward formed.  The weight gradient is with respect
        to the base weights and 0 outside the blocks.  The input gradient
        dz @ rec.w is formed when input_grad is set and the layer is
        additive, else it is None: a multiplicative layer comes first.
        weight_base is the stack that forward took, if it took one; each
        slice gives the floats of a Layer built from it."""
        w = self.weight_base if weight_base is None else weight_base
        dz = g * activation_slope(self.activation, rec.z, self.out_grading.floats)
        if self.exponents is None:
            dw = (dz.swapaxes(-1, -2) @ rec.x) * weight_base_slope(w, self.in_grading)
        else:
            slope = multiplicative_slope(w, self.exponent_floats, rec.w)
            dw = (dz.swapaxes(-1, -2)[..., np.newaxis] * slope).sum(axis=-2)
        if self._mask is not None:
            dw = np.where(self._mask, dw, 0.0)
        db = dz.sum(axis=-2)
        return dw, db, dz @ rec.w if input_grad and self.exponents is None else None


class Network:
    """A chain of graded layers; adjacent gradings must match exactly, and
    only the first layer may be multiplicative (see Layer).

    The network owns its parameters as one float vector theta of P entries:
    each layer's weights in C order, then its bias, layer by layer.  Each
    layer's weight_base and bias are views into theta, so an update of
    theta is an update of the layers; a layer follows the last network
    built from it.  split maps any vector laid out this way to the layers.
    """

    def __init__(self, layers: Sequence[Layer]):
        self.layers = tuple(layers)
        for l, (prev, nxt) in enumerate(zip(self.layers, self.layers[1:]), 1):
            if prev.out_grading != nxt.in_grading:
                raise GradingMismatchError(
                    "output grading of one layer must equal the input grading "
                    "of the next"
                )
            if nxt.exponents is not None:
                raise GradedDomainError(
                    "layer %d is multiplicative; only the first layer may be" % l)
        self.theta = np.empty(sum(l.weight_base.size + l.bias.size for l in self.layers))
        for layer, (w, b) in zip(self.layers, self.split(self.theta)):
            w[...], b[...] = layer.weight_base, layer.bias
            layer.weight_base, layer.bias = w, b

    def split(self, v: np.ndarray) -> list:
        """Each layer's (weights (..., n_out, n_in), bias (..., n_out)) as
        views into v (..., P), an array laid out as theta."""
        views, at = [], 0
        for layer in self.layers:
            n_out, n_in = shape = layer.weight_base.shape
            w = v[..., at:at + n_out * n_in].reshape(v.shape[:-1] + shape)
            at += n_out * (n_in + 1)
            views.append((w, v[..., at - n_out:at]))
        return views

    @property
    def in_grading(self) -> Optional[GradingVector]:
        return self.layers[0].in_grading if self.layers else None

    @property
    def out_grading(self) -> Optional[GradingVector]:
        return self.layers[-1].out_grading if self.layers else None


def _rows(x, n: int) -> np.ndarray:
    """x as float rows (..., N, n), or GradingMismatchError."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.shape[-1] != n:
        raise GradingMismatchError("need (N, %d) rows, got shape %s" % (n, x.shape))
    return x


def forward_trace(net: Network, x: np.ndarray, theta: Optional[np.ndarray] = None):
    """Per-layer LayerRecords and the output, not checked for finiteness, for
    rows x (N, n), one sample per row, or a stack (..., N, n) of them.  A
    stack theta (S, P) of parameter vectors laid out as net.theta adds a
    leading axis S; each slice gives the floats of the network holding it.
    Nothing differentiates such a trace, so its records drop their stacked
    weights (w None), which are as large as theta, as soon as each layer
    has run."""
    params = net.split(theta) if theta is not None else [(None, None)] * len(net.layers)
    trace, cur = [], x
    for layer, (w, b) in zip(net.layers, params):
        rec = layer.forward(cur, w, b)
        trace.append(rec if theta is None else rec._replace(w=None))
        cur = rec.y
    return trace, cur


def raise_if_non_finite(trace, out: np.ndarray) -> None:
    """Raise NonFiniteForwardError naming the first non-finite layer and quantity."""
    if np.isfinite(out).all():
        return
    for i, rec in enumerate(trace):
        for name, values in (("pre-activation", rec.z), ("output", rec.y)):
            if not np.isfinite(values).all():
                raise NonFiniteForwardError(
                    "layer %d produced non-finite values in its %s" % (i, name))
    raise NonFiniteForwardError("forward pass produced non-finite values")


def network_forward(net: Network, x: GradedVector) -> GradedVector:
    """Evaluate the network; the empty network is the identity map."""
    if not net.layers:
        return x
    if x.grading != net.in_grading:
        raise GradingMismatchError("input grading does not match the first layer")
    trace, out = forward_trace(net, x.values[np.newaxis])
    raise_if_non_finite(trace, out)
    return GradedVector(out[0], net.out_grading)


def _signed_logsumexp(sign: np.ndarray, log: np.ndarray):
    """The sum over the last axis of terms sign * exp(log), as (sign,
    log|sum|), shifted by the largest log of a live term.  A term of sign 0
    adds nothing; an empty or cancelling sum is sign 0 with log -inf."""
    live = sign != 0.0
    log = np.where(live, log, -np.inf)
    shift = np.max(log, axis=-1, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    total = np.sum(sign * np.exp(log - shift), axis=-1)
    with np.errstate(divide="ignore"):
        return np.sign(total), shift[..., 0] + np.log(np.abs(total))


def log_domain_forward(layer: Layer, x: np.ndarray):
    """The layer's pre-activation plus bias as (sign, log|z|), two arrays
    (..., N, n_out) for rows x (..., N, n_in).

    An additive term has sign sgn(w_ji) sgn(x_i), 0 outside the blocks, and
    log-magnitude q_i log|w_ji| + log|x_i|; a multiplicative core has
    log-magnitude sum_{k_i != 0} k_i (log|w_ji| + log|x_i|) and the sign
    rule of multiplicative_sign.  The bias joins the terms in one signed
    log-sum-exp.  Neither |w|**q nor the core is formed, so the result stays
    finite where direct evaluation overflows.
    """
    rows = _rows(x, layer.n_in)[..., np.newaxis, :]
    w, bias = layer.weight_base, layer.bias[:, np.newaxis]
    with np.errstate(divide="ignore"):  # log 0 = -inf: a term of sign 0
        log_w, log_x, log_b = (np.log(np.abs(a)) for a in (w, rows, bias))
    if layer.exponents is None:
        sign = np.sign(w) * np.sign(rows)
        if layer.mask is not None:
            sign = sign * layer.mask
        log = layer.in_grading.floats * log_w + log_x
    else:
        k = layer.exponent_floats
        on = k != 0.0
        log = np.sum(k[on] * (log_w[:, on] + log_x[..., on]), axis=-1, keepdims=True)
        core_sign = multiplicative_sign(layer.exponents, rows[..., 0, :])
        sign = np.where(log > -np.inf, core_sign[..., np.newaxis, np.newaxis], 0.0)
    shape = sign.shape[:-1] + (1,)
    sign = np.concatenate([sign, np.broadcast_to(np.sign(bias), shape)], axis=-1)
    log = np.concatenate([log, np.broadcast_to(log_b, shape)], axis=-1)
    return _signed_logsumexp(sign, log)


def random_network(
    gradings: Sequence[GradingVector],
    activations: Sequence[ActivationKind],
    rng: np.random.Generator,
    low: float = 0.2,
    high: float = 0.9,
    exponents: Optional[Sequence] = None,
) -> Network:
    """Fresh network with weights uniform in [low, high) and zero biases;
    exponents make the first layer multiplicative."""
    if len(activations) != len(gradings) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for l, act in enumerate(activations):
        n_in, n_out = len(gradings[l]), len(gradings[l + 1])
        w = rng.uniform(low, high, size=(n_out, n_in))
        layers.append(Layer(w, np.zeros(n_out), act, gradings[l], gradings[l + 1],
                            exponents=None if l else exponents))
    return Network(layers)


# --- serialization ---------------------------------------------------------
# model.json is written by ioutil.write_json, which round-trips every finite
# float64 bit-exactly, -0.0 included


def network_to_dict(net: Network) -> dict:
    gradings = [l.in_grading.as_text() for l in net.layers[:1]]
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
        if layer.exponents is not None:
            doc["exponents"] = ",".join(str(k) for k in layer.exponents)
        layers.append(doc)
    return {"gradings": gradings, "layers": layers}


_RANGE = (True, lambda v, path: tuple(list_value(v, path, int_value, 2)))  # [start, stop]
_BLOCK_KEYS = {"rows": _RANGE, "cols": _RANGE,
               "grade": (True, lambda v, path: parsed(path, _as_fraction,
                                                      str_value(v, path)))}
# weight_base, bias and exponents are counted against the gradings
_LAYER_KEYS = {"rows": (True, int_value), "cols": (True, int_value),
               "weight_base": (True, None), "bias": (True, None),
               "activation": (True, activation_kind),
               "blocks": (False, lambda v, path: list_value(
                   v, path, lambda b, p: GradeBlock(**read_object(b, _BLOCK_KEYS, p)))),
               "exponents": (False, None)}
# the gradings are counted against the layers
_NETWORK_KEYS = {"gradings": (True, None),
                 "layers": (True, lambda v, path: list_value(
                     v, path, lambda spec, p: read_object(spec, _LAYER_KEYS, p)))}


def network_from_dict(doc: dict) -> Network:
    """The network network_to_dict wrote.  A missing or unknown key, or a
    value of the wrong type or size, is a ConfigError naming its path."""
    top = read_object(doc, _NETWORK_KEYS, "", "a saved network")
    specs = top["layers"]
    gradings = list_value(top["gradings"], "gradings", grading_value,
                          len(specs) + 1 if specs else 0)
    layers = []
    for l, spec in enumerate(specs):
        where = "layers[%d]" % l
        rows, cols = spec["rows"], spec["cols"]
        for key, n, g in (("rows", rows, l + 1), ("cols", cols, l)):
            if n != len(gradings[g]):
                raise ConfigError("%s.%s is %d but gradings[%d] has %d coordinates"
                                  % (where, key, n, g, len(gradings[g])))
        w = list_value(spec["weight_base"], where + ".weight_base", number_value, rows * cols)
        bias = list_value(spec["bias"], where + ".bias", number_value, rows)
        exponents = None
        if "exponents" in spec:
            if l:
                raise ConfigError("%s.exponents: only the first layer may be multiplicative"
                                  % where)
            exponents = parse_exponents(spec["exponents"], cols, where + ".exponents")
        layers.append(parsed(where, Layer, np.reshape(w, (rows, cols)), bias,
                             spec["activation"], gradings[l], gradings[l + 1],
                             spec.get("blocks"), exponents))
    return Network(layers)


def save_network(net: Network, path) -> None:
    write_json(path, network_to_dict(net))


def load_network(path) -> Network:
    return network_from_dict(read_json(path, "saved network"))
