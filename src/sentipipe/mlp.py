"""A small fixed-architecture classifier over AU vectors.

Two fully connected layers (20 -> 8 -> 1) with sigmoid activations, binary
cross entropy, and Adam. The arithmetic is written out directly in numpy so
the gradients are explicit and can be verified against finite differences.
All math runs in float64 and every random decision flows from one seeded
generator, so training is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import CANONICAL_AU_NAMES, N_AUS, Examples, read_text, require_int
from .errors import ConfigError, DegenerateTrainingSet, SchemaError, ValidationError

N_INPUT = N_AUS
N_HIDDEN = 8
MODEL_FORMAT = "sentipipe-mlp-v1"
BCE_EPS = 1e-12

# The flat parameter layout: w1, b1, w2, b2 back to back, 177 values.
_SHAPES = {"w1": (N_HIDDEN, N_INPUT), "b1": (N_HIDDEN,), "w2": (1, N_HIDDEN), "b2": (1,)}
_ENDS = np.cumsum([math.prod(shape) for shape in _SHAPES.values()])
N_PARAMS = int(_ENDS[-1])


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Network weights. Arrays are copied in and marked read-only."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        for name, shape in _SHAPES.items():
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValidationError(
                    f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter((self.w1, self.b1, self.w2, self.b2))

    @classmethod
    def zeros(cls) -> "MlpParams":
        return cls(*(np.zeros(shape) for shape in _SHAPES.values()))


def _unpack(theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """(w1, b1, w2, b2) as reshaped views into a flat parameter vector."""
    parts = np.split(theta, _ENDS[:-1])
    return tuple(part.reshape(shape) for part, shape in zip(parts, _SHAPES.values()))


@dataclass(frozen=True, slots=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 64
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    oversample_positives: bool = True
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # batch_size also sizes the trainer's buffers, so integers only
        require_int("epochs", self.epochs, 1)
        require_int("batch_size", self.batch_size, 1)
        require_int("rng_seed", self.rng_seed, 0)
        if not isinstance(self.oversample_positives, bool):
            raise ConfigError(
                f"oversample_positives must be a bool, got {self.oversample_positives!r}")
        # a rate or epsilon that is not finite would only show up after
        # training, as non-finite or untrained weights
        for name in ("learning_rate", "adam_epsilon"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not (value > 0 and math.isfinite(value))):
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1)")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-clip(z, -700, 700))), computed in place in z and returned.

    maximum then minimum is what np.clip computes, without its Python-level
    wrapper; the clip keeps exp() finite, and the sigmoid is saturated far
    before +-700 anyway.
    """
    np.maximum(z, -700.0, out=z)
    np.minimum(z, 700.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.add(1.0, z, out=z)
    return np.divide(1.0, z, out=z)


def _as_input_row(aus) -> np.ndarray:
    x = np.asarray(aus, dtype=np.float64)
    if x.shape != (N_INPUT,):
        raise ValidationError(f"input must hold {N_INPUT} scores, got shape {x.shape}")
    return x.reshape(1, N_INPUT)


def _forward_batch(params, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched forward pass over an MlpParams or a (w1, b1, w2, b2) tuple.

    x: (n, 20). Returns (scores (n,), hidden (n, 8)).
    """
    w1, b1, w2, b2 = params
    h = x @ w1.T
    h += b1
    z = _sigmoid(h) @ w2.T
    z += b2
    return _sigmoid(z)[:, 0], h


def forward(params: MlpParams, aus) -> float:
    """Score one AU vector; the sigmoid output lies strictly inside (0, 1)."""
    p, _ = _forward_batch(params, _as_input_row(aus))
    return float(p[0])


def bce_loss(score: float, label: float) -> float:
    """Binary cross entropy with the score clamped to [1e-12, 1 - 1e-12]."""
    p = min(max(float(score), BCE_EPS), 1.0 - BCE_EPS)
    y = float(label)
    return -(y * math.log(p) + (1.0 - y) * math.log1p(-p))


def _bce_batch(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    p = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def _backward_batch(params, x: np.ndarray, h: np.ndarray, p: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
    """Flat gradient of the mean BCE over the batch, via the sigmoid + BCE shortcut."""
    _, _, w2, _ = params
    delta2 = (p - y) / x.shape[0]
    # dh = outer(delta2, w2[0]); delta1 = dh * h * (1 - h)
    delta1 = delta2[:, None] * w2 * h * (1.0 - h)
    return np.concatenate([(delta1.T @ x).ravel(), delta1.sum(axis=0),
                           delta2 @ h, delta2.sum(keepdims=True)])


def backward(params: MlpParams, aus, label: float) -> MlpParams:
    """Exact gradient of bce_loss(forward(params, aus), label) for one example."""
    x = _as_input_row(aus)
    y = np.array([float(label)])
    p, h = _forward_batch(params, x)
    return MlpParams(*_unpack(_backward_batch(params, x, h, p, y)))


def adam_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, config: TrainConfig) -> int:
    """One bias-corrected Adam update after t earlier steps; returns t + 1.

    theta, m and v are flat parameter-layout vectors updated in place.
    """
    t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    theta -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.adam_epsilon)
    return t


def _glorot_init(rng: np.random.Generator) -> np.ndarray:
    lim1 = math.sqrt(6.0 / (N_INPUT + N_HIDDEN))
    lim2 = math.sqrt(6.0 / (N_HIDDEN + 1))
    theta = np.zeros(N_PARAMS)
    w1, _, w2, _ = _unpack(theta)
    w1[...] = rng.uniform(-lim1, lim1, size=w1.shape)
    w2[...] = rng.uniform(-lim2, lim2, size=w2.shape)
    return theta


def _balanced_epoch_order(
    rng: np.random.Generator, y: np.ndarray, oversample: bool
) -> np.ndarray:
    """Index stream for one epoch.

    With oversampling, the minority class is resampled with replacement up to
    the majority count, so each epoch sees the classes in an exact 1:1 ratio.
    """
    if not oversample:
        return rng.permutation(len(y))
    pos = np.flatnonzero(y == 1.0)
    neg = np.flatnonzero(y == 0.0)
    if len(pos) < len(neg):
        extra = rng.choice(pos, size=len(neg) - len(pos), replace=True)
    elif len(neg) < len(pos):
        extra = rng.choice(neg, size=len(pos) - len(neg), replace=True)
    else:
        extra = np.empty(0, dtype=np.int64)
    return rng.permutation(np.concatenate([pos, neg, extra]))


def _epoch_length(n_pos: int, n_neg: int, oversample: bool) -> int:
    """Rows per epoch: the index stream of _balanced_epoch_order is this long."""
    return 2 * max(n_pos, n_neg) if oversample else n_pos + n_neg


def adam_steps(n_pos: int, n_neg: int, config: TrainConfig) -> int:
    """Adam steps a train call takes: one per batch, the last one maybe partial."""
    rows = _epoch_length(n_pos, n_neg, config.oversample_positives)
    return -(-rows // config.batch_size) * config.epochs


def train(
    examples: Examples,
    config: TrainConfig = TrainConfig(),
) -> tuple[MlpParams, list[float]]:
    """Train on weakly labeled examples; returns (params, mean loss per epoch).

    The reported loss is the running training loss: each batch is scored
    before the update that it triggers. Weights that went non-finite raise
    ValidationError once training ends, when the returned MlpParams is built.

    Each step runs forward, backward and Adam inline: the numpy calls of
    _forward_batch, _backward_batch and adam_step in the same order, which
    stay as the reference this loop is tested against bit for bit. The step
    writes into views and scratch arrays built once per call. Each epoch's
    rows are gathered into one buffer, so that batches are contiguous
    slices, and its loss is taken over its stored scores after its last step.
    """
    if not examples:
        raise DegenerateTrainingSet("no training examples")
    x, y = examples.aus, examples.label.astype(np.float64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateTrainingSet(
            f"need both classes, got {n_pos} positives and {n_neg} negatives")
    rng = np.random.default_rng(config.rng_seed)
    theta = _glorot_init(rng)
    layers = _unpack(theta)  # views: they follow theta's in-place updates
    w1, b1, w2, b2 = layers
    w1t, w2t = w1.T, w2.T
    grad = np.empty(N_PARAMS)
    gw1, gb1, gw2, gb2 = _unpack(grad)
    gw2_row = gw2[0]
    m, v = np.zeros(N_PARAMS), np.zeros(N_PARAMS)
    step, denom = np.empty(N_PARAMS), np.empty(N_PARAMS)  # Adam scratch
    rows = _epoch_length(n_pos, n_neg, config.oversample_positives)
    batch = min(config.batch_size, rows)
    n_full, n_tail = divmod(rows, batch)
    x_epoch = np.empty((rows, N_INPUT))
    y_epoch = np.empty(rows)
    z_epoch = np.empty((rows, 1))  # output layer; holds the epoch's scores
    hidden, delta1, one_minus_h = (np.empty((batch, N_HIDDEN)) for _ in range(3))
    delta2 = np.empty(batch)
    # per-row work arrays for a full batch and for the tail
    full, tail = ((hidden[:n], delta2[:n], delta2[:n, None], delta1[:n], delta1[:n].T,
                   one_minus_h[:n], n) for n in (batch, n_tail))
    batches = []
    for start in range(0, rows, batch):
        stop = start + batch
        z = z_epoch[start:stop]
        batches.append((x_epoch[start:stop], y_epoch[start:stop], z, z[:, 0],
                        *(full if stop <= rows else tail)))
    beta1, beta2 = config.adam_beta1, config.adam_beta2
    gain1, gain2 = 1.0 - beta1, 1.0 - beta2
    lr, eps = config.learning_rate, config.adam_epsilon
    # the step is ~40 short numpy calls, so they are looked up once, not per
    # call; np.add.reduce is np.sum without its Python-level wrapper
    matmul, add, subtract, multiply, divide = (
        np.matmul, np.add, np.subtract, np.multiply, np.divide)
    maximum, minimum, negative, exp, sqrt = (
        np.maximum, np.minimum, np.negative, np.exp, np.sqrt)
    reduce = np.add.reduce
    t = 0
    losses: list[float] = []
    for _ in range(config.epochs):
        order = _balanced_epoch_order(rng, y, config.oversample_positives)
        np.take(x, order, axis=0, out=x_epoch)
        np.take(y, order, out=y_epoch)
        for xb, yb, z, p, h, d2, d2_col, d1, d1_t, omh, n in batches:
            # forward, as in _forward_batch: each layer through _sigmoid's calls
            add(matmul(xb, w1t, out=h), b1, out=h)
            minimum(maximum(h, -700.0, out=h), 700.0, out=h)
            divide(1.0, add(1.0, exp(negative(h, out=h), out=h), out=h), out=h)
            add(matmul(h, w2t, out=z), b2, out=z)
            minimum(maximum(z, -700.0, out=z), 700.0, out=z)
            divide(1.0, add(1.0, exp(negative(z, out=z), out=z), out=z), out=z)
            # backward, as in _backward_batch
            divide(subtract(p, yb, out=d2), n, out=d2)
            multiply(multiply(d2_col, w2, out=d1), h, out=d1)
            multiply(d1, subtract(1.0, h, out=omh), out=d1)
            matmul(d1_t, xb, out=gw1)
            reduce(d1, axis=0, out=gb1)
            matmul(d2, h, out=gw2_row)
            reduce(d2, keepdims=True, out=gb2)
            # Adam, as in adam_step
            t += 1
            multiply(m, beta1, out=m)
            add(m, multiply(gain1, grad, out=step), out=m)
            multiply(v, beta2, out=v)
            multiply(gain2, grad, out=step)
            add(v, multiply(step, grad, out=step), out=v)
            multiply(lr, divide(m, 1.0 - beta1 ** t, out=step), out=step)
            divide(v, 1.0 - beta2 ** t, out=denom)
            add(sqrt(denom, out=denom), eps, out=denom)
            subtract(theta, divide(step, denom, out=step), out=theta)
        # the same per-batch sums as summing each batch's losses on its own,
        # added in batch order as Python floats
        bce = _bce_batch(z_epoch[:, 0], y_epoch)
        batch_sums = bce[:n_full * batch].reshape(n_full, batch).sum(axis=1).tolist()
        if n_tail:
            batch_sums.append(float(bce[n_full * batch:].sum()))
        loss_total = 0.0
        for batch_sum in batch_sums:
            loss_total += batch_sum
        losses.append(loss_total / rows)
    return MlpParams(*layers), losses


def evaluate_accuracy(
    params: MlpParams, examples: Examples, cut: float = 0.5
) -> float:
    """Fraction of examples whose thresholded score matches the label."""
    if not examples:
        raise DegenerateTrainingSet("no examples to evaluate")
    p, _ = _forward_batch(params, examples.aus)
    return float(np.mean((p >= cut) == (examples.label == 1)))


def save_model(params: MlpParams, path: str | Path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        **{name: layer.tolist() for name, layer in zip(_SHAPES, params)},
        "au_order": list(CANONICAL_AU_NAMES),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path: str | Path) -> MlpParams:
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: model file must be a JSON object")
    if payload.get("format") != MODEL_FORMAT:
        raise SchemaError(
            f"{path}: expected format {MODEL_FORMAT!r}, got {payload.get('format')!r}")
    missing = {"w1", "b1", "w2", "b2", "au_order"} - set(payload)
    if missing:
        raise SchemaError(f"{path}: missing keys {sorted(missing)}")
    if payload["au_order"] != list(CANONICAL_AU_NAMES):
        raise SchemaError(f"{path}: au_order does not match the canonical AU order")
    for name in _SHAPES:
        try:
            payload[name] = np.array(payload[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: {name} is not a numeric array ({exc})") from exc
    try:  # MlpParams checks the shapes and that every value is finite
        return MlpParams(*(payload[name] for name in _SHAPES))
    except ValidationError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
