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
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import CANONICAL_AU_NAMES, N_AUS, Examples, got, read_json, require_int, require_real
from .errors import ConfigError, DegenerateData, SchemaError, ValidationError

N_INPUT = N_AUS
N_HIDDEN = 8
MODEL_FORMAT = "sentipipe-mlp-v1"
BCE_EPS = 1e-12

# The flat parameter layout: w1, b1, w2, b2 back to back, 177 values.
_SHAPES = {"w1": (N_HIDDEN, N_INPUT), "b1": (N_HIDDEN,), "w2": (1, N_HIDDEN), "b2": (1,)}
_ENDS = np.cumsum([math.prod(shape) for shape in _SHAPES.values()])
N_PARAMS = int(_ENDS[-1])
# train forms gw1 and gb1 with one product for batches up to this many rows;
# a BLAS may split a longer inner dimension into blocks and add their partial
# sums, which is not np.add.reduce's running sum (OpenBLAS 0.3.31 summed up to
# 5,952 rows in order, and not 5,953)
_FOLD_MAX_ROWS = 256
# train fills its bias-correction table for this many steps at a time
_TABLE_STEPS = 64


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Network weights. Arrays are copied in, marked read-only and compared by value."""

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MlpParams):
            return NotImplemented
        return all(map(np.array_equal, self, other))

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
        # batch_size also sizes the trainer's buffers, so integers only; each
        # number keeps the int or float its check returns
        put = partial(object.__setattr__, self)
        for name in ("epochs", "batch_size"):
            put(name, require_int(name, getattr(self, name), 1))
        put("rng_seed", require_int("rng_seed", self.rng_seed, 0))
        if not isinstance(self.oversample_positives, bool):
            raise ConfigError(
                f"oversample_positives must be a bool{got(self.oversample_positives)}")
        # a rate or epsilon that is not finite would only show up after
        # training, as non-finite or untrained weights
        for name in ("learning_rate", "adam_epsilon"):
            value = require_real(name, getattr(self, name))
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
            put(name, value)
        for name in ("adam_beta1", "adam_beta2"):
            value = require_real(name, getattr(self, name))
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1)")
            put(name, value)


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

    Each step runs forward, backward and Adam inline, with the float64
    arithmetic of _forward_batch, _backward_batch and adam_step, which stay
    as the reference this loop is tested against bit for bit. The step makes
    31 numpy calls, none of which broadcasts, into views and scratch arrays
    built once per call, with constants held in float64 0-d arrays. It makes
    fewer or cheaper calls than the helpers where the bits cannot differ:

    - np.dot, not @, forms the products: for these operands both reach the
      same BLAS calls, and np.dot gets there sooner.
    - The biases go through the products. Each row of x gets a trailing 1
      and layer 1 is stored as one (8, 21) block [w1 | b1], so one product
      gives x @ w1.T + b1: the kernel adds the 21st term last, as
      fl(sum of 20 + b1). The product of delta1.T with the same rows gives
      gw1 and, in its last column, gb1: the kernel sums the batch in order,
      as np.add.reduce over axis 0 does. For a batch of more than
      _FOLD_MAX_ROWS rows a BLAS may split that sum into blocks, so such a
      batch forms gw1 and gb1 as _backward_batch does.
    - The parameters are stored negated. A product, sum or Adam update of
      -theta is the exact negation of the same operation on theta, so each
      layer's product gives -z, and y - p and h - 1 give the negated
      gradient. The returned MlpParams is built from one negation at the end.
    - So the sigmoid is minimum(-z, 700), exp, add and divide, with no
      negative(). That minimum is the clip of z at -700, which keeps exp()
      finite. The clip at +700 is left out, as it changes nothing: for
      z >= 700, exp(-z) <= e**-700 < 2**-53, so 1 + exp(-z) rounds to
      exactly 1.0 either way. NaN and +inf give the same result both ways.
    - The output layer works on the 1-D score column, with b2 as a 0-d view.
    - delta2 (x) w2 is one np.dot with an inner dimension of 1. It gives the
      products' values, but a -0 product comes out as +0. No sign of a zero
      reaches theta or the losses: every sum it feeds is a BLAS
      accumulation that starts at +0, and Adam's m starts at +0, to which
      -0 adds +0.
    - m and v are the halves of one vector, so one multiply by a vector of
      beta1s then beta2s and one add update both, and one divide by a row of
      a table that holds adam_step's Python floats 1 - beta1**t, then
      1 - beta2**t, applies both bias corrections. The table is filled for
      up to _TABLE_STEPS steps at a time.
    - Each epoch's rows are gathered into a fresh array, of which batches
      are contiguous slices: np.take with out= and the index check
      (mode "raise") copies through a temporary, so it takes longer.

    An epoch's loss is taken over its stored scores after its last step.
    """
    if not examples:
        raise DegenerateData("no training examples")
    x, y = examples.aus, examples.label.astype(np.float64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateData(
            f"need both classes, got {n_pos} positives and {n_neg} negatives")
    rng = np.random.default_rng(config.rng_seed)
    w1, b1, w2, b2 = _unpack(_glorot_init(rng))
    # -theta in train's layout: the block [w1 | b1] row by row, then w2 and b2
    theta = np.negative(np.concatenate([np.column_stack([w1, b1]).ravel(), w2[0], b2]))
    x1 = np.ones((len(x), N_INPUT + 1))  # x with a column of ones
    x1[:, :N_INPUT] = x
    l1 = N_HIDDEN * (N_INPUT + 1)  # where the block ends; w2 ends at l2
    l2 = l1 + N_HIDDEN
    # from here on, the layers are views of -theta: they follow its updates
    layer1_t = theta[:l1].reshape(N_HIDDEN, N_INPUT + 1).T
    w2, b2 = theta[l1:l2], theta[l2:].reshape(())
    w2_row = w2.reshape(1, N_HIDDEN)
    grad = np.empty(N_PARAMS)
    g1 = grad[:l1].reshape(N_HIDDEN, N_INPUT + 1)
    gw2, gb2 = grad[l1:l2], grad[l2:].reshape(())
    moments = np.zeros(2 * N_PARAMS)  # m then v
    # Adam scratch: the moments' gains, then the step and its denominator
    scratch = np.empty(2 * N_PARAMS)
    step, denom = scratch[:N_PARAMS], scratch[N_PARAMS:]
    rows = _epoch_length(n_pos, n_neg, config.oversample_positives)
    batch = min(config.batch_size, rows)
    n_full, n_tail = divmod(rows, batch)
    p_epoch = np.empty(rows)  # output layer; holds the epoch's scores
    hidden, delta1, h_minus_1 = (np.empty((batch, N_HIDDEN)) for _ in range(3))
    delta2 = np.empty(batch)
    # Constant operands are float64 0-d arrays built once per call: a ufunc
    # takes one about 0.4 us faster than a Python float or int, and computes
    # the same float64 values from it.
    def f64(value) -> np.ndarray:
        return np.array(value, dtype=np.float64)

    # per-row work arrays for a full batch and for the tail, its row count,
    # and whether it forms gw1 and gb1 apart
    full, tail = ((hidden[:n], delta2[:n], delta2[:n, None], delta1[:n], delta1[:n].T,
                   h_minus_1[:n], f64(n), n > _FOLD_MAX_ROWS) for n in (batch, n_tail))
    batches = [(slice(start, start + batch), p_epoch[start:start + batch],
                *(full if start + batch <= rows else tail))
               for start in range(0, rows, batch)]
    table_steps = min(len(batches), _TABLE_STEPS)
    chunks = [batches[i:i + table_steps] for i in range(0, len(batches), table_steps)]
    corrections = np.empty((table_steps, 2 * N_PARAMS))
    correction_rows = list(corrections)
    high, one = f64(700.0), f64(1.0)
    beta1, beta2 = config.adam_beta1, config.adam_beta2
    decay = np.repeat([beta1, beta2], N_PARAMS)
    gain1, gain2 = f64(1.0 - beta1), f64(1.0 - beta2)
    lr, eps = f64(config.learning_rate), f64(config.adam_epsilon)
    # the step is 31 short numpy calls, so they are looked up once, not per
    # call; np.add.reduce is np.sum without its Python-level wrapper
    dot, add, subtract, multiply, divide = (
        np.dot, np.add, np.subtract, np.multiply, np.divide)
    minimum, exp, sqrt, reduce = np.minimum, np.exp, np.sqrt, np.add.reduce
    t = 0
    losses: list[float] = []
    for _ in range(config.epochs):
        order = _balanced_epoch_order(rng, y, config.oversample_positives)
        x_epoch, y_epoch = x1.take(order, 0), y.take(order)
        for chunk in chunks:
            corrections[:len(chunk)] = np.repeat(
                [(1.0 - beta1 ** s, 1.0 - beta2 ** s)
                 for s in range(t + 1, t + 1 + len(chunk))], N_PARAMS, axis=1)
            t += len(chunk)
            for (batch_rows, p, h, d2, d2_col, d1, d1_t, hm1, n, unfolded), correction in zip(
                    chunk, correction_rows):
                xb = x_epoch[batch_rows]
                # forward, as in _forward_batch on -theta: each layer's
                # pre-activation comes out negated
                minimum(dot(xb, layer1_t, out=h), high, out=h)
                divide(one, add(one, exp(h, out=h), out=h), out=h)
                minimum(add(dot(h, w2, out=p), b2, out=p), high, out=p)
                divide(one, add(one, exp(p, out=p), out=p), out=p)
                # backward, as in _backward_batch: the negated gradient
                divide(subtract(y_epoch[batch_rows], p, out=d2), n, out=d2)
                multiply(dot(d2_col, w2_row, out=d1), h, out=d1)
                multiply(d1, subtract(h, one, out=hm1), out=d1)
                dot(d1_t, xb, out=g1)
                if unfolded:
                    g1[:, :N_INPUT] = d1_t @ xb[:, :N_INPUT]
                    reduce(d1, axis=0, out=g1[:, N_INPUT])
                dot(d2, h, out=gw2)
                reduce(d2, out=gb2)
                # Adam, as in adam_step
                multiply(gain1, grad, out=step)
                multiply(multiply(gain2, grad, out=denom), grad, out=denom)
                add(multiply(moments, decay, out=moments), scratch, out=moments)
                divide(moments, correction, out=scratch)
                multiply(lr, step, out=step)
                add(sqrt(denom, out=denom), eps, out=denom)
                subtract(theta, divide(step, denom, out=step), out=theta)
        # the same per-batch sums as summing each batch's losses on its own,
        # added in batch order as Python floats
        bce = _bce_batch(p_epoch, y_epoch)
        batch_sums = bce[:n_full * batch].reshape(n_full, batch).sum(axis=1).tolist()
        if n_tail:
            batch_sums.append(float(bce[n_full * batch:].sum()))
        loss_total = 0.0
        for batch_sum in batch_sums:
            loss_total += batch_sum
        losses.append(loss_total / rows)
    np.negative(theta, out=theta)
    layer1 = theta[:l1].reshape(N_HIDDEN, N_INPUT + 1)
    return MlpParams(layer1[:, :N_INPUT], layer1[:, N_INPUT], w2_row, theta[l2:]), losses


def evaluate_accuracy(params: MlpParams, examples: Examples) -> float:
    """Fraction of examples whose score, cut at 0.5, matches the label."""
    if not examples:
        raise DegenerateData("no examples to evaluate")
    p, _ = _forward_batch(params, examples.aus)
    return float(np.mean((p >= 0.5) == (examples.label == 1)))


def save_model(params: MlpParams, path: str | Path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        **{name: layer.tolist() for name, layer in zip(_SHAPES, params)},
        "au_order": list(CANONICAL_AU_NAMES),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _require_numbers(value: object) -> None:
    """SchemaError unless value is a JSON number or nested lists of them;
    np.array would also take "0.25" and true."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        else:
            require_real("every entry", item, SchemaError)


def load_model(path: str | Path) -> MlpParams:
    payload = read_json(path)
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
            _require_numbers(payload[name])
            payload[name] = np.array(payload[name], dtype=np.float64)
        except (SchemaError, ValueError) as exc:  # ValueError: lists of unequal lengths
            raise SchemaError(f"{path}: {name} is not a numeric array ({exc})") from exc
    try:  # MlpParams checks the shapes and that every value is finite
        return MlpParams(*(payload[name] for name in _SHAPES))
    except ValidationError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
