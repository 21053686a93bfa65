import dataclasses
import json
import math
import re

import numpy as np
import pytest

from sentipipe.errors import (
    ConfigError,
    DegenerateData,
    SchemaError,
    ValidationError,
)
from sentipipe.mlp import (
    MODEL_FORMAT,
    N_HIDDEN,
    N_INPUT,
    N_PARAMS,
    MlpParams,
    TrainConfig,
    adam_step,
    adam_steps,
    backward,
    bce_loss,
    evaluate_accuracy,
    forward,
    load_model,
    save_model,
    train,
    _backward_batch,
    _balanced_epoch_order,
    _bce_batch,
    _forward_batch,
    _glorot_init,
    _unpack,
)

from conftest import au_vec, examples_of


def random_params(rng, scale=1.0):
    return MlpParams(
        w1=rng.uniform(-scale, scale, size=(N_HIDDEN, N_INPUT)),
        b1=rng.uniform(-scale, scale, size=N_HIDDEN),
        w2=rng.uniform(-scale, scale, size=(1, N_HIDDEN)),
        b2=rng.uniform(-scale, scale, size=1),
    )


def flatten(params):
    return np.concatenate(
        [params.w1.ravel(), params.b1, params.w2.ravel(), params.b2])


def unflatten(vec):
    n1 = N_HIDDEN * N_INPUT
    return MlpParams(
        w1=vec[:n1].reshape(N_HIDDEN, N_INPUT),
        b1=vec[n1:n1 + N_HIDDEN],
        w2=vec[n1 + N_HIDDEN:n1 + 2 * N_HIDDEN].reshape(1, N_HIDDEN),
        b2=vec[n1 + 2 * N_HIDDEN:],
    )


class TestMlpParams:
    def test_zeros_shapes(self):
        params = MlpParams.zeros()
        assert params.w1.shape == (N_HIDDEN, N_INPUT) == (8, 20)
        assert params.b1.shape == (N_HIDDEN,)
        assert params.w2.shape == (1, N_HIDDEN)
        assert params.b2.shape == (1,)

    def test_arrays_are_read_only(self):
        params = MlpParams.zeros()
        with pytest.raises(ValueError):
            params.w1[0, 0] = 1.0

    def test_arrays_are_copied_in(self):
        w1 = np.zeros((N_HIDDEN, N_INPUT))
        params = MlpParams(w1=w1, b1=np.zeros(N_HIDDEN),
                           w2=np.zeros((1, N_HIDDEN)), b2=np.zeros(1))
        w1[0, 0] = 99.0
        assert params.w1[0, 0] == 0.0

    def test_wrong_shape(self):
        with pytest.raises(ValidationError, match="w1"):
            MlpParams(w1=np.zeros((8, 19)), b1=np.zeros(8),
                      w2=np.zeros((1, 8)), b2=np.zeros(1))

    def test_non_finite(self):
        b2 = np.array([math.nan])
        with pytest.raises(ValidationError, match="b2"):
            MlpParams(w1=np.zeros((8, 20)), b1=np.zeros(8),
                      w2=np.zeros((1, 8)), b2=b2)

    def test_equality_by_value(self, tmp_path):
        params = random_params(np.random.default_rng(5))
        path = tmp_path / "model.json"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded == params and loaded is not params
        for name in ("w1", "b1", "w2", "b2"):
            changed = np.array(getattr(params, name))
            changed.flat[-1] = np.nextafter(changed.flat[-1], np.inf)
            assert dataclasses.replace(params, **{name: changed}) != params, name
        assert params != flatten(params).tolist()


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [
        {"epochs": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -1e-3},
        {"learning_rate": math.inf},
        {"batch_size": 0},
        {"adam_beta1": 1.0},
        {"adam_beta2": -0.1},
        {"adam_epsilon": 0.0},
        {"adam_epsilon": math.inf},
        {"adam_epsilon": math.nan},
        {"adam_epsilon": True},
        {"epochs": 2.5},
        {"epochs": True},
        {"epochs": "3"},
        {"batch_size": 2.5},
        {"batch_size": True},
        {"rng_seed": -1},
        {"rng_seed": 1.5},
        {"rng_seed": True},
        {"oversample_positives": "no"},
        {"oversample_positives": 1},
        {"learning_rate": 10 ** 400},
        {"adam_epsilon": 10 ** 400},
    ])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    @pytest.mark.parametrize("bad", [
        {"adam_beta1": False},
        {"adam_beta1": "0.9"},
        {"adam_beta2": True},
        {"adam_beta2": None},
    ], ids=["beta1-bool", "beta1-str", "beta2-bool", "beta2-none"])
    def test_rejects_non_number_beta(self, bad):
        with pytest.raises(ConfigError, match="must be a number"):
            TrainConfig(**bad)

    @pytest.mark.parametrize("name, value, message", [
        ("epochs", -10 ** 5000, "epochs must be >= 1"),
        ("rng_seed", -10 ** 5000, "rng_seed must be >= 0"),
        ("oversample_positives", 10 ** 5000, "oversample_positives must be a bool"),
        ("learning_rate", [10 ** 5000], "learning_rate must be a number"),
    ], ids=["epochs", "rng-seed", "oversample", "learning-rate"])
    def test_value_that_python_cannot_print(self, name, value, message):
        # repr() refuses an int of more than 4300 digits, so the message leaves it out
        with pytest.raises(ConfigError, match=f"^{message}$"):
            TrainConfig(**{name: value})

    def test_accepts_numpy_numbers(self):
        config = TrainConfig(learning_rate=np.float32(0.5), adam_beta1=np.float64(0.5),
                             adam_beta2=np.int64(0), batch_size=np.int64(8))
        assert config.adam_beta2 == 0
        # stored as Python numbers, so training never computes in a numpy type
        for name, kind in (("learning_rate", float), ("adam_beta1", float),
                           ("adam_beta2", float), ("batch_size", int)):
            assert type(getattr(config, name)) is kind, name

    def test_defaults(self):
        config = TrainConfig()
        assert config.epochs == 100
        assert config.learning_rate == 1e-3
        assert config.batch_size == 64
        assert (config.adam_beta1, config.adam_beta2) == (0.9, 0.999)
        assert config.adam_epsilon == 1e-8
        assert config.oversample_positives is True


class TestForward:
    def test_zero_params_give_half(self):
        assert forward(MlpParams.zeros(), au_vec(i3=0.7)) == 0.5

    def test_hand_computed_value(self):
        # one hidden unit sees pre-activation 2, the rest see 0; the output
        # unit weighs only that unit by 1.5 with bias -0.25
        w1 = np.zeros((N_HIDDEN, N_INPUT))
        w1[0, 0] = 2.0
        w2 = np.zeros((1, N_HIDDEN))
        w2[0, 0] = 1.5
        params = MlpParams(w1=w1, b1=np.zeros(N_HIDDEN), w2=w2,
                           b2=np.array([-0.25]))
        h0 = 1.0 / (1.0 + math.exp(-2.0))
        expected = 1.0 / (1.0 + math.exp(-(1.5 * h0 - 0.25)))
        assert forward(params, au_vec(i0=1.0)) == pytest.approx(expected, abs=1e-14)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            params = random_params(rng, scale=6.0)
            x = au_vec(**{f"i{j}": v for j, v in
                          enumerate(rng.uniform(0, 1, size=N_INPUT))})
            p = forward(params, x)
            assert 0.0 < p < 1.0

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        params = random_params(rng)
        rows = rng.uniform(0, 1, size=(5, N_INPUT))
        p, h = _forward_batch(params, rows)
        assert p.shape == (5,) and h.shape == (5, N_HIDDEN)
        for i in range(5):
            single = forward(params, au_vec(**{f"i{j}": v for j, v
                                               in enumerate(rows[i])}))
            # batched matmul may sum in a different order than a single row
            assert p[i] == pytest.approx(single, rel=0, abs=1e-14)


class TestBceLoss:
    def test_known_values(self):
        assert bce_loss(0.5, 1.0) == -math.log(0.5)
        assert bce_loss(0.5, 0.0) == pytest.approx(math.log(2.0), rel=1e-12)
        assert bce_loss(0.9, 1.0) == pytest.approx(-math.log(0.9), rel=1e-12)
        assert bce_loss(0.9, 0.0) == pytest.approx(-math.log(0.1), rel=1e-9)

    def test_clamped_at_edges(self):
        assert bce_loss(0.0, 1.0) == pytest.approx(-math.log(1e-12), rel=1e-9)
        # the negative-label edge passes through 1 - 1e-12, which is not
        # exactly representable, so allow a looser match there
        assert bce_loss(1.0, 0.0) == pytest.approx(-math.log(1e-12), rel=1e-5)
        assert 0.0 <= bce_loss(1.0, 1.0) < 1e-11
        assert 0.0 <= bce_loss(0.0, 0.0) < 1e-11

    def test_nonnegative(self):
        for p in (0.01, 0.3, 0.5, 0.99):
            for y in (0.0, 1.0):
                assert bce_loss(p, y) >= 0.0


class TestBackward:
    def test_matches_numerical_gradient(self):
        rng = np.random.default_rng(3)
        eps = 1e-6
        for _ in range(3):
            params = random_params(rng)
            x = au_vec(**{f"i{j}": v for j, v in
                          enumerate(rng.uniform(0, 1, size=N_INPUT))})
            y = float(rng.integers(0, 2))
            analytic = flatten(backward(params, x, y))
            theta = flatten(params)
            numeric = np.empty_like(theta)
            for k in range(len(theta)):
                hi, lo = theta.copy(), theta.copy()
                hi[k] += eps
                lo[k] -= eps
                numeric[k] = (bce_loss(forward(unflatten(hi), x), y)
                              - bce_loss(forward(unflatten(lo), x), y)) / (2 * eps)
            rel = np.abs(analytic - numeric) / np.maximum(
                1e-8, np.abs(analytic) + np.abs(numeric))
            assert rel.max() < 1e-5

    def test_batch_gradient_is_mean_of_singles(self):
        rng = np.random.default_rng(5)
        params = random_params(rng)
        x = rng.uniform(0, 1, size=(4, N_INPUT))
        y = np.array([1.0, 0.0, 0.0, 1.0])
        p, h = _forward_batch(params, x)
        batch = _backward_batch(params, x, h, p, y)
        singles = [flatten(backward(
            params,
            au_vec(**{f"i{j}": v for j, v in enumerate(x[i])}),
            y[i])) for i in range(4)]
        assert np.allclose(batch, np.mean(singles, axis=0), rtol=0, atol=1e-14)

    def test_zero_gradient_at_perfect_prediction_limit(self):
        # with p == y the residual vanishes, so all gradients are ~0;
        # realize it approximately with a huge output bias
        params = MlpParams(w1=np.zeros((8, 20)), b1=np.zeros(8),
                           w2=np.zeros((1, 8)), b2=np.array([40.0]))
        grads = backward(params, au_vec(i0=0.5), 1.0)
        assert np.abs(flatten(grads)).max() < 1e-15


class TestAdamStep:
    def test_formula_single_coordinate(self):
        config = TrainConfig()
        g = 0.125
        k = 2 * N_INPUT + 3  # w1[2, 3] in the flat layout
        theta = np.zeros(N_PARAMS)
        theta[k] = 0.5
        grad = np.zeros(N_PARAMS)
        grad[k] = g
        m, v = np.zeros(N_PARAMS), np.zeros(N_PARAMS)
        t = adam_step(theta, grad, m, v, 0, config)

        m_k = (1.0 - config.adam_beta1) * g
        v_k = (1.0 - config.adam_beta2) * g * g
        m_hat = m_k / (1.0 - config.adam_beta1)
        v_hat = v_k / (1.0 - config.adam_beta2)
        expected = 0.5 - config.learning_rate * m_hat / (
            math.sqrt(v_hat) + config.adam_epsilon)
        new = unflatten(theta)
        assert t == 1
        assert m[k] == m_k
        assert v[k] == v_k
        assert new.w1[2, 3] == pytest.approx(expected, rel=0, abs=1e-15)
        # untouched coordinates stay put
        assert new.w1[0, 0] == 0.0 and new.b2[0] == 0.0

    def test_two_steps_advance_counter_and_moments(self):
        config = TrainConfig()
        rng = np.random.default_rng(9)
        theta = flatten(random_params(rng, scale=0.5))
        grad = flatten(random_params(rng, scale=0.1))
        m, v = np.zeros(N_PARAMS), np.zeros(N_PARAMS)
        t1 = adam_step(theta, grad, m, v, 0, config)
        p1, m1, v1 = theta.copy(), m.copy(), v.copy()
        t2 = adam_step(theta, grad, m, v, t1, config)
        assert (t1, t2) == (1, 2)
        b1, b2 = config.adam_beta1, config.adam_beta2
        assert np.allclose(m, b1 * m1 + (1 - b1) * grad, rtol=0, atol=1e-15)
        assert np.allclose(v, b2 * v1 + (1 - b2) * grad ** 2, rtol=0, atol=1e-15)
        assert not np.array_equal(theta, p1)


class TestEpochOrder:
    def test_oversampled_order_balances_classes(self):
        y = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        rng = np.random.default_rng(0)
        order = _balanced_epoch_order(rng, y, oversample=True)
        labels = y[order]
        assert len(order) == 10
        assert int(labels.sum()) == 5
        assert set(order.tolist()) == set(range(7))
        # majority examples are never duplicated
        counts = np.bincount(order, minlength=7)
        assert all(counts[i] == 1 for i in np.flatnonzero(y == 0.0))

    def test_already_balanced_is_plain_permutation(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        rng = np.random.default_rng(0)
        order = _balanced_epoch_order(rng, y, oversample=True)
        assert sorted(order.tolist()) == [0, 1, 2, 3]

    def test_no_oversample_is_permutation(self):
        y = np.array([1.0] + [0.0] * 9)
        rng = np.random.default_rng(0)
        order = _balanced_epoch_order(rng, y, oversample=False)
        assert sorted(order.tolist()) == list(range(10))


def toy_examples(n_per_class=25, seed=2):
    """Linearly separable toy set: positives light up the first three AUs."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_per_class):
        hot = rng.uniform(0.7, 0.95, size=3)
        rest = rng.uniform(0.0, 0.2, size=N_INPUT - 3)
        rows.append(np.r_[hot, rest])
        rows.append(rng.uniform(0.0, 0.2, size=N_INPUT))
    return examples_of(rows, [1, 0] * n_per_class)


def only_label(examples, label, limit=None):
    """The scores of the examples with one label, at most limit of them."""
    return examples.aus[examples.label == label][:limit]


FAST = TrainConfig(epochs=100, batch_size=16, rng_seed=1)


class TestTrain:
    def test_deterministic(self):
        examples = toy_examples()
        params_a, losses_a = train(examples, FAST)
        params_b, losses_b = train(examples, FAST)
        assert losses_a == losses_b
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(params_a, name), getattr(params_b, name))

    def test_seed_changes_outcome(self):
        examples = toy_examples()
        params_a, _ = train(examples, FAST)
        params_b, _ = train(examples, TrainConfig(
            epochs=100, batch_size=16, rng_seed=2))
        assert not np.array_equal(params_a.w1, params_b.w1)

    def test_loss_decreases_and_model_separates(self):
        examples = toy_examples()
        params, losses = train(examples, FAST)
        assert len(losses) == FAST.epochs
        assert losses[-1] < losses[0]
        assert evaluate_accuracy(params, examples) >= 0.9

    def test_imbalanced_data_still_learns_positives(self):
        negatives = only_label(toy_examples(), 0)
        positives = only_label(toy_examples(), 1, limit=3)
        examples = examples_of(np.vstack([negatives, positives]),
                               [0] * len(negatives) + [1] * 3)
        params, _ = train(examples, TrainConfig(
            epochs=150, batch_size=8, rng_seed=0))
        assert evaluate_accuracy(params, examples_of(positives, [1] * 3)) == 1.0

    def test_empty_raises(self):
        with pytest.raises(DegenerateData, match="no training examples"):
            train(examples_of(np.empty((0, N_INPUT)), []), FAST)

    def test_single_class_raises(self):
        negatives = only_label(toy_examples(), 0)
        with pytest.raises(DegenerateData, match="0 positives"):
            train(examples_of(negatives, [0] * len(negatives)), FAST)


def reference_train(examples, config):
    """train as a plain per-batch loop: fancy-indexed batches, each batch's
    loss summed on its own, every array allocated by the step that uses it.
    Returns (flat params, per-epoch losses, Adam steps taken, the
    (smallest, largest) pre-activation seen in the hidden and in the output
    layer, and the number of gradient entries that were exactly zero)."""
    x = np.array([ex.aus for ex in examples], dtype=np.float64)
    y = np.array([ex.label for ex in examples], dtype=np.float64)
    rng = np.random.default_rng(config.rng_seed)
    theta = _glorot_init(rng)
    layers = _unpack(theta)
    m, v, t = np.zeros(N_PARAMS), np.zeros(N_PARAMS), 0
    losses, spans, zeros = [], [[np.inf, -np.inf], [np.inf, -np.inf]], 0
    for _ in range(config.epochs):
        order = _balanced_epoch_order(rng, y, config.oversample_positives)
        loss_total = 0.0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x[idx], y[idx]
            w1, b1, w2, b2 = layers
            pre_hidden = xb @ w1.T + b1
            p, h = _forward_batch(layers, xb)
            for span, pre in zip(spans, (pre_hidden, h @ w2.T + b2)):
                span[:] = min(span[0], pre.min()), max(span[1], pre.max())
            loss_total += float(_bce_batch(p, yb).sum())
            grad = _backward_batch(layers, xb, h, p, yb)
            zeros += int(np.count_nonzero(grad == 0.0))
            t = adam_step(theta, grad, m, v, t, config)
        losses.append(loss_total / len(order))
    return theta, losses, t, spans, zeros


def imbalanced_examples(n_pos=30, n_neg=170, seed=4):
    rng = np.random.default_rng(seed)
    labels = [1] * n_pos + [0] * n_neg
    return examples_of([rng.uniform(0, 1, size=N_INPUT) for _ in labels], labels)


class TestTrainMatchesReferenceLoop:
    @pytest.mark.parametrize("config", [
        # 340 rows per epoch: 5 full batches and one of 20
        TrainConfig(epochs=4, batch_size=64, rng_seed=0),
        # 200 rows per epoch: 28 full batches and one of 4
        TrainConfig(epochs=3, batch_size=7, oversample_positives=False, rng_seed=1),
        TrainConfig(epochs=2, batch_size=1, rng_seed=2),
        TrainConfig(epochs=5, batch_size=341, rng_seed=3),
        # buffers are capped at the epoch length, so this allocates nothing large
        TrainConfig(epochs=5, batch_size=10 ** 11, rng_seed=3),
        # 340 rows per epoch: 5 full batches and no tail
        TrainConfig(epochs=3, batch_size=68, rng_seed=4),
        # a rate this large drives pre-activations past the sigmoid's +-700 clip
        TrainConfig(epochs=3, batch_size=16, learning_rate=1e3, rng_seed=5),
        # every Adam constant off its default, two of them given as ints
        TrainConfig(epochs=3, batch_size=16, learning_rate=1, adam_beta1=0,
                    adam_beta2=0.5, adam_epsilon=1e-3, rng_seed=6),
        # Batch shapes around powers of two, as full batches and as tails (340
        # rows oversampled, 200 plain): train multiplies with np.dot and the
        # reference with @, and a BLAS build where they sum in another order
        # must fail here.
        TrainConfig(epochs=2, batch_size=2, oversample_positives=False, rng_seed=8),
        TrainConfig(epochs=2, batch_size=3, rng_seed=9),  # tail of 1
        TrainConfig(epochs=2, batch_size=63, rng_seed=10),  # tail of 25
        TrainConfig(epochs=2, batch_size=65, oversample_positives=False,
                    rng_seed=11),  # tail of 5
        TrainConfig(epochs=2, batch_size=127, rng_seed=12),  # tail of 86
        TrainConfig(epochs=2, batch_size=169, rng_seed=13),
        TrainConfig(epochs=2, batch_size=197, oversample_positives=False, rng_seed=14),
        TrainConfig(epochs=2, batch_size=137, oversample_positives=False, rng_seed=15),
        TrainConfig(epochs=2, batch_size=275, rng_seed=16),
        TrainConfig(epochs=2, batch_size=213, rng_seed=17),
    ], ids=["b64-oversampled", "b7-plain-tail", "b1", "b341-over-epoch", "b1e11",
            "b68-no-tail", "lr1e3-clipped", "adam-off-default-ints",
            "b2", "b3", "b63", "b65", "b127", "tail2", "tail3", "tail63", "tail65",
            "tail127"])
    def test_bit_equal(self, config):
        examples = imbalanced_examples()
        params, losses = train(examples, config)
        theta, ref_losses, steps, spans, zeros = reference_train(examples, config)
        assert flatten(params).tobytes() == theta.tobytes()
        assert np.array(losses).tobytes() == np.array(ref_losses).tobytes()
        assert steps == adam_steps(30, 170, config)
        if config.learning_rate == 1e3:
            # both clips did work in both layers: train keeps only the lower
            # one, the reference both
            for lowest, highest in spans:
                assert lowest < -700.0 and highest > 700.0
            # saturated sigmoids give exact-zero gradient entries, where
            # train's product forms +0 and the reference may form -0
            assert zeros > 0

    def test_bit_equal_beyond_the_folded_product(self):
        # 6,200-row batches: OpenBLAS 0.3.31 no longer sums the batch in
        # order there, so train must form gw1 and gb1 as the reference does
        examples = imbalanced_examples(n_pos=3100, n_neg=3100, seed=5)
        config = TrainConfig(epochs=2, batch_size=10 ** 6, rng_seed=18)
        params, losses = train(examples, config)
        theta, ref_losses, _, _, _ = reference_train(examples, config)
        assert flatten(params).tobytes() == theta.tobytes()
        assert np.array(losses).tobytes() == np.array(ref_losses).tobytes()


    def test_numpy_float_fields_train_as_plain_floats(self):
        # a long double rate or beta once carried its precision into Adam
        examples = imbalanced_examples()
        plain = TrainConfig(epochs=3, batch_size=16, rng_seed=7)
        numpy = TrainConfig(epochs=3, batch_size=16, rng_seed=7,
                            learning_rate=np.longdouble(1e-3), adam_beta1=np.longdouble(0.9))
        params, losses = train(examples, numpy)
        plain_params, plain_losses = train(examples, plain)
        theta, ref_losses, _, _, _ = reference_train(examples, plain)
        for flat, curve in ((flatten(plain_params), plain_losses), (theta, ref_losses)):
            assert flatten(params).tobytes() == flat.tobytes()
            assert np.array(losses).tobytes() == np.array(curve).tobytes()


@pytest.mark.parametrize("n", range(1, 301))
def test_blas_identities_train_relies_on(n):
    """Each product identity train's loop uses, exactly, for every batch size
    up to 300 rows: a BLAS build that breaks one names it here."""
    rng = np.random.default_rng(n)
    for magnitude in (1e-3, 1.0, 1e3):
        x = rng.uniform(0, 1, (n, N_INPUT)) * magnitude
        x1 = np.ones((n, N_INPUT + 1))
        x1[:, :N_INPUT] = x
        block = rng.normal(size=(N_HIDDEN, N_INPUT + 1)) * magnitude
        w1, b1 = block[:, :N_INPUT], np.ascontiguousarray(block[:, N_INPUT])
        d1 = rng.normal(size=(n, N_HIDDEN)) * magnitude
        d2 = rng.normal(size=n) * magnitude
        w2 = rng.normal(size=(1, N_HIDDEN)) * magnitude
        expected = np.dot(x, np.ascontiguousarray(w1).T)
        expected += b1
        assert np.dot(x1, block.T).tobytes() == expected.tobytes(), \
            "the product with the ones column is not dot followed by + b"
        assert (np.ascontiguousarray(np.dot(d1.T, x1)[:, N_INPUT]).tobytes()
                == np.add.reduce(d1, axis=0).tobytes()), \
            "the ones column of d1.T @ [x | 1] is not np.add.reduce(d1, axis=0)"
        assert np.dot(x1, -block.T).tobytes() == (-np.dot(x1, block.T)).tobytes(), \
            "dot(x, -W) is not -dot(x, W)"
        assert np.array_equal(np.dot(d2[:, None], w2), d2[:, None] * w2), \
            "dot(d2[:, None], w2) is not d2[:, None] * w2 in value"


class TestEvaluateAccuracy:
    def test_zero_params_score_half_counts_as_positive(self):
        examples = examples_of([au_vec(), au_vec()], [1, 0])
        assert evaluate_accuracy(MlpParams.zeros(), examples) == 0.5

    def test_empty_raises(self):
        with pytest.raises(DegenerateData, match="no examples to evaluate"):
            evaluate_accuracy(MlpParams.zeros(), examples_of(np.empty((0, N_INPUT)), []))


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        params = random_params(rng)
        path = tmp_path / "model.json"
        save_model(params, path)
        loaded = load_model(path)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_file_shape(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(MlpParams.zeros(), path)
        payload = json.loads(path.read_text())
        assert payload["format"] == MODEL_FORMAT
        assert len(payload["au_order"]) == 20
        assert payload["au_order"][0] == "AU1"
        assert path.read_text().endswith("\n")

    def _payload(self, tmp_path, mutate):
        path = tmp_path / "model.json"
        save_model(MlpParams.zeros(), path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        return path

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_model(path)

    def test_load_rejects_wrong_format_tag(self, tmp_path):
        path = self._payload(tmp_path, lambda p: p.update(format="other-v9"))
        with pytest.raises(SchemaError, match="format"):
            load_model(path)

    def test_load_rejects_missing_key(self, tmp_path):
        path = self._payload(tmp_path, lambda p: p.pop("b1"))
        with pytest.raises(SchemaError, match="b1"):
            load_model(path)

    def test_load_rejects_au_order_mismatch(self, tmp_path):
        def swap(p):
            p["au_order"][0], p["au_order"][1] = p["au_order"][1], p["au_order"][0]
        path = self._payload(tmp_path, swap)
        with pytest.raises(SchemaError, match="au_order"):
            load_model(path)

    def test_load_rejects_wrong_shape(self, tmp_path):
        path = self._payload(tmp_path, lambda p: p.update(b1=[0.0] * 7))
        with pytest.raises(SchemaError, match="shape"):
            load_model(path)

    def test_load_rejects_non_numeric(self, tmp_path):
        path = self._payload(tmp_path, lambda p: p.update(b2=["x"]))
        with pytest.raises(SchemaError):
            load_model(path)

    @pytest.mark.parametrize("weight", ["0.25", True, 10 ** 400],
                             ids=["string", "bool", "beyond-float"])
    def test_load_takes_json_numbers_only(self, tmp_path, weight):
        def set_weight(p):
            p["w1"][3][4] = weight
        path = self._payload(tmp_path, set_weight)
        with pytest.raises(SchemaError, match=re.escape(f"{path}: w1 ")):
            load_model(path)

    @pytest.mark.parametrize("weight", ["9" * 5000, "[" * 100_000 + "]" * 100_000],
                             ids=["integer-past-the-digit-limit", "nested-too-deep"])
    def test_load_rejects_json_that_python_cannot_load(self, tmp_path, weight):
        path = self._payload(tmp_path, lambda p: None)
        path.write_text(path.read_text().replace('"b2": [0.0]', f'"b2": [{weight}]'))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: not valid JSON")):
            load_model(path)

    def test_load_rejects_non_finite(self, tmp_path):
        path = self._payload(tmp_path, lambda p: p.update(b2=[1e400]))
        with pytest.raises(SchemaError, match="non-finite"):
            load_model(path)
