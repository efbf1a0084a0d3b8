"""Classifier internals: forward math, gradients vs finite differences, SGD."""

import json
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajcurate import nn
from trajcurate.errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidArchitecture,
    IoFailure,
    LabelOutOfRange,
    NonFiniteValue,
)
from trajcurate.nn import (
    MlpClassifier,
    TrainConfig,
    flatten_grads,
    forward,
    get_flat_params,
    init_mlp,
    load_model,
    loss_and_grad,
    save_model,
    train,
)
from oracles import copy_model, set_flat_params


def numerical_gradient(model, x, y, l2=0.0, eps=1e-6):
    """Central finite differences through the flat-parameter view."""
    theta = get_flat_params(model)
    grad = np.zeros_like(theta)
    probe = copy_model(model)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] += eps
        set_flat_params(probe, bumped)
        hi, _ = loss_and_grad(probe, x, y, l2)
        bumped[i] -= 2 * eps
        set_flat_params(probe, bumped)
        lo, _ = loss_and_grad(probe, x, y, l2)
        grad[i] = (hi - lo) / (2 * eps)
    return grad


# --- construction -------------------------------------------------------------


def test_init_shapes_and_bounds():
    m = init_mlp([6, 8, 5], seed=1)
    assert m.layer_sizes == (6, 8, 5)
    assert m.input_dim == 6 and m.num_classes == 5
    assert [w.shape for w in m.weights] == [(6, 8), (8, 5)]
    assert all((b == 0).all() for b in m.biases)
    for w in m.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        assert np.abs(w).max() <= bound
    assert m.num_params() == 6 * 8 + 8 + 8 * 5 + 5


def test_init_deterministic():
    a, b = init_mlp([4, 3], seed=11), init_mlp([4, 3], seed=11)
    c = init_mlp([4, 3], seed=12)
    np.testing.assert_array_equal(a.weights[0], b.weights[0])
    assert not np.array_equal(a.weights[0], c.weights[0])


@pytest.mark.parametrize("sizes", [[], [5], [4, 0, 2], [4, -1]])
def test_init_rejects_bad_architecture(sizes):
    with pytest.raises(InvalidArchitecture):
        init_mlp(sizes)


# --- forward pass -------------------------------------------------------------


def test_forward_hand_computed():
    # 2-2-2 net with hand-set weights; compare to a pencil-and-paper pass
    m = MlpClassifier(
        layer_sizes=(2, 2, 2),
        weights=[np.array([[1.0, -1.0], [0.0, 2.0]]),
                 np.array([[1.0, 0.0], [0.5, -0.5]])],
        biases=[np.array([0.0, 0.5]), np.array([0.1, -0.1])],
    )
    x = np.array([[1.0, 2.0]])
    h = np.maximum([1.0 * 1 + 0.0 * 2 + 0.0, -1.0 * 1 + 2.0 * 2 + 0.5], 0.0)  # [1, 3.5]
    logits = np.array([h @ [1.0, 0.5] + 0.1, h @ [0.0, -0.5] - 0.1])  # [2.85, -1.85]
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    np.testing.assert_allclose(forward(m, x)[0], expected, rtol=1e-12)


def test_forward_batch_and_single_agree():
    m = init_mlp([5, 7, 3], seed=2)
    x = np.random.default_rng(0).normal(size=(4, 5))
    batch = forward(m, x)
    assert batch.shape == (4, 3)
    for i in range(4):
        np.testing.assert_allclose(forward(m, x[i : i + 1])[0], batch[i], rtol=1e-12)


def test_forward_rejects_wrong_width():
    # a single vector is no batch, also at the right width
    m = init_mlp([5, 3], seed=0)
    for x in (np.zeros((2, 4)), np.zeros(4), np.zeros(5)):
        with pytest.raises(DimensionMismatch):
            forward(m, x)


@given(
    seed=st.integers(0, 2**16),
    rows=st.integers(1, 6),
    hidden=st.integers(1, 10),
    classes=st.integers(2, 6),
)
@settings(max_examples=40)
def test_forward_rows_are_distributions(seed, rows, hidden, classes):
    rng = np.random.default_rng(seed)
    m = init_mlp([3, hidden, classes], seed=seed)
    p = forward(m, rng.normal(scale=5.0, size=(rows, 3)))
    assert (p >= 0).all()
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_forward_extreme_logits_stable():
    m = init_mlp([2, 2], seed=0)
    m.weights[0] = np.array([[500.0, -500.0], [0.0, 0.0]])
    p = forward(m, np.array([[1.0, 0.0]]))
    assert np.isfinite(p).all() and p.sum() == pytest.approx(1.0)


# --- gradients ------------------------------------------------------------------


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    m = init_mlp([4, 6, 3], seed=3)
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)
    _, grads = loss_and_grad(m, x, y)
    analytic = flatten_grads(grads)
    numeric = numerical_gradient(m, x, y)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


def test_gradient_with_weight_decay():
    rng = np.random.default_rng(4)
    m = init_mlp([3, 5, 2], seed=4)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    loss0, grads0 = loss_and_grad(m, x, y, l2=0.0)
    loss1, grads1 = loss_and_grad(m, x, y, l2=0.1)
    # decay adds exactly 0.5*l2*sum ||W||^2 to the loss
    penalty = 0.5 * 0.1 * sum((w**2).sum() for w in m.weights)
    assert loss1 == pytest.approx(loss0 + penalty, rel=1e-12)
    # ... l2*W to weight gradients, and nothing to bias gradients
    for (dw0, db0), (dw1, db1), w in zip(grads0, grads1, m.weights):
        np.testing.assert_allclose(dw1, dw0 + 0.1 * w, rtol=1e-12)
        np.testing.assert_array_equal(db1, db0)
    np.testing.assert_allclose(
        flatten_grads(grads1), numerical_gradient(m, x, y, l2=0.1), rtol=1e-6, atol=1e-8
    )


def test_loss_is_cross_entropy():
    m = init_mlp([3, 4, 2], seed=5)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 3))
    y = rng.integers(0, 2, size=10)
    loss, _ = loss_and_grad(m, x, y)
    probs = forward(m, x)
    expected = -np.mean(np.log(probs[np.arange(10), y]))
    assert loss == pytest.approx(expected, rel=1e-12)


def test_loss_and_grad_errors():
    m = init_mlp([3, 2], seed=0)
    with pytest.raises(EmptyTrainingSet):
        loss_and_grad(m, np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(LabelOutOfRange):
        loss_and_grad(m, np.zeros((2, 3)), np.array([0, 2]))
    with pytest.raises(LabelOutOfRange):
        loss_and_grad(m, np.zeros((2, 3)), np.array([0, -1]))
    with pytest.raises(DimensionMismatch):
        loss_and_grad(m, np.zeros((2, 3)), np.array([0, 1, 0]))


# --- training --------------------------------------------------------------------


def _toy_problem(rng, n=120):
    """Two well-separated Gaussian blobs; trivially learnable."""
    x = np.concatenate([rng.normal(-2, 0.5, size=(n // 2, 2)),
                        rng.normal(2, 0.5, size=(n // 2, 2))])
    y = np.concatenate([np.zeros(n // 2, int), np.ones(n // 2, int)])
    return x, y


def test_training_reduces_loss_and_fits():
    rng = np.random.default_rng(6)
    x, y = _toy_problem(rng)
    m = init_mlp([2, 8, 2], seed=6)
    loss_before, _ = loss_and_grad(m, x, y)
    trained = train(m, x, y, TrainConfig(epochs=60, seed=6))
    loss_after, _ = loss_and_grad(trained, x, y)
    assert loss_after < loss_before
    assert (forward(trained, x).argmax(axis=1) == y).mean() > 0.95


def test_training_is_deterministic():
    rng = np.random.default_rng(7)
    x, y = _toy_problem(rng, n=40)
    cfg = TrainConfig(epochs=5, seed=9)
    a = train(init_mlp([2, 4, 2], seed=1), x, y, cfg)
    b = train(init_mlp([2, 4, 2], seed=1), x, y, cfg)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_zero_learning_rate_is_identity():
    rng = np.random.default_rng(8)
    x, y = _toy_problem(rng, n=20)
    m = init_mlp([2, 4, 2], seed=2)
    trained = train(m, x, y, TrainConfig(learning_rate=0.0, epochs=3))
    np.testing.assert_array_equal(get_flat_params(trained), get_flat_params(m))


def test_train_leaves_input_model_untouched():
    rng = np.random.default_rng(9)
    x, y = _toy_problem(rng, n=20)
    m = init_mlp([2, 4, 2], seed=3)
    before = get_flat_params(m)
    train(m, x, y, TrainConfig(epochs=2))
    np.testing.assert_array_equal(get_flat_params(m), before)


@pytest.mark.parametrize("kw", [
    {"learning_rate": -1.0}, {"epochs": 0}, {"batch_size": 0}, {"l2": -0.5},
])
def test_train_config_validation(kw):
    with pytest.raises(ValueError):
        TrainConfig(**kw)


def test_train_rejects_empty():
    m = init_mlp([2, 2], seed=0)
    with pytest.raises(EmptyTrainingSet):
        train(m, np.zeros((0, 2)), np.zeros(0, dtype=int), TrainConfig(epochs=1))


@pytest.mark.parametrize("rows, labels, error", [
    (10, np.zeros(8, dtype=int), DimensionMismatch),  # more rows than labels
    (6, np.zeros(8, dtype=int), DimensionMismatch),  # fewer rows than labels
    (4, np.array([0, 1, 2, 0]), LabelOutOfRange),
    (4, np.array([0, -1, 1, 0]), LabelOutOfRange),
])
def test_train_checks_inputs_up_front(rows, labels, error):
    m = init_mlp([2, 2], seed=0)
    with pytest.raises(error):
        train(m, np.zeros((rows, 2)), labels, TrainConfig(epochs=1, batch_size=3))


def test_diverged_training_raises_without_warnings():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=10.0, size=(64, 4))
    labels = rng.integers(0, 3, size=64)
    m = init_mlp([4, 16, 3], seed=0)
    with pytest.raises(NonFiniteValue, match="SGD diverged"):
        train(m, x, labels, TrainConfig(learning_rate=1e6, epochs=3, batch_size=8))


def _sgd_over_loss_and_grad(model, x, labels, cfg):
    """Reference SGD loop: one ``loss_and_grad`` call per minibatch."""
    y = np.asarray(labels, dtype=np.int64).ravel()
    trained = copy_model(model)
    rng = np.random.default_rng(cfg.seed)
    n = y.shape[0]
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for i in range(0, n, cfg.batch_size):
            idx = perm[i : i + cfg.batch_size]
            _, grads = loss_and_grad(trained, x[idx], y[idx], cfg.l2)
            for (dw, db), w, b in zip(grads, trained.weights, trained.biases):
                w -= cfg.learning_rate * dw
                b -= cfg.learning_rate * db
    return trained


@pytest.mark.parametrize("l2", [0.0, 0.1])
@pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
def test_train_equals_sgd_over_loss_and_grad(l2, hidden):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(43, 3))  # 43 rows: the last minibatch is partial
    y = rng.integers(0, 4, size=43)
    m = init_mlp([3, *hidden, 4], seed=5)
    cfg = TrainConfig(learning_rate=0.05, epochs=4, batch_size=8, seed=2, l2=l2)
    got = train(m, x, y, cfg)
    want = _sgd_over_loss_and_grad(m, x, y, cfg)
    assert get_flat_params(got).tobytes() == get_flat_params(want).tobytes()


def _textbook_sgd(model, x, labels, cfg):
    """Reference SGD written out with fresh arrays: forward, softmax, backprop
    and per-layer update in their plainest numpy form."""
    y = np.asarray(labels, dtype=np.int64).ravel()
    ws = [w.copy() for w in model.weights]
    bs = [b.copy() for b in model.biases]
    rng = np.random.default_rng(cfg.seed)
    n = y.shape[0]
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for i in range(0, n, cfg.batch_size):
            idx = perm[i : i + cfg.batch_size]
            acts, pre, a = [x[idx]], [], x[idx]
            for w, b in zip(ws[:-1], bs[:-1]):
                z = a @ w + b
                pre.append(z)
                a = np.maximum(z, 0.0)
                acts.append(a)
            logits = a @ ws[-1] + bs[-1]
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            delta = e / e.sum(axis=1, keepdims=True)
            delta[np.arange(len(idx)), y[idx]] -= 1.0
            delta /= len(idx)
            grads = [None] * len(ws)
            for layer in range(len(ws) - 1, -1, -1):
                dw = acts[layer].T @ delta
                if cfg.l2:
                    dw += cfg.l2 * ws[layer]
                grads[layer] = (dw, delta.sum(axis=0))
                if layer > 0:
                    delta = (delta @ ws[layer].T) * (pre[layer - 1] > 0.0)
            for (dw, db), w, b in zip(grads, ws, bs):
                w -= cfg.learning_rate * dw
                b -= cfg.learning_rate * db
    return np.concatenate([p.ravel() for wb in zip(ws, bs) for p in wb])


@st.composite
def _sgd_cases(draw):
    n = draw(st.integers(3, 40))
    batch = draw(st.sampled_from(["one", "non-divisor", "larger than n"]))
    if batch == "one":
        size = 1
    elif batch == "non-divisor":
        size = draw(st.sampled_from([b for b in range(2, n) if n % b]))
    else:
        size = draw(st.integers(n + 1, 2 * n + 5))
    return dict(
        n=n,
        dim=draw(st.sampled_from([1, 3, 32])),
        hidden=draw(st.sampled_from([(), (5,), (64, 64)])),
        classes=draw(st.integers(2, 5)),
        cfg=TrainConfig(
            learning_rate=draw(st.sampled_from([0.0, 0.05])),
            epochs=draw(st.integers(1, 3)),
            batch_size=size,
            seed=draw(st.integers(0, 2**16)),
            l2=draw(st.sampled_from([0.0, 0.1])),
        ),
        seed=draw(st.integers(0, 2**16)),
    )


@given(case=_sgd_cases())
@settings(max_examples=60, deadline=None)
def test_train_bits_match_oracles_property(case):
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=(case["n"], case["dim"]))
    y = rng.integers(0, case["classes"], size=case["n"])
    m = init_mlp([case["dim"], *case["hidden"], case["classes"]], seed=case["seed"])
    got = get_flat_params(train(m, x, y, case["cfg"])).tobytes()
    assert got == get_flat_params(_sgd_over_loss_and_grad(m, x, y, case["cfg"])).tobytes()
    assert got == _textbook_sgd(m, x, y, case["cfg"]).tobytes()


@pytest.mark.parametrize("gather_rows", [3, 16, 40])
def test_train_in_blocks_equals_one_block(gather_rows, monkeypatch):
    """Blocks of whole batches (7 rows a batch: blocks of 7, 14 and 35 rows)
    and a partial last batch train the bits of one gathered epoch."""
    rng = np.random.default_rng(20)
    x = rng.normal(size=(100, 3))  # 100 = 14 batches of 7 and one of 2
    y = rng.integers(0, 4, size=100)
    m = init_mlp([3, 5, 4], seed=6)
    cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=7, seed=3, l2=0.1)
    whole = get_flat_params(train(m, x, y, cfg)).tobytes()
    monkeypatch.setattr(nn, "_GATHER_ROWS", gather_rows)
    assert get_flat_params(train(m, x, y, cfg)).tobytes() == whole
    assert whole == get_flat_params(_sgd_over_loss_and_grad(m, x, y, cfg)).tobytes()


def test_train_memory_is_its_parameters_plus_one_block():
    """Beyond its inputs, ``train`` holds its parameters, gradient and work
    arrays, the epoch's permutation and one gathered block of 2^11 rows,
    one-hot targets and labels (0.6 MB here): no epoch copy of the rows
    (5.1 MB) or targets, and no 2^14-row block (5 MB)."""
    rng = np.random.default_rng(21)
    n, dim, hidden, classes, batch = 20000, 32, (64, 64), 5, 64
    x, y = rng.normal(size=(n, dim)), rng.integers(0, classes, size=n)
    m = init_mlp([dim, *hidden, classes], seed=0)
    cfg = TrainConfig(epochs=2, batch_size=batch)
    train(m, x[:100], y[:100], cfg)
    tracemalloc.start()
    try:
        train(m, x, y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    params = 8 * m.num_params()
    # a workspace per batch size (64 and the last batch's 32): a copy of the
    # parameters for weight decay, then activations, deltas, masks and logits
    work = 2 * (params + 3 * batch * (sum(hidden) + classes) * 8)
    block = (1 << 11) * (dim + classes + 1) * 8
    assert peak <= 2 * params + work + block + 8 * n + (1 << 16)


def test_trained_model_owns_its_parameters(tmp_path):
    rng = np.random.default_rng(12)
    x, y = _toy_problem(rng, n=30)
    m = init_mlp([2, 5, 3], seed=4)
    input_params = get_flat_params(m)
    trained = train(m, x, y, TrainConfig(epochs=2, batch_size=7))
    theirs = m.weights + m.biases
    assert not any(np.shares_memory(a, b) for a in trained.weights + trained.biases for b in theirs)
    trained_params = get_flat_params(trained)
    # training the trained model again leaves it untouched too
    train(trained, x, y, TrainConfig(epochs=1, batch_size=4))
    assert get_flat_params(trained).tobytes() == trained_params.tobytes()

    dup = copy_model(trained)
    for arr in dup.weights + dup.biases:
        arr += 1.0
    assert get_flat_params(trained).tobytes() == trained_params.tobytes()
    assert get_flat_params(m).tobytes() == input_params.tobytes()

    source = trained_params.copy()
    set_flat_params(dup, source)
    source += 1.0
    for arr in dup.weights + dup.biases:
        arr -= 1.0
    assert get_flat_params(dup).tobytes() == (trained_params - 1.0).tobytes()
    assert get_flat_params(trained).tobytes() == trained_params.tobytes()

    save_model(trained, tmp_path / "m.ckpt")
    back = load_model(tmp_path / "m.ckpt")
    np.testing.assert_array_equal(get_flat_params(back), trained_params.astype(np.float32))
    back.weights[0] += 1.0
    assert get_flat_params(trained).tobytes() == trained_params.tobytes()


# --- flat-parameter view ----------------------------------------------------------


def test_flat_params_round_trip():
    m = init_mlp([3, 5, 4], seed=10)
    flat = get_flat_params(m)
    assert flat.shape == (m.num_params(),)
    other = init_mlp([3, 5, 4], seed=99)
    set_flat_params(other, flat)
    for wa, wb in zip(m.weights, other.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(m.biases, other.biases):
        np.testing.assert_array_equal(ba, bb)


def test_set_flat_params_wrong_size():
    m = init_mlp([3, 2], seed=0)
    with pytest.raises(DimensionMismatch):
        set_flat_params(m, np.zeros(m.num_params() + 1))


def test_flat_layout_is_weights_then_bias_per_layer():
    m = init_mlp([2, 3, 2], seed=0)
    flat = get_flat_params(m)
    np.testing.assert_array_equal(flat[:6], m.weights[0].ravel())
    np.testing.assert_array_equal(flat[6:9], m.biases[0])
    np.testing.assert_array_equal(flat[9:15], m.weights[1].ravel())
    np.testing.assert_array_equal(flat[15:], m.biases[1])


# --- checkpoints -------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    m = init_mlp([4, 6, 3], seed=13)
    path = tmp_path / "model.ckpt"
    save_model(m, path)
    back = load_model(path)
    assert back.layer_sizes == m.layer_sizes
    # weights persist as f32, so compare at that precision
    for wa, wb in zip(m.weights, back.weights):
        np.testing.assert_array_equal(wa.astype(np.float32), wb.astype(np.float32))


def test_checkpoint_bytes_deterministic(tmp_path):
    m = init_mlp([4, 3], seed=1)
    save_model(m, tmp_path / "a")
    save_model(m, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_checkpoint_predictions_survive_round_trip(tmp_path):
    m = init_mlp([4, 6, 3], seed=14)
    save_model(m, tmp_path / "m")
    back = load_model(tmp_path / "m")
    x = np.random.default_rng(0).normal(size=(5, 4))
    # f32 storage perturbs probabilities only marginally
    np.testing.assert_allclose(forward(back, x), forward(m, x), atol=1e-5)


def test_load_model_errors(tmp_path):
    with pytest.raises(IoFailure):
        load_model(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.write_bytes(b"no newline here")
    with pytest.raises(IoFailure):
        load_model(bad)
    bad.write_bytes(b"{not json}\n\x00\x00")
    with pytest.raises(IoFailure):
        load_model(bad)
    nan, inf = (np.array(v, dtype="<f4").tobytes() for v in ([1.0, np.nan, 0.0], [1.0, 0.0, np.inf]))
    for header, blob, message in [
        # sizes that would need hundreds of GiB; only the blob length is read
        (b'{"layer_sizes": [200000, 200000, 5]}', b"\x00" * 8, "expected"),
        (b'{"layer_sizes": "ab"}', b"", "bad header"),
        (b'{"layer_sizes": [2, Infinity]}', b"", "bad header"),
        (b'[2, 3]', b"", "bad header"),
        (b'{"layer_sizes": [2, 1], "seed": -1}', b"\x00" * 12, "negative seed"),
        (b'{"layer_sizes": [2, 1]}', b"\x00" * 12, "retrain"),
        (b'{"layer_sizes": [2, 1], "crc32": %d}' % (zlib.crc32(b"\x00" * 12) ^ 1), b"\x00" * 12, "crc32"),
        (b'{"layer_sizes": [2, 1], "crc32": "0"}', b"\x00" * 12, "crc32"),
        (b'{"layer_sizes": [2, 1], "activation": "tanh", "crc32": %d}' % zlib.crc32(b"\x00" * 12),
         b"\x00" * 12, "activation"),
        (b'{"layer_sizes": [2, 1], "crc32": %d}' % zlib.crc32(nan), nan, "non-finite"),
        (b'{"layer_sizes": [2, 1], "crc32": %d}' % zlib.crc32(inf), inf, "non-finite"),
    ]:
        bad.write_bytes(header + b"\n" + blob)
        with pytest.raises(IoFailure, match=message):
            load_model(bad)


def test_checkpoint_checksum_catches_every_flipped_parameter_byte(tmp_path):
    """``crc32`` detects every error burst of up to 32 bits, so any change to
    one byte of the parameter blob is an ``IoFailure``, also one that leaves a
    finite float."""
    path = tmp_path / "m.ckpt"
    save_model(init_mlp([3, 2], seed=2), path)
    raw = path.read_bytes()
    header, blob = raw.split(b"\n", 1)
    assert json.loads(header)["crc32"] == zlib.crc32(blob)
    start = len(header) + 1
    for at in range(start, len(raw)):
        for bits in (1, 0x80, 0xFF):
            path.write_bytes(raw[:at] + bytes([raw[at] ^ bits]) + raw[at + 1:])
            with pytest.raises(IoFailure, match="crc32"):
                load_model(path)
