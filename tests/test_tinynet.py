import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robophoto import tinynet
from robophoto.tinynet import (
    ModelFormatError,
    ShapeError,
    TrainConfig,
    UnsupportedVersionError,
    build_model,
    conv2d,
    dense,
    flatten,
    forward,
    gradient_check,
    leaky_relu,
    load_model,
    relu,
    save_model,
    sigmoid,
    train,
)


def small_mlp(seed=0):
    return build_model([dense(9, 4), relu(), dense(4, 1), sigmoid()], seed=seed)


def test_zero_weight_dense_outputs_half():
    m = small_mlp()
    zeroed = tinynet.NetworkModel(
        layers=m.layers,
        weights=tuple({k: np.zeros_like(v) for k, v in w.items()} for w in m.weights),
    )
    assert forward(zeroed, np.ones(9)) == 0.5


def test_identity_dense_sigmoid_at_zero():
    m = build_model([dense(1, 1), sigmoid()], seed=0)
    w = ({"W": np.array([[1.0]]), "b": np.array([0.0])}, {})
    m = tinynet.NetworkModel(layers=m.layers, weights=w)
    assert forward(m, np.zeros(1)) == 0.5


def test_conv_constant_input_constant_map():
    spec = conv2d(1, 1, 3, 3, stride=1, padding="valid")
    m = build_model([spec], seed=0)
    x = np.full((1, 6, 6), 2.0)
    outs, _ = tinynet._forward_all(m, x[None])
    out = outs[-1][0, 0]
    assert np.allclose(out, out[0, 0])


def test_forward_shape_error_names_layer():
    m = small_mlp()
    with pytest.raises(ShapeError, match="layer 0"):
        forward(m, np.zeros(5))


def test_forward_deterministic():
    m = small_mlp(seed=3)
    x = np.linspace(-1, 1, 9)
    assert forward(m, x) == forward(m, x)


def _linearly_separable(n, seed):
    rng = np.random.default_rng(seed)
    w = np.array([1.5, -2.0])
    xs = rng.normal(size=(n, 2))
    ys = (xs @ w + 0.3 > 0).astype(float)
    return [(x, y) for x, y in zip(xs, ys)]


def test_train_learns_linear_separator():
    samples = _linearly_separable(200, seed=5)
    model = build_model([dense(2, 1), sigmoid()], seed=1)
    trained, history = train(model, samples, TrainConfig(epochs=300, learning_rate=0.5, seed=2))
    preds = [forward(trained, x) >= 0.5 for x, _ in samples]
    acc = np.mean([p == (y == 1.0) for p, (_, y) in zip(preds, samples)])
    assert acc >= 0.99
    assert len(history) == 300


def test_train_zero_learning_rate_is_noop():
    samples = _linearly_separable(50, seed=1)
    model = small_mlp()
    # dense(9,...) does not fit 2 features; rebuild for the sample shape
    model = build_model([dense(2, 3), relu(), dense(3, 1), sigmoid()], seed=4)
    trained, history = train(model, samples, TrainConfig(epochs=5, learning_rate=0.0, seed=0))
    for w0, w1 in zip(model.weights, trained.weights):
        for k in w0:
            assert np.array_equal(w0[k], w1[k])
    assert len(set(np.round(history, 12))) == 1


def test_train_deterministic_same_seed():
    samples = _linearly_separable(80, seed=9)
    model = build_model([dense(2, 4), relu(), dense(4, 1), sigmoid()], seed=0)
    cfg = TrainConfig(epochs=20, learning_rate=0.1, seed=77)
    a, _ = train(model, samples, cfg)
    b, _ = train(model, samples, cfg)
    for wa, wb in zip(a.weights, b.weights):
        for k in wa:
            assert np.array_equal(wa[k], wb[k])


def test_first_step_loss_decreases_small_lr():
    samples = _linearly_separable(64, seed=2)
    model = build_model([dense(2, 8), relu(), dense(8, 1), sigmoid()], seed=6)
    xs = np.stack([x for x, _ in samples])
    ys = np.array([y for _, y in samples])
    before, _ = tinynet.loss_and_gradients(model, xs, ys)
    trained, _ = train(model, samples, TrainConfig(epochs=1, batch_size=64, learning_rate=1e-4, seed=0))
    after, _ = tinynet.loss_and_gradients(trained, xs, ys)
    assert after <= before


def test_gradient_check_dense(rng):
    m = build_model([dense(9, 4), relu(), dense(4, 1), sigmoid()], seed=11)
    err = gradient_check(m, (rng.normal(size=9), 1.0), 1e-5)
    assert err < 1e-4


def test_gradient_check_conv(rng):
    m = build_model(
        [conv2d(1, 2, 3, 3, stride=2, padding="valid"), relu(), flatten(), dense(2 * 2 * 3, 1), sigmoid()],
        seed=12,
    )
    err = gradient_check(m, (rng.normal(size=(1, 6, 8)), 0.0), 1e-5)
    assert err < 1e-4


def test_gradient_check_zero_weights(rng):
    m = build_model([dense(4, 3), relu(), dense(3, 1), sigmoid()], seed=0)
    zeroed = tinynet.NetworkModel(
        layers=m.layers,
        weights=tuple({k: np.zeros_like(v) for k, v in w.items()} for w in m.weights),
    )
    err = gradient_check(zeroed, (rng.normal(size=4), 1.0), 1e-5)
    assert err < 1e-6


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    hidden=st.integers(1, 6),
    act=st.sampled_from(["relu", "leaky_relu"]),
)
def test_gradient_check_random_architectures(seed, hidden, act):
    activation = relu() if act == "relu" else leaky_relu()
    m = build_model([dense(3, hidden), activation, dense(hidden, 1), sigmoid()], seed=seed)
    rng = np.random.default_rng(seed)
    err = gradient_check(m, (rng.normal(size=3), float(rng.integers(0, 2))), 1e-5)
    assert err < 1e-4


def test_train_config_rejects_unknown_optimizer():
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="adam")


def test_loss_needs_sigmoid_output():
    m = build_model([dense(3, 1)], seed=0)
    with pytest.raises(ShapeError, match="sigmoid"):
        tinynet.loss_and_gradients(m, np.zeros((2, 3)), np.array([0.0, 1.0]))


def test_train_rejects_bad_labels():
    with pytest.raises(ValueError):
        train(small_mlp(), [(np.zeros(9), 0.5)], TrainConfig(epochs=1))


def test_save_load_roundtrip(tmp_path, rng):
    m = build_model(
        [conv2d(1, 2, 3, 3, stride=2, padding="same"), relu(), flatten(), dense(2 * 3 * 4, 1), sigmoid()],
        seed=8,
        metadata={"architecture": "test"},
    )
    path = tmp_path / "m.tnet"
    save_model(m, path)
    back = load_model(path)
    assert back.layers == m.layers
    assert back.metadata["architecture"] == "test"
    for wa, wb in zip(m.weights, back.weights):
        for k in wa:
            assert np.array_equal(wa[k], wb[k])
    for _ in range(100):
        x = rng.normal(size=(1, 6, 8))
        assert forward(m, x) == forward(back, x)


def test_load_corrupt_magic(tmp_path):
    path = tmp_path / "bad.tnet"
    path.write_bytes(b"NOPE1" + b"\x00" * 32)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_newer_version(tmp_path):
    m = small_mlp()
    path = tmp_path / "m.tnet"
    save_model(m, path)
    data = bytearray(path.read_bytes())
    data[4] = ord("2")  # bump the version digit
    path.write_bytes(bytes(data))
    with pytest.raises(UnsupportedVersionError):
        load_model(path)


def test_load_truncated(tmp_path):
    m = small_mlp()
    path = tmp_path / "m.tnet"
    save_model(m, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 16])
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize(
    "edit", [lambda data: data[:9], lambda data: data + b"\x00"], ids=["9_bytes", "trailing_byte"]
)
def test_load_rejects_wrong_length(tmp_path, edit):
    path = tmp_path / "m.tnet"
    save_model(small_mlp(), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_loaded_weights_are_aligned_read_only_and_trainable(tmp_path):
    path = tmp_path / "m.tnet"
    save_model(small_mlp(), path)
    loaded = load_model(path)
    assert all(v.flags.aligned for w in loaded.weights for v in w.values())
    w = loaded.weights[0]["W"]
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    samples = [(np.ones(9), 1.0), (-np.ones(9), 0.0)]
    trained, _ = train(loaded, samples, TrainConfig(epochs=2, learning_rate=0.1))
    fresh, _ = train(small_mlp(), samples, TrainConfig(epochs=2, learning_rate=0.1))
    for wt, wf in zip(trained.weights, fresh.weights):
        for k in wt:
            assert np.array_equal(wt[k], wf[k])
