import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rewrite_model_header
import oracles
from oracles import gradient_check
from robophoto import tinynet
from robophoto.abstraction import CANVAS_H, CANVAS_W, build_picture_cnn, classify_pictures
from robophoto.core import Dataset
from robophoto.face_quality import FACE_CROP_H, FACE_CROP_W, build_face_ann, build_face_cnn
from robophoto.synthetic import make_layout_dataset
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
    forward_batch,
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
    outs, _ = zip(*tinynet._forward_steps(m, x[None]))
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
    return xs, ys


def test_train_learns_linear_separator():
    xs, ys = _linearly_separable(200, seed=5)
    model = build_model([dense(2, 1), sigmoid()], seed=1)
    trained, history = train(model, xs, ys, TrainConfig(epochs=300, learning_rate=0.5, seed=2))
    acc = np.mean((forward_batch(trained, xs) >= 0.5) == (ys == 1.0))
    assert acc >= 0.99
    assert len(history) == 300


def test_train_zero_learning_rate_is_noop():
    xs, ys = _linearly_separable(50, seed=1)
    model = build_model([dense(2, 3), relu(), dense(3, 1), sigmoid()], seed=4)
    trained, history = train(model, xs, ys, TrainConfig(epochs=5, learning_rate=0.0, seed=0))
    for w0, w1 in zip(model.weights, trained.weights):
        for k in w0:
            assert np.array_equal(w0[k], w1[k])
    assert len(set(np.round(history, 12))) == 1


def test_train_deterministic_same_seed():
    xs, ys = _linearly_separable(80, seed=9)
    model = build_model([dense(2, 4), relu(), dense(4, 1), sigmoid()], seed=0)
    cfg = TrainConfig(epochs=20, learning_rate=0.1, seed=77)
    a, _ = train(model, xs, ys, cfg)
    b, _ = train(model, xs, ys, cfg)
    for wa, wb in zip(a.weights, b.weights):
        for k in wa:
            assert np.array_equal(wa[k], wb[k])


def test_first_step_loss_decreases_small_lr():
    xs, ys = _linearly_separable(64, seed=2)
    model = build_model([dense(2, 8), relu(), dense(8, 1), sigmoid()], seed=6)
    before, _ = tinynet.loss_and_gradients(model, xs, ys)
    trained, _ = train(model, xs, ys, TrainConfig(epochs=1, batch_size=64, learning_rate=1e-4, seed=0))
    after, _ = tinynet.loss_and_gradients(trained, xs, ys)
    assert after <= before


def test_gradient_check_dense(rng):
    m = build_model([dense(9, 4), relu(), dense(4, 1), sigmoid()], seed=11)
    err = gradient_check(m, rng.normal(size=9), 1.0, 1e-5)
    assert err < 1e-4


def test_gradient_check_conv(rng):
    m = build_model(
        [conv2d(1, 2, 3, 3, stride=2, padding="valid"), relu(), flatten(), dense(2 * 2 * 3, 1), sigmoid()],
        seed=12,
    )
    err = gradient_check(m, rng.normal(size=(1, 6, 8)), 0.0, 1e-5)
    assert err < 1e-4


def test_gradient_check_stacked_convs_layout_like(rng):
    # valid 4x4 stride-3 convs over several channels, as in the layout CNN;
    # the second conv's input gradient runs through _col2im
    m = build_model(
        [
            conv2d(2, 3, 4, 4, stride=3, padding="valid"),
            leaky_relu(),
            conv2d(3, 2, 4, 4, stride=3, padding="valid"),
            leaky_relu(),
            flatten(),
            dense(2 * 2 * 2, 1),
            sigmoid(),
        ],
        seed=13,
    )
    err = gradient_check(m, rng.normal(size=(2, 22, 25)), 1.0, 1e-5)
    assert err < 1e-4


def test_gradient_check_stacked_convs_face_like(rng):
    # "same" 3x3 stride-2 convs over odd map sizes, as in the face CNN
    m = build_model(
        [
            conv2d(1, 3, 3, 3, stride=2, padding="same"),
            relu(),
            conv2d(3, 2, 3, 3, stride=2, padding="same"),
            relu(),
            flatten(),
            dense(2 * 3 * 3, 1),
            sigmoid(),
        ],
        seed=14,
    )
    err = gradient_check(m, rng.normal(size=(1, 9, 11)), 0.0, 1e-5)
    assert err < 1e-4


def _conv_oracle(x, W, b, stride, padding, dy):
    """Direct nested-loop convolution: output, dW, db and dx for upstream dy."""
    n, c, h, w = x.shape
    o, _, fh, fw = W.shape
    if padding == "same":
        out_h, out_w = -(-h // stride), -(-w // stride)
        pad_h = max((out_h - 1) * stride + fh - h, 0)
        pad_w = max((out_w - 1) * stride + fw - w, 0)
    else:
        out_h, out_w = (h - fh) // stride + 1, (w - fw) // stride + 1
        pad_h = pad_w = 0
    top, left = pad_h // 2, pad_w // 2
    xp = np.zeros((n, c, h + pad_h, w + pad_w))
    xp[:, :, top : top + h, left : left + w] = x
    out = np.zeros((n, o, out_h, out_w))
    dW, db, dxp = np.zeros_like(W), np.zeros_like(b), np.zeros_like(xp)
    for s in range(n):
        for k in range(o):
            for i in range(out_h):
                for j in range(out_w):
                    rows = slice(i * stride, i * stride + fh)
                    cols = slice(j * stride, j * stride + fw)
                    out[s, k, i, j] = np.sum(xp[s, :, rows, cols] * W[k]) + b[k]
                    dW[k] += dy[s, k, i, j] * xp[s, :, rows, cols]
                    db[k] += dy[s, k, i, j]
                    dxp[s, :, rows, cols] += dy[s, k, i, j] * W[k]
    return out, dW, db, dxp[:, :, top : top + h, left : left + w]


@pytest.mark.parametrize("padding", ["valid", "same"])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("filter_hw", [(3, 3), (2, 4)])
def test_conv_matches_nested_loop_oracle(padding, stride, filter_hw, rng):
    fh, fw = filter_hw
    spec = conv2d(2, 3, fh, fw, stride=stride, padding=padding)
    params = {"W": rng.normal(size=(3, 2, fh, fw)), "b": rng.normal(size=3)}
    x = rng.normal(size=(2, 2, 7, 9))
    out, cache = tinynet._layer_forward(0, spec, params, x)
    dy = rng.normal(size=out.shape)
    want_out, want_dW, want_db, want_dx = _conv_oracle(x, params["W"], params["b"], stride, padding, dy)
    assert out.shape == want_out.shape
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    dx, grads = tinynet._layer_backward(spec, params, cache, out, dy, need_dx=True)
    np.testing.assert_allclose(grads["W"], want_dW, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads["b"], want_db, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-12)
    skipped, same_grads = tinynet._layer_backward(spec, params, cache, out, dy, need_dx=False)
    assert skipped is None
    for key in grads:
        assert np.array_equal(same_grads[key], grads[key])


def test_face_cnn_training_is_byte_deterministic(tmp_path, rng):
    xs, ys = rng.random((8, 1, FACE_CROP_H, FACE_CROP_W)), np.arange(8) % 2
    config = TrainConfig(epochs=2, batch_size=4, learning_rate=0.01, optimizer="momentum", seed=5)
    blobs = []
    for name in ("a", "b"):
        trained, _ = train(build_face_cnn(seed=3), xs, ys, config)
        save_model(trained, tmp_path / f"{name}.tnet")
        blobs.append((tmp_path / f"{name}.tnet").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("optimizer", tinynet.OPTIMIZERS)
def test_update_matches_the_written_out_formula_bit_for_bit(optimizer, rng):
    xs, ys = rng.normal(size=(6, 9)), np.arange(6) % 2.0
    lr, epochs, seed = 0.1, 3, 2
    config = TrainConfig(epochs=epochs, batch_size=6, learning_rate=lr, optimizer=optimizer, seed=seed)
    trained, _ = train(small_mlp(), xs, ys, config)

    # one full batch per epoch, so each epoch is one step, all in float32
    model = small_mlp()
    start = [{k: v.astype(np.float32) for k, v in w.items()} for w in model.weights]
    weights = [dict(w) for w in start]
    velocity = [{k: np.zeros_like(v) for k, v in w.items()} for w in weights]
    order_rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = order_rng.permutation(len(xs))
        _, grads = tinynet.loss_and_gradients(replace(model, weights=tuple(weights)), xs[order], ys[order])
        for w, v, g in zip(weights, velocity, grads):
            for k in g:
                assert g[k].dtype == np.float32
                if optimizer == "momentum":
                    v[k] = tinynet.MOMENTUM * v[k] - lr * g[k]
                    w[k] = w[k] + v[k]
                else:
                    w[k] = w[k] - lr * g[k]
    # the float64 model moves by the float32 weights' total change
    for got, w0, w32, s in zip(trained.weights, model.weights, weights, start):
        for k in w0:
            assert got[k].dtype == np.float64
            assert np.array_equal(got[k], w0[k] + (w32[k] - s[k]).astype(np.float64))



ACTIVATIONS = ("relu", "leaky_relu", "sigmoid")
IN_SHAPE = (2, 5, 6)


@st.composite
def layer_stacks(draw):
    """Random stacks of every layer kind on IN_SHAPE inputs: activation runs of 0-2 layers
    before and after an optional conv2d, after flatten and after each hidden dense layer,
    ending in dense(*, 1) and sigmoid."""

    def activations():
        return [tinynet.LayerSpec(kind=k) for k in draw(st.lists(st.sampled_from(ACTIVATIONS), max_size=2))]

    layers, shape = activations(), IN_SHAPE
    if draw(st.booleans()):
        spec = conv2d(2, 3, 3, 3, stride=draw(st.sampled_from([1, 2])), padding=draw(st.sampled_from(["valid", "same"])))
        shape = tinynet.conv_output_shape(shape, spec)
        layers += [spec, *activations()]
    layers += [flatten(), *activations()]
    width = int(np.prod(shape))
    for units in draw(st.lists(st.integers(1, 4), max_size=2)):
        layers += [dense(width, units), *activations()]
        width = units
    return layers + [dense(width, 1), sigmoid()]


FLAT = int(np.prod(IN_SHAPE))


@settings(max_examples=60, deadline=None)
@given(
    layers=layer_stacks(),
    dtype=st.sampled_from([np.float32, np.float64]),
    optimizer=st.sampled_from(tinynet.OPTIMIZERS),
    seed=st.integers(0, 2**16),
)
@example(layers=[relu(), flatten(), dense(FLAT, 1), sigmoid()], dtype=np.float32, optimizer="momentum", seed=0)
@example(layers=[flatten(), relu(), leaky_relu(), dense(FLAT, 3), sigmoid(), dense(3, 1), sigmoid()],
         dtype=np.float64, optimizer="sgd", seed=1)
@example(layers=[leaky_relu(), relu(), conv2d(2, 3, 3, 3), relu(), leaky_relu(), flatten(), dense(36, 1), sigmoid()],
         dtype=np.float64, optimizer="momentum", seed=2)
def test_flat_buffers_and_in_place_activations_match_the_oracle_bit_for_bit(layers, dtype, optimizer, seed):
    model = build_model(layers, seed=seed)
    typed = replace(model, weights=tuple({k: v.astype(dtype) for k, v in w.items()} for w in model.weights))
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(6, *IN_SHAPE)).astype(dtype), np.arange(6) % 2.0
    before = x.copy()

    loss, grads = tinynet.loss_and_gradients(typed, x, y)
    ref_loss, ref_grads = oracles.reference_loss_and_gradients(typed, x, y)
    assert loss == ref_loss
    for got, want in zip(grads, ref_grads, strict=True):
        assert got.keys() == want.keys()
        assert all(got[k].dtype == want[k].dtype and np.array_equal(got[k], want[k]) for k in want)

    wide = x.astype(np.float64, copy=False)  # forward_batch reads float32 input in float64
    ref_out = oracles._forward_all(typed, wide.copy())[0][-1][:, 0]
    assert np.array_equal(forward_batch(typed, x), ref_out)

    config = TrainConfig(epochs=2, batch_size=4, learning_rate=0.1, optimizer=optimizer, seed=seed)
    trained, history = train(model, x, y, config)
    ref_trained, ref_history = oracles.reference_train(model, x, y, config)
    assert history == ref_history and trained.metadata == ref_trained.metadata
    for got, want in zip(trained.weights, ref_trained.weights, strict=True):
        assert all(got[k].dtype == np.float64 and np.array_equal(got[k], want[k]) for k in want)
    assert x.tobytes() == before.tobytes()  # no activation wrote into the caller's input


def test_leaky_relu_as_a_maximum_has_the_bits_of_where():
    for dtype in (np.float32, np.float64):
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0], dtype=dtype)
        x = np.concatenate([x, tiny * np.array([1, -1, 3, -3, 99, -99, 2**20, -(2**20)], dtype=dtype)])
        want = np.where(x > 0, x, tinynet.LEAKY_SLOPE * x)
        assert np.maximum(x, tinynet.LEAKY_SLOPE * x).tobytes() == want.tobytes()
        out, cache = tinynet._layer_forward(0, leaky_relu(), {}, x.copy(), inplace=True)
        assert out.tobytes() == want.tobytes() and cache is None

# kind -> (a layer of that kind, its input shape); a one-unit dense layer has its own path
LAYER_CASES = {
    "dense": (dense(4, 3), (2, 4)),
    "dense_one_unit": (dense(4, 1), (2, 4)),
    "conv2d": (conv2d(2, 3, 3, 3, stride=2, padding="same"), (2, 2, 5, 6)),
    **{kind: (tinynet.LayerSpec(kind=kind), (2, 3, 4)) for kind in ("relu", "leaky_relu", "sigmoid", "flatten")},
}


def test_layer_cases_cover_every_kind():
    assert {spec.kind for spec, _ in LAYER_CASES.values()} == set(tinynet.LAYER_KINDS)


@pytest.mark.parametrize("need_dx", [True, False])
@pytest.mark.parametrize("case", sorted(LAYER_CASES))
def test_layers_keep_float32(case, need_dx, rng):
    spec, shape = LAYER_CASES[case]
    params = {k: v.astype(np.float32) for k, v in tinynet._init_layer(spec, rng).items()}
    x = rng.normal(size=shape).astype(np.float32)
    out, cache = tinynet._layer_forward(0, spec, params, x)
    assert out.dtype == np.float32
    dy = rng.normal(size=out.shape).astype(np.float32)
    dx, grads = tinynet._layer_backward(spec, params, cache, out, dy, need_dx=need_dx)
    if params and not need_dx:  # dense and conv skip the input gradient
        assert dx is None
    else:
        assert dx.dtype == np.float32
    assert grads.keys() == params.keys()
    assert all(g.dtype == np.float32 for g in grads.values())


def test_one_unit_dense_output_does_not_depend_on_batch_position(rng):
    # BLAS gemv rounds a row by its place in the batch; in float32 that moves
    # the training loss of an unchanged model from one epoch's batching to the next
    spec = dense(64, 1)
    params = {k: v.astype(np.float32) for k, v in tinynet._init_layer(spec, rng).items()}
    x = rng.normal(size=(40, 64)).astype(np.float32)
    whole, _ = tinynet._layer_forward(0, spec, params, x)
    for start in range(8):
        part, _ = tinynet._layer_forward(0, spec, params, x[start : start + 17].copy())
        assert np.array_equal(part, whole[start : start + 17])


def _float32(model):
    return replace(model, weights=tuple({k: v.astype(np.float32) for k, v in w.items()} for w in model.weights))


@pytest.mark.parametrize(
    "build, shape",
    [
        (build_face_ann, (9,)),
        (build_face_cnn, (1, FACE_CROP_H, FACE_CROP_W)),
        (build_picture_cnn, (1, CANVAS_H, CANVAS_W)),
    ],
    ids=["face_mlp", "face_cnn", "layout_cnn"],
)
def test_float32_gradients_match_float64(build, shape, rng):
    model = build(seed=2)
    xs, ys = rng.random((4, *shape)), np.arange(4) % 2
    loss64, grads64 = tinynet.loss_and_gradients(model, xs, ys)
    loss32, grads32 = tinynet.loss_and_gradients(_float32(model), xs, ys)
    assert loss32 == pytest.approx(loss64, rel=1e-5)
    for g32, g64 in zip(grads32, grads64):
        assert g32.keys() == g64.keys()
        for k in g64:
            assert g32[k].dtype == np.float32
            np.testing.assert_allclose(g32[k], g64[k], rtol=1e-4, atol=1e-4 * np.abs(g64[k]).max())


def test_output_saturated_in_float32_gives_a_finite_loss():
    # sigmoid(100) = 1 - 4e-44 rounds to 1.0 in float32, where 1 - 1e-12 is 1.0 as well
    model = tinynet.NetworkModel(
        layers=(dense(1, 1), sigmoid()),
        weights=({"W": np.full((1, 1), 100.0), "b": np.zeros(1)}, {}),
    )
    xs, ys = np.ones((2, 1)), np.array([1.0, 0.0])
    assert forward_batch(_float32(model), xs.astype(np.float32)).tolist() == [1.0, 1.0]
    loss, _ = tinynet.loss_and_gradients(_float32(model), xs, ys)
    assert loss == pytest.approx(-np.log(1e-12) / 2)
    _, history = train(model, xs, ys, TrainConfig(epochs=2, batch_size=2, learning_rate=1e-3, seed=0))
    assert np.all(np.isfinite(history))


def test_sigmoid_saturates_without_warning_and_matches_plain_formula():
    m = tinynet.NetworkModel(
        layers=(dense(1, 1), sigmoid()),
        weights=({"W": np.ones((1, 1)), "b": np.zeros(1)}, {}),
    )
    x = np.linspace(-30.0, 30.0, 20001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        extremes = forward_batch(m, np.array([[-1000.0], [1000.0]]))
        out = forward_batch(m, x[:, None])
    assert extremes.tolist() == [0.0, 1.0]
    np.testing.assert_array_max_ulp(out, 1.0 / (1.0 + np.exp(-x)), maxulp=1)


def test_gradient_check_zero_weights(rng):
    m = build_model([dense(4, 3), relu(), dense(3, 1), sigmoid()], seed=0)
    zeroed = tinynet.NetworkModel(
        layers=m.layers,
        weights=tuple({k: np.zeros_like(v) for k, v in w.items()} for w in m.weights),
    )
    err = gradient_check(zeroed, rng.normal(size=4), 1.0, 1e-5)
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
    err = gradient_check(m, rng.normal(size=3), float(rng.integers(0, 2)), 1e-5)
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
        train(small_mlp(), np.zeros((1, 9)), np.array([0.5]), TrainConfig(epochs=1))
    with pytest.raises(ValueError):  # one target per input row
        train(small_mlp(), np.zeros((2, 9)), np.array([1.0]), TrainConfig(epochs=1))


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
    "edit",
    [
        lambda data: data[:9],
        lambda data: data + b"\x00",
        lambda data: data[:5] + (2**62).to_bytes(8, "little") + data[13:],
    ],
    ids=["9_bytes", "trailing_byte", "header_length_beyond_file"],
)
def test_load_rejects_wrong_length(tmp_path, edit):
    path = tmp_path / "m.tnet"
    save_model(small_mlp(), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize(
    "layer, params",
    [
        (0, {"W": np.zeros((9, 5)), "b": np.zeros(4)}),
        (2, {"W": np.zeros((4, 1)), "b": np.zeros(2)}),
        (1, {"W": np.zeros((4, 4))}),
    ],
    ids=["dense_W", "dense_b", "weightless_layer"],
)
def test_load_rejects_params_that_do_not_fit_the_spec(tmp_path, layer, params):
    m = small_mlp()
    weights = list(m.weights)
    weights[layer] = params
    path = tmp_path / "m.tnet"
    save_model(tinynet.NetworkModel(layers=m.layers, weights=tuple(weights)), path)
    with pytest.raises(ModelFormatError, match=f"layer {layer}"):
        load_model(path)


def test_load_rejects_a_header_nested_too_deep(tmp_path):
    blob = b"[" * 100_000 + b"]" * 100_000
    path = tmp_path / "m.tnet"
    path.write_bytes(b"TNET1" + len(blob).to_bytes(8, "little") + blob)
    with pytest.raises(ModelFormatError):
        load_model(path)


def _edit_layer0(h, change):
    return {**h, "layers": [change(dict(h["layers"][0])), *h["layers"][1:]]}


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


MALFORMED_HEADERS = {
    "layer_unknown_key": lambda h: _edit_layer0(h, lambda d: {**d, "colour": 1}),
    "layer_missing_key": lambda h: _edit_layer0(h, lambda d: _without(d, "stride")),
    "layer_missing_kind": lambda h: _edit_layer0(h, lambda d: _without(d, "kind")),
    "layer_not_object": lambda h: _edit_layer0(h, lambda d: "dense"),
    "layer_unknown_kind": lambda h: _edit_layer0(h, lambda d: {**d, "kind": "tanh"}),
    "layer_bad_units": lambda h: _edit_layer0(h, lambda d: {**d, "in_units": -9}),
    "layer_mistyped_units": lambda h: _edit_layer0(h, lambda d: {**d, "in_units": "9"}),
    # 9.0 still equals the 9 in the header's shapes, so only the type check catches it
    "layer_float_units": lambda h: _edit_layer0(h, lambda d: {**d, "in_units": 9.0}),
    "shapes_entry_not_object": lambda h: {**h, "shapes": [list(s.values()) for s in h["shapes"]]},
    "metadata_not_object": lambda h: {**h, "metadata": [1]},
    "no_layers": lambda h: _without(h, "layers"),
    "no_params": lambda h: _without(h, "params"),
    "no_shapes": lambda h: _without(h, "shapes"),
    "no_metadata": lambda h: _without(h, "metadata"),
    "layers_not_list": lambda h: {**h, "layers": 4},
    "header_list": lambda h: [h],
    "header_string": lambda h: "header",
}


@pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_load_rejects_malformed_header(tmp_path, edit):
    path = tmp_path / "m.tnet"
    save_model(small_mlp(), path)
    rewrite_model_header(path, lambda h: h)
    assert load_model(path).layers == small_mlp().layers  # the rewrite alone is harmless
    rewrite_model_header(path, edit)
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
    xs, ys = np.stack([np.ones(9), -np.ones(9)]), np.array([True, False])
    trained, _ = train(loaded, xs, ys, TrainConfig(epochs=2, learning_rate=0.1))
    fresh, _ = train(small_mlp(), xs, ys, TrainConfig(epochs=2, learning_rate=0.1))
    for wt, wf in zip(trained.weights, fresh.weights):
        for k in wt:
            assert np.array_equal(wt[k], wf[k])


def _conv_model():
    layers = [conv2d(1, 2, 3, 3, stride=2, padding="same"), relu(), flatten(), dense(2 * 3 * 4, 1), sigmoid()]
    return build_model(layers, seed=8, metadata={"architecture": "test"})


# each way a caller may hold its weights: the writer must give the old writer's bytes for all
WEIGHT_LAYOUTS = {
    "float64": lambda v: v,
    "float32": lambda v: v.astype(np.float32),
    "transposed": lambda v: np.ascontiguousarray(v.T).T,  # the same values, not C-contiguous
    "big_endian": lambda v: v.astype(">f8"),
}


@pytest.mark.parametrize("layout", WEIGHT_LAYOUTS.values(), ids=WEIGHT_LAYOUTS.keys())
def test_save_model_writes_the_bytes_of_the_copying_writer(tmp_path, layout):
    m = _conv_model()
    m = replace(m, weights=tuple({k: layout(v) for k, v in w.items()} for w in m.weights))
    if layout is WEIGHT_LAYOUTS["transposed"]:
        assert not m.weights[0]["W"].flags.c_contiguous
    save_model(m, tmp_path / "new.tnet")
    oracles.save_model(m, tmp_path / "old.tnet")
    assert (tmp_path / "new.tnet").read_bytes() == (tmp_path / "old.tnet").read_bytes()


def test_save_model_of_a_loaded_model_gives_its_file_back(tmp_path):
    path = tmp_path / "m.tnet"
    save_model(_conv_model(), path)
    loaded = load_model(path)  # read-only arrays over the bytes read
    save_model(loaded, tmp_path / "again.tnet")
    oracles.save_model(loaded, tmp_path / "old.tnet")
    assert (tmp_path / "again.tnet").read_bytes() == path.read_bytes() == (tmp_path / "old.tnet").read_bytes()


def _traced_peak(fn) -> int:
    """Bytes tracemalloc sees allocated at the peak of fn(), above what was allocated when it
    started: this process's own allocations, not its RSS, so the figure does not depend on the host."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def _nbytes(model) -> int:
    return sum(v.nbytes for w in model.weights for v in w.values())


@pytest.mark.parametrize("optimizer", tinynet.OPTIMIZERS)
def test_training_the_layout_cnn_holds_one_spare_copy_of_the_weights(optimizer, rng):
    model = build_picture_cnn()
    xs = rng.random((64, 1, CANVAS_H, CANVAS_W), dtype=np.float32)
    config = TrainConfig(epochs=1, batch_size=32, learning_rate=0.01, optimizer=optimizer)
    peak = _traced_peak(lambda: train(model, xs, np.arange(64) % 2, config))
    # float32 weights, velocity and one step's gradients are 1.5x the float64 model, the
    # step's activations about 0.5x more; keeping a second gradient set or the velocity
    # through the float64 write-back read 2.57x
    assert peak <= 2.2 * _nbytes(model), f"traced peak {peak / _nbytes(model):.2f}x the model"


def test_sgd_training_allocates_no_velocity(rng):
    # sgd never reads a velocity, so its traced peak sits a float32 copy of the weights
    # (half the float64 model's bytes) below momentum's, which keeps one
    model = build_picture_cnn()
    xs = rng.random((64, 1, CANVAS_H, CANVAS_W), dtype=np.float32)
    peaks = {
        optimizer: _traced_peak(lambda: train(model, xs, np.arange(64) % 2, TrainConfig(
            epochs=1, batch_size=32, learning_rate=0.01, optimizer=optimizer)))
        for optimizer in tinynet.OPTIMIZERS
    }
    float32_weights = _nbytes(model) / 2
    assert peaks["momentum"] - peaks["sgd"] >= 0.9 * float32_weights, (peaks, float32_weights)


def test_scoring_pictures_holds_a_bounded_working_set():
    # one reused 32-input block (3.7 MiB) and one row block's conv temporaries; stacking each
    # batch from a list of its inputs and running its convs on all 32 rows read about 20 MB
    model = build_picture_cnn()
    datasets = [Dataset(records=make_layout_dataset(n, seed=3)) for n in (64, 256)]
    peaks = [_traced_peak(lambda: classify_pictures(model, data)) for data in datasets]
    assert max(peaks) <= 8 * 2**20, f"scoring raised the traced peak by {peaks} bytes"
    assert abs(peaks[1] - peaks[0]) <= 2**20, peaks


def test_save_model_copies_no_float64_weights(tmp_path):
    model = build_picture_cnn()
    peak = _traced_peak(lambda: save_model(model, tmp_path / "m.tnet"))
    assert peak < 2**20, f"saving a {_nbytes(model)}-byte model raised the traced peak by {peak} bytes"
