import numpy as np
import pytest

from conftest import face_columns, make_face, neutral_features
from robophoto import tinynet
from robophoto.core import DatasetError, FaceObservation, Label, ValidationError
from robophoto.face_quality import (
    FACE_CROP_H,
    FACE_CROP_W,
    MissingInputError,
    build_face_ann,
    build_face_cnn,
    evaluate_face_model,
    preprocess_face,
    score_face,
    standardize_features,
    train_face_ann,
)
from robophoto.synthetic import make_face_feature_dataset


def _param_count(model):
    return sum(int(np.prod(v.shape)) for w in model.weights for v in w.values())


def test_ann_parameter_count():
    assert _param_count(build_face_ann()) == 9217


def test_ann_output_in_unit_interval(rng):
    model = build_face_ann(seed=2)
    for _ in range(20):
        obs = make_face(0, 0, 100, 100)
        obs = FaceObservation(
            bbox=obs.bbox, features=neutral_features(yaw=float(rng.uniform(-90, 90)))
        )
        s = score_face(model, obs)
        assert 0.0 <= s <= 1.0


def test_cnn_flatten_length_and_forward():
    model = build_face_cnn(seed=1)
    assert model.metadata["flatten_length"] == 384
    x = np.zeros((1, FACE_CROP_H, FACE_CROP_W))
    y = tinynet.forward(model, x)
    assert 0.0 <= y <= 1.0


def test_preprocess_shape_and_range(rng):
    img = rng.integers(0, 256, size=(60, 80), dtype=np.uint8)
    x = preprocess_face(img)
    assert x.shape == (1, FACE_CROP_H, FACE_CROP_W)
    assert x.min() >= 0.0 and x.max() <= 1.0


def test_preprocess_exact_size_is_identity(rng):
    img = rng.integers(0, 256, size=(FACE_CROP_H, FACE_CROP_W), dtype=np.uint8)
    x = preprocess_face(img)
    assert np.allclose(x[0], img / 255.0)


def test_preprocess_constant_image_stays_constant():
    img = np.full((50, 70), 100, dtype=np.uint8)
    x = preprocess_face(img)
    assert np.allclose(x, 100 / 255.0)


def test_preprocess_rejects_small_crop():
    with pytest.raises(ValidationError):
        preprocess_face(np.zeros((20, 50), dtype=np.uint8))


def test_standardize_zero_variance_floored():
    mat = np.ones((10, 3))
    mean, std = standardize_features(mat)
    assert np.allclose(mean, 1.0)
    assert (std > 0).all()


def test_cnn_scoring_requires_image():
    model = build_face_cnn()
    obs = make_face(0, 0, 100, 100)
    with pytest.raises(MissingInputError):
        score_face(model, obs)


def test_train_ann_learns_rule():
    faces = make_face_feature_dataset(600, seed=3)
    held = make_face_feature_dataset(200, seed=4)
    cfg = tinynet.TrainConfig(epochs=60, batch_size=32, learning_rate=0.005, seed=0)
    model, history = train_face_ann(*face_columns(faces), cfg)
    assert history[-1] < history[0]
    assert evaluate_face_model(model, held) >= 0.75


def test_train_ann_deterministic():
    faces = make_face_feature_dataset(100, seed=1)
    cfg = tinynet.TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=5)
    a, ha = train_face_ann(*face_columns(faces), cfg)
    b, hb = train_face_ann(*face_columns(faces), cfg)
    assert ha == hb
    for wa, wb in zip(a.weights, b.weights):
        for k in wa:
            assert np.array_equal(wa[k], wb[k])


def test_train_ann_requires_labels():
    with pytest.raises(DatasetError):
        train_face_ann(*face_columns([make_face(0, 0, 100, 100)]), tinynet.TrainConfig(epochs=1))


def test_evaluate_requires_labels():
    with pytest.raises(ValueError):
        evaluate_face_model(build_face_ann(), [make_face(0, 0, 100, 100)])


def test_evaluate_all_correct_constant_model():
    # a model with zero weights scores exactly 0.5 everywhere, which counts
    # as a Good prediction under the >= 0.5 rule
    model = build_face_ann()
    zeroed = tinynet.NetworkModel(
        layers=model.layers,
        weights=tuple({k: np.zeros_like(v) for k, v in w.items()} for w in model.weights),
        metadata=model.metadata,
    )
    faces = [make_face(0, 0, 100, 100, label=Label.GOOD) for _ in range(4)]
    assert evaluate_face_model(zeroed, faces) == 1.0
