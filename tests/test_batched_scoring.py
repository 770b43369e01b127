"""The batched scoring path agrees with scoring one input at a time.

Sizes straddle the SCORE_BATCH chunk edges. Batched BLAS products may round
differently from batch-1 ones, so agreement is to 1e-12, not bit equality.
"""

from dataclasses import replace

import numpy as np
import pytest

from robophoto import tinynet
from robophoto.abstraction import (
    build_picture_cnn,
    classify_picture,
    classify_pictures,
    render_abstract,
)
from robophoto.face_quality import build_face_cnn, score_face, score_faces, train_face_ann
from robophoto.synthetic import make_face_feature_dataset, make_layout_dataset

SIZES = (0, 1, 31, 32, 33, 65)
TOL = 1e-12


def test_chunk_edges_cover_score_batch():
    assert tinynet.SCORE_BATCH == 32


@pytest.fixture(scope="module")
def faces():
    return make_face_feature_dataset(max(SIZES), seed=5)


@pytest.fixture(scope="module")
def face_ann(faces):
    config = tinynet.TrainConfig(epochs=1, batch_size=16, learning_rate=0.01, seed=0)
    model, _ = train_face_ann(faces, config)
    return model


@pytest.mark.parametrize("n", SIZES)
def test_face_ann_batched_matches_per_item(face_ann, faces, n):
    batched = score_faces(face_ann, faces[:n])
    single = np.array([score_face(face_ann, f) for f in faces[:n]])
    assert batched.shape == (n,)
    np.testing.assert_allclose(batched, single, rtol=0, atol=TOL)


@pytest.fixture(scope="module")
def crop_faces(faces):
    rng = np.random.default_rng(6)
    return [
        replace(f, face_image=rng.integers(0, 256, size=(45, 60), dtype=np.uint8)) for f in faces
    ]


@pytest.mark.parametrize("n", SIZES)
def test_face_cnn_batched_matches_per_item(crop_faces, n):
    model = build_face_cnn(seed=3)
    batched = score_faces(model, crop_faces[:n])
    single = np.array([score_face(model, f) for f in crop_faces[:n]])
    assert batched.shape == (n,)
    np.testing.assert_allclose(batched, single, rtol=0, atol=TOL)


@pytest.fixture(scope="module")
def layouts():
    return make_layout_dataset(max(SIZES), seed=7)


@pytest.mark.parametrize("n", SIZES)
def test_layout_cnn_batched_matches_per_item(layouts, n):
    model = build_picture_cnn(seed=4)
    batched = classify_pictures(model, layouts[:n])
    single = np.array([classify_picture(model, render_abstract(p)) for p in layouts[:n]])
    assert batched.shape == (n,)
    np.testing.assert_allclose(batched, single, rtol=0, atol=TOL)


def test_forward_batch_needs_one_output_per_input():
    model = tinynet.build_model([tinynet.dense(3, 2)], seed=0)
    with pytest.raises(tinynet.ShapeError, match="one scalar output per input"):
        tinynet.forward_batch(model, np.zeros((4, 3)))
