"""The batched scoring path agrees with scoring one input at a time.

Sizes straddle the SCORE_BATCH chunk edges. Batched BLAS products may round
differently from batch-1 ones, so agreement is to 1e-12, not bit equality.
Row blocks inside one forward_batch keep the whole batch's bits exactly.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import face_columns
from robophoto import tinynet
from robophoto.abstraction import (
    CANVAS_H,
    CANVAS_W,
    build_picture_cnn,
    classify_picture,
    classify_pictures,
    render_abstract,
)
from robophoto.core import Dataset
from robophoto.face_quality import FACE_CROP_H, FACE_CROP_W, build_face_cnn, score_face, score_faces, train_face_ann
from robophoto.synthetic import make_face_feature_dataset, make_layout_dataset

SIZES = (0, 1, 31, 32, 33, 65)
TOL = 1e-12


def test_chunk_edges_cover_score_batch():
    assert tinynet.SCORE_BATCH == 32


@pytest.fixture(scope="module")
def faces():
    return make_face_feature_dataset(max(SIZES), seed=5)


def _score_columns(faces):
    """The features and crop columns a Dataset would hold for these faces."""
    return face_columns(faces)[0], [f.face_image for f in faces]


@pytest.fixture(scope="module")
def face_ann(faces):
    config = tinynet.TrainConfig(epochs=1, batch_size=16, learning_rate=0.01, seed=0)
    model, _ = train_face_ann(*face_columns(faces), config)
    return model


@pytest.mark.parametrize("n", SIZES)
def test_face_ann_batched_matches_per_item(face_ann, faces, n):
    batched = score_faces(face_ann, *_score_columns(faces[:n]))
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
    batched = score_faces(model, *_score_columns(crop_faces[:n]))
    single = np.array([score_face(model, f) for f in crop_faces[:n]])
    assert batched.shape == (n,)
    np.testing.assert_allclose(batched, single, rtol=0, atol=TOL)


@pytest.fixture(scope="module")
def layouts():
    return make_layout_dataset(max(SIZES), seed=7)


@pytest.mark.parametrize("n", SIZES)
def test_layout_cnn_batched_matches_per_item(layouts, n):
    model = build_picture_cnn(seed=4)
    batched = classify_pictures(model, Dataset(records=layouts[:n]))
    single = np.array([classify_picture(model, render_abstract(p)) for p in layouts[:n]])
    assert batched.shape == (n,)
    np.testing.assert_allclose(batched, single, rtol=0, atol=TOL)


def test_forward_batch_needs_one_output_per_input():
    model = tinynet.build_model([tinynet.dense(3, 2)], seed=0)
    with pytest.raises(tinynet.ShapeError, match="one scalar output per input"):
        tinynet.forward_batch(model, np.zeros((4, 3)))


def _block_edges(shape):
    """Batch sizes around the row block of a float64 input of this shape and around SCORE_BATCH."""
    rows = tinynet.BLOCK_BYTES // (8 * math.prod(shape))
    return sorted({1, rows - 1, rows, rows + 1, 31, 32, 33} - {0})


CONV_NETS = {"picture_cnn": (build_picture_cnn, (1, CANVAS_H, CANVAS_W)), "face_cnn": (build_face_cnn, (1, FACE_CROP_H, FACE_CROP_W))}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch", sorted(CONV_NETS))
def test_row_blocks_keep_the_whole_batch_bits(arch, dtype):
    build, shape = CONV_NETS[arch]
    model = build(seed=2)
    rng = np.random.default_rng(8)
    sizes = _block_edges(shape)
    assert len(sizes) == 7  # both edges are tested, and the picture CNN's row block is not one row
    for n in sizes:
        x = rng.random((n, *shape)).astype(dtype)
        whole = oracles._forward_all(model, x.astype(np.float64))[0][-1][:, 0]
        assert np.array_equal(tinynet.forward_batch(model, x), whole), n


def _chunked_reference(model, inputs):
    """Scores of float64 stacks of SCORE_BATCH inputs, run through every layer at once."""
    x = np.array(inputs, dtype=np.float64)
    steps = range(0, len(x), tinynet.SCORE_BATCH)
    return np.concatenate([oracles._forward_all(model, x[i : i + tinynet.SCORE_BATCH])[0][-1][:, 0] for i in steps])


@pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.int64])
def test_forward_many_scores_narrow_inputs_as_float64(face_ann, dtype):
    rng = np.random.default_rng(9)
    canvases = list(rng.integers(0, 256, size=(35, 1, CANVAS_H, CANVAS_W)).astype(dtype))
    model = build_picture_cnn(seed=4)
    assert np.array_equal(tinynet.forward_many(model, iter(canvases)), _chunked_reference(model, canvases))
    features = rng.integers(-90, 90, size=(70, 9)).astype(dtype)
    assert np.array_equal(tinynet.forward_many(face_ann, features), _chunked_reference(face_ann, features))
    assert np.array_equal(tinynet.forward_many(face_ann, list(features)), _chunked_reference(face_ann, features))


@pytest.mark.parametrize("second", [(1,), (3, 9), (8,)])
def test_forward_many_rejects_an_input_shaped_unlike_the_first(face_ann, second):
    inputs = [np.zeros(9)] * 40 + [np.zeros(second)]  # a (1,) input would broadcast into a (9,) row
    with pytest.raises(tinynet.ShapeError, match="input 40 has shape"):
        tinynet.forward_many(face_ann, inputs)


def test_forward_many_keeps_no_view_of_its_reused_block():
    identity = tinynet.NetworkModel(layers=(), weights=())  # its output is a view of its input
    inputs = [np.array([float(i)]) for i in range(2 * tinynet.SCORE_BATCH + 3)]
    assert tinynet.forward_many(identity, inputs).tolist() == [float(i) for i in range(len(inputs))]
