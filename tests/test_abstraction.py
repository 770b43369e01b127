import numpy as np
import pytest

from conftest import make_face, make_picture
from oracles import gradient_check
from robophoto import tinynet
from robophoto.abstraction import (
    BACKGROUND,
    CANVAS_H,
    CANVAS_W,
    MAX_RECT_INTENSITY,
    UnscoredFaceError,
    build_picture_cnn,
    classify_picture,
    image_to_input,
    rect_intensity,
    render_abstract,
)


def test_rect_intensity_endpoints():
    assert rect_intensity(0.0) == 0
    assert rect_intensity(1.0) == MAX_RECT_INTENSITY
    assert rect_intensity(0.5) == round(MAX_RECT_INTENSITY / 2)


def test_render_faceless_is_all_background():
    canvas = render_abstract(make_picture([]))
    assert canvas.shape == (CANVAS_H, CANVAS_W)
    assert (canvas == BACKGROUND).all()


def test_render_full_frame_face():
    pic = make_picture([make_face(0, 0, 3000, 2000, score=1.0)])
    canvas = render_abstract(pic)
    assert (canvas == MAX_RECT_INTENSITY).all()


def test_render_rect_position_and_value():
    # picture coordinates map to canvas via 150/3000 = 1/20 and 100/2000 = 1/20
    pic = make_picture([make_face(600, 400, 1200, 1000, score=0.8)])
    canvas = render_abstract(pic)
    g = rect_intensity(0.8)
    assert (canvas[20:50, 30:60] == g).all()
    assert (canvas[:20, :] == BACKGROUND).all()
    assert (canvas[:, :30] == BACKGROUND).all()
    assert (canvas[50:, :] == BACKGROUND).all()
    assert (canvas[:, 60:] == BACKGROUND).all()


def test_render_tiny_face_still_visible():
    pic = make_picture([make_face(1500, 1000, 1503, 1002, score=0.5)])
    canvas = render_abstract(pic)
    assert (canvas < BACKGROUND).any()


def test_render_overlap_darker_wins():
    pic = make_picture(
        [
            make_face(600, 400, 1800, 1400, score=0.9),
            make_face(1000, 600, 1400, 1000, score=0.2),
        ]
    )
    canvas = render_abstract(pic)
    assert (canvas[30:50, 50:70] == rect_intensity(0.2)).all()


def test_render_requires_scores():
    with pytest.raises(UnscoredFaceError):
        render_abstract(make_picture([make_face(0, 0, 100, 100)]))


def test_render_deterministic():
    pic = make_picture([make_face(123, 456, 789, 1011, score=0.77)])
    assert np.array_equal(render_abstract(pic), render_abstract(pic))


def test_picture_cnn_flatten_and_output():
    model = build_picture_cnn(seed=0)
    assert model.metadata["flatten_length"] == 3200
    canvas = np.full((CANVAS_H, CANVAS_W), BACKGROUND, dtype=np.uint8)
    s = classify_picture(model, canvas)
    assert 0.0 <= s <= 1.0


def test_image_to_input_inverts_contrast():
    canvas = np.full((CANVAS_H, CANVAS_W), BACKGROUND, dtype=np.uint8)
    canvas[10, 10] = 0
    x = image_to_input(canvas)
    assert x.shape == (1, CANVAS_H, CANVAS_W)
    assert x[0, 0, 0] == 0.0
    assert x[0, 10, 10] == 1.0


def test_image_to_input_rejects_wrong_shape():
    with pytest.raises(tinynet.ShapeError):
        image_to_input(np.zeros((10, 10), dtype=np.uint8))


def test_picture_cnn_gradient_check(rng):
    # a thin stand-in with the same layer kinds keeps the check fast
    layers = [
        tinynet.conv2d(1, 2, 4, 4, stride=3, padding="valid"),
        tinynet.leaky_relu(),
        tinynet.flatten(),
        tinynet.dense(2 * 3 * 4, 1),
        tinynet.sigmoid(),
    ]
    model = tinynet.build_model(layers, seed=5)
    err = gradient_check(model, rng.normal(size=(1, 11, 14)), 1.0, 1e-5)
    assert err < 1e-4
