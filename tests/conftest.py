import json
import struct

import numpy as np
import pytest

from robophoto.core import (
    BoundingBox,
    FaceFeatures,
    FaceObservation,
    Label,
    PictureRecord,
)


def neutral_features(**overrides):
    base = dict(
        roll=0.0, pitch=0.0, yaw=0.0, joy=0.5, sorrow=0.0, anger=0.0,
        surprise=0.0, exposure=0.5, blur=0.1,
    )
    base.update(overrides)
    return FaceFeatures(**base)


def make_face(x_tl, y_tl, x_br, y_br, score=None, label=None, image=None):
    return FaceObservation(
        bbox=BoundingBox(x_tl, y_tl, x_br, y_br),
        features=neutral_features(),
        face_image=image,
        label=label,
        score=score,
    )


def make_picture(faces, width=3000, height=2000, picture_id="p0", burst_id="b0", label=None):
    return PictureRecord(
        picture_id=picture_id,
        burst_id=burst_id,
        width=width,
        height=height,
        faces=tuple(faces),
        label=label,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rewrite_model_header(path, edit):
    """Replace a saved model's JSON header by edit(header), keeping the weights."""
    data = path.read_bytes()
    (n,) = struct.unpack("<Q", data[5:13])
    blob = json.dumps(edit(json.loads(data[13 : 13 + n]))).encode("utf-8")
    path.write_bytes(data[:5] + struct.pack("<Q", len(blob)) + blob + data[13 + n :])


def set_at(value, path, new):
    """value with the item at path, a sequence of keys and list indices, replaced by new."""
    *head, last = path
    target = value
    for key in head:
        target = target[key]
    target[last] = new
    return value
