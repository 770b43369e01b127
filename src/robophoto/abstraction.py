"""Abstract face-layout rendering and the whole-picture CNN classifier.

A picture becomes a fixed-size grayscale canvas: white background, one gray
rectangle per face at its (rescaled) bounding box, intensity 245 * face score.
The gap between 245 and the 255 background keeps rectangles separable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import tinynet
from .core import PictureRecord, UnscoredFaceError, labeled_items
from .tinynet import NetworkModel, TrainConfig

CANVAS_W = 150
CANVAS_H = 100
BACKGROUND = 255
MAX_RECT_INTENSITY = 245


def rect_intensity(score: float) -> int:
    # nearest-even rounding of 245 * r
    return int(np.rint(MAX_RECT_INTENSITY * float(score)))


def render_abstract(picture: PictureRecord) -> np.ndarray:
    """Render a picture's scored faces onto the canonical 150x100 canvas."""
    canvas = np.full((CANVAS_H, CANVAS_W), BACKGROUND, dtype=np.uint8)
    sx = CANVAS_W / picture.width
    sy = CANVAS_H / picture.height
    for f in picture.faces:
        if f.score is None:
            raise UnscoredFaceError(f"face in {picture.picture_id} has no quality score")
        x0 = int(np.floor(f.bbox.x_tl * sx))
        y0 = int(np.floor(f.bbox.y_tl * sy))
        x1 = max(x0 + 1, int(np.ceil(f.bbox.x_br * sx)))
        y1 = max(y0 + 1, int(np.ceil(f.bbox.y_br * sy)))
        x1 = min(x1, CANVAS_W)
        y1 = min(y1, CANVAS_H)
        g = rect_intensity(f.score)
        region = canvas[y0:y1, x0:x1]
        # overlapping rectangles: darker wins
        np.minimum(region, g, out=region)
    return canvas


def build_picture_cnn(seed: int = 0) -> NetworkModel:
    """Layout CNN: two 4x4/stride-3 convs (8, 20 channels), then 1260-100-1 head."""
    layers = []
    shape = (1, CANVAS_H, CANVAS_W)
    for cin, cout in ((1, 8), (8, 20)):
        spec = tinynet.conv2d(cin, cout, 4, 4, stride=3, padding="valid")
        shape = tinynet.conv_output_shape(shape, spec)
        layers += [spec, tinynet.leaky_relu()]
    layers.append(tinynet.flatten())
    flat = int(np.prod(shape))
    layers += [tinynet.dense(flat, 1260), tinynet.leaky_relu()]
    layers += [tinynet.dense(1260, 100), tinynet.leaky_relu()]
    layers += [tinynet.dense(100, 1), tinynet.sigmoid()]
    return tinynet.build_model(
        layers,
        seed=seed,
        metadata={"architecture": "picture_cnn", "flatten_length": flat},
    )


def image_to_input(image: np.ndarray) -> np.ndarray:
    """Network input with inverted contrast: the white background maps to 0
    so rectangle activations dominate the signal."""
    if image.shape != (CANVAS_H, CANVAS_W):
        raise tinynet.ShapeError(f"expected {CANVAS_H}x{CANVAS_W} canvas, got {image.shape}")
    return ((255.0 - image.astype(np.float64)) / 255.0)[None, :, :]


def classify_picture(model: NetworkModel, abstract_image: np.ndarray) -> float:
    """Forward pass on an abstract image; callers treat score >= 0.5 as Good."""
    return tinynet.forward(model, image_to_input(abstract_image))


def _picture_inputs(pictures: Iterable[PictureRecord]):
    """Network input of each scored picture, produced lazily. Training and
    scoring both encode pictures here."""
    return (image_to_input(render_abstract(p)) for p in pictures)


def classify_pictures(model: NetworkModel, pictures: Iterable[PictureRecord]) -> np.ndarray:
    """Layout scores for scored pictures, rendered and scored in batches."""
    return tinynet.forward_many(model, _picture_inputs(pictures))


def train_picture_cnn(
    pictures: Sequence[PictureRecord], config: TrainConfig
) -> tuple[NetworkModel, list[float]]:
    """Train the layout CNN, built from config.seed, on the abstract renders of
    the labeled pictures."""
    kept, good = labeled_items(pictures, "pictures")
    xs = np.stack(list(_picture_inputs(kept)))
    return tinynet.train(build_picture_cnn(seed=config.seed), xs, good, config)
