"""Abstract face-layout rendering and the whole-picture CNN classifier.

A picture becomes a fixed-size grayscale canvas: white background, one gray
rectangle per face at its (rescaled) bounding box, intensity 245 * face score.
The gap between 245 and the 255 background keeps rectangles separable.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import tinynet
from .core import Dataset, PictureRecord, UnscoredFaceError, labeled_rows
from .tinynet import NetworkModel, TrainConfig

CANVAS_W = 150
CANVAS_H = 100
BACKGROUND = 255
MAX_RECT_INTENSITY = 245


def rect_intensity(score: float) -> int:
    # nearest-even rounding of 245 * r
    return int(np.rint(MAX_RECT_INTENSITY * float(score)))


def _render(picture_id: str, width: int, height: int, faces: Iterable[tuple[Sequence, float]]) -> np.ndarray:
    """The one renderer: the canvas of one picture from its plain values, each face
    its (x_tl, y_tl, x_br, y_br) box and its score (NaN when unscored)."""
    canvas = np.full((CANVAS_H, CANVAS_W), BACKGROUND, dtype=np.uint8)
    sx, sy = CANVAS_W / width, CANVAS_H / height
    for (x_tl, y_tl, x_br, y_br), score in faces:
        if math.isnan(score):
            raise UnscoredFaceError(f"face in {picture_id} has no quality score")
        x0, y0 = int(np.floor(x_tl * sx)), int(np.floor(y_tl * sy))
        x1 = min(max(x0 + 1, int(np.ceil(x_br * sx))), CANVAS_W)
        y1 = min(max(y0 + 1, int(np.ceil(y_br * sy))), CANVAS_H)
        region = canvas[y0:y1, x0:x1]
        np.minimum(region, rect_intensity(score), out=region)  # overlapping rectangles: darker wins
    return canvas


def render_abstract(picture: PictureRecord) -> np.ndarray:
    """Render a picture's scored faces onto the canonical 150x100 canvas."""
    faces = [((f.bbox.x_tl, f.bbox.y_tl, f.bbox.x_br, f.bbox.y_br), math.nan if f.score is None else f.score)
             for f in picture.faces]
    return _render(picture.picture_id, picture.width, picture.height, faces)


def render_dataset(data: Dataset) -> Iterator[np.ndarray]:
    """The canvas of each picture of a Dataset, in row order, rendered lazily from its columns."""
    ends, boxes, scores = data.offsets.tolist(), data.bbox.tolist(), data.score.tolist()
    for i, row in enumerate(zip(data.picture_id.tolist(), data.width.tolist(), data.height.tolist())):
        yield _render(*row, zip(boxes[ends[i] : ends[i + 1]], scores[ends[i] : ends[i + 1]]))


def build_picture_cnn(seed: int = 0) -> NetworkModel:
    """Layout CNN: two 4x4/stride-3 convs (8, 20 channels), then 1260-100-1 head."""
    convs = ((8, 4, 3, "valid"), (20, 4, 3, "valid"))
    return tinynet.build_network((1, CANVAS_H, CANVAS_W), convs, (1260, 100), tinynet.leaky_relu, seed=seed,
                                 metadata={"architecture": "picture_cnn"})


def image_to_input(image: np.ndarray) -> np.ndarray:
    """Network input with inverted contrast: the white background maps to 0
    so rectangle activations dominate the signal."""
    if image.shape != (CANVAS_H, CANVAS_W):
        raise tinynet.ShapeError(f"expected {CANVAS_H}x{CANVAS_W} canvas, got {image.shape}")
    return ((255.0 - image.astype(np.float64)) / 255.0)[None, :, :]


def classify_picture(model: NetworkModel, abstract_image: np.ndarray) -> float:
    """Forward pass on an abstract image; callers treat score >= 0.5 as Good."""
    return tinynet.forward(model, image_to_input(abstract_image))


def _picture_inputs(data: Dataset):
    """Network input of each scored picture, produced lazily. Training and
    scoring both encode pictures here."""
    return (image_to_input(canvas) for canvas in render_dataset(data))


def classify_pictures(model: NetworkModel, data: Dataset) -> np.ndarray:
    """Layout scores for a Dataset's scored pictures, rendered and scored in batches."""
    return tinynet.forward_many(model, _picture_inputs(data))


def train_picture_cnn(data: Dataset, config: TrainConfig) -> tuple[NetworkModel, list[float]]:
    """Train the layout CNN, built from config.seed, on the abstract renders of
    a Dataset's labeled pictures."""
    rows, good = labeled_rows(data.label.tolist(), "pictures")
    xs = np.fromiter(_picture_inputs(data.take(rows)), (np.float32, (1, CANVAS_H, CANVAS_W)), len(rows))
    return tinynet.train(build_picture_cnn(seed=config.seed), xs, good, config)
