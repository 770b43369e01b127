"""Face quality classifiers: a 9-feature MLP and a CNN over 40x30 crops."""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from . import tinynet
from .core import FEATURE_NAMES, FaceObservation, _checked_crop, labeled_rows
from .errors import DatasetError, checked_number
from .tinynet import ModelFormatError, NetworkModel, TrainConfig

FACE_CROP_W = 40
FACE_CROP_H = 30


class MissingInputError(DatasetError):
    pass


def build_face_ann(seed: int = 0) -> NetworkModel:
    """MLP 9 -> 32 -> 64 -> 64 -> 32 -> 16 -> 1 with ReLU hiddens and sigmoid output."""
    layers = [tinynet.dense(9, 32), tinynet.relu()]
    for a, b in ((32, 64), (64, 64), (64, 32), (32, 16)):
        layers += [tinynet.dense(a, b), tinynet.relu()]
    layers += [tinynet.dense(16, 1), tinynet.sigmoid()]
    return tinynet.build_model(layers, seed=seed, metadata={"architecture": "face_ann"})


def build_face_cnn(seed: int = 0) -> NetworkModel:
    """CNN over 1x30x40 crops: five 3x3/stride-2 convs then a deep MLP head.

    Five stride-2 valid convolutions cannot fit a 30x40 input, so the convs
    use "same" zero padding (sizes 15x20 -> 8x10 -> 4x5 -> 2x3 -> 1x2,
    flatten length 192*1*2 = 384).
    """
    layers = []
    channels = [1, 96, 96, 96, 192, 192]
    shape = (1, FACE_CROP_H, FACE_CROP_W)
    for cin, cout in zip(channels, channels[1:]):
        spec = tinynet.conv2d(cin, cout, 3, 3, stride=2, padding="same")
        shape = tinynet.conv_output_shape(shape, spec)
        layers += [spec, tinynet.relu()]
    layers.append(tinynet.flatten())
    flat = int(np.prod(shape))
    widths = [100, 200, 400, 800, 400, 200, 10]
    prev = flat
    for w in widths:
        layers += [tinynet.dense(prev, w), tinynet.relu()]
        prev = w
    layers += [tinynet.dense(prev, 1), tinynet.sigmoid()]
    return tinynet.build_model(
        layers,
        seed=seed,
        metadata={"architecture": "face_cnn", "conv_padding": "same", "flatten_length": flat},
    )


def _resample_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resample of a 2-D float image."""
    in_h, in_w = image.shape
    ys = np.linspace(0.0, in_h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, in_w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    img = image.astype(np.float64)
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bot = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bot * wy


def preprocess_face(face_image: np.ndarray) -> np.ndarray:
    """Resample a face crop to 40x30 and scale intensities into [0, 1].

    Returns a 1x30x40 tensor. Crops below 30x30 raise core's ValidationError.
    """
    if face_image is None:
        raise MissingInputError("face_cnn scoring needs a face image")
    resized = _resample_bilinear(_checked_crop(face_image), FACE_CROP_H, FACE_CROP_W)
    return (resized / 255.0)[None, :, :]


# the smallest feature std: a smaller one would blow z-scores up to inf
STD_FLOOR = 1e-9
# the largest z-score a scaling may give a feature within [-180, 180] (every
# feature's range lies inside it); it keeps the first dense layer's sums finite
Z_LIMIT = 1e150


def standardize_features(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and std over a training matrix (std floored at STD_FLOOR)."""
    mean = vectors.mean(axis=0)
    std = np.maximum(vectors.std(axis=0), STD_FLOOR)
    return mean, std


def _feature_scaling(metadata: dict):
    """The face MLP's (mean, std) rows from its metadata, or None when it reads
    raw features. Both must be absent, or both lists of 9 numbers (see
    errors.checked_number), every std at least STD_FLOOR and no in-range
    feature's z-score beyond Z_LIMIT."""
    pair = metadata.get("feature_mean"), metadata.get("feature_std")
    if pair[0] is None and pair[1] is None:
        return None
    if not all(isinstance(row, list) and len(row) == len(FEATURE_NAMES) for row in pair):
        raise ModelFormatError(f"feature_mean, feature_std must be lists of 9 numbers: {pair}")
    mean, std = ([checked_number(v, ModelFormatError, "a feature scaling entry") for v in row] for row in pair)
    if min(std) < STD_FLOOR:
        raise ModelFormatError(f"every feature_std entry must be at least {STD_FLOOR}: {std}")
    if max((180.0 + abs(m)) / s for m, s in zip(mean, std)) > Z_LIMIT:  # an overflow gives inf, not an error
        raise ModelFormatError(f"an in-range feature's z-score exceeds {Z_LIMIT} under {pair}")
    return np.array([mean, std])


def reads_crops(model: NetworkModel) -> bool:
    """Whether a face model scores crops (the face CNN) rather than the 9 features."""
    return model.metadata.get("architecture", "") == "face_cnn"


def _feature_inputs(model: NetworkModel, vectors: np.ndarray) -> np.ndarray:
    """The face MLP's input rows for (F, 9) features; training and scoring both encode them here."""
    scaling = _feature_scaling(model.metadata)
    return vectors if scaling is None else (vectors - scaling[0]) / scaling[1]


def score_faces(model: NetworkModel, features: np.ndarray, crops: Sequence) -> np.ndarray:
    """Quality scores in [0, 1] of faces given as a Dataset's (F, 9) features and crop columns,
    scored in batches; the model kind picks the input, and crops are preprocessed lazily."""
    if reads_crops(model):
        return tinynet.forward_many(model, (preprocess_face(crop) for crop in crops))
    return tinynet.forward_many(model, _feature_inputs(model, np.asarray(features, dtype=np.float64)))


def _face_columns(faces: Sequence[FaceObservation]) -> tuple[np.ndarray, list]:
    """The features and crop columns a Dataset would hold for these face objects."""
    return np.array([obs.features.as_vector() for obs in faces]).reshape(-1, 9), [obs.face_image for obs in faces]


def score_face(model: NetworkModel, obs: FaceObservation) -> float:
    """Quality score in [0, 1] for one observation; picks input by model kind."""
    return float(score_faces(model, *_face_columns([obs]))[0])


def train_face_ann(features: np.ndarray, labels: Sequence, config: TrainConfig) -> tuple[NetworkModel, list[float]]:
    """Train the feature MLP, built from config.seed, on the labeled rows of a Dataset's
    features and face_label columns; z-scoring constants go into metadata."""
    rows, good = labeled_rows(labels, "faces")
    vectors = np.asarray(features, dtype=np.float64)[rows]
    mean, std = standardize_features(vectors)
    model = build_face_ann(seed=config.seed)
    model = replace(model, metadata={**model.metadata, "feature_mean": mean.tolist(), "feature_std": std.tolist()})
    return tinynet.train(model, _feature_inputs(model, vectors), good, config)


def train_face_cnn(crops: Sequence, labels: Sequence, config: TrainConfig) -> tuple[NetworkModel, list[float]]:
    """Train the face CNN, built from config.seed, on the labeled faces that have a crop,
    from a Dataset's crop and face_label columns."""
    rows, good = labeled_rows([None if crop is None else label for crop, label in zip(crops, labels)],
                              "faces with images")
    xs = np.stack([preprocess_face(crops[i]) for i in rows])
    return tinynet.train(build_face_cnn(seed=config.seed), xs, good, config)


def evaluate_face_model(model: NetworkModel, faces: Sequence[FaceObservation]) -> float:
    """Fraction of labeled faces where (score >= 0.5) agrees with the label."""
    rows, good = labeled_rows([obs.label for obs in faces], "faces")
    scores = score_faces(model, *_face_columns([faces[i] for i in rows]))
    return int(np.count_nonzero((scores >= 0.5) == good)) / len(rows)
