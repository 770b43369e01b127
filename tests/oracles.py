"""Reference implementations that tests compare the code in src/ against.

Each section is a verbatim copy of code that src/ has since replaced with a
faster version; the copy keeps the old behaviour as the oracle of the new.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from robophoto.core import (
    FEATURE_NAMES,
    LIKELIHOOD_LEVELS,
    BoundingBox,
    FaceObservation,
    Label,
    PictureRecord,
    ValidationError,
)
from robophoto.errors import checked_number
from robophoto.pgm import PGMError

# --- the record reader before one-pass face checks -----------------------------
# core._face_from_dict and _record_from_dict with a checked_number call per value,
# FaceFeatures.__post_init__ with its second round of setattr and _clamp01, pathlib
# crop paths, and face_to_dict with one getattr per feature.


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, float(v)))


@dataclass(frozen=True)
class FaceFeatures:
    """The 9 scalar inputs to the face quality network.

    Angles are degrees in [-180, 180]; likelihoods and image scores live in
    [0, 1] (clamped at construction).
    """

    roll: float
    pitch: float
    yaw: float
    joy: float
    sorrow: float
    anger: float
    surprise: float
    exposure: float
    blur: float

    def __post_init__(self):
        for name in ("roll", "pitch", "yaw"):
            v = float(getattr(self, name))
            if not -180.0 <= v <= 180.0:  # also false for NaN
                raise ValidationError(f"{name}={v} outside [-180, 180]")
            object.__setattr__(self, name, v)
        for name in ("joy", "sorrow", "anger", "surprise", "exposure", "blur"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"{name} is not finite")
            object.__setattr__(self, name, _clamp01(v))

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in FEATURE_NAMES], dtype=np.float64)


_BAD_INPUT = (LookupError, TypeError, ValueError, OSError)


def _face_from_dict(d: dict, base_dir: Optional[Path], read_crops: bool) -> FaceObservation:
    box = d["bbox"]
    bbox = BoundingBox(
        *(checked_number(box[k], ValidationError, k, integer=True) for k in ("x_tl", "y_tl", "x_br", "y_br"))
    )
    raw = d["features"]
    feats = {}
    for name in FEATURE_NAMES:
        v = raw[name]
        if name in ("joy", "sorrow", "anger", "surprise") and isinstance(v, str):
            feats[name] = LIKELIHOOD_LEVELS[v]  # an unknown name raises KeyError, which drops the face
        else:
            feats[name] = checked_number(v, ValidationError, name)
    features = FaceFeatures(**feats)
    image = image_path = None
    path = d.get("face_image_path")
    if path and read_crops:
        p = Path(path)
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        image = read_pgm(p)
        image_path = os.path.abspath(p)
    label = Label.parse(d["label"]) if d.get("label") else None
    score = d.get("score")
    return FaceObservation(
        bbox=bbox,
        features=features,
        face_image=image,
        label=label,
        score=None if score is None else checked_number(score, ValidationError, "score"),
        image_path=image_path,
    )


def _record_from_dict(
    d: dict, base_dir: Optional[Path], read_crops: bool
) -> tuple[PictureRecord, int]:
    """Build a record, dropping its bad faces. Returns (record, n_dropped)."""
    dropped = 0
    faces = []
    for fd in d.get("faces", []):
        try:
            faces.append(_face_from_dict(fd, base_dir, read_crops))
        except _BAD_INPUT:
            dropped += 1
    rec = PictureRecord(
        picture_id=d["picture_id"],
        burst_id=d["burst_id"],
        width=checked_number(d["width"], ValidationError, "width", integer=True),
        height=checked_number(d["height"], ValidationError, "height", integer=True),
        faces=tuple(faces),
        label=Label.parse(d["label"]) if d.get("label") else None,
    )
    return rec, dropped


def face_to_dict(face: FaceObservation) -> dict:
    d = {
        "bbox": {
            "x_tl": face.bbox.x_tl,
            "y_tl": face.bbox.y_tl,
            "x_br": face.bbox.x_br,
            "y_br": face.bbox.y_br,
        },
        "features": {n: getattr(face.features, n) for n in FEATURE_NAMES},
    }
    if face.label is not None:
        d["label"] = face.label.value
    if face.score is not None:
        d["score"] = face.score
    if face.image_path is not None:
        d["face_image_path"] = face.image_path
    return d


# --- the PGM reader before the one-regex header parse ---------------------------


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PGMError("unexpected end of PGM header")
    return data[start:pos], pos


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _read_token(data, 0)
    if magic != b"P5":
        raise PGMError(f"not a binary PGM file: magic {magic!r}")
    w_tok, pos = _read_token(data, pos)
    h_tok, pos = _read_token(data, pos)
    maxval_tok, pos = _read_token(data, pos)
    if not (w_tok.isdigit() and h_tok.isdigit() and maxval_tok.isdigit()):
        raise PGMError(f"PGM size and maxval must be decimal: {w_tok!r} {h_tok!r} {maxval_tok!r}")
    width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    if width * height == 0 or maxval != 255:
        raise PGMError(f"need a non-empty image and maxval 255, got {width}x{height}/{maxval}")
    pos += 1  # single whitespace after maxval
    pixels = data[pos : pos + width * height]
    if len(pixels) != width * height:
        raise PGMError("truncated PGM pixel data")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).copy()
