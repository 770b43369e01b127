"""Domain types and dataset handling shared by the whole pipeline.

All types are immutable after construction; every operation here is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DatasetError, UsageError, checked_number, checked_numbers, parsed_json
from .pgm import read_pgm

MIN_FACE_SIDE = 30

# Discrete likelihood levels arriving from an external feature provider are
# mapped to fixed numeric values at ingest.
LIKELIHOOD_LEVELS = {
    "VERY_UNLIKELY": 0.0,
    "UNLIKELY": 0.25,
    "POSSIBLE": 0.5,
    "LIKELY": 0.75,
    "VERY_LIKELY": 1.0,
}

FEATURE_NAMES = (
    "roll",
    "pitch",
    "yaw",
    "joy",
    "sorrow",
    "anger",
    "surprise",
    "exposure",
    "blur",
)

# one encoder for every JSON Lines file (json.dumps builds one per call); rows hold no cycles
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


class ParseError(DatasetError):
    pass


class ValidationError(DatasetError):
    pass


class NoFacesError(DatasetError):
    pass


class UnscoredFaceError(DatasetError):
    pass


class Label(str, Enum):
    GOOD = "Good"
    BAD = "Bad"

    @classmethod
    def parse(cls, value: str) -> "Label":
        key = value.strip().lower() if isinstance(value, str) else None
        if key not in ("good", "bad"):
            raise ValidationError(f"unknown label {value!r}")
        return cls.GOOD if key == "good" else cls.BAD


class FaceCountCategory(Enum):
    ONE = "one"
    TWO = "two"
    THREE_PLUS = "three_plus"


@dataclass(frozen=True)
class BoundingBox:
    x_tl: int
    y_tl: int
    x_br: int
    y_br: int

    def __post_init__(self):
        if not (0 <= self.x_tl < self.x_br and 0 <= self.y_tl < self.y_br):
            raise ValidationError(f"degenerate bounding box {self}")

    @property
    def width(self) -> int:
        return self.x_br - self.x_tl

    @property
    def height(self) -> int:
        return self.y_br - self.y_tl

    @property
    def area(self) -> int:
        return self.width * self.height


@dataclass(frozen=True, init=False)
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

    def __init__(self, roll, pitch, yaw, joy, sorrow, anger, surprise, exposure, blur):
        # checked (a range test is False for NaN) and clamped first, so each field is written once
        roll, pitch, yaw, *rest = map(float, (roll, pitch, yaw, joy, sorrow, anger, surprise, exposure, blur))
        if not (-180.0 <= roll <= 180.0 and -180.0 <= pitch <= 180.0 and -180.0 <= yaw <= 180.0):
            raise ValidationError(f"angles {(roll, pitch, yaw)} outside [-180, 180]")
        if not all(map(math.isfinite, rest)):
            raise ValidationError(f"likelihoods and image scores {rest} must be finite")
        rest = [0.0 if v <= 0.0 else 1.0 if v >= 1.0 else v for v in rest]  # -0.0 becomes 0.0
        for name, v in zip(FEATURE_NAMES, (roll, pitch, yaw, *rest)):
            object.__setattr__(self, name, v)  # a written __dict__ would slow every later attribute read

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in FEATURE_NAMES], dtype=np.float64)


@dataclass(frozen=True)
class FaceObservation:
    bbox: BoundingBox
    features: FaceFeatures
    face_image: Optional[np.ndarray] = None  # 8-bit grayscale, HxW
    label: Optional[Label] = None
    score: Optional[float] = None
    image_path: Optional[str] = None  # absolute path face_image was read from

    def __post_init__(self):
        if self.face_image is not None:
            h, w = self.face_image.shape
            if h < MIN_FACE_SIDE or w < MIN_FACE_SIDE:
                raise ValidationError(f"face image {w}x{h} below {MIN_FACE_SIDE}x{MIN_FACE_SIDE}")
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"face score {self.score} outside [0, 1]")

    def with_score(self, score: float) -> "FaceObservation":
        return replace(self, score=float(score))


@dataclass(frozen=True)
class PictureRecord:
    picture_id: str
    burst_id: str
    width: int
    height: int
    faces: tuple[FaceObservation, ...]
    label: Optional[Label] = None

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise ValidationError(f"degenerate image size {self.width}x{self.height}")
        ids = (self.picture_id, self.burst_id)
        if not (isinstance(ids[0], str) and isinstance(ids[1], str) and all(ids)):
            raise ValidationError(f"ids must be non-empty strings: {ids}")
        object.__setattr__(self, "faces", tuple(self.faces))
        for f in self.faces:
            b = f.bbox
            if b.x_br > self.width or b.y_br > self.height:
                raise ValidationError(
                    f"face bbox {b} outside {self.width}x{self.height} image"
                )


@dataclass(frozen=True)
class Dataset:
    records: tuple[PictureRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        ids = Counter(r.picture_id for r in self.records)
        if len(ids) != len(self.records):
            raise ValidationError(f"duplicate picture_id {ids.most_common(1)[0][0]!r}")

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class ValidationResult:
    dataset: Dataset
    dropped_faces: int
    dropped_records: int


def labeled_items(items: Sequence, what: str) -> tuple[list, np.ndarray]:
    """The items that carry a label, and the mask of those labelled Good: the
    one rule for what trains, fits or scores against a label."""
    kept = [item for item in items if item.label is not None]
    if not kept:
        raise DatasetError(f"no labeled {what}")
    return kept, np.array([item.label is Label.GOOD for item in kept])


def face_count_category(picture: PictureRecord) -> FaceCountCategory:
    """Bucket a picture by its face count: 1, 2, or 3+."""
    n = len(picture.faces)
    if n == 0:
        raise NoFacesError(f"picture {picture.picture_id} has no faces")
    if n == 1:
        return FaceCountCategory.ONE
    if n == 2:
        return FaceCountCategory.TWO
    return FaceCountCategory.THREE_PLUS


# what a bad face or record raises, DatasetError included: it is dropped and counted
_BAD_INPUT = (LookupError, TypeError, ValueError, OSError)


_BBOX_KEYS = ("x_tl", "y_tl", "x_br", "y_br")
_bbox_row, _feature_row = itemgetter(*_BBOX_KEYS), itemgetter(*FEATURE_NAMES)
_feature_values = attrgetter(*FEATURE_NAMES)


def _face_from_dict(d: dict, base_dir: str, read_crops: bool) -> FaceObservation:
    bbox = BoundingBox(*checked_numbers(_bbox_row(d["bbox"]), ValidationError, _BBOX_KEYS, integer=True))
    values = list(_feature_row(d["features"]))
    # joy..surprise may be level names; an unknown name stays a string, which the number check rejects
    values[3:7] = map(LIKELIHOOD_LEVELS.get, values[3:7], values[3:7])
    features = FaceFeatures(*checked_numbers(values, ValidationError, FEATURE_NAMES))
    image = image_path = None
    path = d.get("face_image_path")
    if path and read_crops:
        path = os.path.join(base_dir, path)  # an absolute path ignores base_dir
        while len(path) > 1 and path.endswith(("/", "/.")):  # as pathlib, read "x.pgm/" and "x.pgm/." as x.pgm
            path = path[:-1]
        image = read_pgm(path)
        image_path = os.path.abspath(path)
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


def _record_from_dict(d: dict, base_dir: str, read_crops: bool) -> tuple[PictureRecord, int]:
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


def read_records_jsonl(path) -> list[dict]:
    """Raw dicts from a JSON Lines file: a line of JSON whitespace is skipped, and any
    other line not holding one JSON object (see errors.parsed_json) is a ParseError."""
    records = []
    with open(path, "rb") as fh:
        try:  # the path:line prefix is built only for the line that fails
            for lineno, raw in enumerate(fh, start=1):
                if raw.strip(b" \t\r\n"):
                    records.append(parsed_json(raw, ParseError, "a record"))
        except ParseError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from None
    return records


def validate_dataset(
    raw_records: Sequence[dict],
    *,
    keep_faceless: bool = False,
    base_dir: Optional[Path] = None,
    read_crops: bool = True,
) -> ValidationResult:
    """Validate raw records into a Dataset.

    Bad faces (box, features, a missing, corrupt or undersized crop) and bad
    records are dropped and counted; a duplicate kept picture_id raises.
    Faceless pictures survive only with keep_faceless (the score-zero path
    still needs them). Without read_crops, faces keep no crop and no crop file
    is opened, for callers that read only the features.
    """
    base = "" if base_dir is None else os.fspath(base_dir)
    records: list[PictureRecord] = []
    dropped_faces = 0
    dropped_records = 0
    for d in raw_records:
        try:
            rec, n_dropped = _record_from_dict(d, base, read_crops)
        except _BAD_INPUT:
            dropped_records += 1
            continue
        dropped_faces += n_dropped
        if not rec.faces and not keep_faceless:
            dropped_records += 1
            continue
        records.append(rec)
    return ValidationResult(
        dataset=Dataset(records=tuple(records)),
        dropped_faces=dropped_faces,
        dropped_records=dropped_records,
    )


def face_to_dict(face: FaceObservation) -> dict:
    b = face.bbox
    d = {
        "bbox": {"x_tl": b.x_tl, "y_tl": b.y_tl, "x_br": b.x_br, "y_br": b.y_br},
        "features": dict(zip(FEATURE_NAMES, _feature_values(face.features))),
    }
    if face.label is not None:
        d["label"] = face.label.value
    if face.score is not None:
        d["score"] = face.score
    if face.image_path is not None:
        d["face_image_path"] = face.image_path
    return d


def record_to_dict(rec: PictureRecord) -> dict:
    d = {
        "picture_id": rec.picture_id,
        "burst_id": rec.burst_id,
        "width": rec.width,
        "height": rec.height,
        "faces": [face_to_dict(f) for f in rec.faces],
    }
    if rec.label is not None:
        d["label"] = rec.label.value
    return d


def write_dataset_jsonl(dataset: Dataset, path) -> None:
    """Emit a dataset as JSON Lines (UTF-8, LF).

    A face's crop is emitted as the absolute path it was read from, so the
    output resolves from any directory; raster data is never emitted, and a
    crop that was not read from a file is dropped.
    """
    write_jsonl(map(record_to_dict, dataset.records), path)


def write_jsonl(rows: Iterable[dict], path) -> None:
    """Emit one sorted-key JSON object per line (UTF-8, LF)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_JSONL_ENCODER.encode(row) + "\n" for row in rows)


def split_dataset(
    dataset: Dataset, ratios: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic train/test/validation split, atomic in bursts.

    All pictures of one burst land in the same partition so near-identical
    burst frames never leak across splits. Ratios may be numbers or their text.
    """
    try:
        ratios = tuple(float(r) for r in ratios)
    except ValueError:
        raise UsageError(f"split ratios {ratios} are not numbers") from None
    if len(ratios) != 3 or not all(r >= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise UsageError(f"split ratios {ratios} must be three values >= 0 that sum to 1")
    bursts: dict[str, list[PictureRecord]] = {}
    for rec in dataset.records:
        bursts.setdefault(rec.burst_id, []).append(rec)
    groups = list(bursts.values())  # in first-seen order
    rng = np.random.default_rng(np.uint64(seed))

    n = len(dataset.records)
    target_train = ratios[0] * n
    target_test = ratios[1] * n
    parts: tuple[list[PictureRecord], ...] = ([], [], [])
    for i in rng.permutation(len(groups)):
        group = groups[i]
        if len(parts[0]) < target_train:
            parts[0].extend(group)
        elif len(parts[1]) < target_test:
            parts[1].extend(group)
        else:
            parts[2].extend(group)
    return tuple(Dataset(records=tuple(p)) for p in parts)  # type: ignore[return-value]
