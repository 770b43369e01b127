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
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DatasetError, UsageError, checked_number
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
        if not self.burst_id:
            raise ValidationError("empty burst_id")
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
        picture_id=str(d["picture_id"]),
        burst_id=str(d["burst_id"]),
        width=checked_number(d["width"], ValidationError, "width", integer=True),
        height=checked_number(d["height"], ValidationError, "height", integer=True),
        faces=tuple(faces),
        label=Label.parse(d["label"]) if d.get("label") else None,
    )
    return rec, dropped


def read_records_jsonl(path) -> list[dict]:
    """Raw dicts from a JSON Lines file; a line not holding a UTF-8 JSON object is a ParseError."""
    records = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
            except (ValueError, RecursionError) as e:  # not UTF-8, not JSON or nested too deep
                raise ParseError(f"{path}:{lineno}: malformed line: {e}") from None
            if not isinstance(record, dict):
                raise ParseError(f"{path}:{lineno}: a record must be a JSON object")
            records.append(record)
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
    records: list[PictureRecord] = []
    dropped_faces = 0
    dropped_records = 0
    for d in raw_records:
        try:
            rec, n_dropped = _record_from_dict(d, base_dir, read_crops)
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in dataset.records:
            fh.write(json.dumps(record_to_dict(rec), sort_keys=True))
            fh.write("\n")


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
