"""Domain types and dataset handling shared by the whole pipeline.

A Dataset holds its pictures and faces as columns, and every command reads
those columns. The record types are plain values for callers that build
pictures one at a time; a Dataset packs them through validate_dataset, the one
check of every record rule, and nothing turns columns back into records.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain, zip_longest
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DatasetError, UsageError, number_verdicts, parsed_json
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


class UnscoredFaceError(DatasetError):
    pass


# Each record rule, written once over scalars or arrays (`&` evaluates every comparison,
# element by element): validate_dataset and Dataset.with_scores call these.
def _box_ok(x_tl, y_tl, x_br, y_br):
    return (0 <= x_tl) & (x_tl < x_br) & (0 <= y_tl) & (y_tl < y_br)


def _inside(x_br, y_br, width, height):
    return (x_br <= width) & (y_br <= height)


def _score_ok(score):
    return (0.0 <= score) & (score <= 1.0)  # False for NaN


def _size_ok(width, height):
    return (width >= 2) & (height >= 2)


def _is_id(value):
    return isinstance(value, str) and value != ""


_are_ids = np.frompyfunc(_is_id, 1, 1)  # _is_id of each item of an object array


class Label(str, Enum):
    GOOD = "Good"
    BAD = "Bad"

    @classmethod
    def parse(cls, value: str) -> "Label":
        key = value.strip().lower() if isinstance(value, str) else None
        if key not in ("good", "bad"):
            raise ValidationError(f"unknown label {value!r}")
        return cls.GOOD if key == "good" else cls.BAD


@dataclass(frozen=True)
class BoundingBox:
    x_tl: int
    y_tl: int
    x_br: int
    y_br: int


@dataclass(frozen=True)
class FaceFeatures:
    """The 9 scalar inputs to the face quality network: angles in degrees within
    [-180, 180], then likelihoods and image scores, clamped to [0, 1] when packed."""

    roll: float
    pitch: float
    yaw: float
    joy: float
    sorrow: float
    anger: float
    surprise: float
    exposure: float
    blur: float

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


@dataclass(frozen=True)
class PictureRecord:
    picture_id: str
    burst_id: str
    width: int
    height: int
    faces: tuple[FaceObservation, ...]
    label: Optional[Label] = None


# Ids, labels, crops and paths are object columns, and so are width, height and bbox: they
# hold the Python ints read, which may be as large as a float's range, past int64, and
# int / int rounds correctly where int64 -> float64 division does not past 2**53. So every
# check, written byte and GA ratio comes out as the per-record objects gave it.
_RECORD_COLUMNS = ("picture_id", "burst_id", "width", "height", "label")
_FACE_COLUMNS = ("bbox", "features", "score", "face_label", "crop", "image_path")
_COLUMNS = ("offsets", *_RECORD_COLUMNS, *_FACE_COLUMNS)


def _objects(values: Sequence) -> np.ndarray:
    """values as a 1-D object array, each kept as the object it is (a crop stays one item)."""
    return np.fromiter(values, object, len(values))


class Dataset:
    """Pictures and their faces as columns: record i owns faces offsets[i]:offsets[i + 1].

    Per record, _RECORD_COLUMNS; per face, bbox (F, 4) in _BBOX_KEYS order, features
    (F, 9) float64, score float64 (NaN: no score), face_label, crop (or None) and
    image_path. Built from records (see _packed) or from the columns themselves, which
    it holds as given: validate_dataset checks every record rule, unique ids among them.
    """

    def __init__(self, records: Iterable[PictureRecord] = (), **columns):
        vars(self).update(columns or vars(_packed(tuple(records))))

    def __len__(self) -> int:
        return len(self.picture_id)

    def take(self, rows) -> "Dataset":
        """The records at these row indices, in this order, with their faces."""
        rows = np.asarray(rows, dtype=np.intp)
        counts = np.diff(self.offsets)[rows]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        faces = np.repeat(self.offsets[rows] - offsets[:-1], counts) + np.arange(offsets[-1])
        columns = {name: getattr(self, name)[faces if name in _FACE_COLUMNS else rows] for name in _COLUMNS[1:]}
        return Dataset(offsets=offsets, **columns)

    def with_scores(self, scores) -> "Dataset":
        """This dataset with new face scores, each a number in [0, 1]."""
        scores = np.asarray(scores, dtype=np.float64)
        bad = ~_score_ok(scores)
        if bad.any():
            raise ValidationError(f"face score {float(scores[bad.argmax()])} outside [0, 1]")
        return Dataset(**{**{name: getattr(self, name) for name in _COLUMNS}, "score": scores})


@dataclass(frozen=True)
class ValidationResult:
    dataset: Dataset
    dropped_faces: int
    dropped_records: int


def labeled_rows(labels: Sequence[Optional[Label]], what: str) -> tuple[np.ndarray, np.ndarray]:
    """The rows that carry a label, and the mask of those labelled Good: the
    one rule for what trains, fits or scores against a label."""
    rows = np.flatnonzero([label is not None for label in labels])
    if not len(rows):
        raise DatasetError(f"no labeled {what}")
    return rows, np.array([labels[i] is Label.GOOD for i in rows])


# what a bad face or record raises, DatasetError included: it is dropped and counted
_BAD_INPUT = (LookupError, TypeError, ValueError, OSError)


_BBOX_KEYS = ("x_tl", "y_tl", "x_br", "y_br")
_bbox_row, _feature_row = itemgetter(*_BBOX_KEYS), itemgetter(*FEATURE_NAMES)
_feature_values = attrgetter(*FEATURE_NAMES)
_record_row = itemgetter("picture_id", "burst_id", "width", "height")


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


def _labels(values) -> tuple[np.ndarray, np.ndarray]:
    """Label.parse of each value (None for None or ""), and the mask of those it accepts."""
    labels, ok = _objects([None] * len(values)), np.ones(len(values), dtype=bool)
    for i, v in enumerate(values):
        try:
            labels[i] = None if v is None or v == "" else Label.parse(v)
        except ValidationError:
            ok[i] = False
    return labels, ok


def _checked_crop(image: np.ndarray) -> np.ndarray:
    h, w = image.shape
    if h < MIN_FACE_SIDE or w < MIN_FACE_SIDE:
        raise ValidationError(f"face image {w}x{h} below {MIN_FACE_SIDE}x{MIN_FACE_SIDE}")
    return image


def validate_dataset(
    raw_records: Sequence[dict],
    *,
    keep_faceless: bool = False,
    base_dir: Optional[Path] = None,
    read_crops: bool = True,
) -> ValidationResult:
    """Validate raw records into a Dataset: one pass pulls every row, then the checks run on columns.

    Bad faces (box, features, label, score, a missing, corrupt or undersized crop) and bad records
    are dropped and counted, a bad record's faces uncounted; a duplicate kept picture_id raises.
    Faceless pictures survive only with keep_faceless (the score-zero path still needs them).
    A kept face's crop path is made absolute; without read_crops, no crop file is opened."""
    base = "" if base_dir is None else os.fspath(base_dir)
    records, counts, faces = [], [], []  # a face row: its box, 9 features, score, label and crop path
    for d in raw_records:
        try:
            face_dicts = d.get("faces", [])
            if not isinstance(face_dicts, list):
                raise TypeError("faces must be a JSON array")
            records.append((*_record_row(d), d.get("label")))
        except _BAD_INPUT:  # faces not a list or a key missing: its ids of None drop it below
            records.append((None,) * 5)
            face_dicts = ()
        n = len(faces)
        for fd in face_dicts:
            try:
                faces.append((*_bbox_row(fd["bbox"]), *_feature_row(fd["features"]),
                              fd.get("score"), fd.get("label"), fd.get("face_image_path")))
            except _BAD_INPUT:
                faces.append((None,) * 16)
        counts.append(len(faces) - n)
    n_records, counts = len(records), np.array(counts, dtype=np.intp)
    owner = np.repeat(np.arange(n_records), counts)  # the record of each face
    face = np.fromiter(chain.from_iterable(faces), object, 16 * len(faces)).reshape(-1, 16)

    # a face: 0 <= x_tl < x_br and 0 <= y_tl < y_br, ints; a number for each feature, or a
    # level name for joy..surprise (columns 7 to 10); angles within +-180; a score in [0, 1]; a label
    ok = np.hstack([number_verdicts(face[:, :4].ravel().tolist(), integer=True).reshape(-1, 4),
                    number_verdicts(face[:, 4:14].ravel().tolist()).reshape(-1, 10)])
    for i, j in np.argwhere(~ok[:, 7:11]).tolist():
        if isinstance(face[i, 7 + j], str) and face[i, 7 + j] in LIKELIHOOD_LEVELS:
            face[i, 7 + j], ok[i, 7 + j] = LIKELIHOOD_LEVELS[face[i, 7 + j]], True
    unscored = np.array([v is None for v in face[:, 13].tolist()], dtype=bool)
    face[:, :14][~ok] = 0
    box, x, score = face[:, :4], face[:, 4:13].astype(np.float64), face[:, 13].astype(np.float64)
    x[:, 3:] = np.where(x[:, 3:] <= 0.0, 0.0, np.where(x[:, 3:] >= 1.0, 1.0, x[:, 3:]))  # clamped, -0.0 to 0.0
    face_label, label_ok = _labels(face[:, 14].tolist())
    face_ok = (
        ok[:, :13].all(axis=1) & (ok[:, 13] | unscored) & label_ok & (np.abs(x[:, :3]) <= 180.0).all(axis=1)
        & _box_ok(*box.T) & (unscored | _score_ok(score))
    )
    score[unscored] = math.nan

    # a record: non-empty string ids, int sizes of at least 2, a label
    picture_id, burst_id, width, height, labels = (_objects(c) for c in zip(*records)) if records else [_objects(())] * 5
    size_ok = number_verdicts([*width, *height], integer=True).reshape(2, -1)
    width[~size_ok[0]], height[~size_ok[1]] = 0, 0
    label, label_ok = _labels(labels)
    record_ok = ((_are_ids(picture_id) & _are_ids(burst_id)).astype(bool) & size_ok.all(axis=0) & label_ok
                 & _size_ok(width, height))

    crop, image_path = _objects([None] * len(face)), _objects([None] * len(face))
    for i in np.flatnonzero(face_ok & record_ok[owner]).tolist():
        try:
            if face[i, 15] is not None and face[i, 15] != "":  # absent, null or "": no crop; a non-string raises
                path = os.path.join(base, face[i, 15])  # an absolute path ignores base
                while len(path) > 1 and path.endswith(("/", "/.")):  # as pathlib: "x.pgm/" and "x.pgm/." name x.pgm
                    path = path[:-1]
                image_path[i] = os.path.abspath(path)
                if read_crops:
                    crop[i] = _checked_crop(read_pgm(path))
        except _BAD_INPUT:
            face_ok[i] = False
    # a kept face must lie inside its picture, or the whole record is dropped
    record_ok &= np.bincount(owner[face_ok & ~_inside(box[:, 2], box[:, 3], width[owner], height[owner])],
                             minlength=n_records) == 0
    kept_faces = np.bincount(owner[face_ok], minlength=n_records)
    rows = np.flatnonzero(record_ok & (keep_faceless | (kept_faces > 0)))
    ids = Counter(picture_id[rows].tolist())
    if len(ids) != len(rows):
        raise ValidationError(f"duplicate picture_id {ids.most_common(1)[0][0]!r}")
    kept = face_ok & np.isin(owner, rows)
    dataset = Dataset(
        offsets=np.concatenate([[0], np.cumsum(kept_faces[rows])]), picture_id=picture_id[rows],
        burst_id=burst_id[rows], width=width[rows], height=height[rows], label=label[rows], bbox=box[kept],
        features=x[kept], score=score[kept], face_label=face_label[kept], crop=crop[kept], image_path=image_path[kept],
    )
    dropped_faces = int(np.sum(counts[record_ok] - kept_faces[record_ok]))
    return ValidationResult(dataset=dataset, dropped_faces=dropped_faces, dropped_records=n_records - len(rows))


def _packed(records: Sequence[PictureRecord]) -> Dataset:
    """Record objects as columns: their JSON rows through validate_dataset, then each face's crop and
    path. Whatever a record rule would drop raises ValidationError naming its picture_id."""
    rows = [{"picture_id": r.picture_id, "burst_id": r.burst_id, "width": r.width, "height": r.height,
             "label": None if r.label is None else r.label.value, "faces": [face_to_dict(f) for f in r.faces]}
            for r in records]
    dataset = validate_dataset(rows, keep_faceless=True, read_crops=False).dataset
    kept = zip(dataset.picture_id.tolist(), np.diff(dataset.offsets).tolist())
    for r, k in zip_longest(records, kept):  # kept rows keep their order: the first to differ was cut
        try:
            if k != (r.picture_id, len(r.faces)):
                raise ValidationError("the record or one of its faces breaks a record rule")
            for f in r.faces:
                if f.face_image is not None:
                    _checked_crop(f.face_image)
        except ValidationError as e:
            raise ValidationError(f"picture_id {r.picture_id!r}: {e}") from None
    faces = [f for r in records for f in r.faces]
    dataset.crop, dataset.image_path = _objects([f.face_image for f in faces]), _objects([f.image_path for f in faces])
    return dataset


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


# A written line is the text json.dumps(row, sort_keys=True) gives, laid out from templates
# that hold the keys in sorted order; every value in them is the JSON encoder's own text,
# encoded a column at a time (a number's text never holds ", ", so a column's text splits).
_BOX_ORDER = sorted(range(4), key=_BBOX_KEYS.__getitem__)
_FEATURE_ORDER = sorted(range(9), key=FEATURE_NAMES.__getitem__)
_FACE_TEXT = ('{"bbox": {' + ", ".join(f'"{_BBOX_KEYS[i]}": %s' for i in _BOX_ORDER) + '}, %s"features": {'
              + ", ".join(f'"{FEATURE_NAMES[i]}": %s' for i in _FEATURE_ORDER) + "}%s%s}")
_WRITE_ROWS = 32
_RECORD_TEXT = '{"burst_id": %s, "faces": [%s], "height": %s%s, "picture_id": %s, "width": %s}\n'


def _texts(values: list) -> list[str]:
    """The encoder's text of each number in values."""
    return _JSONL_ENCODER.encode(values)[1:-1].split(", ") if values else []


def _lines(dataset: Dataset) -> list[str]:
    encode = _JSONL_ENCODER.encode
    label_text = {None: "", **{label: f', "label": {encode(label.value)}' for label in Label}}
    boxes = _texts(dataset.bbox[:, _BOX_ORDER].ravel().tolist())
    values, scores = _texts(dataset.features[:, _FEATURE_ORDER].ravel().tolist()), _texts(dataset.score.tolist())
    faces = [
        _FACE_TEXT % (*boxes[4 * i : 4 * i + 4], "" if path is None else f'"face_image_path": {encode(path)}, ',
                      *values[9 * i : 9 * i + 9], label_text[label], "" if score == "NaN" else f', "score": {score}')
        for i, (path, label, score) in enumerate(zip(dataset.image_path.tolist(), dataset.face_label.tolist(), scores))
    ]
    ends, heights, widths = dataset.offsets.tolist(), _texts(dataset.height.tolist()), _texts(dataset.width.tolist())
    return [
        _RECORD_TEXT % (encode(burst_id), ", ".join(faces[ends[i] : ends[i + 1]]), heights[i], label_text[label],
                        encode(picture_id), widths[i])
        for i, (burst_id, label, picture_id) in enumerate(
            zip(dataset.burst_id.tolist(), dataset.label.tolist(), dataset.picture_id.tolist()))
    ]


def write_dataset_jsonl(dataset: Dataset, path) -> None:
    """Emit a dataset as JSON Lines (UTF-8, LF), each object with sorted keys.

    A face's crop is emitted as the absolute path it was read from, so the
    output resolves from any directory; raster data is never emitted, and a
    crop that was not read from a file is dropped.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(dataset), _WRITE_ROWS):  # a block at a time: the texts of one block in memory
            fh.writelines(_lines(dataset.take(range(start, min(start + _WRITE_ROWS, len(dataset))))))


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
    bursts: dict[str, list[int]] = {}
    for row, burst_id in enumerate(dataset.burst_id.tolist()):
        bursts.setdefault(burst_id, []).append(row)
    groups = list(bursts.values())  # in first-seen order
    rng = np.random.default_rng(seed)

    n = len(dataset)
    target_train = ratios[0] * n
    target_test = ratios[1] * n
    parts: tuple[list[int], ...] = ([], [], [])
    for i in rng.permutation(len(groups)):
        group = groups[i]
        if len(parts[0]) < target_train:
            parts[0].extend(group)
        elif len(parts[1]) < target_test:
            parts[1].extend(group)
        else:
            parts[2].extend(group)
    return tuple(dataset.take(p) for p in parts)  # type: ignore[return-value]
