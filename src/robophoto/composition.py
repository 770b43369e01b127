"""Geometric picture scorers: position/occupancy gates plus center-distance sums."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .core import BoundingBox, PictureRecord, UnscoredFaceError
from .errors import DatasetError, checked_number


@dataclass(frozen=True)
class BaselineThresholds:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    occ_min: float
    occ_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max and self.occ_min < self.occ_max):
            raise DatasetError(f"threshold bounds out of order: {self}")


@dataclass(frozen=True)
class HeuristicThresholds:
    baseline: BaselineThresholds
    r_min: float
    p_min: float

    def __post_init__(self):
        if not (0.0 <= self.r_min <= 1.0 and 0.0 <= self.p_min <= 1.0):
            raise DatasetError(f"r_min/p_min outside [0, 1]: {self}")


@dataclass(frozen=True)
class PictureScore:
    passed: bool
    value: float

    def __post_init__(self):
        if not self.passed and self.value != 0.0:
            raise ValueError("failed pictures must score 0")


def face_center(bbox: BoundingBox) -> tuple[float, float]:
    return ((bbox.x_tl + bbox.x_br) / 2.0, (bbox.y_tl + bbox.y_br) / 2.0)


def center_distance(bbox: BoundingBox, width: int, height: int) -> float:
    """Distance of the face center to the image center, normalized so a face
    centered on a corner gives 1."""
    fx, fy = face_center(bbox)
    cx, cy = width / 2.0, height / 2.0
    return math.hypot(fx - cx, fy - cy) / math.hypot(cx, cy)


def baseline_gate(bbox: BoundingBox, width: int, height: int, t: BaselineThresholds) -> bool:
    """All five position/occupancy inequalities for one face."""
    occ = bbox.area / (width * height)
    return (
        bbox.x_tl / width > t.x_min
        and bbox.x_br / width < t.x_max
        and bbox.y_tl / height > t.y_min
        and bbox.y_br / height < t.y_max
        and t.occ_min < occ < t.occ_max
    )


def baseline_score(picture: PictureRecord, t: BaselineThresholds) -> PictureScore:
    """Sum of (1 - d) over faces; zero when faceless or any face fails the gate."""
    if not picture.faces:
        return PictureScore(False, 0.0)
    total = 0.0
    for f in picture.faces:
        if not baseline_gate(f.bbox, picture.width, picture.height, t):
            return PictureScore(False, 0.0)
        total += 1.0 - center_distance(f.bbox, picture.width, picture.height)
    return PictureScore(True, total)


def heuristic_score(picture: PictureRecord, t: HeuristicThresholds) -> PictureScore:
    """Baseline gates plus face-score gates; score is sum of (1 - d) * r."""
    if not picture.faces:
        return PictureScore(False, 0.0)
    good = 0
    for f in picture.faces:
        if f.score is None:
            raise UnscoredFaceError(f"face in {picture.picture_id} has no quality score")
        if not baseline_gate(f.bbox, picture.width, picture.height, t.baseline):
            return PictureScore(False, 0.0)
        if f.score > t.r_min:
            good += 1
    # strict ">": a proportion exactly at the floor fails
    if good / len(picture.faces) <= t.p_min:
        return PictureScore(False, 0.0)
    total = sum(
        (1.0 - center_distance(f.bbox, picture.width, picture.height)) * f.score
        for f in picture.faces
    )
    return PictureScore(True, total)


def thresholds_to_json(t) -> str:
    if isinstance(t, HeuristicThresholds):
        d = {"kind": "heuristic", **asdict(t.baseline), "r_min": t.r_min, "p_min": t.p_min}
    else:
        d = {"kind": "baseline", **asdict(t)}
    return json.dumps(d, sort_keys=True)


def thresholds_from_json(text: str | bytes):
    """Thresholds from `thresholds_to_json` text or bytes; anything else raises DatasetError."""
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as e:  # also undecodable bytes, too deep nesting
        raise DatasetError(f"threshold file is not JSON: {e}") from None
    if not isinstance(d, dict):
        raise DatasetError("threshold JSON must be an object")
    kind = d.get("kind")
    if kind not in ("baseline", "heuristic"):
        raise DatasetError(f"unknown threshold kind {kind!r}")
    names = list(BaselineThresholds.__dataclass_fields__)
    if kind == "heuristic":
        names += ["r_min", "p_min"]
    if d.keys() != {"kind", *names}:
        raise DatasetError(f"{kind} thresholds need exactly the keys {sorted(names)}, got {sorted(d)}")
    values = [checked_number(d[name], DatasetError, name) for name in names]
    base = BaselineThresholds(*values[:6])  # bounds out of order raise DatasetError
    return base if kind == "baseline" else HeuristicThresholds(base, *values[6:])
