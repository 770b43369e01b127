"""Geometric picture scorers: position/occupancy gates plus center-distance sums.

`Gate` and `center_sums` define both scorers once, as arrays over a Dataset's
columns. The GA fitness, `threshold_opt.accuracy`, evaluate and select read them,
and `baseline_score` / `heuristic_score` are their one-picture case."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import Dataset, PictureRecord, UnscoredFaceError
from .errors import DatasetError, checked_numbers, parsed_json


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


def _face_places(data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each picture's face count, and each face's picture and place among its faces."""
    counts = data.offsets[1:] - data.offsets[:-1]
    owner = np.arange(len(counts)).repeat(counts)
    return counts, owner, np.arange(len(owner)) - data.offsets[owner]


class Gate:
    """The one definition of the scorers' gate: each picture's faces reduced once to
    the few numbers the thresholds compare, so `passed` tests every genome of a
    population against every picture in one broadcast over (genomes, pictures).

    Every face passes `x_tl / width > x_min` exactly when the picture's smallest
    ratio does, and likewise for the other five gates. A faceless picture gets
    -inf minima and +inf maxima, so it fails every gate. For a heuristic gate,
    column i of `ranked` holds picture i's face scores in descending order and
    `fractions` the matching j/k, both padded with -inf: `good/k > p_min` holds
    exactly when some j has `ranked[j] > r_min` and `fractions[j] > p_min`, since
    good/k is one of the same float divisions j/k. Ratios are int / int on the
    object columns, and min and max reduce per picture, exact in any order. Any
    unscored face raises UnscoredFaceError from a heuristic gate, wherever it sits.
    """

    def __init__(self, data: Dataset, heuristic: bool):
        self.heuristic, self.n_pictures = heuristic, len(data)
        counts, owner, rank = _face_places(data)
        width, height, (x_tl, y_tl, x_br, y_br) = data.width[owner], data.height[owner], data.bbox.T
        occs = (x_br - x_tl) * (y_br - y_tl) / (width * height)
        # per face, the ratio each gate reads: the three the minima reduce, then the three the maxima reduce
        ratios = np.array([x_tl / width, y_tl / height, occs, x_br / width, y_br / height, occs], dtype=np.float64)
        tables, have = np.empty((6, self.n_pictures)), counts > 0
        tables[:3], tables[3:] = -np.inf, np.inf
        tables[:3, have] = np.minimum.reduceat(ratios[:3], data.offsets[:-1][have], axis=1)
        tables[3:, have] = np.maximum.reduceat(ratios[3:], data.offsets[:-1][have], axis=1)
        self.xtl_min, self.ytl_min, self.occ_min, self.xbr_max, self.ybr_max, self.occ_max = tables
        depth = int(counts.max(initial=0)) if heuristic else 0
        self.ranked, self.fractions = np.full((2, depth, self.n_pictures), -np.inf)
        if heuristic and len(owner):
            unscored = np.isnan(data.score)
            if unscored.any():
                raise UnscoredFaceError(f"face in {data.picture_id[owner[unscored.argmax()]]} has no quality score")
            # stable: equal scores keep their order, as sorted(reverse=True) keeps it
            order = np.lexsort((-data.score, owner))
            self.ranked[rank, owner] = data.score[order]
            self.fractions[rank, owner] = (rank + 1) / counts[owner]

    def passed(self, genomes: np.ndarray) -> np.ndarray:
        """(P, n): whether each picture passes each genome of a (P, 6 or 8) population,
        rows in `thresholds_genome` order."""
        t = genomes.T[:, :, None]  # (dim, P, 1)
        pred = ((self.xtl_min > t[0]) & (self.xbr_max < t[1]) & (self.ytl_min > t[2]) & (self.ybr_max < t[3])
                & (self.occ_min > t[4]) & (self.occ_max < t[5]))
        if self.heuristic:
            r_min, p_min = t[6][:, None], t[7][:, None]  # (P, 1, 1)
            pred &= ((self.ranked > r_min) & (self.fractions > p_min)).any(axis=1)
        return pred


def center_sums(data: Dataset, weighted: bool) -> np.ndarray:
    """Each picture's sum over its faces of 1 - d, times the face score when
    weighted. d is the face center's distance to the image center, normalized so
    a face centered on a corner gives 1: math.hypot on the object columns' Python
    floats. The sums add in face order, one row of a 0.0-padded (depth, n) table
    at a time, as a loop over each picture's faces adds."""
    counts, owner, rank = _face_places(data)
    cx, cy, (x_tl, y_tl, x_br, y_br) = data.width / 2.0, data.height / 2.0, data.bbox.T
    dx, dy = (x_tl + x_br) / 2.0 - cx[owner], (y_tl + y_br) / 2.0 - cy[owner]
    corner = np.fromiter(map(math.hypot, cx, cy), np.float64, len(data))
    terms = 1.0 - np.fromiter(map(math.hypot, dx, dy), np.float64, len(owner)) / corner[owner]
    if weighted:
        terms *= data.score
    table = np.zeros((int(counts.max(initial=0)), len(data)))
    table[rank, owner] = terms
    sums = np.zeros(len(data))
    for row in table:
        sums += row
    return sums


def thresholds_genome(t) -> np.ndarray:
    """Baseline or heuristic thresholds as one genome: the six bounds in field
    order, then r_min and p_min."""
    if isinstance(t, HeuristicThresholds):
        return np.array([*vars(t.baseline).values(), t.r_min, t.p_min])
    return np.array([*vars(t).values()])


def picture_scores(data: Dataset, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Each picture's (passed, value) under baseline or heuristic thresholds. value is
    the sum of 1 - d over its faces, or of (1 - d) * r under heuristic thresholds,
    where the picture passes, else 0. A faceless picture fails."""
    heuristic = isinstance(thresholds, HeuristicThresholds)
    passed = Gate(data, heuristic).passed(thresholds_genome(thresholds)[None])[0]
    return passed, np.where(passed, center_sums(data, heuristic), 0.0)


def _one_picture(picture: PictureRecord, thresholds) -> PictureScore:
    (passed,), (value,) = picture_scores(Dataset((picture,)), thresholds)
    return PictureScore(bool(passed), float(value))


def baseline_score(picture: PictureRecord, t: BaselineThresholds) -> PictureScore:
    """Sum of (1 - d) over faces; zero when faceless or any face fails the gate."""
    return _one_picture(picture, t)


def heuristic_score(picture: PictureRecord, t: HeuristicThresholds) -> PictureScore:
    """Baseline gates plus face-score gates; score is sum of (1 - d) * r."""
    return _one_picture(picture, t)


def thresholds_to_json(t) -> str:
    if isinstance(t, HeuristicThresholds):
        d = {"kind": "heuristic", **asdict(t.baseline), "r_min": t.r_min, "p_min": t.p_min}
    else:
        d = {"kind": "baseline", **asdict(t)}
    return json.dumps(d, sort_keys=True)


def thresholds_from_json(text: str | bytes):
    """Thresholds from one JSON object (errors.parsed_json) as `thresholds_to_json` writes it, else DatasetError."""
    d = parsed_json(text, DatasetError, "a threshold file")
    kind = d.get("kind")
    if kind not in ("baseline", "heuristic"):
        raise DatasetError(f"unknown threshold kind {kind!r}")
    names = list(BaselineThresholds.__dataclass_fields__)
    if kind == "heuristic":
        names += ["r_min", "p_min"]
    if d.keys() != {"kind", *names}:
        raise DatasetError(f"{kind} thresholds need exactly the keys {sorted(names)}, got {sorted(d)}")
    values = checked_numbers([d[name] for name in names], DatasetError, names)
    base = BaselineThresholds(*values[:6])  # bounds out of order raise DatasetError
    return base if kind == "baseline" else HeuristicThresholds(base, *values[6:])
