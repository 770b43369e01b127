"""Geometric picture scorers: position/occupancy gates plus center-distance sums.

`Gate` and `center_sums` define both scorers once, as arrays over a Dataset's
columns. The GA fitness, `threshold_opt.accuracy`, evaluate and select read them,
and `baseline_score` / `heuristic_score` are their one-picture case."""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .core import Dataset, PictureRecord, UnscoredFaceError
from .errors import DatasetError, checked_numbers, parsed_json


# each gene's comparison, in genome order: a min gate reads stat > t, a max gate stat < t, that is -stat > -t
SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


@dataclass(frozen=True)
class Thresholds:
    """The scorers' thresholds: six position/occupancy bounds, then the face-score gates
    r_min and p_min, which heuristic thresholds set and baseline thresholds leave None."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    occ_min: float
    occ_max: float
    r_min: float | None = None
    p_min: float | None = None

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max and self.occ_min < self.occ_max):
            raise DatasetError(f"threshold bounds out of order: {self}")
        pair = (self.r_min, self.p_min)
        if pair != (None, None) and not all(v is not None and 0.0 <= v <= 1.0 for v in pair):
            raise DatasetError(f"r_min and p_min must both be None or both within [0, 1]: {self}")

    @property
    def heuristic(self) -> bool:
        return self.r_min is not None

    @property
    def genome(self) -> tuple[float, ...]:
        """The values in field order: six genes, or eight for heuristic thresholds."""
        return astuple(self)[: 8 if self.heuristic else 6]


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
    ratio does, and likewise for the other five gates. Row g of `stats` holds each
    picture's statistic for gene g of the genome, signed by SIGNS so that every gate
    reads `stats[g] > SIGNS[g] * gene`: a max gate's smallest negated ratio. A
    faceless picture gets -inf, so it fails every gate. For a heuristic gate,
    column i of `ranked` holds picture i's face scores in descending order and
    `fractions` the matching j/k, both padded with -inf: `good/k > p_min` holds
    exactly when some j has `ranked[j] > r_min` and `fractions[j] > p_min`, since
    good/k is one of the same float divisions j/k. Ratios are int / int on the
    object columns, negation is exact, and minima reduce per picture, exact in any
    order. Any unscored face raises UnscoredFaceError from a heuristic gate, wherever it sits.
    """

    def __init__(self, data: Dataset, heuristic: bool):
        self.heuristic, self.n_pictures = heuristic, len(data)
        counts, owner, rank = _face_places(data)
        width, height, (x_tl, y_tl, x_br, y_br) = data.width[owner], data.height[owner], data.bbox.T
        occs = (x_br - x_tl) * (y_br - y_tl) / (width * height)
        # per face, the ratio each gene reads, in genome order
        ratios = np.array([x_tl / width, x_br / width, y_tl / height, y_br / height, occs, occs], dtype=np.float64)
        self.stats, have = np.full((6, self.n_pictures), -np.inf), counts > 0
        self.stats[:, have] = np.minimum.reduceat(SIGNS[:, None] * ratios, data.offsets[:-1][have], axis=1)
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
        rows in `Thresholds.genome` order; one gate at a time, so no (6, P, n) array."""
        pred = np.ones((len(genomes), self.n_pictures), dtype=bool)
        for stat, gene in zip(self.stats, (genomes[:, :6] * SIGNS).T):
            pred &= stat > gene[:, None]
        if self.heuristic:
            r_min, p_min = genomes[:, 6, None, None], genomes[:, 7, None, None]  # (P, 1, 1)
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


def picture_scores(data: Dataset, thresholds: Thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Each picture's (passed, value) under baseline or heuristic thresholds. value is
    the sum of 1 - d over its faces, or of (1 - d) * r under heuristic thresholds,
    where the picture passes, else 0. A faceless picture fails."""
    passed = Gate(data, thresholds.heuristic).passed(np.array([thresholds.genome]))[0]
    return passed, np.where(passed, center_sums(data, thresholds.heuristic), 0.0)


def _one_picture(picture: PictureRecord, thresholds: Thresholds) -> PictureScore:
    (passed,), (value,) = picture_scores(Dataset((picture,)), thresholds)
    return PictureScore(bool(passed), float(value))


def baseline_score(picture: PictureRecord, t: Thresholds) -> PictureScore:
    """Sum of (1 - d) over faces; zero when faceless or any face fails the gate."""
    return _one_picture(picture, t)


def heuristic_score(picture: PictureRecord, t: Thresholds) -> PictureScore:
    """Baseline gates plus face-score gates; score is sum of (1 - d) * r."""
    return _one_picture(picture, t)


_NAMES = tuple(field.name for field in fields(Thresholds))


def thresholds_to_json(t: Thresholds) -> str:
    kind = "heuristic" if t.heuristic else "baseline"
    return json.dumps({"kind": kind, **dict(zip(_NAMES, t.genome))}, sort_keys=True)


def thresholds_from_json(text: str | bytes) -> Thresholds:
    """Thresholds from one JSON object (errors.parsed_json) as `thresholds_to_json` writes it, else DatasetError."""
    d = parsed_json(text, DatasetError, "a threshold file")
    kind = d.get("kind")
    if kind not in ("baseline", "heuristic"):
        raise DatasetError(f"unknown threshold kind {kind!r}")
    names = _NAMES[: 8 if kind == "heuristic" else 6]
    if d.keys() != {"kind", *names}:
        raise DatasetError(f"{kind} thresholds need exactly the keys {sorted(names)}, got {sorted(d)}")
    # bounds out of order, or r_min / p_min outside [0, 1], raise DatasetError
    return Thresholds(*checked_numbers([d[name] for name in names], DatasetError, names))
