"""Synthetic dataset generators.

Rule-labeled data stands in for the private lab datasets: the labeling rules
are known exactly, so learnability and threshold-recovery claims can be
checked against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .composition import Thresholds
from .core import (
    BoundingBox,
    FaceFeatures,
    FaceObservation,
    Label,
    PictureRecord,
)

# rule for synthetic face quality: frontal, smiling, sharp
FACE_RULE_YAW = 20.0
FACE_RULE_JOY = 0.6
FACE_RULE_BLUR = 0.3


def face_rule_label(features: FaceFeatures) -> Label:
    good = (
        abs(features.yaw) < FACE_RULE_YAW
        and features.joy > FACE_RULE_JOY
        and features.blur < FACE_RULE_BLUR
    )
    return Label.GOOD if good else Label.BAD


def random_features(rng: np.random.Generator) -> FaceFeatures:
    return FaceFeatures(
        roll=rng.uniform(-60, 60),
        pitch=rng.uniform(-60, 60),
        yaw=rng.uniform(-90, 90),
        joy=rng.uniform(0, 1),
        sorrow=rng.uniform(0, 1),
        anger=rng.uniform(0, 1),
        surprise=rng.uniform(0, 1),
        exposure=rng.uniform(0, 1),
        blur=rng.uniform(0, 1),
    )


def make_face_feature_dataset(
    n: int, seed: int, label_noise: float = 0.0
) -> list[FaceObservation]:
    """Faces with rule-derived quality labels, optionally noise-flipped."""
    rng = np.random.default_rng(seed)
    faces = []
    for _ in range(n):
        features = random_features(rng)
        label = face_rule_label(features)
        if label_noise > 0 and rng.random() < label_noise:
            label = Label.BAD if label is Label.GOOD else Label.GOOD
        bbox = BoundingBox(0, 0, 100, 100)
        faces.append(FaceObservation(bbox=bbox, features=features, label=label))
    return faces


def _bbox_from_normalized(x0: float, y0: float, x1: float, y1: float, w: int, h: int) -> BoundingBox:
    xi0, yi0 = int(round(x0 * w)), int(round(y0 * h))
    xi1, yi1 = int(round(x1 * w)), int(round(y1 * h))
    xi1 = max(xi1, xi0 + 1)
    yi1 = max(yi1, yi0 + 1)
    return BoundingBox(min(xi0, w - 1), min(yi0, h - 1), min(xi1, w), min(yi1, h))


DEFAULT_HIDDEN_BASELINE = Thresholds(x_min=0.1, x_max=0.9, y_min=0.08, y_max=0.92, occ_min=0.05, occ_max=0.3)
DEFAULT_HIDDEN_HEURISTIC = replace(DEFAULT_HIDDEN_BASELINE, r_min=0.5, p_min=0.45)
THRESHOLD_MARGIN = 0.02  # how far make_threshold_dataset keeps each face statistic from its boundary


def _sample_passing_face(rng, t: Thresholds, margin: float):
    """Normalized face rect satisfying every gate inequality by > margin."""
    for _ in range(200):
        occ = rng.uniform(t.occ_min + 2 * margin, t.occ_max - 2 * margin)
        aspect = rng.uniform(0.7, 1.4)
        fw = math.sqrt(occ * aspect)
        fh = occ / fw
        lo_x, hi_x = t.x_min + margin, t.x_max - margin - fw
        lo_y, hi_y = t.y_min + margin, t.y_max - margin - fh
        if hi_x <= lo_x or hi_y <= lo_y:
            continue
        x0 = rng.uniform(lo_x, hi_x)
        y0 = rng.uniform(lo_y, hi_y)
        return (x0, y0, x0 + fw, y0 + fh)
    raise RuntimeError("could not sample a passing face; thresholds too tight")


def _sample_failing_face(rng, t: Thresholds, margin: float):
    """Start from a passing rect, then push one inequality past its threshold."""
    x0, y0, x1, y1 = _sample_passing_face(rng, t, margin)
    mode = rng.integers(0, 5)
    if mode == 0:  # x_tl below x_min
        shift = x0 - rng.uniform(0.0, max(t.x_min - margin, 1e-6))
        x0, x1 = x0 - shift, x1 - shift
    elif mode == 1:  # x_br above x_max
        shift = rng.uniform(t.x_max + margin, 1.0) - x1
        x0, x1 = x0 + shift, x1 + shift
    elif mode == 2:
        shift = y0 - rng.uniform(0.0, max(t.y_min - margin, 1e-6))
        y0, y1 = y0 - shift, y1 - shift
    elif mode == 3:
        shift = rng.uniform(t.y_max + margin, 1.0) - y1
        y0, y1 = y0 + shift, y1 + shift
    else:  # occupancy below occ_min (shrink around the center)
        target = rng.uniform(max(t.occ_min - 3 * margin, 1e-4), t.occ_min - margin)
        scale = math.sqrt(target / ((x1 - x0) * (y1 - y0)))
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        hw, hh = (x1 - x0) / 2 * scale, (y1 - y0) / 2 * scale
        x0, x1, y0, y1 = cx - hw, cx + hw, cy - hh, cy + hh
    return (
        min(max(x0, 0.0), 1.0),
        min(max(y0, 0.0), 1.0),
        min(max(x1, 0.0), 1.0),
        min(max(y1, 0.0), 1.0),
    )


def make_threshold_dataset(n_pictures: int, seed: int, kind: str = "baseline") -> list[PictureRecord]:
    """Pictures labeled by the DEFAULT_HIDDEN_* thresholds of their kind, with
    every face statistic at least THRESHOLD_MARGIN away from each decision boundary."""
    rng = np.random.default_rng(seed)
    width, height = 3000, 2000
    base = DEFAULT_HIDDEN_BASELINE
    r_min = DEFAULT_HIDDEN_HEURISTIC.r_min
    pictures = []
    # pixel quantization shifts normalized stats by up to 1/height; keep the
    # sampled margin clear of it
    eff_margin = THRESHOLD_MARGIN + 2.0 / min(width, height)
    for i in range(n_pictures):
        n_faces = int(rng.integers(1, 4))
        good = rng.random() < 0.5
        rects = [_sample_passing_face(rng, base, eff_margin) for _ in range(n_faces)]
        scores: list[float] = []
        if kind == "heuristic":
            scores = [float(rng.uniform(r_min + eff_margin, 1.0)) for _ in range(n_faces)]
        if not good:
            if kind == "heuristic" and rng.random() < 0.4:
                # fail through the face-score path: push every score below
                # r_min so the good proportion is 0
                scores = [
                    float(rng.uniform(0.0, r_min - eff_margin)) for _ in range(n_faces)
                ]
            else:
                rects[int(rng.integers(0, n_faces))] = _sample_failing_face(rng, base, eff_margin)
        faces = []
        for j, (x0, y0, x1, y1) in enumerate(rects):
            faces.append(
                FaceObservation(
                    bbox=_bbox_from_normalized(x0, y0, x1, y1, width, height),
                    features=random_features(rng),
                    score=scores[j] if kind == "heuristic" else None,
                )
            )
        pictures.append(
            PictureRecord(
                picture_id=f"syn-{i:05d}",
                burst_id=f"burst-{i:05d}",
                width=width,
                height=height,
                faces=tuple(faces),
                label=Label.GOOD if good else Label.BAD,
            )
        )
    return pictures


# abstract-layout rule: every rectangle bright enough and inside the central 80%
LAYOUT_RULE_R = 0.6
LAYOUT_CENTRAL = 0.8


def layout_rule_label(picture: PictureRecord) -> Label:
    border = (1.0 - LAYOUT_CENTRAL) / 2.0
    for f in picture.faces:
        if f.score is None or f.score < LAYOUT_RULE_R:
            return Label.BAD
        if (
            f.bbox.x_tl < border * picture.width
            or f.bbox.x_br > (1 - border) * picture.width
            or f.bbox.y_tl < border * picture.height
            or f.bbox.y_br > (1 - border) * picture.height
        ):
            return Label.BAD
    return Label.GOOD


def make_layout_dataset(n_pictures: int, seed: int) -> list[PictureRecord]:
    """Scored-face layouts labeled by the central-and-bright rule, sampled
    with small margins so the rule stays learnable from 150x100 renders."""
    rng = np.random.default_rng(seed)
    width, height = 600, 400
    border = (1.0 - LAYOUT_CENTRAL) / 2.0
    pictures = []
    for i in range(n_pictures):
        n_faces = int(rng.integers(1, 4))
        good = rng.random() < 0.5
        faces = []
        for _ in range(n_faces):
            fw = rng.uniform(0.1, 0.3)
            fh = rng.uniform(0.1, 0.3)
            score = float(rng.uniform(LAYOUT_RULE_R + 0.05, 1.0))
            x0 = rng.uniform(border + 0.02, 1 - border - 0.02 - fw)
            y0 = rng.uniform(border + 0.02, 1 - border - 0.02 - fh)
            faces.append((x0, y0, fw, fh, score))
        if not good:
            # violate the rule on one face: dim it or push it outside the
            # central region
            k = int(rng.integers(0, n_faces))
            x0, y0, fw, fh, score = faces[k]
            if rng.random() < 0.5:
                score = float(rng.uniform(0.0, LAYOUT_RULE_R - 0.05))
            else:
                if rng.random() < 0.5:
                    x0 = rng.uniform(0.0, border - 0.02 - 0.001)
                else:
                    y0 = rng.uniform(0.0, border - 0.02 - 0.001)
            faces[k] = (x0, y0, fw, fh, score)
        obs = tuple(
            FaceObservation(
                bbox=_bbox_from_normalized(x0, y0, x0 + fw, y0 + fh, width, height),
                features=random_features(rng),
                score=score,
            )
            for x0, y0, fw, fh, score in faces
        )
        pic = PictureRecord(
            picture_id=f"layout-{i:05d}",
            burst_id=f"burst-{i:05d}",
            width=width,
            height=height,
            faces=obs,
        )
        pictures.append(replace(pic, label=layout_rule_label(pic)))
    return pictures
