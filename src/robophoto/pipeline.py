"""Dataset-level scoring shared by the evaluate and select stages.

Faces are scored in one batched pass per dataset, and each method's
(passed, value) arrays are computed once and consumed by both evaluation
and selection.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from .abstraction import classify_pictures
from .composition import baseline_score, heuristic_score
from .core import Dataset, PictureRecord, face_count_category, labeled_items
from .errors import DatasetError
from .face_quality import dataset_faces, score_faces
from .selection import ScoredPicture, SelectionConstraints, crop_cascade, select_best
from .tinynet import NetworkModel

METHODS = ("baseline", "heuristic", "picture_cnn")


def score_dataset(dataset: Dataset, face_model: Optional[NetworkModel]) -> Dataset:
    """Attach face quality scores from a model, or check the stored ones."""
    if face_model is None:
        if np.isnan(dataset.score).any():
            raise DatasetError("face_quality: faces carry no scores and no --face-model was given")
        return dataset
    return dataset.with_scores(score_faces(face_model, dataset_faces(dataset)))


def method_scores(
    records: Sequence[PictureRecord], baseline_t, heuristic_t, picture_model: NetworkModel
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each method's (passed, value) arrays over the records, in METHODS order."""
    out = {}
    for method, scorer, thresholds in (
        ("baseline", baseline_score, baseline_t),
        ("heuristic", heuristic_score, heuristic_t),
    ):
        scores = [scorer(rec, thresholds) for rec in records]
        out[method] = (
            np.array([s.passed for s in scores], dtype=bool),
            np.array([s.value for s in scores], dtype=np.float64),
        )
    values = classify_pictures(picture_model, records)
    out["picture_cnn"] = (values >= 0.5, values)
    return out


def evaluate_methods(dataset: Dataset, baseline_t, heuristic_t, picture_model) -> dict:
    """Accuracy of all three methods on the same labeled split, overall and
    per face-count category present in the split."""
    labeled, actual = labeled_items(dataset.records, "pictures")
    categories = np.array([face_count_category(r).value if r.faces else "no_faces" for r in labeled])
    n = len(labeled)
    report: dict = {"n_pictures": n, "methods": {}}
    for method, (passed, _) in method_scores(labeled, baseline_t, heuristic_t, picture_model).items():
        hit = passed == actual
        confusion = {
            "tp": int(np.count_nonzero(hit & passed)),
            "fp": int(np.count_nonzero(~hit & passed)),
            "tn": int(np.count_nonzero(hit & ~passed)),
            "fn": int(np.count_nonzero(~hit & ~passed)),
        }
        by_category = {c: float(hit[categories == c].mean()) for c in np.unique(categories).tolist()}
        report["methods"][method] = {
            "accuracy": (confusion["tp"] + confusion["tn"]) / n,
            "by_category": by_category,
            "confusion": confusion,
        }
    return report


def run_pipeline(dataset: Dataset, baseline_t, heuristic_t, picture_model, quota: int = 8) -> dict:
    """Score every picture with all three methods and select per-method bests."""
    constraints = SelectionConstraints(per_category_quota=quota)
    sizes = sorted({(r.width, r.height) for r in dataset.records})
    report: dict = {
        "crop_plans": {f"{w}x{h}": crop_cascade(w, h) for w, h in sizes},
        "selections": [],
    }
    records = [r for r in dataset.records if r.faces]
    categories = [face_count_category(r) for r in records]
    for method, (_, values) in method_scores(records, baseline_t, heuristic_t, picture_model).items():
        candidates = [
            ScoredPicture(picture_id=r.picture_id, burst_id=r.burst_id, category=cat, score=v)
            for r, cat, v in zip(records, categories, values.tolist())
        ]
        by_id = {c.picture_id: c for c in candidates}
        for rank, pid in enumerate(select_best(candidates, constraints)):
            c = by_id[pid]
            report["selections"].append(
                {**asdict(c), "category": c.category.value, "method": method, "rank": rank}
            )
    return report
