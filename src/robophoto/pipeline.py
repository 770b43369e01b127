"""Dataset-level scoring shared by the evaluate and select stages.

Faces are scored in one batched pass per dataset, and each method's
(passed, value) arrays are computed once and consumed by both evaluation
and selection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .abstraction import classify_pictures
from .composition import picture_scores
from .core import Dataset, labeled_rows
from .errors import DatasetError
from .face_quality import score_faces
from .selection import CATEGORIES, crop_cascade, select_best
from .tinynet import NetworkModel

METHODS = ("baseline", "heuristic", "picture_cnn")


def score_dataset(dataset: Dataset, face_model: Optional[NetworkModel]) -> Dataset:
    """Attach face quality scores from a model, or check the stored ones."""
    if face_model is None:
        if np.isnan(dataset.score).any():
            raise DatasetError("face_quality: faces carry no scores and no --face-model was given")
        return dataset
    return dataset.with_scores(score_faces(face_model, dataset.features, dataset.crop))


def method_scores(
    dataset: Dataset, baseline_t, heuristic_t, picture_model: NetworkModel
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each method's (passed, value) arrays over the dataset's pictures, in METHODS order."""
    out = {"baseline": picture_scores(dataset, baseline_t), "heuristic": picture_scores(dataset, heuristic_t)}
    values = classify_pictures(picture_model, dataset)
    out["picture_cnn"] = (values >= 0.5, values)
    return out


def evaluate_methods(dataset: Dataset, baseline_t, heuristic_t, picture_model) -> dict:
    """Accuracy of all three methods on the same labeled split, overall and
    per face-count category present in the split."""
    rows, actual = labeled_rows(dataset.label.tolist(), "pictures")
    labeled = dataset.take(rows)
    counts = np.diff(labeled.offsets).tolist()
    categories = np.array([CATEGORIES[min(k, 3)] for k in counts])
    present = np.unique(categories, return_counts=True)[0].tolist()  # return_counts: no numpy.ma import
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
        by_category = {c: float(hit[categories == c].mean()) for c in present}
        report["methods"][method] = {
            "accuracy": (confusion["tp"] + confusion["tn"]) / n,
            "by_category": by_category,
            "confusion": confusion,
        }
    return report


def run_pipeline(dataset: Dataset, baseline_t, heuristic_t, picture_model, quota: int = 8) -> dict:
    """Score every picture with all three methods and select per-method bests."""
    sizes = sorted(set(zip(dataset.width.tolist(), dataset.height.tolist())))
    report: dict = {
        "crop_plans": {f"{w}x{h}": crop_cascade(w, h) for w, h in sizes},
        "selections": [],
    }
    counts = np.diff(dataset.offsets)
    faced = dataset.take(np.flatnonzero(counts))
    ids, bursts, faces = faced.picture_id.tolist(), faced.burst_id.tolist(), counts[counts > 0].tolist()
    for method, (_, values) in method_scores(faced, baseline_t, heuristic_t, picture_model).items():
        scores = values.tolist()
        for rank, i in enumerate(select_best(ids, bursts, faces, scores, quota)):
            report["selections"].append({
                "picture_id": ids[i], "burst_id": bursts[i], "category": CATEGORIES[min(faces[i], 3)],
                "score": scores[i], "method": method, "rank": rank,
            })
    return report
