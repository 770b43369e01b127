"""Crop-cascade planning and constrained best-picture selection."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import CATEGORY_ORDER, FaceCountCategory
from .errors import UsageError

CROP_STEP_W = 600
CROP_STEP_H = 400
MIN_CROP_W = 1200
MIN_CROP_H = 800
MAX_CROPS = 6


@dataclass(frozen=True)
class ScoredPicture:
    picture_id: str
    burst_id: str
    category: FaceCountCategory
    score: float


def crop_cascade(width: int, height: int) -> list[tuple[int, int, int, int]]:
    """Centered crops shrinking 600x400 per step (up to six), then a final
    4:3 crop of the innermost rectangle. Rectangles are (x_tl, y_tl, x_br, y_br)
    on the original image."""
    plan: list[tuple[int, int, int, int]] = []
    w, h = width, height
    x0, y0 = 0, 0
    for _ in range(MAX_CROPS):
        nw, nh = w - CROP_STEP_W, h - CROP_STEP_H
        if nw < MIN_CROP_W or nh < MIN_CROP_H:
            break
        x0 += CROP_STEP_W // 2
        y0 += CROP_STEP_H // 2
        w, h = nw, nh
        plan.append((x0, y0, x0 + w, y0 + h))
    if not plan:
        return plan
    # final 4:3 crop, centered; the adjusted side rounds down to even
    if w * 3 > h * 4:
        fw = (h * 4 // 3) & ~1
        fh = h
    else:
        fw = w
        fh = (w * 3 // 4) & ~1
    fx = x0 + (w - fw) // 2
    fy = y0 + (h - fh) // 2
    plan.append((fx, fy, fx + fw, fy + fh))
    return plan


def _sorted_categories(candidates: Sequence[ScoredPicture]):
    counts = Counter(c.category for c in candidates)
    # rarest category picks first; the stable sort breaks ties by canonical category order
    return sorted(CATEGORY_ORDER, key=counts.__getitem__)


def _ranked(candidates: Sequence[ScoredPicture], cat: FaceCountCategory):
    pool = [c for c in candidates if c.category is cat]
    pool.sort(key=lambda c: (-c.score, c.picture_id))
    return pool


def select_best(candidates: Sequence[ScoredPicture], quota: int = 8) -> list[str]:
    """Greedy pick of up to quota pictures per face-count category, one per burst, rarest category first."""
    if quota < 0:
        raise UsageError(f"quota must be >= 0, got {quota}")
    used_bursts: set[str] = set()
    picked: list[str] = []
    for cat in _sorted_categories(candidates):
        taken = 0
        for c in _ranked(candidates, cat):
            if taken >= quota:
                break
            if c.burst_id in used_bursts:
                continue
            picked.append(c.picture_id)
            used_bursts.add(c.burst_id)
            taken += 1
    return picked
