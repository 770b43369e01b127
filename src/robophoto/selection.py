"""Crop-cascade planning and constrained best-picture selection."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .errors import UsageError

CROP_STEP_W = 600
CROP_STEP_H = 400
MIN_CROP_W = 1200
MIN_CROP_H = 800
MAX_CROPS = 6

# a picture's face-count category is CATEGORIES[min(faces, 3)]
CATEGORIES = ("no_faces", "one", "two", "three_plus")


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


def select_best(
    picture_id: Sequence[str], burst_id: Sequence[str], faces: Sequence[int], score: Sequence[float],
    quota: int = 8,
) -> list[int]:
    """The rows picked, in order: up to quota per face-count category, one per burst.
    The rarest category picks first (ties in CATEGORIES order), each by descending score, then picture_id."""
    if quota < 0:
        raise UsageError(f"quota must be >= 0, got {quota}")
    category = [min(k, 3) for k in faces]
    size = Counter(category)
    left = dict.fromkeys(size, quota)
    used_bursts: set[str] = set()
    picked: list[int] = []
    for i in sorted(range(len(category)), key=lambda i: (size[category[i]], category[i], -score[i], picture_id[i])):
        if left[category[i]] and burst_id[i] not in used_bursts:
            picked.append(i)
            used_bursts.add(burst_id[i])
            left[category[i]] -= 1
    return picked
