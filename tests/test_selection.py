import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import selection_oracle
from robophoto.core import CATEGORY_ORDER, FaceCountCategory
from robophoto.errors import UsageError
from robophoto.selection import (
    ScoredPicture,
    crop_cascade,
    select_best,
)


def test_crop_cascade_full_size():
    plan = crop_cascade(4912, 3684)
    # 600x400 fits six times before hitting the 1200x800 floor
    assert len(plan) == 7
    x0, y0, x1, y1 = plan[0]
    assert (x0, y0) == (300, 200)
    assert (x1 - x0, y1 - y0) == (4312, 3284)
    for (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) in zip(plan, plan[1:]):
        assert bx0 >= ax0 and by0 >= ay0 and bx1 <= ax1 and by1 <= ay1
    fx0, fy0, fx1, fy1 = plan[-1]
    fw, fh = fx1 - fx0, fy1 - fy0
    assert fw * 3 == fh * 4
    assert fw % 2 == 0


def test_crop_cascade_stops_at_minimum():
    plan = crop_cascade(1900, 1300)
    # one shrink leaves 1300x900; the next would fall below 800 high
    assert len(plan) == 2
    x0, y0, x1, y1 = plan[0]
    assert (x1 - x0, y1 - y0) == (1300, 900)


def test_crop_cascade_too_small_is_empty():
    assert crop_cascade(1200, 800) == []
    assert crop_cascade(640, 480) == []


def test_crop_cascade_centered():
    plan = crop_cascade(3000, 2000)
    for x0, y0, x1, y1 in plan[:-1]:
        assert x0 == 3000 - x1
        assert y0 == 2000 - y1


def _cand(i, cat, score, burst=None):
    return ScoredPicture(
        picture_id=f"p{i:03d}",
        burst_id=burst or f"b{i:03d}",
        category=cat,
        score=score,
    )


def test_select_top_scores_per_category():
    cands = [_cand(i, FaceCountCategory.ONE, 1.0 - i * 0.01) for i in range(12)]
    picked = select_best(cands, 8)
    assert picked == [f"p{i:03d}" for i in range(8)]


def test_select_one_per_burst():
    cands = [
        _cand(0, FaceCountCategory.ONE, 0.9, burst="shared"),
        _cand(1, FaceCountCategory.ONE, 0.8, burst="shared"),
        _cand(2, FaceCountCategory.ONE, 0.7, burst="other"),
    ]
    picked = select_best(cands, 8)
    assert picked == ["p000", "p002"]


def test_select_burst_shared_across_categories():
    cands = [
        _cand(0, FaceCountCategory.TWO, 0.9, burst="shared"),
        _cand(1, FaceCountCategory.ONE, 0.8, burst="shared"),
        _cand(2, FaceCountCategory.ONE, 0.1, burst="own"),
    ]
    picked = select_best(cands)
    # TWO is rarer (1 candidate vs 2), so it picks first and claims the burst
    assert "p000" in picked and "p001" not in picked and "p002" in picked


def test_select_rarest_category_first():
    cands = (
        [_cand(i, FaceCountCategory.ONE, 0.5) for i in range(5)]
        + [_cand(10 + i, FaceCountCategory.TWO, 0.5) for i in range(2)]
        + [_cand(20 + i, FaceCountCategory.THREE_PLUS, 0.5) for i in range(3)]
    )
    # force contention through a shared burst between the first of each category
    cands[0] = _cand(0, FaceCountCategory.ONE, 0.9, burst="x")
    cands[5] = _cand(10, FaceCountCategory.TWO, 0.9, burst="x")
    picked = select_best(cands)
    assert "p010" in picked  # TWO is rarest, wins the contested burst
    assert "p000" not in picked


def test_select_score_tie_breaks_by_id():
    cands = [
        _cand(2, FaceCountCategory.ONE, 0.5),
        _cand(1, FaceCountCategory.ONE, 0.5),
    ]
    picked = select_best(cands, 1)
    assert picked == ["p001"]


def test_select_empty():
    assert select_best([]) == []


def test_quota_zero_selects_nothing_and_negative_is_rejected():
    cands = [_cand(i, FaceCountCategory.ONE, 0.5) for i in range(3)]
    assert select_best(cands, 0) == []
    with pytest.raises(UsageError):
        select_best(cands, -1)


def test_oracle_refuses_large_input():
    cands = [_cand(i, FaceCountCategory.ONE, 0.5) for i in range(21)]
    with pytest.raises(ValueError):
        selection_oracle(cands)


@st.composite
def candidate_sets(draw):
    n = draw(st.integers(1, 14))
    cands = []
    for i in range(n):
        cat = draw(st.sampled_from(list(CATEGORY_ORDER)))
        burst = f"b{draw(st.integers(0, 5))}"
        score = draw(
            st.floats(0, 1, allow_nan=False, allow_infinity=False).map(lambda v: round(v, 3))
        )
        cands.append(_cand(i, cat, score, burst=burst))
    quota = draw(st.integers(1, 8))
    return cands, quota


@settings(max_examples=120, deadline=None)
@given(candidate_sets())
def test_select_matches_exhaustive_oracle(case):
    cands, quota = case
    assert select_best(cands, quota) == selection_oracle(cands, quota)


@settings(max_examples=60, deadline=None)
@given(candidate_sets())
def test_select_respects_constraints(case):
    cands, quota = case
    picked = select_best(cands, quota)
    by_id = {c.picture_id: c for c in cands}
    bursts = [by_id[p].burst_id for p in picked]
    assert len(set(bursts)) == len(bursts)
    for cat in CATEGORY_ORDER:
        n_cat = sum(1 for p in picked if by_id[p].category is cat)
        assert n_cat <= quota
    assert len(picked) == len(set(picked))
