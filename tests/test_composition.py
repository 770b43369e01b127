import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_face, make_picture
from oracles import (
    baseline_gate,
    box_area,
    center_distance,
    face_center,
    make_random_pictures,
    reference_accuracy,
    reference_baseline_score,
    reference_heuristic_score,
)
from robophoto import tinynet
from robophoto.abstraction import CANVAS_H, CANVAS_W
from robophoto.composition import (
    Thresholds,
    baseline_score,
    heuristic_score,
    picture_scores,
    thresholds_from_json,
    thresholds_to_json,
)
from robophoto.core import BoundingBox, Dataset, DatasetError, Label, UnscoredFaceError
from robophoto.pipeline import method_scores
from robophoto.threshold_opt import _FitnessCache, accuracy, genome_to_thresholds, repair_genome

WIDE = Thresholds(0.01, 0.99, 0.01, 0.99, 0.001, 0.9)

# a one-layer layout model: method_scores runs it, the geometric scorers never read it
LAYOUT_MODEL = tinynet.build_model([tinynet.flatten(), tinynet.dense(CANVAS_H * CANVAS_W, 1), tinynet.sigmoid()])


def test_face_center_midpoint():
    assert face_center(BoundingBox(10, 20, 30, 60)) == (20.0, 40.0)


def test_center_distance_extremes():
    # centered face: distance 0
    assert center_distance(BoundingBox(1400, 900, 1600, 1100), 3000, 2000) == 0.0
    # degenerate-corner face: distance ~1
    d = center_distance(BoundingBox(0, 0, 2, 2), 3000, 2000)
    assert d == pytest.approx(1.0, abs=1e-3)


def test_center_distance_scale_invariant_power_of_two():
    bbox = BoundingBox(123, 456, 789, 1011)
    d1 = center_distance(bbox, 3000, 2000)
    for k in (2, 4, 8):
        scaled = BoundingBox(123 * k, 456 * k, 789 * k, 1011 * k)
        assert center_distance(scaled, 3000 * k, 2000 * k) == d1


def test_gate_strict_inequalities():
    t = Thresholds(0.1, 0.9, 0.1, 0.9, 0.01, 0.5)
    # x_tl exactly at x_min * width fails (strict >)
    assert not baseline_gate(BoundingBox(100, 200, 500, 500), 1000, 1000, t)
    assert baseline_gate(BoundingBox(101, 200, 500, 500), 1000, 1000, t)


def test_gate_occupancy_bounds():
    t = Thresholds(0.0, 1.0, 0.0, 1.0, 0.01, 0.25)
    # occupancy exactly 0.25 fails
    assert not baseline_gate(BoundingBox(100, 100, 600, 600), 1000, 1000, t)
    assert baseline_gate(BoundingBox(100, 100, 599, 600), 1000, 1000, t)


def test_baseline_score_single_centered_face():
    pic = make_picture([make_face(1400, 900, 1600, 1100)])
    s = baseline_score(pic, WIDE)
    assert s.passed and s.value == pytest.approx(1.0)


def test_baseline_score_sums_over_faces():
    faces = [make_face(1400, 900, 1600, 1100), make_face(700, 450, 800, 550)]
    pic = make_picture(faces)
    parts = [
        1.0 - center_distance(f.bbox, pic.width, pic.height) for f in faces
    ]
    s = baseline_score(pic, WIDE)
    assert s.value == pytest.approx(sum(parts))


def test_baseline_any_failing_face_zeroes_picture():
    pic = make_picture([make_face(1400, 900, 1600, 1100), make_face(0, 0, 100, 100)])
    t = Thresholds(0.05, 0.95, 0.05, 0.95, 0.001, 0.5)
    s = baseline_score(pic, t)
    assert not s.passed and s.value == 0.0


def test_baseline_faceless_fails():
    s = baseline_score(make_picture([]), WIDE)
    assert not s.passed and s.value == 0.0


@pytest.mark.parametrize("t", [WIDE, replace(WIDE, r_min=0.5, p_min=0.5)])
def test_an_empty_dataset_scores_no_picture(t):
    passed, value = picture_scores(Dataset(records=()), t)
    assert (passed.dtype, passed.shape, value.dtype, value.shape) == (bool, (0,), np.float64, (0,))


def _thresholds_on_statistics(rng, pics, rows):
    """Random repaired genomes, then wide-open ones with one gene exactly on a
    picture's statistic, where only the strict comparison decides that picture."""
    raw = rng.uniform(-0.2, 1.2, (rows, 8))
    for row in range(rows // 3, rows):
        p = pics[int(rng.integers(len(pics)))]
        if not p.faces:
            continue
        occs = [box_area(f.bbox) / (p.width * p.height) for f in p.faces]
        stats = (
            min(f.bbox.x_tl / p.width for f in p.faces), max(f.bbox.x_br / p.width for f in p.faces),
            min(f.bbox.y_tl / p.height for f in p.faces), max(f.bbox.y_br / p.height for f in p.faces),
            min(occs), max(occs),
        )
        raw[row] = 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0
        gene = int(rng.integers(7))
        if gene < 6:
            raw[row, gene] = stats[gene]
        else:  # r_min on one face score, p_min on the proportion above it
            r = p.faces[int(rng.integers(len(p.faces)))].score
            raw[row, 6:] = r, sum(f.score > r for f in p.faces) / len(p.faces)
    return [genome_to_thresholds(g) for g in repair_genome(raw)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_method_scores_match_the_per_face_scorers_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    pics = make_random_pictures(24, seed=seed, with_scores=True)
    pics = [replace(p, faces=()) if i % 7 == 3 else p for i, p in enumerate(pics)]
    for heuristic_t in _thresholds_on_statistics(rng, pics, 6):
        baseline_t = replace(heuristic_t, r_min=None, p_min=None)
        got = method_scores(Dataset(records=pics), baseline_t, heuristic_t, LAYOUT_MODEL)
        for method, t, scorer in (("baseline", baseline_t, reference_baseline_score),
                                  ("heuristic", heuristic_t, reference_heuristic_score)):
            want = [scorer(p, t) for p in pics]
            passed, value = got[method]
            assert passed.tolist() == [s.passed for s in want]
            assert value.tobytes() == np.array([s.value for s in want]).tobytes()
        assert accuracy(heuristic_t, Dataset(records=pics)) == reference_accuracy(heuristic_t, pics)


def _heuristic(r_min=0.5, p_min=0.4):
    return replace(WIDE, r_min=r_min, p_min=p_min)


def test_heuristic_weights_by_score():
    pic = make_picture([make_face(1400, 900, 1600, 1100, score=0.8)])
    s = heuristic_score(pic, _heuristic())
    assert s.passed and s.value == pytest.approx(0.8)


def test_heuristic_proportion_gate_strict():
    # one of two faces above r_min: proportion 0.5
    faces = [
        make_face(1400, 900, 1600, 1100, score=0.9),
        make_face(700, 450, 800, 550, score=0.1),
    ]
    pic = make_picture(faces)
    assert heuristic_score(pic, _heuristic(p_min=0.5)).passed is False
    assert heuristic_score(pic, _heuristic(p_min=0.49)).passed is True


def test_heuristic_score_at_r_min_not_good():
    pic = make_picture([make_face(1400, 900, 1600, 1100, score=0.5)])
    assert not heuristic_score(pic, _heuristic(r_min=0.5, p_min=0.0)).passed


def test_heuristic_requires_scores():
    pic = make_picture([make_face(1400, 900, 1600, 1100)])
    with pytest.raises(UnscoredFaceError):
        heuristic_score(pic, _heuristic())


def test_an_unscored_face_raises_even_behind_a_failing_face():
    # the first face fails x_min, the second has no score: every path raises
    pic = make_picture([make_face(0, 0, 50, 50, score=0.9), make_face(1400, 900, 1600, 1100)], label=Label.GOOD)
    t = Thresholds(0.05, 0.95, 0.05, 0.95, 0.001, 0.5, r_min=0.5, p_min=0.1)
    with pytest.raises(UnscoredFaceError, match="face in p0 has no quality score"):
        heuristic_score(pic, t)
    with pytest.raises(UnscoredFaceError, match="face in p0 has no quality score"):
        accuracy(t, Dataset(records=[pic]))
    with pytest.raises(UnscoredFaceError, match="face in p0 has no quality score"):
        _FitnessCache(Dataset(records=[pic]), "heuristic")
    with pytest.raises(UnscoredFaceError, match="face in p0 has no quality score"):
        method_scores(Dataset(records=[pic]), replace(t, r_min=None, p_min=None), t, LAYOUT_MODEL)
    assert not baseline_score(pic, replace(t, r_min=None, p_min=None)).passed  # the baseline gate reads no score


def test_heuristic_failed_gate_zero():
    pic = make_picture([make_face(0, 0, 50, 50, score=0.9)])
    t = Thresholds(0.05, 0.95, 0.05, 0.95, 0.001, 0.5, r_min=0.5, p_min=0.1)
    s = heuristic_score(pic, t)
    assert not s.passed and s.value == 0.0


def test_threshold_bounds_validated():
    with pytest.raises(ValueError):
        Thresholds(0.9, 0.1, 0.1, 0.9, 0.01, 0.5)
    with pytest.raises(ValueError):
        replace(WIDE, r_min=1.5, p_min=0.2)


def test_threshold_json_roundtrip():
    for t in (WIDE, _heuristic(0.37, 0.21)):
        back = thresholds_from_json(thresholds_to_json(t))
        assert back == t


def test_thresholds_with_r_min_but_no_p_min_raise():
    with pytest.raises(DatasetError, match="r_min and p_min"):
        replace(WIDE, r_min=0.5)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["baseline", "heuristic"]),
    raw=st.lists(st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0]), min_size=8, max_size=8),
)
def test_a_repaired_genome_is_its_thresholds_genome_and_survives_json(kind, raw):
    g = repair_genome(np.array(raw[: 6 if kind == "baseline" else 8]))
    t = genome_to_thresholds(g)
    assert t.heuristic == (kind == "heuristic") and t.genome == tuple(g)
    assert thresholds_from_json(thresholds_to_json(t)) == t


def test_threshold_json_unknown_kind():
    with pytest.raises(ValueError):
        thresholds_from_json('{"kind": "mystery"}')


def _baseline_dict(**changes):
    d = {"kind": "baseline", **asdict(WIDE), **changes}
    return {k: v for k, v in d.items() if v is not None}


MALFORMED_THRESHOLD_JSON = {
    "not_json": "{x_min: 0.1",
    "not_utf8": b'{"kind": "\xff"}',
    "nested_too_deep": "[" * 100_000 + "]" * 100_000,
    "array": "[0.1, 0.9]",
    "number": "0.5",
    "null": "null",
    "missing_key": json.dumps(_baseline_dict(x_max=None)),
    "unknown_key": json.dumps(_baseline_dict(z_min=0.1)),
    "no_kind": json.dumps(_baseline_dict(kind=None)),
    "unknown_kind": json.dumps(_baseline_dict(kind="mystery")),
    "unhashable_kind": json.dumps(_baseline_dict(kind=["baseline"])),
    "string_value": json.dumps(_baseline_dict(x_min="0.1")),
    "bool_value": json.dumps(_baseline_dict(x_min=False)),
    "bounds_out_of_order": json.dumps(_baseline_dict(x_min=0.995)),
    "heuristic_missing_p_min": json.dumps({**_baseline_dict(kind="heuristic"), "r_min": 0.5}),
    "heuristic_r_min_above_one": json.dumps(
        {**_baseline_dict(kind="heuristic"), "r_min": 1.5, "p_min": 0.2}
    ),
}


@pytest.mark.parametrize(
    "text", MALFORMED_THRESHOLD_JSON.values(), ids=MALFORMED_THRESHOLD_JSON.keys()
)
def test_threshold_json_malformed_is_dataset_error(text):
    with pytest.raises(DatasetError):
        thresholds_from_json(text)


_THRESHOLD_NAMES = list(asdict(WIDE))  # the six bounds, then r_min and p_min
_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
def _json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)


_json_values = st.recursive(_json_scalars, _json_containers, max_leaves=12)
# mostly well-formed objects, so the property reaches the per-key checks
_threshold_like = st.dictionaries(
    st.sampled_from(["kind", "extra", *_THRESHOLD_NAMES]),
    st.sampled_from(["baseline", "heuristic"]) | st.floats(-0.5, 1.5) | _json_scalars,
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(value=_json_values | _threshold_like)
def test_threshold_json_is_thresholds_or_dataset_error(value):
    try:
        t = thresholds_from_json(json.dumps(value))
    except DatasetError:
        return
    assert isinstance(t, Thresholds)
    assert thresholds_from_json(thresholds_to_json(t)) == t


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(0, 2900),
    y=st.integers(0, 1900),
    w=st.integers(1, 99),
    h=st.integers(1, 99),
)
def test_center_distance_in_unit_interval(x, y, w, h):
    d = center_distance(BoundingBox(x, y, x + w, y + h), 3000, 2000)
    assert 0.0 <= d <= 1.0


@settings(max_examples=40, deadline=None)
@given(scores=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
def test_heuristic_value_bounded_by_face_count(scores):
    faces = [
        make_face(1200 + 80 * i, 900, 1300 + 80 * i, 1000, score=s)
        for i, s in enumerate(scores)
    ]
    pic = make_picture(faces)
    s = heuristic_score(pic, _heuristic(r_min=0.0, p_min=0.0))
    assert s.passed
    assert 0.0 <= s.value <= len(scores)
