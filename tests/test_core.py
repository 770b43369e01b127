import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_face, make_picture, neutral_features
from oracles import record_to_dict
from robophoto.core import (
    BoundingBox,
    Dataset,
    FaceCountCategory,
    Label,
    NoFacesError,
    ParseError,
    ValidationError,
    face_count_category,
    read_records_jsonl,
    split_dataset,
    validate_dataset,
    write_dataset_jsonl,
)
from robophoto.pgm import read_pgm, write_pgm


def _raw_record(pid="p0", burst="b0", faces=None, label="Good"):
    if faces is None:
        faces = [_raw_face()]
    return {
        "picture_id": pid,
        "burst_id": burst,
        "width": 3000,
        "height": 2000,
        "label": label,
        "faces": faces,
    }


def _raw_face(x_tl=100, y_tl=100, x_br=400, y_br=400):
    return {
        "bbox": {"x_tl": x_tl, "y_tl": y_tl, "x_br": x_br, "y_br": y_br},
        "features": {
            "roll": 0, "pitch": 0, "yaw": 0, "joy": 0.5, "sorrow": 0,
            "anger": 0, "surprise": 0, "exposure": 0.5, "blur": 0.1,
        },
    }


def test_degenerate_bbox_rejected():
    with pytest.raises(ValidationError, match="'p0'"):
        Dataset(records=[make_picture([make_face(10, 10, 10, 20)])])


# each record rule that packing applies, broken in picture p1: (face fields, picture fields)
BROKEN_RULES = {
    "box_order": ({"bbox": BoundingBox(10, 10, 10, 20)}, {}),
    "box_outside_picture": ({"bbox": BoundingBox(2900, 100, 3001, 200)}, {}),
    "score_above_one": ({"score": 1.5}, {}),
    "score_nan": ({"score": math.nan}, {}),
    "angle_beyond_180": ({"features": neutral_features(yaw=180.5)}, {}),
    "feature_not_finite": ({"features": neutral_features(blur=math.inf)}, {}),
    "crop_below_30x30": ({"face_image": np.zeros((29, 40), dtype=np.uint8)}, {}),
    "size_below_2": ({}, {"height": 1}),
    "empty_burst_id": ({}, {"burst_id": ""}),
    "duplicate_picture_id": ({}, {}),
}


@pytest.mark.parametrize("rule", sorted(BROKEN_RULES))
def test_packing_a_record_that_breaks_a_rule_names_the_picture(rule):
    face_fields, picture_fields = BROKEN_RULES[rule]
    face = make_face(100, 100, 400, 400, score=0.5)
    pictures = [
        make_picture([face], picture_id="p0"),
        make_picture([replace(face, **face_fields)], picture_id="p1", **picture_fields),
        make_picture([face], picture_id="p1" if rule == "duplicate_picture_id" else "p2"),
    ]
    with pytest.raises(ValidationError, match="'p1'"):
        Dataset(records=pictures)


def test_validate_passes_well_formed_record():
    result = validate_dataset([_raw_record()])
    assert len(result.dataset) == 1
    assert result.dropped_faces == 0
    assert result.dropped_records == 0


def test_validate_drops_undersized_face_image(tmp_path):
    small = np.zeros((20, 20), dtype=np.uint8)
    write_pgm(small, tmp_path / "small.pgm")
    face = _raw_face()
    face["face_image_path"] = "small.pgm"
    result = validate_dataset(
        [_raw_record(faces=[face, _raw_face(500, 500, 800, 800)])], base_dir=tmp_path
    )
    assert result.dropped_faces == 1
    assert len(oracles.records(result.dataset)[0].faces) == 1


@pytest.mark.parametrize(
    "bad",
    [{"label": 5}, {"face_image_path": "missing.pgm"}, {"face_image_path": "corrupt.pgm"}],
    ids=["label_not_string", "missing_crop", "corrupt_crop"],
)
def test_validate_drops_only_the_bad_face(tmp_path, bad):
    (tmp_path / "corrupt.pgm").write_bytes(b"P5\n40 40\n255\n")  # no pixel data
    raw = [_raw_record(faces=[{**_raw_face(), **bad}, _raw_face(500, 500, 800, 800)])]
    result = validate_dataset(raw, base_dir=tmp_path)
    assert (result.dropped_faces, result.dropped_records) == (1, 0)
    assert len(oracles.records(result.dataset)[0].faces) == 1


def test_validate_drops_record_with_non_string_label():
    result = validate_dataset([_raw_record(label=["Good"]), _raw_record(pid="p1")])
    assert (len(result.dataset), result.dropped_records) == (1, 1)


@pytest.mark.parametrize("key", ["picture_id", "burst_id"])
@pytest.mark.parametrize("value", [True, 7, ["p0"], ""], ids=["true", "number", "list", "empty"])
def test_validate_drops_record_whose_id_is_not_a_non_empty_string(key, value):
    result = validate_dataset([{**_raw_record(), key: value}, _raw_record(pid="p1")])
    assert (len(result.dataset), result.dropped_records) == (1, 1)
    assert oracles.records(result.dataset)[0].picture_id == "p1"


def test_validate_rejects_degenerate_bbox_record():
    result = validate_dataset([_raw_record(faces=[_raw_face(x_tl=100, x_br=100)])])
    assert result.dropped_records == 1
    assert len(result.dataset) == 0


def test_validate_faceless_dropped_unless_kept():
    raw = [_raw_record(faces=[])]
    assert len(validate_dataset(raw).dataset) == 0
    kept = validate_dataset(raw, keep_faceless=True)
    assert len(kept.dataset) == 1


def test_validate_duplicate_picture_id():
    with pytest.raises(ValidationError, match="'p0'"):
        validate_dataset([_raw_record(), _raw_record()])


def test_validate_idempotent():
    result = validate_dataset([_raw_record(pid=f"p{i}") for i in range(5)])
    again = validate_dataset([record_to_dict(r) for r in oracles.records(result.dataset)])
    assert [record_to_dict(r) for r in oracles.records(again.dataset)] == [
        record_to_dict(r) for r in oracles.records(result.dataset)
    ]
    assert again.dropped_faces == 0 and again.dropped_records == 0


def test_likelihood_levels_mapped():
    face = _raw_face()
    face["features"]["joy"] = "VERY_LIKELY"
    face["features"]["sorrow"] = "UNLIKELY"
    result = validate_dataset([_raw_record(faces=[face])])
    f = oracles.records(result.dataset)[0].faces[0]
    assert f.features.joy == 1.0
    assert f.features.sorrow == 0.25


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_raw_record()) + "\n{not json\n")
    with pytest.raises(ParseError, match=":2:"):
        read_records_jsonl(path)


def test_parse_error_names_the_file_and_the_line_that_fails(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(_raw_record()).encode()
    path.write_bytes(good + b"\n \n{not json\n")  # the skipped blank line 2 still counts
    with pytest.raises(ParseError) as err:
        read_records_jsonl(path)
    assert str(err.value).startswith(f"{path}:3: a record is not JSON: Expecting property name")
    path.write_bytes(good + b"\n\n[1]\n" + good + b"\n")
    with pytest.raises(ParseError) as err:
        read_records_jsonl(path)
    assert str(err.value) == f"{path}:3: a record must hold one JSON object and nothing after it"


@pytest.mark.parametrize(
    "line", [b"[1, 2]", b'"p0"', b'{"picture_id": "\xff"}'], ids=["list", "string", "not_utf8"]
)
def test_line_that_is_not_a_utf8_json_object_fails_the_file(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(json.dumps(_raw_record()).encode() + b"\n" + line + b"\n")
    with pytest.raises(ParseError, match=":2:"):
        read_records_jsonl(path)


def test_jsonl_roundtrip_stable(tmp_path):
    raw = [_raw_record(pid=f"p{i}", burst=f"b{i//2}") for i in range(6)]
    ds = validate_dataset(raw).dataset
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_dataset_jsonl(ds, p1)
    ds2 = validate_dataset(read_records_jsonl(p1)).dataset
    write_dataset_jsonl(ds2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_face_count_category():
    one = make_picture([make_face(0, 0, 100, 100)])
    two = make_picture([make_face(0, 0, 100, 100), make_face(200, 200, 300, 300)])
    five = make_picture([make_face(100 * i, 100, 100 * i + 50, 200) for i in range(1, 6)])
    assert face_count_category(len(one.faces)) is FaceCountCategory.ONE
    assert face_count_category(len(two.faces)) is FaceCountCategory.TWO
    assert face_count_category(len(five.faces)) is FaceCountCategory.THREE_PLUS
    with pytest.raises(NoFacesError):
        face_count_category(len(make_picture([]).faces))


def _dataset(n, bursts=None):
    records = []
    for i in range(n):
        burst = bursts[i] if bursts else f"b{i}"
        records.append(
            make_picture([make_face(0, 0, 100, 100)], picture_id=f"p{i}", burst_id=burst)
        )
    return Dataset(records=tuple(records))


def test_split_sizes_80_10_10():
    train, test, val = split_dataset(_dataset(100), (0.8, 0.1, 0.1), seed=7)
    assert (len(train), len(test), len(val)) == (80, 10, 10)


def test_split_deterministic():
    ds = _dataset(50)
    a = split_dataset(ds, (0.8, 0.1, 0.1), seed=3)
    b = split_dataset(ds, (0.8, 0.1, 0.1), seed=3)
    for x, y in zip(a, b):
        assert [r.picture_id for r in oracles.records(x)] == [r.picture_id for r in oracles.records(y)]


def test_split_single_burst_stays_together():
    ds = _dataset(10, bursts=["only"] * 10)
    parts = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
    sizes = sorted(len(p) for p in parts)
    assert sizes == [0, 0, 10]


def test_split_bad_ratios():
    with pytest.raises(ValueError):
        split_dataset(_dataset(10), (0.5, 0.2, 0.2), seed=0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32), burst_size=st.integers(1, 5))
def test_split_is_partition(n, seed, burst_size):
    ds = _dataset(n, bursts=[f"b{i // burst_size}" for i in range(n)])
    parts = split_dataset(ds, (0.8, 0.1, 0.1), seed=seed)
    ids = [r.picture_id for p in parts for r in oracles.records(p)]
    assert sorted(ids) == sorted(r.picture_id for r in oracles.records(ds))
    # burst atomicity
    assignment = {}
    for k, p in enumerate(parts):
        for r in oracles.records(p):
            assert assignment.setdefault(r.burst_id, k) == k


def test_pgm_roundtrip(tmp_path, rng):
    img = rng.integers(0, 256, size=(33, 47), dtype=np.uint8)
    write_pgm(img, tmp_path / "x.pgm")
    back = read_pgm(tmp_path / "x.pgm")
    assert np.array_equal(img, back)
