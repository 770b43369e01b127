"""The record path against the code it replaced (kept in oracles.py): the one-pass
face check keeps exactly the faces the per-value checks kept, with the same fields
bit for bit; the one-regex PGM header parse reads the same image, or raises
PGMError where the tokeniser did; and the JSON Lines writers keep their format."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from robophoto.behavior_sim import Scenario, Simulator, write_event_log
from robophoto.core import (
    FEATURE_NAMES,
    LIKELIHOOD_LEVELS,
    BoundingBox,
    Dataset,
    FaceFeatures,
    FaceObservation,
    PictureRecord,
    ValidationError,
    face_to_dict,
    validate_dataset,
)
from robophoto.errors import checked_number, checked_numbers
from robophoto.pgm import PGMError, read_pgm, write_pgm
from test_readers import JSON_VALUES

PROPERTY = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

FLOAT_MAX_INT = int(sys.float_info.max)
NUMBERS = st.sampled_from(
    [-0.0, 0.0, 1.0, 180.0, -180.0, 180.5, 10**400, FLOAT_MAX_INT, FLOAT_MAX_INT + 1, -FLOAT_MAX_INT - 1,
     True, False, math.nan, math.inf, -math.inf, sys.float_info.max]
) | st.integers() | st.floats()

# crop paths, relative to the dataset's directory; <abs> becomes that directory
CROP_PATHS = [
    "crops/x.pgm", "crops/x.pgm/", "crops/x.pgm/.", "crops/x.pgm//", "crops/x.pgm/./", "crops/x.pgm/..",
    "./crops/x.pgm", "crops//x.pgm", "crops/./x.pgm", "crops/../crops/x.pgm", "crops/missing/../x.pgm",
    "crops", "crops/", ".", "/", "crops/small.pgm", "crops/bad.pgm", "crops/none.pgm", "<abs>/crops/x.pgm",
    "<abs>/crops/x.pgm/", "crops/x.pgm\x00",
]
SLOT_VALUES = (
    JSON_VALUES | NUMBERS | st.sampled_from([*LIKELIHOOD_LEVELS, "MAYBE"])
    | st.sampled_from(["good", " Bad ", "bad!"]) | st.sampled_from(CROP_PATHS)
)
MISSING = object()

FACE_SLOTS = [
    *(("faces", 0, "bbox", k) for k in ("x_tl", "y_tl", "x_br", "y_br")),
    *(("faces", 0, "features", name) for name in FEATURE_NAMES),
    *(("faces", 0, k) for k in ("score", "label", "face_image_path")),
    *((k,) for k in ("width", "height", "label")),
]


def _record() -> dict:
    features = dict(zip(FEATURE_NAMES, [10.0, -20.0, 30.0, 0.5, 0.0, 0.25, 0.75, 0.5, 0.1]))
    face = {
        "bbox": {"x_tl": 10, "y_tl": 10, "x_br": 50, "y_br": 50},
        "features": features,
        "label": "Good",
        "score": 0.5,
        "face_image_path": "crops/x.pgm",
    }
    return {"picture_id": "p", "burst_id": "b", "width": 100, "height": 100, "faces": [face]}


@pytest.fixture(scope="module")
def crop_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("records")
    (base / "crops").mkdir()
    write_pgm(np.arange(40 * 40, dtype=np.uint8).reshape(40, 40), base / "crops/x.pgm")
    write_pgm(np.zeros((20, 20), dtype=np.uint8), base / "crops/small.pgm")
    (base / "crops/bad.pgm").write_bytes(b"P5\n40 40\n255\n" + bytes(10))
    return base


def _faces(faces, to_dict) -> list:
    return [
        (json.dumps(to_dict(f), sort_keys=True), None if f.face_image is None else f.face_image.tobytes())
        for f in faces
    ]


@PROPERTY
@given(edits=st.lists(st.tuples(st.sampled_from(FACE_SLOTS), SLOT_VALUES | st.just(MISSING)), min_size=1, max_size=3))
@example(edits=[(("faces", 0, "features", "exposure"), "LIKELY")])
@example(edits=[(("faces", 0, "features", "yaw"), -0.0), (("faces", 0, "features", "blur"), -0.0)])
@example(edits=[(("faces", 0, "face_image_path"), "crops/x.pgm/")])
@example(edits=[(("faces", 0, "bbox", "x_br"), FLOAT_MAX_INT + 1)])
def test_one_pass_face_check_keeps_what_the_per_value_checks_kept(crop_dir, edits):
    """Any bbox, feature, score, label, crop path or record size slot set to a JSON
    value, -0.0, a huge int, a bool or a level name: the reader keeps the faces and
    records the oracle keeps, and writes them out with the same bytes; so does a
    Dataset packed from the oracle's record objects."""
    record = _record()
    for path, value in edits:
        target = record
        for key in path[:-1]:
            target = target[key]
        if value is MISSING:
            target.pop(path[-1], None)
        else:
            target[path[-1]] = value.replace("<abs>", str(crop_dir)) if isinstance(value, str) else value
    result = validate_dataset([record], keep_faceless=True, base_dir=crop_dir)
    try:
        expected, dropped_faces = oracles._record_from_dict(record, crop_dir, True)
    except oracles._BAD_INPUT:
        assert result.dropped_records == 1 and len(result.dataset) == 0
        return
    assert result.dropped_records == 0 and result.dropped_faces == dropped_faces
    for (kept,) in (oracles.records(result.dataset), oracles.records(Dataset(records=[expected]))):
        assert _faces(kept.faces, face_to_dict) == _faces(expected.faces, oracles.face_to_dict)
        assert (kept.width, kept.height, kept.label) == (expected.width, expected.height, expected.label)


@PROPERTY
@given(values=st.lists(NUMBERS | SLOT_VALUES, min_size=1, max_size=9), integer=st.booleans())
def test_row_check_gives_each_value_the_checked_number_verdict(values, integer):
    names = [f"v{i}" for i in range(len(values))]
    expected = []
    for value, name in zip(values, names):
        try:
            expected.append(checked_number(value, ValueError, name, integer))
        except ValueError as e:
            with pytest.raises(ValueError) as raised:
                checked_numbers(values, ValueError, names, integer)
            assert str(raised.value) == str(e)  # names the first value rejected
            return
    row = checked_numbers(values, ValueError, names, integer)
    assert [(type(v), repr(v)) for v in row] == [(type(v), repr(v)) for v in expected]


@PROPERTY
@given(values=st.lists(NUMBERS | st.sampled_from(["12", "-0.0", " 1e3 ", "x", None, [1.0]])
                       | st.floats().map(np.float64) | st.integers(-200, 200).map(np.int64), min_size=9, max_size=9))
def test_face_features_built_directly_match_the_old_constructor(values):
    """A caller's own FaceFeatures, packed into a Dataset: angles within +-180, finite
    likelihoods and scores clamped to [0, 1], -0.0 clamped to 0.0, as the old
    constructor gave them. Packing takes a value as a record file's number
    (checked_number), so numeric text, a bool or a numpy scalar, which the old
    constructor passed through float(), now raises ValidationError too."""
    face = FaceObservation(BoundingBox(0, 0, 10, 10), FaceFeatures(*values))
    picture = PictureRecord("p0", "b0", 20, 20, (face,))
    try:
        expected = oracles.FaceFeatures(*checked_numbers(values, ValidationError, FEATURE_NAMES))
    except ValidationError:
        with pytest.raises(ValidationError, match="'p0'"):
            Dataset(records=[picture])
        return
    got = Dataset(records=[picture]).features[0].tolist()
    assert [repr(v) for v in got] == [repr(getattr(expected, n)) for n in FEATURE_NAMES]


WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
SEPARATORS = st.lists(WHITESPACE | st.sampled_from([b"#", b"# c\n", b"#\t12 255\n", b"##\r\n"]), max_size=3).map(b"".join)


# ends that a backtracking header parse could read differently from the tokeniser:
# comments that hold the last tokens, and whitespace only
PGM_TAILS = [b"# 255 " + b"A" * 12, b"# 3 255\n" + b" " * 12, b"\n" + b" " * 12, b"255" + b" " * 13]


@st.composite
def _pgm_bytes(draw):
    """A P5 file whose header tokens, separators and comments vary, then perhaps
    truncated, with one byte replaced, or with a comment put anywhere."""
    tokens = [
        draw(st.sampled_from([b"P5", b"P6", b"p5", b"P5#", b"P"])),
        draw(st.sampled_from([b"4", b"04", b"0", b"+4", b"x", b"4#", b"\xd9\xa4"])),
        draw(st.sampled_from([b"3", b"3", b"-3", b"3.0"])),
        draw(st.sampled_from([b"255", b"0255", b"254", b"256", b"2 55"])),
    ]
    data = draw(SEPARATORS)
    for token in tokens[: draw(st.sampled_from([4, 4, 3, 2]))]:
        data += token + draw(SEPARATORS.filter(bool) | SEPARATORS)
    data += draw(st.binary(max_size=14) | st.sampled_from(PGM_TAILS))
    edit = draw(st.sampled_from(["none", "truncate", "flip", "comment"]))
    at = draw(st.integers(0, max(len(data) - 1, 0)))
    if edit == "truncate":
        data = data[:at]
    elif edit == "flip" and data:
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1 :]
    elif edit == "comment":
        data = data[:at] + draw(st.sampled_from([b"#", b"#x\n", b"# 7\n", b"\n#"])) + data[at:]
    return data


@PROPERTY
@given(data=_pgm_bytes() | st.binary(max_size=24))
def test_read_pgm_reads_what_the_tokeniser_read(tmp_path, data):
    path = tmp_path / "x.pgm"
    path.write_bytes(data)
    try:
        expected = oracles.read_pgm(path)
    except PGMError:
        with pytest.raises(PGMError):
            read_pgm(path)
        return
    image = read_pgm(path)
    assert image.dtype == expected.dtype and image.shape == expected.shape
    assert image.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "data",
    [
        b"P5 4 3 # 255 " + b"A" * 12,  # the tokeniser finds no maxval: a comment runs to the end
        b"P5 # 4 3 255\n" + b" " * 12,  # nor here, where size and maxval are inside a comment
        b"P5 4 3255\n" + b" " * 12,  # nor here, after the one token 3255
        b"P5 4 3 #x\n255 " + bytes(12),
        b"P5 4 3 255" + bytes(12),  # no whitespace after maxval
        b"P5 4 3 255\n" + bytes(11),
    ],
)
def test_read_pgm_header_edge_cases_match_the_tokeniser(tmp_path, data):
    path = tmp_path / "x.pgm"
    path.write_bytes(data)
    try:
        expected = oracles.read_pgm(path).tolist()
    except PGMError:
        expected = PGMError
    try:
        got = read_pgm(path).tolist()
    except PGMError:
        got = PGMError
    assert got == expected


def test_read_pgm_takes_comments_and_any_ascii_whitespace_in_the_header(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"#lead\nP5\x0b# a comment\r\n3\t#\n2\x0c\x0c255\n" + bytes(range(6)))
    assert read_pgm(path).tolist() == [[0, 1, 2], [3, 4, 5]]


def test_event_log_keeps_one_sorted_key_json_object_per_line(tmp_path):
    scenario = Scenario(
        dt=0.1, steps=60, line=[(0.0, 0.0), (100.0, 0.0)], start_pose=(0.0, 0.0, 0.0),
        camera_faces=[{"t_start": 1.0, "t_end": 3.0, "counts": [3, 0, 0]}],
    )
    log = Simulator(scenario).run()
    write_event_log(log, tmp_path / "log.jsonl")
    assert (tmp_path / "log.jsonl").read_text() == "".join(json.dumps(e, sort_keys=True) + "\n" for e in log)
