"""Every reader of outside input returns a valid value or raises its module's
DatasetError subclass, whatever the bytes or JSON values it is given."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import neutral_features
from robophoto import tinynet
from robophoto.behavior_sim import Scenario, ScenarioError, Simulator
from robophoto.core import (
    BoundingBox,
    FaceObservation,
    ParseError,
    ValidationError,
    ValidationResult,
    face_to_dict,
    read_records_jsonl,
    validate_dataset,
)
from robophoto.pgm import PGMError, read_pgm, write_pgm

PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["Good", "bad", "LIKELY", "VERY_UNLIKELY", "crop.pgm", ""])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _mutations(data: bytes):
    """Truncations and single-byte replacements of data, and arbitrary bytes."""
    at = st.integers(0, len(data) - 1)
    return (
        at.map(lambda n: data[:n])
        | st.tuples(at, st.integers(0, 255)).map(lambda t: data[: t[0]] + bytes([t[1]]) + data[t[0] + 1 :])
        | st.binary(max_size=64)
    )


@pytest.fixture(scope="module")
def valid_pgm(tmp_path_factory):
    path = tmp_path_factory.mktemp("pgm") / "crop.pgm"
    write_pgm(np.arange(12 * 10, dtype=np.uint8).reshape(12, 10), path)
    return path.read_bytes()


@pytest.mark.parametrize("header", [b"P5\n4 x\n255\n", b"P5\n0 4\n255\n", b"P5\n-2 -2\n255\n"])
def test_read_pgm_rejects_a_bad_size(tmp_path, header):
    path = tmp_path / "x.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(PGMError):
        read_pgm(path)


@PROPERTY
@given(data=st.data())
def test_read_pgm_is_an_image_or_pgm_error(tmp_path, valid_pgm, data):
    path = tmp_path / "x.pgm"
    path.write_bytes(data.draw(_mutations(valid_pgm)))
    try:
        image = read_pgm(path)
    except PGMError:
        return
    assert image.dtype == np.uint8 and image.ndim == 2 and image.size > 0


@pytest.fixture(scope="module")
def valid_model(tmp_path_factory):
    layers = [tinynet.conv2d(1, 2, 2, 2, stride=2, padding="same"), tinynet.relu(), tinynet.flatten()]
    layers += [tinynet.dense(8, 3), tinynet.leaky_relu(), tinynet.dense(3, 1), tinynet.sigmoid()]
    path = tmp_path_factory.mktemp("model") / "m.tnet"
    tinynet.save_model(tinynet.build_model(layers, seed=1, metadata={"architecture": "tiny"}), path)
    return path.read_bytes()


@PROPERTY
@given(data=st.data())
def test_load_model_is_a_model_or_model_format_error(tmp_path, valid_model, data):
    path = tmp_path / "m.tnet"
    path.write_bytes(data.draw(_mutations(valid_model)))
    try:
        model = tinynet.load_model(path)
    except tinynet.ModelFormatError:
        return
    assert isinstance(model, tinynet.NetworkModel) and isinstance(model.metadata, dict)


def _valid_record(i: int) -> dict:
    face = FaceObservation(bbox=BoundingBox(10, 10, 50, 50), features=neutral_features())
    return {"picture_id": f"p{i}", "burst_id": "b", "width": 100, "height": 100, "faces": [face_to_dict(face)]}


@st.composite
def _jsonl_lines(draw):
    """Valid records, some with one field replaced, and arbitrary JSON lines."""
    lines = []
    for i in range(draw(st.integers(0, 4))):
        record = _valid_record(i)
        kind = draw(st.sampled_from(["valid", "record_field", "face_field", "feature", "any"]))
        if kind == "record_field":
            record[draw(st.sampled_from(sorted(record) + ["label"]))] = draw(JSON_VALUES)
        elif kind == "face_field":
            face = record["faces"][0]
            face[draw(st.sampled_from(sorted(face) + ["label", "score", "face_image_path"]))] = draw(JSON_VALUES)
        elif kind == "feature":
            features = record["faces"][0]["features"]
            features[draw(st.sampled_from(sorted(features)))] = draw(JSON_VALUES)
        elif kind == "any":
            record = draw(JSON_VALUES)
        lines.append(json.dumps(record))
    return lines


@PROPERTY
@given(lines=_jsonl_lines())
def test_records_are_kept_or_dropped_or_the_file_fails(tmp_path, lines):
    path = tmp_path / "d.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    try:
        result = validate_dataset(read_records_jsonl(path), base_dir=tmp_path)
    except (ParseError, ValidationError):
        return
    assert isinstance(result, ValidationResult)
    assert len(result.dataset) + result.dropped_records == len(lines)


SCENARIO = {
    "dt": 0.1,
    "steps": 5,
    "line": [[0.0, 0.0], [10.0, 0.0]],
    "start_pose": [0.0, 0.1, 0.0],
    "obstacles": [{"t_start": 0.0, "t_end": 1.0, "points": [[0.4, 1.0]]}],
    "camera_faces": [{"t_start": 0.0, "t_end": 1.0, "counts": [3, 0, 0]}],
}


@st.composite
def _scenarios(draw):
    """The valid scenario with one key dropped, one top-level or window value
    replaced, or an arbitrary JSON value."""
    scenario = json.loads(json.dumps(SCENARIO))
    kind = draw(st.sampled_from(["drop", "top", "window", "any"]))
    if kind == "drop":
        del scenario[draw(st.sampled_from(sorted(scenario)))]
    elif kind == "top":
        scenario[draw(st.sampled_from(sorted(scenario)))] = draw(JSON_VALUES)
    elif kind == "window":
        window = scenario[draw(st.sampled_from(["obstacles", "camera_faces"]))][0]
        window[draw(st.sampled_from(sorted(window)))] = draw(JSON_VALUES)
    else:
        scenario = draw(JSON_VALUES)
    return json.dumps(scenario)


@PROPERTY
@given(text=_scenarios())
def test_scenario_is_runnable_or_scenario_error(text):
    try:
        scenario = Scenario.from_json(text)
    except ScenarioError:
        return
    sim = Simulator(scenario)
    for _ in range(min(scenario.steps, 20)):
        sim.step()
