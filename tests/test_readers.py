"""Every reader of outside input returns a valid value or raises its module's
DatasetError subclass, whatever the bytes or JSON values it is given."""

import argparse
import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import neutral_features, rewrite_model_header, set_at
from robophoto import tinynet
from robophoto.behavior_sim import Scenario, ScenarioError, Simulator
from robophoto.cli import cmd_ttest
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
from robophoto.composition import thresholds_from_json, thresholds_to_json
from robophoto.errors import DatasetError
from robophoto.face_quality import build_face_ann, score_faces
from robophoto.pgm import PGMError, read_pgm, write_pgm
from robophoto.stats import welch_t_test
from robophoto.synthetic import DEFAULT_HIDDEN_BASELINE

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


# --- one rule for a number read from input, whichever reader reads it ---------

# value kind -> the value put in a field, from the field's valid int and float
NUMBER_KINDS = {
    "true": lambda valid_int, valid_float: True,
    "numeric string": lambda valid_int, valid_float: str(valid_int),
    "NaN": lambda valid_int, valid_float: math.nan,
    "Infinity": lambda valid_int, valid_float: math.inf,
    "-Infinity": lambda valid_int, valid_float: -math.inf,
    "10**400": lambda valid_int, valid_float: 10**400,
    "whole float": lambda valid_int, valid_float: float(valid_int),
    "fraction": lambda valid_int, valid_float: valid_float,
    "int": lambda valid_int, valid_float: valid_int,
}


def _json(value):
    """value after a round trip through JSON text, as a reader receives it."""
    return json.loads(json.dumps(value))


def _accepts(error, read, *args) -> bool:
    """Whether read(*args) returns; False when it raises error."""
    try:
        read(*args)
    except error:
        return False
    return True


def _record_reader(*path):
    def read(value):
        result = validate_dataset([_json(set_at(_valid_record(0), path, value))])
        return len(result.dataset) == 1 and result.dropped_faces == 0  # else dropped and counted

    return read


def _scenario_reader(*path):
    def read(value):
        return _accepts(ScenarioError, Scenario.from_json, json.dumps(set_at(_json(SCENARIO), path, value)))

    return read


def _threshold_reader(value):
    text = json.dumps({**json.loads(thresholds_to_json(DEFAULT_HIDDEN_BASELINE)), "x_max": value})
    return _accepts(DatasetError, thresholds_from_json, text)


def _sample_reader(value):
    return _accepts(DatasetError, welch_t_test, [1.0, 2.0, 3.0], _json([value, 4.0, 5.0]))


def _face_mlp_reader(key):
    def read(value):
        metadata = set_at({"feature_mean": [0.0] * 9, "feature_std": [1.0] * 9}, (key, 0), value)
        model = build_face_ann()
        model = replace(model, metadata=_json({**model.metadata, **metadata}))
        face = FaceObservation(bbox=BoundingBox(10, 10, 50, 50), features=neutral_features())
        return _accepts(tinynet.ModelFormatError, score_faces, model, face.features.as_vector()[None], [None])

    return read


def _layer_reader(tmp_path):
    def read(value):
        path = tmp_path / "layer.tnet"
        tinynet.save_model(tinynet.build_model([tinynet.dense(3, 1), tinynet.sigmoid()]), path)
        rewrite_model_header(path, lambda h: set_at(h, ("layers", 0, "in_units"), value))
        return _accepts(tinynet.ModelFormatError, tinynet.load_model, path)

    return read


def _number_readers(tmp_path):
    """name -> (whether the field takes only an int, a valid int, a valid float, read)"""
    return {
        "record bbox": (True, 10, 10.7, _record_reader("faces", 0, "bbox", "x_tl")),
        "record width": (True, 100, 100.9, _record_reader("width")),
        "record angle": (False, 12, 12.5, _record_reader("faces", 0, "features", "yaw")),
        "record likelihood": (False, 1, 0.5, _record_reader("faces", 0, "features", "joy")),
        "record score": (False, 1, 0.5, _record_reader("faces", 0, "score")),
        "scenario point": (False, 10, 10.5, _scenario_reader("line", 1, 0)),
        "scenario face count": (True, 2, 2.5, _scenario_reader("camera_faces", 0, "counts", 1)),
        "threshold": (False, 1, 0.8, _threshold_reader),
        "t-test sample": (False, 4, 4.5, _sample_reader),
        "face-MLP feature_mean": (False, 0, 0.5, _face_mlp_reader("feature_mean")),
        "face-MLP feature_std": (False, 2, 2.5, _face_mlp_reader("feature_std")),
        "model layer dimension": (True, 3, 3.5, _layer_reader(tmp_path)),
    }


@PROPERTY
@given(kind=st.sampled_from(sorted(NUMBER_KINDS)))
def test_every_reader_gives_a_number_the_same_verdict(tmp_path, kind):
    """A number is an int or, outside integer fields, a float; never a bool or
    a string, and never NaN, +-Infinity or an int beyond the float range."""
    for name, (integer, valid_int, valid_float, read) in _number_readers(tmp_path).items():
        expected = kind == "int" or (kind in ("whole float", "fraction") and not integer)
        assert read(NUMBER_KINDS[kind](valid_int, valid_float)) == expected, (name, kind)


# --- one rule for JSON read from input, whichever reader reads it -------------

# framing -> (function of a reader's valid document and of its wrapper into another
# top-level type, returning the bytes the reader gets; whether the reader accepts them)
JSON_FRAMINGS = {
    "plain": (lambda doc, wrap: doc, True),
    "JSON whitespace padding": (lambda doc, wrap: b"\n \t\r" + doc + b"\r\t \n", True),
    "UTF-8 BOM": (lambda doc, wrap: b"\xef\xbb\xbf" + doc, False),
    "UTF-16": (lambda doc, wrap: doc.decode().encode("utf-16"), False),
    "UTF-32": (lambda doc, wrap: doc.decode().encode("utf-32"), False),
    "non-UTF-8 byte": (lambda doc, wrap: doc[:-1] + b"\xff" + doc[-1:], False),
    "NBSP padding": (lambda doc, wrap: "\u00a0".encode() + doc, False),
    "\\x1c padding": (lambda doc, wrap: b"\x1c" + doc, False),
    "trailing data": (lambda doc, wrap: doc + b" 0", False),
    "nested too deep": (lambda doc, wrap: b"[" * 100_000 + b"]" * 100_000, False),
    "wrong top-level type": (lambda doc, wrap: wrap(doc), False),
}


def _in_list(doc: bytes) -> bytes:
    return b"[" + doc + b"]"


def _json_readers(tmp_path):
    """name -> (a valid document, its wrapper into another top-level type,
    whether read(bytes) returns, not raising the reader's own error class)"""
    records, sample = tmp_path / "d.jsonl", tmp_path / "b.json"
    model = tmp_path / "m.tnet"
    tinynet.save_model(tinynet.build_model([tinynet.dense(3, 1), tinynet.sigmoid()]), model)
    saved = model.read_bytes()
    (n,) = struct.unpack("<Q", saved[5:13])

    def read_records(data):
        records.write_bytes(data + b"\n")
        return _accepts(ParseError, read_records_jsonl, records)

    def read_header(data):
        model.write_bytes(saved[:5] + struct.pack("<Q", len(data)) + data + saved[13 + n :])
        return _accepts(tinynet.ModelFormatError, tinynet.load_model, model)

    def read_sample(data):
        sample.write_bytes(data)
        (tmp_path / "a.json").write_text("[1.0, 2.0, 3.0]")
        args = argparse.Namespace(sample_a=str(tmp_path / "a.json"), sample_b=str(sample), out=None)
        return _accepts(DatasetError, cmd_ttest, args)

    return {
        "record line": (json.dumps(_valid_record(0)).encode(), _in_list, read_records),
        "threshold file": (
            thresholds_to_json(DEFAULT_HIDDEN_BASELINE).encode(), _in_list,
            lambda data: _accepts(DatasetError, thresholds_from_json, data),
        ),
        "scenario": (
            json.dumps(SCENARIO).encode(), _in_list, lambda data: _accepts(ScenarioError, Scenario.from_json, data)
        ),
        "model header": (saved[13 : 13 + n], _in_list, read_header),
        "t-test sample": (b"[4.0, 5.0, 6.5]", lambda doc: b'{"ratings": ' + doc + b"}", read_sample),
    }


@pytest.mark.parametrize("framing", sorted(JSON_FRAMINGS))
def test_every_reader_gives_a_json_framing_the_same_verdict(tmp_path, capsys, framing):
    """Only UTF-8 with no BOM holding one JSON value of the reader's type, with
    only JSON whitespace around it, is read (errors.parsed_json)."""
    frame, accepted = JSON_FRAMINGS[framing]
    for name, (doc, wrap, read) in _json_readers(tmp_path).items():
        assert read(frame(doc, wrap)) == accepted, (name, framing)
