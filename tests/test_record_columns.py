"""The column record path against the per-record objects it replaced (kept in
oracles.py): whole files validate to the same kept ids, drop counts and written
bytes; the GA's per-picture reduction is bit-equal to the old loop; and no
command that reads records builds a picture or face object."""

import contextlib
import io
import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
import robophoto.synthetic
from robophoto.abstraction import render_abstract, render_dataset
from robophoto.cli import EXIT_OK, main
from robophoto.core import (
    BoundingBox,
    Dataset,
    FaceObservation,
    Label,
    PictureRecord,
    UnscoredFaceError,
    ValidationError,
    face_to_dict,
    read_records_jsonl,
    validate_dataset,
    write_dataset_jsonl,
)
from robophoto.errors import DatasetError
from robophoto.pgm import write_pgm
from robophoto.synthetic import make_face_feature_dataset, make_threshold_dataset, random_features
from robophoto.threshold_opt import _FitnessCache
from test_readers import JSON_VALUES
from test_record_oracles import CROP_PATHS, NUMBERS, SLOT_VALUES

PROPERTY = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

FLOAT_MAX_INT = int(sys.float_info.max)
FEATURES = dict(zip(oracles.FEATURE_NAMES, [10.0, -20.0, 30.0, 0.5, 0.0, 0.25, 0.75, 0.5, 0.1]))
FACE_KEYS = ["bbox", "features", "score", "label", "face_image_path"]
RECORD_KEYS = ["picture_id", "burst_id", "width", "height", "label", "faces"]


@pytest.fixture(scope="module")
def crop_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("columns")
    (base / "crops").mkdir()
    write_pgm(np.arange(40 * 40, dtype=np.uint8).reshape(40, 40), base / "crops/x.pgm")
    write_pgm(np.zeros((20, 20), dtype=np.uint8), base / "crops/small.pgm")
    (base / "crops/bad.pgm").write_bytes(b"P5\n40 40\n255\n" + bytes(10))
    return base


@st.composite
def _face(draw):
    x, y = draw(st.integers(0, 50)), draw(st.integers(0, 50))
    face = {
        "bbox": {"x_tl": x, "y_tl": y, "x_br": x + draw(st.integers(1, 60)), "y_br": y + draw(st.integers(1, 60))},
        "features": dict(FEATURES),
    }
    for key, values in (("score", [0.5, 1, -0.0]), ("label", ["Good", "bad"]), ("face_image_path", CROP_PATHS)):
        if draw(st.booleans()):
            face[key] = draw(st.sampled_from(values))
    for _ in range(draw(st.integers(0, 2))):  # a bad value anywhere in the face
        where = draw(st.sampled_from(["bbox", "features", "face"]))
        target = face if where == "face" else face[where]
        if isinstance(target, dict) and target:
            target[draw(st.sampled_from(FACE_KEYS if where == "face" else sorted(target)))] = draw(SLOT_VALUES)
    return face if draw(st.integers(0, 9)) else draw(JSON_VALUES)  # now and then not a face at all


@st.composite
def _records(draw):
    """Records with 0 to 4 faces, some with a bad field, a missing key or an odd face
    list, and with ids that may repeat."""
    records = []
    for i in range(draw(st.integers(0, 6))):
        record = {
            "picture_id": f"p{draw(st.integers(0, 9)) if draw(st.integers(0, 9)) == 0 else i}",
            "burst_id": f"b{draw(st.integers(0, 2))}",
            "width": draw(st.sampled_from([120, 100, 60, FLOAT_MAX_INT])),
            "height": draw(st.sampled_from([120, 100, 60, 2])),
            "faces": draw(st.lists(_face(), max_size=4)),
        }
        if draw(st.booleans()):
            record["label"] = draw(st.sampled_from(["Good", " bad ", "", None]))
        kind = draw(st.sampled_from(["valid"] * 3 + ["field", "drop"]))
        if kind == "field":
            record[draw(st.sampled_from(RECORD_KEYS))] = draw(SLOT_VALUES | NUMBERS)
        elif kind == "drop":
            record.pop(draw(st.sampled_from(RECORD_KEYS)), None)
        records.append(record)
    return records


def _oracle(raw, keep_faceless, base_dir, read_crops):
    """validate_dataset as it was: the record objects kept and the two drop counts."""
    kept, dropped_faces, dropped_records = [], 0, 0
    for d in raw:
        try:
            rec, n_dropped = oracles._record_from_dict(d, base_dir, read_crops)
        except oracles._BAD_INPUT:
            dropped_records += 1
            continue
        dropped_faces += n_dropped
        if not rec.faces and not keep_faceless:
            dropped_records += 1
            continue
        kept.append(rec)
    return kept, dropped_faces, dropped_records


@PROPERTY
@given(records=_records(), keep_faceless=st.booleans(), read_crops=st.booleans())
@example(
    records=[
        {"picture_id": "a", "burst_id": "b", "width": 100, "height": 100, "faces": []},
        {"picture_id": "b", "burst_id": "b", "width": 40, "height": 100,
         "faces": [{"bbox": {"x_tl": 0, "y_tl": 0, "x_br": 50, "y_br": 50}, "features": FEATURES,
                    "face_image_path": "crops/missing.pgm"},
                   {"bbox": {"x_tl": 0, "y_tl": 0, "x_br": 30, "y_br": 50}, "features": FEATURES}]},
        {"picture_id": "c", "burst_id": "b", "width": 100, "height": 100, "faces": 7},
        {"picture_id": "d", "burst_id": "b", "width": 100, "height": 100, "faces": {"bbox": 1}},
    ],
    keep_faceless=False, read_crops=True,
)
def test_whole_files_keep_drop_and_write_what_the_record_objects_did(tmp_path, crop_dir, records, keep_faceless,
                                                                     read_crops):
    """Bad faces and bad records anywhere in a file, faceless records, missing crops
    and faces outside their picture: the columns keep the same ids in the same order,
    count the same drops and write the same bytes, also after a round trip through
    the record views, and so does a Dataset packed from the oracle's record objects."""
    path = crop_dir / "d.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    raw = read_records_jsonl(path)
    kept, dropped_faces, dropped_records = _oracle(raw, keep_faceless, crop_dir, read_crops)
    ids = [r.picture_id for r in kept]
    if len(set(ids)) != len(ids):
        with pytest.raises(ValidationError, match="duplicate picture_id"):
            validate_dataset(raw, keep_faceless=keep_faceless, base_dir=crop_dir, read_crops=read_crops)
        return
    result = validate_dataset(raw, keep_faceless=keep_faceless, base_dir=crop_dir, read_crops=read_crops)
    assert result.dataset.picture_id.tolist() == ids
    assert (result.dropped_faces, result.dropped_records) == (dropped_faces, dropped_records)
    expected = "".join(json.dumps(oracles.record_to_dict(r), sort_keys=True) + "\n" for r in kept)
    write_dataset_jsonl(result.dataset, tmp_path / "columns.jsonl")
    write_dataset_jsonl(Dataset(records=oracles.records(result.dataset)), tmp_path / "views.jsonl")
    write_dataset_jsonl(Dataset(records=kept), tmp_path / "records.jsonl")
    for name in ("columns.jsonl", "views.jsonl", "records.jsonl"):
        assert (tmp_path / name).read_text() == expected, name
    for got, want in zip(oracles.records(result.dataset), kept):
        assert [None if f.face_image is None else f.face_image.tobytes() for f in got.faces] == [
            None if f.face_image is None else f.face_image.tobytes() for f in want.faces
        ]


ANGLES = st.floats(-180.0, 180.0) | st.integers(-180, 180)
# likelihoods and image scores: any finite number, clamped to [0, 1], most drawn inside it
UNIT_VALUES = st.floats(0.0, 1.0) | st.floats(allow_nan=False, allow_infinity=False) | st.integers(
    -FLOAT_MAX_INT, FLOAT_MAX_INT
)


@st.composite
def _kept_records(draw):
    """Records every rule keeps, each number drawn over its whole accepted range."""
    records = []
    for i in range(draw(st.integers(1, 4))):
        width, height = draw(st.integers(2, FLOAT_MAX_INT)), draw(st.integers(2, FLOAT_MAX_INT))
        faces = []
        for _ in range(draw(st.integers(1, 3))):
            x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
            x_br, y_br = draw(st.integers(x + 1, width)), draw(st.integers(y + 1, height))
            bbox = {"x_tl": x, "y_tl": y, "x_br": x_br, "y_br": y_br}
            features = {name: draw(ANGLES if k < 3 else UNIT_VALUES) for k, name in enumerate(oracles.FEATURE_NAMES)}
            face = {"bbox": bbox, "features": features}
            if draw(st.booleans()):
                face["score"] = draw(st.floats(0.0, 1.0) | st.sampled_from([0, 1, 5e-324]))
            faces.append(face)
        records.append({"picture_id": f"p{i}", "burst_id": "b", "width": width, "height": height, "faces": faces})
    return records


@PROPERTY
@given(records=_kept_records())
@example(records=[{
    "picture_id": "p0", "burst_id": "b", "width": FLOAT_MAX_INT, "height": 2**53 + 1,
    "faces": [{"bbox": {"x_tl": 2**53 + 1, "y_tl": 0, "x_br": FLOAT_MAX_INT, "y_br": 2**53 + 1}, "score": 5e-324,
               "features": dict(zip(oracles.FEATURE_NAMES, [-0.0, 5e-324, -180, 1e-7, 1e16, -0.0, 5e-324,
                                                            2.2250738585072014e-308, 1 - 2**-53]))}],
}])
def test_the_writer_writes_each_number_as_json_dumps_does(tmp_path, records):
    """Subnormals, -0.0, 1e16, 1e-7, scores down to 5e-324 and ints up to a float's range:
    each line written is json.dumps(row, sort_keys=True) of the record the oracle keeps."""
    kept, dropped_faces, dropped_records = _oracle(records, False, None, False)
    assert (dropped_faces, dropped_records) == (0, 0)
    write_dataset_jsonl(validate_dataset(records, read_crops=False).dataset, tmp_path / "w.jsonl")
    lines = (tmp_path / "w.jsonl").read_text().splitlines()
    assert lines == [json.dumps(oracles.record_to_dict(r), sort_keys=True) for r in kept]


# widths and box corners as large as a float's range: int64 overflows on them, and
# int64 -> float64 division rounds differently from Python's int / int past 2**53
SIDES = [2, 3, 640, 3000, 2**53 + 1, 2**64 + 13, 10**300, FLOAT_MAX_INT]
SCORES = [0.0, -0.0, 0.25, 0.5, 1.0]


def _random_pictures(seed: int, scored: bool = True) -> list[PictureRecord]:
    rng = random.Random(seed)
    pictures = []
    for i in range(rng.randint(1, 12)):
        width, height = rng.choice(SIDES), rng.choice(SIDES)
        faces = []
        for _ in range(rng.choice([0, 1, 1, 2, 3, 4, 5])):
            x0, y0 = rng.randrange(width - 1), rng.randrange(height - 1)
            box = BoundingBox(x0, y0, rng.randint(x0 + 1, width), rng.randint(y0 + 1, height))
            score = rng.choice([*SCORES, rng.random()]) if scored else None
            faces.append(FaceObservation(bbox=box, features=random_features(np.random.default_rng(i)), score=score))
        label = rng.choice([None, Label.GOOD, Label.BAD])
        pictures.append(PictureRecord(f"r{i}", f"b{i}", width, height, tuple(faces), label))
    return pictures


CACHE_ARRAYS = ("labels_good", "stats", "ranked", "fractions")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["baseline", "heuristic"]))
def test_fitness_cache_from_columns_is_bit_equal_to_the_per_picture_loop(seed, kind):
    pictures = _random_pictures(seed)
    try:
        expected = oracles.fitness_cache(pictures, kind)
    except DatasetError as e:  # no labeled picture
        with pytest.raises(type(e), match="no labeled pictures"):
            _FitnessCache(Dataset(records=pictures), kind)
        return
    built = _FitnessCache(Dataset(records=pictures), kind)
    assert built.n_pictures == expected.n_pictures
    for name in CACHE_ARRAYS:
        got, want = getattr(built, name), getattr(expected, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name


@pytest.mark.parametrize("seed", range(6))
def test_fitness_cache_raises_for_an_unscored_heuristic_face(seed):
    pictures = _random_pictures(seed, scored=False)
    pictures.append(PictureRecord("last", "b", 100, 100, (FaceObservation(BoundingBox(1, 1, 9, 9),
                                                                          random_features(np.random.default_rng(0))),),
                                  Label.GOOD))
    with pytest.raises(UnscoredFaceError) as expected:
        oracles.fitness_cache(pictures, "heuristic")
    with pytest.raises(UnscoredFaceError) as got:
        _FitnessCache(Dataset(records=pictures), "heuristic")
    assert str(got.value) == str(expected.value)
    _FitnessCache(Dataset(records=pictures), "baseline")  # the baseline gates read no score


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scored=st.booleans())
def test_a_dataset_renders_each_record_as_render_abstract_does(seed, scored):
    """Sides up to a float's range, faceless pictures and unscored faces: the columns
    give every canvas's bytes, or the error, that the record objects give."""
    pictures = _random_pictures(seed, scored)

    def canvases(rendered):
        try:
            return [canvas.tobytes() for canvas in rendered]
        except UnscoredFaceError as e:
            return str(e)

    assert canvases(render_dataset(Dataset(records=pictures))) == canvases(map(render_abstract, pictures))


def test_new_scores_outside_zero_one_are_rejected():
    dataset = Dataset(records=make_threshold_dataset(3, seed=0, kind="heuristic"))
    n_faces = len(dataset.score)
    assert oracles.records(dataset.with_scores(np.full(n_faces, 0.5)))[0].faces[0].score == 0.5
    for bad in (1.5, -0.25, math.nan):
        with pytest.raises(ValidationError, match="outside"):
            dataset.with_scores(np.full(n_faces, bad))


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == EXIT_OK


def _labeled_crop_faces(tmp_path):
    """Four one-face records whose faces carry a label and a 40x40 crop file."""
    rng = np.random.default_rng(0)
    (tmp_path / "crops").mkdir()
    records = []
    for i, face in enumerate(make_face_feature_dataset(4, seed=0)):
        write_pgm(rng.integers(0, 256, size=(40, 40), dtype=np.uint8), tmp_path / f"crops/{i}.pgm")
        face_dict = {**face_to_dict(face), "face_image_path": f"crops/{i}.pgm"}
        records.append({"picture_id": f"c{i}", "burst_id": "b", "width": 100, "height": 100, "faces": [face_dict]})
    path = tmp_path / "crops.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_record_commands_build_no_face_objects(tmp_path, monkeypatch):
    """Every command that reads records works on columns only: no picture or face object
    is made. Each is counted by a PictureRecord or FaceObservation subclass put in place
    of the class in every robophoto module; a synthetic generator, whose module is
    patched too, shows that the counters count."""
    demo = tmp_path / "demo.jsonl"
    write_dataset_jsonl(Dataset(records=make_threshold_dataset(60, seed=0, kind="heuristic")), demo)
    crops = _labeled_crop_faces(tmp_path)
    made = []

    class CountedFace(FaceObservation):
        def __new__(cls, *args, **kwargs):
            made.append(FaceObservation)
            return super().__new__(cls)

    class CountedPicture(PictureRecord):
        def __new__(cls, *args, **kwargs):
            made.append(PictureRecord)
            return super().__new__(cls)

    for name, module in list(sys.modules.items()):
        for cls, counted in ((FaceObservation, CountedFace), (PictureRecord, CountedPicture)):
            if name.startswith("robophoto") and getattr(module, cls.__name__, None) is cls:
                monkeypatch.setattr(module, cls.__name__, counted)
    splits = tmp_path / "splits"
    methods = ["--baseline-thresholds", tmp_path / "b.json", "--heuristic-thresholds", tmp_path / "h.json",
               "--picture-model", tmp_path / "picture.tnet"]
    _run(["ingest", "--dataset", demo, "--out", tmp_path / "clean.jsonl"])
    _run(["split", "--dataset", tmp_path / "clean.jsonl", "--out-dir", splits])
    _run(["optimize-thresholds", "--dataset", splits / "train.jsonl", "--kind", "baseline",
          "--out", tmp_path / "b.json", "--population", "8", "--generations", "2"])
    _run(["train-face-ann", "--dataset", crops, "--out", tmp_path / "face_mlp.tnet", "--epochs", "1"])
    _run(["optimize-thresholds", "--dataset", splits / "train.jsonl", "--kind", "heuristic",
          "--face-model", tmp_path / "face_mlp.tnet", "--out", tmp_path / "h.json", "--population", "8",
          "--generations", "2"])
    _run(["train-picture-cnn", "--dataset", splits / "validation.jsonl", "--out", tmp_path / "picture.tnet",
          "--epochs", "1"])
    _run(["evaluate", "--dataset", splits / "test.jsonl", *methods, "--out", tmp_path / "report.json"])
    _run(["select", "--dataset", splits / "test.jsonl", *methods, "--out", tmp_path / "selection.json"])
    _run(["render-abstract", "--dataset", splits / "test.jsonl", "--out-dir", tmp_path / "renders"])
    _run(["train-face-cnn", "--dataset", crops, "--out", tmp_path / "face_cnn.tnet", "--epochs", "1",
          "--batch-size", "4"])
    assert made == []
    pictures = robophoto.synthetic.make_threshold_dataset(5, seed=0, kind="heuristic")
    assert made.count(PictureRecord) == len(pictures) == 5
    assert made.count(FaceObservation) == sum(len(p.faces) for p in pictures) > 0
