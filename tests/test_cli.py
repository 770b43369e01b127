import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import face_columns, rewrite_model_header, set_at
from robophoto import __version__, cli, tinynet
from robophoto.abstraction import build_picture_cnn
from robophoto.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    evaluate_methods,
    main,
    run_pipeline,
)
from robophoto.composition import (
    heuristic_score,
    thresholds_from_json,
    thresholds_to_json,
)
from robophoto.core import (
    Dataset,
    Label,
    face_to_dict,
    read_records_jsonl,
    validate_dataset,
    write_dataset_jsonl,
)
from robophoto.face_quality import build_face_ann, build_face_cnn, score_face, train_face_ann
from robophoto.pgm import write_pgm
from robophoto.synthetic import (
    DEFAULT_HIDDEN_BASELINE,
    DEFAULT_HIDDEN_HEURISTIC,
    make_face_feature_dataset,
    make_threshold_dataset,
)


@pytest.fixture
def dataset_path(tmp_path):
    pics = make_threshold_dataset(30, seed=0, kind="heuristic")
    path = tmp_path / "data.jsonl"
    write_dataset_jsonl(Dataset(records=tuple(pics)), path)
    return path


@pytest.fixture
def threshold_paths(tmp_path):
    bp = tmp_path / "baseline.json"
    hp = tmp_path / "heuristic.json"
    bp.write_text(thresholds_to_json(DEFAULT_HIDDEN_BASELINE))
    hp.write_text(thresholds_to_json(DEFAULT_HIDDEN_HEURISTIC))
    return bp, hp


@pytest.fixture
def picture_model_path(tmp_path):
    path = tmp_path / "picture.tnet"
    tinynet.save_model(build_picture_cnn(seed=0), path)
    return path


def test_ingest_roundtrip(tmp_path, dataset_path, capsys):
    out = tmp_path / "clean.jsonl"
    code = main(["ingest", "--dataset", str(dataset_path), "--out", str(out)])
    assert code == EXIT_OK
    assert "ingested 30 records" in capsys.readouterr().out
    assert out.exists()
    config = json.loads((tmp_path / "clean.jsonl.config.json").read_text())
    assert config["dataset"] == str(dataset_path)
    assert "tool_version" in config


def test_split_command(tmp_path, dataset_path, capsys):
    out_dir = tmp_path / "splits"
    code = main(
        ["split", "--dataset", str(dataset_path), "--out-dir", str(out_dir), "--seed", "1"]
    )
    assert code == EXIT_OK
    for name in ("train", "test", "validation"):
        assert (out_dir / f"{name}.jsonl").exists()
    sizes = capsys.readouterr().out
    assert "train=24" in sizes


def test_optimize_thresholds_command(tmp_path, dataset_path, capsys):
    out = tmp_path / "thresholds.json"
    code = main(
        [
            "optimize-thresholds",
            "--dataset", str(dataset_path),
            "--kind", "baseline",
            "--out", str(out),
            "--population", "16",
            "--generations", "10",
        ]
    )
    assert code == EXIT_OK
    d = json.loads(out.read_text())
    assert d["kind"] == "baseline"
    assert (tmp_path / "thresholds.json.curve.csv").exists()


def test_evaluate_command(tmp_path, dataset_path, threshold_paths, picture_model_path, capsys):
    bp, hp = threshold_paths
    out = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--dataset", str(dataset_path),
            "--baseline-thresholds", str(bp),
            "--heuristic-thresholds", str(hp),
            "--picture-model", str(picture_model_path),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert set(report["methods"]) == {"baseline", "heuristic", "picture_cnn"}
    # the data was generated by the heuristic thresholds themselves
    assert report["methods"]["heuristic"]["accuracy"] == 1.0
    conf = report["methods"]["heuristic"]["confusion"]
    assert conf["fp"] == 0 and conf["fn"] == 0
    assert sum(conf.values()) == report["n_pictures"]


def test_select_command(tmp_path, dataset_path, threshold_paths, picture_model_path, capsys):
    bp, hp = threshold_paths
    out = tmp_path / "selection.json"
    code = main(
        [
            "select",
            "--dataset", str(dataset_path),
            "--baseline-thresholds", str(bp),
            "--heuristic-thresholds", str(hp),
            "--picture-model", str(picture_model_path),
            "--quota", "2",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["crop_plans"]["3000x2000"]
    per_method = {}
    for sel in report["selections"]:
        per_method.setdefault(sel["method"], []).append(sel)
    assert set(per_method) == {"baseline", "heuristic", "picture_cnn"}
    for sels in per_method.values():
        assert len(sels) <= 3 * 2
        assert [s["rank"] for s in sels] == list(range(len(sels)))


def test_faceless_and_large_groups(tmp_path, threshold_paths, picture_model_path):
    """A labelled faceless picture is scored under "no_faces" but never selected;
    a five-face picture falls in "three_plus"."""
    pics = make_threshold_dataset(30, seed=0, kind="heuristic")
    five = replace(pics[0], faces=pics[0].faces + pics[1].faces[:2])
    faceless = replace(pics[2], picture_id="faceless", burst_id="faceless", faces=())
    data = tmp_path / "data.jsonl"
    write_dataset_jsonl(Dataset(records=(five, *pics[1:], faceless)), data)
    bp, hp = threshold_paths
    common = ["--dataset", str(data), "--baseline-thresholds", str(bp), "--heuristic-thresholds", str(hp)]
    common += ["--picture-model", str(picture_model_path)]
    assert main(["evaluate", *common, "--out", str(tmp_path / "report.json")]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_pictures"] == 31
    for m in report["methods"].values():
        assert set(m["by_category"]) == {"no_faces", "one", "two", "three_plus"}
    assert main(["select", *common, "--quota", "30", "--out", str(tmp_path / "selection.json")]) == EXIT_OK
    selections = json.loads((tmp_path / "selection.json").read_text())["selections"]
    assert "faceless" not in {s["picture_id"] for s in selections}
    assert {s["category"] for s in selections if s["picture_id"] == five.picture_id} == {"three_plus"}


def test_simulate_command(tmp_path, capsys):
    scenario = {
        "dt": 0.1,
        "steps": 50,
        "line": [[0.0, 0.0], [50.0, 0.0]],
        "start_pose": [0.0, 0.1, 0.0],
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario))
    out = tmp_path / "log.jsonl"
    code = main(["simulate", "--scenario", str(spath), "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 50
    assert "50 steps" in capsys.readouterr().out


def test_render_abstract_command(tmp_path, dataset_path, capsys):
    out_dir = tmp_path / "renders"
    code = main(
        ["render-abstract", "--dataset", str(dataset_path), "--out-dir", str(out_dir)]
    )
    assert code == EXIT_OK
    assert len(list(out_dir.glob("*.pgm"))) == 30


def test_ttest_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([4.1, 4.3, 3.9, 4.6, 4.2]))
    b.write_text(json.dumps([3.1, 3.5, 3.0, 3.2, 3.4]))
    code = main(["ttest", "--sample-a", str(a), "--sample-b", str(b)])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["t_statistic"] > 0
    assert 0.0 <= out["p_one_sided"] < 0.05


def test_missing_dataset_is_data_error(tmp_path, capsys):
    code = main(["ingest", "--dataset", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA


def test_bad_ratios_is_usage_error(tmp_path, dataset_path, capsys):
    code = main(
        [
            "split",
            "--dataset", str(dataset_path),
            "--out-dir", str(tmp_path / "s"),
            "--ratios", "0.5,0.1",
        ]
    )
    assert code == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_version_flag_exits_zero(capsys):
    assert main(["--version"]) == 0


def test_ingest_and_split_keep_crops_for_face_cnn(tmp_path, capsys):
    raw = tmp_path / "raw"
    (raw / "crops").mkdir(parents=True)
    rng = np.random.default_rng(0)
    records = []
    for i, face in enumerate(make_face_feature_dataset(8, seed=0)):
        write_pgm(rng.integers(0, 256, size=(40, 40), dtype=np.uint8), raw / f"crops/{i}.pgm")
        face_dict = {**face_to_dict(face), "face_image_path": f"crops/{i}.pgm"}
        records.append(
            {"picture_id": f"p{i}", "burst_id": f"b{i}", "width": 100, "height": 100, "faces": [face_dict]}
        )
    (raw / "faces.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    clean, splits = tmp_path / "clean" / "faces.jsonl", tmp_path / "splits"
    clean.parent.mkdir()
    assert main(["ingest", "--dataset", str(raw / "faces.jsonl"), "--out", str(clean)]) == EXIT_OK
    paths = [f["face_image_path"] for r in read_records_jsonl(clean) for f in r["faces"]]
    assert paths == [str(raw / f"crops/{i}.pgm") for i in range(8)]
    assert main(["split", "--dataset", str(clean), "--out-dir", str(splits)]) == EXIT_OK
    code = main(
        [
            "train-face-cnn",
            "--dataset", str(splits / "train.jsonl"),
            "--out", str(tmp_path / "cnn.tnet"),
            "--epochs", "1",
            "--batch-size", "4",
        ]
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("crop", ["missing.pgm", "corrupt.pgm"])
def test_split_opens_no_crop(tmp_path, capsys, crop):
    """split keeps a face whose crop is missing or corrupt, with its absolute path; ingest drops it."""
    (tmp_path / "corrupt.pgm").write_bytes(b"P5\n40 40\n255\n")  # no pixel data
    assert main(_split(tmp_path, _with_face(_face_record("p0"), face_image_path=crop))) == EXIT_OK
    (record,) = read_records_jsonl(tmp_path / "s" / "train.jsonl")
    assert [f.get("face_image_path") for f in record["faces"]] == [str(tmp_path / crop), None]
    assert main(["ingest", "--dataset", str(tmp_path / "in.jsonl"), "--out", str(tmp_path / "o.jsonl")]) == EXIT_OK
    assert "dropped 0 records, 1 faces" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["train-face-ann", "train-face-cnn"])
def test_face_training_without_usable_faces_is_data_error(tmp_path, dataset_path, command, capsys):
    # dataset_path holds unlabeled faces without crops
    code = main([command, "--dataset", str(dataset_path), "--out", str(tmp_path / "m.tnet")])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("keep", [9, -8], ids=["header", "weights"])
def test_truncated_picture_model_is_data_error(
    tmp_path, dataset_path, threshold_paths, picture_model_path, keep, capsys
):
    picture_model_path.write_bytes(picture_model_path.read_bytes()[:keep])
    bp, hp = threshold_paths
    code = main(
        [
            "evaluate",
            "--dataset", str(dataset_path),
            "--baseline-thresholds", str(bp),
            "--heuristic-thresholds", str(hp),
            "--picture-model", str(picture_model_path),
            "--out", str(tmp_path / "report.json"),
        ]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err


def test_heuristic_without_scores_or_model_fails(tmp_path, capsys):
    pics = make_threshold_dataset(5, seed=3, kind="baseline")  # no stored scores
    path = tmp_path / "plain.jsonl"
    write_dataset_jsonl(Dataset(records=tuple(pics)), path)
    out = tmp_path / "t.json"
    code = main(
        [
            "optimize-thresholds",
            "--dataset", str(path),
            "--kind", "heuristic",
            "--out", str(out),
            "--population", "8",
            "--generations", "2",
        ]
    )
    assert code == EXIT_DATA


def test_evaluate_methods_requires_labels(picture_model_path):
    pics = make_threshold_dataset(4, seed=1, kind="heuristic")
    unlabeled = Dataset(
        records=tuple(
            type(p)(
                picture_id=p.picture_id,
                burst_id=p.burst_id,
                width=p.width,
                height=p.height,
                faces=p.faces,
                label=None,
            )
            for p in pics
        )
    )
    model = tinynet.load_model(picture_model_path)
    with pytest.raises(Exception):
        evaluate_methods(unlabeled, DEFAULT_HIDDEN_BASELINE, DEFAULT_HIDDEN_HEURISTIC, model)


@pytest.fixture
def face_model_path(tmp_path):
    faces = make_face_feature_dataset(64, seed=2)
    config = tinynet.TrainConfig(epochs=2, batch_size=16, learning_rate=0.01, seed=0)
    model, _ = train_face_ann(*face_columns(faces), config)
    path = tmp_path / "face.tnet"
    tinynet.save_model(model, path)
    return path


def test_face_model_rescores_evaluate_and_select(
    tmp_path, dataset_path, threshold_paths, picture_model_path, face_model_path, capsys
):
    bp, hp = threshold_paths
    common = [
        "--dataset", str(dataset_path),
        "--baseline-thresholds", str(bp),
        "--heuristic-thresholds", str(hp),
        "--picture-model", str(picture_model_path),
        "--face-model", str(face_model_path),
    ]
    assert main(["evaluate", *common, "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert main(["select", *common, "--out", str(tmp_path / "selection.json")]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    selection = json.loads((tmp_path / "selection.json").read_text())

    # the same heuristic, with every face scored on its own
    model = tinynet.load_model(face_model_path)
    heuristic_t = thresholds_from_json(hp.read_text())
    records = oracles.records(validate_dataset(read_records_jsonl(dataset_path)).dataset)
    alone = {}
    for rec in records:
        rescored = replace(rec, faces=tuple(replace(f, score=score_face(model, f)) for f in rec.faces))
        alone[rec.picture_id] = (rec, heuristic_score(rescored, heuristic_t))

    confusion = report["methods"]["heuristic"]["confusion"]
    assert confusion["tp"] + confusion["fp"] == sum(s.passed for _, s in alone.values())
    assert confusion["tp"] == sum(
        s.passed and rec.label is Label.GOOD for rec, s in alone.values()
    )
    picked = [s for s in selection["selections"] if s["method"] == "heuristic"]
    assert picked
    for sel in picked:
        assert sel["score"] == pytest.approx(alone[sel["picture_id"]][1].value, rel=0, abs=1e-12)


def _evaluate(tmp_path, dataset_path, bp, hp, model_path):
    return main(
        [
            "evaluate",
            "--dataset", str(dataset_path),
            "--baseline-thresholds", str(bp),
            "--heuristic-thresholds", str(hp),
            "--picture-model", str(model_path),
            "--out", str(tmp_path / "report.json"),
        ]
    )


def test_misshaped_picture_model_is_data_error(tmp_path, dataset_path, threshold_paths, capsys):
    model = build_picture_cnn(seed=0)
    idx = next(i for i, spec in enumerate(model.layers) if spec.kind == "dense")
    weights = list(model.weights)
    weights[idx] = {"W": np.zeros((3000, 1260)), "b": weights[idx]["b"]}
    path = tmp_path / "misshaped.tnet"
    tinynet.save_model(replace(model, weights=tuple(weights)), path)
    assert _evaluate(tmp_path, dataset_path, *threshold_paths, path) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: {**h, "layers": [{**h["layers"][0], "colour": 1}, *h["layers"][1:]]},
        lambda h: {k: v for k, v in h.items() if k != "metadata"},
        lambda h: [h],
    ],
    ids=["layer_unknown_key", "no_metadata", "header_list"],
)
def test_malformed_picture_model_header_is_data_error(
    tmp_path, dataset_path, threshold_paths, picture_model_path, edit, capsys
):
    rewrite_model_header(picture_model_path, edit)
    assert _evaluate(tmp_path, dataset_path, *threshold_paths, picture_model_path) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err


def test_threshold_file_without_x_max_is_data_error(
    tmp_path, dataset_path, threshold_paths, picture_model_path, capsys
):
    bp, hp = threshold_paths
    d = json.loads(bp.read_text())
    del d["x_max"]
    bp.write_text(json.dumps(d))
    assert _evaluate(tmp_path, dataset_path, bp, hp, picture_model_path) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "x_max" in err and "Traceback" not in err


@pytest.mark.parametrize("swap", ["baseline_as_heuristic", "heuristic_as_baseline"])
def test_swapped_threshold_files_are_data_error(
    tmp_path, dataset_path, threshold_paths, picture_model_path, swap, capsys
):
    bp, hp = threshold_paths
    args = (bp, bp) if swap == "baseline_as_heuristic" else (hp, hp)
    assert _evaluate(tmp_path, dataset_path, *args, picture_model_path) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "thresholds" in err and "Traceback" not in err


def test_train_face_ann_opens_no_crop(tmp_path, capsys):
    faces = make_face_feature_dataset(24, seed=4)
    records = {"with_path": [], "without_path": []}
    for i, face in enumerate(faces):
        face_dict = face_to_dict(face)
        for name, extra in (("with_path", {"face_image_path": "missing/crop.pgm"}), ("without_path", {})):
            records[name].append(
                {
                    "picture_id": f"p{i}",
                    "burst_id": f"b{i}",
                    "width": 100,
                    "height": 100,
                    "faces": [{**face_dict, **extra}],
                }
            )
    models = []
    for name, recs in records.items():
        data, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.tnet"
        data.write_text("".join(json.dumps(r) + "\n" for r in recs))
        args = ["train-face-ann", "--dataset", str(data), "--out", str(out), "--epochs", "2"]
        assert main(args) == EXIT_OK
        models.append(out.read_bytes())
    assert models[0] == models[1]


# name -> (function of (dataset path, output dir, tmp_path, fixture getter) returning argv);
# none is given a face CNN, so none needs a crop
CROP_FREE_COMMANDS = {
    **{
        f"optimize_thresholds_{kind}": lambda data, out, tmp, get, kind=kind: [
            "optimize-thresholds", "--dataset", data, "--kind", kind, "--out", f"{out}/t.json",
            "--population", "8", "--generations", "3",
        ]
        for kind in ("baseline", "heuristic")
    },
    "evaluate": lambda data, out, tmp, get: ["evaluate", *_crop_free_methods(data, out, get)],
    "evaluate_face_mlp": lambda data, out, tmp, get: [
        "evaluate", *_crop_free_methods(data, out, get), "--face-model", str(_face_mlp(tmp)),
    ],
    "select": lambda data, out, tmp, get: ["select", *_crop_free_methods(data, out, get)],
    "train_picture_cnn": lambda data, out, tmp, get: [
        "train-picture-cnn", "--dataset", data, "--out", f"{out}/p.tnet", "--epochs", "1",
    ],
    "render_abstract": lambda data, out, tmp, get: ["render-abstract", "--dataset", data, "--out-dir", out],
}


def _crop_free_methods(data, out, get):
    bp, hp = get("threshold_paths")
    return [
        "--dataset", data, "--baseline-thresholds", str(bp), "--heuristic-thresholds", str(hp),
        "--picture-model", str(get("tiny_layout_model_path")), "--out", f"{out}/r.json",
    ]


@pytest.mark.parametrize("command", sorted(CROP_FREE_COMMANDS))
def test_commands_without_a_face_cnn_open_no_crop(tmp_path, request, capsys, command):
    """A crop path naming no file changes no output of a command that reads no crop."""
    records = [json.loads(line) for line in request.getfixturevalue("dataset_path").read_text().splitlines()]
    outputs = []
    for name, extra in (("with_path", {"face_image_path": "missing/crop.pgm"}), ("without_path", {})):
        data, out = tmp_path / f"{name}.jsonl", tmp_path / name
        out.mkdir()
        lines = (json.dumps({**r, "faces": [{**f, **extra} for f in r["faces"]]}) + "\n" for r in records)
        data.write_text("".join(lines))
        assert main(CROP_FREE_COMMANDS[command](str(data), str(out), tmp_path, request.getfixturevalue)) == EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if not p.name.endswith(".config.json")})
    assert outputs[0] and outputs[0] == outputs[1]


# --- bad input: every probe ends in its documented exit code ---------------------

DEEP = b"[" * 100_000 + b"]" * 100_000  # JSON nested deeper than the recursion limit
SCENARIO = {"dt": 0.1, "steps": 30, "line": [[0.0, 0.0], [20.0, 0.0]], "start_pose": [0.0, 0.1, 0.0]}


def _face_record(pid, **fields):
    faces = [face_to_dict(f) for f in make_face_feature_dataset(2, seed=len(pid))]
    return {"picture_id": pid, "burst_id": f"b{pid}", "width": 100, "height": 100, "faces": faces, **fields}


def _with_face(record, **fields):
    record["faces"][0].update(fields)
    return record


def _write(path, *items):
    """Write JSON values (or raw bytes) one per line, and return the path."""
    path.write_bytes(b"".join(i if isinstance(i, bytes) else json.dumps(i).encode() + b"\n" for i in items))
    return str(path)


def _ingest(tmp, *lines):
    return ["ingest", "--dataset", _write(tmp / "in.jsonl", *lines), "--out", str(tmp / "out.jsonl")]


def _split(tmp, *lines):
    return ["split", "--dataset", _write(tmp / "in.jsonl", *lines), "--out-dir", str(tmp / "s"), "--ratios", "1,0,0"]


def _simulate(tmp, scenario):
    return ["simulate", "--scenario", _write(tmp / "s.json", scenario), "--out", str(tmp / "log.jsonl")]


# render-abstract names a file after each picture_id: these are not a file name
UNSAFE_PICTURE_IDS = {"parent": "../x", "subdirectory": "a/b", "nul": "a\0b"}


def _render_abstract(tmp, picture_id):
    """render-abstract of one scored record, read from tmp/in, into tmp/in/out."""
    record = _face_record(picture_id)
    for face in record["faces"]:
        face["score"] = 0.5
    (tmp / "in").mkdir()
    return ["render-abstract", "--dataset", _write(tmp / "in/d.jsonl", record), "--out-dir", str(tmp / "in/out")]


def _ttest(tmp, sample_b):
    a, b = _write(tmp / "a.json", [1.0, 2.0, 3.0]), _write(tmp / "b.json", sample_b)
    return ["ttest", "--sample-a", a, "--sample-b", b]


def _methods(tmp, get, picture_model=None, face_model=None, baseline=None):
    bp, hp = get("threshold_paths")
    args = ["--dataset", str(get("dataset_path")), "--baseline-thresholds", str(baseline or bp)]
    args += ["--heuristic-thresholds", str(hp), "--picture-model", str(picture_model or get("tiny_layout_model_path"))]
    return args + (["--face-model", str(face_model)] if face_model else []) + ["--out", str(tmp / "r.json")]


def _saved(model, path):
    tinynet.save_model(model, path)
    return path


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _face_mlp(tmp, **metadata):
    """A face MLP file whose metadata holds the given z-scoring entries."""
    model = build_face_ann()
    return _saved(replace(model, metadata={**model.metadata, **metadata}), tmp / "face.tnet")


def _evaluate_face_mlp(**metadata):
    return lambda tmp, get: ["evaluate", *_methods(tmp, get, face_model=_face_mlp(tmp, **metadata))]


FACE_DROPPED = "ingested 2 records (dropped 0 records, 1 faces)"
RECORD_DROPPED = "ingested 1 records (dropped 1 records, 0 faces)"
# a number from input is an int, or a float outside integer fields: never a bool or a string
INGEST_NUMBER_PROBES = {
    "bbox_fraction": (("faces", 0, "bbox", "x_tl"), 12.7, FACE_DROPPED),
    "bbox_numeric_string": (("faces", 0, "bbox", "x_tl"), "12", FACE_DROPPED),
    "bbox_true": (("faces", 0, "bbox", "x_tl"), True, FACE_DROPPED),
    "feature_numeric_string": (("faces", 0, "features", "yaw"), "12", FACE_DROPPED),
    "likelihood_true": (("faces", 0, "features", "joy"), True, FACE_DROPPED),
    "score_numeric_string": (("faces", 0, "score"), "0.5", FACE_DROPPED),
    "width_numeric_string": (("width",), "100", RECORD_DROPPED),
    "width_fraction": (("width",), 100.9, RECORD_DROPPED),
}


def _baseline_file(tmp, **values):
    return _write(tmp / "b.json", {**json.loads(thresholds_to_json(DEFAULT_HIDDEN_BASELINE)), **values})


def _layout_model_file(tmp, **last_dense):
    """The tiny layout model's file with its last dense layer's spec edited."""
    path = _saved(_tiny_layout_model(), tmp / "p.tnet")

    def edit(header):
        *head, dense, sigmoid = header["layers"]
        return {**header, "layers": [*head, {**dense, **last_dense}, sigmoid]}

    rewrite_model_header(path, edit)
    return path


# name -> (function of (tmp_path, fixture getter) returning argv, exit code, expected stdout)
BAD_INPUT_PROBES = {
    "ingest_picture_label_not_string": (
        lambda tmp, get: _ingest(tmp, _face_record("p0", label=7), _face_record("p1")),
        EXIT_OK, "ingested 1 records (dropped 1 records, 0 faces)",
    ),
    "ingest_face_label_not_string": (
        lambda tmp, get: _ingest(tmp, _with_face(_face_record("p0"), label=["Good"]), _face_record("p1")),
        EXIT_OK, "ingested 2 records (dropped 0 records, 1 faces)",
    ),
    # only an absent label, null or "" means unlabeled: any other value that is not Good or Bad drops
    **{
        f"ingest_{level}_label_{name}": (
            lambda tmp, get, record=record, value=value: _ingest(tmp, record(value), _face_record("p1")), EXIT_OK, out
        )
        for level, record, out in (
            ("picture", lambda value: _face_record("p0", label=value), RECORD_DROPPED),
            ("face", lambda value: _with_face(_face_record("p0"), label=value), FACE_DROPPED),
        )
        for name, value in (("false", False), ("zero", 0), ("empty_list", []), ("empty_object", {}))
    },
    # faces that are not a JSON array drop their record, kept faceless or not, with no face counted
    **{
        f"ingest_faces_{name}": (
            lambda tmp, get, faces=faces: [
                *_ingest(tmp, _face_record("p0", faces=faces), _face_record("p1")), "--keep-faceless"
            ],
            EXIT_OK, RECORD_DROPPED,
        )
        for name, faces in (("string", "abc"), ("object", {"x": 1}))
    },
    "ingest_missing_crop": (
        lambda tmp, get: _ingest(tmp, _with_face(_face_record("p0"), face_image_path="no.pgm"), _face_record("p1")),
        EXIT_OK, "ingested 2 records (dropped 0 records, 1 faces)",
    ),
    "ingest_corrupt_crop": (
        lambda tmp, get: _ingest(
            tmp, _with_face(_face_record("p0"), face_image_path=_write(tmp / "bad.pgm", b"P5\n40 x\n255\n")),
            _face_record("p1"),
        ),
        EXIT_OK, "ingested 2 records (dropped 0 records, 1 faces)",
    ),
    # only an absent crop path, null or "" means no crop: any other value that is not a string drops its face
    **{
        f"ingest_crop_path_{name}": (
            lambda tmp, get, value=value: _ingest(
                tmp, _with_face(_face_record("p0"), face_image_path=value), _face_record("p1")
            ),
            EXIT_OK, FACE_DROPPED,
        )
        for name, value in (("false", False), ("zero", 0), ("empty_list", []), ("empty_object", {}))
    },
    # split opens no crop file: the face keeps its crop path (see test_split_opens_no_crop)
    **{
        f"split_{name}_crop": (
            lambda tmp, get, crop=crop: _split(
                tmp, _with_face(_face_record("p0"), face_image_path=crop(tmp)), _face_record("p1")
            ),
            EXIT_OK, "split sizes: train=2 test=0 validation=0",
        )
        for name, crop in (
            ("missing", lambda tmp: "no.pgm"), ("corrupt", lambda tmp: _write(tmp / "bad.pgm", b"P5\n40 x\n255\n"))
        )
    },
    "ingest_non_object_line": (lambda tmp, get: _ingest(tmp, _face_record("p0"), [1, 2]), EXIT_DATA, ""),
    "ingest_non_utf8_line": (
        lambda tmp, get: _ingest(tmp, _face_record("p0"), b'{"picture_id": "\xff"}\n'), EXIT_DATA, ""
    ),
    "ingest_duplicate_picture_id": (
        lambda tmp, get: _ingest(tmp, _face_record("p0"), _face_record("p0")), EXIT_DATA, ""
    ),
    "ingest_dataset_is_directory": (
        lambda tmp, get: ["ingest", "--dataset", str(tmp), "--out", str(tmp / "o.jsonl")], EXIT_DATA, ""
    ),
    "ingest_line_nested_too_deep": (
        lambda tmp, get: _ingest(tmp, _face_record("p0"), DEEP + b"\n"), EXIT_DATA, ""
    ),
    "simulate_nested_too_deep": (lambda tmp, get: _simulate(tmp, DEEP), EXIT_DATA, ""),
    "ttest_nested_too_deep": (lambda tmp, get: _ttest(tmp, DEEP), EXIT_DATA, ""),
    # one rule for JSON framing (errors.parsed_json): UTF-8, no BOM, only JSON whitespace around the value
    "ingest_line_nbsp_padded": (
        lambda tmp, get: _ingest(tmp, _face_record("p0"), f"\u00a0{json.dumps(_face_record('p1'))}\n".encode()),
        EXIT_DATA, "",
    ),
    "simulate_utf8_bom": (
        lambda tmp, get: _simulate(tmp, b"\xef\xbb\xbf" + json.dumps(SCENARIO).encode()), EXIT_DATA, ""
    ),
    "ttest_utf16": (lambda tmp, get: _ttest(tmp, json.dumps([4.0, 5.0, 6.0]).encode("utf-16")), EXIT_DATA, ""),
    "evaluate_threshold_file_utf8_bom": (
        lambda tmp, get: [
            "evaluate", *_methods(tmp, get, baseline=_write(
                tmp / "b.json", b"\xef\xbb\xbf" + thresholds_to_json(DEFAULT_HIDDEN_BASELINE).encode()
            )),
        ],
        EXIT_DATA, "",
    ),
    "simulate_missing_steps": (lambda tmp, get: _simulate(tmp, _without(SCENARIO, "steps")), EXIT_DATA, ""),
    "simulate_dt_zero": (lambda tmp, get: _simulate(tmp, {**SCENARIO, "dt": 0}), EXIT_DATA, ""),
    # the log keeps 6 decimals of "t", so a smaller step would log one time for several steps
    "simulate_dt_below_log_resolution": (lambda tmp, get: _simulate(tmp, {**SCENARIO, "dt": 1e-7}), EXIT_DATA, ""),
    "simulate_negative_steps": (lambda tmp, get: _simulate(tmp, {**SCENARIO, "steps": -5}), EXIT_DATA, ""),
    "simulate_one_point_line": (
        lambda tmp, get: _simulate(tmp, {**SCENARIO, "line": [[0.0, 0.0]]}), EXIT_DATA, ""
    ),
    "simulate_run_time_overflows": (
        lambda tmp, get: _simulate(tmp, {**SCENARIO, "dt": 1e308, "steps": 3}), EXIT_DATA, ""
    ),
    **{
        f"simulate_{name}_face_count": (
            lambda tmp, get, counts=counts: _simulate(
                tmp, {**SCENARIO, "camera_faces": [{"t_start": 0.0, "t_end": 3.0, "counts": counts}]}
            ),
            EXIT_DATA, "",
        )
        for name, counts in (("negative", [-1, -3, -3]), ("fractional", [0.5, 0, 0]))
    },
    # a window that ends at or before its start could never be active
    **{
        f"simulate_{kind}_window_{name}": (
            lambda tmp, get, key=key, window=window: _simulate(tmp, {**SCENARIO, key: [window]}), EXIT_DATA, ""
        )
        for kind, key, values in (
            ("face", "camera_faces", {"counts": [3, 0, 0]}), ("obstacle", "obstacles", {"points": [[0.4, 1.0]] * 12})
        )
        for name, window in (
            ("reversed", {"t_start": 2.0, "t_end": 1.0, **values}), ("empty", {"t_start": 1.0, "t_end": 1.0, **values})
        )
    },
    **{
        f"render_abstract_picture_id_{name}": (
            lambda tmp, get, pid=pid: _render_abstract(tmp, pid), EXIT_DATA, ""
        )
        for name, pid in UNSAFE_PICTURE_IDS.items()
    },
    "simulate_malformed_json": (lambda tmp, get: _simulate(tmp, b'{"dt": 0.1,'), EXIT_DATA, ""),
    "simulate_non_object": (lambda tmp, get: _simulate(tmp, [SCENARIO]), EXIT_DATA, ""),
    "ttest_malformed_json": (lambda tmp, get: _ttest(tmp, b"[1.0, 2.0"), EXIT_DATA, ""),
    "ttest_non_numeric_sample": (lambda tmp, get: _ttest(tmp, ["a", 1.0]), EXIT_DATA, ""),
    "ttest_one_value": (lambda tmp, get: _ttest(tmp, [1.0]), EXIT_DATA, ""),
    "ttest_numeric_string_value": (lambda tmp, get: _ttest(tmp, ["4.1", 3.0, 5.0]), EXIT_DATA, ""),
    "ttest_boolean_value": (lambda tmp, get: _ttest(tmp, [True, 3, 5]), EXIT_DATA, ""),
    "ttest_sample_is_string": (lambda tmp, get: _ttest(tmp, "123"), EXIT_DATA, ""),
    **{
        f"split_ratios_{ratios}": (
            lambda tmp, get, ratios=ratios: [
                "split", "--dataset", str(get("dataset_path")), "--out-dir", str(tmp / "s"), "--ratios", ratios,
            ],
            EXIT_USAGE, "",
        )
        for ratios in ("1.5,-0.25,-0.25", "a,b,c", "0.5,0.1")
    },
    "evaluate_face_mlp_as_picture_model": (
        lambda tmp, get: ["evaluate", *_methods(tmp, get, picture_model=_saved(build_face_ann(), tmp / "m"))],
        EXIT_DATA, "",
    ),
    "evaluate_face_cnn_on_faces_without_crops": (
        lambda tmp, get: ["evaluate", *_methods(tmp, get, face_model=_saved(build_face_cnn(), tmp / "m"))],
        EXIT_DATA, "",
    ),
    "evaluate_face_mlp_unscaled": (_evaluate_face_mlp(), EXIT_OK, "heuristic: accuracy"),
    "evaluate_face_mlp_integer_scaling": (
        _evaluate_face_mlp(feature_mean=[0] * 9, feature_std=[2] * 9), EXIT_OK, "heuristic: accuracy"
    ),
    **{
        f"evaluate_face_mlp_{name}": (_evaluate_face_mlp(**metadata), EXIT_DATA, "")
        for name, metadata in {
            "mean_of_3": {"feature_mean": [0.0] * 3, "feature_std": [1.0] * 9},
            "mean_is_string": {"feature_mean": "0" * 9, "feature_std": [1.0] * 9},
            "mean_of_booleans": {"feature_mean": [False] * 9, "feature_std": [1.0] * 9},
            "mean_nan": {"feature_mean": [float("nan")] * 9, "feature_std": [1.0] * 9},
            "mean_too_large": {"feature_mean": [10**400] * 9, "feature_std": [1.0] * 9},
            "std_zero": {"feature_mean": [0.0] * 9, "feature_std": [1.0] * 8 + [0.0]},
            "std_subnormal": {"feature_mean": [0.0] * 9, "feature_std": [5e-324] * 9},
            "z_score_overflows": {"feature_mean": [1e300] * 9, "feature_std": [1e-9] * 9},
            "z_score_finite_but_huge": {"feature_mean": [1e299] * 9, "feature_std": [1e-9] * 9},
            "std_nested": {"feature_mean": [0.0] * 9, "feature_std": [[1.0]] * 9},
            "std_absent": {"feature_mean": [0.0] * 9},
        }.items()
    },
    **{
        f"ingest_{name}": (
            lambda tmp, get, path=path, value=value: _ingest(
                tmp, set_at(_face_record("p0"), path, value), _face_record("p1")
            ),
            EXIT_OK, summary,
        )
        for name, (path, value, summary) in INGEST_NUMBER_PROBES.items()
    },
    "evaluate_threshold_minus_infinity": (
        lambda tmp, get: ["evaluate", *_methods(tmp, get, baseline=_baseline_file(tmp, x_min=-math.inf))],
        EXIT_DATA, "",
    ),
    "evaluate_layer_width_true": (
        lambda tmp, get: [
            "evaluate", *_methods(tmp, get, picture_model=_layout_model_file(tmp, out_units=True))
        ],
        EXIT_DATA, "",
    ),
    **{
        f"train_learning_rate_{value}": (
            lambda tmp, get, value=value: [
                "train-face-ann", "--dataset", str(get("dataset_path")), "--out", str(tmp / "m"),
                "--epochs", "1", "--learning-rate", value,
            ],
            EXIT_USAGE, "",
        )
        for value in ("nan", "inf")
    },
    "optimize_thresholds_unlabelled": (
        lambda tmp, get: [
            "optimize-thresholds", "--dataset", _write(tmp / "u.jsonl", _face_record("p0"), _face_record("p1")),
            "--kind", "baseline", "--out", str(tmp / "t.json"),
        ],
        EXIT_DATA, "",
    ),
    # only the heuristic gates read face scores: a face model beside --kind baseline is an error, not ignored
    "optimize_thresholds_baseline_with_face_model": (
        lambda tmp, get: [
            "optimize-thresholds", "--dataset", str(get("dataset_path")), "--kind", "baseline",
            "--out", str(tmp / "t.json"), "--face-model", str(tmp / "no.tnet"),
        ],
        EXIT_USAGE, "",
    ),
    "train_epochs_0": (
        lambda tmp, get: [
            "train-face-ann", "--dataset", str(get("dataset_path")), "--out", str(tmp / "m"), "--epochs", "0",
        ],
        EXIT_USAGE, "",
    ),
    **{
        f"optimize_thresholds_{flag}_{value}": (
            lambda tmp, get, flag=flag, value=value: [
                "optimize-thresholds", "--dataset", str(get("dataset_path")), "--kind", "baseline",
                "--out", str(tmp / "t.json"), f"--{flag}", value,
            ],
            EXIT_USAGE, "",
        )
        for flag, value in (("population", "2"), ("generations", "-1"))
    },
    "select_quota_negative": (
        lambda tmp, get: ["select", *_methods(tmp, get), "--quota", "-1"], EXIT_USAGE, ""
    ),
    # one rule for every --seed: an integer >= 0, of any size
    **{
        f"{command}_seed_negative": (lambda tmp, get, argv=argv: [*argv(tmp, get), "--seed", "-1"], EXIT_USAGE, "")
        for command, argv in {
            "split": lambda tmp, get: _split(tmp, _face_record("p0")),
            "optimize_thresholds": lambda tmp, get: [
                "optimize-thresholds", "--dataset", str(get("dataset_path")), "--kind", "baseline",
                "--out", str(tmp / "t.json"),
            ],
            "train_picture_cnn": lambda tmp, get: [
                "train-picture-cnn", "--dataset", str(get("dataset_path")), "--out", str(tmp / "p.tnet"),
                "--epochs", "1",
            ],
        }.items()
    },
    "split_seed_beyond_64_bits": (
        lambda tmp, get: [*_split(tmp, _face_record("p0"), _face_record("p1")), "--seed", str(10**23)],
        EXIT_OK, "split sizes: train=2 test=0 validation=0",
    ),
}


def _tiny_layout_model():
    """A small network that takes the layout canvas, for fast evaluate and select runs."""
    spec = tinynet.conv2d(1, 2, 4, 4, stride=3)
    (c, h, w) = tinynet.conv_output_shape((1, 100, 150), spec)
    layers = [spec, tinynet.leaky_relu(), tinynet.flatten(), tinynet.dense(c * h * w, 1), tinynet.sigmoid()]
    return tinynet.build_model(layers, seed=0)


@pytest.fixture
def tiny_layout_model_path(tmp_path):
    return _saved(_tiny_layout_model(), tmp_path / "tiny.tnet")


# a RuntimeWarning would be numpy meeting a value the input checks let through
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("probe", sorted(BAD_INPUT_PROBES))
def test_bad_input_exits_with_its_code(tmp_path, request, capsys, probe):
    make_argv, code, out = BAD_INPUT_PROBES[probe]
    assert main(make_argv(tmp_path, request.getfixturevalue)) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "internal error" not in captured.err
    assert out in captured.out


@pytest.mark.parametrize("picture_id", [*UNSAFE_PICTURE_IDS.values(), ".", "..", "ok"])
def test_render_abstract_writes_nothing_outside_out_dir(tmp_path, capsys, picture_id):
    code = main(_render_abstract(tmp_path, picture_id))
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    if picture_id == "ok":
        assert code == EXIT_OK
        assert written == ["in/d.jsonl", "in/out/ok.pgm", "in/out/render.config.json"]
    else:
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: picture_id")
        assert written == ["in/d.jsonl"]


# --- the driver: cli.main writes each command's one run config and prints its summary ---

METHOD_FILES = ["--baseline-thresholds", "baseline.json", "--heuristic-thresholds", "heuristic.json"]
METHOD_FILES += ["--picture-model", "picture.tnet"]
# the README demo flow, small, plus the commands it leaves out: (argv, the run config it writes)
DEMO_FLOW = (
    (["ingest", "--dataset", "demo.jsonl", "--out", "clean.jsonl"], "clean.jsonl.config.json"),
    (["split", "--dataset", "clean.jsonl", "--out-dir", "splits"], "splits/split.config.json"),
    *(
        (
            ["optimize-thresholds", "--dataset", "splits/train.jsonl", "--kind", kind, "--out", f"{kind}.json",
             "--population", "8", "--generations", "3"],
            f"{kind}.json.config.json",
        )
        for kind in ("baseline", "heuristic")
    ),
    (
        ["train-picture-cnn", "--dataset", "splits/train.jsonl", "--out", "picture.tnet", "--epochs", "1"],
        "picture.tnet.config.json",
    ),
    (
        ["evaluate", "--dataset", "splits/test.jsonl", *METHOD_FILES, "--out", "report.json"],
        "report.json.config.json",
    ),
    (
        ["select", "--dataset", "splits/test.jsonl", *METHOD_FILES, "--out", "selection.json"],
        "selection.json.config.json",
    ),
    (["ttest", "--sample-a", "a.json", "--sample-b", "b.json"], None),
    (["ttest", "--sample-a", "a.json", "--sample-b", "b.json", "--out", "t.json"], "t.json.config.json"),
    (["train-face-ann", "--dataset", "faces.jsonl", "--out", "ann.tnet", "--epochs", "1"], "ann.tnet.config.json"),
    (["train-face-cnn", "--dataset", "faces.jsonl", "--out", "cnn.tnet", "--epochs", "1"], "cnn.tnet.config.json"),
    (["simulate", "--scenario", "scenario.json", "--out", "events.jsonl"], "events.jsonl.config.json"),
    (["render-abstract", "--dataset", "splits/test.jsonl", "--out-dir", "renders"], "renders/render.config.json"),
)


def test_each_command_writes_one_run_config(tmp_path, monkeypatch, capsys):
    """The run config holds the parsed arguments and the tool version; ttest without --out writes none."""
    monkeypatch.chdir(tmp_path)
    write_dataset_jsonl(Dataset(records=tuple(make_threshold_dataset(40, seed=0, kind="heuristic"))), "demo.jsonl")
    (tmp_path / "crops").mkdir()
    rng = np.random.default_rng(0)
    for i in range(4):
        write_pgm(rng.integers(0, 256, size=(40, 40), dtype=np.uint8), tmp_path / f"crops/{i}.pgm")
    faces = (_with_face(_face_record(f"p{i}"), face_image_path=f"crops/{i}.pgm") for i in range(4))
    _write(tmp_path / "faces.jsonl", *faces)
    _write(tmp_path / "scenario.json", SCENARIO)
    _write(tmp_path / "a.json", [4.1, 4.3, 3.9, 4.6])
    _write(tmp_path / "b.json", [3.1, 3.5, 3.0, 3.2])
    parser = cli.build_parser()
    for argv, config in DEMO_FLOW:
        before = set(tmp_path.rglob("*.config.json"))
        assert main(argv) == EXIT_OK, capsys.readouterr().err
        assert set(tmp_path.rglob("*.config.json")) - before == ({tmp_path / config} if config else set())
        if config:
            args = {k: v for k, v in vars(parser.parse_args(argv)).items() if k != "func"}
            assert json.loads((tmp_path / config).read_text()) == {**args, "tool_version": __version__}
    commands = {name.removeprefix("cmd_").replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    assert {argv[0] for argv, _ in DEMO_FLOW} == commands and len(commands) == 11


# command -> (function of tmp_path returning argv, the run config it writes, under tmp_path)
RUN_CONFIGS = {
    "ingest": (lambda tmp: _ingest(tmp, _face_record("p0")), "out.jsonl.config.json"),
    "split": (lambda tmp: _split(tmp, _face_record("p0")), "s/split.config.json"),
    "train_face_ann": (
        lambda tmp: [
            "train-face-ann", "--dataset", _write(tmp / "in.jsonl", _face_record("p0")), "--out", str(tmp / "m"),
            "--epochs", "1",
        ],
        "m.config.json",
    ),
    "simulate": (lambda tmp: _simulate(tmp, SCENARIO), "log.jsonl.config.json"),
    "render_abstract": (lambda tmp: _render_abstract(tmp, "ok"), "in/out/render.config.json"),
    "ttest": (lambda tmp: [*_ttest(tmp, [4.0, 5.0, 6.5]), "--out", str(tmp / "t.json")], "t.json.config.json"),
}


@pytest.mark.parametrize("command", sorted(RUN_CONFIGS))
def test_unwritable_run_config_is_a_data_error_with_no_summary(tmp_path, capsys, command):
    make_argv, config = RUN_CONFIGS[command]
    argv = make_argv(tmp_path)
    (tmp_path / config).mkdir(parents=True)
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:") and "Traceback" not in captured.err
    assert captured.out == ""


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize(
    ("sample_a", "sample_b", "t"), [([2.0, 2.0], [1.0, 1.0], "inf"), ([1.0, 1.0], [2.0, 2.0], "-inf")]
)
def test_ttest_writes_an_infinite_t_as_a_string(tmp_path, capsys, sample_a, sample_b, t):
    """Both samples constant with different means: t is infinite, and JSON has no infinity."""
    a, b = _write(tmp_path / "a.json", sample_a), _write(tmp_path / "b.json", sample_b)
    assert main(["ttest", "--sample-a", a, "--sample-b", b, "--out", str(tmp_path / "t.json")]) == EXIT_OK
    for text in (capsys.readouterr().out, (tmp_path / "t.json").read_text()):
        report = json.loads(text, parse_constant=_not_json)
        assert report["t_statistic"] == t and report["p_one_sided"] == 0.0


# --- fuzz: corrupted input files never end in a traceback or an internal error ---

JSON_VALUES = (
    st.none() | st.booleans() | st.integers(-100, 100) | st.floats() | st.text(max_size=4)
    | st.lists(st.integers(-3, 3) | st.floats(), max_size=3)
    | st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2)
)


def _paths(value, path=()):
    """The path of every value nested in a JSON value, its own included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _replace(value, path, new):
    if not path:
        return new
    head, *rest = path
    if isinstance(value, dict):
        return {**value, head: _replace(value[head], rest, new)}
    return [_replace(v, rest, new) if i == head else v for i, v in enumerate(value)]


@st.composite
def _corrupted(draw, data: bytes, json_lines: bool):
    """data truncated, with one byte replaced, or (JSON files) one value swapped."""
    how = draw(st.sampled_from(["truncate", "flip", "swap"] if json_lines is not None else ["truncate", "flip"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    lines = data.splitlines() if json_lines else [data]
    idx = draw(st.integers(0, len(lines) - 1))
    value = json.loads(lines[idx])
    path = draw(st.sampled_from(list(_paths(value))))
    lines[idx] = json.dumps(_replace(value, path, draw(JSON_VALUES))).encode()
    return b"\n".join(lines) + b"\n"


ONE_EPOCH = ["--epochs", "1", "--batch-size", "4"]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Per command: a directory of valid inputs, its argv, and each input file's
    format (True: JSON Lines, False: JSON, None: binary)."""
    root = tmp_path_factory.mktemp("fuzz")
    cases = {}

    d = root / "ingest"
    (d / "crops").mkdir(parents=True)
    rng = np.random.default_rng(0)
    records = []
    for i in range(3):
        write_pgm(rng.integers(0, 256, size=(40, 40), dtype=np.uint8), d / f"crops/{i}.pgm")
        records.append(_with_face(_face_record(f"p{i}", label="Good"), face_image_path=f"crops/{i}.pgm"))
    _write(d / "in.jsonl", *records)
    files = {"in.jsonl": True, **{f"crops/{i}.pgm": None for i in range(3)}}
    cases["ingest"] = (d, ["ingest", "--dataset", "in.jsonl", "--out", "out.jsonl"], files)
    cases["train-face-cnn"] = (
        d, ["train-face-cnn", "--dataset", "in.jsonl", "--out", "out.tnet", *ONE_EPOCH], files
    )

    d = root / "train-face-ann"
    d.mkdir()
    _write(d / "in.jsonl", *(_face_record(f"p{i}") for i in range(3)))
    cases["train-face-ann"] = (
        d, ["train-face-ann", "--dataset", "in.jsonl", "--out", "out.tnet", *ONE_EPOCH], {"in.jsonl": True}
    )

    d = root / "simulate"
    d.mkdir()
    windows = {
        "obstacles": [{"t_start": 0.5, "t_end": 1.0, "points": [[0.4, 1.0]] * 12}],
        "camera_faces": [{"t_start": 0.0, "t_end": 2.0, "counts": [3, 0, 0]}],
    }
    _write(d / "s.json", {**SCENARIO, **windows})
    cases["simulate"] = (d, ["simulate", "--scenario", "s.json", "--out", "log.jsonl"], {"s.json": False})

    d = root / "ttest"
    d.mkdir()
    _write(d / "a.json", [4.1, 4.3, 3.9, 4.6])
    _write(d / "b.json", [3.1, 3.5, 3.0, 3.2])
    cases["ttest"] = (d, ["ttest", "--sample-a", "a.json", "--sample-b", "b.json"], {"a.json": False, "b.json": False})

    d = root / "evaluate"
    d.mkdir()
    write_dataset_jsonl(Dataset(records=tuple(make_threshold_dataset(12, seed=0, kind="heuristic"))), d / "d.jsonl")
    (d / "b.json").write_text(thresholds_to_json(DEFAULT_HIDDEN_BASELINE))
    (d / "h.json").write_text(thresholds_to_json(DEFAULT_HIDDEN_HEURISTIC))
    _saved(_tiny_layout_model(), d / "m.tnet")
    faces = make_face_feature_dataset(8, seed=1)
    _saved(train_face_ann(*face_columns(faces), tinynet.TrainConfig(epochs=1))[0], d / "f.tnet")
    methods = ["--dataset", "d.jsonl", "--baseline-thresholds", "b.json", "--heuristic-thresholds", "h.json"]
    methods += ["--picture-model", "m.tnet", "--out", "r.json"]
    files = {"d.jsonl": True, "b.json": False, "h.json": False, "m.tnet": None}
    cases["evaluate"] = (d, ["evaluate", *methods], files)
    cases["select"] = (d, ["select", *methods, "--face-model", "f.tnet"], {**files, "f.tnet": None})
    cases["render-abstract"] = (
        d, ["render-abstract", "--dataset", "d.jsonl", "--out-dir", "renders"], {"d.jsonl": True}
    )
    cases["train-picture-cnn"] = (
        d, ["train-picture-cnn", "--dataset", "d.jsonl", "--out", "out.tnet", *ONE_EPOCH], {"d.jsonl": True}
    )
    cases["split"] = (d, ["split", "--dataset", "d.jsonl", "--out-dir", "splits"], {"d.jsonl": True})
    cases["optimize-thresholds"] = (
        d,
        ["optimize-thresholds", "--dataset", "d.jsonl", "--kind", "heuristic", "--out", "t.json",
         "--population", "8", "--generations", "2"],
        {"d.jsonl": True},
    )
    return cases


@settings(max_examples=330, deadline=None)
@given(data=st.data())
def test_corrupted_inputs_exit_with_a_documented_code(fuzz_inputs, data):
    command = data.draw(st.sampled_from(sorted(fuzz_inputs)))
    base, argv, files = fuzz_inputs[command]
    name = data.draw(st.sampled_from(sorted(files)))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "in"
        shutil.copytree(base, work)
        (work / name).write_bytes(data.draw(_corrupted((base / name).read_bytes(), files[name])))
        paths = {*files, "out.jsonl", "out.tnet", "log.jsonl", "r.json", "renders", "splits", "t.json"}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(work / a) if a in paths else a for a in argv])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC), err.getvalue()
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()
