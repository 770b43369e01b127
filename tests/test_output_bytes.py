"""ingest then split, run on a fixed mixed dataset, write exactly the bytes they
wrote before the record path was rewritten for speed: every output file's sha256
is pinned. A kept crop is written as its absolute path, so the run directory in
those paths is replaced by a placeholder before hashing. Each training command
writes the model bytes it wrote before training and saving were made leaner, and
evaluate and select the reports they wrote before the scorers read columns. The
three network builders and the synthetic generators write the bytes they wrote
before each of those shared one code path."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import robophoto
from robophoto.cli import EXIT_OK, main
from oracles import make_random_pictures, record_to_dict
from robophoto.abstraction import build_picture_cnn
from robophoto.core import Dataset, face_to_dict, write_dataset_jsonl
from robophoto.face_quality import build_face_ann, build_face_cnn
from robophoto.pgm import write_pgm
from robophoto.synthetic import make_face_feature_dataset, make_layout_dataset, make_threshold_dataset
from robophoto.tinynet import save_model

# captured from the code before the rewrite, with the run directory written as <run>
DIGESTS = {
    "clean.jsonl": "62e2aa3be5d5f33391d3394856948db5bfa069c25f70ed6195070e8277389c05",
    "clean.jsonl.config.json": "36387e3733c4e3068819fb9e6f27feee1fc02f18cb232cbd51fe55c21f22406a",
    "splits/train.jsonl": "d6e2401a460d3c25cea72f7a9ab2640e85f5032a9d4377ddf74d38782d146f15",
    "splits/test.jsonl": "ee0da64250de28dffd415e244efe849086cd536672861e5d10ff502477f46616",
    "splits/validation.jsonl": "4a614faa9660066b1af4620ed57973eff7735bcef32117150599893927d7cff9",
    "splits/split.config.json": "17c05e4f45153bc610147576e779be6e24503f8107b368f81c7b7c4b77832ece",
}


def _face(path, label, score, x=10, **features):
    base = {
        "roll": 0.0, "pitch": 0.0, "yaw": 0.0, "joy": 0.5, "sorrow": 0.0,
        "anger": 0.0, "surprise": 0.0, "exposure": 0.5, "blur": 0.1,
    }
    face = {"bbox": {"x_tl": x, "y_tl": 12, "x_br": x + 40, "y_br": 60}, "features": {**base, **features}}
    for key, value in (("face_image_path", path), ("label", label), ("score", score)):
        if value is not None:
            face[key] = value
    return face


def _mixed_records() -> list[dict]:
    """Threshold-dataset records, face records linking crops, int-valued and
    likelihood-string features, -0.0, one bad face and one bad record."""
    records = [record_to_dict(r) for r in make_threshold_dataset(10, seed=4, kind="heuristic")]
    faces = [
        [_face("crops/c0.pgm", "good", 0.25, roll=12, pitch=-0.0, joy="LIKELY", sorrow="VERY_UNLIKELY",
               anger=0, surprise=1, blur=-0.0)],
        [_face("crops/c1.pgm/", "Bad", None, yaw=-35.5, joy="POSSIBLE", anger="UNLIKELY",
               surprise="VERY_LIKELY", exposure=1.5, blur=-2)],
        [_face("./crops/c2.pgm", None, 0.75, yaw=-0.0, sorrow=1e-300),
         _face("crops/c2.pgm", "good", None, x=60, yaw=500.0)],  # the bad face: yaw beyond 180
        [_face("crops/c3.pgm", " good ", 1, roll=-180, pitch=180, exposure=0)],
    ]
    for i, f in enumerate(faces):
        burst = f"face-burst-{min(i, 2)}"
        records.append(
            {"picture_id": f"face-{i}", "burst_id": burst, "width": 120, "height": 90, "faces": f, "label": "Good"}
        )
    records.append({**records[-1], "picture_id": "face-bad", "width": True})  # the bad record
    return records


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


@pytest.fixture
def run_dir(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    (tmp_path / "crops").mkdir()
    for i in range(4):
        write_pgm(rng.integers(0, 256, size=(36 + i, 40), dtype=np.uint8), tmp_path / f"crops/c{i}.pgm")
    (tmp_path / "mixed.jsonl").write_text("".join(json.dumps(r) + "\n" for r in _mixed_records()))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_ingest_and_split_write_pinned_bytes(run_dir):
    ingested = _run(["ingest", "--dataset", "mixed.jsonl", "--out", "clean.jsonl"])
    split = _run(["split", "--dataset", "clean.jsonl", "--out-dir", "splits", "--ratios", "0.5,0.25,0.25",
                  "--seed", "5"])
    assert ingested == "ingested 14 records (dropped 1 records, 1 faces)\n"
    assert split == "split sizes: train=7 test=4 validation=3\n"
    here = os.getcwd().encode()
    digests = {
        name: hashlib.sha256((run_dir / name).read_bytes().replace(here, b"<run>")).hexdigest()
        for name in ("clean.jsonl", "clean.jsonl.config.json", "splits/train.jsonl", "splits/test.jsonl",
                     "splits/validation.jsonl", "splits/split.config.json")
    }
    assert digests == DIGESTS


# sha256 of the .tnet each training command writes, on a one-epoch run: train-picture-cnn's
# taken before train freed its spent gradients and velocity and save_model stopped copying,
# the face models' before train kept its weights, gradients and velocity in flat buffers.
# Float32 GEMMs round as the BLAS build and its thread count do, so the run has one BLAS
# thread and the digests are checked only under the numpy and BLAS build they were taken with.
TNET_ENV = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64")
TNET_DIGESTS = {
    ("train-picture-cnn", "momentum"): "d97d0533b047ea193858f880d190c7ec37b90a517030f3435007a281ba2212f0",
    ("train-picture-cnn", "sgd"): "aea2dae120427ad11be7104dc76d46a7e2803c8d6d46fab410e08f9917aea8fb",
    ("train-face-ann", "momentum"): "55e0febb7b532e37434a37747d19b91decf549844883dd705598500f18093fad",
    ("train-face-ann", "sgd"): "559963027b95ba52cc21452d5078aaad6845b1e9145577f4671bf3bbc9dbba23",
    ("train-face-cnn", "momentum"): "efd99b736dc48408582ea9a08d21e6ac5924eb3a775bcbe12430a69721abd7e9",
    ("train-face-cnn", "sgd"): "b0fcab32925ac0d07db3f0a45e58cbff1364e7b05e133879b03d00b1470ca751",
}
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _training_set(tmp_path, command) -> Path:
    """16 layout records, or 24 rule-labelled faces each linking a 36x40 noise crop."""
    if command == "train-picture-cnn":
        write_dataset_jsonl(Dataset(records=tuple(make_layout_dataset(16, seed=5))), tmp_path / "train.jsonl")
        return tmp_path / "train.jsonl"
    rng = np.random.default_rng(7)
    (tmp_path / "crops").mkdir()
    records = []
    for i, face in enumerate(make_face_feature_dataset(24, seed=6)):
        write_pgm(rng.integers(0, 256, size=(36, 40), dtype=np.uint8), tmp_path / f"crops/{i}.pgm")
        face_dict = {**face_to_dict(face), "face_image_path": f"crops/{i}.pgm"}
        records.append({"picture_id": f"f{i}", "burst_id": f"b{i}", "width": 100, "height": 100, "faces": [face_dict]})
    (tmp_path / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    return tmp_path / "train.jsonl"


# the picture CNN's cases keep the ids they had before the face models were pinned
@pytest.mark.parametrize(
    "command, optimizer", list(TNET_DIGESTS),
    ids=[o if c == "train-picture-cnn" else f"{c[6:]}-{o}" for c, o in TNET_DIGESTS],
)
def test_train_picture_cnn_writes_pinned_bytes(tmp_path, command, optimizer):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration")
    if (np.__version__, blas) != TNET_ENV:
        pytest.skip(f"digests taken under numpy {TNET_ENV[0]}, {TNET_ENV[1]}")
    argv = [command, "--dataset", str(_training_set(tmp_path, command)), "--out", str(tmp_path / "p.tnet"),
            "--epochs", "1", "--batch-size", "8", "--learning-rate", "0.01", "--optimizer", optimizer]
    src = str(Path(robophoto.__file__).parents[1])
    subprocess.run(  # a child process, as the BLAS thread count is fixed when numpy loads
        [sys.executable, "-c", "import sys; from robophoto.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env={**os.environ, **ONE_THREAD, "PYTHONPATH": src}, check=True, capture_output=True,
    )
    assert hashlib.sha256((tmp_path / "p.tnet").read_bytes()).hexdigest() == TNET_DIGESTS[command, optimizer]


# sha256 of evaluate's report and select's selection, taken before the composition
# scorers read the dataset's columns. The picture CNN's outputs round as the BLAS build
# and its thread count do, so the run is pinned as the .tnet digests are.
SCORER_DIGESTS = {
    "report.json": "c2fd0d1410bcf977a3e41e4fee8b542ffb3b2a0e1ba4b565f522117ed4135a5f",
    "selection.json": "2b18e255c7ab5154e6962aab8146bf9b580c97967752562b92079bb3f6d06839",
}


def _run_in_one_blas_thread(commands) -> None:
    """Each argv list through cli.main, in one child process with one BLAS thread."""
    src = str(Path(robophoto.__file__).parents[1])
    script = "import json, sys; from robophoto.cli import main; sys.exit(max(main(a) for a in json.loads(sys.argv[1])))"
    subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                   env={**os.environ, **ONE_THREAD, "PYTHONPATH": src}, check=True, capture_output=True)


def test_evaluate_and_select_write_pinned_bytes(tmp_path):
    """Threshold pictures, random pictures with up to four faces and faceless ones, with
    thresholds fitted by optimize-thresholds, through evaluate and select."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration")
    if (np.__version__, blas) != TNET_ENV:
        pytest.skip(f"digests taken under numpy {TNET_ENV[0]}, {TNET_ENV[1]}")
    random = make_random_pictures(16, seed=9, with_scores=True)
    faceless = [replace(p, picture_id=f"none-{i}", faces=()) for i, p in enumerate(random[:4])]
    pictures = (*make_threshold_dataset(40, seed=8, kind="heuristic"), *random, *faceless)
    write_dataset_jsonl(Dataset(records=pictures), tmp_path / "set.jsonl")
    save_model(build_picture_cnn(seed=3), tmp_path / "picture.tnet")
    t = {kind: str(tmp_path / f"{kind}.json") for kind in ("baseline", "heuristic")}
    common = ["--dataset", str(tmp_path / "set.jsonl"), "--baseline-thresholds", t["baseline"],
              "--heuristic-thresholds", t["heuristic"], "--picture-model", str(tmp_path / "picture.tnet")]
    _run_in_one_blas_thread([
        *(["optimize-thresholds", "--dataset", str(tmp_path / "set.jsonl"), "--kind", kind, "--out", t[kind],
           "--population", "16", "--generations", "12", "--seed", "2"] for kind in t),
        ["evaluate", *common, "--out", str(tmp_path / "report.json")],
        ["select", *common, "--quota", "3", "--out", str(tmp_path / "selection.json")],
    ])
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SCORER_DIGESTS}
    assert digests == SCORER_DIGESTS


# sha256 of save_model(build_*(seed)) for each network builder, taken before the three
# builders shared one stack rule. Building draws its weights from numpy's Generator and
# runs no matrix product, so the digests do not depend on the BLAS build.
BUILDER_DIGESTS = {
    ("build_face_ann", 0): "dc2c7e4e5e96772b80fc29cebeeeecec09cb89c2ff2718f419492b0c2e577d9b",
    ("build_face_ann", 7): "9a10d4096e55a884e32cdd8bc9bcdf363247c781f156f3867efd63a9ca62bccb",
    ("build_face_cnn", 0): "f80cab251a80d1a71beb4b1f44430b77a6ef1d25a1af0a67db9ce421f3097397",
    ("build_face_cnn", 7): "31efca61996b7d51aa8910c738b2be4fd549c4cf55d591358df685c3c12a2b9f",
    ("build_picture_cnn", 0): "993f318912d5d7583293924fcd2abf9e9c80b5da9a47c135a05dbb0574e87467",
    ("build_picture_cnn", 7): "b5691a10699bb084cee356410669b4dec1ef1083c78dd9a646dacb7d27066a6a",
}
BUILDERS = {f.__name__: f for f in (build_face_ann, build_face_cnn, build_picture_cnn)}


@pytest.mark.parametrize("builder, seed", list(BUILDER_DIGESTS), ids=[f"{b}-{s}" for b, s in BUILDER_DIGESTS])
def test_builders_write_pinned_bytes(tmp_path, builder, seed):
    save_model(BUILDERS[builder](seed=seed), tmp_path / "m.tnet")
    assert hashlib.sha256((tmp_path / "m.tnet").read_bytes()).hexdigest() == BUILDER_DIGESTS[builder, seed]


# sha256 of the JSONL of 60 pictures from each synthetic generator, taken before the two
# generators shared one picture assembler; it pins every value and so the order of the draws.
GENERATOR_DIGESTS = {
    ("baseline", 2): "2dbff9321d18e8bf23cc5173111c646ed662f06ffef65a89445e5d8131452d7d",
    ("baseline", 13): "1c62662308b0b15a956d36478de0973e42734fac15f2bb658aeb37b3f4077589",
    ("heuristic", 2): "98b64fe8449539dacc1bf3e26c76f9b1065bd562752161f64d094a6d64d60a38",
    ("heuristic", 13): "81b4f6b6492c21b76e99379d48ca5d98d3c5a6240b88f99d78ff129d680cc4e5",
    ("layout", 2): "a9233f5c5c53cf823175a0631fa16c7f2bf7866557ffe7ff6d7a64f30b0fedbb",
    ("layout", 13): "690c6bb05dedaaef99c656df192ff112b7c6ae1f6b1f686ce2b6fedf4a394179",
}


@pytest.mark.parametrize("kind, seed", list(GENERATOR_DIGESTS), ids=[f"{k}-{s}" for k, s in GENERATOR_DIGESTS])
def test_generators_write_pinned_bytes(tmp_path, kind, seed):
    pictures = make_layout_dataset(60, seed) if kind == "layout" else make_threshold_dataset(60, seed, kind=kind)
    write_dataset_jsonl(Dataset(records=pictures), tmp_path / "set.jsonl")
    assert hashlib.sha256((tmp_path / "set.jsonl").read_bytes()).hexdigest() == GENERATOR_DIGESTS[kind, seed]
