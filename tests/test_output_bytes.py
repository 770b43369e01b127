"""ingest then split, run on a fixed mixed dataset, write exactly the bytes they
wrote before the record path was rewritten for speed: every output file's sha256
is pinned. A kept crop is written as its absolute path, so the run directory in
those paths is replaced by a placeholder before hashing. train-picture-cnn writes
the model bytes it wrote before training and saving held fewer weight copies."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robophoto
from robophoto.cli import EXIT_OK, main
from oracles import record_to_dict
from robophoto.core import Dataset, write_dataset_jsonl
from robophoto.pgm import write_pgm
from robophoto.synthetic import make_layout_dataset, make_threshold_dataset

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


# sha256 of the .tnet of a 2-step train-picture-cnn run, taken before train freed its spent
# gradients and velocity and save_model stopped copying. Float32 GEMMs round as the BLAS build
# and its thread count do, so the run has one BLAS thread and the digests are checked only under
# the numpy and BLAS build they were taken with.
TNET_ENV = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64")
TNET_DIGESTS = {
    "momentum": "d97d0533b047ea193858f880d190c7ec37b90a517030f3435007a281ba2212f0",
    "sgd": "aea2dae120427ad11be7104dc76d46a7e2803c8d6d46fab410e08f9917aea8fb",
}
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@pytest.mark.parametrize("optimizer", sorted(TNET_DIGESTS))
def test_train_picture_cnn_writes_pinned_bytes(tmp_path, optimizer):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration")
    if (np.__version__, blas) != TNET_ENV:
        pytest.skip(f"digests taken under numpy {TNET_ENV[0]}, {TNET_ENV[1]}")
    write_dataset_jsonl(Dataset(records=tuple(make_layout_dataset(16, seed=5))), tmp_path / "layout.jsonl")
    argv = ["train-picture-cnn", "--dataset", str(tmp_path / "layout.jsonl"), "--out", str(tmp_path / "p.tnet"),
            "--epochs", "1", "--batch-size", "8", "--learning-rate", "0.01", "--optimizer", optimizer]
    src = str(Path(robophoto.__file__).parents[1])
    subprocess.run(  # a child process, as the BLAS thread count is fixed when numpy loads
        [sys.executable, "-c", "import sys; from robophoto.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env={**os.environ, **ONE_THREAD, "PYTHONPATH": src}, check=True, capture_output=True,
    )
    assert hashlib.sha256((tmp_path / "p.tnet").read_bytes()).hexdigest() == TNET_DIGESTS[optimizer]
