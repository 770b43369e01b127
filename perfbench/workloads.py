"""The benchmark's three workloads and the output checks of their stages.

Each workload generates its inputs from the seed in ``setup`` (untimed, but
counted in ``setup_s``) and then runs one *pass* of real CLI stages per
``run_pass`` call, in process through ``robophoto.cli.main``. Every stage
execution is one operation; it fails on a nonzero exit code, an exception,
or a failed output check. Checks run between stages, outside the timed
region and outside any span.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import statistics
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from robophoto import cli, tinynet
from robophoto.abstraction import build_picture_cnn, classify_picture, image_to_input, render_abstract
from robophoto.behavior_sim import PictureTakingParams
from robophoto.core import Dataset, Label, face_to_dict, write_dataset_jsonl
from robophoto.face_quality import (
    build_face_ann,
    build_face_cnn,
    evaluate_face_model,
    preprocess_face,
    standardize_features,
)
from robophoto.pgm import write_pgm
from robophoto.synthetic import make_face_feature_dataset, make_layout_dataset, make_threshold_dataset

# Floors for the output checks. The heuristic GA fits heuristic labels
# exactly on every seed tried; the baseline GA cannot see face scores, so
# about a fifth of the pictures stay out of its reach. Faces are ~97% Bad
# under the synthetic rule, so a face MLP below 0.9 is broken, not unlucky.
GA_FLOORS = {"baseline": 0.7, "heuristic": 0.95}
FACE_ANN_FLOOR = 0.9

_GA_LINE = re.compile(r"best training accuracy ([0-9.]+) over (\d+) evaluations")
_LOSS_LINE = re.compile(r"final loss (\S+) after (\d+) epochs")


@dataclass
class Op:
    """One stage execution: its result, captured output and failed checks."""

    stage: str
    result: object = None
    stdout: str = ""
    stderr: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(f"{self.stage}: {message}")
        return ok


class Runner:
    """Runs the stages of one pass in order and times each one.

    With a tracer, each stage runs inside a ``stage.<name>`` span, so the
    wrapped library calls it makes become that span's children. A stage run
    more than once in a pass is timed by the median of its runs.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stage_s: dict[str, float] = {}
        # the reference kernel's time per call around each stage
        self.ref_s: dict[str, float] = {}
        self.ops: list[Op] = []
        self._runs: dict[str, list[tuple[float, float]]] = {}

    def cli(self, stage: str, argv: list[str]) -> Op:
        op = self.call(stage, cli.main, [str(a) for a in argv])
        if op.ok:
            op.check(op.result == cli.EXIT_OK, f"exit code {op.result}: {op.stderr[-500:]}")
        return op

    def call(self, stage: str, fn: Callable, *args) -> Op:
        op = Op(stage)
        self.ops.append(op)
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"stage.{stage}") if self.tracer else nullcontext()
        ref_before = reference.measure()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                with span:
                    op.result = fn(*args)
            except Exception:
                op.check(False, traceback.format_exc(limit=4))
            elapsed = time.perf_counter() - t0
        runs = self._runs.setdefault(stage, [])
        runs.append((elapsed, (ref_before + reference.measure()) / 2))
        self.stage_s[stage] = statistics.median(t for t, _ in runs)
        self.ref_s[stage] = statistics.median(r for _, r in runs)
        op.stdout, op.stderr = out.getvalue(), err.getvalue()
        return op


def _bce(p: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def initial_loss(model: tinynet.NetworkModel, xs: np.ndarray, ys: np.ndarray) -> float:
    """Mean BCE of an untrained model: the value a training run must beat."""
    p = np.concatenate([tinynet.forward_batch(model, xs[i : i + 64]) for i in range(0, len(xs), 64)])
    return _bce(p, ys)


def _labels(records) -> np.ndarray:
    return np.array([1.0 if r.label is Label.GOOD else 0.0 for r in records])


class Workload:
    """Shared pass bookkeeping: output digests, line counts and the loss check."""

    name = ""
    FULL: dict = {}
    SMOKE: dict = {}
    # end-to-end phase metric -> the stages whose times add up to it
    groups: dict[str, tuple[str, ...]] = {}
    # the finer stage metrics run.py prints beside the end-to-end ones
    units: dict[str, str] = {}

    def __init__(self, work_dir: Path, seed: int, smoke: bool):
        self.dir = work_dir
        self.seed = seed
        self.sizes = dict(self.SMOKE if smoke else self.FULL)
        self._digests: dict[str, str] = {}

    def repeatable(self, op: Op, key: str, data: bytes) -> None:
        """The artifact must be byte-identical to the first pass's."""
        digest = hashlib.sha256(data).hexdigest()
        first = self._digests.setdefault(key, digest)
        op.check(digest == first, f"{key} differs from the first pass")

    def repeatable_files(self, op: Op, *names: str) -> None:
        for name in names:
            self.repeatable(op, name, (self.dir / name).read_bytes())

    def lines(self, name: str) -> int:
        with open(self.dir / name, "rb") as fh:
            return sum(1 for _ in fh)

    def check_loss(self, op: Op, start_loss: float, epochs: int) -> None:
        m = _LOSS_LINE.search(op.stdout)
        if op.check(m is not None, "no final loss printed"):
            final = float(m.group(1))
            op.check(int(m.group(2)) == epochs, f"trained {m.group(2)} epochs, asked {epochs}")
            op.check(
                math.isfinite(final) and final < start_loss,
                f"final loss {final} not below the untrained loss {start_loss:.6f}",
            )

    def pass_metrics(self, t: dict[str, float]) -> dict[str, float]:
        out = {name: sum(t[s] for s in stages) for name, stages in self.groups.items()}
        out["run_s"] = sum(t.values())
        return out


# --- event_pipeline -----------------------------------------------------------

SIM_DT = 0.1
SIM_SEGMENT_M = 20.0
SIM_PERIOD_S = 25.0


def make_scenario(steps: int, seed: int) -> dict:
    """A zigzag course with one face window every 25 s on a random camera,
    and an obstacle after about half of them.

    Each window lasts 2 s, long enough for the 7-of-10 vote, and the
    rotate/burst/pause cycle it triggers ends within 18 s, before the
    obstacle and the next window. So every window triggers exactly one cycle.
    """
    rng = np.random.default_rng(seed)
    n_segments = int(steps * SIM_DT * 0.3 / SIM_SEGMENT_M) + 2
    line = [(0.0, 0.0)]
    heading = 0.0
    for i in range(n_segments):
        heading += math.radians(rng.uniform(10.0, 20.0)) * (1 if i % 2 == 0 else -1)
        x, y = line[-1]
        line.append(
            (round(x + SIM_SEGMENT_M * math.cos(heading), 6),
             round(y + SIM_SEGMENT_M * math.sin(heading), 6))
        )
    windows, obstacles = [], []
    t = 5.0
    while t + SIM_PERIOD_S <= steps * SIM_DT:
        start = round(t + rng.uniform(0.0, 2.0), 1)
        counts = [0, 0, 0]
        counts[int(rng.integers(0, 3))] = int(rng.integers(2, 5))
        windows.append({"t_start": start, "t_end": round(start + 2.0, 1), "counts": counts})
        if rng.random() < 0.5:
            obstacles.append(
                {"t_start": t + 18.0, "t_end": t + 20.0, "points": [[0.4, 1.0]] * 12}
            )
        t += SIM_PERIOD_S
    return {
        "dt": SIM_DT,
        "steps": steps,
        "line": line,
        "start_pose": [0.0, 0.0, 0.0],
        "obstacles": obstacles,
        "camera_faces": windows,
    }


class EventPipeline(Workload):
    name = "event_pipeline"
    FULL = {"pictures": 1000, "sim_steps": 4000, "population": 64, "generations": 100}
    SMOKE = {"pictures": 60, "sim_steps": 300, "population": 16, "generations": 20}
    groups = {
        "ingest_s": ("ingest",),
        "fit_s": ("optimize-baseline", "optimize-heuristic"),
        "score_s": ("evaluate", "select"),
    }
    units = {
        "simulate_steps_per_s": "1/s",
        "split_s": "s",
        "fit_thresholds_s": "s",
        "evaluate_s": "s",
        "select_s": "s",
        "pipeline_pictures_per_s": "1/s",
    }

    def setup(self) -> None:
        n = self.sizes["pictures"]
        pictures = make_threshold_dataset(n, seed=self.seed, kind="heuristic")
        write_dataset_jsonl(Dataset(records=tuple(pictures)), self.dir / "event.jsonl")
        tinynet.save_model(build_picture_cnn(seed=self.seed), self.dir / "picture.tnet")
        scenario = make_scenario(self.sizes["sim_steps"], self.seed)
        (self.dir / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
        self.expected_cycles = len(scenario["camera_faces"])

    def run_pass(self, run: Runner) -> None:
        d = self.dir
        op = run.cli("simulate", ["simulate", "--scenario", d / "scenario.json", "--out", d / "events.jsonl"])
        if op.ok:
            self.repeatable_files(op, "events.jsonl")
            self._check_shutters(op)

        op = run.cli("ingest", ["ingest", "--dataset", d / "event.jsonl", "--out", d / "clean.jsonl"])
        if op.ok:
            self.repeatable_files(op, "clean.jsonl")
            op.check(self.lines("clean.jsonl") == self.sizes["pictures"], "records dropped")

        op = run.cli("split", ["split", "--dataset", d / "clean.jsonl", "--out-dir", d / "splits"])
        if op.ok:
            parts = ("splits/train.jsonl", "splits/test.jsonl", "splits/validation.jsonl")
            self.repeatable_files(op, *parts)
            op.check(sum(self.lines(p) for p in parts) == self.sizes["pictures"], "split lost records")

        for kind in ("baseline", "heuristic"):
            op = run.cli(
                f"optimize-{kind}",
                ["optimize-thresholds", "--dataset", d / "splits/train.jsonl", "--kind", kind,
                 "--out", d / f"{kind}.json", "--population", self.sizes["population"],
                 "--generations", self.sizes["generations"]],
            )
            if op.ok:
                self.repeatable_files(op, f"{kind}.json")
                m = _GA_LINE.search(op.stdout)
                if op.check(m is not None, "no GA summary printed"):
                    acc = float(m.group(1))
                    op.check(acc >= GA_FLOORS[kind], f"best_accuracy {acc} below {GA_FLOORS[kind]}")

        common = [
            "--dataset", d / "splits/test.jsonl",
            "--baseline-thresholds", d / "baseline.json",
            "--heuristic-thresholds", d / "heuristic.json",
            "--picture-model", d / "picture.tnet",
        ]
        op = run.cli("evaluate", ["evaluate", *common, "--out", d / "report.json"])
        if op.ok:
            self.repeatable_files(op, "report.json")
            report = json.loads((d / "report.json").read_text())
            op.check(report["n_pictures"] == self.lines("splits/test.jsonl"), "report misses pictures")
        op = run.cli("select", ["select", *common, "--out", d / "selection.json"])
        if op.ok:
            self.repeatable_files(op, "selection.json")
            selection = json.loads((d / "selection.json").read_text())
            op.check(len(selection["selections"]) > 0, "nothing selected")

    def _check_shutters(self, op: Op) -> None:
        states, shutters = [], 0
        with open(self.dir / "events.jsonl", encoding="utf-8") as fh:
            for line in fh:
                entry = json.loads(line)
                states.append(entry["state"])
                shutters += entry["event"] == "shutter"
        cycles = sum(
            1 for prev, cur in zip([None] + states, states)
            if cur == "rotate_to_subject" and prev != cur
        )
        op.check(cycles == self.expected_cycles, f"{cycles} rotate cycles, scenario has {self.expected_cycles}")
        n_burst = PictureTakingParams().n_burst
        op.check(shutters == n_burst * cycles, f"{shutters} shutters for {cycles} cycles")

    def pass_metrics(self, t: dict[str, float]) -> dict[str, float]:
        out = super().pass_metrics(t)
        pipeline = ("ingest", "split", "optimize-baseline", "optimize-heuristic", "evaluate", "select")
        out.update(
            simulate_steps_per_s=self.sizes["sim_steps"] / t["simulate"],
            split_s=t["split"],
            fit_thresholds_s=t["optimize-baseline"] + t["optimize-heuristic"],
            evaluate_s=t["evaluate"],
            select_s=t["select"],
            pipeline_pictures_per_s=self.sizes["pictures"] / sum(t[s] for s in pipeline),
        )
        return out


# --- layout_training ----------------------------------------------------------


class LayoutTraining(Workload):
    name = "layout_training"
    # ingest of 192 records takes about 30 ms, short enough for one busy
    # moment on a shared machine to move it by half; it runs three times a pass
    FULL = {"pictures": 192, "heldout": 128, "epochs": 2, "batch_size": 32, "ingest_runs": 3}
    SMOKE = {"pictures": 32, "heldout": 8, "epochs": 2, "batch_size": 8, "ingest_runs": 2}
    TRAIN_FLAGS = ["--optimizer", "momentum", "--learning-rate", "0.01", "--seed", "0"]
    groups = {"ingest_s": ("ingest",), "fit_s": ("train",), "score_s": ("score",)}
    units = {"layout_train_samples_per_s": "1/s"}

    def setup(self) -> None:
        n = self.sizes["pictures"]
        pictures = make_layout_dataset(n + self.sizes["heldout"], seed=self.seed)
        train, self.heldout = pictures[:n], pictures[n:]
        write_dataset_jsonl(Dataset(records=tuple(train)), self.dir / "layout.jsonl")
        xs = np.stack([image_to_input(render_abstract(p)) for p in train])
        self.start_loss = initial_loss(build_picture_cnn(seed=0), xs, _labels(train))

    def _score(self) -> np.ndarray:
        model = tinynet.load_model(self.dir / "picture.tnet")
        return np.array([classify_picture(model, render_abstract(p)) for p in self.heldout])

    def run_pass(self, run: Runner) -> None:
        d, s = self.dir, self.sizes
        for _ in range(s["ingest_runs"]):
            op = run.cli("ingest", ["ingest", "--dataset", d / "layout.jsonl", "--out", d / "clean.jsonl"])
            if op.ok:
                self.repeatable_files(op, "clean.jsonl")
                op.check(self.lines("clean.jsonl") == s["pictures"], "records dropped")

        op = run.cli(
            "train",
            ["train-picture-cnn", "--dataset", d / "clean.jsonl", "--out", d / "picture.tnet",
             "--epochs", s["epochs"], "--batch-size", s["batch_size"], *self.TRAIN_FLAGS],
        )
        if op.ok:
            self.repeatable_files(op, "picture.tnet")
            self.check_loss(op, self.start_loss, s["epochs"])

        op = run.call("score", self._score)
        if op.ok:
            scores = op.result
            op.check(bool(np.all((scores >= 0.0) & (scores <= 1.0))), "score outside [0, 1]")
            self.repeatable(op, "heldout scores", scores.tobytes())

    def pass_metrics(self, t: dict[str, float]) -> dict[str, float]:
        out = super().pass_metrics(t)
        samples = self.sizes["pictures"] * self.sizes["epochs"]
        out["layout_train_samples_per_s"] = samples / t["train"]
        return out


# --- face_models --------------------------------------------------------------

CROP_H, CROP_W = 60, 80
# Distinct crop files; record i links crop i mod CROP_FILES, so the CNN's
# first cnn_faces (<= CROP_FILES) records train on their own crops. Creating a file
# costs about 0.45 ms on the ext4 volume the benchmark was tuned on, with a
# wide spread, so 2000 distinct files would make setup_s mostly file-system
# noise. Ingest still opens and reads one PGM per record.
CROP_FILES = 128


def face_crops(faces, rng: np.random.Generator) -> np.ndarray:
    """60x80 grayscale crops: noise, a face block that shifts with yaw and a
    mouth whose brightness follows joy, so the crop carries the label signal."""
    images = rng.integers(30, 90, size=(len(faces), CROP_H, CROP_W)).astype(np.int16)
    for img, f in zip(images, faces):
        cx = int(round(CROP_W / 2 + f.features.yaw / 90.0 * 20))
        img[8:52, cx - 16 : cx + 16] += 70
        img[38:44, cx - 8 : cx + 8] = int(100 + 150 * f.features.joy * (1.0 - f.features.blur))
    return np.clip(images, 0, 255).astype(np.uint8)


class FaceModels(Workload):
    name = "face_models"
    FULL = {
        "faces": 2000, "ann_epochs": 10, "cnn_faces": 16, "cnn_epochs": 2, "cnn_batch_size": 16,
        "heldout": 400, "heldout_cnn": 16,
    }
    SMOKE = {
        "faces": 256, "ann_epochs": 5, "cnn_faces": 4, "cnn_epochs": 2, "cnn_batch_size": 4,
        "heldout": 32, "heldout_cnn": 4,
    }
    TRAIN_FLAGS = ["--optimizer", "momentum", "--learning-rate", "0.01", "--seed", "0"]
    groups = {"ingest_s": ("ingest",), "fit_s": ("train-ann", "train-cnn"), "score_s": ("score",)}
    units = {
        "face_ann_train_samples_per_s": "1/s",
        "face_cnn_train_samples_per_s": "1/s",
        "face_score_faces_per_s": "1/s",
    }

    def setup(self) -> None:
        s = self.sizes
        n = s["faces"]
        rng = np.random.default_rng(self.seed)
        faces = make_face_feature_dataset(n + s["heldout"], seed=self.seed)
        crops = face_crops(faces, rng)
        (self.dir / "crops").mkdir()
        for i, crop in enumerate(crops[:CROP_FILES]):
            write_pgm(crop, self.dir / f"crops/{i:05d}.pgm")
        records = [
            {
                "picture_id": f"face-{i:05d}",
                "burst_id": f"burst-{i:05d}",
                "width": 100,
                "height": 100,
                "faces": [{**face_to_dict(face), "face_image_path": f"crops/{i % CROP_FILES:05d}.pgm"}],
            }
            for i, face in enumerate(faces[:n])
        ]
        for name, subset in (("faces.jsonl", records), ("cnn.jsonl", records[: s["cnn_faces"]])):
            with open(self.dir / name, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in subset)
        self.heldout = [replace(f, face_image=c) for f, c in zip(faces[n:], crops[n:])]

        vectors = np.stack([f.features.as_vector() for f in faces[:n]])
        mean, std = standardize_features(vectors)
        ys = _labels(faces[:n])
        self.ann_start_loss = initial_loss(build_face_ann(seed=0), (vectors - mean) / std, ys)
        m = s["cnn_faces"]
        xs = np.stack([preprocess_face(c) for c in crops[:m]])
        self.cnn_start_loss = initial_loss(build_face_cnn(seed=0), xs, ys[:m])

    def _score(self) -> tuple[float, float]:
        ann = tinynet.load_model(self.dir / "face_ann.tnet")
        cnn = tinynet.load_model(self.dir / "face_cnn.tnet")
        return (
            evaluate_face_model(ann, self.heldout),
            evaluate_face_model(cnn, self.heldout[: self.sizes["heldout_cnn"]]),
        )

    def run_pass(self, run: Runner) -> None:
        d, s = self.dir, self.sizes
        op = run.cli("ingest", ["ingest", "--dataset", d / "faces.jsonl", "--out", d / "clean.jsonl"])
        if op.ok:
            self.repeatable_files(op, "clean.jsonl")
            op.check(self.lines("clean.jsonl") == s["faces"], "records dropped")

        op = run.cli(
            "train-ann",
            ["train-face-ann", "--dataset", d / "clean.jsonl", "--out", d / "face_ann.tnet",
             "--epochs", s["ann_epochs"], *self.TRAIN_FLAGS],
        )
        if op.ok:
            self.repeatable_files(op, "face_ann.tnet")
            self.check_loss(op, self.ann_start_loss, s["ann_epochs"])

        op = run.cli(
            "train-cnn",
            ["train-face-cnn", "--dataset", d / "cnn.jsonl", "--out", d / "face_cnn.tnet",
             "--epochs", s["cnn_epochs"], "--batch-size", s["cnn_batch_size"], *self.TRAIN_FLAGS],
        )
        if op.ok:
            self.repeatable_files(op, "face_cnn.tnet")
            self.check_loss(op, self.cnn_start_loss, s["cnn_epochs"])

        op = run.call("score", self._score)
        if op.ok:
            ann_acc, _ = op.result
            op.check(ann_acc >= FACE_ANN_FLOOR, f"face MLP held-out accuracy {ann_acc} below {FACE_ANN_FLOOR}")
            self.repeatable(op, "held-out accuracies", repr(op.result).encode())

    def pass_metrics(self, t: dict[str, float]) -> dict[str, float]:
        out = super().pass_metrics(t)
        s = self.sizes
        out.update(
            face_ann_train_samples_per_s=s["faces"] * s["ann_epochs"] / t["train-ann"],
            face_cnn_train_samples_per_s=s["cnn_faces"] * s["cnn_epochs"] / t["train-cnn"],
            face_score_faces_per_s=(s["heldout"] + s["heldout_cnn"]) / t["score"],
        )
        return out


WORKLOADS = {w.name: w for w in (EventPipeline, LayoutTraining, FaceModels)}
