"""Reference implementations that tests compare the code in src/ against.

Some sections are verbatim copies of code that src/ has since replaced with a
faster or leaner version; each copy keeps the old behaviour as the oracle of the new.
The others are test-only references that the package itself never runs: the
exhaustive selection oracle, random pictures for property tests and the
finite-difference gradient check.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence

import numpy as np

from robophoto import core
from robophoto.composition import SIGNS, PictureScore, Thresholds
from robophoto.core import (
    _COLUMNS,
    _JSONL_ENCODER,
    _RECORD_COLUMNS,
    CATEGORY_ORDER,
    FEATURE_NAMES,
    LIKELIHOOD_LEVELS,
    BoundingBox,
    Dataset,
    FaceObservation,
    Label,
    PictureRecord,
    UnscoredFaceError,
    ValidationError,
    labeled_rows,
)
from robophoto.errors import TrainingDivergedError, checked_number
from robophoto.pgm import PGMError
from robophoto.selection import ScoredPicture
from robophoto.synthetic import _bbox_from_normalized, random_features
from robophoto.tinynet import (
    FORMAT_VERSION,
    LEAKY_SLOPE,
    MAGIC,
    MOMENTUM,
    LayerSpec,
    NetworkModel,
    ShapeError,
    TrainConfig,
    _bce,
    _col2im,
    _im2col,
    _spec_to_dict,
    forward_batch,
    loss_and_gradients,
)

# --- the record reader before one-pass face checks -----------------------------
# core._face_from_dict and _record_from_dict with a checked_number call per value,
# FaceFeatures.__post_init__ with its second round of setattr and _clamp01, pathlib
# crop paths, and face_to_dict with one getattr per feature. The checks the record
# types made when they were built are made here, with core's predicates, once a value.


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, float(v)))


@dataclass(frozen=True)
class FaceFeatures:
    """The 9 scalar inputs to the face quality network.

    Angles are degrees in [-180, 180]; likelihoods and image scores live in
    [0, 1] (clamped at construction).
    """

    roll: float
    pitch: float
    yaw: float
    joy: float
    sorrow: float
    anger: float
    surprise: float
    exposure: float
    blur: float

    def __post_init__(self):
        for name in ("roll", "pitch", "yaw"):
            v = float(getattr(self, name))
            if not -180.0 <= v <= 180.0:  # also false for NaN
                raise ValidationError(f"{name}={v} outside [-180, 180]")
            object.__setattr__(self, name, v)
        for name in ("joy", "sorrow", "anger", "surprise", "exposure", "blur"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"{name} is not finite")
            object.__setattr__(self, name, _clamp01(v))

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in FEATURE_NAMES], dtype=np.float64)


_BAD_INPUT = (LookupError, TypeError, ValueError, OSError)


def _label(value) -> Optional[Label]:
    """An absent, null or "" label means unlabeled; any other value must parse."""
    return None if value is None or value == "" else Label.parse(value)


def _face_from_dict(d: dict, base_dir: Optional[Path], read_crops: bool) -> FaceObservation:
    box = d["bbox"]
    bbox = BoundingBox(
        *(checked_number(box[k], ValidationError, k, integer=True) for k in ("x_tl", "y_tl", "x_br", "y_br"))
    )
    if not core._box_ok(bbox.x_tl, bbox.y_tl, bbox.x_br, bbox.y_br):
        raise ValidationError(f"degenerate bounding box {bbox}")
    raw = d["features"]
    feats = {}
    for name in FEATURE_NAMES:
        v = raw[name]
        if name in ("joy", "sorrow", "anger", "surprise") and isinstance(v, str):
            feats[name] = LIKELIHOOD_LEVELS[v]  # an unknown name raises KeyError, which drops the face
        else:
            feats[name] = checked_number(v, ValidationError, name)
    features = FaceFeatures(**feats)
    image = image_path = None
    path = d.get("face_image_path")
    if path is not None and path != "":  # absent, null or "": no crop; a non-string raises in Path
        p = Path(path)
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        if read_crops:
            image = core._checked_crop(read_pgm(p))
        image_path = os.path.abspath(p)
    label = _label(d.get("label"))
    score = d.get("score")
    if score is not None:
        score = checked_number(score, ValidationError, "score")
        if not core._score_ok(score):
            raise ValidationError(f"face score {score} outside [0, 1]")
    return FaceObservation(
        bbox=bbox,
        features=features,
        face_image=image,
        label=label,
        score=score,
        image_path=image_path,
    )


def _record_from_dict(
    d: dict, base_dir: Optional[Path], read_crops: bool
) -> tuple[PictureRecord, int]:
    """Build a record, dropping its bad faces. Returns (record, n_dropped)."""
    dropped = 0
    faces, face_dicts = [], d.get("faces", [])
    if not isinstance(face_dicts, list):
        raise ValidationError("faces must be a JSON array")
    for fd in face_dicts:
        try:
            faces.append(_face_from_dict(fd, base_dir, read_crops))
        except _BAD_INPUT:
            dropped += 1
    rec = PictureRecord(
        picture_id=d["picture_id"],
        burst_id=d["burst_id"],
        width=checked_number(d["width"], ValidationError, "width", integer=True),
        height=checked_number(d["height"], ValidationError, "height", integer=True),
        faces=tuple(faces),
        label=_label(d.get("label")),
    )
    if not core._size_ok(rec.width, rec.height):
        raise ValidationError(f"degenerate image size {rec.width}x{rec.height}")
    if not (core._is_id(rec.picture_id) and core._is_id(rec.burst_id)):
        raise ValidationError(f"ids must be non-empty strings: {(rec.picture_id, rec.burst_id)}")
    for f in rec.faces:
        if not core._inside(f.bbox.x_br, f.bbox.y_br, rec.width, rec.height):
            raise ValidationError(f"face bbox {f.bbox} outside {rec.width}x{rec.height} image")
    return rec, dropped


def face_to_dict(face: FaceObservation) -> dict:
    d = {
        "bbox": {
            "x_tl": face.bbox.x_tl,
            "y_tl": face.bbox.y_tl,
            "x_br": face.bbox.x_br,
            "y_br": face.bbox.y_br,
        },
        "features": {n: getattr(face.features, n) for n in FEATURE_NAMES},
    }
    if face.label is not None:
        d["label"] = face.label.value
    if face.score is not None:
        d["score"] = face.score
    if face.image_path is not None:
        d["face_image_path"] = face.image_path
    return d


# --- the record writer before rows were built from columns ---------------------
# core.record_to_dict, which write_dataset_jsonl encoded with sorted keys.


def record_to_dict(rec: PictureRecord) -> dict:
    d = {
        "picture_id": rec.picture_id,
        "burst_id": rec.burst_id,
        "width": rec.width,
        "height": rec.height,
        "faces": [face_to_dict(f) for f in rec.faces],
    }
    if rec.label is not None:
        d["label"] = rec.label.value
    return d


# --- the record views before every command read a dataset's columns ------------
# Dataset.records (without its cache), core._views and core.labeled_items: the
# layout CNN, render-abstract, train-face-cnn and face-model scoring read these views.


def records(dataset: Dataset) -> tuple[PictureRecord, ...]:
    # views of checked values: no record type's __post_init__ runs again
    columns = {name: getattr(dataset, name).tolist() for name in _COLUMNS}
    boxes, features = _views(BoundingBox, columns["bbox"]), _views(core.FaceFeatures, columns["features"])
    scores = [None if math.isnan(score) else score for score in columns["score"]]
    faces = _views(FaceObservation, zip(boxes, features, columns["crop"], columns["face_label"], scores,
                                        columns["image_path"]))
    ends = columns["offsets"]
    return tuple(_views(PictureRecord, (
        (*row[:4], tuple(faces[ends[i] : ends[i + 1]]), row[4])
        for i, row in enumerate(zip(*(columns[name] for name in _RECORD_COLUMNS))))))


def _views(cls, rows: Iterable[Sequence]) -> list:
    """An instance of a frozen record type for each row of its field values, with no
    __post_init__. Each instance is given its whole __dict__ at once: twice as fast to
    build as one setattr a field, a little slower to read."""
    new, fields, views = cls.__new__, tuple(cls.__dataclass_fields__), []
    for row in rows:
        views.append(view := new(cls))
        object.__setattr__(view, "__dict__", dict(zip(fields, row)))
    return views


def labeled_items(items: Sequence, what: str) -> tuple[list, np.ndarray]:
    """labeled_rows over items that each carry a label: the kept items and their Good mask."""
    rows, good = labeled_rows([item.label for item in items], what)
    return [items[i] for i in rows], good


# --- the GA fitness reduction before it read the dataset's columns --------------
# threshold_opt._FitnessCache.__init__'s per-picture loop over record objects.


def fitness_cache(pictures: Sequence[PictureRecord], kind: str) -> SimpleNamespace:
    labeled, labels_good = labeled_items(pictures, "pictures")
    self = SimpleNamespace(labels_good=labels_good, n_pictures=len(labeled))
    n = self.n_pictures
    self.xtl_min, self.ytl_min, self.occ_min = np.full((3, n), -np.inf)
    self.xbr_max, self.ybr_max, self.occ_max = np.full((3, n), np.inf)
    depth = max(len(p.faces) for p in labeled) if kind == "heuristic" else 0
    self.ranked, self.fractions = np.full((2, depth, n), -np.inf)
    for i, p in enumerate(labeled):
        if not p.faces:
            continue
        occs = [box_area(f.bbox) / (p.width * p.height) for f in p.faces]
        self.xtl_min[i] = min(f.bbox.x_tl / p.width for f in p.faces)
        self.xbr_max[i] = max(f.bbox.x_br / p.width for f in p.faces)
        self.ytl_min[i] = min(f.bbox.y_tl / p.height for f in p.faces)
        self.ybr_max[i] = max(f.bbox.y_br / p.height for f in p.faces)
        self.occ_min[i], self.occ_max[i] = min(occs), max(occs)
        if kind == "heuristic":
            if any(f.score is None for f in p.faces):
                raise UnscoredFaceError(f"face in {p.picture_id} has no quality score")
            k = len(p.faces)
            self.ranked[:k, i] = sorted((f.score for f in p.faces), reverse=True)
            self.fractions[:k, i] = [j / k for j in range(1, k + 1)]
    # composition.Gate's one table: the six rows in genome order, signed by SIGNS
    self.stats = SIGNS[:, None] * [self.xtl_min, self.xbr_max, self.ytl_min, self.ybr_max, self.occ_min, self.occ_max]
    return self


# --- the per-face scorers before the gate read a dataset's columns --------------
# composition.face_center, center_distance, baseline_gate and the per-face loops of
# baseline_score and heuristic_score, and threshold_opt.accuracy over them.


def face_center(bbox: BoundingBox) -> tuple[float, float]:
    return ((bbox.x_tl + bbox.x_br) / 2.0, (bbox.y_tl + bbox.y_br) / 2.0)


def center_distance(bbox: BoundingBox, width: int, height: int) -> float:
    """Distance of the face center to the image center, normalized so a face
    centered on a corner gives 1."""
    fx, fy = face_center(bbox)
    cx, cy = width / 2.0, height / 2.0
    return math.hypot(fx - cx, fy - cy) / math.hypot(cx, cy)


def box_area(bbox: BoundingBox) -> int:
    return (bbox.x_br - bbox.x_tl) * (bbox.y_br - bbox.y_tl)


def baseline_gate(bbox: BoundingBox, width: int, height: int, t: Thresholds) -> bool:
    """All five position/occupancy inequalities for one face."""
    occ = box_area(bbox) / (width * height)
    return (
        bbox.x_tl / width > t.x_min
        and bbox.x_br / width < t.x_max
        and bbox.y_tl / height > t.y_min
        and bbox.y_br / height < t.y_max
        and t.occ_min < occ < t.occ_max
    )


def reference_baseline_score(picture: PictureRecord, t: Thresholds) -> PictureScore:
    """Sum of (1 - d) over faces; zero when faceless or any face fails the gate."""
    if not picture.faces:
        return PictureScore(False, 0.0)
    total = 0.0
    for f in picture.faces:
        if not baseline_gate(f.bbox, picture.width, picture.height, t):
            return PictureScore(False, 0.0)
        total += 1.0 - center_distance(f.bbox, picture.width, picture.height)
    return PictureScore(True, total)


def reference_heuristic_score(picture: PictureRecord, t: Thresholds) -> PictureScore:
    """Baseline gates plus face-score gates; score is sum of (1 - d) * r."""
    if not picture.faces:
        return PictureScore(False, 0.0)
    good = 0
    for f in picture.faces:
        if f.score is None:
            raise UnscoredFaceError(f"face in {picture.picture_id} has no quality score")
        if not baseline_gate(f.bbox, picture.width, picture.height, t):
            return PictureScore(False, 0.0)
        if f.score > t.r_min:
            good += 1
    # strict ">": a proportion exactly at the floor fails
    if good / len(picture.faces) <= t.p_min:
        return PictureScore(False, 0.0)
    total = sum(
        (1.0 - center_distance(f.bbox, picture.width, picture.height)) * f.score
        for f in picture.faces
    )
    return PictureScore(True, total)


def reference_accuracy(thresholds, pictures: Sequence[PictureRecord]) -> float:
    """Share of labeled pictures that pass the thresholds exactly when labeled Good."""
    kept, good = labeled_items(pictures, "pictures")
    scorer = reference_heuristic_score if thresholds.heuristic else reference_baseline_score
    passed = np.array([scorer(p, thresholds).passed for p in kept])
    return int(np.count_nonzero(passed == good)) / len(kept)


# --- the PGM reader before the one-regex header parse ---------------------------


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PGMError("unexpected end of PGM header")
    return data[start:pos], pos


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _read_token(data, 0)
    if magic != b"P5":
        raise PGMError(f"not a binary PGM file: magic {magic!r}")
    w_tok, pos = _read_token(data, pos)
    h_tok, pos = _read_token(data, pos)
    maxval_tok, pos = _read_token(data, pos)
    if not (w_tok.isdigit() and h_tok.isdigit() and maxval_tok.isdigit()):
        raise PGMError(f"PGM size and maxval must be decimal: {w_tok!r} {h_tok!r} {maxval_tok!r}")
    width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    if width * height == 0 or maxval != 255:
        raise PGMError(f"need a non-empty image and maxval 255, got {width}x{height}/{maxval}")
    pos += 1  # single whitespace after maxval
    pixels = data[pos : pos + width * height]
    if len(pixels) != width * height:
        raise PGMError("truncated PGM pixel data")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).copy()


# --- exhaustive selection: select_best's contract by enumeration ---------------


MAX_ORACLE_CANDIDATES = 20


def selection_oracle(candidates: Sequence[ScoredPicture], quota: int = 8) -> list[str]:
    """Same contract as select_best, recomputed by exhaustive enumeration.

    Per category, rarest first with ties in CATEGORY_ORDER, every feasible subset
    of the pool ranked by (-score, picture_id) is enumerated; the winner maximizes
    subset size, then is lexicographically smallest in rank order. Test-only:
    refuses more than 20 candidates.
    """
    if len(candidates) > MAX_ORACLE_CANDIDATES:
        raise ValueError(f"oracle limited to {MAX_ORACLE_CANDIDATES} candidates")
    used_bursts: set[str] = set()
    picked: list[str] = []
    sizes = {k: sum(c.category is cat for c in candidates) for k, cat in enumerate(CATEGORY_ORDER)}
    for k in sorted(sizes, key=lambda k: (sizes[k], k)):
        pool = [c for c in candidates if c.category is CATEGORY_ORDER[k]]
        pool.sort(key=lambda c: (-c.score, c.picture_id))
        indexed = list(enumerate(pool))
        best: Optional[tuple[int, tuple[int, ...]]] = None
        max_size = min(quota, len(pool))
        for size in range(max_size, -1, -1):
            for combo in itertools.combinations(indexed, size):
                bursts = [c.burst_id for _, c in combo]
                if len(set(bursts)) != size or any(b in used_bursts for b in bursts):
                    continue
                ranks = tuple(i for i, _ in combo)
                if best is None or (-size, ranks) < (-best[0], best[1]):
                    best = (size, ranks)
            if best is not None:
                break
        assert best is not None
        for i in best[1]:
            c = pool[i]
            picked.append(c.picture_id)
            used_bursts.add(c.burst_id)
    return picked


# --- unconstrained random pictures for property tests --------------------------


def make_random_pictures(n_pictures: int, seed: int, with_scores: bool = False) -> list[PictureRecord]:
    """Unconstrained random pictures for property tests."""
    rng = np.random.default_rng(seed)
    width, height = 3000, 2000
    pictures = []
    for i in range(n_pictures):
        n_faces = int(rng.integers(1, 5))
        faces = []
        for _ in range(n_faces):
            x0 = rng.uniform(0.0, 0.8)
            y0 = rng.uniform(0.0, 0.8)
            x1 = rng.uniform(x0 + 0.02, min(x0 + 0.5, 1.0))
            y1 = rng.uniform(y0 + 0.02, min(y0 + 0.5, 1.0))
            faces.append(
                FaceObservation(
                    bbox=_bbox_from_normalized(x0, y0, x1, y1, width, height),
                    features=random_features(rng),
                    score=float(rng.uniform(0, 1)) if with_scores else None,
                )
            )
        pictures.append(
            PictureRecord(
                picture_id=f"rand-{i:05d}",
                burst_id=f"burst-{i // 3:05d}",
                width=width,
                height=height,
                faces=tuple(faces),
                label=Label.GOOD if rng.random() < 0.5 else Label.BAD,
            )
        )
    return pictures


# --- the model writer before it wrote each weight buffer as it is -------------
# tinynet.save_model with two float64 copies of every array: astype, then tobytes.


def save_model(model: NetworkModel, path) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "layers": [_spec_to_dict(s) for s in model.layers],
        "metadata": model.metadata,
        "params": [sorted(w.keys()) for w in model.weights],
        "shapes": [{k: list(w[k].shape) for k in sorted(w.keys())} for w in model.weights],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + str(FORMAT_VERSION).encode("ascii"))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for w in model.weights:
            for key in sorted(w.keys()):
                fh.write(w[key].astype("<f8").tobytes())


# --- training before flat buffers and in-place activations ----------------------
# tinynet's layers, loss_and_gradients and train as they were when every gradient was a
# fresh array, the update stepped one tensor at a time and relu and leaky_relu wrote new
# arrays (leaky_relu through np.where) and kept their input as the cache.


def _layer_forward(idx: int, spec: LayerSpec, params: dict, x: np.ndarray):
    if spec.kind == "dense":
        if x.ndim != 2 or x.shape[1] != spec.in_units:
            raise ShapeError(f"layer {idx} (dense) expected (*, {spec.in_units}), got {x.shape}")
        # one unit: a dot product per row, as BLAS gemv rounds a row by its place in the batch
        out = np.einsum("ij,j->i", x, params["W"][:, 0])[:, None] if spec.out_units == 1 else x @ params["W"]
        return out + params["b"], x
    if spec.kind == "conv2d":
        if x.ndim != 4 or x.shape[1] != spec.in_channels:
            raise ShapeError(
                f"layer {idx} (conv2d) expected (*, {spec.in_channels}, H, W), got {x.shape}"
            )
        cols, geom = _im2col(x, spec)
        out = params["W"].reshape(spec.out_channels, -1) @ cols
        out += params["b"][:, None]
        out_h, out_w, _ = geom
        return out.reshape(x.shape[0], spec.out_channels, out_h, out_w), (x.shape, cols, geom)
    if spec.kind == "relu":
        return np.maximum(x, 0.0), x
    if spec.kind == "leaky_relu":
        return np.where(x > 0, x, LEAKY_SLOPE * x), x
    if spec.kind == "sigmoid":
        with np.errstate(over="ignore"):  # exp(-x) = inf at x < -709 gives the exact 0
            return 1.0 / (1.0 + np.exp(-x)), None  # no cache: backward reads the output, passed as out
    if spec.kind == "flatten":
        return x.reshape(x.shape[0], -1), x.shape
    raise ShapeError(f"layer {idx}: unknown kind {spec.kind!r}")


def _layer_backward(spec: LayerSpec, params: dict, cache, out, dy: np.ndarray, need_dx: bool):
    """(input gradient, weight gradients); a dense or conv layer skips dx unless need_dx."""
    if spec.kind == "dense":
        x = cache
        dx = dy @ params["W"].T if need_dx else None
        return dx, {"W": x.T @ dy, "b": dy.sum(axis=0)}
    if spec.kind == "conv2d":
        x_shape, cols, geom = cache
        dy_mat = dy.reshape(dy.shape[0], spec.out_channels, -1)
        wmat = params["W"].reshape(spec.out_channels, -1)
        dW = np.tensordot(dy_mat, cols, ([0, 2], [0, 2])).reshape(params["W"].shape)
        db = dy_mat.sum(axis=(0, 2))
        dx = _col2im(wmat.T @ dy_mat, x_shape, spec, geom) if need_dx else None
        return dx, {"W": dW, "b": db}
    if spec.kind == "relu":
        return dy * (cache > 0), {}
    if spec.kind == "leaky_relu":
        return np.where(cache > 0, dy, LEAKY_SLOPE * dy), {}
    if spec.kind == "sigmoid":
        return dy * out * (1.0 - out), {}
    if spec.kind == "flatten":
        return dy.reshape(cache), {}
    raise ShapeError(f"unknown kind {spec.kind!r}")


def _forward_all(model: NetworkModel, x: np.ndarray):
    """Batched forward through every layer; returns (outputs per layer, caches)."""
    outs, caches = [], []
    for idx, (spec, params) in enumerate(zip(model.layers, model.weights)):
        x, cache = _layer_forward(idx, spec, params, x)
        outs.append(x)
        caches.append(cache)
    return outs, caches


def reference_loss_and_gradients(model: NetworkModel, x: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy and per-layer weight gradients on a batch.

    The final layer must be a sigmoid: backprop starts from the numerically
    stable (p - y) gradient at its pre-activation. Runs in the weights' dtype;
    the loss is float64, as 1 - _EPS rounds to 1 in float32 (0 * log 0 = NaN).
    """
    if not model.layers or model.layers[-1].kind != "sigmoid":
        raise ShapeError("the last layer must be a sigmoid for the BCE loss")
    dtype = np.result_type(*{v.dtype for w in model.weights for v in w.values()} or {np.float64})
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype).reshape(-1)
    outs, caches = _forward_all(model, x)
    p = outs[-1].reshape(-1)
    loss = float(_bce(np.asarray(p, dtype=np.float64), np.asarray(y, dtype=np.float64)))
    n = len(y)

    grads: list[dict] = [{} for _ in model.layers]
    dy = ((p - y) / n).reshape(outs[-1].shape)
    for idx in range(len(model.layers) - 2, -1, -1):
        spec, params = model.layers[idx], model.weights[idx]
        # nothing consumes the network input's gradient
        dy, grads[idx] = _layer_backward(spec, params, caches[idx], outs[idx], dy, need_dx=idx > 0)
        caches[idx] = outs[idx] = None  # freed once read: a step holds no spent activation
    return loss, grads


def reference_train(model: NetworkModel, xs, ys, config: TrainConfig) -> tuple[NetworkModel, list[float]]:
    """Mini-batch training with BCE loss on input rows xs and their 0/1 (or
    boolean) targets ys, computed in float32. Deterministic for a fixed seed."""
    xs = np.asarray(xs, dtype=np.float32)
    ys = np.asarray(ys, dtype=np.float64)
    if ys.shape != xs.shape[:1] or not np.all((ys == 0.0) | (ys == 1.0)):
        raise ValueError(f"need one 0 or 1 target per input row, got shape {ys.shape}")

    weights = [{k: v.astype(np.float32) for k, v in w.items()} for w in model.weights]
    momentum = config.optimizer == "momentum"  # sgd reads no velocity, so it gets none
    velocity = [{k: np.zeros_like(v) for k, v in w.items()} if momentum else {} for w in weights]
    work = NetworkModel(layers=model.layers, weights=tuple(weights), metadata=model.metadata)
    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    n = len(xs)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = reference_loss_and_gradients(work, xs[idx], ys[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}")
            total += loss * len(idx)
            for layer_w, layer_v, layer_g in zip(weights, velocity, grads):
                for key, g in layer_g.items():
                    # in place, no weight-sized temporaries; the same bits as
                    # v = MOMENTUM * v - lr * g; w += v  (or w -= lr * g)
                    g *= config.learning_rate
                    if momentum:
                        v = layer_v[key]
                        v *= MOMENTUM
                        v -= g
                        layer_w[key] += v
                    else:
                        layer_w[key] -= g
            del grads  # free this step's gradients before the next step makes its own
        history.append(total / n)
    meta = dict(model.metadata)
    meta["epochs_trained"] = meta.get("epochs_trained", 0) + config.epochs
    meta["train_seed"] = config.seed
    del velocity  # the write-back needs only the weights
    for w0, w in zip(model.weights, weights):  # w0 + float64(w32_end - float32(w0)): lr 0 gives w0
        for key in w:
            w[key] -= w0[key].astype(np.float32)
            w[key] = w0[key] + w[key]  # casts the float32 side in chunks, with no float64 temporary
    return replace(work, weights=tuple(weights), metadata=meta), history


# --- the simulator's scans of the course and windows, and its log writer, before
# the cursor, the window breakpoints and the template -----------------------------


def _closest_on_polyline(line: Sequence[tuple[float, float]], px: float, py: float):
    best = line[0]  # kept only when every distance overflows
    best_d = math.inf
    for (x1, y1), (x2, y2) in zip(line, line[1:]):
        vx, vy = x2 - x1, y2 - y1
        L2 = vx * vx + vy * vy
        if L2 == 0:
            qx, qy = x1, y1
        else:
            t = max(0.0, min(1.0, ((px - x1) * vx + (py - y1) * vy) / L2))
            qx, qy = x1 + t * vx, y1 + t * vy
        d = math.hypot(px - qx, py - qy)
        if d < best_d:
            best_d = d
            best = (qx, qy)
    return best


def scan_points(scenario, t: float) -> list[tuple[float, float]]:
    """Simulator._scan_points at time t: the points of every obstacle window covering it."""
    pts: list[tuple[float, float]] = []
    for ob in scenario.obstacles:
        if ob["t_start"] <= t < ob["t_end"]:
            pts.extend(ob["points"])
    return pts


def face_counts(scenario, t: float) -> tuple[int, int, int]:
    """Simulator._face_counts at time t: the counts of the first face window covering it."""
    for window in scenario.camera_faces:
        if window["t_start"] <= t < window["t_end"]:
            return window["counts"]
    return (0, 0, 0)


def write_jsonl(rows: Iterable[dict], path) -> None:
    """Emit one sorted-key JSON object per line (UTF-8, LF)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_JSONL_ENCODER.encode(row) + "\n" for row in rows)


# --- finite-difference gradients: the reference for backprop -------------------


def gradient_check(model: NetworkModel, x: np.ndarray, y: float, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    of the loss on one input x with 0/1 target y.

    The finite differences run in extended precision so that round-off in the
    loss difference stays below the comparison tolerance even for parameters
    with very small gradients.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-3]")
    x = np.asarray(x, dtype=np.float64)[None, ...]
    y = np.array([float(y)])
    _, grads = loss_and_gradients(model, x, y)

    xl = x.astype(np.longdouble)
    yl = y.astype(np.longdouble)
    eps = np.longdouble(epsilon)
    weights = [
        {k: v.astype(np.longdouble) for k, v in w.items()} for w in model.weights
    ]
    probe = NetworkModel(layers=model.layers, weights=tuple(weights))

    max_err = 0.0
    for layer_idx, layer_w in enumerate(weights):
        for key, arr in layer_w.items():
            flat = arr.reshape(-1)
            g_analytic = grads[layer_idx][key].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = _bce(forward_batch(probe, xl), yl)
                flat[i] = orig - eps
                lm = _bce(forward_batch(probe, xl), yl)
                flat[i] = orig
                g_num = float((lp - lm) / (2.0 * eps))
                denom = max(abs(g_analytic[i]), abs(g_num), 1e-12)
                err = abs(g_analytic[i] - g_num) / denom
                if abs(g_analytic[i]) < 1e-10 and abs(g_num) < 1e-10:
                    err = abs(g_analytic[i] - g_num)  # both ~0: absolute scale
                max_err = max(max_err, err)
    return max_err
