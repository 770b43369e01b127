"""A tiny dense/convolutional network engine in numpy.

Sized for three small architectures: a 9-feature MLP, a face-crop CNN and a
layout CNN. Double precision throughout so finite-difference gradient checks
are meaningful. Models are immutable values: forward never mutates, train
returns a new model.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DatasetError, TrainingDivergedError, UsageError, checked_number

MAGIC = b"TNET"
FORMAT_VERSION = 1
# a header may hold more keys (save_model adds format_version), never fewer
HEADER_TYPES = {"layers": list, "metadata": dict, "params": list, "shapes": list}


class ModelFormatError(DatasetError):
    pass


class UnsupportedVersionError(ModelFormatError):
    pass


class ShapeError(ModelFormatError):  # a model that does not fit its input is a bad model file
    pass


LAYER_KINDS = ("dense", "conv2d", "relu", "leaky_relu", "sigmoid", "flatten")


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # one of LAYER_KINDS
    in_units: int = 0
    out_units: int = 0
    in_channels: int = 0
    out_channels: int = 0
    filter_h: int = 0
    filter_w: int = 0
    stride: int = 1
    padding: str = "valid"  # conv2d only: valid | same

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        for k, f in self.__dataclass_fields__.items():
            if f.type == "int":
                checked_number(getattr(self, k), ShapeError, f"layer {k}", integer=True)
        if self.kind == "dense" and (self.in_units <= 0 or self.out_units <= 0):
            raise ShapeError(f"dense layer needs positive unit counts: {self}")
        if self.kind == "conv2d":
            if min(self.in_channels, self.out_channels, self.filter_h, self.filter_w) <= 0:
                raise ShapeError(f"conv2d layer needs positive dims: {self}")
            if self.stride < 1:
                raise ShapeError(f"conv2d stride must be >= 1: {self}")
            if self.padding not in ("valid", "same"):
                raise ShapeError(f"unknown padding {self.padding!r}")


def dense(in_units: int, out_units: int) -> LayerSpec:
    return LayerSpec(kind="dense", in_units=in_units, out_units=out_units)


def conv2d(in_channels, out_channels, filter_h, filter_w, stride=1, padding="valid") -> LayerSpec:
    return LayerSpec(
        kind="conv2d",
        in_channels=in_channels,
        out_channels=out_channels,
        filter_h=filter_h,
        filter_w=filter_w,
        stride=stride,
        padding=padding,
    )


def relu() -> LayerSpec:
    return LayerSpec(kind="relu")


def leaky_relu() -> LayerSpec:
    return LayerSpec(kind="leaky_relu")


def sigmoid() -> LayerSpec:
    return LayerSpec(kind="sigmoid")


def flatten() -> LayerSpec:
    return LayerSpec(kind="flatten")


LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class NetworkModel:
    layers: tuple[LayerSpec, ...]
    weights: tuple[dict, ...]  # per-layer {"W": ..., "b": ...} or {}
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.layers) != len(self.weights):
            raise ShapeError("one weight dict per layer required")


MOMENTUM = 0.9
OPTIMIZERS = ("sgd", "momentum")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 0.05
    optimizer: str = "sgd"  # one of OPTIMIZERS
    seed: int = 0

    def __post_init__(self):
        checked_number(self.learning_rate, UsageError, "learning_rate")
        if self.epochs < 1 or self.batch_size < 1 or self.learning_rate < 0:
            raise UsageError(f"invalid training config {self}")
        if self.optimizer not in OPTIMIZERS:
            raise UsageError(f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZERS}")


def _param_shapes(spec: LayerSpec) -> dict:
    """Shape of each parameter array a layer of this spec holds."""
    if spec.kind == "dense":
        return {"W": (spec.in_units, spec.out_units), "b": (spec.out_units,)}
    if spec.kind == "conv2d":
        return {
            "W": (spec.out_channels, spec.in_channels, spec.filter_h, spec.filter_w),
            "b": (spec.out_channels,),
        }
    return {}


def _init_layer(spec: LayerSpec, rng: np.random.Generator) -> dict:
    shapes = _param_shapes(spec)
    if not shapes:
        return {}
    # Glorot uniform: W is (in, out) or (out, in, fh, fw), so fan_in + fan_out
    # is the sum of its first two sides times the filter area
    w = shapes["W"]
    limit = np.sqrt(6.0 / ((w[0] + w[1]) * int(np.prod(w[2:]))))
    return {"W": rng.uniform(-limit, limit, size=w), "b": np.zeros(shapes["b"])}


def build_model(layers: Sequence[LayerSpec], seed: int = 0, metadata: Optional[dict] = None) -> NetworkModel:
    rng = np.random.default_rng(seed)
    weights = tuple(_init_layer(spec, rng) for spec in layers)
    meta = dict(metadata or {})
    meta.setdefault("init_seed", seed)
    return NetworkModel(layers=tuple(layers), weights=weights, metadata=meta)


def _conv_geometry(h: int, w: int, spec: LayerSpec):
    """Output size and (top, bottom, left, right) padding for one conv layer."""
    s, fh, fw = spec.stride, spec.filter_h, spec.filter_w
    if spec.padding == "same":
        out_h = -(-h // s)
        out_w = -(-w // s)
        pad_h = max((out_h - 1) * s + fh - h, 0)
        pad_w = max((out_w - 1) * s + fw - w, 0)
        pads = (pad_h // 2, pad_h - pad_h // 2, pad_w // 2, pad_w - pad_w // 2)
    else:
        if h < fh or w < fw:
            raise ShapeError(f"input {h}x{w} smaller than filter {fh}x{fw}")
        out_h = (h - fh) // s + 1
        out_w = (w - fw) // s + 1
        pads = (0, 0, 0, 0)
    return out_h, out_w, pads


def conv_output_shape(in_shape: tuple[int, int, int], spec: LayerSpec) -> tuple[int, int, int]:
    c, h, w = in_shape
    if c != spec.in_channels:
        raise ShapeError(f"expected {spec.in_channels} channels, got {c}")
    out_h, out_w, _ = _conv_geometry(h, w, spec)
    return (spec.out_channels, out_h, out_w)


def _im2col(x: np.ndarray, spec: LayerSpec):
    """Patches of x as (n, c*fh*fw, out_h*out_w), rows ordered like W's (c, fh, fw)."""
    n, c, h, w = x.shape
    out_h, out_w, (pt, pb, pl, pr) = _conv_geometry(h, w, spec)
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    s, fh, fw = spec.stride, spec.filter_h, spec.filter_w
    win = sliding_window_view(x, (fh, fw), axis=(2, 3))[:, :, : s * out_h : s, : s * out_w : s]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * fh * fw, out_h * out_w)
    return cols, (out_h, out_w, (pt, pb, pl, pr))


def _col2im(dcols: np.ndarray, x_shape, spec: LayerSpec, geom):
    n, c, h, w = x_shape
    out_h, out_w, (pt, pb, pl, pr) = geom
    s, fh, fw = spec.stride, spec.filter_h, spec.filter_w
    dcols = dcols.reshape(n, c, fh, fw, out_h, out_w)
    dx = np.zeros((n, c, h + pt + pb, w + pl + pr))
    for i in range(fh):
        for j in range(fw):
            dx[:, :, i : i + s * out_h : s, j : j + s * out_w : s] += dcols[:, :, i, j]
    return dx[:, :, pt : pt + h, pl : pl + w]


def _layer_forward(idx: int, spec: LayerSpec, params: dict, x: np.ndarray):
    if spec.kind == "dense":
        if x.ndim != 2 or x.shape[1] != spec.in_units:
            raise ShapeError(f"layer {idx} (dense) expected (*, {spec.in_units}), got {x.shape}")
        return x @ params["W"] + params["b"], x
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
            return 1.0 / (1.0 + np.exp(-x)), None  # cache is the output, filled by caller
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
        return dy * np.where(cache > 0, 1.0, LEAKY_SLOPE), {}
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


def forward_batch(model: NetworkModel, x: np.ndarray) -> np.ndarray:
    """One scalar output per input row, keeping only the live activation.
    Floating input keeps its precision; anything else runs in float64."""
    x = np.asarray(x)
    out = x.astype(np.result_type(x.dtype, np.float64), copy=False)
    for idx, (spec, params) in enumerate(zip(model.layers, model.weights)):
        out, _ = _layer_forward(idx, spec, params, out)
    if out.shape != (len(x), 1):
        raise ShapeError(f"expected one scalar output per input, got shape {out.shape}")
    return out[:, 0]


def forward(model: NetworkModel, x: np.ndarray) -> float:
    """Run one input through the network; returns the scalar sigmoid output."""
    return float(forward_batch(model, np.asarray(x)[None])[0])


SCORE_BATCH = 32


def forward_many(model: NetworkModel, inputs: Iterable[np.ndarray]) -> np.ndarray:
    """Outputs for an iterable of single inputs, stacked SCORE_BATCH at a time
    so a whole dataset is never held as one array."""
    it = iter(inputs)
    chunks = [np.empty(0)]
    while chunk := list(itertools.islice(it, SCORE_BATCH)):
        chunks.append(forward_batch(model, np.stack(chunk)))
    return np.concatenate(chunks)


_EPS = 1e-12


def _bce(p: np.ndarray, y: np.ndarray) -> np.floating:
    """Mean binary cross-entropy in the precision of p and y."""
    p = np.clip(p, _EPS, 1.0 - _EPS)
    return -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def loss_and_gradients(model: NetworkModel, x: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy and per-layer weight gradients on a batch.

    The final layer must be a sigmoid: backprop starts from the numerically
    stable (p - y) gradient at its pre-activation.
    """
    if not model.layers or model.layers[-1].kind != "sigmoid":
        raise ShapeError("the last layer must be a sigmoid for the BCE loss")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    outs, caches = _forward_all(model, x)
    p = outs[-1].reshape(-1)
    loss = float(_bce(p, y))
    n = len(y)

    grads: list[dict] = [{} for _ in model.layers]
    dy = ((p - y) / n).reshape(outs[-1].shape)
    for idx in range(len(model.layers) - 2, -1, -1):
        spec, params = model.layers[idx], model.weights[idx]
        # nothing consumes the network input's gradient
        dy, g = _layer_backward(spec, params, caches[idx], outs[idx], dy, need_dx=idx > 0)
        grads[idx] = g
    return loss, grads


def train(model: NetworkModel, xs, ys, config: TrainConfig) -> tuple[NetworkModel, list[float]]:
    """Mini-batch training with BCE loss on input rows xs and their 0/1 (or
    boolean) targets ys. Deterministic for a fixed seed."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if ys.shape != xs.shape[:1] or not np.all((ys == 0.0) | (ys == 1.0)):
        raise ValueError(f"need one 0 or 1 target per input row, got shape {ys.shape}")

    weights = [{k: v.copy() for k, v in w.items()} for w in model.weights]
    velocity = [{k: np.zeros_like(v) for k, v in w.items()} for w in weights]
    work = NetworkModel(layers=model.layers, weights=tuple(weights), metadata=model.metadata)
    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    n = len(xs)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = loss_and_gradients(work, xs[idx], ys[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}")
            total += loss * len(idx)
            for layer_w, layer_v, layer_g in zip(weights, velocity, grads):
                for key, g in layer_g.items():
                    # in place, no weight-sized temporaries; the same bits as
                    # v = MOMENTUM * v - lr * g; w += v  (or w -= lr * g)
                    g *= config.learning_rate
                    if config.optimizer == "momentum":
                        v = layer_v[key]
                        v *= MOMENTUM
                        v -= g
                        layer_w[key] += v
                    else:
                        layer_w[key] -= g
        history.append(total / n)
    meta = dict(model.metadata)
    meta["epochs_trained"] = meta.get("epochs_trained", 0) + config.epochs
    meta["train_seed"] = config.seed
    return replace(work, metadata=meta), history


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


def _spec_to_dict(spec: LayerSpec) -> dict:
    return {k: getattr(spec, k) for k in LayerSpec.__dataclass_fields__}


def _spec_from_dict(d) -> LayerSpec:
    fields = LayerSpec.__dataclass_fields__
    if not isinstance(d, dict) or d.keys() != fields.keys():
        raise ModelFormatError(f"layer spec {d!r} must hold exactly the keys {sorted(fields)}")
    return LayerSpec(**d)  # a bad value raises ShapeError, a ModelFormatError


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


def _read_exact(fh, n: int, what: str) -> bytes:
    """n bytes from fh; a file holding fewer raises before n bytes are allocated."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ModelFormatError(f"truncated {what}")
    return fh.read(n)


def load_model(path) -> NetworkModel:
    """Read a model file; its weights are read-only arrays over the bytes read."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC) + 1)
        if magic[: len(MAGIC)] != MAGIC:
            raise ModelFormatError(f"bad magic {magic!r}")
        try:
            version = int(magic[len(MAGIC) :])
        except ValueError:
            raise ModelFormatError(f"bad version marker {magic!r}") from None
        if version != FORMAT_VERSION:
            raise UnsupportedVersionError(f"model format version {version} not supported")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
        blob = _read_exact(fh, header_len, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (ValueError, RecursionError) as e:  # not UTF-8, not JSON or nested too deep
            raise ModelFormatError(f"malformed header: {e}") from None
        if not isinstance(header, dict) or not HEADER_TYPES.keys() <= header.keys():
            raise ModelFormatError(f"header must be an object with keys {sorted(HEADER_TYPES)}")
        if not all(isinstance(header[k], t) for k, t in HEADER_TYPES.items()):
            raise ModelFormatError(f"header value types must be {HEADER_TYPES}")
        layers = tuple(_spec_from_dict(d) for d in header["layers"])
        if not len(layers) == len(header["params"]) == len(header["shapes"]):
            raise ModelFormatError("header needs one params and one shapes entry per layer")
        weights = []
        for idx, (spec, keys, shapes) in enumerate(zip(layers, header["params"], header["shapes"])):
            expected = _param_shapes(spec)
            # save_model writes sorted keys and JSON lists; == never raises on JSON values
            if keys != sorted(expected) or shapes != {k: list(v) for k, v in expected.items()}:
                raise ModelFormatError(
                    f"layer {idx} ({spec.kind}) holds parameters {shapes}, its spec implies {expected}"
                )
            w = {}
            for key in keys:
                shape = expected[key]
                raw = _read_exact(fh, 8 * math.prod(shape), "weight blob")
                # one bytes object per array keeps it aligned, which BLAS needs
                # for full speed; slicing one whole-file buffer would not
                w[key] = np.frombuffer(raw, dtype="<f8").reshape(shape)
            weights.append(w)
        if fh.read(1):
            raise ModelFormatError("trailing bytes after the weights")
    return NetworkModel(layers=layers, weights=tuple(weights), metadata=header["metadata"])
