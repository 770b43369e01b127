"""A tiny dense/convolutional network engine in numpy.

Sized for three small architectures: a 9-feature MLP, a face-crop CNN and a
layout CNN. Models, files and scoring are float64, so the finite-difference
gradient check in the tests is meaningful; train computes in float32, on flat
weight, gradient and velocity buffers. Models are immutable values: forward
never mutates, train returns a new model; relu and leaky_relu overwrite the
previous layer's output, never the caller's input.
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

from .errors import DatasetError, TrainingDivergedError, UsageError, checked_number, parsed_json

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
    dx = np.zeros((n, c, h + pt + pb, w + pl + pr), dtype=dcols.dtype)
    for i in range(fh):
        for j in range(fw):
            dx[:, :, i : i + s * out_h : s, j : j + s * out_w : s] += dcols[:, :, i, j]
    return dx[:, :, pt : pt + h, pl : pl + w]


def _layer_forward(idx: int, spec: LayerSpec, params: dict, x: np.ndarray, inplace: bool = False):
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
    if spec.kind in ("relu", "leaky_relu"):  # max(x, s*x) has np.where(x > 0, x, s*x)'s bits for s in (0, 1)
        return np.maximum(x, 0.0 if spec.kind == "relu" else LEAKY_SLOPE * x, out=x if inplace else None), None
    if spec.kind == "sigmoid":
        with np.errstate(over="ignore"):  # exp(-x) = inf at x < -709 gives the exact 0
            return 1.0 / (1.0 + np.exp(-x)), None  # no cache: backward reads the output, passed as out
    return x.reshape(x.shape[0], -1), x.shape  # flatten, the last kind LayerSpec admits


def _layer_backward(spec: LayerSpec, params: dict, cache, out, dy: np.ndarray, need_dx: bool, grads=None):
    """(input gradient, weight gradients written into grads if given); dense and conv skip dx unless need_dx."""
    grads = grads or {k: np.empty_like(v) for k, v in params.items()}
    if spec.kind == "dense":
        np.matmul(cache.T, dy, out=grads["W"])
        dy.sum(axis=0, out=grads["b"])
        return (dy @ params["W"].T if need_dx else None), grads
    if spec.kind == "conv2d":
        x_shape, cols, geom = cache
        dy_mat = dy.reshape(dy.shape[0], spec.out_channels, -1)
        wmat = params["W"].reshape(spec.out_channels, -1)
        # the np.dot that np.tensordot(dy_mat, cols, ([0, 2], [0, 2])) performs
        np.dot(dy_mat.transpose(1, 0, 2).reshape(spec.out_channels, -1),
               cols.transpose(0, 2, 1).reshape(-1, wmat.shape[1]), out=grads["W"].reshape(wmat.shape))
        dy_mat.sum(axis=(0, 2), out=grads["b"])
        return (_col2im(wmat.T @ dy_mat, x_shape, spec, geom) if need_dx else None), grads
    if spec.kind == "relu":
        return dy * (out > 0), grads
    if spec.kind == "leaky_relu":
        return np.where(out > 0, dy, LEAKY_SLOPE * dy), grads
    if spec.kind == "sigmoid":
        return dy * out * (1.0 - out), grads
    return dy.reshape(cache), grads  # flatten


def _forward_steps(model: NetworkModel, x: np.ndarray):
    """Each layer's (output, cache); an activation writes in place once a layer made a new array, never over x."""
    inplace = False
    for idx, (spec, params) in enumerate(zip(model.layers, model.weights)):
        x, cache = _layer_forward(idx, spec, params, x, inplace)
        inplace = inplace or spec.kind != "flatten"
        yield x, cache


def forward_batch(model: NetworkModel, x: np.ndarray) -> np.ndarray:
    """One scalar output per input row, keeping only the live activation.
    Floating input keeps its precision; anything else runs in float64."""
    x = np.asarray(x)
    out = x.astype(np.result_type(x.dtype, np.float64), copy=False)
    for out, _ in _forward_steps(model, out):
        pass
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


def _flat(weights: Sequence[dict], dtype, copy: bool = False):
    """One buffer, zeroed or holding the weights cast to dtype when copy, and per-layer
    dicts of views into it shaped like the weights."""
    sizes = [v.size for w in weights for v in w.values()]
    values = [np.zeros(0), *(v.reshape(-1) for w in weights for v in w.values())]
    buf = np.concatenate(values, dtype=dtype) if copy else np.zeros(sum(sizes), dtype)
    parts = iter(np.split(buf, np.cumsum(sizes[:-1], dtype=np.intp)))
    return buf, [{k: next(parts).reshape(v.shape) for k, v in w.items()} for w in weights]


def loss_and_gradients(model: NetworkModel, x: np.ndarray, y: np.ndarray, grads: Optional[list] = None):
    """Mean binary cross-entropy and per-layer weight gradients on a batch, written
    into grads (per-layer dicts of arrays shaped like the weights) when given.

    The final layer must be a sigmoid: backprop starts from the numerically
    stable (p - y) gradient at its pre-activation. Runs in the weights' dtype;
    the loss is float64, as 1 - _EPS rounds to 1 in float32 (0 * log 0 = NaN).
    """
    if not model.layers or model.layers[-1].kind != "sigmoid":
        raise ShapeError("the last layer must be a sigmoid for the BCE loss")
    dtype = np.result_type(*{v.dtype for w in model.weights for v in w.values()} or {np.float64})
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype).reshape(-1)
    outs, caches = map(list, zip(*_forward_steps(model, x)))
    p = outs[-1].reshape(-1)
    loss = float(_bce(np.asarray(p, dtype=np.float64), np.asarray(y, dtype=np.float64)))
    n = len(y)

    grads = grads or [{} for _ in model.layers]
    dy = ((p - y) / n).reshape(outs[-1].shape)
    for idx in range(len(model.layers) - 2, -1, -1):
        spec, params = model.layers[idx], model.weights[idx]
        # nothing consumes the network input's gradient
        dy, grads[idx] = _layer_backward(spec, params, caches[idx], outs[idx], dy, idx > 0, grads[idx])
        caches[idx] = outs[idx] = None  # freed once read: a step holds no spent activation
    return loss, grads


def train(model: NetworkModel, xs, ys, config: TrainConfig) -> tuple[NetworkModel, list[float]]:
    """Mini-batch training with BCE loss on input rows xs and their 0/1 (or
    boolean) targets ys, computed in float32. Deterministic for a fixed seed."""
    xs = np.asarray(xs, dtype=np.float32)
    ys = np.asarray(ys, dtype=np.float64)
    if ys.shape != xs.shape[:1] or not np.all((ys == 0.0) | (ys == 1.0)):
        raise ValueError(f"need one 0 or 1 target per input row, got shape {ys.shape}")

    wbuf, weights = _flat(model.weights, np.float32, copy=True)
    gbuf, grads = _flat(model.weights, np.float32)
    momentum = config.optimizer == "momentum"  # sgd reads no velocity, so it gets none
    velocity = np.zeros_like(wbuf) if momentum else None
    work = NetworkModel(layers=model.layers, weights=tuple(weights), metadata=model.metadata)
    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    n = len(xs)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss = loss_and_gradients(work, xs[idx], ys[idx], grads)[0]
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}")
            total += loss * len(idx)
            # whole buffers in place, with the bits of v = MOMENTUM * v - lr * g; w += v  (or w -= lr * g)
            gbuf *= config.learning_rate
            if momentum:
                velocity *= MOMENTUM
                velocity -= gbuf
                wbuf += velocity
            else:
                wbuf -= gbuf
        history.append(total / n)
    meta = dict(model.metadata)
    meta["epochs_trained"] = meta.get("epochs_trained", 0) + config.epochs
    meta["train_seed"] = config.seed
    del velocity, gbuf, grads, wbuf, work  # the write-back needs only the weights
    # w0 + float64(w32_end - float32(w0)), lr 0 giving w0; new delta arrays free the buffer first
    weights = [{k: np.subtract(v, w0[k], dtype=np.float32) for k, v in w.items()} for w0, w in zip(model.weights, weights)]
    for w0, w in zip(model.weights, weights):
        for key in w:
            w[key] = w0[key] + w[key]  # casts the float32 side in chunks, with no float64 temporary
    return replace(model, weights=tuple(weights), metadata=meta), history


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
                fh.write(np.ascontiguousarray(w[key], dtype="<f8"))  # no copy of a contiguous <f8 array


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
        header = parsed_json(blob, ModelFormatError, "the model header")
        if not all(isinstance(header.get(k), t) for k, t in HEADER_TYPES.items()):
            raise ModelFormatError(f"the model header needs keys of these types: {HEADER_TYPES}")
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
