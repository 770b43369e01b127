"""Micro-timings of the three tinynet architectures through the public API.

Times ``forward_batch`` at batch 1 and 32 and one ``loss_and_gradients``
step at batch 32, and computes each architecture's multiply-add count for
that step from its layer shapes. The BLAS thread count is whatever the
environment pins; run.py starts this script once per thread count.

    python3 perfbench/micro.py --threads 1 --seed 0
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from robophoto import tinynet  # noqa: E402
from robophoto.abstraction import CANVAS_H, CANVAS_W, build_picture_cnn  # noqa: E402
from robophoto.face_quality import (  # noqa: E402
    FACE_CROP_H,
    FACE_CROP_W,
    build_face_ann,
    build_face_cnn,
)

BATCH = 32


def architectures(seed: int):
    return {
        "face_ann": (build_face_ann(seed), (9,)),
        "face_cnn": (build_face_cnn(seed), (1, FACE_CROP_H, FACE_CROP_W)),
        "picture_cnn": (build_picture_cnn(seed), (1, CANVAS_H, CANVAS_W)),
    }


def step_mflop(model: tinynet.NetworkModel, in_shape: tuple, batch: int = BATCH) -> float:
    """Computed flops of one training step: 2 per multiply-add, forward plus
    the weight and input gradients (3x the forward matmuls), elementwise
    layers ignored."""
    shape = in_shape
    forward = 0
    for spec in model.layers:
        if spec.kind == "dense":
            forward += 2 * spec.in_units * spec.out_units
            shape = (spec.out_units,)
        elif spec.kind == "conv2d":
            shape = tinynet.conv_output_shape(shape, spec)
            k = spec.in_channels * spec.filter_h * spec.filter_w
            forward += 2 * k * shape[0] * shape[1] * shape[2]
        elif spec.kind == "flatten":
            shape = (int(np.prod(shape)),)
    return 3 * forward * batch / 1e6


def _median_ms(fn, reps: int) -> float:
    fn()  # first call pays for lazy allocation
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def measure(seed: int, threads: int, reps: tuple[int, int, int]) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out = {}
    for arch, (model, shape) in architectures(seed).items():
        x32 = rng.random((BATCH,) + shape)
        y32 = (rng.random(BATCH) < 0.5).astype(np.float64)
        x1 = x32[:1]
        prefix = f"tinynet.{arch}"
        out[f"{prefix}.fwd_b1_ms.t{threads}"] = _median_ms(
            lambda: tinynet.forward_batch(model, x1), reps[0]
        )
        out[f"{prefix}.fwd_b32_ms.t{threads}"] = _median_ms(
            lambda: tinynet.forward_batch(model, x32), reps[1]
        )
        out[f"{prefix}.step_b32_ms.t{threads}"] = _median_ms(
            lambda: tinynet.loss_and_gradients(model, x32, y32), reps[2]
        )
        out[f"{prefix}.step_b32_mflop"] = step_mflop(model, shape)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", action="store_true", help="one repeat per timing")
    args = ap.parse_args(argv)
    reps = (1, 1, 1) if args.smoke else (10, 3, 2)
    print(json.dumps(measure(args.seed, args.threads, reps), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
