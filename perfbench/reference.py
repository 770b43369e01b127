"""A fixed reference kernel that tracks how fast the machine runs right now.

The CPU speed of a shared machine drifts with other tenants' load: a plain
Python loop runs 1.2x to 1.8x slower for seconds at a time, and numpy code
moves with it (see README.md). The benchmark runs this kernel just before and
just after every stage. The stage's *normalised* time is its wall time
scaled by ``NOMINAL_S`` over the kernel's time around it. That is the time
the stage would take while the kernel runs at its nominal speed. The kernel
uses nothing from robophoto, so a change to the package moves the stage time
and not the kernel's.

The kernel mixes the three kinds of work the stages do, which a busy
neighbour slows by different amounts: interpreter-bound Python (dicts, string
keys, float arithmetic, JSON), small single-threaded numpy (a conv-sized GEMM
and elementwise ops) and a batch-1 dense layer, a matrix-vector product that
streams a 16 MB weight matrix from cache and memory.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# One kernel call at nominal speed: close to its fastest time on the 2-vCPU
# machine the benchmark was tuned on (Intel Xeon, Python 3.11, numpy 2.4).
NOMINAL_S = 0.0036
# kernel calls per measurement; the measurement is their median
REPEATS = 5

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 288))
_B = _rng.standard_normal((288, 144))
_V = _rng.standard_normal(4096)
# larger than a core's L2 cache, like the layout CNN's first dense layer
_W = np.full((1600, 1260), 0.5)
_X = _rng.standard_normal((1, 1600))


def _python_work() -> float:
    counts: dict[str, float] = {}
    acc = 0.0
    for i in range(4000):
        key = "k" + str(i % 61)
        counts[key] = counts.get(key, 0.0) + i * 0.25
        acc += math.sqrt(i) * 1.5
    return acc + len(json.loads(json.dumps(counts)))


def _numpy_work() -> float:
    acc = 0.0
    for _ in range(10):
        x = np.maximum(_A @ _B, 0.0)
        acc += float(x.sum()) + float(np.tanh(_V).dot(_V))
    return acc


def _memory_work() -> float:
    return float((_X @ _W).sum())


def kernel() -> float:
    return _python_work() + _numpy_work() + _memory_work()


def measure() -> float:
    """The kernel's current time per call, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
