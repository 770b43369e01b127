"""One workload in one process: set up, then run passes for --seconds.

run.py starts this script with the BLAS thread count pinned in the
environment. It prints one JSON object on its last stdout line. Without
--trace every pass is untraced. With --trace, passes alternate between
untraced and traced (wrappers installed, see spans.py), so the tracing
overhead is measured within one process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import robophoto  # noqa: E402
from spans import Tracer, stage_self_sums  # noqa: E402
from workloads import WORKLOADS, Op, Runner  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a stage's self times must add up to its duration up to float rounding
SELF_SUM_TOLERANCE_S = 1e-6


def numeric_env(seed: int, sizes: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "sizes": sizes,
    }


def normalised(p: dict) -> dict[str, float]:
    """A pass's stage times at the reference kernel's nominal speed.

    The machine's CPU speed drifts with other tenants' load, by up to 1.8x
    for seconds at a time (see README.md), and the reference kernel run
    around each stage drifts with it; scaling by the kernel's time removes
    most of the drift.
    """
    return {s: t * reference.NOMINAL_S / p["ref"][s] for s, t in p["stages"].items()}


def _check_stage_sums(tracer: Tracer, run: Runner) -> None:
    """Each stage's span self times must add up to its traced duration."""
    spans = [s for s in tracer.spans if s.run_id == tracer.run_id]
    ops = {op.stage: op for op in run.ops}
    for root, total in stage_self_sums(spans).values():
        stage = root.name.removeprefix("stage.")
        ops[stage].check(
            abs(total - root.duration) <= SELF_SUM_TOLERANCE_S,
            f"span self times sum to {total:.9f} s, stage took {root.duration:.9f} s",
        )


def run_passes(workload, seconds: float, tracer: Tracer | None) -> dict:
    min_passes = 4 if tracer else 3
    passes, problems = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        run = Runner(tracer if traced else None)
        t0 = time.perf_counter()
        if traced:
            tracer.run_id = f"pass{len(passes)}"
            tracer.install()
        try:
            workload.run_pass(run)
        except Exception:
            run.ops.append(Op("pass", problems=[traceback.format_exc(limit=4)]))
        finally:
            if traced:
                tracer.uninstall()
        last = time.perf_counter() - t0
        if traced:
            _check_stage_sums(tracer, run)
        attempted += len(run.ops)
        failed += sum(not op.ok for op in run.ops)
        problems += [p for op in run.ops for p in op.problems]
        passes.append({"traced": traced, "run_id": tracer.run_id if traced else None, "stages": run.stage_s, "ref": run.ref_s})
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + last > seconds:
            break
    return {"passes": passes, "attempted": attempted, "failed": failed, "problems": problems}


def summarize(workload, result: dict, tracer: Tracer | None) -> dict:
    """Metrics over the passes that ran every stage; a pass cut short by an
    exception is already counted as a failed operation.

    Each end-to-end metric is the median over the untraced passes of its
    normalised value; the median of its raw wall-time value goes beside it.
    """
    stages = set().union(*(p["stages"] for p in result["passes"]))
    passes = [p for p in result["passes"] if set(p["stages"]) == stages]
    untraced = [p for p in passes if not p["traced"]]
    norm = [workload.pass_metrics(normalised(p)) for p in untraced]
    raw = [workload.pass_metrics(p["stages"]) for p in untraced]
    summary = {
        "end_to_end": {
            name: {
                "value": statistics.median(m[name] for m in norm),
                "raw_median": statistics.median(m[name] for m in raw),
                "n": len(untraced),
            }
            for name in norm[0]
        }
    }
    if tracer is not None:
        layer = [tracer.run_metrics(p["run_id"]) for p in passes if p["traced"]]
        per_layer = {name: statistics.median(s[name] for s in layer) for name in layer[0]}

        def run_s(group: list[dict]) -> float:
            return statistics.median(sum(normalised(p).values()) for p in group)

        per_layer["trace.overhead_s"] = run_s([p for p in passes if p["traced"]]) - run_s(untraced)
        summary["per_layer"] = per_layer
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument(
        "--spawn-clock", type=float, required=True,
        help="time.monotonic() of the parent when it started this process",
    )
    args = ap.parse_args(argv)
    if not Path(robophoto.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported robophoto from {robophoto.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    try:
        workload = WORKLOADS[args.workload](work_dir, args.seed, args.smoke)
        workload.setup()
        setup_s = time.monotonic() - args.spawn_clock
        out = {"setup": {"raw_s": setup_s, "norm_s": setup_s * reference.NOMINAL_S / reference.measure()}}
        if not args.setup_only:
            tracer = Tracer() if args.trace else None
            result = run_passes(workload, args.seconds, tracer)
            out.update(result)
            out.update(summarize(workload, result, tracer))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["env"] = numeric_env(args.seed, workload.sizes)
            out["units"] = workload.units
            if tracer is not None:
                out_dir = ROOT / ".perfbench_out"
                out_dir.mkdir(exist_ok=True)
                tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
