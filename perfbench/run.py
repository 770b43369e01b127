"""robophoto benchmark: one workload, one closed-loop process, one result line.

    python3 perfbench/run.py --workload event_pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in its own worker
process (worker.py) with BLAS pinned to one thread. Without --trace, four
extra set-up-only workers give setup_s five samples, and the last stdout
line holds every end-to-end metric. With --trace 1, the worker alternates
untraced and traced passes, and micro.py times the tinynet architectures at
one and two BLAS threads; the last line then holds every per-layer metric.
Lines before it print every metric by name with its unit, the numeric
environment and any failed check. The full result, with the per-pass stage
times, is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("event_pipeline", "layout_training", "face_models")
# set-up-only workers started before and after the measuring worker, so the
# set-up samples span the run
SETUP_BEFORE = 2
SETUP_AFTER = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MICRO_THREADS = (1, 2)
# stay under the 180 s a run may take
DEADLINE_S = 170.0
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ingest_s": "s",
    "fit_s": "s",
    "score_s": "s",
    "run_s": "s",
}


class BenchError(RuntimeError):
    pass


def _env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    return env


def _run_json(cmd: list[str], threads: int, deadline: float) -> dict:
    """Run a benchmark subprocess to completion and parse its last stdout line."""
    try:
        proc = subprocess.run(
            cmd, env=_env(threads), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(cmd[1]).name} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{Path(cmd[1]).name} exited {proc.returncode}")
    return json.loads(lines[-1])


def _worker(args, *extra: str) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--spawn-clock", repr(time.monotonic()),
        *(["--smoke"] if args.smoke else []), *extra,
    ]


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    def setup_only() -> dict:
        return _run_json(_worker(args, "--setup-only"), 1, deadline)

    extra = 0 if args.trace else SETUP_BEFORE
    setup = [setup_only() for _ in range(extra)]
    result = _run_json(
        _worker(args, "--seconds", str(args.seconds), "--trace", str(args.trace)), 1, deadline
    )
    setup.append(result)
    extra = 0 if args.trace else SETUP_AFTER
    setup += [setup_only() for _ in range(extra)]
    result["setup_samples"] = [s["setup"] for s in setup]
    if args.trace:
        for threads in MICRO_THREADS:
            cmd = [sys.executable, str(HERE / "micro.py"), "--threads", str(threads),
                   "--seed", str(args.seed), *(["--smoke"] if args.smoke else [])]
            result["per_layer"].update(_run_json(cmd, threads, deadline))
    return result


def _e2e_metrics(result: dict) -> dict[str, dict]:
    e2e = dict(result["end_to_end"])
    raw = [s["raw_s"] for s in result["setup_samples"]]
    norm = [s["norm_s"] for s in result["setup_samples"]]
    e2e["setup_s"] = {
        "value": statistics.median(norm), "raw_median": statistics.median(raw), "n": len(raw),
    }
    rss = result["peak_rss_mb"]
    e2e["peak_rss_mb"] = {"value": rss, "raw_median": rss, "n": 1}
    return e2e


def report(args, result: dict) -> dict:
    """Print every metric by name with its unit; return the result line."""
    print(f"robophoto benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}{' smoke' if args.smoke else ''}")
    print("environment: " + json.dumps(result["env"], sort_keys=True))
    passes = result["passes"]
    print(f"passes: {len(passes)} ({sum(p['traced'] for p in passes)} traced)")
    e2e = _e2e_metrics(result)
    units = {**E2E_UNITS, **result["units"]}
    print(f"  {'metric':32s} {'normalised':>14s} {'unit':6s} {'raw':>14s} samples")
    for name, m in sorted(e2e.items()):
        print(f"  {name:32s} {m['value']:14.6f} {units[name]:6s} {m['raw_median']:14.6f} {m['n']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_share':32s} {failed / attempted:14.6f} {'':6s} {failed} of {attempted} operations")
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")

    if args.trace:
        layer = result["per_layer"]
        for name, unit, _ in per_layer_metrics():
            print(f"  {name:48s} {layer[name]:14.6f} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in per_layer_metrics()}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": unit} for name, unit in E2E_UNITS.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, same checks")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "robophoto" / "__init__.py").is_file():
        print(f"no robophoto sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    line = report(args, result)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({**result, "result": line}, indent=1, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
