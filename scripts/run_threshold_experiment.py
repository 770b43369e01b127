#!/usr/bin/env python3
"""Fit scorer thresholds with the GA on a synthetic dataset and compare the
result against the exhaustive grid-search oracle."""

import argparse
import time

from robophoto.core import Dataset
from robophoto.synthetic import make_threshold_dataset
from robophoto.threshold_opt import (
    GAConfig,
    accuracy,
    ga_optimize,
    grid_search_oracle,
    write_curve_csv,
)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("baseline", "heuristic"), default="baseline")
    ap.add_argument("--n-pictures", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid-steps", type=int, default=None,
                    help="steps per axis for the oracle (default 9 baseline, 5 heuristic)")
    ap.add_argument("--curve-out", default=None, help="optional CSV path for the GA curve")
    args = ap.parse_args(argv)

    steps = args.grid_steps or (9 if args.kind == "baseline" else 5)
    pictures = Dataset(records=make_threshold_dataset(args.n_pictures, seed=args.seed, kind=args.kind))

    t0 = time.time()
    report = ga_optimize(pictures, args.kind, GAConfig(seed=args.seed))
    t_ga = time.time() - t0
    t0 = time.time()
    oracle = grid_search_oracle(pictures, args.kind, steps)
    t_grid = time.time() - t0

    print(f"kind={args.kind} n={args.n_pictures} seed={args.seed}")
    print(f"ga:   accuracy={report.best_accuracy:.4f} "
          f"evaluations={report.evaluations} time={t_ga:.1f}s")
    print(f"grid: accuracy={oracle.best_accuracy:.4f} "
          f"evaluations={oracle.evaluations} time={t_grid:.1f}s ({steps} steps/axis)")
    print(f"ga thresholds: {report.best_thresholds}")
    print(f"ga training accuracy recheck: {accuracy(report.best_thresholds, pictures):.4f}")
    if args.curve_out:
        write_curve_csv(report, args.curve_out)
        print(f"curve written to {args.curve_out}")


if __name__ == "__main__":
    main()
