#!/usr/bin/env python3
"""Emit a small synthetic scored dataset as JSONL so the CLI pipeline can be
exercised end to end without private data."""

import argparse

from robophoto.core import Dataset, write_dataset_jsonl
from robophoto.synthetic import make_threshold_dataset


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-pictures", type=int, default=60)
    ap.add_argument("--kind", choices=("baseline", "heuristic"), default="heuristic")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    pictures = make_threshold_dataset(args.n_pictures, seed=args.seed, kind=args.kind)
    write_dataset_jsonl(Dataset(records=tuple(pictures)), args.out)
    print(f"wrote {len(pictures)} records to {args.out}")


if __name__ == "__main__":
    main()
