#!/usr/bin/env python3
"""Train the layout CNN on synthetic abstract renders and report held-out
accuracy against the known layout rule."""

import argparse
import time

import numpy as np

from robophoto import tinynet
from robophoto.abstraction import classify_pictures, train_picture_cnn
from robophoto.core import Label
from robophoto.synthetic import make_layout_dataset


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-pictures", type=int, default=2000)
    ap.add_argument("--held-fraction", type=float, default=0.2)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--batch-size", type=int, default=32)
    ap.add_argument("--learning-rate", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional model output path")
    args = ap.parse_args(argv)

    pictures = make_layout_dataset(args.n_pictures, seed=args.seed)
    n_held = int(len(pictures) * args.held_fraction)
    train_pics, held_pics = pictures[:-n_held], pictures[-n_held:]

    config = tinynet.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        optimizer="momentum",
        seed=args.seed,
    )
    t0 = time.time()
    model, history = train_picture_cnn(train_pics, config)
    elapsed = time.time() - t0

    pred_good = classify_pictures(model, held_pics) >= 0.5
    correct = int(np.count_nonzero(pred_good == [p.label is Label.GOOD for p in held_pics]))
    print(f"trained {args.epochs} epochs in {elapsed:.1f}s "
          f"(loss {history[0]:.4f} -> {history[-1]:.4f})")
    print(f"held-out accuracy {correct / len(held_pics):.4f} on {len(held_pics)} pictures")
    if args.out:
        tinynet.save_model(model, args.out)
        print(f"model saved to {args.out}")


if __name__ == "__main__":
    main()
