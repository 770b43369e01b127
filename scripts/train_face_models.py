#!/usr/bin/env python3
"""Train the 9-feature face quality MLP on rule-labeled synthetic faces and
report held-out accuracy."""

import argparse
import time

import numpy as np

from robophoto import tinynet
from robophoto.face_quality import evaluate_face_model, train_face_ann
from robophoto.synthetic import make_face_feature_dataset


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-train", type=int, default=2000)
    ap.add_argument("--n-held", type=int, default=500)
    ap.add_argument("--label-noise", type=float, default=0.1)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--batch-size", type=int, default=32)
    ap.add_argument("--learning-rate", type=float, default=0.005)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional model output path")
    args = ap.parse_args(argv)

    train_faces = make_face_feature_dataset(args.n_train, seed=args.seed, label_noise=args.label_noise)
    held_faces = make_face_feature_dataset(args.n_held, seed=args.seed + 1)

    config = tinynet.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    t0 = time.time()
    features = np.array([f.features.as_vector() for f in train_faces])
    model, history = train_face_ann(features, [f.label for f in train_faces], config)
    elapsed = time.time() - t0
    acc_train = evaluate_face_model(model, train_faces)
    acc_held = evaluate_face_model(model, held_faces)
    print(f"trained {args.epochs} epochs in {elapsed:.1f}s "
          f"(loss {history[0]:.4f} -> {history[-1]:.4f})")
    print(f"train accuracy {acc_train:.4f} (noisy labels), held-out accuracy {acc_held:.4f}")
    if args.out:
        tinynet.save_model(model, args.out)
        print(f"model saved to {args.out}")


if __name__ == "__main__":
    main()
