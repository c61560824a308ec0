"""Two-class image sweep for bias-free ReLU nets (IDX files, e.g. MNIST).

Trains a width-1024 net on the first 128 images of the two classes and
evaluates on every matching test image.  ``--depth 0`` (the default) trains
the two-layer ReLU net, the ``homogenous`` family with slopes (0, 1);
``--depth 1`` adds one square hidden matrix.  The sweep table carries the final
sharpness eta * lambda_max(H), the weight-norm ratio, per-layer activation
sparsity, and test accuracy across the learning-rate grid.
"""

import argparse
from pathlib import Path

import numpy as np

from catapult.cli import cmd_sweep, normalize_config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("data_dir", help="directory with the four IDX files")
    parser.add_argument("--out", default="results/mnist_two_class")
    parser.add_argument("--class-a", type=int, default=0)
    parser.add_argument("--class-b", type=int, default=1)
    parser.add_argument("--width", type=int, default=1024)
    parser.add_argument("--depth", type=int, default=0, choices=(0, 1))
    parser.add_argument("--train-size", type=int, default=128)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    data = Path(args.data_dir)

    def find(*candidates):
        for name in candidates:
            if (data / name).exists():
                return str(data / name)
        raise SystemExit(f"missing data file; tried {candidates} under {data}")

    grid = np.round(np.arange(0.5, 6.01, 0.5), 10).tolist()
    raw = {
        "model": {
            "family": "deep_relu",
            "width": args.width,
            "depth": args.depth,
            "init_seed": args.seed,
        },
        "dataset": {
            "kind": "image_two_class",
            "format": "idx",
            "class_a": args.class_a,
            "class_b": args.class_b,
            "train_size": args.train_size,
            "train_images": find("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
            "train_labels": find("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
            "test_images": find("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
            "test_labels": find("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
        },
        "training": {
            "eta_lambda0_grid": grid,
            "max_steps": 20_000,
            "ntk_eval_interval": 2_000,
        },
    }
    cfg = normalize_config(raw, Path.cwd())
    cmd_sweep(cfg, Path(args.out), jobs=max(1, args.jobs))
    print(f"wrote {Path(args.out)}/sweep.csv")


if __name__ == "__main__":
    main()
