"""Two-layer ReLU net on the single datapoint (x, y) = (4, 2).

The positive label keeps the net away from the trivial all-negative
solution; the certified window is (2/H0, 4/H0), with H0 the kernel at x = 4.
Above the window no run diverges: each converged row of sweep.csv reads
outcome fit, or dead, with every neuron inactive, the kernel at zero and the
loss stuck at y^2/2 = 2.  Which of the two happens to one seed is not
monotone in the rate, but over seeds the dead share and the activation
sparsity grow with it (width 512, seeds 0-49: 21 of 50 dead at eta*H0 = 4,
49 of 50 at 12).  At the defaults the rows at eta*H0 = 4.25 and 4.5 read
dead and every other row fit.
"""

import argparse
from pathlib import Path

import numpy as np

from catapult.cli import normalize_config, resolve_experiment, write_bounds, write_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/relu_single_datapoint")
    parser.add_argument("--width", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    grid = np.round(np.arange(0.5, 4.76, 0.25), 10).tolist()
    raw = {
        "model": {
            "family": "homogenous",
            "width": args.width,
            "a_minus": 0.0,
            "a_plus": 1.0,
            "init_seed": args.seed,
        },
        "dataset": {"kind": "toy_relu"},
        "training": {
            "eta_lambda0_grid": grid,
            "max_steps": 300_000,
            "ntk_eval_interval": 1_000_000,
        },
        "output": {"per_eta_trajectories": True},
    }
    out = Path(args.out)
    cfg = normalize_config(raw, Path.cwd())
    experiment = resolve_experiment(cfg)
    write_sweep(cfg, experiment, out, jobs=1)
    write_bounds(cfg, experiment, out)
    print(f"wrote {out}/sweep.csv and {out}/bounds.json")


if __name__ == "__main__":
    main()
