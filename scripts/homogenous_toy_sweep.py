"""Phase sweep for the two-layer scale-invariant net on the toy datapoint.

Defaults reproduce the slope-one-half experiment: the weight-norm ratio dips
through the catapult window and peaks near eta * H0 = 4 before the divergent
phase takes over.
"""

import argparse
from pathlib import Path

import numpy as np

from catapult.cli import normalize_config, resolve_experiment, write_bounds, write_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/homogenous_toy")
    parser.add_argument("--width", type=int, default=1024)
    parser.add_argument("--a-minus", type=float, default=0.5)
    parser.add_argument("--a-plus", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    grid = np.round(np.arange(0.5, 4.51, 0.25), 10).tolist()
    raw = {
        "model": {
            "family": "homogenous",
            "width": args.width,
            "a_minus": args.a_minus,
            "a_plus": args.a_plus,
            "init_seed": args.seed,
        },
        "dataset": {"kind": "toy"},
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
