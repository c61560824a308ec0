"""Phase sweep for the pure quadratic model on the unit toy datapoint.

Linear meta-feature generator with paired uniform eigenvalues, coupling
zeta^2 = 2/n, and a learning-rate grid given in units of the initial kernel
value.  Emits sweep.csv plus a bounds.json with the certified windows.
"""

import argparse
from pathlib import Path

import numpy as np

from catapult.cli import normalize_config, resolve_experiment, write_bounds, write_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/quadratic_toy")
    parser.add_argument("--n", type=int, default=1000, help="weight count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid-min", type=float, default=0.5)
    parser.add_argument("--grid-max", type=float, default=4.6)
    parser.add_argument("--grid-step", type=float, default=0.2)
    args = parser.parse_args()

    grid = np.round(
        np.arange(args.grid_min, args.grid_max + 1e-9, args.grid_step), 10
    ).tolist()
    raw = {
        "model": {
            "family": "pure_quadratic",
            "n_psi": args.n,
            "zeta_rule": "2_over_n",
            "init_seed": args.seed,
            "eigen_scheme": {"kind": "uniform", "low": 1.0, "high": 2.0},
        },
        "dataset": {"kind": "toy"},
        "training": {"eta_lambda0_grid": grid, "ntk_eval_interval": 1_000_000},
        "output": {"per_eta_trajectories": True},
    }
    out = Path(args.out)
    cfg = normalize_config(raw, Path.cwd())
    experiment = resolve_experiment(cfg)
    write_sweep(cfg, experiment, out, jobs=1)
    write_bounds(cfg, experiment, out)
    print(f"wrote {out}/sweep.csv, per-rate trajectories, and {out}/bounds.json")


if __name__ == "__main__":
    main()
