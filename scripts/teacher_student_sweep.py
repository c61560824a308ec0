"""Teacher-student sweep: a projected student quadratic model fits labels
generated by a wider teacher, with generalization tracked on a held-out
split.  Defaults match the with-bias setup (teacher 200/20, student 150/10,
tanh meta-features, paired unit eigenvalues); pass --pure for the pure-model
variant (teacher rank 500, student 400).
"""

import argparse
from pathlib import Path

import numpy as np

from catapult.cli import normalize_config, resolve_experiment, write_bounds, write_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/teacher_student")
    parser.add_argument("--pure", action="store_true")
    parser.add_argument("--train-size", type=int, default=32)
    parser.add_argument("--test-size", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.pure:
        family = "pure_quadratic"
        dims = {"n_psi_teacher": 500, "n_psi_student": 400}
    else:
        family = "quadratic_with_bias"
        dims = {
            "n_psi_teacher": 200,
            "n_psi_student": 150,
            "n_phi_teacher": 20,
            "n_phi_student": 10,
        }
    grid = np.round(np.arange(0.5, 3.51, 0.25), 10).tolist()
    raw = {
        "model": {"family": family, "init_seed": args.seed},
        "dataset": {
            "kind": "teacher_student",
            "seed": args.seed,
            "d": 1,
            "train_size": args.train_size,
            "test_size": args.test_size,
            "activation": "tanh",
            "eigen_scheme": {"kind": "pm_one"},
            **dims,
        },
        "training": {"eta_lambda0_grid": grid, "ntk_eval_interval": 1_000_000},
    }
    out = Path(args.out)
    cfg = normalize_config(raw, Path.cwd())
    experiment = resolve_experiment(cfg)
    write_sweep(cfg, experiment, out, jobs=1)
    write_bounds(cfg, experiment, out)
    print(f"wrote {out}/sweep.csv and {out}/bounds.json")


if __name__ == "__main__":
    main()
