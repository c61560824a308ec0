"""Phase-sweep benchmark for `catapult`: set-up, sweep and bounds time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are defined in workloads.py:
toy_sweeps, teacher_student and image_two_class.  The workload runs in fresh
child processes (worker.py) with BLAS pinned to one thread; this process only
orchestrates, verifies the outputs and reports.

--trace 0 reports the end-to-end metrics:
    setup_s      median over fresh processes of the time a `catapult sweep`
                 spends before its first GD step (import, normalize_config,
                 resolve_experiment, resolve_eta_grid)
    sweep_s      median over repetitions of cmd_sweep wall time, summed over
                 the workload's configs
    bounds_s     median over passes of cmd_bounds wall time, summed over the
                 workload's configs
    peak_rss_mb  peak resident memory of the workload process
--trace 1 reports the per-layer metrics of tracing.py from traced
repetitions, plus the tracing overhead against untraced ones.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  An operation is one swept rate, one bound report or the
`catapult check` run at the same seed; verify.py says when one fails, and
every failure is printed with its reason.  `correct` is false when the
outputs cannot be trusted as a whole: a repetition did not reproduce the
first byte for byte.  Exits non-zero without a result when `src/catapult`
is missing, the workload is unknown, or a child process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Whole-run limit is 180 s; children get what is left of this budget.
RUN_BUDGET_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "bounds_s": "s", "peak_rss_mb": "MB"}


class RunError(RuntimeError):
    pass


def _child(cmd: list[str], env: dict, deadline: float, cwd: Path):
    """Run a child to completion; past the deadline it is killed and reaped."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left to run {cmd[1:4]}")
    try:
        return subprocess.run(
            cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{cmd[1:4]} overran the run budget") from exc


def _worker(mode: str, args, work: Path, env: dict, deadline: float, root: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--root", str(root)]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = _child(cmd, env, deadline, root)
    if proc.returncode != 0:
        raise RunError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _run_check(seed: int, work: Path, env: dict, deadline: float, root: Path):
    cmd = [sys.executable, "-m", "catapult.cli", "check", "--seed", str(seed)]
    cmd += ["--out", str(work / "check")]
    proc = _child(cmd, env, deadline, root)
    return verify.check_selfcheck(proc.returncode, proc.stdout)


def _omega_counts(rep_dir: Path, labels: list[str]) -> dict:
    """Omega power-iteration counts and converged ratio from bounds.json."""
    reports = []
    for label in labels:
        payload = json.loads((rep_dir / label / "bounds.json").read_text())
        reports += [r for r in payload["reports"] if r["method"] == "omega"]
    converged = sum(
        1 for r in reports if not any("hit its" in note for note in r["notes"])
    )
    return {
        "bounds.omega.power_iterations": sum(
            r["inputs_digest"]["power_iterations"] for r in reports
        ),
        "bounds.omega.converged": converged / len(reports) if reports else 0.0,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "catapult" / "cli.py").is_file():
        print(f"no catapult sources under {root / 'src'}; run from the repo root", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2

    work = root / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    workload = workloads.build(args.workload, args.seed, work / "images")

    try:
        if workload.needs_images:
            workloads.write_synthetic_idx(work / "images", args.seed)
        setups = []
        if not args.trace:
            setups = [
                _worker("setup", args, work, env, deadline, root)["setup_s"]
                for _ in range(workload.setup_repeats)
            ]
        result = _worker("run", args, work, env, deadline, root)
        check_op = _run_check(args.seed, work, env, deadline, root)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3

    rep_dirs = [Path(p) for p in result["rep_dirs"]]
    ops, reproducible = verify.verify_outputs(rep_dirs, result["labels"])
    ops.append(check_op)
    failed = [op for op in ops if not op.ok]

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    untraced = result["untraced"]
    sweeps = [r["sweep_s"] for r in untraced]
    bounds = [b for r in untraced for b in r["bounds_s"]]
    print(f"repetitions untraced={len(untraced)} traced={len(result['traced'])}")
    print(f"sweep_s samples {sweeps}")
    print(f"bounds_s samples {bounds}")
    if setups:
        print(f"setup_s samples {setups}")
    print(f"catapult check {'passed' if check_op.ok else 'FAILED'}; reproducible={reproducible}")
    print(f"operations attempted={len(ops)} failed={len(failed)}")
    for op in failed:
        print(f"FAILED {op.id}: {op.reason}")

    if args.trace:
        per_layer = dict(result["per_layer"])
        per_layer.update(_omega_counts(rep_dirs[0], result["labels"]))
        per_layer["trace.untraced_sweep_s"] = statistics.median(sweeps)
        per_layer["trace.traced_sweep_s"] = statistics.median(
            r["sweep_s"] for r in result["traced"]
        )
        metrics = {
            name: _metric(per_layer[name], tracing.unit_of(name))
            for name in tracing.metric_names()
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "sweep_s": statistics.median(sweeps),
            "bounds_s": statistics.median(bounds),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    # Outputs were verified; keep only the small files of the first repetition.
    for rep in rep_dirs[1:]:
        shutil.rmtree(rep, ignore_errors=True)
    summary = {
        "correct": reproducible,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    (work / "result.json").write_text(
        json.dumps({**summary, "failures": [vars(op) for op in failed], "worker": result}, indent=1)
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
