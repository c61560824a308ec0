"""Workload process, started fresh by run.py with BLAS pinned to one thread.

    worker.py setup --root R --workload W --seed N --work DIR
        Time one `catapult sweep` set-up: import, normalize_config,
        resolve_experiment and resolve_eta_grid for every config.
    worker.py run --root R --workload W --seed N --work DIR --seconds S --trace 0|1
        Sweep then bound every config, repeatedly, for about S seconds; each
        repetition writes under DIR/rep_<k>.  With --trace 1 the repetitions
        alternate untraced and traced.

Both modes print one JSON object on stdout.  Nothing may import numpy before
the set-up clock starts, so this module's top level imports only the
standard library and `workloads`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads


def _import_catapult(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import catapult.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "catapult").resolve():
        raise SystemExit(f"catapult imported from {cli.__file__}, not from {src}")
    return cli


def do_setup(args) -> dict:
    start = time.perf_counter()
    cli = _import_catapult(args.root)
    workload = workloads.build(args.workload, args.seed, args.work / "images")
    for _, raw in workload.configs:
        cfg = cli.normalize_config(raw, args.work)
        experiment = cli.resolve_experiment(cfg)
        cli.resolve_eta_grid(cfg, experiment)
    return {"setup_s": time.perf_counter() - start}


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        # A system OpenBLAS, or the 64-bit-index build that numpy wheels ship.
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _repetition(cli, configs, out: Path, bounds_passes: int, recorder=None) -> dict:
    """One sweep of every config, then `bounds_passes` bounds passes."""

    def call(name, fn, *args):
        start = time.perf_counter()
        if recorder is None:
            fn(*args)
        else:
            recorder.call(name, fn, *args)
        return time.perf_counter() - start

    sweep_s = sum(
        call("cli.cmd_sweep", cli.cmd_sweep, cfg, out / label) for label, cfg in configs
    )
    bounds_s = [
        sum(call("cli.cmd_bounds", cli.cmd_bounds, cfg, out / label) for label, cfg in configs)
        for _ in range(bounds_passes)
    ]
    return {"sweep_s": sweep_s, "bounds_s": bounds_s}


def do_run(args) -> dict:
    cli = _import_catapult(args.root)
    import tracing

    workload = workloads.build(args.workload, args.seed, args.work / "images")
    configs = [(label, cli.normalize_config(raw, args.work)) for label, raw in workload.configs]
    untraced: list[dict] = []
    traced: list[dict] = []
    span_metrics: list[dict] = []
    rep_dirs: list[str] = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        out = args.work / f"rep_{len(rep_dirs)}"
        # Traced runs alternate untraced and traced repetitions, untraced first.
        if args.trace and len(rep_dirs) % 2 == 1:
            recorder = tracing.Recorder()
            with recorder.installed():
                traced.append(_repetition(cli, configs, out, workload.bounds_passes, recorder))
            span_metrics.append(tracing.span_metrics(recorder.spans))
        else:
            untraced.append(_repetition(cli, configs, out, workload.bounds_passes))
        rep_dirs.append(str(out))
        now = time.perf_counter()
        # Stop at the end of the window, once there are two repetitions to
        # compare; never start one that would overrun the window.
        if len(rep_dirs) >= 2 and now - start + (now - rep_start) > args.seconds:
            break
    result = {
        "labels": [label for label, _ in configs],
        "rep_dirs": rep_dirs,
        "untraced": untraced,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if span_metrics:
        metrics = tracing.median_metrics(span_metrics)
        metrics["trace.overhead_s"] = statistics.median(
            r["sweep_s"] for r in traced
        ) - statistics.median(r["sweep_s"] for r in untraced)
        result["per_layer"] = metrics
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    result = do_setup(args) if args.mode == "setup" else do_run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
