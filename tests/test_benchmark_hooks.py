"""The phase-sweep benchmark under perfbench/ patches and reads names of the
package; these tests fail when a change under src/ breaks one of them.

The benchmark's tracer and verifier are loaded by file path under names of
their own: perfbench/tests has a conftest.py of its own, so the two test
directories cannot be collected together.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import catapult.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    module_name = f"perfbench_{name}_under_test"
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while executing
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_perfbench("tracing")


@pytest.fixture(scope="module")
def verify():
    return load_perfbench("verify")


@pytest.fixture(scope="module")
def run():
    # run.py puts its own directory on sys.path to import its siblings
    saved = list(sys.path)
    try:
        return load_perfbench("run")
    finally:
        sys.path[:] = saved


def pure_quadratic_toy(tmp_path):
    # the benchmark's quadratic toy workload at a test-sized n_psi
    raw = {
        "model": {
            "family": "pure_quadratic",
            "n_psi": 64,
            "zeta_rule": "2_over_n",
            "init_seed": 0,
            "eigen_scheme": {"kind": "uniform", "low": 1.0, "high": 2.0},
        },
        "dataset": {"kind": "toy"},
        "training": {"eta_lambda0_grid": [1.0, 3.0, 4.5], "ntk_eval_interval": 1_000_000},
        "output": {"per_eta_trajectories": True},
    }
    return cli.normalize_config(raw, tmp_path)


def test_tracer_patches_every_name_it_expects(tracing):
    recorder = tracing.Recorder()
    with recorder.installed():
        pass
    assert recorder.spans == []


def test_traced_sweep_resolves_once_and_calls_each_rate(tracing, tmp_path):
    cfg = pure_quadratic_toy(tmp_path)
    recorder = tracing.Recorder()
    with recorder.installed():
        recorder.call(tracing.SWEEP_ROOT, cli.cmd_sweep, cfg, tmp_path / "sweep")
    metrics = tracing.span_metrics(recorder.spans)
    assert metrics["cli.resolve_experiment.calls"] == 1
    assert metrics["datasets.build_meta_features.calls"] == 1
    assert metrics["analysis.run_sweep_point.calls"] == 3
    assert metrics["training.train.calls"] == 3
    assert metrics["training.gd_steps"] > 0


def test_verifier_passes_the_pure_quadratic_toy(verify, tmp_path):
    cfg = pure_quadratic_toy(tmp_path)
    out = tmp_path / "out"
    cli.cmd_sweep(cfg, out)
    cli.cmd_bounds(cfg, out)
    ops = verify.check_sweep(out / "sweep.csv", "quadratic_toy")
    ops += verify.check_bounds(out / "bounds.json", "quadratic_toy")
    methods = {op.id.split("/")[-1].split("#")[0] for op in ops}
    assert {"single_datapoint", "omega"} <= methods
    assert [op for op in ops if not op.ok] == []


def test_omega_counts_read_the_omega_digest(run, tmp_path):
    # the traced benchmark reads the omega report's iteration count and
    # budget note from bounds.json
    cfg = pure_quadratic_toy(tmp_path)
    cli.cmd_bounds(cfg, tmp_path / "quadratic_toy")
    counts = run._omega_counts(tmp_path, ["quadratic_toy"])
    assert counts["bounds.omega.power_iterations"] == 0
    assert counts["bounds.omega.converged"] == 1.0
