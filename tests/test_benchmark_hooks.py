"""The phase-sweep benchmark under perfbench/ patches and reads names of the
package; these tests fail when a change under src/ breaks one of them.

The benchmark's tracer and verifier are loaded by file path under names of
their own: perfbench/tests has a conftest.py of its own, so the two test
directories cannot be collected together, and the benchmark's own suite runs
here in a process of its own.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import catapult.cli as cli
from catapult.analysis import run_sweep_point
from catapult.datasets import (
    Dataset,
    EigenScheme,
    MetaFeatureSpec,
    assemble_quadratic,
    build_meta_features,
    make_toy,
    zeta_for,
)
from catapult.models import DeepReluNet, HomogenousNet
from catapult.numerics import Rng
from catapult.training import TrainConfig

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


# the benchmark's quadratic toy workload at a test-sized n_psi
PURE_QUADRATIC_TOY = {
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


def pure_quadratic_toy(tmp_path):
    return cli.normalize_config(PURE_QUADRATIC_TOY, tmp_path)


def test_benchmark_suite_passes():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


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


def test_setup_sequence_resolves_the_sweeps_lambda0(tmp_path):
    # perfbench/worker.py times exactly this sequence as setup_s
    cfg = cli.normalize_config(PURE_QUADRATIC_TOY, tmp_path)
    experiment = cli.resolve_experiment(cfg)
    etas = cli.resolve_eta_grid(cfg, experiment)
    cli.cmd_sweep(cfg, tmp_path / "sweep")
    meta = json.loads((tmp_path / "sweep" / "sweep.meta.json").read_text())
    assert meta["lambda0"] == experiment.lambda0
    assert meta["eta_grid"] == etas


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


def _traced_family(family):
    if family == "QuadraticModel":
        spec = MetaFeatureSpec(n_psi=16, n_phi=0, d=1, eigen_scheme=EigenScheme("uniform", 1.0, 2.0))
        feature_map = build_meta_features(spec, Rng(0).child(1))
        model = assemble_quadratic(feature_map, make_toy(), zeta_for("2_over_n", 16), Rng(0))
        return model, make_toy()
    if family == "HomogenousNet":
        return HomogenousNet.init_random(8, Rng(0), 0.5, 1.0), make_toy()
    rng = Rng(1)
    dataset = Dataset(inputs=rng.child(1).normal((4, 3)), labels=rng.child(2).normal(4))
    return DeepReluNet.init_random(8, 3, rng.child(3)), dataset


# Calls of each traced model method in one 20-step run with a kernel
# evaluation every step, and the benchmark's per-step pass counts.  The
# quadratic model's psi passes are pinned as their total, the quantity
# psi_passes_per_step reads: one per outputs call, since ntk and the step
# read the pass outputs kept.  The deep ReLU count reads method calls, not
# the passes they run.
TRACED_20_STEP_CALLS = {
    "QuadraticModel": (
        {"outputs": 21, "apply_gd_step": 20, "ntk": 21},
        {"models.QuadraticModel.psi_passes_per_step": 1.05},
    ),
    "HomogenousNet": (
        {"outputs": 21, "apply_gd_step": 20, "ntk": 21, "activations": 1},
        {},
    ),
    "DeepReluNet": (
        {"outputs": 21, "apply_gd_step": 20, "ntk": 21, "activations": 1},
        {"models.DeepReluNet.forward_passes_per_step": 3.15},
    ),
}


@pytest.mark.parametrize("family", sorted(TRACED_20_STEP_CALLS))
def test_traced_call_counts_per_family(tracing, family):
    model, dataset = _traced_family(family)
    config = TrainConfig(eta=0.01, max_steps=20, convergence_tol=1e-300)
    recorder = tracing.Recorder()
    with recorder.installed():
        record, trajectory = recorder.call(
            tracing.SWEEP_ROOT, run_sweep_point, model.clone, dataset, 0.01, config, 1.0
        )
    assert record.status == "ok" and trajectory.steps_taken == 20
    calls, per_step = TRACED_20_STEP_CALLS[family]
    metrics = tracing.span_metrics(recorder.spans)
    counted = {
        method: sum(1 for s in recorder.spans if s.name == f"models.{family}.{method}")
        for method in calls
    }
    assert counted == calls
    assert {name: metrics[name] for name in per_step} == pytest.approx(per_step)
