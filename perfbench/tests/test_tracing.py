"""Span recording, self-time arithmetic, and the metric and workload lists
against BENCHMARK.json."""

import json
from pathlib import Path

import pytest

import tracing
from tracing import Span

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _tree():
    # root [0, 10]
    #   a [1, 4]
    #   b [5, 9]
    #     c [6, 8]
    return [
        Span("cli.cmd_sweep", 0.0, 10.0, None),
        Span("cli.resolve_experiment", 1.0, 4.0, 0),
        Span("training.train", 5.0, 9.0, 0),
        Span("models.QuadraticModel.outputs", 6.0, 8.0, 2),
    ]


def test_self_time_subtracts_direct_children():
    assert tracing.self_times(_tree()) == [3.0, 3.0, 2.0, 2.0]


def test_self_time_unions_overlapping_children_and_clips_to_parent():
    spans = [
        Span("cli.cmd_sweep", 0.0, 10.0, None),
        Span("numerics.x", -1.0, 3.0, 0),  # starts before the parent
        Span("numerics.y", 2.0, 5.0, 0),  # overlaps the previous child
        Span("numerics.z", 9.0, 12.0, 0),  # ends after the parent
    ]
    # Covered: [0, 5] and [9, 10] -> 6 of 10.
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_layer_self_times_sum_to_root_duration():
    metrics = tracing.span_metrics(_tree())
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(10.0)
    assert metrics["cli.self_s"] == pytest.approx(6.0)
    assert metrics["training.self_s"] == pytest.approx(2.0)
    assert metrics["models.self_s"] == pytest.approx(2.0)
    assert metrics["sweep.cli.self_share"] == pytest.approx(0.6)


def test_inclusive_time_counts_outermost_nested_spans_once():
    spans = [
        Span("cli.cmd_sweep", 0.0, 10.0, None),
        Span("cli.write", 1.0, 5.0, 0),
        Span("cli.write", 2.0, 3.0, 1),
        Span("cli.write", 6.0, 7.0, 0),
    ]
    assert tracing.inclusive_time(spans, "cli.write") == pytest.approx(5.0)
    assert tracing.inclusive_time(spans, "cli.write", within="cli.cmd_bounds") == 0.0


def test_recorder_links_parents_with_injected_clock():
    ticks = iter(range(100))
    recorder = tracing.Recorder(clock=lambda: float(next(ticks)))

    inner = recorder.wrap("models.inner", lambda: "x")
    outer = recorder.wrap("cli.outer", lambda: inner() + inner())
    assert outer() == "xx"
    names = [(s.name, s.parent, s.start, s.end) for s in recorder.spans]
    assert names == [
        ("cli.outer", None, 0.0, 5.0),
        ("models.inner", 0, 1.0, 2.0),
        ("models.inner", 0, 3.0, 4.0),
    ]


def test_installed_patches_are_undone():
    import catapult.bounds
    import catapult.cli
    import catapult.models

    before = (
        catapult.cli.resolve_experiment,
        catapult.bounds.power_iteration_lambda_max,
        catapult.models.DeepReluNet.__dict__["ntk"],
    )
    recorder = tracing.Recorder()
    with recorder.installed():
        assert catapult.cli.resolve_experiment.__wrapped__ is before[0]
        assert catapult.bounds.power_iteration_lambda_max.__wrapped__ is before[1]
    after = (
        catapult.cli.resolve_experiment,
        catapult.bounds.power_iteration_lambda_max,
        catapult.models.DeepReluNet.__dict__["ntk"],
    )
    assert after == before


def test_traced_calls_record_counts_and_keep_results():
    from catapult.datasets import make_toy
    from catapult.models import HomogenousNet
    from catapult.numerics import Rng
    from catapult.training import TrainConfig

    import catapult.analysis

    recorder = tracing.Recorder()
    net = HomogenousNet.init_random(8, Rng(0), 0.5, 1.0)
    with recorder.installed():
        record, trajectory = recorder.call(
            "cli.cmd_sweep",
            catapult.analysis.run_sweep_point,
            net.clone,
            make_toy(),
            0.1,
            TrainConfig(eta=0.1, max_steps=20, convergence_tol=1e-300),
            1.0,
        )
    metrics = tracing.span_metrics(recorder.spans)
    assert metrics["training.gd_steps"] == trajectory.steps_taken == 20
    assert metrics["training.kernel_evals"] == len(trajectory.ntk_steps)
    assert metrics["models.HomogenousNet.apply_gd_step.calls"] == 20
    assert metrics["models.HomogenousNet.outputs.calls"] == 21


def test_metric_and_workload_lists_match_benchmark_json():
    import run
    import workloads

    spec = json.loads(BENCHMARK.read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, tracing.unit_of(name)) for name in tracing.metric_names()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
