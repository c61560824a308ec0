"""Span recording for the traced run, and the per-layer metrics derived from it.

`Recorder.installed()` wraps public functions of each `catapult` module where
the calling code looks them up: a function imported by name into another
module is patched in that module's namespace, and a method is patched on its
class.  A span holds the name, start, end and parent span; spans stay in
memory and are reduced to metrics after the run.  Nothing under `src/` is
changed: the patches are undone when the context exits.

Layers are the modules: a span named ``models.DeepReluNet.ntk`` belongs to
layer ``models``.  A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("cli", "numerics", "datasets", "models", "training", "bounds", "analysis")
SWEEP_ROOT = "cli.cmd_sweep"
BOUNDS_ROOT = "cli.cmd_bounds"

_SINGLE = "bounds.single_datapoint"


def _written_bytes(args, kwargs, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _points(args, kwargs, result) -> dict:
    inputs = kwargs["inputs"] if "inputs" in kwargs else args[3]
    return {"points": len(inputs)}


def _train_counts(args, kwargs, result) -> dict:
    return {"gd_steps": result.steps_taken, "kernel_evals": len(result.ntk_steps)}


def _psi_bytes(args, kwargs, result) -> dict:
    model = args[0]
    return {"psi_bytes": model.num_points * model.n * model.n * 8}


# (module, attribute, span name, info hook).  Each entry is one place where a
# call is looked up; the same span name may appear for several modules.
FUNCTION_PATCHES = (
    ("catapult.cli", "resolve_experiment", "cli.resolve_experiment", None),
    ("catapult.cli", "write_csv", "cli.write", _written_bytes),
    ("catapult.cli", "_write_json", "cli.write", _written_bytes),
    ("catapult.cli", "run_sweep_point", "analysis.run_sweep_point", None),
    ("catapult.cli", "collect_bound_reports", "bounds.collect_bound_reports", None),
    ("catapult.cli", "lambda_max_symmetric", "numerics.lambda_max_symmetric", None),
    ("catapult.cli", "build_meta_features", "datasets.build_meta_features", None),
    ("catapult.cli", "assemble_quadratic", "datasets.assemble_quadratic", None),
    ("catapult.cli", "make_teacher_student", "datasets.make_teacher_student", None),
    ("catapult.cli", "load_two_class_images", "datasets.load_two_class_images", None),
    ("catapult.datasets", "build_meta_features", "datasets.build_meta_features", None),
    ("catapult.numerics", "expm_antisymmetric", "numerics.expm_antisymmetric", None),
    ("catapult.training", "lambda_max_symmetric", "numerics.lambda_max_symmetric", None),
    ("catapult.analysis", "train", "training.train", _train_counts),
    ("catapult.analysis", "generalization_report", "analysis.generalization_report", None),
    ("catapult.analysis", "sparsity", "analysis.sparsity", None),
    ("catapult.bounds", "lambda_max_symmetric", "numerics.lambda_max_symmetric", None),
    (
        "catapult.bounds",
        "power_iteration_lambda_max",
        "numerics.power_iteration_lambda_max",
        None,
    ),
    ("catapult.bounds", "bound_pure_quadratic", _SINGLE, None),
    ("catapult.bounds", "bound_quadratic_with_bias", _SINGLE, None),
    ("catapult.bounds", "bound_homogenous_mlp", _SINGLE, None),
    ("catapult.bounds", "bound_relu", _SINGLE, None),
    ("catapult.bounds", "bound_multi_omega", "bounds.omega", None),
    ("catapult.bounds", "bound_multi_psi_eff", "bounds.psi_eff", None),
    ("catapult.bounds", "bound_multi_bias_eff", "bounds.bias_eff", None),
    ("catapult.bounds", "bound_mlp_multi", "bounds.mlp_multi", None),
)

# (module, class, methods): spans are named models.<class>.<method>.
MODEL_METHODS = (
    (
        "catapult.models",
        "QuadraticModel",
        ("outputs", "apply_gd_step", "ntk", "grad_theta", "effective_features"),
    ),
    ("catapult.models", "HomogenousNet", ("outputs", "apply_gd_step", "ntk", "activations")),
    ("catapult.models", "DeepReluNet", ("outputs", "apply_gd_step", "ntk", "activations")),
)
METHOD_PATCHES = (
    ("catapult.datasets", "QuadraticFeatureMap", "outputs_at", "datasets.outputs_at", _points),
) + tuple(
    (
        module,
        cls,
        method,
        f"models.{cls}.{method}",
        _psi_bytes if cls == "QuadraticModel" else None,
    )
    for module, cls, methods in MODEL_METHODS
    for method in methods
)

# Calls that each run the quadratic model's psi @ theta contraction once,
# and calls that each run the deep ReLU net's forward pass once.
PSI_PASS_SPANS = tuple(
    f"models.QuadraticModel.{m}" for m in ("outputs", "grad_theta", "effective_features")
)
FORWARD_PASS_SPANS = tuple(
    f"models.DeepReluNet.{m}" for m in ("outputs", "apply_gd_step", "ntk", "activations")
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped calls in one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn: Callable, info_hook: Optional[Callable] = None):
        recorder = self

        def traced(*args, **kwargs):
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else None
            span = Span(name, 0.0, 0.0, parent)
            recorder.spans.append(span)
            recorder._stack.append(index)
            span.start = recorder._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = recorder._clock()
                recorder._stack.pop()
            if info_hook is not None:
                span.info = info_hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run one call of the benchmark's own under a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, hook in FUNCTION_PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                undo.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            for module_name, cls_name, attr, name, hook in METHOD_PATCHES:
                cls = getattr(importlib.import_module(module_name), cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Reducing spans to metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        result.append(span.duration - covered)
    return result


def _ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent is not None:
        yield parent
        parent = spans[parent].parent


def _under(spans: list[Span], index: int, names) -> bool:
    return any(spans[a].name in names for a in _ancestors(spans, index))


def inclusive_time(spans: list[Span], names, within: Optional[str] = None) -> float:
    """Time in spans named in `names`, counting only the outermost of nested
    ones, optionally only inside spans named `within`."""
    names = {names} if isinstance(names, str) else set(names)
    total = 0.0
    for index, span in enumerate(spans):
        if span.name not in names or _under(spans, index, names):
            continue
        if within is not None and not _under(spans, index, {within}):
            continue
        total += span.duration
    return total


def _calls(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def _info_sum(spans, names, key) -> float:
    names = {names} if isinstance(names, str) else set(names)
    return sum(s.info.get(key, 0) for s in spans if s.name in names)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


TIMED_FUNCTIONS = (
    "cli.resolve_experiment",
    "numerics.expm_antisymmetric",
    "numerics.lambda_max_symmetric",
    "numerics.power_iteration_lambda_max",
    "datasets.build_meta_features",
    "datasets.assemble_quadratic",
    "datasets.make_teacher_student",
    "datasets.outputs_at",
    "datasets.load_two_class_images",
    *(f"models.{cls}.{m}" for _, cls, methods in MODEL_METHODS for m in methods[:3]),
    "models.DeepReluNet.activations",
    "training.train",
    "analysis.run_sweep_point",
    "analysis.generalization_report",
    "analysis.sparsity",
)
BOUND_METHODS = ("single_datapoint", "omega", "psi_eff", "bias_eff", "mlp_multi")


def span_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced repetition (one sweep and one bounds
    pass over every config of the workload)."""
    out: dict = {}
    for name in TIMED_FUNCTIONS:
        out[f"{name}.calls"] = _calls(spans, name)
        out[f"{name}.s"] = inclusive_time(spans, name)
    out["cli.write.calls"] = _calls(spans, "cli.write")
    out["cli.write.s"] = inclusive_time(spans, "cli.write")
    out["cli.write.bytes"] = _info_sum(spans, "cli.write", "bytes")
    out["datasets.outputs_at.points"] = _info_sum(spans, "datasets.outputs_at", "points")
    for method in BOUND_METHODS:
        out[f"bounds.{method}.s"] = inclusive_time(spans, f"bounds.{method}")

    selfs = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s.name.split(".", 1)[0] == layer
        )

    sweep_total = inclusive_time(spans, SWEEP_ROOT)
    bounds_total = inclusive_time(spans, BOUNDS_ROOT)
    sweep_indices = [
        i for i, s in enumerate(spans) if s.name == SWEEP_ROOT or _under(spans, i, {SWEEP_ROOT})
    ]
    for layer in LAYERS:
        layer_self = sum(
            selfs[i] for i in sweep_indices if spans[i].name.split(".", 1)[0] == layer
        )
        out[f"sweep.{layer}.self_share"] = _ratio(layer_self, sweep_total)

    # Shares behind each workload's stated reason.
    expm_in_resolve = sum(
        s.duration
        for i, s in enumerate(spans)
        if s.name == "numerics.expm_antisymmetric"
        and _under(spans, i, {"cli.resolve_experiment"})
        and _under(spans, i, {SWEEP_ROOT})
    )
    out["sweep.expm_in_resolve.share"] = _ratio(expm_in_resolve, sweep_total)
    out["sweep.outputs_at.share"] = _ratio(
        inclusive_time(spans, "datasets.outputs_at", SWEEP_ROOT), sweep_total
    )
    deep_relu = tuple(f"models.DeepReluNet.{m}" for m in MODEL_METHODS[2][2])
    out["sweep.deep_relu_and_lambda_max.share"] = _ratio(
        inclusive_time(spans, deep_relu + ("numerics.lambda_max_symmetric",), SWEEP_ROOT),
        sweep_total,
    )
    out["bounds.omega.share"] = _ratio(
        inclusive_time(spans, "bounds.omega", BOUNDS_ROOT), bounds_total
    )

    # Exact counts, all within the sweep.
    in_sweep = [spans[i] for i in sweep_indices]
    gd_steps = _info_sum(in_sweep, "training.train", "gd_steps")
    out["training.gd_steps"] = gd_steps
    out["training.kernel_evals"] = _info_sum(in_sweep, "training.train", "kernel_evals")
    out["training.steps_per_s"] = _ratio(
        gd_steps, inclusive_time(spans, "training.train", SWEEP_ROOT)
    )
    # Per GD step of that family: every call made during the sweep, over the
    # family's apply_gd_step calls.
    quad_steps = _calls(in_sweep, "models.QuadraticModel.apply_gd_step")
    psi_passes = sum(_calls(in_sweep, name) for name in PSI_PASS_SPANS)
    out["models.QuadraticModel.psi_passes_per_step"] = _ratio(psi_passes, quad_steps)
    out["models.QuadraticModel.psi_computed_bytes_per_step"] = _ratio(
        _info_sum(in_sweep, PSI_PASS_SPANS, "psi_bytes"), quad_steps
    )
    relu_steps = _calls(in_sweep, "models.DeepReluNet.apply_gd_step")
    forward = sum(_calls(in_sweep, name) for name in FORWARD_PASS_SPANS)
    out["models.DeepReluNet.forward_passes_per_step"] = _ratio(forward, relu_steps)
    out["trace.spans"] = len(spans)
    return out


# Metrics run.py adds to those of `span_metrics`: tracing overhead, and the
# omega counts read from bounds.json.
EXTRA_METRICS = (
    "trace.overhead_s",
    "trace.untraced_sweep_s",
    "trace.traced_sweep_s",
    "bounds.omega.power_iterations",
    "bounds.omega.converged",
)


def unit_of(name: str) -> str:
    if name.endswith(".steps_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("bytes", "bytes_per_step")):
        return "B"
    if name.endswith(("share", ".converged")):
        return "ratio"
    return "count"


def metric_names() -> list[str]:
    """Every per-layer metric, in reporting order."""
    return list(span_metrics([])) + list(EXTRA_METRICS)


def median_metrics(per_rep: list[dict]) -> dict:
    """Metric-wise lower median across repetitions, so counts stay exact."""
    return {key: statistics.median_low(rep[key] for rep in per_rep) for key in per_rep[0]}
