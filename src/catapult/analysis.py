"""Sweep records, phase labels, sparsity, and the early-time linear predictor.

``run_sweep_point`` trains a fresh copy of one initialized model at one
learning rate to termination and distills the run into one record carrying
the axes the phase plots use: the normalized initial rate ``eta * lambda0``,
the final ``eta * lambda_max(H)``, the weight-norm ratio, losses on both
splits, per-layer sparsity for ReLU nets, a phase label and an outcome.  A
sweep is that call once per rate of a grid, against the one ``lambda0`` of
the shared initialization; ``catapult sweep`` makes it.

Phases: ``lazy`` (converged without a loss spike), ``catapult`` (converged
after the loss exceeded ``SPIKE_FACTOR`` times its initial value),
``divergent``, and ``non_converged`` for step-limit runs, which are excluded
from trend statistics.  The phase reads the loss's path; a converged run's
outcome (``classify_outcome``) reads where it ended.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from catapult.datasets import Dataset
from catapult.models import QuadraticModel
from catapult.numerics import sym_eigen
from catapult.training import (
    TERMINATION_CONVERGED,
    TERMINATION_DIVERGED,
    TrainConfig,
    Trajectory,
    mse_loss,
    train,
)

# A converged run is a catapult once its loss rose above this multiple of
# its initial value; the factor only needs to exceed lazy-phase
# micro-oscillations.
SPIKE_FACTOR = 1.5
# A converged run stalled above this fraction of its initial loss: the default
# scripts' fitting rows end at or below 8.1e-6 of it, their dead ones at 27x.
STALLED_FRACTION = 1e-3
# The linearized prediction is trusted while the output norm stays below
# this fraction of the model's breakdown scale.
VALIDITY_FRACTION = 0.01

PHASE_LAZY = "lazy"
PHASE_CATAPULT = "catapult"
PHASE_DIVERGENT = "divergent"
PHASE_NON_CONVERGED = "non_converged"


class AnalysisError(ValueError):
    pass


def classify_phase(trajectory: Trajectory) -> str:
    """Label a completed run lazy, catapult, divergent, or non_converged.

    A converged run is a catapult whenever the loss spiked above
    ``SPIKE_FACTOR`` times its initial value before settling.
    """
    if trajectory.termination == TERMINATION_DIVERGED:
        return PHASE_DIVERGENT
    if trajectory.termination != TERMINATION_CONVERGED:
        return PHASE_NON_CONVERGED
    if float(trajectory.losses.max()) > SPIKE_FACTOR * float(trajectory.losses[0]):
        return PHASE_CATAPULT
    return PHASE_LAZY


def classify_outcome(trajectory: Trajectory) -> Optional[str]:
    """Where a converged run ended (None for any other): ``dead`` at an exactly
    zero final kernel, ``stalled`` above ``STALLED_FRACTION``, else ``fit``."""
    if trajectory.termination != TERMINATION_CONVERGED:
        return None
    if trajectory.eta_lambda_max[-1] == 0.0:
        return "dead"
    if trajectory.losses[-1] > STALLED_FRACTION * trajectory.losses[0]:
        return "stalled"
    return "fit"


@dataclass
class GeneralizationReport:
    test_loss: float
    gap: float
    accuracy: float


def split_scores(dataset: Dataset, model) -> tuple[np.ndarray, np.ndarray]:
    """A model's own outputs on the dataset's test split, and the split's
    labels.  A quadratic model's outputs are fixed to the points its
    features were built for, so it is scored by its feature map instead."""
    if not dataset.has_test_split:
        raise AnalysisError("dataset has no test split")
    if isinstance(model, QuadraticModel):
        raise AnalysisError("a quadratic model needs a test scorer built from its feature map")
    return model.outputs(dataset.test_inputs), dataset.test_labels


def split_scorer(dataset: Dataset) -> Optional[Callable]:
    """``split_scores`` on the dataset, or None when it has no test split."""
    return partial(split_scores, dataset) if dataset.has_test_split else None


def generalization_report(model, train_loss: float, score_test: Callable) -> GeneralizationReport:
    """Test MSE, its gap over the caller's train loss, and sign-agreement
    accuracy on the test split.  ``score_test(model)`` returns the model's
    outputs on the test split and the split's labels: ``split_scores`` for
    a net on a loaded split, or a teacher-student setup's
    ``score_student``, which labels the split in the pass that scores the
    student.  The train loss comes from the caller (a sweep takes the
    trajectory's final loss), so the train split is not evaluated again and
    the gap is exactly ``test_loss - train_loss``."""
    z_test, labels = score_test(model)
    test_loss = mse_loss(z_test, labels)
    accuracy = float(np.mean(np.sign(z_test) == np.sign(labels)))
    return GeneralizationReport(
        test_loss=test_loss, gap=test_loss - train_loss, accuracy=accuracy
    )


def sparsity(net, inputs) -> list[float]:
    """Per-layer fraction of post-activation units that are exactly zero,
    averaged over all inputs.  A pre-activation of exactly zero maps to a
    zero output and therefore counts.  On the inputs object the net's last
    ``outputs`` ran on, the maps are that kept pass's."""
    if not net.activation_layers:
        raise AnalysisError("sparsity is defined for the net families")
    return [float((act == 0.0).mean()) for act in net.activations(inputs)]


# ---------------------------------------------------------------------------
# Learning-rate sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepRecord:
    """Final-state summary of one learning rate; its fields, in order, are
    the ``sweep.csv`` columns.  Divergent rows carry no final-state scalars,
    failed rows only the rate and the ``Type: text`` message."""

    eta: float
    eta_lambda0: float
    status: str  # "ok" | "failed"
    phase: Optional[str] = None
    steps_taken: Optional[int] = None
    final_eta_lambda_max: Optional[float] = None
    weight_ratio: Optional[float] = None
    train_loss_final: Optional[float] = None
    test_loss_final: Optional[float] = None
    generalization_gap: Optional[float] = None
    accuracy: Optional[float] = None
    sparsity: Optional[tuple[float, ...]] = None
    outcome: Optional[str] = None  # converged rows: "fit" | "dead" | "stalled"
    message: str = ""


def run_sweep_point(
    model_factory: Callable[[], object],
    dataset: Dataset,
    eta: float,
    config: TrainConfig,
    lambda0: float,
    score_test: Optional[Callable] = None,
) -> tuple[SweepRecord, Optional[Trajectory]]:
    """Train one freshly initialized model at one learning rate; returns the
    run summary together with the full trajectory.  A run that did not
    diverge is scored by ``score_test`` (see ``generalization_report``),
    which defaults to the dataset's own test split; with neither, the
    record carries no test columns.

    A rate that raises becomes a ``failed`` record whose message is
    ``Type: text``, with no trajectory, so one bad rate never ends a sweep.
    """
    try:
        model = model_factory()
        trajectory = train(model, dataset, dataclasses.replace(config, eta=eta))
        record = SweepRecord(
            eta=eta,
            eta_lambda0=eta * lambda0,
            status="ok",
            phase=classify_phase(trajectory),
            steps_taken=trajectory.steps_taken,
            outcome=classify_outcome(trajectory),
        )
        if record.phase == PHASE_DIVERGENT:
            return record, trajectory
        record.final_eta_lambda_max = float(trajectory.eta_lambda_max[-1])
        record.weight_ratio = float(trajectory.weight_norms[-1] / trajectory.weight_norms[0])
        record.train_loss_final = float(trajectory.losses[-1])
        # read before the test split's pass replaces the kept final pass
        if model.activation_layers:
            record.sparsity = tuple(sparsity(model, dataset.inputs))
        score_test = score_test or split_scorer(dataset)
        if score_test is not None:
            report = generalization_report(model, record.train_loss_final, score_test)
            record.test_loss_final = report.test_loss
            record.generalization_gap = report.gap
            record.accuracy = report.accuracy
        return record, trajectory
    except Exception as exc:  # noqa: BLE001 - per-rate isolation is the contract
        failed = SweepRecord(
            eta=eta,
            eta_lambda0=eta * lambda0,
            status="failed",
            message=f"{type(exc).__name__}: {exc}",
        )
        return failed, None


# ---------------------------------------------------------------------------
# Early-time linearized prediction
# ---------------------------------------------------------------------------


@dataclass
class LinearizedPrediction:
    """Error evolution predicted from the frozen initial kernel.

    In the kernel eigenbasis each error coefficient is damped (or amplified)
    by ``(1 - eta * lambda_i)`` per step.  The prediction is exact for
    linear models and approximates the full dynamics until the outputs reach
    the scale where the model's nonlinearity kicks in; ``validity_horizon``
    is the first recorded step beyond that scale (None when the supplied
    trajectory never crosses it).
    """

    predicted_errors: np.ndarray  # (horizon + 1, D)
    predicted_losses: np.ndarray  # (horizon + 1,)
    validity_horizon: Optional[int]


def output_breakdown_scale(model) -> float:
    """Output magnitude at which the linearized picture stops applying:
    the inverse coupling for quadratic models, sqrt(width) for nets."""
    if isinstance(model, QuadraticModel):
        return float("inf") if model.zeta == 0.0 else 1.0 / model.zeta
    if model.activation_layers:
        return float(np.sqrt(model.width))
    raise AnalysisError(f"no breakdown scale for {type(model).__name__}")


def linearized_predict(
    model,
    dataset: Dataset,
    eta: float,
    horizon: int,
    true_outputs: Optional[np.ndarray] = None,
) -> LinearizedPrediction:
    """Predict the error series from the eigendecomposition of the initial
    kernel.  When the true output series of a recorded run is supplied, the
    validity horizon is the first step whose output norm exceeds
    ``VALIDITY_FRACTION`` times the breakdown scale."""
    if horizon < 0:
        raise AnalysisError("horizon must be non-negative")
    h0 = model.ntk(dataset.inputs)
    evals, evecs = sym_eigen(h0)
    eps0 = model.outputs(dataset.inputs) - dataset.labels
    coeffs = evecs.T @ eps0
    steps = np.arange(horizon + 1)
    decay = (1.0 - eta * evals)[None, :] ** steps[:, None]
    errors = (decay * coeffs) @ evecs.T
    errors[0] = eps0  # the step-0 prediction is the initial condition itself
    losses = (errors**2).sum(axis=1) / (2.0 * dataset.size)

    scale = output_breakdown_scale(model)
    horizon_idx = None
    if true_outputs is not None:
        norms = np.linalg.norm(np.asarray(true_outputs, dtype=np.float64), axis=1)
        crossed = np.nonzero(norms >= VALIDITY_FRACTION * scale)[0]
        if crossed.size:
            horizon_idx = int(crossed[0])
    return LinearizedPrediction(
        predicted_errors=errors, predicted_losses=losses, validity_horizon=horizon_idx
    )
