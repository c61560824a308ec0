"""Phase sweeps, phase labels, sparsity, and the early-time linear predictor.

A sweep re-initializes the model identically (same seed) for every learning
rate, trains to termination, and distills each run into one record carrying
the axes the phase plots use: the normalized initial rate ``eta * lambda0``,
the final ``eta * lambda_max(H)``, the weight-norm ratio, losses on both
splits, per-layer sparsity for ReLU nets, and a phase label.

Phases: ``lazy`` (converged without a loss spike), ``catapult`` (converged
after the loss exceeded ``spike_factor`` times its initial value),
``divergent``, and ``non_converged`` for step-limit runs, which are excluded
from trend statistics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from catapult.datasets import Dataset
from catapult.models import DeepReluNet, HomogenousNet, QuadraticModel
from catapult.numerics import lambda_max_symmetric, sym_eigen
from catapult.training import (
    TERMINATION_CONVERGED,
    TERMINATION_DIVERGED,
    TrainConfig,
    Trajectory,
    mse_loss,
    train,
)

DEFAULT_SPIKE_FACTOR = 1.5

PHASE_LAZY = "lazy"
PHASE_CATAPULT = "catapult"
PHASE_DIVERGENT = "divergent"
PHASE_NON_CONVERGED = "non_converged"


class AnalysisError(ValueError):
    pass


def classify_phase(
    trajectory: Trajectory, spike_factor: float = DEFAULT_SPIKE_FACTOR
) -> str:
    """Label a completed run lazy, catapult, divergent, or non_converged.

    A converged run is a catapult whenever the loss spiked above
    ``spike_factor`` times its initial value before settling; the factor is
    configurable and merely needs to exceed lazy-phase micro-oscillations.
    """
    if trajectory.termination == TERMINATION_DIVERGED:
        return PHASE_DIVERGENT
    if trajectory.termination != TERMINATION_CONVERGED:
        return PHASE_NON_CONVERGED
    if float(trajectory.losses.max()) > spike_factor * float(trajectory.losses[0]):
        return PHASE_CATAPULT
    return PHASE_LAZY


@dataclass
class GeneralizationReport:
    train_loss: float
    test_loss: float
    gap: float
    accuracy: float


def generalization_report(
    model, dataset: Dataset, evaluate_outputs: Optional[Callable] = None
) -> GeneralizationReport:
    """Train/test MSE, their gap, and sign-agreement accuracy on the test split."""
    if not dataset.has_test_split:
        raise AnalysisError("dataset has no test split")
    evaluate = evaluate_outputs or (lambda m, x: m.outputs(x))
    z_train = evaluate(model, dataset.inputs)
    z_test = evaluate(model, dataset.test_inputs)
    train_loss = mse_loss(z_train, dataset.labels)
    test_loss = mse_loss(z_test, dataset.test_labels)
    accuracy = float(np.mean(np.sign(z_test) == np.sign(dataset.test_labels)))
    return GeneralizationReport(
        train_loss=train_loss,
        test_loss=test_loss,
        gap=test_loss - train_loss,
        accuracy=accuracy,
    )


def sparsity(net, inputs) -> list[float]:
    """Per-layer fraction of post-activation units that are exactly zero,
    averaged over all inputs.  A pre-activation of exactly zero maps to a
    zero output and therefore counts."""
    if not isinstance(net, (HomogenousNet, DeepReluNet)):
        raise AnalysisError("sparsity is defined for the net families")
    return [float((act == 0.0).mean()) for act in net.activations(inputs)]


# ---------------------------------------------------------------------------
# Learning-rate sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepRecord:
    """Final-state summary of one learning rate.  Divergent rows carry no
    final-state scalars."""

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
    message: str = ""


@dataclass
class SweepResult:
    lambda0: float
    records: list[SweepRecord]

    def by_phase(self, phase: str) -> list[SweepRecord]:
        return [r for r in self.records if r.phase == phase]


def run_sweep_point(
    model_factory: Callable[[], object],
    dataset: Dataset,
    eta: float,
    config: TrainConfig,
    lambda0: float,
    evaluate_outputs: Optional[Callable] = None,
) -> tuple[SweepRecord, Trajectory]:
    """Train one freshly initialized model at one learning rate; returns the
    run summary together with the full trajectory."""
    model = model_factory()
    trajectory = train(model, dataset, dataclasses.replace(config, eta=eta))
    phase = classify_phase(trajectory)
    if phase == PHASE_DIVERGENT:
        record = SweepRecord(
            eta=eta,
            eta_lambda0=eta * lambda0,
            status="ok",
            phase=phase,
            steps_taken=trajectory.steps_taken,
        )
        return record, trajectory

    test_loss = gap = accuracy = None
    if dataset.has_test_split:
        report = generalization_report(model, dataset, evaluate_outputs)
        test_loss, gap, accuracy = report.test_loss, report.gap, report.accuracy
    layer_sparsity = None
    if isinstance(model, (HomogenousNet, DeepReluNet)):
        layer_sparsity = tuple(sparsity(model, dataset.inputs))
    record = SweepRecord(
        eta=eta,
        eta_lambda0=eta * lambda0,
        status="ok",
        phase=phase,
        steps_taken=trajectory.steps_taken,
        final_eta_lambda_max=float(trajectory.eta_lambda_max[-1]),
        weight_ratio=float(trajectory.weight_norms[-1] / trajectory.weight_norms[0]),
        train_loss_final=float(trajectory.losses[-1]),
        test_loss_final=test_loss,
        generalization_gap=gap,
        accuracy=accuracy,
        sparsity=layer_sparsity,
    )
    return record, trajectory


def sweep(
    model_factory: Callable[[], object],
    dataset: Dataset,
    eta_grid: Sequence[float],
    config: TrainConfig,
    evaluate_outputs: Optional[Callable] = None,
) -> SweepResult:
    """One record per learning rate, in grid order.

    The initial kernel eigenvalue is computed once from a fresh model, since
    every run starts from the identical initialization.  Per-rate failures
    are isolated into failed records rather than aborting the sweep.
    """
    grid = [float(e) for e in eta_grid]
    if not grid:
        raise AnalysisError("eta grid must be non-empty")
    lambda0 = lambda_max_symmetric(model_factory().ntk(dataset.inputs))
    records = []
    for eta in grid:
        try:
            record, _ = run_sweep_point(
                model_factory, dataset, eta, config, lambda0, evaluate_outputs
            )
            records.append(record)
        except Exception as exc:  # noqa: BLE001 - per-rate isolation is the contract
            records.append(
                SweepRecord(
                    eta=eta,
                    eta_lambda0=eta * lambda0,
                    status="failed",
                    message=f"{type(exc).__name__}: {exc}",
                )
            )
    return SweepResult(lambda0=lambda0, records=records)


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

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    initial_coefficients: np.ndarray
    predicted_errors: np.ndarray  # (horizon + 1, D)
    predicted_losses: np.ndarray  # (horizon + 1,)
    breakdown_scale: float
    validity_horizon: Optional[int]


def output_breakdown_scale(model) -> float:
    """Output magnitude at which the linearized picture stops applying:
    the inverse coupling for quadratic models, sqrt(width) for nets."""
    if isinstance(model, QuadraticModel):
        return float("inf") if model.zeta == 0.0 else 1.0 / model.zeta
    if isinstance(model, (HomogenousNet, DeepReluNet)):
        return float(np.sqrt(model.width))
    raise AnalysisError(f"no breakdown scale for {type(model).__name__}")


def linearized_predict(
    model,
    dataset: Dataset,
    eta: float,
    horizon: int,
    true_outputs: Optional[np.ndarray] = None,
    validity_fraction: float = 0.01,
) -> LinearizedPrediction:
    """Predict the error series from the eigendecomposition of the initial
    kernel.  When the true output series of a recorded run is supplied, the
    validity horizon is the first step whose output norm exceeds
    ``validity_fraction`` times the breakdown scale."""
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
        crossed = np.nonzero(norms >= validity_fraction * scale)[0]
        if crossed.size:
            horizon_idx = int(crossed[0])
    return LinearizedPrediction(
        eigenvalues=evals,
        eigenvectors=evecs,
        initial_coefficients=coeffs,
        predicted_errors=errors,
        predicted_losses=losses,
        breakdown_scale=scale,
        validity_horizon=horizon_idx,
    )
