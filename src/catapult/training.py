"""Exact full-batch gradient descent under MSE, with trajectory recording.

The trainer owns one model, applies the exact update
``theta_{t+1} = theta_t - (eta/D) * sum_a (z_a - y_a) dz_a/dtheta``
to every trainable tensor of the family, and records the loss, weight-norm
and kernel series needed by the phase analysis.  Termination is one of
``converged`` (per-step loss change below tolerance), ``diverged`` (loss
above threshold or non-finite state) or ``step_limit``.

The module also carries the closed-form update recursions for quadratic
models.  They are a test-time consistency oracle: the recursion advances the
errors and the kernel algebraically, recomputation from the simulated
weights is the source of truth, and the two must agree to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from catapult.datasets import Dataset
from catapult.models import HomogenousNet, QuadraticModel
from catapult.numerics import lambda_max_symmetric

TERMINATION_CONVERGED = "converged"
TERMINATION_DIVERGED = "diverged"
TERMINATION_STEP_LIMIT = "step_limit"


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    eta: float
    max_steps: int = 100_000
    convergence_tol: float = 1e-8
    divergence_threshold: float = 1e10
    ntk_eval_interval: int = 1
    record_outputs: bool = False

    def __post_init__(self):
        if not self.eta > 0.0:
            raise TrainingError("eta must be positive")
        if self.max_steps < 1:
            raise TrainingError("max_steps must be at least 1")
        if not self.convergence_tol > 0.0:
            raise TrainingError("convergence_tol must be positive")
        if not self.divergence_threshold > self.convergence_tol:
            raise TrainingError("divergence_threshold must exceed convergence_tol")
        if self.ntk_eval_interval < 1:
            raise TrainingError("ntk_eval_interval must be at least 1")


@dataclass
class Trajectory:
    """Per-step series of one training run.

    All per-step series have length ``steps_taken + 1`` (state before any
    update through the final state).  Kernel evaluations are sparse: entry i
    of ``eta_lambda_max`` was measured at step ``ntk_steps[i]``; gaps are
    explicit, never interpolated.
    """

    eta: float
    losses: np.ndarray
    weight_norms: np.ndarray
    reduced_weight_norms: Optional[np.ndarray]
    combined_weight_norms: Optional[np.ndarray]
    ntk_steps: np.ndarray
    eta_lambda_max: np.ndarray
    outputs: Optional[np.ndarray]
    termination: str
    steps_taken: int

    def __post_init__(self):
        expected = self.steps_taken + 1
        for name in ("losses", "weight_norms"):
            series = getattr(self, name)
            if len(series) != expected:
                raise TrainingError(
                    f"{name} has length {len(series)}, expected {expected}"
                )


def mse_loss(outputs, labels) -> float:
    """Mean-squared error with the 1/(2D) normalization."""
    z = np.asarray(outputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if z.shape != y.shape or z.ndim != 1 or z.size < 1:
        raise TrainingError("outputs and labels must be equal-length vectors")
    err = z - y
    return float(err @ err) / (2.0 * z.size)


def _model_is_finite(model) -> bool:
    if isinstance(model, QuadraticModel):
        return bool(np.isfinite(model.theta).all())
    if isinstance(model, HomogenousNet):
        return bool(np.isfinite(model.u).all() and np.isfinite(model.v).all())
    return bool(
        np.isfinite(model.input_weights).all()
        and np.isfinite(model.output_weights).all()
        and all(np.isfinite(w).all() for w in model.hidden_weights)
    )


def train(model, dataset: Dataset, config: TrainConfig) -> Trajectory:
    """Run full-batch gradient descent until convergence, divergence or the
    step limit, recording the loss/weight-norm series every step and the
    kernel top eigenvalue at the configured interval plus first/last step."""
    x = dataset.inputs
    y = dataset.labels
    eta = config.eta

    # The reduced norm is certified (by the ReLU window) only on one 1d
    # datapoint; with several points it follows no bound, so it is not kept.
    track_reduced = (
        isinstance(model, HomogenousNet)
        and model.frozen_split is not None
        and x.shape == (1, 1)
    )
    track_combined = (
        isinstance(model, QuadraticModel) and model.bias_combined_norm() is not None
    )

    losses: list[float] = []
    weight_norms: list[float] = []
    reduced: list[float] = []
    combined: list[float] = []
    ntk_steps: list[int] = []
    eta_lambda: list[float] = []
    outputs: list[np.ndarray] = []

    termination = None
    t = 0
    prev_loss = None
    while True:
        # Divergent runs legitimately overflow on their last couple of
        # steps; the resulting infs are what the divergence check looks for.
        with np.errstate(over="ignore", invalid="ignore"):
            z = model.outputs(x)
        finite = bool(np.isfinite(z).all()) and _model_is_finite(model)
        loss = mse_loss(z, y) if finite else float("inf")

        losses.append(loss)
        weight_norms.append(model.weight_norm() if finite else float("inf"))
        if track_reduced:
            reduced.append(model.reduced_weight_norm(x))
        if track_combined:
            combined.append(model.bias_combined_norm())
        if config.record_outputs:
            outputs.append(np.array(z, dtype=np.float64))

        if not finite or loss > config.divergence_threshold:
            termination = TERMINATION_DIVERGED
            break
        if t % config.ntk_eval_interval == 0:
            ntk_steps.append(t)
            eta_lambda.append(eta * lambda_max_symmetric(model.ntk(x)))
        if prev_loss is not None and abs(loss - prev_loss) < config.convergence_tol:
            termination = TERMINATION_CONVERGED
            break
        if t == config.max_steps:
            termination = TERMINATION_STEP_LIMIT
            break

        with np.errstate(over="ignore", invalid="ignore"):
            model.apply_gd_step(x, z - y, eta)
        prev_loss = loss
        t += 1

    # Always measure the kernel at the final state, except after divergence
    # where the weights are no longer meaningful.
    if termination != TERMINATION_DIVERGED and (not ntk_steps or ntk_steps[-1] != t):
        ntk_steps.append(t)
        eta_lambda.append(eta * lambda_max_symmetric(model.ntk(x)))

    return Trajectory(
        eta=eta,
        losses=np.array(losses),
        weight_norms=np.array(weight_norms),
        reduced_weight_norms=np.array(reduced) if track_reduced else None,
        combined_weight_norms=np.array(combined) if track_combined else None,
        ntk_steps=np.array(ntk_steps, dtype=np.int64),
        eta_lambda_max=np.array(eta_lambda),
        outputs=np.array(outputs) if config.record_outputs else None,
        termination=termination,
        steps_taken=t,
    )


def weight_norm_identity_residuals(
    trajectory: Trajectory, series: str = "total", h_shift: float = 0.0
) -> np.ndarray:
    """Per-step residuals of the norm update identity on a single-datapoint run.

    For homogeneity-weight-two models trained on one datapoint with label
    zero, such as the toy (x, y) = (1, 0), the exact identity is
    ``N_{t+1} - N_t == eta * z_t**2 * (eta * (H_t + h_shift) - 4)`` where N
    is the tracked norm (``total`` weight norm, the ReLU ``reduced`` norm, or
    the with-bias ``combined`` quantity with ``h_shift = phi**2``).
    Requires a trajectory recorded with outputs and kernel evaluations at
    every step.  Residuals are normalized by the larger of the norm scale and
    the update magnitude so they are comparable across the run.
    """
    if trajectory.outputs is None:
        raise TrainingError("trajectory must be recorded with record_outputs=True")
    if trajectory.outputs.shape[1] != 1:
        raise TrainingError("the norm update identity applies to single-datapoint runs")
    steps = trajectory.steps_taken
    if not np.array_equal(trajectory.ntk_steps[: steps + 1], np.arange(steps + 1)):
        raise TrainingError("trajectory must record the kernel at every step")

    if series == "total":
        norms = trajectory.weight_norms
    elif series == "reduced":
        if trajectory.reduced_weight_norms is None:
            raise TrainingError("trajectory carries no reduced weight norms")
        norms = trajectory.reduced_weight_norms
    elif series == "combined":
        if trajectory.combined_weight_norms is None:
            raise TrainingError("trajectory carries no combined weight norms")
        norms = trajectory.combined_weight_norms
    else:
        raise TrainingError(f"unknown series {series!r}")

    eta = trajectory.eta
    z = trajectory.outputs[:steps, 0]
    eta_h = trajectory.eta_lambda_max[:steps] + eta * h_shift
    predicted = eta * z**2 * (eta_h - 4.0)
    actual = np.diff(norms[: steps + 1])
    scale = np.maximum(np.abs(norms[:steps]), np.abs(predicted))
    scale = np.maximum(scale, 1e-300)
    return np.abs(actual - predicted) / scale


@dataclass(frozen=True)
class ConsistencyReport:
    """Worst-case relative deviations between recursion and recomputation."""

    max_error_deviation: float
    max_ntk_deviation: float
    max_feature_overlap_deviation: Optional[float]

    @property
    def max_deviation(self) -> float:
        worst = max(self.max_error_deviation, self.max_ntk_deviation)
        if self.max_feature_overlap_deviation is not None:
            worst = max(worst, self.max_feature_overlap_deviation)
        return worst


def quad_update_consistency(
    model: QuadraticModel, dataset: Dataset, eta: float, steps: int
) -> ConsistencyReport:
    """Advance the error/kernel update recursions alongside the simulation.

    The recursions (including the cubic and quartic meta-feature terms) are
    algebraically exact for pure and with-bias quadratic models, so their
    deviation from the values recomputed off the simulated weights measures
    accumulated roundoff only.  For the with-bias variant the closed-form
    accumulation of the feature overlaps ``features @ theta`` is checked as
    well.  Deviations are normalized by the largest magnitude each series
    reaches over the run.  On a diverging trajectory the comparison stops
    before the first step where either the recursion or the recomputed
    values overflow: the recursion's cubic and quartic terms can overflow
    while the simulated weights are still finite, and the reverse.
    """
    if model.variant not in ("pure", "with_bias"):
        raise TrainingError("the update recursions require a pure or with-bias model")
    work = model.clone()
    y = dataset.labels
    d_pts = work.num_points
    psi = work.meta_features
    zeta = work.zeta

    eps_rec = work.outputs() - y
    ntk_rec = work.ntk()

    track_overlap = model.variant == "with_bias"
    if track_overlap:
        phi = work.features
        phi_gram = phi @ phi.T
        overlap0 = phi @ work.theta
        cumulative_errors = np.zeros(d_pts)

    err_dev = ntk_dev = overlap_dev = 0.0
    err_scale = float(np.abs(eps_rec).max())
    ntk_scale = float(np.abs(ntk_rec).max())
    overlap_scale = float(np.abs(overlap0).max()) if track_overlap else 0.0

    for _ in range(steps):
        theta = work.theta

        with np.errstate(over="ignore", invalid="ignore"):
            # Recursion step, evaluated at the pre-update weights.
            meta_theta = psi @ theta  # (D, n)
            contracted = np.einsum("aij,bj->abi", psi, meta_theta)  # psi_a psi_b theta
            # t3[x, y, z] = theta @ psi_x psi_y psi_z @ theta
            t3 = np.einsum("xi,yzi->xyz", meta_theta, contracted)
            eps_next = (
                eps_rec
                - eta * (ntk_rec @ eps_rec)
                + (eta**2 * zeta**3 / (2.0 * d_pts**2))
                * np.einsum("b,g,byg->y", eps_rec, eps_rec, t3)
            )
            cross = np.einsum("g,gab->ab", eps_rec, t3)
            quartic = np.einsum(
                "g,r,agi,bri->ab", eps_rec, eps_rec, contracted, contracted
            )
            ntk_next = (
                ntk_rec
                - (eta * zeta**3 / d_pts**2) * (cross + cross.T)
                + (eta**2 * zeta**4 / d_pts**3) * quartic
            )

            work.apply_gd_step(None, work.outputs() - y, eta)
            eps_true = work.outputs() - y
            ntk_true = work.ntk()
        if not all(np.isfinite(a).all() for a in (eps_next, ntk_next, eps_true, ntk_true)):
            break
        if track_overlap:
            cumulative_errors = cumulative_errors + eps_rec
        eps_rec, ntk_rec = eps_next, ntk_next

        err_scale = max(err_scale, float(np.abs(eps_true).max()))
        ntk_scale = max(ntk_scale, float(np.abs(ntk_true).max()))
        err_dev = max(err_dev, float(np.abs(eps_rec - eps_true).max()))
        ntk_dev = max(ntk_dev, float(np.abs(ntk_rec - ntk_true).max()))
        if track_overlap:
            overlap_pred = overlap0 - (eta / d_pts) * (phi_gram @ cumulative_errors)
            overlap_true = phi @ work.theta
            overlap_scale = max(overlap_scale, float(np.abs(overlap_true).max()))
            overlap_dev = max(
                overlap_dev, float(np.abs(overlap_pred - overlap_true).max())
            )

    return ConsistencyReport(
        max_error_deviation=err_dev / max(err_scale, 1e-300),
        max_ntk_deviation=ntk_dev / max(ntk_scale, 1e-300),
        max_feature_overlap_deviation=(
            overlap_dev / max(overlap_scale, 1e-300) if track_overlap else None
        ),
    )
