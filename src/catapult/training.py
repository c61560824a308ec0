"""Exact full-batch gradient descent under MSE, with trajectory recording.

The trainer owns one model, applies the exact update
``theta_{t+1} = theta_t - (eta/D) * sum_a (z_a - y_a) dz_a/dtheta``
to every trainable tensor of the family, and records the loss, weight-norm
and kernel series needed by the phase analysis, plus the model's certified
norm where its window is proved on a norm other than the weight norm.
Termination is one of ``converged`` (per-step loss change below tolerance),
``diverged`` (loss above threshold or non-finite state) or ``step_limit``.

The module also carries two test-time oracles, each stepping a clone of a
model against closed forms: the weight-norm identity, for every family on
any dataset, and the one-step update recursions of the errors, kernel and
feature overlap of quadratic models, in rank form.  The simulated weights
are the source of truth; the two must agree to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from catapult.datasets import Dataset
from catapult.models import QuadraticModel
from catapult.numerics import lambda_max_symmetric

TERMINATION_CONVERGED = "converged"
TERMINATION_DIVERGED = "diverged"
TERMINATION_STEP_LIMIT = "step_limit"


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """A run's rate and schedule.  Its defaults and checks are those of a
    config's training section; each check's message starts with the field
    it names."""

    eta: float
    max_steps: int = 100_000
    convergence_tol: float = 1e-8
    divergence_threshold: float = 1e10
    ntk_eval_interval: int = 1

    def __post_init__(self):
        if not self.eta > 0.0:
            raise TrainingError("eta: must be positive")
        if self.max_steps < 1:
            raise TrainingError("max_steps: must be at least 1")
        if not self.convergence_tol > 0.0:
            raise TrainingError("convergence_tol: must be positive")
        if not self.divergence_threshold > self.convergence_tol:
            raise TrainingError("divergence_threshold: must exceed convergence_tol")
        if self.ntk_eval_interval < 1:
            raise TrainingError("ntk_eval_interval: must be at least 1")


@dataclass
class Trajectory:
    """Per-step series of one training run.

    All per-step series have length ``steps_taken + 1`` (state before any
    update through the final state).  Kernel evaluations are sparse: entry i
    of ``eta_lambda_max`` was measured at step ``ntk_steps[i]``; gaps are
    explicit, never interpolated.  ``certified_norms`` is the model's
    ``certified_norm`` per step, or None where the model has none.
    """

    losses: np.ndarray
    weight_norms: np.ndarray
    certified_norms: Optional[np.ndarray]
    ntk_steps: np.ndarray
    eta_lambda_max: np.ndarray
    termination: str
    steps_taken: int

    def __post_init__(self):
        expected = self.steps_taken + 1
        for name in ("losses", "weight_norms", "certified_norms"):
            series = getattr(self, name)
            if series is not None and len(series) != expected:
                raise TrainingError(
                    f"{name} has length {len(series)}, expected {expected}"
                )

    @property
    def monotone_norms(self) -> np.ndarray:
        """The norm the model's single-datapoint window is proved on: the
        certified norm where recorded, otherwise the weight norm."""
        return self.weight_norms if self.certified_norms is None else self.certified_norms


def mse_loss(outputs, labels) -> float:
    """Mean-squared error with the 1/(2D) normalization."""
    z = np.asarray(outputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if z.shape != y.shape or z.ndim != 1 or z.size < 1:
        raise TrainingError("outputs and labels must be equal-length vectors")
    err = z - y
    return float(err @ err) / (2.0 * z.size)


def train(model, dataset: Dataset, config: TrainConfig) -> Trajectory:
    """Run full-batch gradient descent until convergence, divergence or the
    step limit, recording the loss/weight-norm series every step and the
    kernel top eigenvalue at the configured interval and at the final step,
    unless the run diverged."""
    x = dataset.inputs
    y = dataset.labels
    eta = config.eta

    track_certified = model.certified_norm(x) is not None

    losses: list[float] = []
    weight_norms: list[float] = []
    certified: list[float] = []
    ntk_steps: list[int] = []
    eta_lambda: list[float] = []

    termination = None
    t = 0
    prev_loss = None
    while True:
        # Divergent runs legitimately overflow on their last couple of
        # steps; the resulting infs are what the divergence check looks for.
        with np.errstate(over="ignore", invalid="ignore"):
            z = model.outputs(x)
            norm = model.weight_norm()
        # a finite norm proves every weight finite; finite weights whose
        # squares overflow keep their inf norm and are not a divergence
        finite = bool(np.isfinite(z).all()) and (
            math.isfinite(norm) or all(np.isfinite(w).all() for w in model.weights())
        )
        loss = mse_loss(z, y) if finite else float("inf")

        losses.append(loss)
        weight_norms.append(norm if finite else float("inf"))
        if track_certified:
            certified.append(model.certified_norm(x))

        # a diverged state is never measured: its weights mean nothing
        if not finite or loss > config.divergence_threshold:
            termination = TERMINATION_DIVERGED
            break
        if prev_loss is not None and abs(loss - prev_loss) < config.convergence_tol:
            termination = TERMINATION_CONVERGED
        elif t == config.max_steps:
            termination = TERMINATION_STEP_LIMIT
        if termination is not None or t % config.ntk_eval_interval == 0:
            ntk_steps.append(t)
            eta_lambda.append(eta * lambda_max_symmetric(model.ntk(x)))
        if termination is not None:
            break

        with np.errstate(over="ignore", invalid="ignore"):
            model.apply_gd_step(x, z - y, eta)
        prev_loss = loss
        t += 1

    return Trajectory(
        losses=np.array(losses),
        weight_norms=np.array(weight_norms),
        certified_norms=np.array(certified) if track_certified else None,
        ntk_steps=np.array(ntk_steps, dtype=np.int64),
        eta_lambda_max=np.array(eta_lambda),
        termination=termination,
        steps_taken=t,
    )


def _euler_terms(model, outputs: np.ndarray) -> np.ndarray:
    """``theta . grad z_a`` on each datapoint.  Euler's relation gives
    ``k z_a`` for outputs homogeneous of degree k in the weights; a quadratic
    model's feature term has degree one, which takes ``phi_a . theta`` off."""
    terms = model.degree * outputs
    if isinstance(model, QuadraticModel):
        terms = terms - model.features @ model.theta
    return terms


def weight_norm_identity_residuals(model, dataset: Dataset, eta: float, steps: int) -> np.ndarray:
    """Per-step residuals of the exact weight-norm identity, stepping a clone
    of the model on the dataset at rate eta for at most ``steps`` steps.

    With e = z - y and ``T_a = theta . grad z_a``, a GD step changes the
    squared weight norm by ``(eta/D) (eta e.H.e - 2 e.T)``; at D = 1, y = 0,
    k = 2 that is ``eta z**2 (eta H - 4)``.  e.H.e is read from ``ntk`` and
    T from the outputs, never from the step's own gradient.  Residuals are
    normalized by the larger of the norm and the predicted change.  Stepping
    stops at the last finite step, so divergent rates can be checked too.
    """
    x, y = dataset.inputs, dataset.labels
    work = model.clone()
    norm = work.weight_norm()
    residuals = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            z = work.outputs(x)
            e = z - y
            predicted = (eta / e.size) * (
                eta * (e @ work.ntk(x) @ e) - 2.0 * (e @ _euler_terms(work, z))
            )
            work.apply_gd_step(x, e, eta)
            after = work.weight_norm()
            if not (np.isfinite(predicted) and np.isfinite(after)):
                break
            scale = max(abs(norm), abs(predicted), 1e-300)
            residuals.append(abs(after - norm - predicted) / scale)
            norm = after
    return np.array(residuals)


@dataclass(frozen=True)
class ConsistencyReport:
    """Worst-case relative one-step deviations between the update recursions
    and recomputation."""

    max_error_deviation: float
    max_ntk_deviation: float
    max_feature_overlap_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(
            self.max_error_deviation,
            self.max_ntk_deviation,
            self.max_feature_overlap_deviation,
        )


def quad_update_consistency(
    model: QuadraticModel, dataset: Dataset, eta: float, steps: int
) -> ConsistencyReport:
    """Predict each GD step of a pure or with-bias quadratic model from the
    exact one-step update recursions, and compare with the simulation.

    With M = psi theta (row a is ``psi_a theta``), s = M^T e and P = psi s
    (row a is ``psi_a s``), the meta-features annihilate the features, so a
    step at rate eta gives exactly

        e'  = e - eta H e + (eta^2 zeta^3 / 2 D^2) P s
        H'  = H - (eta zeta^3 / D^2) (P M^T + M P^T) + (eta^2 zeta^4 / D^3) P P^T
        Phi theta' = Phi theta - (eta / D) Phi Phi^T e

    (the feature overlap is exactly 0 for the pure model).  Each step starts
    from the errors, kernel and overlap recomputed off the simulated weights,
    so a deviation is one step's roundoff, never an accumulated one.
    Outputs are read from psi and theta, never from the step's gradient.
    Deviations are normalized by the largest magnitude each series reaches
    over the run.  The comparison stops at the first non-finite step.
    """
    if model.variant not in ("pure", "with_bias"):
        raise TrainingError("the update recursions require a pure or with-bias model")
    work = model.clone()
    y = dataset.labels
    d_pts = work.num_points
    psi, phi, zeta = work.meta_features, work.features, work.zeta
    phi_gram = phi @ phi.T

    eps, ntk, overlap = work.outputs() - y, work.ntk(), phi @ work.theta
    deviations = np.zeros(3)
    scales = np.array([np.abs(a).max() for a in (eps, ntk, overlap)])
    for _ in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            meta_theta = psi @ work.theta  # M, (D, n)
            s = meta_theta.T @ eps
            p = psi @ s  # P, (D, n)
            cross = p @ meta_theta.T
            predicted = (
                eps - eta * (ntk @ eps) + (eta**2 * zeta**3 / (2.0 * d_pts**2)) * (p @ s),
                ntk
                - (eta * zeta**3 / d_pts**2) * (cross + cross.T)
                + (eta**2 * zeta**4 / d_pts**3) * (p @ p.T),
                overlap - (eta / d_pts) * (phi_gram @ eps),
            )
            work.apply_gd_step(None, eps, eta)
            eps, ntk, overlap = work.outputs() - y, work.ntk(), phi @ work.theta
        recomputed = (eps, ntk, overlap)
        if not all(np.isfinite(a).all() for a in (*predicted, *recomputed)):
            break
        scales = np.maximum(scales, [np.abs(a).max() for a in recomputed])
        deviations = np.maximum(
            deviations, [np.abs(pred - a).max() for pred, a in zip(predicted, recomputed)]
        )

    relative = deviations / np.maximum(scales, 1e-300)
    return ConsistencyReport(*(float(r) for r in relative))
