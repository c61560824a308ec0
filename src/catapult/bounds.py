"""Certified learning-rate windows for the catapult phase.

Every window is derived by ``BoundReport`` from the same few numbers.  It
opens at the linear stability threshold ``2 / h0``, with ``h0`` the top
eigenvalue of the tangent kernel at initialization as the simulator
measures it, ``lambda_max_symmetric(model.ntk(inputs))``: the experiment's
``lambda0``, so no bound keeps a formula for it.  What a bound derives is
the rest.  The window is certified up to the sufficient (not necessary)
value ``4 * scale / ceiling``, where ``ceiling / scale`` bounds the kernel
by a monotone weight-norm quantity.  Where a matching lower bound
``floor / scale`` exists, rates above ``4 * scale / floor`` are certified
to diverge.  A bound that does not apply raises ``BoundsError``; its
message is the skip reason ``collect_bound_reports`` records.

Single-datapoint bounds are proven; so are the multi-datapoint contraction
bound (``omega``) and the sample-Gram bound for homogenous nets
(``mlp_multi``), both up to dropped corrections of the size of the quadratic
coupling.  The effective-feature methods (``psi_eff``, ``bias_eff``) rest on
a frozen-top-eigenvector approximation and are flagged heuristic in every
report; the artifact never presents them as guarantees.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from catapult.datasets import Dataset
from catapult.models import HomogenousNet, QuadraticModel, _symmetrize, psi_matrices
from catapult.numerics import lambda_max_symmetric, sym_eigen

# perfbench/tracing.py wraps this name; nothing calls it.
power_iteration_lambda_max = None

# Relative accuracy the contraction's top eigenvalue is tested to, against
# the dense oracle and the single-datapoint closed form; recorded in every
# omega report as ``power_tol``.
OMEGA_RTOL = 1e-12

# Relative gap below which the top kernel eigenvalue is treated as degenerate
# for the effective-feature construction.
DEGENERACY_RTOL = 1e-10

NOTE_DROPPED_CORRECTIONS = (
    "upper value drops correction terms of the order of the squared quadratic "
    "coupling (1/width for nets); it is evaluated at the leading-order formula"
)
NOTE_RELU_EMPIRICAL = (
    "no guarantee above this window: on (x, y) = (4, 2) each run above it "
    "converges with sweep outcome fit or dead (no active neuron, loss "
    "y**2/2, kernel 0), and the dead share grows with the rate "
    "(width 512, 50 seeds: 21 dead at eta*H0 = 4, 49 at 12)"
)
MULTI_POINT = "dataset has more than one datapoint"


class BoundsError(ValueError):
    pass


@dataclass
class BoundReport:
    """One certified (or heuristic) learning-rate window.

    Built from ``h0``, the measured kernel's top eigenvalue, and the derived
    ceiling (and floor, where one is known); derives every edge and
    ``window_nonempty``, which records whether the sufficient upper value
    exceeds the stability threshold.  An empty window is a valid outcome
    that simply certifies nothing above the lazy regime; a vanishing kernel
    admits no window at all.
    """

    method: str
    h0: float
    ceiling: InitVar[float]
    proven: bool
    inputs_digest: dict
    notes: list[str] = field(default_factory=list)
    floor: InitVar[Optional[float]] = None
    scale: InitVar[float] = 1.0
    catapult_lower: float = field(init=False)
    sufficient_upper: float = field(init=False)
    divergence_lower: Optional[float] = field(init=False)
    window_nonempty: bool = field(init=False)

    def __post_init__(self, ceiling: float, floor: Optional[float], scale: float):
        if not self.h0 > 0.0:
            raise BoundsError("kernel vanishes at initialization; no window exists")
        if not (ceiling > 0.0 and (floor is None or floor > 0.0)):
            raise BoundsError("bound edges must be positive")
        self.catapult_lower = 2.0 / self.h0
        self.sufficient_upper = 4.0 * scale / ceiling
        self.divergence_lower = None if floor is None else 4.0 * scale / floor
        self.window_nonempty = self.sufficient_upper > self.catapult_lower
        if (
            self.divergence_lower is not None
            and self.divergence_lower < self.sufficient_upper
        ):
            raise BoundsError("divergence bound cannot undercut the sufficient bound")

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "catapult_lower": self.catapult_lower,
            "sufficient_upper": self.sufficient_upper,
            "divergence_lower": self.divergence_lower,
            "window_nonempty": self.window_nonempty,
            "proven": self.proven,
            "inputs_digest": dict(self.inputs_digest),
            "notes": list(self.notes),
        }


def _psi_square_extremes(model: QuadraticModel) -> tuple[float, float, np.ndarray]:
    """Largest and smallest squared eigenvalue of a one-datapoint model's
    meta-feature matrix, and all the squares, read off the model's cached
    spectrum."""
    squares = model.psi_spectrum**2
    return float(squares.max()), float(squares.min()), squares


def _with_bias_ceiling(
    phi_sq: float, overlap_sq: float, theta_sq: float, zeta: float, lam_psi_sq: float
) -> float:
    """Kernel ceiling of the with-bias bounds:
    ``2 phi**2 + zeta**2 lambda(psi**2) (theta**2 + (phi.theta)**2 / phi**2)``."""
    return 2.0 * phi_sq + zeta**2 * lam_psi_sq * (theta_sq + overlap_sq / phi_sq)


# ---------------------------------------------------------------------------
# Single-datapoint bounds
# ---------------------------------------------------------------------------


def bound_pure_quadratic(model: QuadraticModel) -> BoundReport:
    """Window for the pure quadratic model on one datapoint.

    The kernel satisfies ``H_t <= zeta**2 lambda_max(psi**2) theta_t**2``, so
    the window's upper edge is ``4 / (zeta**2 theta0**2 lambda_max(psi**2))``;
    the mirrored bound with the minimal eigenvalue certifies divergence.
    When all eigenvalue magnitudes agree the two coincide and the uncertain
    region between them has zero size.

    A step moves the weight norm by ``eta e (eta H e - 4 z)``, e = z - y, so
    it falls at step t exactly when ``eta H_t < 4 z_t / e_t``: at label 0 at
    every step inside the window, so there the norm falls monotonically.  At
    other labels it need not: with n = 1000, a [1, 2] spectrum, labels in
    {±0.5, ±2, ±10} and six rates inside each window, all 108 runs
    converged, but the norm rose at up to 123 steps of a run.
    """
    if model.variant != "pure":
        raise BoundsError("this window applies to the pure variant")
    if model.num_points != 1:
        raise BoundsError(MULTI_POINT)
    if model.zeta <= 0.0:
        raise BoundsError("the pure-model window requires a positive coupling")
    lam_max_sq, lam_min_sq, squares = _psi_square_extremes(model)
    theta_sq = model.weight_norm()
    h0 = lambda_max_symmetric(model.ntk())

    floor = None
    if lam_min_sq > 1e-12 * lam_max_sq:
        floor = model.zeta**2 * theta_sq * lam_min_sq
    expected_nonempty = lam_max_sq < (2.0 / model.n) * float(squares.sum())
    return BoundReport(
        method="single_datapoint",
        h0=h0,
        ceiling=model.zeta**2 * theta_sq * lam_max_sq,
        floor=floor,
        proven=True,
        inputs_digest={
            "family": "pure_quadratic",
            "n": model.n,
            "num_points": 1,
            "zeta": model.zeta,
            "theta0_sq": theta_sq,
            "lambda_max_psi_sq": lam_max_sq,
            "lambda_min_psi_sq": lam_min_sq,
            "h0": h0,
            "window_nonempty_in_expectation": expected_nonempty,
        },
    )


def bound_quadratic_with_bias(model: QuadraticModel) -> BoundReport:
    """Window for the with-bias quadratic model on one datapoint.

    The monotone quantity is the combined norm
    ``C = theta**2 + (phi.theta)**2 / phi**2`` (the model's
    ``certified_norm``).  With e = z - y, a step moves it by exactly
    ``eta e (eta e (H + phi**2) - 4 z)``: the weight-norm identity with the
    kernel shifted by the squared feature norm, at any label.  Bounding the
    kernel by C yields
    ``4 / (2 phi**2 + zeta**2 lambda_max(psi**2) (theta0**2 + (phi.theta0)**2/phi**2))``.
    """
    if model.variant != "with_bias":
        raise BoundsError("this window applies to the with-bias variant")
    if model.num_points != 1:
        raise BoundsError(MULTI_POINT)
    phi = model.features[0]
    phi_sq = float(phi @ phi)
    if phi_sq == 0.0:
        raise BoundsError("feature vector vanishes; use the pure-model window")
    lam_max_sq, _, _ = _psi_square_extremes(model)
    theta_sq = model.weight_norm()
    overlap_sq = float(phi @ model.theta) ** 2
    h0 = lambda_max_symmetric(model.ntk())
    return BoundReport(
        method="single_datapoint",
        h0=h0,
        ceiling=_with_bias_ceiling(phi_sq, overlap_sq, theta_sq, model.zeta, lam_max_sq),
        proven=True,
        inputs_digest={
            "family": "quadratic_with_bias",
            "n": model.n,
            "num_points": 1,
            "zeta": model.zeta,
            "theta0_sq": theta_sq,
            "phi_sq": phi_sq,
            "feature_overlap_sq": overlap_sq,
            "lambda_max_psi_sq": lam_max_sq,
            "h0": h0,
        },
    )


def _single_input(net: HomogenousNet, dataset: Dataset, window: str) -> float:
    """The scalar input of a one-datapoint, 1d dataset.  The kernel of a
    two-layer homogenous net carries a factor ``x**2``, so ``x = 0`` admits
    no window."""
    if net.input_dim != 1 or dataset.dim != 1 or dataset.size != 1:
        raise BoundsError(f"{window} requires one 1d datapoint")
    x = float(dataset.inputs[0, 0])
    if x == 0.0:
        raise BoundsError("the datapoint is x = 0, where the kernel vanishes; no window exists")
    return x


def bound_homogenous_mlp(net: HomogenousNet, dataset: Dataset) -> BoundReport:
    """Window for a two-layer scale-invariant net with a non-zero negative
    slope on one 1d datapoint x.

    The kernel is bounded by ``a_plus**2 x**2 theta_t**2 / n`` above and by
    ``a_minus**2 x**2 theta_t**2 / n`` below; the first gives the sufficient
    upper value ``4 n / (a_plus**2 x**2 theta0**2)`` and the second a
    certified divergence threshold.  With equal slopes (a linear net) the
    window between them shrinks to zero size.  Nets with a zero negative
    slope, such as ReLU, get the reduced-norm window of ``bound_relu``.
    """
    if net.a_minus == 0.0:
        raise BoundsError(
            "this window applies to nets with a non-zero negative slope; "
            "bound_relu covers a zero one"
        )
    x = _single_input(net, dataset, "the single-datapoint window")
    x_sq = x * x
    theta_sq = net.weight_norm()
    h0 = lambda_max_symmetric(net.ntk(dataset.inputs))
    return BoundReport(
        method="single_datapoint",
        h0=h0,
        ceiling=net.a_plus**2 * x_sq * theta_sq,
        floor=net.a_minus**2 * x_sq * theta_sq,
        scale=net.width,
        proven=True,
        inputs_digest={
            "family": "homogenous",
            "n": net.width,
            "num_points": 1,
            "x": x,
            "a_minus": net.a_minus,
            "a_plus": net.a_plus,
            "theta0_sq": theta_sq,
            "h0": h0,
        },
    )


def bound_relu(net: HomogenousNet, dataset: Dataset) -> BoundReport:
    """Window for a two-layer net with slopes (0, a_plus), such as ReLU, on
    one 1d datapoint x.

    Only the neurons active at initialization (``u_i x >= 0``) ever move, so
    the argument runs on the reduced weight norm over them (the net's
    ``certified_norm``), and the kernel is at most
    ``a_plus**2 * x**2 * reduced / n``.  At initialization the measured
    kernel ``H_0`` equals that ceiling on a net with no exactly-zero
    first-layer weight, which makes the certified window ``(2/H_0, 4/H_0)``.

    A step moves the reduced norm by ``eta e (eta H e - 4 z)``, e = z - y,
    so it falls at step t exactly when ``eta H_t < 4 z_t / e_t``: at label 0
    at every step inside the window.  On (4, 2), width 128, seeds 0-9 and
    four rates evenly inside it, all 40 runs converge; the reduced norm never
    rises where the condition holds, but by up to 7% of its start elsewhere.
    """
    if net.a_minus != 0.0:
        raise BoundsError("this window applies to nets with a zero negative slope")
    x = _single_input(net, dataset, "the ReLU window")
    reduced = net.certified_norm(dataset.inputs)
    if reduced == 0.0:
        raise BoundsError(
            "no first-layer weight is active on the datapoint at initialization; "
            "the net is frozen and no window exists"
        )
    h0 = lambda_max_symmetric(net.ntk(dataset.inputs))
    return BoundReport(
        method="single_datapoint",
        h0=h0,
        ceiling=net.a_plus**2 * x * x * reduced / net.width,
        proven=True,
        inputs_digest={
            "family": "relu",
            "n": net.width,
            "num_points": 1,
            "x": x,
            "reduced_theta0_sq": reduced,
            "h0": h0,
            "active_fraction": float(net.active_on(x).mean()),
        },
        notes=[NOTE_RELU_EMPIRICAL],
    )


# ---------------------------------------------------------------------------
# Multi-datapoint bounds
# ---------------------------------------------------------------------------


def omega_dense(model: QuadraticModel) -> np.ndarray:
    """Materialized contraction matrix; quadratic in memory, test-scale only.
    The oracle that ``bound_multi_omega``'s dual value is checked against."""
    psi = psi_matrices(model.meta_features)
    d_pts, n, _ = psi.shape
    dense = np.einsum("aij,bjk->aibk", psi, psi) * (model.zeta**2 / d_pts)
    return dense.reshape(d_pts * n, d_pts * n)


def bound_multi_omega(model: QuadraticModel) -> BoundReport:
    """Multi-datapoint window for the pure model via the contraction operator.

    Sandwiching any unit direction of the error vector through the
    contraction gives ``sum_ab e_a e_b H_ab <= lambda_max(Omega) theta**2``,
    so rates below ``4 / (lambda_max(Omega) theta0**2)`` keep the norm
    decreasing whenever the loss is large.  Reduces to the single-datapoint
    formula at one datapoint.

    Every ``psi_a`` is symmetric, so ``Omega = (zeta**2 / D) P P^T`` with
    ``P = psi.reshape(D * n, n)``; its nonzero spectrum is that of the n x n
    Gram ``P^T P = sum_a psi_a**2``, which gives ``lambda_max(Omega)``
    exactly from one eigenvalues-only solve.  On one datapoint
    ``Omega = zeta**2 psi**2``, so its top eigenvalue is ``zeta**2`` times
    the largest squared eigenvalue of psi, read off the model's cached
    spectrum: the single-datapoint formula, from the same spectrum.  On
    several datapoints with diagonal meta-features ``psi_a = diag(mu_a)``
    the Gram is ``diag(sum_a mu_a**2)``, so its top eigenvalue is
    ``max_j sum_a mu_aj**2``, O(D n) with no dense view.
    """
    if model.variant != "pure":
        raise BoundsError("the contraction window applies to the pure variant")
    if model.zeta <= 0.0:
        raise BoundsError("the contraction window requires a positive coupling")
    theta_sq = model.weight_norm()
    d_pts, n = model.num_points, model.n
    if d_pts == 1:
        lam_max_sq, _, _ = _psi_square_extremes(model)
        lam_omega = model.zeta**2 * lam_max_sq
    elif model.diagonal:
        mu = model.meta_features
        lam_omega = model.zeta**2 / d_pts * float(np.einsum("aj,aj->j", mu, mu).max())
    else:
        push = model.meta_features.reshape(d_pts * n, n)
        # ``a.T @ a`` runs as one symmetric rank-k update, stored exactly symmetric
        lam_omega = model.zeta**2 / d_pts * lambda_max_symmetric(push.T @ push)
    if lam_omega <= 0.0:
        raise BoundsError("contraction operator has zero top eigenvalue")
    lam0 = lambda_max_symmetric(model.ntk())
    return BoundReport(
        method="omega",
        h0=lam0,
        ceiling=lam_omega * theta_sq,
        proven=True,
        inputs_digest={
            "family": "pure_quadratic",
            "n": model.n,
            "num_points": model.num_points,
            "zeta": model.zeta,
            "theta0_sq": theta_sq,
            "lambda_max_omega": lam_omega,
            "lambda_max_h0": lam0,
            # no iteration runs; perfbench/run.py and perfbench/verify.py
            # read both keys
            "power_iterations": 0,
            "power_tol": OMEGA_RTOL,
        },
        notes=[NOTE_DROPPED_CORRECTIONS],
    )


def _pool_along_top_eigenvector(model: QuadraticModel):
    """``(lam0, top, lam_eff_sq, degenerate, notes)``: the kernel's top
    eigenvalue and eigenvector at initialization, the top squared eigenvalue
    of the meta-features pooled along that eigenvector, whether the top
    eigenspace is degenerate, and the notes every pooled report carries.
    On one datapoint the pooled matrix is +-psi, whose squared spectrum the
    model caches, so no pooled matrix is built.  On several, diagonal
    meta-features ``psi_a = diag(mu_a)`` pool to the diagonal
    ``top @ mu / sqrt(D)``, whose squared spectrum is
    ``(sum_a top_a mu_aj)**2 / D``; dense ones are pooled and solved."""
    h0 = model.ntk()
    evals, evecs = sym_eigen(h0)
    top = evecs[:, 0]
    degenerate = (
        h0.shape[0] > 1
        and evals[0] - evals[1] <= DEGENERACY_RTOL * max(abs(evals[0]), 1.0)
    )
    if model.num_points == 1:
        lam_eff_sq, _, _ = _psi_square_extremes(model)
    elif model.diagonal:
        lam_eff_sq = float(((top @ model.meta_features) ** 2).max()) / model.num_points
    else:
        pooled = np.einsum("a,aij->ij", top, model.meta_features) / np.sqrt(model.num_points)
        eff = _symmetrize(pooled)
        lam_eff_sq = float((np.linalg.eigvalsh(eff) ** 2).max())
    notes = [
        "heuristic: assumes the kernel's top eigenvector stays frozen while "
        "the loss grows",
        NOTE_DROPPED_CORRECTIONS,
    ]
    if degenerate:
        notes.append(
            "top kernel eigenspace is degenerate; deterministically tie-broken "
            "to the first eigenvector of the sorted eigendecomposition"
        )
    return lambda_max_symmetric(h0), top, lam_eff_sq, degenerate, notes


def bound_multi_psi_eff(model: QuadraticModel) -> BoundReport:
    """Multi-datapoint window from the effective meta-feature matrix.

    Pools the meta-features along the kernel's top eigenvector at
    initialization and applies the single-datapoint formula to the pooled
    matrix.  The pooling direction is assumed frozen during the growth
    phase, which is an approximation, so the report is flagged heuristic.
    At one datapoint the pooled matrix is +-psi: the report reads the
    model's cached spectrum and reduces to the single-datapoint formula.
    """
    if model.variant != "pure":
        raise BoundsError("the effective-feature window applies to the pure variant")
    if model.zeta <= 0.0:
        raise BoundsError("the effective-feature window requires a positive coupling")
    theta_sq = model.weight_norm()
    lam0, _, lam_eff_sq, degenerate, notes = _pool_along_top_eigenvector(model)
    if lam_eff_sq <= 0.0:
        raise BoundsError("effective meta-feature matrix vanishes")
    return BoundReport(
        method="psi_eff",
        h0=lam0,
        ceiling=model.zeta**2 * theta_sq * lam_eff_sq,
        proven=False,
        inputs_digest={
            "family": "pure_quadratic",
            "n": model.n,
            "num_points": model.num_points,
            "zeta": model.zeta,
            "theta0_sq": theta_sq,
            "lambda_max_psi_eff_sq": lam_eff_sq,
            "lambda_max_h0": lam0,
            "top_eigenspace_degenerate": degenerate,
        },
        notes=notes,
    )


def bound_multi_bias_eff(model: QuadraticModel) -> BoundReport:
    """Multi-datapoint window for the with-bias model via pooled features.

    Pools both feature functions along the kernel's top eigenvector and
    applies the single-datapoint with-bias formula to the pooled pair.
    Flagged heuristic for the same frozen-eigenvector reason as the pure
    effective-feature method.  If the pooled feature vector vanishes the
    pure pooled formula is used instead and the fallback is flagged.
    """
    if model.variant != "with_bias":
        raise BoundsError("this window applies to the with-bias variant")
    theta_sq = model.weight_norm()
    lam0, top, lam_eff_sq, degenerate, notes = _pool_along_top_eigenvector(model)
    eff_phi = (top @ model.features) / np.sqrt(model.num_points)
    phi_sq = float(eff_phi @ eff_phi)
    if phi_sq == 0.0:
        if model.zeta <= 0.0 or lam_eff_sq <= 0.0:
            raise BoundsError("pooled features and meta-features both vanish")
        ceiling = model.zeta**2 * theta_sq * lam_eff_sq
        notes.append(
            "pooled feature vector vanishes; fell back to the pure pooled formula"
        )
    else:
        overlap_sq = float(eff_phi @ model.theta) ** 2
        ceiling = _with_bias_ceiling(
            phi_sq, overlap_sq, theta_sq, model.zeta, lam_eff_sq
        )
    return BoundReport(
        method="bias_eff",
        h0=lam0,
        ceiling=ceiling,
        proven=False,
        inputs_digest={
            "family": "quadratic_with_bias",
            "n": model.n,
            "num_points": model.num_points,
            "zeta": model.zeta,
            "theta0_sq": theta_sq,
            "phi_eff_sq": phi_sq,
            "lambda_max_psi_eff_sq": lam_eff_sq,
            "lambda_max_h0": lam0,
            "top_eigenspace_degenerate": degenerate,
        },
        notes=notes,
    )


def bound_mlp_multi(net: HomogenousNet, dataset: Dataset) -> BoundReport:
    """Multi-datapoint window for two-layer scale-invariant nets.

    Bounding the kernel through the sample Gram matrix gives
    ``4 n D / (a_plus**2 lambda_max(X X^T) theta0**2)``.  Requires a
    non-zero negative slope; reduces to the single-datapoint formula on the
    unit datapoint.
    """
    if net.a_minus <= 0.0:
        raise BoundsError("requires a positive negative slope")
    x = dataset.inputs
    gram = x @ x.T
    lam_gram = lambda_max_symmetric(_symmetrize(gram))
    if lam_gram <= 0.0:
        raise BoundsError("sample Gram matrix vanishes")
    theta_sq = net.weight_norm()
    lam0 = lambda_max_symmetric(net.ntk(x))
    return BoundReport(
        method="mlp_multi",
        h0=lam0,
        ceiling=net.a_plus**2 * lam_gram * theta_sq,
        scale=net.width * dataset.size,
        proven=True,
        inputs_digest={
            "family": "homogenous",
            "n": net.width,
            "num_points": dataset.size,
            "a_minus": net.a_minus,
            "a_plus": net.a_plus,
            "theta0_sq": theta_sq,
            "lambda_max_sample_gram": lam_gram,
            "lambda_max_h0": lam0,
        },
        notes=[NOTE_DROPPED_CORRECTIONS],
    )


# ---------------------------------------------------------------------------
# Report collection for the CLI
# ---------------------------------------------------------------------------


def collect_bound_reports(model, dataset: Dataset):
    """Every bound for the model's family, plus skip reasons.

    Returns ``(reports, skipped)`` where ``skipped`` lists
    ``{"method": ..., "reason": ...}`` entries, one per bound that raised
    ``BoundsError``, with its message as the reason.  Each bound decides its
    own applicability.  Bounds are looked up by module name at call time.
    """
    if isinstance(model, HomogenousNet):
        single = bound_relu if model.a_minus == 0.0 else bound_homogenous_mlp
        attempts = [("single_datapoint", single), ("mlp_multi", bound_mlp_multi)]
        args = (model, dataset)
    elif isinstance(model, QuadraticModel) and model.variant == "pure":
        attempts = [
            ("single_datapoint", bound_pure_quadratic),
            ("omega", bound_multi_omega),
            ("psi_eff", bound_multi_psi_eff),
        ]
        args = (model,)
    elif isinstance(model, QuadraticModel) and model.variant == "with_bias":
        attempts = [
            ("single_datapoint", bound_quadratic_with_bias),
            ("bias_eff", bound_multi_bias_eff),
        ]
        args = (model,)
    elif isinstance(model, QuadraticModel):
        reason = "generic quadratic models carry no guarantees"
        return [], [{"method": "all", "reason": reason}]
    else:
        reason = "no learning-rate guarantees exist for deep ReLU nets"
        return [], [{"method": "all", "reason": reason}]

    reports: list[BoundReport] = []
    skipped: list[dict] = []
    for name, bound in attempts:
        try:
            reports.append(bound(*args))
        except BoundsError as exc:
            skipped.append({"method": name, "reason": str(exc)})
    return reports, skipped
