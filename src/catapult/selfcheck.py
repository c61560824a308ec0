"""Runtime-checkable invariants behind the ``check`` subcommand.

Each check trains a small instance and measures the residual of an identity
that holds exactly (up to roundoff) when the implementation is correct: the
exact per-step change of the squared weight norm for every family, on
several points and non-zero labels where the family takes them (and for
each net family on fewer points than dimensions, where its first layer
steps in the row space of the inputs), the frozen
complement of the ReLU sign split, the one-step error, kernel and
feature-overlap recursions of pure and with-bias quadratic models against
recomputation, a bit-stable kernel and an exact linearized predictor at
zero coupling, the lower edge of every single-datapoint window against the
kernel measured at the datapoint it was given (unit, scaled and negative),
and the contraction eigenvalue of the omega window against the dense matrix
on three datapoints and on one.  A deliberate negative control corrupts the
gradient's slope convention at exactly-zero preactivations and must make
the identity fail; catching it proves the checks have teeth.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from catapult.analysis import linearized_predict
from catapult.bounds import (
    OMEGA_RTOL,
    bound_homogenous_mlp,
    bound_multi_omega,
    bound_pure_quadratic,
    bound_quadratic_with_bias,
    bound_relu,
    omega_dense,
)
from catapult.datasets import (
    Dataset,
    EigenScheme,
    MetaFeatureSpec,
    assemble_quadratic,
    build_meta_features,
    make_random,
    make_toy,
    make_toy_relu,
    zeta_for,
)
from catapult.models import (
    DeepReluNet,
    HomogenousNet,
    QuadraticModel,
    linear_net_with_bias_embedding,
    scale_invariant_slope,
)
from catapult.numerics import Rng, lambda_max_symmetric
from catapult.training import quad_update_consistency, weight_norm_identity_residuals

IDENTITY_TOL = 1e-9
IDENTITY_RATES = (1.0, 3.0, 5.0)  # eta * lambda_max(H_0)
# the loss peaks, or the run diverges, within 20 steps in 719 of the 720
# catapult and divergent runs of seeds 0-59
IDENTITY_STEPS = 20
FREEZE_TOL = 1e-12
NEGATIVE_CONTROL_MIN = 1e-6
WINDOW_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float
    detail: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _quadratic(dataset: Dataset, n_phi: int, map_rng: Rng, theta_rng: Rng) -> QuadraticModel:
    """24 meta-features on the dataset: pure with eigenvalues U[1, 2) and
    zeta = 2/n, or with n_phi features, pm_one eigenvalues and zeta = 1/n_psi."""
    scheme = EigenScheme("pm_one") if n_phi else EigenScheme("uniform", 1.0, 2.0)
    spec = MetaFeatureSpec(n_psi=24, n_phi=n_phi, d=dataset.dim, eigen_scheme=scheme)
    zeta = zeta_for("1_over_n_psi" if n_phi else "2_over_n", 24)
    return assemble_quadratic(build_meta_features(spec, map_rng), dataset, zeta, theta_rng)


def identity_families(seed: int = 0) -> dict:
    """Each family with the dataset its weight-norm identity is checked on:
    8 random 2-d points with non-zero labels, the toy and (4, 2) datapoints,
    and 16 points in d = 10 for the three-layer net (degree 3).  Each net
    family is checked again on fewer points than dimensions (8 points in
    d = 24), where its steps keep the first layer in the inputs' row space."""
    rng = Rng(seed)
    points = make_random(2, 8, 0.5, rng.child(33))
    deep_points = make_random(10, 16, 0.5, rng.child(39))
    wide_points = make_random(24, 8, 0.5, rng.child(40))
    return {
        "pure_quadratic": (_quadratic(points, 0, rng.child(34), rng.child(35)), points),
        "quadratic_with_bias": (_quadratic(points, 6, rng.child(36), rng.child(37)), points),
        "linear_net_with_bias": (linear_net_with_bias_embedding(32, rng.child(6)), make_toy()),
        "homogenous": (HomogenousNet.init_random(64, rng.child(3), 0.5, 1.0, 2), points),
        "relu": (HomogenousNet.init_random(96, rng.child(4), 0.0, 1.0), make_toy_relu()),
        "deep_relu": (DeepReluNet.init_random(32, 10, rng.child(38)), deep_points),
        "relu_row_space": (
            HomogenousNet.init_random(64, rng.child(41), 0.0, 1.0, 24),
            wide_points,
        ),
        "deep_relu_row_space": (DeepReluNet.init_random(32, 24, rng.child(42)), wide_points),
    }


def check_weight_norm_identity(seed: int = 0) -> CheckResult:
    """The exact change of the squared weight norm per GD step, for every
    family at eta * lambda_0 in ``IDENTITY_RATES``, up to ``IDENTITY_STEPS``
    steps or the last finite one."""
    worst, worst_case = 0.0, ""
    for family, (model, dataset) in identity_families(seed).items():
        lambda0 = lambda_max_symmetric(model.ntk(dataset.inputs))
        for rate in IDENTITY_RATES:
            residuals = weight_norm_identity_residuals(
                model, dataset, rate / lambda0, IDENTITY_STEPS
            )
            residual = float(residuals.max(initial=0.0))
            if residual >= worst:
                worst, worst_case = residual, f"{family} at eta*lambda0={rate:g}"
    return CheckResult(
        name="weight_norm_identity",
        passed=worst < IDENTITY_TOL,
        residual=worst,
        threshold=IDENTITY_TOL,
        detail=f"worst: {worst_case}",
    )


def check_relu_frozen_complement(seed: int = 0) -> CheckResult:
    net = HomogenousNet.init_random(64, Rng(seed).child(5), a_minus=0.0, a_plus=1.0)
    dataset = make_toy()
    inactive = ~net.active_on(float(dataset.inputs[0, 0]))
    u_minus_before = net.u[inactive].copy()
    v_minus_before = net.v[inactive].copy()
    eta = 3.0 / float(net.ntk(dataset.inputs)[0, 0])
    drift = 0.0
    for _ in range(200):
        z = net.outputs(dataset.inputs)
        net.apply_gd_step(dataset.inputs, z - dataset.labels, eta)
        drift = max(
            drift,
            float(np.abs(net.u[inactive] - u_minus_before).max(initial=0.0)),
            float(np.abs(net.v[inactive] - v_minus_before).max(initial=0.0)),
        )
    return CheckResult(
        name="relu_frozen_complement",
        passed=drift == 0.0,
        residual=drift,
        threshold=0.0,
        detail="inactive first-layer coordinates must stay bit-identical",
    )


def check_update_recursions(seed: int = 0) -> CheckResult:
    """The one-step error, kernel and feature-overlap recursions of a pure
    and a with-bias quadratic model on four random 2-d points, over 50 steps
    at eta * lambda_0 = 2.5."""
    rng = Rng(seed)
    worst, worst_case = 0.0, ""
    for variant, n_phi, (map_child, x_child, y_child, theta_child) in (
        ("pure", 0, (7, 8, 9, 10)),
        ("with_bias", 6, (11, 12, 13, 14)),
    ):
        dataset = Dataset(
            inputs=rng.child(x_child).uniform(-0.5, 0.5, (4, 2)),
            labels=rng.child(y_child).uniform(-0.5, 0.5, 4),
        )
        model = _quadratic(dataset, n_phi, rng.child(map_child), rng.child(theta_child))
        eta = 2.5 / lambda_max_symmetric(model.ntk())
        report = quad_update_consistency(model, dataset, eta, steps=50)
        if report.max_deviation >= worst:
            worst = report.max_deviation
            worst_case = (
                f"{variant} (errors={report.max_error_deviation:.3e} "
                f"kernel={report.max_ntk_deviation:.3e} "
                f"feature_overlap={report.max_feature_overlap_deviation:.3e})"
            )
    return CheckResult(
        name="update_recursions",
        passed=worst < IDENTITY_TOL,
        residual=worst,
        threshold=IDENTITY_TOL,
        detail=f"worst: {worst_case}",
    )


def check_zero_coupling_linear(seed: int = 0) -> CheckResult:
    """At zero coupling the features are static: over one 100-step run at
    eta * lambda_0 = 0.9 the kernel must stay bit-stable and the errors must
    follow the linearized predictor.  The kernel drift is relative to the
    initial kernel; the error gap is relative to the initial error, because a
    well-conditioned kernel drives the loss to the roundoff floor within the
    run."""
    rng = Rng(seed)
    n, d_pts, steps = 24, 4, 100
    model = QuadraticModel(
        theta=rng.child(18).normal(n),
        features=rng.child(19).normal((d_pts, n)),
        meta_features=np.zeros((d_pts, n, n)),
        zeta=0.0,
        variant="with_bias",
    )
    dataset = Dataset(inputs=np.zeros((d_pts, 1)), labels=rng.child(20).normal(d_pts))
    h0 = model.ntk()
    eta = 0.9 / lambda_max_symmetric(h0)
    prediction = linearized_predict(model, dataset, eta, steps)
    error_scale = float(np.linalg.norm(prediction.predicted_errors[0]))
    kernel_scale = float(np.abs(h0).max())
    sim = model.clone()
    drift = gap = 0.0
    for t in range(steps + 1):
        errors = sim.outputs() - dataset.labels
        drift = max(drift, float(np.abs(sim.ntk() - h0).max()) / kernel_scale)
        gap = max(gap, float(np.linalg.norm(prediction.predicted_errors[t] - errors)) / error_scale)
        sim.apply_gd_step(None, errors, eta)
    residual = max(drift, gap)
    return CheckResult(
        name="zero_coupling_linear",
        passed=residual <= FREEZE_TOL,
        residual=residual,
        threshold=FREEZE_TOL,
        detail=f"kernel_drift={drift:.3e} linearized_errors={gap:.3e}",
    )


def check_single_datapoint_windows(seed: int = 0) -> CheckResult:
    """Every single-datapoint window opens at ``2 / lambda_max(H_0)``, with
    H_0 the kernel the simulator measures on the datapoint.  Checked for the
    four single-datapoint bounds, the reduced-norm one also at slopes
    (0, 2), on the unit toy point, on the (4, 2) ReLU point and on a
    negative input, where a unit-datapoint formula is off by ``x**2`` (and,
    for ReLU, by the active side)."""
    rng = Rng(seed)
    datasets = {
        "toy": make_toy(),
        "toy_relu": make_toy_relu(),
        "negative": Dataset(inputs=[[-0.5]], labels=[0.5]),
    }
    pure_map = build_meta_features(
        MetaFeatureSpec(n_psi=24, n_phi=0, d=1, eigen_scheme=EigenScheme("uniform", 1.0, 2.0)),
        rng.child(22),
    )
    bias_map = build_meta_features(
        MetaFeatureSpec(n_psi=24, n_phi=6, d=1, eigen_scheme=EigenScheme("pm_one")),
        rng.child(23),
    )
    relu = HomogenousNet.init_random(64, rng.child(24), a_minus=0.0, a_plus=1.0)
    leaky = HomogenousNet.init_random(64, rng.child(25), a_minus=0.5, a_plus=1.0)
    scaled_relu = HomogenousNet.init_random(64, rng.child(32), a_minus=0.0, a_plus=2.0)
    worst, worst_case = 0.0, ""
    for label, dataset in datasets.items():
        pure = assemble_quadratic(pure_map, dataset, zeta_for("2_over_n", 24), rng.child(26))
        bias = assemble_quadratic(bias_map, dataset, zeta_for("1_over_n_psi", 24), rng.child(27))
        cases = (
            ("pure_quadratic", bound_pure_quadratic(pure), pure.ntk()),
            ("quadratic_with_bias", bound_quadratic_with_bias(bias), bias.ntk()),
            ("relu", bound_relu(relu, dataset), relu.ntk(dataset.inputs)),
            (
                "scaled_relu",
                bound_relu(scaled_relu, dataset),
                scaled_relu.ntk(dataset.inputs),
            ),
            ("homogenous", bound_homogenous_mlp(leaky, dataset), leaky.ntk(dataset.inputs)),
        )
        for family, report, kernel in cases:
            residual = abs(report.catapult_lower * lambda_max_symmetric(kernel) - 2.0) / 2.0
            if residual >= worst:
                worst, worst_case = residual, f"{family} on {label}"
    return CheckResult(
        name="single_datapoint_window_at_datapoint",
        passed=worst <= WINDOW_EDGE_TOL,
        residual=worst,
        threshold=WINDOW_EDGE_TOL,
        detail=f"worst: {worst_case}; catapult_lower * lambda_max(H_0) must be 2",
    )


def check_omega_dual(seed: int = 0) -> CheckResult:
    """The omega window's ``lambda_max(Omega)``, taken from the n x n dual
    Gram on three datapoints and from psi's cached spectrum on one, against
    the top eigenvalue of the materialized (n D) x (n D) contraction."""
    rng = Rng(seed)
    feature_map = build_meta_features(
        MetaFeatureSpec(n_psi=8, n_phi=0, d=2, eigen_scheme=EigenScheme("uniform", 1.0, 2.0)),
        rng.child(28),
    )
    dataset = Dataset(
        inputs=rng.child(29).uniform(-0.5, 0.5, (3, 2)),
        labels=rng.child(30).uniform(-0.5, 0.5, 3),
    )
    multi = assemble_quadratic(feature_map, dataset, zeta_for("2_over_n", 8), rng.child(31))
    single = _quadratic(make_toy(), 0, Rng(seed).child(1), Rng(seed).child(2))
    worst, worst_case = 0.0, ""
    for label, model in (("3 datapoints", multi), ("1 datapoint", single)):
        exact = lambda_max_symmetric(omega_dense(model))
        value = bound_multi_omega(model).inputs_digest["lambda_max_omega"]
        residual = abs(value - exact) / exact
        if residual >= worst:
            worst, worst_case = residual, label
    return CheckResult(
        name="omega_dual_matches_dense",
        passed=worst <= OMEGA_RTOL,
        residual=worst,
        threshold=OMEGA_RTOL,
        detail=f"worst: {worst_case}; lambda_max(Omega) against the dense contraction",
    )


class _CorruptedZeroSlopeNet(HomogenousNet):
    """A net whose gradient takes slope 1 at exactly-zero preactivations
    while its kernel keeps the documented (a_plus+a_minus)/2 convention."""

    def apply_gd_step(self, inputs, errors: np.ndarray, eta: float) -> None:
        x, _, act = self._forward(inputs)
        pre = x @ self.u.T
        slopes = scale_invariant_slope(pre, self.a_minus, self.a_plus)
        slopes[pre == 0.0] = 1.0
        self._update([(act, None), (slopes * self.v, x)], errors, eta)


def check_negative_control_corrupted_slope(seed: int = 0) -> CheckResult:
    """Corrupt the gradient's slope convention at exactly-zero preactivations
    and demand the weight-norm identity, which reads the step's size off the
    kernel, notices within three steps.  The net is built with one exact
    zero in the first layer (on the active side) so the corrupted branch is
    exercised.  The corrupted gradient scales with the output, so every
    active unit gets a positive output weight: z0 is a sum of positive
    terms, of order one, and no draw can hide the corruption behind a
    near-zero output."""
    rng = Rng(seed).child(21)
    u = rng.normal(32)
    v = np.abs(rng.normal(32))
    u[0] = 0.0
    v[0] = 2.0
    net = _CorruptedZeroSlopeNet(u=u, v=v, a_minus=0.0, a_plus=1.0)
    dataset = make_toy()
    eta = 3.0 / float(net.ntk(dataset.inputs)[0, 0])
    residual = float(weight_norm_identity_residuals(net, dataset, eta, 3).max(initial=0.0))
    return CheckResult(
        name="negative_control_corrupted_zero_slope",
        passed=residual > NEGATIVE_CONTROL_MIN,
        residual=residual,
        threshold=NEGATIVE_CONTROL_MIN,
        detail="the identity must fail when gradient and kernel conventions split",
    )


def run_default_suite(seed: int = 0) -> list[CheckResult]:
    checks = [
        check_weight_norm_identity,
        check_relu_frozen_complement,
        check_update_recursions,
        check_zero_coupling_linear,
        check_single_datapoint_windows,
        check_omega_dual,
        check_negative_control_corrupted_slope,
    ]
    return [fn(seed) for fn in checks]
