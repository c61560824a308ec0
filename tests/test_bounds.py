import math

import numpy as np
import pytest

from catapult.bounds import (
    BoundsError,
    bound_homogenous_mlp,
    bound_mlp_multi,
    bound_multi_bias_eff,
    bound_multi_omega,
    bound_multi_psi_eff,
    bound_pure_quadratic,
    bound_quadratic_with_bias,
    bound_relu,
    collect_bound_reports,
    omega_dense,
)
from catapult.cli import normalize_config, resolve_experiment
from catapult.datasets import (
    Dataset,
    EigenScheme,
    MetaFeatureSpec,
    TeacherStudentSpec,
    assemble_quadratic,
    build_meta_features,
    make_random,
    make_teacher_student,
    make_toy,
    make_toy_relu,
    zeta_for,
)
from catapult.models import (
    HomogenousNet,
    ModelError,
    QuadraticModel,
    linear_net_with_bias_embedding,
)
from catapult.numerics import Rng, lambda_max_symmetric
from conftest import pure_toy_quadratic, random_quadratic, with_bias_toy_quadratic


def exchange_model(theta=(1.0, 1.0)):
    return QuadraticModel(
        theta=list(theta),
        features=np.zeros((1, 2)),
        meta_features=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
        zeta=1.0,
        variant="pure",
    )


class TestPureQuadraticBound:
    def test_exchange_hand_values(self):
        report = bound_pure_quadratic(exchange_model())
        assert report.catapult_lower == pytest.approx(1.0)
        assert report.sufficient_upper == pytest.approx(2.0)
        assert report.divergence_lower == pytest.approx(2.0)
        assert report.proven

    def test_equal_magnitude_spectrum_gives_zero_size_uncertain_region(self):
        # all eigenvalue magnitudes equal (the linear-net case): the region
        # between the sufficient bound and the divergence bound vanishes
        m = pure_toy_quadratic(32, seed=0, scheme=EigenScheme("pm_one"))
        report = bound_pure_quadratic(m)
        assert report.sufficient_upper == pytest.approx(report.divergence_lower, rel=1e-12)

    def test_expectation_feasibility_flag(self):
        m = pure_toy_quadratic(64, seed=1, scheme=EigenScheme("uniform", 1.0, 1.2))
        report = bound_pure_quadratic(m)
        psi = m.meta_features[0]
        squares = np.linalg.eigvalsh(psi) ** 2
        expected = squares.max() < 2.0 / m.n * squares.sum()
        assert report.inputs_digest["window_nonempty_in_expectation"] == expected
        assert expected  # the narrow spectrum satisfies it comfortably

    def test_ordering_divergence_above_sufficient(self):
        for seed in range(6):
            report = bound_pure_quadratic(pure_toy_quadratic(48, seed=seed))
            assert report.divergence_lower >= report.sufficient_upper

    def test_rejects_with_bias_variant(self):
        m = with_bias_toy_quadratic(16, 4, seed=0)
        with pytest.raises(BoundsError):
            bound_pure_quadratic(m)


class TestWithBiasBound:
    def test_zero_bias_closed_form(self):
        m = linear_net_with_bias_embedding(20, Rng(3).child(1), bias0=0.0)
        report = bound_quadratic_with_bias(m)
        h0 = float(m.ntk()[0, 0])
        assert abs(report.sufficient_upper - 4.0 / (h0 + 1.0)) <= 1e-12 * report.sufficient_upper

    def test_zero_coupling_limit(self):
        # as the coupling vanishes the formula tends to 4 / (2 phi^2)
        rng = Rng(4)
        n = 6
        phi = np.zeros((1, n))
        phi[0, n - 1] = 2.0
        psi = np.zeros((1, n, n))
        psi[0, 0, 1] = psi[0, 1, 0] = 1.0
        m = QuadraticModel(
            theta=rng.normal(n), features=phi, meta_features=psi, zeta=0.0,
            variant="with_bias",
        )
        report = bound_quadratic_with_bias(m)
        assert report.sufficient_upper == pytest.approx(4.0 / (2.0 * 4.0))

    def test_hand_evaluated_denominator(self):
        # three weights: features on the last coordinate, meta-features on
        # the first two
        theta = np.array([1.0, 2.0, -1.0])
        phi = np.array([[0.0, 0.0, 1.0]])
        psi = np.zeros((1, 3, 3))
        psi[0, 0, 1] = psi[0, 1, 0] = 1.0  # exchange block: lambda = +/-1
        zeta = 0.5
        m = QuadraticModel(theta=theta, features=phi, meta_features=psi, zeta=zeta,
                           variant="with_bias")
        report = bound_quadratic_with_bias(m)
        phi_sq = 1.0
        overlap_sq = (-1.0) ** 2
        denominator = 2.0 * phi_sq + zeta**2 * 1.0 * (6.0 + overlap_sq / phi_sq)
        assert report.sufficient_upper == pytest.approx(4.0 / denominator, rel=1e-14)

    def test_rejects_zero_features(self):
        m = pure_toy_quadratic(16, seed=0)
        object.__setattr__(m, "variant", "with_bias")  # bypass construction path
        with pytest.raises(BoundsError):
            bound_quadratic_with_bias(m)


class TestHomogenousBound:
    def test_linear_activation_window_edges_coincide(self):
        net = HomogenousNet.init_random(64, Rng(5), a_minus=1.0, a_plus=1.0)
        report = bound_homogenous_mlp(net, make_toy())
        expected = 4.0 * 64 / net.weight_norm()
        assert report.sufficient_upper == pytest.approx(expected, rel=1e-14)
        assert report.divergence_lower == pytest.approx(expected, rel=1e-14)

    def test_single_neuron_hand_value(self):
        net = HomogenousNet(u=np.array([2.0]), v=np.array([1.0]), a_minus=0.5, a_plus=1.0)
        report = bound_homogenous_mlp(net, make_toy())
        assert report.sufficient_upper == pytest.approx(0.8)

    def test_expected_window_iff_negative_slope(self):
        # E[2 H0 - a_plus^2 theta0^2 / n] = 2 a_minus^2, so the window is
        # non-empty on average exactly when the negative slope is non-zero
        def mc_margin(a_minus):
            vals = []
            for seed in range(800):
                net = HomogenousNet.init_random(32, Rng(seed), a_minus, 1.0)
                h0 = float(net.ntk([[1.0]])[0, 0])
                vals.append(2 * h0 - net.weight_norm() / 32.0)
            vals = np.array(vals)
            return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)

        mean_relu, se_relu = mc_margin(0.0)
        assert abs(mean_relu - 0.0) < 3.0 * se_relu
        mean_leaky, se_leaky = mc_margin(0.5)
        assert mean_leaky - 2.0 * 0.25 > -3.0 * se_leaky
        assert mean_leaky > 3.0 * se_leaky

    def test_zero_negative_slope_is_left_to_bound_relu(self):
        net = HomogenousNet.init_random(32, Rng(6), a_minus=0.0, a_plus=1.0)
        with pytest.raises(BoundsError, match="bound_relu"):
            bound_homogenous_mlp(net, make_toy())


class TestReluBound:
    def test_window_edges_are_two_and_four_over_h0(self):
        net = HomogenousNet.init_random(64, Rng(7), a_minus=0.0, a_plus=1.0)
        report = bound_relu(net, make_toy())
        h0 = report.inputs_digest["h0"]
        assert report.catapult_lower == pytest.approx(2.0 / h0, rel=1e-14)
        assert report.sufficient_upper == pytest.approx(4.0 / h0, rel=1e-14)
        assert report.window_nonempty

    def test_hand_case(self):
        net = HomogenousNet(
            u=np.array([1.0, -1.0]), v=np.array([1.0, 1.0]), a_minus=0.0, a_plus=1.0
        )
        report = bound_relu(net, make_toy())
        assert report.inputs_digest["h0"] == pytest.approx(1.0)
        assert (report.catapult_lower, report.sufficient_upper) == pytest.approx((2.0, 4.0))

    def test_reduced_norm_matches_kernel_at_initialization(self):
        net = HomogenousNet.init_random(128, Rng(8), a_minus=0.0, a_plus=1.0)
        report = bound_relu(net, make_toy())
        kernel_h0 = float(net.ntk([[1.0]])[0, 0])
        assert report.inputs_digest["h0"] == pytest.approx(kernel_h0, rel=1e-12)

    def test_empirical_note_attached(self):
        net = HomogenousNet.init_random(16, Rng(9), a_minus=0.0, a_plus=1.0)
        report = bound_relu(net, make_toy())
        assert any("no guarantee" in note for note in report.notes)

    def test_all_negative_first_layer_rejected(self):
        net = HomogenousNet(
            u=-np.abs(Rng(10).normal(8)), v=Rng(11).normal(8), a_minus=0.0, a_plus=1.0
        )
        with pytest.raises(BoundsError):
            bound_relu(net, make_toy())

    @pytest.mark.parametrize("x", [0.5, -0.5, 4.0])
    def test_exact_zero_first_layer_weight(self, x):
        # u = 0 sits at the kink on either sign of x: it moves at the midpoint
        # slope, so it belongs to the reduced norm and enters H0 at a_plus/2
        net = HomogenousNet(
            u=np.array([0.0, -1.0, -0.3, 0.7, 1.2]),
            v=np.array([1.0, 0.5, -0.2, 0.3, 0.8]),
            a_minus=0.0,
            a_plus=1.0,
        )
        dataset = Dataset(inputs=[[x]], labels=[0.5])
        inputs = dataset.inputs
        report = bound_relu(net, dataset)
        h0 = lambda_max_symmetric(net.ntk(inputs))
        assert report.catapult_lower * h0 == pytest.approx(2.0, abs=1e-12)
        reduced = net.certified_norm(inputs)
        ceiling = x * x * reduced / net.width
        assert report.sufficient_upper == pytest.approx(4.0 / ceiling, rel=1e-14)
        # one step at eta moves the reduced norm by eta e (eta H e - 4 z)
        eta = 1.0 / h0
        for _ in range(5):
            z = net.outputs(inputs)
            e = float(z[0] - dataset.labels[0])
            predicted = eta * e * (eta * float(net.ntk(inputs)[0, 0]) * e - 4.0 * float(z[0]))
            net.apply_gd_step(inputs, z - dataset.labels, eta)
            after = net.certified_norm(inputs)
            assert abs(after - reduced - predicted) <= 1e-12 * max(abs(reduced), abs(predicted))
            reduced = after


class TestSingleDatapointScale:
    """The single-datapoint net windows are certified at the datapoint they
    are given: the kernel carries a factor x**2, and on x < 0 the active
    ReLU neurons are those with u < 0."""

    FAMILIES = {
        "relu": ((0.0, 1.0), bound_relu),
        "scaled_relu": ((0.0, 2.0), bound_relu),
        "leaky": ((0.5, 1.0), bound_homogenous_mlp),
    }

    @staticmethod
    def dataset(x):
        return Dataset(inputs=[[x]], labels=[0.5])

    @pytest.mark.parametrize("x", [1.0, 4.0, -0.5])
    @pytest.mark.parametrize("kind", ["relu", "scaled_relu", "leaky"])
    def test_h0_is_the_kernel_at_the_datapoint(self, kind, x):
        slopes, bound = self.FAMILIES[kind]
        net = HomogenousNet.init_random(128, Rng(25), *slopes)
        dataset = self.dataset(x)
        report = bound(net, dataset)
        kernel = net.ntk(dataset.inputs)
        assert report.inputs_digest["h0"] == pytest.approx(kernel[0, 0], rel=1e-12)
        assert report.inputs_digest["x"] == x
        product = report.catapult_lower * lambda_max_symmetric(kernel)
        assert abs(product - 2.0) <= 1e-12 * 2.0

    @pytest.mark.parametrize("x", [1.0, 4.0, -0.5])
    def test_homogenous_matches_sample_gram_window(self, x):
        net = HomogenousNet.init_random(64, Rng(26), 0.5, 1.0)
        dataset = self.dataset(x)
        single = bound_homogenous_mlp(net, dataset)
        multi = bound_mlp_multi(net, dataset)
        assert single.sufficient_upper == pytest.approx(multi.sufficient_upper, rel=1e-10)

    @pytest.mark.parametrize("kind", ["relu", "scaled_relu", "leaky"])
    def test_zero_input_rejected(self, kind):
        slopes, bound = self.FAMILIES[kind]
        net = HomogenousNet.init_random(16, Rng(27), *slopes)
        with pytest.raises(BoundsError, match="x = 0"):
            bound(net, self.dataset(0.0))


class TestOmegaBound:
    def test_single_point_reduction_matches_direct_formula(self):
        # on one datapoint the window reads psi's cached spectrum; the dense
        # contraction zeta**2 psi psi is solved on its own
        m = pure_toy_quadratic(32, seed=12)
        table = bound_pure_quadratic(m)
        multi = bound_multi_omega(m)
        lam_dense = lambda_max_symmetric(omega_dense(m))
        assert multi.inputs_digest["lambda_max_omega"] == pytest.approx(lam_dense, rel=1e-12)
        expected = 4.0 / (lam_dense * m.weight_norm())
        assert multi.sufficient_upper == pytest.approx(expected, rel=1e-12)
        assert multi.catapult_lower == pytest.approx(table.catapult_lower, rel=1e-10)

    def test_duplicated_meta_features(self):
        # two identical datapoints: the contraction spectrum reproduces the
        # single-point value, checked against the dense oracle
        rng = Rng(13)
        spec = MetaFeatureSpec(8, 0, 1, EigenScheme("uniform", 1.0, 2.0))
        feature_map = build_meta_features(spec, rng.child(1))
        dataset = Dataset(inputs=[[1.0], [1.0]], labels=[0.0, 0.0])
        m = assemble_quadratic(feature_map, dataset, zeta_for("2_over_n", 8), rng.child(2))
        assert np.array_equal(m.meta_features[0], m.meta_features[1])
        lam_dual = bound_multi_omega(m).inputs_digest["lambda_max_omega"]
        lam_dense = lambda_max_symmetric(omega_dense(m))
        assert lam_dual == pytest.approx(lam_dense, rel=1e-12)
        psi_sq_top = float((np.linalg.eigvalsh(m.meta_features[0]) ** 2).max())
        assert lam_dense == pytest.approx(m.zeta**2 * psi_sq_top, rel=1e-10)

    @pytest.mark.parametrize(
        "n,num_points,seed", [(8, 3, 0), (16, 4, 1), (32, 8, 2), (64, 8, 3)]
    )
    def test_implicit_matches_dense(self, n, num_points, seed):
        model, _ = random_quadratic(n, 0, 2, num_points, seed=seed)
        report = bound_multi_omega(model)
        lam_dense = lambda_max_symmetric(omega_dense(model))
        assert report.inputs_digest["lambda_max_omega"] == pytest.approx(
            lam_dense, rel=1e-12
        )

    def test_benchmark_toy_value_is_exact(self, tmp_path):
        # the quadratic toy at n_psi = 1000 and init seed 0, where a
        # 10,000-step power iteration stopped 4.2e-7 below the true value
        raw = {
            "model": {
                "family": "pure_quadratic",
                "n_psi": 1000,
                "zeta_rule": "2_over_n",
                "init_seed": 0,
                "eigen_scheme": {"kind": "uniform", "low": 1.0, "high": 2.0},
            },
            "dataset": {"kind": "toy"},
            "training": {"eta_lambda0_grid": [1.0, 3.0, 4.5]},
        }
        experiment = resolve_experiment(normalize_config(raw, tmp_path))
        model = experiment.model
        reports, _ = collect_bound_reports(model, experiment.dataset)
        single, omega = (
            next(r for r in reports if r.method == method)
            for method in ("single_datapoint", "omega")
        )
        psi = model.meta_features[0]
        exact = model.zeta**2 * lambda_max_symmetric(psi @ psi)
        assert single.inputs_digest["lambda_max_psi_sq"] * model.zeta**2 == pytest.approx(
            exact, rel=1e-12
        )
        digest = omega.inputs_digest
        assert digest["power_tol"] <= 1e-12
        assert abs(digest["lambda_max_omega"] - exact) <= digest["power_tol"] * exact
        assert digest["power_iterations"] == 0
        assert not any("hit its" in note for note in omega.notes)


class TestPsiEffBound:
    def test_single_point_reduction(self):
        # the pooled matrix is +-psi: its top square is that of psi psi,
        # solved here on its own
        m = pure_toy_quadratic(32, seed=14)
        table = bound_pure_quadratic(m)
        multi = bound_multi_psi_eff(m)
        psi = m.meta_features[0]
        assert multi.inputs_digest["lambda_max_psi_eff_sq"] == pytest.approx(
            lambda_max_symmetric(psi @ psi), rel=1e-12
        )
        assert multi.sufficient_upper == pytest.approx(table.sufficient_upper, rel=1e-10)
        assert not multi.proven

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_never_below_contraction_method(self, seed):
        model, _ = random_quadratic(16, 0, 2, 4, seed=seed)
        m1 = bound_multi_omega(model)
        m2 = bound_multi_psi_eff(model)
        assert m2.sufficient_upper >= m1.sufficient_upper * (1.0 - 1e-9)

    def test_regime_where_pooling_rescues_the_window(self):
        # random two-dimensional data where the contraction bound certifies
        # nothing (upper below the stability threshold) while the pooled
        # bound still opens a window
        rng = Rng(0)
        spec = MetaFeatureSpec(300, 0, 2, EigenScheme("uniform", 0.9, 1.1))
        feature_map = build_meta_features(spec, rng.child(1))
        dataset = Dataset(
            inputs=rng.child(3).uniform(-0.5, 0.5, (64, 2)),
            labels=rng.child(4).uniform(-0.5, 0.5, 64),
        )
        m = assemble_quadratic(feature_map, dataset, zeta_for("2_over_n", 300), rng.child(2))
        m1 = bound_multi_omega(m)
        m2 = bound_multi_psi_eff(m)
        assert not m1.window_nonempty
        assert m2.window_nonempty


class TestBiasEffBound:
    def test_single_point_reduction(self):
        m = with_bias_toy_quadratic(32, 8, seed=15)
        table = bound_quadratic_with_bias(m)
        multi = bound_multi_bias_eff(m)
        assert multi.sufficient_upper == pytest.approx(table.sufficient_upper, rel=1e-10)
        assert not multi.proven

    def test_zero_bias_embedding_reduction(self):
        m = linear_net_with_bias_embedding(16, Rng(16).child(1), bias0=0.0)
        h0 = float(m.ntk()[0, 0])
        multi = bound_multi_bias_eff(m)
        assert multi.sufficient_upper == pytest.approx(4.0 / (h0 + 1.0), rel=1e-10)

    def test_teacher_student_scale_opens_a_window(self):
        spec = TeacherStudentSpec(
            n_psi_teacher=200,
            n_psi_student=150,
            n_phi_teacher=20,
            n_phi_student=10,
            d=1,
            train_size=32,
            test_size=64,
            activation="tanh",
            eigen_scheme=EigenScheme("pm_one"),
        )
        setup = make_teacher_student(spec, Rng(0).child(3))
        model = assemble_quadratic(
            setup.student_map, setup.dataset, setup.zeta_student, Rng(0).child(2)
        )
        report = bound_multi_bias_eff(model)
        lam0 = lambda_max_symmetric(model.ntk())
        assert report.sufficient_upper > 2.0 / lam0


class TestMlpMultiBound:
    def test_single_point_reduction(self):
        net = HomogenousNet.init_random(64, Rng(17), a_minus=0.5, a_plus=1.0)
        table = bound_homogenous_mlp(net, make_toy())
        multi = bound_mlp_multi(net, make_toy())
        assert multi.sufficient_upper == pytest.approx(table.sufficient_upper, rel=1e-10)

    def test_duplicated_unit_point(self):
        # duplicating the unit datapoint doubles the Gram top eigenvalue and
        # the explicit sample count cancels it: the bound value is unchanged
        net = HomogenousNet.init_random(32, Rng(18), a_minus=0.5, a_plus=1.0)
        dataset = Dataset(inputs=[[1.0], [1.0]], labels=[0.0, 0.0])
        report = bound_mlp_multi(net, dataset)
        assert report.inputs_digest["lambda_max_sample_gram"] == pytest.approx(2.0)
        expected = 4.0 * 32 / net.weight_norm()
        assert report.sufficient_upper == pytest.approx(expected, rel=1e-12)

    def test_random_data_scale_value(self):
        # at width 1024 with slope one half on 32 uniform inputs the
        # certified edge sits near 2.25 in units of the initial kernel value
        rng = Rng(0)
        dataset = make_random(1, 32, 0.5, rng.child(9))
        net = HomogenousNet.init_random(1024, rng.child(2), 0.5, 1.0)
        report = bound_mlp_multi(net, dataset)
        lam0 = lambda_max_symmetric(net.ntk(dataset.inputs))
        assert 2.0 < report.sufficient_upper * lam0 < 2.6

    def test_requires_positive_negative_slope(self):
        net = HomogenousNet.init_random(16, Rng(19), a_minus=0.0, a_plus=1.0)
        with pytest.raises(BoundsError):
            bound_mlp_multi(net, make_toy())


class TestReductionCoherence:
    """Every multi-datapoint bound collapses to its single-datapoint
    counterpart when evaluated on one datapoint."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pure_model_all_methods(self, seed):
        m = pure_toy_quadratic(24, seed=seed)
        table = bound_pure_quadratic(m)
        omega = bound_multi_omega(m)
        pooled = bound_multi_psi_eff(m)
        assert omega.sufficient_upper == pytest.approx(table.sufficient_upper, rel=1e-10)
        assert pooled.sufficient_upper == pytest.approx(table.sufficient_upper, rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_with_bias_model(self, seed):
        m = with_bias_toy_quadratic(24, 6, seed=seed)
        table = bound_quadratic_with_bias(m)
        pooled = bound_multi_bias_eff(m)
        assert pooled.sufficient_upper == pytest.approx(table.sufficient_upper, rel=1e-10)


class TestSufficiencyCertification:
    """Rates strictly inside a non-empty certified window converge; rates
    above the divergence threshold diverge."""

    def test_pure_model_window_and_divergence(self):
        from catapult.training import TrainConfig, train

        for seed in range(5):
            m = pure_toy_quadratic(48, seed=seed, scheme=EigenScheme("uniform", 1.0, 1.2))
            report = bound_pure_quadratic(m)
            assert report.window_nonempty
            lower, upper = report.catapult_lower, report.sufficient_upper
            for k in range(1, 5):
                eta = lower + (upper - lower) * k / 5.0
                traj = train(m.clone(), make_toy(), TrainConfig(eta=eta, ntk_eval_interval=10**9))
                assert traj.termination == "converged"
            for factor in (1.05, 1.5):
                eta = report.divergence_lower * factor
                traj = train(m.clone(), make_toy(), TrainConfig(eta=eta, ntk_eval_interval=10**9))
                assert traj.termination == "diverged"

    def test_homogenous_divergence_certificate(self):
        from catapult.training import TrainConfig, train

        for seed in range(5):
            net = HomogenousNet.init_random(64, Rng(seed).child(30), 0.75, 1.0)
            report = bound_homogenous_mlp(net, make_toy())
            eta = 1.05 * report.divergence_lower
            traj = train(net.clone(), make_toy(), TrainConfig(eta=eta, ntk_eval_interval=10**9))
            assert traj.termination == "diverged"


class TestOneSpectrumPerReport:
    """On one datapoint every quadratic-model bound reads the model's one
    cached solve of psi's spectrum."""

    BUILDS = {
        "pure_quadratic": lambda: pure_toy_quadratic(64, seed=40),
        "quadratic_with_bias": lambda: with_bias_toy_quadratic(56, 8, seed=41),
    }

    @pytest.mark.parametrize("family", BUILDS)
    def test_collect_runs_one_n_by_n_eigenvalue_solve(self, monkeypatch, family):
        model = self.BUILDS[family]()
        solves = []
        for name in ("eigvalsh", "eigh"):
            solver = getattr(np.linalg, name)

            def counted(a, *args, _solver=solver, **kwargs):
                if np.shape(a)[-1] == model.n:
                    solves.append(np.shape(a))
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        reports, skipped = collect_bound_reports(model, make_toy())
        assert skipped == []
        assert len(reports) == (3 if family == "pure_quadratic" else 2)
        assert solves == [(model.n, model.n)]

    @pytest.mark.parametrize("family", BUILDS)
    def test_each_bound_alone_gives_the_collected_report(self, family):
        reports, _ = collect_bound_reports(self.BUILDS[family](), make_toy())
        bounds = {
            "single_datapoint": (
                bound_pure_quadratic if family == "pure_quadratic" else bound_quadratic_with_bias
            ),
            "omega": bound_multi_omega,
            "psi_eff": bound_multi_psi_eff,
            "bias_eff": bound_multi_bias_eff,
        }
        for report in reports:
            alone = bounds[report.method](self.BUILDS[family]())
            assert alone.to_dict() == report.to_dict()

    def test_clones_share_the_solve(self):
        model = pure_toy_quadratic(16, seed=42)
        spectrum = model.psi_spectrum
        assert model.clone().psi_spectrum is spectrum
        assert not spectrum.flags.writeable

    def test_several_datapoints_have_no_cached_spectrum(self):
        model, _ = random_quadratic(8, 0, 2, 3, seed=43)
        with pytest.raises(ModelError, match="one datapoint"):
            model.psi_spectrum


class TestCollectBoundReports:
    def test_pure_toy_gets_three_reports(self):
        m = pure_toy_quadratic(24, seed=20)
        reports, skipped = collect_bound_reports(m, make_toy())
        methods = {r.method for r in reports}
        assert methods == {"single_datapoint", "omega", "psi_eff"}
        assert skipped == []

    def test_multi_point_pure_skips_single_datapoint(self):
        model, dataset = random_quadratic(16, 0, 2, 4, seed=21)
        reports, skipped = collect_bound_reports(model, dataset)
        assert {r.method for r in reports} == {"omega", "psi_eff"}
        assert any(s["method"] == "single_datapoint" for s in skipped)

    def test_relu_on_images_lists_skips(self):
        rng = Rng(22)
        net = HomogenousNet.init_random(16, rng, 0.0, 1.0, input_dim=5)
        dataset = Dataset(inputs=rng.child(1).normal((6, 5)), labels=np.ones(6))
        reports, skipped = collect_bound_reports(net, dataset)
        assert reports == []
        assert len(skipped) == 2

    def test_deep_net_has_no_guarantees(self):
        from catapult.models import DeepReluNet

        net = DeepReluNet.init_random(8, 4, Rng(23))
        dataset = Dataset(inputs=Rng(24).normal((3, 4)), labels=np.ones(3))
        reports, skipped = collect_bound_reports(net, dataset)
        assert reports == []
        assert skipped[0]["method"] == "all"

    def test_zero_kernel_lists_skips(self):
        # a pure model at theta = 0 has a vanishing kernel on every point:
        # every bound is skipped, none divides by the zero weight norm
        rng = Rng(28)
        dataset = make_random(1, 3, 0.5, rng.child(1))
        spec = MetaFeatureSpec(8, 0, 1, EigenScheme("uniform", 1.0, 2.0))
        feature_map = build_meta_features(spec, rng.child(2))
        model = assemble_quadratic(feature_map, dataset, zeta_for("2_over_n", 8), rng.child(3))
        model.theta[:] = 0.0
        reports, skipped = collect_bound_reports(model, dataset)
        vanishes = "kernel vanishes at initialization; no window exists"
        assert reports == []
        assert skipped == [
            {"method": "single_datapoint", "reason": "dataset has more than one datapoint"},
            {"method": "omega", "reason": vanishes},
            {"method": "psi_eff", "reason": vanishes},
        ]

    def test_scaled_relu_gets_the_reduced_norm_window(self):
        # slopes (0, 2): a zero negative slope, so the reduced-norm window
        # applies, with the kernel a_plus**2 times the ReLU one
        net = HomogenousNet.init_random(64, Rng(2), 0.0, 2.0)
        dataset = make_toy_relu()
        reports, skipped = collect_bound_reports(net, dataset)
        assert [r.method for r in reports] == ["single_datapoint"]
        assert [s["method"] for s in skipped] == ["mlp_multi"]
        report = reports[0]
        assert report.inputs_digest["family"] == "relu"
        assert report.window_nonempty
        kernel = lambda_max_symmetric(net.ntk(dataset.inputs))
        assert abs(report.catapult_lower * kernel - 2.0) <= 1e-12 * 2.0

    def test_zero_weight_net_lists_skips(self):
        net = HomogenousNet(u=np.zeros(4), v=np.zeros(4), a_minus=0.5, a_plus=1.0)
        reports, skipped = collect_bound_reports(net, make_toy())
        assert reports == []
        assert [s["reason"] for s in skipped] == [
            "kernel vanishes at initialization; no window exists"
        ] * 2


def _direct_bound(model, dataset, method):
    """The bound `collect_bound_reports` attempts under `method`, called on
    its own."""
    if isinstance(model, QuadraticModel):
        bounds = {
            "pure": {
                "single_datapoint": bound_pure_quadratic,
                "omega": bound_multi_omega,
                "psi_eff": bound_multi_psi_eff,
            },
            "with_bias": {
                "single_datapoint": bound_quadratic_with_bias,
                "bias_eff": bound_multi_bias_eff,
            },
        }[model.variant]
        return lambda: bounds[method](model)
    single = bound_relu if model.a_minus == 0.0 else bound_homogenous_mlp
    bound = {"single_datapoint": single, "mlp_multi": bound_mlp_multi}[method]
    return lambda: bound(model, dataset)


def _net_case(a_minus, size, dim):
    rng = Rng(31)
    net = HomogenousNet.init_random(16, rng.child(1), a_minus, 1.0, input_dim=dim)
    return net, make_random(dim, size, 0.5, rng.child(2))


class TestSkipReasonsAreTheBoundErrors:
    """Each skip reason is the message of the bound's own BoundsError, and
    the texts stay the ones bounds.json has always carried."""

    CASES = {
        "pure_multi_point": (
            lambda: random_quadratic(16, 0, 2, 4, seed=32),
            {"single_datapoint": "dataset has more than one datapoint"},
        ),
        "with_bias_multi_point": (
            lambda: random_quadratic(16, 4, 2, 4, seed=33),
            {"single_datapoint": "dataset has more than one datapoint"},
        ),
        "relu_four_points": (
            lambda: _net_case(0.0, 4, 1),
            {
                "single_datapoint": "the ReLU window requires one 1d datapoint",
                "mlp_multi": "requires a positive negative slope",
            },
        ),
        "relu_3d_point": (
            lambda: _net_case(0.0, 1, 3),
            {
                "single_datapoint": "the ReLU window requires one 1d datapoint",
                "mlp_multi": "requires a positive negative slope",
            },
        ),
        "relu_toy": (
            lambda: _net_case(0.0, 1, 1),
            {"mlp_multi": "requires a positive negative slope"},
        ),
        "leaky_four_points": (
            lambda: _net_case(0.5, 4, 1),
            {"single_datapoint": "the single-datapoint window requires one 1d datapoint"},
        ),
        "leaky_3d_point": (
            lambda: _net_case(0.5, 1, 3),
            {"single_datapoint": "the single-datapoint window requires one 1d datapoint"},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reason_is_the_direct_bound_error(self, case):
        build, expected = self.CASES[case]
        model, dataset = build()
        _, skipped = collect_bound_reports(model, dataset)
        assert {s["method"]: s["reason"] for s in skipped} == expected
        for entry in skipped:
            with pytest.raises(BoundsError) as raised:
                _direct_bound(model, dataset, entry["method"])()
            assert str(raised.value) == entry["reason"]
