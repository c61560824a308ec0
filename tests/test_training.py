import numpy as np
import pytest

from catapult.datasets import Dataset, make_random, make_toy, make_toy_relu
from catapult.models import (
    DeepReluNet,
    HomogenousNet,
    QuadraticModel,
    linear_net_with_bias_embedding,
)
from catapult.numerics import Rng, lambda_max_symmetric
from catapult.training import (
    TrainConfig,
    TrainingError,
    Trajectory,
    mse_loss,
    quad_update_consistency,
    train,
    weight_norm_identity_residuals,
)
from conftest import pure_toy_quadratic, random_quadratic, with_bias_toy_quadratic

EXCHANGE_MODEL = dict(
    features=np.zeros((1, 2)),
    meta_features=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    zeta=1.0,
    variant="pure",
)


class TestMseLoss:
    def test_zero_at_fit(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_point(self):
        assert mse_loss([1.0], [0.0]) == 0.5

    def test_two_points(self):
        assert mse_loss([1.0, -1.0], [0.0, 1.0]) == pytest.approx(1.25)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(TrainingError):
            mse_loss([1.0], [1.0, 2.0])


class TestGdStep:
    def test_fixed_point_at_zero_error(self):
        m = pure_toy_quadratic(8, seed=0)
        m.theta[:] = 0.0  # output and errors vanish on the toy label
        before = m.theta.copy()
        m.apply_gd_step(None, m.outputs() - make_toy().labels, 0.5)
        assert np.array_equal(m.theta, before)

    def test_exchange_model_single_step(self):
        m = QuadraticModel(theta=[1.0, 1.0], **EXCHANGE_MODEL)
        m.apply_gd_step(None, m.outputs() - make_toy().labels, 1.0)
        assert np.array_equal(m.theta, [0.0, 0.0])

    def test_exchange_model_norm_update_identity(self):
        m = QuadraticModel(theta=[1.0, 1.0], **EXCHANGE_MODEL)
        z0 = m.outputs()[0]
        h0 = float(m.ntk()[0, 0])
        before = m.weight_norm()
        # the general identity at D = 1, y = 0, k = 2 is the toy formula
        assert weight_norm_identity_residuals(m, make_toy(), 1.0, 1)[0] == 0.0
        m.apply_gd_step(None, m.outputs() - make_toy().labels, 1.0)
        assert m.weight_norm() - before == pytest.approx(1.0 * z0**2 * (1.0 * h0 - 4.0))


class TestTrain:
    def test_lazy_rate_converges_monotonically(self):
        m = pure_toy_quadratic(64, seed=1)
        eta = 1.0 / float(m.ntk()[0, 0])
        traj = train(m, make_toy(), TrainConfig(eta=eta, ntk_eval_interval=10**9))
        assert traj.termination == "converged"
        assert np.all(np.diff(traj.losses) <= 0)

    def test_catapult_spikes_then_converges(self):
        m = pure_toy_quadratic(200, seed=0)
        eta = 3.0 / float(m.ntk()[0, 0])
        traj = train(m, make_toy(), TrainConfig(eta=eta, ntk_eval_interval=10**9))
        assert traj.termination == "converged"
        assert traj.losses.max() > 10.0 * traj.losses[0]
        assert traj.weight_norms[-1] < traj.weight_norms[0]

    def test_divergence_above_certified_threshold(self):
        from catapult.bounds import bound_pure_quadratic

        m = pure_toy_quadratic(64, seed=2)
        report = bound_pure_quadratic(m)
        eta = 1.05 * report.divergence_lower
        traj = train(m, make_toy(), TrainConfig(eta=eta, ntk_eval_interval=10**9))
        assert traj.termination == "diverged"

    def test_series_lengths_match_steps(self):
        m = pure_toy_quadratic(32, seed=3)
        eta = 2.5 / float(m.ntk()[0, 0])
        traj = train(m, make_toy(), TrainConfig(eta=eta))
        assert len(traj.losses) == traj.steps_taken + 1
        assert len(traj.weight_norms) == traj.steps_taken + 1
        assert len(traj.eta_lambda_max) == traj.steps_taken + 1
        assert traj.ntk_steps[-1] == traj.steps_taken

    def test_step_limit_termination(self):
        m = pure_toy_quadratic(32, seed=4)
        eta = 2.5 / float(m.ntk()[0, 0])
        traj = train(m, make_toy(), TrainConfig(eta=eta, max_steps=3, ntk_eval_interval=10**9))
        assert traj.termination == "step_limit"
        assert traj.steps_taken == 3

    def test_determinism_bitwise(self):
        def run():
            m = pure_toy_quadratic(48, seed=5)
            eta = 3.0 / float(m.ntk()[0, 0])
            return train(m, make_toy(), TrainConfig(eta=eta))

        a, b = run(), run()
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.weight_norms, b.weight_norms)
        assert np.array_equal(a.eta_lambda_max, b.eta_lambda_max)

    def test_finite_weights_whose_squares_overflow_are_not_a_divergence(self):
        # neuron 0 is dead on x = 1, so its 1e200 output weight moves no
        # output, kernel or gradient: the run is its twin's with an
        # overflowing weight norm, recorded as inf at every step
        def net(v0):
            return HomogenousNet(u=[-1.0, 0.8, 1.2], v=[v0, 0.5, -0.3], a_minus=0.0, a_plus=1.0)

        dataset = Dataset(inputs=np.array([[1.0]]), labels=np.array([0.4]))
        big, twin = net(1e200), net(0.0)
        assert np.isfinite(big.outputs(dataset.inputs)).all()
        with np.errstate(over="ignore"):
            assert big.weight_norm() == np.inf
        config = TrainConfig(eta=2.5 / float(twin.ntk(dataset.inputs)[0, 0]))
        got, expected = train(big, dataset, config), train(twin, dataset, config)
        assert got.termination == expected.termination == "converged"
        assert got.steps_taken == expected.steps_taken
        assert got.losses.tobytes() == expected.losses.tobytes()
        assert got.eta_lambda_max.tobytes() == expected.eta_lambda_max.tobytes()
        assert got.certified_norms.tobytes() == expected.certified_norms.tobytes()
        assert np.all(got.weight_norms == np.inf)
        assert np.all(np.isfinite(expected.weight_norms))
        assert big.v[0] == 1e200

    def test_sparse_kernel_recording_keeps_gaps_explicit(self):
        m = pure_toy_quadratic(32, seed=6)
        eta = 2.5 / float(m.ntk()[0, 0])
        traj = train(m, make_toy(), TrainConfig(eta=eta, ntk_eval_interval=7))
        inner = traj.ntk_steps[:-1]
        assert np.all(inner % 7 == 0)
        assert traj.ntk_steps[-1] == traj.steps_taken

    @pytest.mark.parametrize(
        "n, seed, rate, overrides, termination, ntk_steps",
        [
            # the final step (13, 10) is off the interval and measured once
            (32, 6, 2.5, dict(ntk_eval_interval=7), "converged", [0, 7, 13]),
            (32, 6, 2.5, dict(ntk_eval_interval=4, max_steps=10), "step_limit", [0, 4, 8, 10]),
            # a final step on the interval is measured once, not twice
            (32, 6, 2.5, dict(ntk_eval_interval=13), "converged", [0, 13]),
            # the diverged state at step 4 is on the interval but never measured;
            # no rate means 1.05 times the certified divergence threshold
            (64, 2, None, dict(ntk_eval_interval=2), "diverged", [0, 2]),
        ],
    )
    def test_kernel_measured_on_interval_and_final_step(
        self, monkeypatch, n, seed, rate, overrides, termination, ntk_steps
    ):
        from catapult import training
        from catapult.bounds import bound_pure_quadratic

        m = pure_toy_quadratic(n, seed=seed)
        if rate is None:
            eta = 1.05 * bound_pure_quadratic(m).divergence_lower
        else:
            eta = rate / float(m.ntk()[0, 0])
        solves = []

        def counted(matrix):
            solves.append(matrix)
            return lambda_max_symmetric(matrix)

        monkeypatch.setattr(training, "lambda_max_symmetric", counted)
        traj = train(m, make_toy(), TrainConfig(eta=eta, **overrides))
        assert traj.termination == termination
        assert traj.ntk_steps.tolist() == ntk_steps
        assert len(solves) == len(traj.eta_lambda_max) == len(ntk_steps)


def identity_cases(seed):
    """Every family on a dataset with non-zero labels, on several points
    wherever the family takes them."""
    rng = Rng(seed)
    points = make_random(2, 8, 0.5, rng.child(1))
    return {
        "pure_quadratic": random_quadratic(24, 0, 2, 6, seed=seed),
        "quadratic_with_bias": random_quadratic(24, 6, 2, 4, seed=seed, scheme=None),
        "linear_net_with_bias": (
            linear_net_with_bias_embedding(24, rng.child(2), bias0=0.3),
            Dataset(inputs=[[1.0]], labels=[0.5]),
        ),
        "homogenous": (HomogenousNet.init_random(64, rng.child(3), 0.5, 1.0, 2), points),
        "relu_points": (HomogenousNet.init_random(64, rng.child(4), 0.0, 1.0, 2), points),
        "relu_datapoint": (
            HomogenousNet.init_random(64, rng.child(5), 0.0, 1.0),
            make_toy_relu(),
        ),
        "deep_relu": (
            DeepReluNet.init_random(32, 10, rng.child(6)),
            make_random(10, 16, 0.5, rng.child(7)),
        ),
    }


class TestWeightNormIdentity:
    """One GD step changes the squared weight norm by
    (eta/D) (eta e.H.e - 2 e.T), for every family, dataset and label."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", list(identity_cases(0)))
    def test_every_family_at_non_zero_labels(self, family, seed):
        model, dataset = identity_cases(seed)[family]
        assert np.any(dataset.labels != 0.0)
        lambda0 = lambda_max_symmetric(model.ntk(dataset.inputs))
        for rate in (1.0, 3.0, 5.0):
            residuals = weight_norm_identity_residuals(model, dataset, rate / lambda0, 40)
            assert residuals.size > 0
            assert residuals.max() <= 1e-12

    def test_steps_a_clone_up_to_the_last_finite_step(self):
        from catapult.bounds import bound_pure_quadratic

        m = pure_toy_quadratic(32, seed=2)
        before = m.theta.copy()
        eta = 1.5 * bound_pure_quadratic(m).divergence_lower
        residuals = weight_norm_identity_residuals(m, make_toy(), eta, 10**4)
        assert np.array_equal(m.theta, before)
        assert 0 < residuals.size < 10**4
        assert residuals.max() <= 1e-12


class TestReluFrozenComplement:
    def test_inactive_coordinates_never_move(self):
        net = HomogenousNet.init_random(64, Rng(11).child(4), 0.0, 1.0)
        dataset = make_toy()
        inactive = ~net.active_on(float(dataset.inputs[0, 0]))
        u_minus = net.u[inactive].copy()
        v_minus = net.v[inactive].copy()
        eta = 3.0 / float(net.ntk(dataset.inputs)[0, 0])
        for _ in range(300):
            z = net.outputs(dataset.inputs)
            net.apply_gd_step(dataset.inputs, z - dataset.labels, eta)
            assert np.array_equal(net.u[inactive], u_minus)
            assert np.array_equal(net.v[inactive], v_minus)


class TestReluReducedNormOnTheDatapoint:
    """On one 1d datapoint the recorded reduced norm is taken over the neurons
    active on it (u x >= 0), the same set `bound_relu` certifies."""

    @staticmethod
    def setup(x, label, seed=0):
        net = HomogenousNet.init_random(128, Rng(seed).child(4), 0.0, 1.0)
        return net, Dataset(inputs=[[x]], labels=[label])

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("x", [4.0, -0.5])
    def test_step_zero_is_the_certified_reduced_norm(self, x, seed):
        from catapult.bounds import bound_relu

        net, dataset = self.setup(x, 0.5, seed)
        certified = bound_relu(net, dataset).inputs_digest["reduced_theta0_sq"]
        traj = train(net, dataset, TrainConfig(eta=0.01, max_steps=1))
        assert traj.certified_norms[0] == certified

    def test_negative_datapoint_norm_decreases_inside_window(self):
        from catapult.bounds import bound_relu

        net, dataset = self.setup(-0.5, 0.0)
        report = bound_relu(net, dataset)
        eta = 0.5 * (report.catapult_lower + report.sufficient_upper)
        traj = train(net.clone(), dataset, TrainConfig(eta=eta))
        assert traj.termination == "converged"
        norms = traj.certified_norms
        assert norms[-1] < norms[0]
        assert np.all(np.diff(norms) <= 1e-10 * norms[0])
        residuals = weight_norm_identity_residuals(net, dataset, eta, traj.steps_taken)
        assert residuals.max() <= 1e-12

    @pytest.mark.parametrize("label", [0.0, 2.0])
    def test_norm_falls_at_every_step_only_at_label_zero(self, label):
        # a step moves the norm by eta e (eta H e - 4 z), with e = z - y:
        # never up inside the window at y = 0, but up on some steps at y != 0
        from catapult.bounds import bound_relu

        rises = []
        for seed in range(10):
            net, dataset = self.setup(4.0, label, seed)
            report = bound_relu(net, dataset)
            lower, upper = report.catapult_lower, report.sufficient_upper
            for k in range(1, 5):
                eta = lower + (upper - lower) * k / 5
                traj = train(net.clone(), dataset, TrainConfig(eta=eta, ntk_eval_interval=10**9))
                assert traj.termination == "converged"
                norms = traj.certified_norms
                rises.append(np.diff(norms).max() / norms[0])
        if label == 0.0:
            assert max(rises) <= 1e-12
        else:
            assert max(rises) > 0.01

    def test_norm_never_rises_where_the_step_condition_holds(self):
        # at y != 0 the norm still falls at exactly the steps where
        # eta H_t < 4 z_t / e_t, and rises at many of the others
        held = rises_where_held = rises_elsewhere = 0
        for seed in range(10):
            net, dataset = self.setup(4.0, 2.0, seed)
            x, y = dataset.inputs, dataset.labels
            h0 = float(net.ntk(x)[0, 0])
            for rate in (2.4, 2.8, 3.2, 3.6):
                eta = rate / h0
                work = net.clone()
                previous_loss = None
                while True:
                    z = work.outputs(x)
                    e = z - y
                    loss = mse_loss(z, y)
                    if previous_loss is not None and abs(loss - previous_loss) < 1e-8:
                        break
                    previous_loss = loss
                    condition = eta * work.ntk(x)[0, 0] < 4.0 * z[0] / e[0]
                    before = work.certified_norm(x)
                    work.apply_gd_step(x, e, eta)
                    rose = work.certified_norm(x) > before
                    held += condition
                    rises_where_held += condition and rose
                    rises_elsewhere += rose and not condition
        assert held > 400
        assert rises_where_held == 0
        assert rises_elsewhere > 400

    def test_several_points_record_no_reduced_norm(self):
        # with several points no window certifies the reduced norm, so the
        # run does not record it
        net, _ = self.setup(1.0, 0.0)
        dataset = make_random(1, 4, 0.5, Rng(2))
        traj = train(net, dataset, TrainConfig(eta=0.01, max_steps=3))
        assert traj.certified_norms is None
        assert traj.monotone_norms is traj.weight_norms


class TestCertifiedNorm:
    """`train` records the model's certified norm as one series, only where
    a single-datapoint window is proved on a norm other than the weight
    norm."""

    @pytest.mark.parametrize("seed", range(5))
    def test_step_zero_is_the_certified_combined_norm(self, seed):
        from catapult.bounds import bound_quadratic_with_bias

        m = with_bias_toy_quadratic(24, 6, seed=seed)
        digest = bound_quadratic_with_bias(m).inputs_digest
        traj = train(m, make_toy(), TrainConfig(eta=0.01, max_steps=1))
        expected = digest["theta0_sq"] + digest["feature_overlap_sq"] / digest["phi_sq"]
        assert traj.certified_norms[0] == expected
        assert traj.monotone_norms is traj.certified_norms

    @pytest.mark.parametrize("label", [0.0, 0.7, -1.3])
    def test_combined_norm_moves_by_the_shifted_kernel_identity(self, label):
        # with e = z - y a step moves C = theta**2 + (phi.theta)**2/phi**2
        # by eta e (eta e (H + phi**2) - 4 z), at any label
        dataset = Dataset(inputs=[[1.0]], labels=[label])
        worst = 0.0
        for seed in range(20):
            model = linear_net_with_bias_embedding(16, Rng(seed).child(1))
            phi_sq = float(model.features[0] @ model.features[0])
            h0 = float(model.ntk()[0, 0])
            for rate in (1.0, 3.0):
                eta = rate / h0
                work = model.clone()
                norm = work.certified_norm()
                for _ in range(15):
                    z = float(work.outputs()[0])
                    e = z - label
                    kernel = float(work.ntk()[0, 0])
                    predicted = eta * e * (eta * e * (kernel + phi_sq) - 4.0 * z)
                    work.apply_gd_step(None, [e], eta)
                    after = work.certified_norm()
                    scale = max(abs(norm), abs(predicted))
                    worst = max(worst, abs(after - norm - predicted) / scale)
                    norm = after
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "build",
        [
            lambda: pure_toy_quadratic(16, seed=0),
            lambda: HomogenousNet.init_random(16, Rng(1), 0.5, 1.0),
            lambda: DeepReluNet.init_random(8, 1, Rng(2)),
        ],
        ids=["pure_quadratic", "leaky", "deep_relu"],
    )
    def test_weight_norm_families_record_none(self, build):
        traj = train(build(), make_toy(), TrainConfig(eta=0.01, max_steps=2))
        assert traj.certified_norms is None
        assert traj.monotone_norms is traj.weight_norms

    def test_series_length_is_checked(self):
        series = np.zeros(3)
        with pytest.raises(TrainingError, match="certified_norms has length 2"):
            Trajectory(
                losses=series,
                weight_norms=series,
                certified_norms=series[:2],
                ntk_steps=np.arange(3),
                eta_lambda_max=series,
                termination="converged",
                steps_taken=2,
            )


class TestMonotoneDecreaseInsideWindow:
    """Learning rates strictly inside each certified window must decrease the
    relevant norm at every step, for a batch of seeds."""

    @staticmethod
    def interior(report, count=4):
        lower, upper = report.catapult_lower, report.sufficient_upper
        return [lower + (upper - lower) * k / (count + 1) for k in range(1, count + 1)]

    @pytest.mark.parametrize("seed", range(8))
    def test_pure_quadratic(self, seed):
        from catapult.bounds import bound_pure_quadratic
        from catapult.datasets import EigenScheme

        # narrow eigenvalue spread keeps the window non-empty for every seed
        m = pure_toy_quadratic(48, seed=seed, scheme=EigenScheme("uniform", 1.0, 1.2))
        report = bound_pure_quadratic(m)
        assert report.window_nonempty
        for eta in self.interior(report):
            traj = train(m.clone(), make_toy(), TrainConfig(eta=eta, ntk_eval_interval=10**9))
            assert traj.termination == "converged"
            slack = 1e-10 * traj.weight_norms[0]
            assert np.all(np.diff(traj.weight_norms) <= slack)

    @pytest.mark.parametrize("seed", range(8))
    def test_relu_reduced(self, seed):
        from catapult.bounds import bound_relu

        net = HomogenousNet.init_random(96, Rng(seed).child(5), 0.0, 1.0)
        report = bound_relu(net, make_toy())
        for eta in self.interior(report):
            traj = train(net.clone(), make_toy(), TrainConfig(eta=eta, ntk_eval_interval=10**9))
            assert traj.termination == "converged"
            slack = 1e-10 * traj.certified_norms[0]
            assert np.all(np.diff(traj.certified_norms) <= slack)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("x", [4.0, -0.5])
    @pytest.mark.parametrize("a_plus", [0.5, 2.0])
    def test_scaled_relu_reduced(self, a_plus, x, seed):
        # slopes (0, a_plus) share the ReLU reduced-norm window
        from catapult.bounds import bound_relu

        net = HomogenousNet.init_random(64, Rng(seed).child(6), 0.0, a_plus)
        dataset = Dataset(inputs=[[x]], labels=[0.0])
        report = bound_relu(net, dataset)
        for eta in self.interior(report):
            traj = train(net.clone(), dataset, TrainConfig(eta=eta, ntk_eval_interval=10**9))
            assert traj.termination == "converged"
            slack = 1e-10 * traj.certified_norms[0]
            assert np.all(np.diff(traj.certified_norms) <= slack)


class TestUpdateRecursions:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pure_recursions_track_recomputation(self, seed):
        model, dataset = random_quadratic(24, 0, 2, 6, seed=seed)
        eta = 2.5 / lambda_max_symmetric(model.ntk())
        report = quad_update_consistency(model, dataset, eta, steps=50)
        assert report.max_deviation < 1e-9
        # the pure model has no features, so its overlap is exactly 0
        assert report.max_feature_overlap_deviation == 0.0

    def test_zero_coupling_kernel_constant(self):
        rng = Rng(7)
        n, d_pts = 16, 4
        model = QuadraticModel(
            theta=rng.normal(n),
            features=rng.child(1).normal((d_pts, n)),
            meta_features=np.zeros((d_pts, n, n)),
            zeta=0.0,
            variant="with_bias",
        )
        dataset = Dataset(inputs=np.zeros((d_pts, 1)), labels=rng.child(2).normal(d_pts))
        h0 = model.ntk()
        eta = 1.0 / lambda_max_symmetric(h0)
        for _ in range(50):
            model.apply_gd_step(None, model.outputs() - dataset.labels, eta)
            assert np.abs(model.ntk() - h0).max() <= 1e-12 * np.abs(h0).max()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_with_bias_feature_overlap_closed_form(self, seed):
        model, dataset = random_quadratic(24, 6, 2, 4, seed=seed, scheme=None)
        eta = 2.5 / lambda_max_symmetric(model.ntk())
        report = quad_update_consistency(model, dataset, eta, steps=50)
        assert report.max_feature_overlap_deviation < 1e-9
        assert max(report.max_error_deviation, report.max_ntk_deviation) < 1e-9

    def test_stops_at_the_first_non_finite_step(self):
        # far past the divergence edge the run overflows within 50 steps;
        # every step compared before that is still exact to roundoff
        model, dataset = random_quadratic(24, 6, 2, 4, seed=0, scheme=None)
        eta = 40.0 / lambda_max_symmetric(model.ntk())
        report = quad_update_consistency(model, dataset, eta, steps=50)
        assert report.max_deviation < 1e-9

    def test_rejects_generic_variant(self):
        rng = Rng(9)
        n = 8
        a = rng.normal((n, n))
        model = QuadraticModel(
            theta=rng.child(1).normal(n),
            features=rng.child(2).normal((1, n)),
            meta_features=((a + a.T) / 2.0)[None],
            zeta=0.5,
            variant="generic",
        )
        with pytest.raises(TrainingError):
            quad_update_consistency(model, make_toy(), 0.1, 5)


class TestTrainConfigValidation:
    def test_rejects_non_positive_eta(self):
        with pytest.raises(TrainingError):
            TrainConfig(eta=0.0)

    def test_rejects_bad_interval(self):
        with pytest.raises(TrainingError):
            TrainConfig(eta=0.1, ntk_eval_interval=0)
