import numpy as np
import pytest

from catapult.datasets import Dataset, make_random, make_toy
from catapult.models import HomogenousNet, QuadraticModel, linear_net_with_bias_embedding
from catapult.numerics import Rng, lambda_max_symmetric
from catapult.training import (
    TrainConfig,
    TrainingError,
    mse_loss,
    quad_update_consistency,
    train,
    weight_norm_identity_residuals,
)
from conftest import pure_toy_quadratic, random_quadratic

EXCHANGE_MODEL = dict(
    features=np.zeros((1, 2)),
    meta_features=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    zeta=1.0,
    variant="pure",
)


def identity_config(eta, **kwargs):
    return TrainConfig(eta=eta, ntk_eval_interval=1, record_outputs=True, **kwargs)


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
        traj = train(m, make_toy(), identity_config(eta))
        assert len(traj.losses) == traj.steps_taken + 1
        assert len(traj.weight_norms) == traj.steps_taken + 1
        assert traj.outputs.shape == (traj.steps_taken + 1, 1)
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
            return train(m, make_toy(), identity_config(eta))

        a, b = run(), run()
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.weight_norms, b.weight_norms)
        assert np.array_equal(a.outputs, b.outputs)

    def test_sparse_kernel_recording_keeps_gaps_explicit(self):
        m = pure_toy_quadratic(32, seed=6)
        eta = 2.5 / float(m.ntk()[0, 0])
        traj = train(m, make_toy(), TrainConfig(eta=eta, ntk_eval_interval=7))
        inner = traj.ntk_steps[:-1]
        assert np.all(inner % 7 == 0)
        assert traj.ntk_steps[-1] == traj.steps_taken


class TestWeightNormIdentity:
    """The per-step norm update identity on the toy datapoint, for every
    homogeneity-weight-two family."""

    @pytest.mark.parametrize("seed", range(5))
    def test_pure_quadratic(self, seed):
        m = pure_toy_quadratic(48, seed=seed)
        eta = 3.0 / float(m.ntk()[0, 0])
        traj = train(m, make_toy(), identity_config(eta))
        assert weight_norm_identity_residuals(traj, "total").max() < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_homogenous_net(self, seed):
        net = HomogenousNet.init_random(64, Rng(seed).child(1), 0.5, 1.0)
        eta = 3.0 / float(net.ntk([[1.0]])[0, 0])
        traj = train(net, make_toy(), identity_config(eta))
        assert weight_norm_identity_residuals(traj, "total").max() < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_relu_reduced_norm(self, seed):
        net = HomogenousNet.init_random(64, Rng(seed).child(2), 0.0, 1.0)
        eta = 3.0 / float(net.ntk([[1.0]])[0, 0])
        traj = train(net, make_toy(), identity_config(eta))
        assert weight_norm_identity_residuals(traj, "reduced").max() < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_with_bias_combined_quantity(self, seed):
        m = linear_net_with_bias_embedding(24, Rng(seed).child(3), bias0=0.0)
        phi_sq = float(m.features[0] @ m.features[0])
        eta = 3.0 / float(m.ntk()[0, 0])
        traj = train(m, make_toy(), identity_config(eta))
        residuals = weight_norm_identity_residuals(traj, "combined", h_shift=phi_sq)
        assert residuals.max() < 1e-9


class TestReluFrozenComplement:
    def test_inactive_coordinates_never_move(self):
        net = HomogenousNet.init_random(64, Rng(11).child(4), 0.0, 1.0)
        split = net.frozen_split
        u_minus = net.u[split.p_minus].copy()
        v_minus = net.v[split.p_minus].copy()
        dataset = make_toy()
        eta = 3.0 / float(net.ntk(dataset.inputs)[0, 0])
        for _ in range(300):
            z = net.outputs(dataset.inputs)
            net.apply_gd_step(dataset.inputs, z - dataset.labels, eta)
            assert np.array_equal(net.u[split.p_minus], u_minus)
            assert np.array_equal(net.v[split.p_minus], v_minus)


class TestReluReducedNormOnTheDatapoint:
    """On one 1d datapoint the recorded reduced norm is taken over the neurons
    active on it (u x > 0), the same set `bound_relu` certifies."""

    @staticmethod
    def setup(x, label):
        net = HomogenousNet.init_random(128, Rng(0).child(4), 0.0, 1.0)
        return net, Dataset(inputs=[[x]], labels=[label])

    @pytest.mark.parametrize("x", [4.0, -0.5])
    def test_step_zero_is_the_certified_reduced_norm(self, x):
        from catapult.bounds import bound_relu

        net, dataset = self.setup(x, 0.5)
        certified = bound_relu(net, dataset).inputs_digest["reduced_theta0_sq"]
        traj = train(net, dataset, TrainConfig(eta=0.01, max_steps=1))
        assert traj.reduced_weight_norms[0] == pytest.approx(certified, rel=1e-12)

    def test_negative_datapoint_norm_decreases_inside_window(self):
        from catapult.bounds import bound_relu

        net, dataset = self.setup(-0.5, 0.0)
        report = bound_relu(net, dataset)
        eta = 0.5 * (report.catapult_lower + report.sufficient_upper)
        traj = train(net.clone(), dataset, identity_config(eta))
        assert traj.termination == "converged"
        norms = traj.reduced_weight_norms
        assert norms[-1] < norms[0]
        assert np.all(np.diff(norms) <= 1e-10 * norms[0])
        assert weight_norm_identity_residuals(traj, "reduced").max() < 1e-9

    def test_several_points_record_no_reduced_norm(self):
        # with several points no window certifies the reduced norm, so the
        # run does not record it
        net, _ = self.setup(1.0, 0.0)
        dataset = make_random(1, 4, 0.5, Rng(2))
        traj = train(net, dataset, TrainConfig(eta=0.01, max_steps=3))
        assert traj.reduced_weight_norms is None

    def test_several_points_keep_the_nonnegative_side(self):
        net, _ = self.setup(1.0, 0.0)
        mask = net.frozen_split.p_plus
        expected = float(net.u[mask, 0] @ net.u[mask, 0] + net.v[mask] @ net.v[mask])
        for inputs in (None, [[-0.5], [0.25]]):
            assert net.reduced_weight_norm(inputs) == pytest.approx(expected, rel=1e-12)


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
            slack = 1e-10 * traj.reduced_weight_norms[0]
            assert np.all(np.diff(traj.reduced_weight_norms) <= slack)


class TestUpdateRecursions:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pure_recursions_track_recomputation(self, seed):
        model, dataset = random_quadratic(24, 0, 2, 6, seed=seed)
        eta = 2.5 / lambda_max_symmetric(model.ntk())
        report = quad_update_consistency(model, dataset, eta, steps=50)
        assert report.max_deviation < 1e-9

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
        assert report.max_feature_overlap_deviation < 1e-8
        assert max(report.max_error_deviation, report.max_ntk_deviation) < 1e-9

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
