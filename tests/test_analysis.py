import numpy as np
import pytest

from catapult.analysis import (
    SPIKE_FACTOR,
    AnalysisError,
    classify_phase,
    generalization_report,
    linearized_predict,
    output_breakdown_scale,
    run_sweep_point,
    sparsity,
)
from catapult.datasets import Dataset, make_toy
from catapult.models import DeepReluNet, HomogenousNet, QuadraticModel
from catapult.numerics import Rng, lambda_max_symmetric
from catapult.training import TrainConfig, mse_loss, train
from conftest import output_series, pure_toy_quadratic

FAST = dict(ntk_eval_interval=10**9)


def linear_model(n=24, d_pts=4, seed=0):
    rng = Rng(seed)
    model = QuadraticModel(
        theta=rng.child(1).normal(n),
        features=rng.child(2).normal((d_pts, n)),
        meta_features=np.zeros((d_pts, n, n)),
        zeta=0.0,
        variant="with_bias",
    )
    dataset = Dataset(inputs=np.zeros((d_pts, 1)), labels=rng.child(3).normal(d_pts))
    return model, dataset


class TestClassifyPhase:
    def test_lazy_for_static_features_below_threshold(self):
        model, dataset = linear_model()
        eta = 1.0 / lambda_max_symmetric(model.ntk())
        traj = train(model, dataset, TrainConfig(eta=eta, **FAST))
        assert classify_phase(traj) == "lazy"

    def test_catapult_for_supercritical_toy_run(self):
        m = pure_toy_quadratic(128, seed=0)
        eta = 3.0 / float(m.ntk()[0, 0])
        traj = train(m, make_toy(), TrainConfig(eta=eta, **FAST))
        assert classify_phase(traj) == "catapult"

    def test_divergent_above_certified_threshold(self):
        from catapult.bounds import bound_pure_quadratic

        m = pure_toy_quadratic(64, seed=1)
        eta = 1.1 * bound_pure_quadratic(m).divergence_lower
        traj = train(m, make_toy(), TrainConfig(eta=eta, **FAST))
        assert classify_phase(traj) == "divergent"

    def test_step_limit_is_non_converged(self):
        m = pure_toy_quadratic(64, seed=2)
        eta = 3.0 / float(m.ntk()[0, 0])
        traj = train(m, make_toy(), TrainConfig(eta=eta, max_steps=2, **FAST))
        assert classify_phase(traj) == "non_converged"

    def test_spike_above_one_and_a_half_is_a_catapult(self):
        m = pure_toy_quadratic(64, seed=3)
        eta = 2.5 / float(m.ntk()[0, 0])
        traj = train(m, make_toy(), TrainConfig(eta=eta, **FAST))
        assert SPIKE_FACTOR == 1.5
        assert classify_phase(traj) == "catapult"


class TestSweep:
    """A grid of ``run_sweep_point`` records, one per rate, as
    ``catapult sweep`` makes them."""

    @staticmethod
    def toy_factory(seed=0, n=96):
        def factory():
            return pure_toy_quadratic(n, seed=seed)

        return factory

    @staticmethod
    def records(factory, grid, config, lam0):
        return [run_sweep_point(factory, make_toy(), eta, config, lam0)[0] for eta in grid]

    def test_reproducible_bitwise(self):
        factory = self.toy_factory()
        lam_a = float(factory().ntk()[0, 0])
        lam_b = float(factory().ntk()[0, 0])
        grid = [value / lam_a for value in (1.0, 2.5, 3.0)]
        cfg = TrainConfig(eta=1.0, **FAST)
        a = self.records(factory, grid, cfg, lam_a)
        b = self.records(factory, grid, cfg, lam_b)
        assert lam_a == lam_b
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_phase_segments_are_contiguous(self):
        factory = self.toy_factory(seed=4, n=200)
        lam0 = float(factory().ntk()[0, 0])
        grid = [value / lam0 for value in np.arange(0.5, 6.01, 0.25)]
        records = self.records(factory, grid, TrainConfig(eta=1.0, **FAST), lam0)
        phases = [r.phase for r in records]
        order = {"lazy": 0, "catapult": 1, "divergent": 2}
        ranks = [order[p] for p in phases]
        assert ranks == sorted(ranks)
        assert set(phases) == {"lazy", "catapult", "divergent"}

    def test_divergent_rows_carry_no_final_scalars(self):
        factory = self.toy_factory(seed=5)
        lam0 = float(factory().ntk()[0, 0])
        record = self.records(factory, [8.0 / lam0], TrainConfig(eta=1.0, **FAST), lam0)[0]
        assert record.phase == "divergent"
        assert record.final_eta_lambda_max is None
        assert record.weight_ratio is None
        assert record.train_loss_final is None

    def test_per_rate_failures_are_isolated(self):
        calls = {"count": 0}

        def flaky_factory():
            calls["count"] += 1
            if calls["count"] == 2:  # fail only the second grid point
                raise RuntimeError("synthetic failure")
            return pure_toy_quadratic(48, seed=6)

        lam0 = float(pure_toy_quadratic(48, seed=6).ntk()[0, 0])
        grid = [1.0 / lam0, 2.5 / lam0, 3.0 / lam0]
        records = self.records(flaky_factory, grid, TrainConfig(eta=1.0, **FAST), lam0)
        statuses = [r.status for r in records]
        assert statuses == ["ok", "failed", "ok"]
        assert "synthetic failure" in records[1].message

    def test_eta_lambda0_axis(self):
        factory = self.toy_factory(seed=7)
        lam0 = float(factory().ntk()[0, 0])
        record = self.records(factory, [2.5 / lam0], TrainConfig(eta=1.0, **FAST), lam0)[0]
        assert record.eta_lambda0 == pytest.approx(2.5, rel=1e-12)


class TestSparsity:
    def test_all_active(self):
        net = HomogenousNet(u=np.ones(4), v=np.ones(4), a_minus=0.0, a_plus=1.0)
        assert sparsity(net, [[1.0]]) == [0.0]

    def test_half_inactive_by_hand(self):
        net = HomogenousNet(
            u=np.array([-1.0, 0.5, -0.3, 2.0]), v=np.ones(4), a_minus=0.0, a_plus=1.0
        )
        assert sparsity(net, [[1.0]]) == [0.5]

    def test_random_init_near_half(self):
        net = DeepReluNet.init_random(2048, 4, Rng(16))
        x = Rng(17).normal((16, 4))
        values = sparsity(net, x)
        assert len(values) == 2
        assert abs(values[0] - 0.5) < 3.0 * 0.5 / np.sqrt(2048 * 16)

    def test_exact_zero_preactivation_counts(self):
        net = HomogenousNet(
            u=np.array([0.0, 1.0]), v=np.ones(2), a_minus=0.0, a_plus=1.0
        )
        assert sparsity(net, [[1.0]]) == [0.5]

    def test_rejects_quadratic_models(self):
        with pytest.raises(AnalysisError):
            sparsity(pure_toy_quadratic(8, seed=0), [[1.0]])


class TestLinearizedPrediction:
    def test_exact_for_linear_dynamics(self):
        model, dataset = linear_model()
        eta = 0.9 / lambda_max_symmetric(model.ntk())
        prediction = linearized_predict(model.clone(), dataset, eta, horizon=20)
        sim = model.clone()
        for t in range(21):
            z = sim.outputs()
            true_loss = float(((z - dataset.labels) ** 2).sum()) / (2 * dataset.size)
            assert prediction.predicted_losses[t] == pytest.approx(true_loss, rel=1e-9)
            sim.apply_gd_step(None, z - dataset.labels, eta)

    def test_step_zero_is_exact(self):
        model, dataset = linear_model(seed=1)
        prediction = linearized_predict(model, dataset, 0.1, horizon=3)
        eps0 = model.outputs() - dataset.labels
        assert np.array_equal(prediction.predicted_errors[0], eps0)

    def test_single_datapoint_growth_factor(self):
        # one datapoint at eta * H0 = 2.5: the predicted loss grows by the
        # squared step multiplier (1 - 2.5)^2 = 2.25 every step
        m = pure_toy_quadratic(64, seed=8)
        h0 = float(m.ntk()[0, 0])
        prediction = linearized_predict(m, make_toy(), 2.5 / h0, horizon=6)
        ratios = prediction.predicted_losses[1:] / prediction.predicted_losses[:-1]
        assert np.allclose(ratios, 2.25, rtol=1e-9)

    def test_validity_horizon_from_true_outputs(self):
        m = pure_toy_quadratic(64, seed=9)
        h0 = float(m.ntk()[0, 0])
        traj = train(m.clone(), make_toy(), TrainConfig(eta=3.0 / h0, **FAST))
        outputs = output_series(m, make_toy(), 3.0 / h0, traj.steps_taken)
        prediction = linearized_predict(
            m, make_toy(), 3.0 / h0, horizon=traj.steps_taken, true_outputs=outputs
        )
        scale = output_breakdown_scale(m)
        norms = np.linalg.norm(outputs, axis=1)
        expected = int(np.nonzero(norms >= 0.01 * scale)[0][0])
        assert prediction.validity_horizon == expected

    def test_breakdown_scales(self):
        m = pure_toy_quadratic(64, seed=10)
        assert output_breakdown_scale(m) == pytest.approx(1.0 / m.zeta)
        model, _ = linear_model()
        assert output_breakdown_scale(model) == np.inf
        net = HomogenousNet.init_random(49, Rng(0), 0.5, 1.0)
        assert output_breakdown_scale(net) == 7.0

    def test_supercritical_prediction_tracks_simulator_while_small(self):
        # the full simulator follows the frozen-kernel prediction to ten
        # percent while the outputs stay far below the breakdown scale; pick
        # the first weight seed whose initial output starts below that scale
        # so the comparison window is non-empty
        from catapult.datasets import (
            EigenScheme,
            MetaFeatureSpec,
            assemble_quadratic,
            build_meta_features,
            zeta_for,
        )

        n = 400
        feature_map = build_meta_features(
            MetaFeatureSpec(n, 0, 1, EigenScheme("uniform", 1.0, 2.0)), Rng(11).child(1)
        )
        zeta = zeta_for("2_over_n", n)
        threshold = 0.01 / zeta

        def model_for(seed):
            return assemble_quadratic(feature_map, make_toy(), zeta, Rng(seed).child(2))

        seed = next(
            s for s in range(500) if abs(model_for(s).outputs()[0]) < 0.8 * threshold
        )
        m = model_for(seed)
        h0 = float(m.ntk()[0, 0])
        eta = 3.0 / h0
        traj = train(m.clone(), make_toy(), TrainConfig(eta=eta, **FAST))
        prediction = linearized_predict(
            m,
            make_toy(),
            eta,
            horizon=traj.steps_taken,
            true_outputs=output_series(m, make_toy(), eta, traj.steps_taken),
        )
        horizon = prediction.validity_horizon
        assert horizon is not None and horizon >= 1
        true_losses = traj.losses[:horizon]
        predicted = prediction.predicted_losses[:horizon]
        rel = np.abs(predicted - true_losses) / true_losses
        assert rel.max() < 0.10


class TestGeneralizationReport:
    def test_identical_split_zero_gap(self):
        rng = Rng(18)
        x = rng.normal((6, 3))
        y = np.sign(rng.child(1).normal(6))
        dataset = Dataset(inputs=x, labels=y, test_inputs=x, test_labels=y)
        net = HomogenousNet.init_random(16, rng.child(2), 0.5, 1.0, input_dim=3)
        train_loss = mse_loss(net.outputs(x), y)
        report = generalization_report(net, dataset, train_loss)
        assert report.gap == 0.0

    def test_perfect_predictor_has_unit_accuracy(self):
        class Oracle:
            def outputs(self, x):
                return np.asarray(x)[:, 0]

        x = np.array([[1.0], [-1.0], [1.0]])
        dataset = Dataset(inputs=x, labels=x[:, 0], test_inputs=x, test_labels=x[:, 0])
        report = generalization_report(Oracle(), dataset, 0.0)
        assert report.accuracy == 1.0
        assert report.test_loss == 0.0

    def test_requires_test_split(self):
        net = HomogenousNet.init_random(8, Rng(19), 0.5, 1.0)
        with pytest.raises(AnalysisError):
            generalization_report(net, make_toy(), 0.0)

    def test_custom_evaluator_is_used(self):
        model, _ = linear_model(n=16, d_pts=3, seed=20)
        x = np.zeros((3, 1))
        dataset = Dataset(
            inputs=x, labels=np.ones(3), test_inputs=x, test_labels=np.ones(3)
        )
        report = generalization_report(
            model, dataset, 0.5, evaluate_outputs=lambda m, inputs: np.ones(len(inputs))
        )
        assert report.test_loss == 0.0
        assert report.gap == -0.5
        assert report.accuracy == 1.0
