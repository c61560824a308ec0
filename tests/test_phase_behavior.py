"""Behavioral checks that tie the simulator to the documented phase
phenomenology beyond the acceptance criteria: the positive-label ReLU
experiment, kernel shrinkage through the catapult window, and the
initialization statistics of quadratic models."""

import math

import numpy as np
import pytest

from catapult.analysis import run_sweep_point
from catapult.bounds import bound_relu
from catapult.datasets import make_toy_relu
from catapult.models import HomogenousNet
from catapult.numerics import Rng
from catapult.training import TrainConfig, train
from conftest import pure_toy_quadratic, random_quadratic

FAST = dict(ntk_eval_interval=10**9)


class TestReluPositiveLabel:
    """Two-layer ReLU on (x, y) = (4, 2): fits inside the certified window;
    above it each run either fits or collapses to a dead net instead of
    diverging, and larger rates kill more nets."""

    @staticmethod
    def relu_net(seed=0, width=512):
        return HomogenousNet.init_random(width, Rng(seed).child(2), 0.0, 1.0)

    def test_fits_inside_certified_window(self):
        dataset = make_toy_relu()
        for seed in range(5):
            net = self.relu_net(seed)
            report = bound_relu(net, dataset)
            for target in (2.5, 3.0, 3.5):
                eta = target * report.catapult_lower / 2.0  # eta * H0 = target
                trajectory = train(
                    net.clone(), dataset, TrainConfig(eta=eta, max_steps=200_000, **FAST)
                )
                assert trajectory.termination == "converged"
                assert trajectory.losses[-1] < 1e-6  # actually fits the label

    def test_kernel_collapse_at_large_rates(self):
        # Above the certified window each run either fits the label or dies:
        # every first-layer preactivation turns non-positive, the kernel
        # vanishes, and the loss settles exactly at the constant-zero-output
        # value y^2 / 2.  Nothing diverges.  Which of the two happens to one
        # seed is not monotone in the rate, so the claim is tested across
        # seeds: the dead share and the sparsity grow with the rate.
        from catapult.analysis import sparsity

        dataset = make_toy_relu()
        dead_loss = float(dataset.labels[0]) ** 2 / 2.0

        def outcomes(target):
            dead, sparsities = 0, []
            for seed in range(20):
                net = self.relu_net(seed)
                h0 = float(net.ntk(dataset.inputs)[0, 0])
                trajectory = train(
                    net, dataset, TrainConfig(eta=target / h0, max_steps=200_000, **FAST)
                )
                assert trajectory.termination == "converged"
                final = sparsity(net, dataset.inputs)
                if final == [1.0]:
                    dead += 1
                    assert trajectory.losses[-1] == dead_loss
                    assert trajectory.eta_lambda_max[-1] == 0.0
                else:
                    assert trajectory.losses[-1] < 1e-6  # fits the label
                sparsities.append(final[0])
            return dead, float(np.mean(sparsities))

        dead_low, sparsity_low = outcomes(4.6)
        dead_high, sparsity_high = outcomes(12.0)
        assert dead_high > dead_low
        assert dead_high > 10
        assert sparsity_high > sparsity_low


    def test_outcome_column_pins_the_dead_share(self):
        # width 512, seeded as `catapult sweep` seeds init_seed 0-19: 9, 16
        # and 20 of the 20 runs end dead at eta * H0 = 4.6, 8 and 12, and
        # every other run fits; all 60 are catapults
        dataset = make_toy_relu()
        config = TrainConfig(eta=1.0, max_steps=300_000, **FAST)
        for target, dead in ((4.6, 9), (8.0, 16), (12.0, 20)):
            outcomes = []
            for seed in range(20):
                net = HomogenousNet.init_random(512, Rng(seed).child(2, 0), 0.0, 1.0)
                h0 = float(net.ntk(dataset.inputs)[0, 0])
                record, _ = run_sweep_point(net.clone, dataset, target / h0, config, h0)
                assert record.phase == "catapult"
                outcomes.append(record.outcome)
            assert outcomes.count("dead") == dead
            assert outcomes.count("fit") == 20 - dead


class TestCatapultKernelShrinkage:
    def test_converged_catapult_runs_shrink_the_kernel_and_norm(self):
        # through the catapult window both the weight norm and the final
        # kernel value end below their initial values
        factory = lambda: pure_toy_quadratic(200, seed=4)  # noqa: E731
        from catapult.datasets import make_toy

        dataset = make_toy()
        lam0 = float(factory().ntk()[0, 0])
        grid = [g / lam0 for g in (2.4, 2.8, 3.2, 3.6)]
        config = TrainConfig(eta=1.0, **FAST)
        for eta in grid:
            record, _ = run_sweep_point(factory, dataset, eta, config, lam0)
            assert record.phase == "catapult"
            assert record.weight_ratio < 1.0
            assert record.final_eta_lambda_max < record.eta_lambda0


class TestQuadraticInitializationStatistics:
    """Gaussian-weight averages at initialization: the mean output is half
    the coupling times the meta-feature trace, the mean kernel adds the
    feature Gram to the coupling-squared trace of the meta-feature product,
    and the mean squared norm is the weight count."""

    @pytest.fixture(scope="class")
    def instance(self):
        model, dataset = random_quadratic(24, 6, 2, 3, seed=31)
        return model, dataset

    @staticmethod
    def _samples(model, count=4000):
        outputs = np.empty((count, model.num_points))
        kernels = np.empty((count, model.num_points, model.num_points))
        norms = np.empty(count)
        work = model.clone()
        for seed in range(count):
            work.theta[:] = Rng(seed).child(9).normal(model.n)
            outputs[seed] = work.outputs()
            kernels[seed] = work.ntk()
            norms[seed] = work.weight_norm()
        return outputs, kernels, norms

    def test_mean_output(self, instance):
        model, _ = instance
        outputs, _, _ = self._samples(model)
        expected = 0.5 * model.zeta * np.trace(
            model.meta_features, axis1=1, axis2=2
        )
        stderr = outputs.std(axis=0, ddof=1) / math.sqrt(outputs.shape[0])
        assert np.all(np.abs(outputs.mean(axis=0) - expected) < 3.0 * stderr)

    def test_mean_kernel(self, instance):
        model, _ = instance
        _, kernels, _ = self._samples(model)
        phi = model.features
        psi = model.meta_features
        expected = (
            phi @ phi.T + model.zeta**2 * np.einsum("aij,bji->ab", psi, psi)
        ) / model.num_points
        stderr = kernels.std(axis=0, ddof=1) / math.sqrt(kernels.shape[0])
        assert np.all(np.abs(kernels.mean(axis=0) - expected) < 4.0 * stderr)

    def test_mean_squared_norm(self, instance):
        model, _ = instance
        _, _, norms = self._samples(model)
        stderr = norms.std(ddof=1) / math.sqrt(norms.size)
        assert abs(norms.mean() - model.n) < 3.0 * stderr
