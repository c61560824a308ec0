import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catapult.models import (
    DeepReluNet,
    HomogenousNet,
    ModelError,
    QuadraticModel,
    linear_net_with_bias_embedding,
    loss_gradients,
    scale_invariant_slope,
    tangent_kernel,
)
from catapult.datasets import Dataset
from catapult.numerics import Rng, lambda_max_symmetric
from catapult.selfcheck import _CorruptedZeroSlopeNet, check_negative_control_corrupted_slope
from catapult.training import TrainConfig, train
from conftest import (
    analytic_gradient,
    finite_difference_gradient,
    params_vector,
    pure_toy_quadratic,
    random_quadratic,
    with_bias_toy_quadratic,
)

EXCHANGE = np.array([[0.0, 1.0], [1.0, 0.0]])


def exchange_pure_model(theta=(1.0, 1.0), zeta=1.0) -> QuadraticModel:
    return QuadraticModel(
        theta=list(theta),
        features=np.zeros((1, 2)),
        meta_features=EXCHANGE[None, :, :],
        zeta=zeta,
        variant="pure",
    )


class TestQuadraticModel:
    def test_zero_weights_zero_output(self):
        m = exchange_pure_model(theta=(0.0, 0.0), zeta=0.7)
        assert m.outputs()[0] == 0.0

    def test_linear_reduction(self):
        phi = np.zeros((1, 3))
        phi[0, 0] = 1.0
        m = QuadraticModel(
            theta=[3.0, 0.0, 0.0],
            features=phi,
            meta_features=np.zeros((1, 3, 3)),
            zeta=0.0,
            variant="with_bias",
        )
        assert m.outputs()[0] == 3.0

    def test_exchange_quadratic_form(self):
        assert exchange_pure_model().outputs()[0] == pytest.approx(1.0)

    def test_ntk_static_at_zero_coupling(self):
        rng = Rng(0)
        phi = rng.normal((3, 8))
        m = QuadraticModel(
            theta=rng.normal(8),
            features=phi,
            meta_features=np.zeros((3, 8, 8)),
            zeta=0.0,
            variant="with_bias",
        )
        expected = phi @ phi.T / 3.0
        assert np.allclose(m.ntk(), expected, atol=1e-14)
        m.theta[:] = rng.normal(8)
        assert np.allclose(m.ntk(), expected, atol=1e-14)

    def test_pure_single_point_kernel_formula(self):
        # kernel equals zeta^2 theta (psi psi) theta at one datapoint
        m = pure_toy_quadratic(24, seed=5)
        psi = m.meta_features[0]
        expected = m.zeta**2 * float(m.theta @ (psi @ (psi @ m.theta)))
        assert float(m.ntk()[0, 0]) == pytest.approx(expected, rel=1e-12)

    def test_exchange_kernel_is_theta_norm(self):
        # psi @ psi is the identity for the exchange matrix
        assert float(exchange_pure_model().ntk()[0, 0]) == pytest.approx(2.0)

    def test_gradient_zero_at_zero_errors(self):
        m = pure_toy_quadratic(16, seed=3)
        assert np.abs(m.grad_theta(np.zeros(1))).max() == 0.0

    def test_exchange_gradient(self):
        m = exchange_pure_model()
        z = m.outputs()
        grad = m.grad_theta(z - 0.0)
        assert np.allclose(grad, [1.0, 1.0])

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: random_quadratic(16, 0, 2, 4, seed=21)[0:2],
            lambda: random_quadratic(16, 4, 2, 4, seed=22)[0:2],
            lambda: random_quadratic(32, 0, 3, 8, seed=23, activation="tanh")[0:2],
        ],
    )
    def test_gradient_matches_finite_differences(self, builder):
        model, dataset = builder()
        analytic = analytic_gradient(model, dataset)
        numeric = finite_difference_gradient(model, dataset)
        denom = max(np.linalg.norm(analytic), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-5

    def test_pure_variant_rejects_nonzero_features(self):
        with pytest.raises(ModelError):
            QuadraticModel(
                theta=[1.0],
                features=[[1.0]],
                meta_features=np.zeros((1, 1, 1)),
                zeta=1.0,
                variant="pure",
            )

    def test_with_bias_rejects_overlapping_features(self):
        psi = np.eye(2)[None, :, :]
        with pytest.raises(ModelError):
            QuadraticModel(
                theta=[1.0, 1.0],
                features=[[1.0, 0.0]],
                meta_features=psi,
                zeta=1.0,
                variant="with_bias",
            )

    def test_rejects_asymmetric_meta_features(self):
        psi = np.array([[[0.0, 1.0], [0.5, 0.0]]])
        with pytest.raises(ModelError):
            QuadraticModel(
                theta=[1.0, 1.0],
                features=np.zeros((1, 2)),
                meta_features=psi,
                zeta=1.0,
                variant="generic",
            )

    @given(st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pure_homogeneity_weight_two(self, scale, seed):
        m = pure_toy_quadratic(12, seed=seed % 1000)
        z = m.outputs()[0]
        scaled = m.clone()
        scaled.theta[:] = scale * m.theta
        assert scaled.outputs()[0] == pytest.approx(scale**2 * z, rel=1e-10, abs=1e-12)

    def test_clone_copies_theta_without_revalidating(self, monkeypatch):
        m = with_bias_toy_quadratic(16, 4, seed=9)
        calls = []
        validate = QuadraticModel.__post_init__
        monkeypatch.setattr(
            QuadraticModel, "__post_init__", lambda self: calls.append(1) or validate(self)
        )
        twin = m.clone()
        assert calls == []
        assert twin.theta is not m.theta and np.array_equal(twin.theta, m.theta)
        assert twin.meta_features is m.meta_features and twin.features is m.features
        twin.theta[:] = 0.0
        assert np.any(m.theta != 0.0)

    def test_with_bias_orthogonality_preserved_after_assembly(self):
        m = with_bias_toy_quadratic(16, 4, seed=9)
        overlap = np.einsum("aij,bj->abi", m.meta_features, m.features)
        assert np.abs(overlap).max() <= 1e-12


class TestHomogenousNet:
    def test_zero_second_layer(self):
        net = HomogenousNet(u=np.ones((4, 1)), v=np.zeros(4), a_minus=0.5, a_plus=1.0)
        assert net.outputs([[1.0]])[0] == 0.0

    def test_single_neuron_forward(self):
        net = HomogenousNet(u=np.array([2.0]), v=np.array([3.0]), a_minus=0.0, a_plus=1.0)
        assert net.outputs([[1.0]])[0] == pytest.approx(6.0)

    def test_single_neuron_kernel(self):
        net = HomogenousNet(u=np.array([2.0]), v=np.array([3.0]), a_minus=0.0, a_plus=1.0)
        assert float(net.ntk([[1.0]])[0, 0]) == pytest.approx(13.0)

    def test_kernel_formula_single_datapoint(self):
        rng = Rng(17)
        net = HomogenousNet.init_random(32, rng, a_minus=0.25, a_plus=1.0)
        pre = net.u[:, 0]
        act = np.where(pre >= 0, net.a_plus * pre, net.a_minus * pre)
        slope = np.where(pre > 0, net.a_plus, np.where(pre < 0, net.a_minus, 0.625))
        expected = float((act @ act + (net.v * slope) @ (net.v * slope)) / 32.0)
        assert float(net.ntk([[1.0]])[0, 0]) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(0.01, 10.0), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_positive_homogeneity_weight_two(self, scale, seed):
        net = HomogenousNet.init_random(16, Rng(seed), a_minus=0.5, a_plus=1.0, input_dim=2)
        x = Rng(seed + 1).normal((3, 2))
        z = net.outputs(x)
        scaled = net.clone()
        scaled.u *= scale
        scaled.v *= scale
        assert np.allclose(scaled.outputs(x), scale**2 * z, rtol=1e-10, atol=1e-12)

    def test_monte_carlo_initial_kernel_mean(self):
        # E[H0] = a_minus^2 + a_plus^2 on the unit datapoint
        a_minus, a_plus = 0.5, 1.0
        samples = np.array(
            [
                float(
                    HomogenousNet.init_random(64, Rng(seed), a_minus, a_plus).ntk(
                        [[1.0]]
                    )[0, 0]
                )
                for seed in range(2000)
            ]
        )
        target = a_minus**2 + a_plus**2
        stderr = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - target) < 3.0 * stderr

    def test_gradient_matches_finite_differences(self):
        rng = Rng(31)
        net = HomogenousNet.init_random(24, rng, a_minus=0.5, a_plus=1.0, input_dim=3)
        from catapult.datasets import Dataset

        dataset = Dataset(
            inputs=rng.child(1).normal((6, 3)), labels=rng.child(2).normal(6)
        )
        analytic = analytic_gradient(net, dataset)
        numeric = finite_difference_gradient(net, dataset)
        assert np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic) < 1e-5

    def test_slope_ordering_enforced(self):
        with pytest.raises(ModelError):
            HomogenousNet(u=np.ones((2, 1)), v=np.ones(2), a_minus=1.0, a_plus=0.5)

    def test_kernel_psd_multi_point(self):
        rng = Rng(40)
        net = HomogenousNet.init_random(32, rng, a_minus=0.5, a_plus=1.0, input_dim=4)
        h = net.ntk(rng.child(1).normal((8, 4)))
        assert np.array_equal(h, h.T)
        evals = np.linalg.eigvalsh(h)
        assert evals.min() >= -1e-8 * max(1.0, evals.max())


class TestReluProjector:
    """The sign split a 1d net with a zero negative slope freezes when it is
    built: ``active_on(x)`` is the mask of u x >= 0 at construction."""

    def test_decomposition_of_mixed_signs(self):
        net = HomogenousNet(
            u=np.array([1.0, -2.0, 3.0]), v=np.ones(3), a_minus=0.0, a_plus=1.0
        )
        assert np.array_equal(net.frozen_u, [1.0, -2.0, 3.0])
        assert np.array_equal(net.active_on(1.0), [True, False, True])
        assert np.array_equal(net.active_on(-1.0), [False, True, False])
        # the two sides partition the coordinates
        plus, minus = net.certified_norm([[1.0]]), net.certified_norm([[-1.0]])
        assert (plus, minus) == (12.0, 5.0)
        assert plus + minus == net.weight_norm()

    def test_all_positive_weights(self):
        net = HomogenousNet(
            u=np.array([0.5, 1.5]), v=np.array([2.0, -1.0]), a_minus=0.0, a_plus=1.0
        )
        assert not np.any(net.active_on(-1.0))
        assert net.certified_norm([[1.0]]) == pytest.approx(net.weight_norm())

    def test_zero_counts_on_both_sides(self):
        # a neuron with u = 0 sits at the kink on every input and moves at
        # the midpoint slope, whatever the sign of x
        net = HomogenousNet(
            u=np.array([0.0, -1.0]), v=np.ones(2), a_minus=0.0, a_plus=1.0
        )
        assert np.array_equal(net.active_on(1.0), [True, False])
        assert np.array_equal(net.active_on(-1.0), [True, True])

    def test_sign_fraction_near_half(self):
        n = 100_000
        net = HomogenousNet(
            u=Rng(77).normal(n), v=np.ones(n), a_minus=0.0, a_plus=1.0
        )
        fraction = net.active_on(1.0).mean()
        assert abs(fraction - 0.5) < 3.0 * 0.5 / math.sqrt(n)

    def test_requires_one_dimensional_inputs(self):
        net = HomogenousNet.init_random(8, Rng(1), 0.0, 1.0, input_dim=2)
        assert net.frozen_u is None
        assert net.certified_norm([[1.0, 0.5]]) is None
        with pytest.raises(ModelError):
            net.active_on(1.0)

    def test_clone_keeps_the_split_frozen_at_construction(self):
        net = HomogenousNet(
            u=np.array([1.0, -2.0]), v=np.ones(2), a_minus=0.0, a_plus=1.0
        )
        net.u[:, 0] = [-1.0, 2.0]
        assert np.array_equal(net.clone().active_on(1.0), [True, False])


class TestWeightNorm:
    def test_three_four_five(self):
        m = QuadraticModel(
            theta=[3.0, 4.0],
            features=np.zeros((1, 2)),
            meta_features=np.zeros((1, 2, 2)),
            zeta=1.0,
            variant="pure",
        )
        assert m.weight_norm() == 25.0

    def test_two_layer_norm(self):
        net = HomogenousNet(
            u=np.array([1.0, 2.0]), v=np.array([2.0, 0.0]), a_minus=0.5, a_plus=1.0
        )
        assert net.weight_norm() == 9.0

    def test_monte_carlo_expected_norm(self):
        n = 64
        samples = np.array(
            [
                HomogenousNet.init_random(n, Rng(seed), 0.5, 1.0).weight_norm()
                for seed in range(2000)
            ]
        )
        stderr = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - 2 * n) < 3.0 * stderr

    def test_deep_net_counts_every_layer(self):
        net = DeepReluNet(
            input_weights=np.ones((2, 3)),
            hidden_weights=2.0 * np.ones((2, 2)),
            output_weights=np.array([1.0, -1.0]),
        )
        assert net.weight_norm() == 6.0 + 16.0 + 2.0


class TestDeepReluNet:
    def test_single_chain_kernel_in_linear_region(self):
        # all-positive weights and a positive input keep every ReLU active,
        # so the gradient factors are plain weight products
        u, w, v, x = 0.7, 1.3, 2.1, 1.9
        net = DeepReluNet(
            input_weights=np.array([[u]]),
            hidden_weights=np.array([[w]]),
            output_weights=np.array([v]),
        )
        z = net.outputs([[x]])[0]
        assert z == pytest.approx(v * w * u * x)
        expected = (w * u * x) ** 2 + (v * u * x) ** 2 + (v * w * x) ** 2
        assert float(net.ntk([[x]])[0, 0]) == pytest.approx(expected, rel=1e-12)

    def test_kernel_psd_random(self):
        rng = Rng(51)
        net = DeepReluNet.init_random(32, 6, rng)
        h = net.ntk(rng.child(1).normal((8, 6)))
        evals = np.linalg.eigvalsh(h)
        assert evals.min() >= -1e-8 * max(evals.max(), 1.0)

    def test_gradient_matches_finite_differences(self):
        rng = Rng(52)
        net = DeepReluNet.init_random(10, 4, rng)
        from catapult.datasets import Dataset

        dataset = Dataset(
            inputs=rng.child(1).normal((5, 4)), labels=rng.child(2).normal(5)
        )
        analytic = analytic_gradient(net, dataset)
        numeric = finite_difference_gradient(net, dataset)
        assert np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic) < 1e-5

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2, 2), (2, 2, 2)])
    def test_rejects_a_hidden_matrix_of_another_shape(self, shape):
        # one square (width x width) matrix; no stack of them
        with pytest.raises(ModelError, match="hidden matrix"):
            DeepReluNet(
                input_weights=np.ones((2, 3)),
                hidden_weights=np.ones(shape),
                output_weights=np.ones(2),
            )

def kernel_case(family: str):
    rng = Rng(53)
    if family == "quadratic_with_bias":
        model, dataset = random_quadratic(8, 4, 2, 3, seed=53)
        return model, dataset.inputs
    if family == "leaky_homogenous":
        net = HomogenousNet.init_random(6, rng, a_minus=0.5, a_plus=1.0, input_dim=2)
        return net, rng.child(1).normal((4, 2))
    return DeepReluNet.init_random(6, 3, rng), rng.child(1).normal((4, 3))


@pytest.mark.parametrize("family", ["quadratic_with_bias", "leaky_homogenous", "deep_relu"])
def test_kernel_matches_streamed_per_sample_gradients(family):
    # oracle: assemble the kernel from explicit per-sample gradients; a
    # unit-rate step on a one-hot error vector moves the weights by J_a / D
    model, x = kernel_case(family)
    d_pts = len(x)
    rows = []
    for a in range(d_pts):
        work = model.clone()
        work.apply_gd_step(x, np.eye(d_pts)[a], 1.0)
        rows.append(d_pts * (params_vector(model) - params_vector(work)))
    jac = np.stack(rows)
    assert np.allclose(model.ntk(x), jac @ jac.T / d_pts, rtol=0.0, atol=1e-12)


def aliasing_case(family: str):
    rng = Rng(54)
    if family == "quadratic":
        arrays = {"theta": np.array([1.0, 0.5])}
        model = QuadraticModel(
            features=np.zeros((1, 2)), meta_features=EXCHANGE[None], zeta=1.0, **arrays
        )
        return arrays, model, None
    if family == "homogenous":
        arrays = {"u": rng.normal((5, 2)), "v": rng.child(1).normal(5)}
        net = HomogenousNet(a_minus=0.5, a_plus=1.0, **arrays)
        return arrays, net, rng.child(2).normal((3, 2))
    arrays = {
        "input_weights": rng.normal((5, 2)),
        "hidden_weights": rng.child(1).normal((5, 5)),
        "output_weights": rng.child(2).normal(5),
    }
    return arrays, DeepReluNet(**arrays), rng.child(3).normal((3, 2))


@pytest.mark.parametrize("family", ["quadratic", "homogenous", "deep_relu"])
def test_training_leaves_the_callers_arrays_alone(family):
    # GD steps update the weights in place, so a model (and each clone) must
    # own its trainable arrays rather than view the ones it was built from
    arrays, model, x = aliasing_case(family)
    before = {key: np.array(value, copy=True) for key, value in arrays.items()}
    start = params_vector(model)
    twin = model.clone()
    twin.apply_gd_step(x, twin.outputs(x) - 1.0, 0.1)
    assert np.array_equal(params_vector(model), start)
    model.apply_gd_step(x, model.outputs(x) - 1.0, 0.1)
    assert np.array_equal(params_vector(model), params_vector(twin))
    assert not np.array_equal(params_vector(model), start)
    for key, value in arrays.items():
        assert np.array_equal(np.asarray(value), before[key]), key


# ---------------------------------------------------------------------------
# The kept forward pass: outputs(x) runs it, ntk(x) and the step reuse it
# ---------------------------------------------------------------------------

KEPT_PASS_FAMILIES = ["quadratic_with_bias", "leaky_homogenous", "deep_relu"]


def kept_pass_case(family: str):
    """A model, its inputs and labels, and an eta * lambda0 at which its loss
    spikes within 30 steps and then falls (a catapult)."""
    if family == "quadratic_with_bias":
        model, dataset = random_quadratic(12, 4, 2, 5, seed=62)
        return model, dataset, 3.0
    rng = Rng(61)
    if family == "leaky_homogenous":
        model = HomogenousNet.init_random(16, rng, a_minus=0.5, a_plus=1.0, input_dim=2)
        dataset = Dataset(inputs=rng.child(1).normal((5, 2)), labels=rng.child(2).normal(5))
        return model, dataset, 3.0
    model = DeepReluNet.init_random(32, 3, rng.child(3))
    dataset = Dataset(inputs=rng.child(4).normal((5, 3)), labels=rng.child(5).normal(5))
    return model, dataset, 4.0


class TestKeptForwardPass:
    @pytest.mark.parametrize("family", KEPT_PASS_FAMILIES)
    @pytest.mark.parametrize("regime", ["lazy", "catapult"])
    def test_reusing_the_pass_moves_no_bit(self, family, regime):
        # the twin gets a fresh copy of the inputs at every call, so it never
        # reuses a pass; outputs, kernels and weights must agree bit for bit
        model, dataset, catapult_rate = kept_pass_case(family)
        x, y = dataset.inputs, dataset.labels
        rate = 1.0 if regime == "lazy" else catapult_rate
        eta = rate / lambda_max_symmetric(model.ntk(x))
        reused, fresh = model.clone(), model.clone()
        losses = []
        for _ in range(30):
            z, z_fresh = reused.outputs(x), fresh.outputs(x.copy())
            assert z.tobytes() == z_fresh.tobytes()
            assert reused.ntk(x).tobytes() == fresh.ntk(x.copy()).tobytes()
            reused.apply_gd_step(x, z - y, eta)
            fresh.apply_gd_step(x.copy(), z_fresh - y, eta)
            losses.append(float((z - y) @ (z - y)))
        assert params_vector(reused).tobytes() == params_vector(fresh).tobytes()
        assert np.isfinite(losses).all() and losses[-1] < losses[0]
        assert (max(losses) > losses[0]) == (regime == "catapult")

    @pytest.mark.parametrize("family", KEPT_PASS_FAMILIES)
    def test_train_runs_one_forward_pass_per_step(self, family, monkeypatch):
        model, dataset, _ = kept_pass_case(family)
        eta = 1.0 / lambda_max_symmetric(model.ntk(dataset.inputs))
        forward = type(model)._forward
        passes = []

        def counted(self, inputs):
            passes.append(inputs)
            return forward(self, inputs)

        monkeypatch.setattr(type(model), "_forward", counted)
        config = TrainConfig(eta=eta, max_steps=20, convergence_tol=1e-300)
        assert train(model.clone(), dataset, config).steps_taken == 20
        # the outputs of the 21 states; the 21 kernels and 20 steps reuse them
        assert len(passes) == 21

    @pytest.mark.parametrize("family", KEPT_PASS_FAMILIES)
    def test_kernel_after_a_step_is_the_new_weights_kernel(self, family):
        model, dataset, _ = kept_pass_case(family)
        x, y = dataset.inputs, dataset.labels
        before = model.ntk(x)
        model.apply_gd_step(x, model.outputs(x) - y, 1.0 / lambda_max_symmetric(before))
        after = model.ntk(x)
        assert after.tobytes() == model.clone().ntk(x).tobytes()
        assert not np.array_equal(after, before)

    @pytest.mark.parametrize("family", ["leaky_homogenous", "deep_relu"])
    def test_other_inputs_get_their_own_pass(self, family):
        # a net's pass depends on its inputs; only the very object outputs
        # ran on may reuse it, whatever the values
        model, dataset, _ = kept_pass_case(family)
        x = dataset.inputs
        other = x[::-1].copy()
        model.outputs(x)
        kernel = model.ntk(other)
        assert kernel.tobytes() == model.clone().ntk(other).tobytes()
        assert not np.array_equal(kernel, model.ntk(x))

    @pytest.mark.parametrize("family", ["leaky_homogenous", "deep_relu"])
    def test_activations_read_the_kept_pass(self, family, monkeypatch):
        # the maps sparsity counts are those of the pass that gave the outputs
        model, dataset, _ = kept_pass_case(family)
        x, y = dataset.inputs, dataset.labels
        model.apply_gd_step(x, model.outputs(x) - y, 0.1)
        model.outputs(x)
        forward = type(model)._forward
        passes = []
        monkeypatch.setattr(
            type(model), "_forward", lambda self, inputs: passes.append(1) or forward(self, inputs)
        )
        kept = model.activations(x)
        assert passes == []
        fresh = model.activations(x.copy())
        assert len(passes) == 1
        assert [bits(a) for a in kept] == [bits(a) for a in fresh]

    @pytest.mark.parametrize("family", KEPT_PASS_FAMILIES)
    def test_clone_and_pickle_carry_no_pass_or_buffers(self, family):
        model, dataset, _ = kept_pass_case(family)
        x, y = dataset.inputs, dataset.labels
        model.apply_gd_step(x, model.outputs(x) - y, 0.01)
        z = model.outputs(x)
        assert {"_kept", "_gradients"} <= set(vars(model))
        for twin in (model.clone(), pickle.loads(pickle.dumps(model))):
            assert not {"_kept", "_gradients"} & set(vars(twin))
            assert twin.outputs(x).tobytes() == z.tobytes()
            twin.apply_gd_step(x, z - y, 0.01)
            assert twin.outputs(x).tobytes() != z.tobytes()
        # stepping the twins left the original's weights alone
        assert model.outputs(x).tobytes() == z.tobytes()

    def test_corrupted_slope_control_drops_the_pass_and_still_fails(self):
        # its step builds its own factors but updates through the shared
        # in-place path, so no kernel can read the pass of the old weights
        net = _CorruptedZeroSlopeNet(u=[0.0, 1.0, -0.5], v=[2.0, 1.0, 1.0], a_minus=0.0, a_plus=1.0)
        x, y = np.array([[1.0]]), np.array([0.5])
        before = net.ntk(x)
        net.apply_gd_step(x, net.outputs(x) - y, 0.1)
        after = net.ntk(x)
        assert after.tobytes() == net.clone().ntk(x).tobytes()
        assert not np.array_equal(after, before)
        # and the weight-norm identity still catches it within three steps
        for seed in (0, 1, 2):
            result = check_negative_control_corrupted_slope(seed)
            assert result.passed and result.residual > result.threshold, seed


def where_activation(x, a_minus, a_plus):
    """The activation as two np.where passes once computed it: the oracle."""
    return np.where(x >= 0.0, a_plus * x, a_minus * x)


def where_slope(x, a_minus, a_plus):
    return np.where(x > 0.0, a_plus, np.where(x < 0.0, a_minus, 0.5 * (a_plus + a_minus)))


def where_homogenous(net, x):
    """Outputs, activations and factors of a two-layer net from the oracle."""
    pre = x @ net.u.T
    act = where_activation(pre, net.a_minus, net.a_plus)
    factors = [(act, None), (where_slope(pre, net.a_minus, net.a_plus) * net.v, x)]
    return act @ net.v / math.sqrt(net.width), [act], factors


def where_deep(net, x):
    """Outputs, activations and factors of the three-layer net from the oracle."""
    pre_in = x @ net.input_weights.T
    act_in = where_activation(pre_in, 0.0, 1.0)
    pre_hidden = act_in @ net.hidden_weights.T
    act_hidden = where_activation(pre_hidden, 0.0, 1.0)
    back_hidden = net.output_weights[None, :] * where_slope(pre_hidden, 0.0, 1.0)
    back_in = (back_hidden @ net.hidden_weights) * where_slope(pre_in, 0.0, 1.0)
    factors = [(back_in, x), (act_hidden, None), (back_hidden, act_in)]
    return net.output_scale * (act_hidden @ net.output_weights), [act_in, act_hidden], factors


SLOPES = [(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


class TestSlopeAgainstWherePair:
    """One slope array per layer reproduces the two np.where helpers it
    replaced: the activation bit for bit, sign bits of zeros included, and the
    slope everywhere but at NaN."""

    EDGES = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308, 2.5, -2.5]
    )

    @pytest.mark.parametrize("a_minus, a_plus", SLOPES + [(0.1, 0.7)])
    def test_helper(self, a_minus, a_plus):
        x = np.concatenate([self.EDGES, Rng(70).normal(199)]).reshape(-1, 7)
        slope = scale_invariant_slope(x, a_minus, a_plus)
        nan = np.isnan(x)
        assert bits(slope[~nan]) == bits(where_slope(x, a_minus, a_plus)[~nan])
        assert np.all(slope[nan] == 0.0)
        with np.errstate(invalid="ignore"):
            act = slope * x
            assert bits(act) == bits(where_activation(x, a_minus, a_plus))
        assert np.signbit(act[x == 0.0]).tolist() == np.signbit(x[x == 0.0]).tolist()

    @staticmethod
    def homogenous_case(a_minus, a_plus, infinite):
        # x = (1, 1) meets two neurons of u with opposite entries at exact
        # +0, where the midpoint slope moves the kernel and the step; the
        # rows (+-inf, 1) give +-inf preactivations and leave nothing finite
        # after a step.  u has no zero entry, so no preactivation is NaN, the
        # one state where the slopes may differ.
        net = HomogenousNet(
            u=[[1.5, 0.5], [-0.5, 0.5], [2.0, -1.0], [-1.0, 0.25], [0.25, -0.25]],
            v=[0.3, -1.2, 0.7, 2.0, -0.4],
            a_minus=a_minus,
            a_plus=a_plus,
        )
        rows = [[1.0, 1.0], [0.0, 0.0], [-2.0, 1.0], [0.5, 2.0]]
        x = np.array(rows + [[np.inf, 1.0], [-np.inf, 1.0]] * infinite)
        return net, x, where_homogenous

    @staticmethod
    def deep_case(infinite):
        # the row (1, 1, 0.5) meets the first input neuron (1, -1, 0) at +0,
        # and the zero first hidden row gives +0 on every datapoint; 1e308
        # hidden rows of one sign overflow to +-inf without an inf - inf
        rng = Rng(71)
        net = DeepReluNet(
            input_weights=rng.normal((4, 3)),
            hidden_weights=rng.child(3).normal((4, 4)),
            output_weights=rng.normal(4),
        )
        net.input_weights[0] = [1.0, -1.0, 0.0]
        net.hidden_weights[0] = 0.0
        if infinite:
            net.hidden_weights[1:, :3] = np.outer([-1.0, 1.5, -1.5], np.ones(3)) * 1e308
        x = np.vstack(
            [[1.0, 1.0, 0.5], 10.0 * np.abs(rng.child(1).normal((3, 3))), -np.abs(rng.child(2).normal(3))]
        )
        return net, x, where_deep

    CASES = [("homogenous", slopes) for slopes in SLOPES] + [("deep_relu", None)]

    def case(self, family, slopes, infinite):
        if family == "deep_relu":
            return self.deep_case(infinite)
        return self.homogenous_case(*slopes, infinite)

    def test_cases_reach_the_edges(self):
        net, x, _ = self.homogenous_case(0.0, 1.0, True)
        pre = x @ net.u.T
        net, x, _ = self.deep_case(True)
        with np.errstate(over="ignore", invalid="ignore"):
            pre_in = x @ net.input_weights.T
            hidden = np.maximum(pre_in, 0.0) @ net.hidden_weights.T
        for values in (pre, pre_in, hidden):
            assert np.any((values == 0.0) & ~np.signbit(values))
            assert not np.isnan(values).any()
        for values in (pre, hidden):
            assert np.any(values == np.inf) and np.any(values == -np.inf)
        # the finite cases step to finite weights, so the step is compared
        # on numbers and not only on NaN patterns
        for family, slopes in self.CASES:
            net, x, _ = self.case(family, slopes, False)
            net.apply_gd_step(x, net.outputs(x), 0.3)
            assert all(np.isfinite(w).all() for w in net.weights())

    @pytest.mark.parametrize("infinite", [False, True])
    @pytest.mark.parametrize("family, slopes", CASES)
    def test_model_matches_the_oracle_bitwise(self, family, slopes, infinite):
        net, x, oracle = self.case(family, slopes, infinite)
        y = np.linspace(-0.5, 0.5, len(x))
        with np.errstate(over="ignore", invalid="ignore"):
            outputs, activations, factors = oracle(net, x)
            assert bits(net.outputs(x)) == bits(outputs)
            got = net.activations(x)
            assert len(got) == len(activations)
            for a, b in zip(got, activations):
                assert bits(a) == bits(b)
            assert bits(net.ntk(x)) == bits(tangent_kernel(factors, net.output_scale))
            expected = [w.copy() for w in net.weights()]
            for w, g in zip(expected, loss_gradients(factors, outputs - y, net.output_scale)):
                g *= 0.3
                w -= g
            net.apply_gd_step(x, net.outputs(x) - y, 0.3)
        for w, e in zip(net.weights(), expected):
            assert bits(w) == bits(e)


# ---------------------------------------------------------------------------
# The first layer in the row space of the training inputs (D < d)
# ---------------------------------------------------------------------------

# relative deviation from the dense step allowed over 30 steps; the largest
# seen on these cases is 6.5e-15, through loss spikes of 5 to 9 times
ROW_SPACE_RTOL = 1e-12
ROW_SPACE_FAMILIES = ["relu", "leaky_homogenous", "deep_relu"]


def row_space_case(family: str, d_pts: int, dim: int):
    """A net, inputs, labels, the net's dense oracle, and an eta * lambda0 at
    which its loss spikes within 30 steps and then falls (a catapult)."""
    rng = Rng(81)
    x = rng.child(1).normal((d_pts, dim))
    y = rng.child(2).normal(d_pts)
    if family == "deep_relu":
        return DeepReluNet.init_random(32, dim, rng.child(3)), x, y, where_deep, 4.0
    a_minus = 0.0 if family == "relu" else 0.5
    net = HomogenousNet.init_random(32, rng.child(3), a_minus, 1.0, dim)
    return net, x, y, where_homogenous, 3.0


def dense_step(net, oracle, x, y, eta: float) -> np.ndarray:
    """One GD step on a net that never stepped itself, so its first layer is
    one array: ``w -= eta * g`` with every gradient built from the explicit
    inputs by the oracle's factors.  Returns the outputs before the step."""
    outputs, _, factors = oracle(net, x)
    for w, g in zip(net.weights(), loss_gradients(factors, outputs - y, net.output_scale)):
        g *= eta
        w -= g
    return outputs


def relative(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestRowSpaceFirstLayer:
    @pytest.mark.parametrize("family", ROW_SPACE_FAMILIES)
    @pytest.mark.parametrize("regime", ["lazy", "catapult"])
    def test_steps_match_the_dense_reference(self, family, regime):
        # 8 points in d = 32; along the way the net is cloned, pickled, run
        # on a second input matrix and stepped on a copy of its inputs
        net, x, y, oracle, catapult_rate = row_space_case(family, 8, 32)
        x_other = Rng(82).normal((5, 32))
        rate = 1.0 if regime == "lazy" else catapult_rate
        eta = rate / lambda_max_symmetric(net.ntk(x))
        reference = net.clone()
        losses = []
        for t in range(30):
            if t == 8:
                net = net.clone()
            if t == 14:
                net = pickle.loads(pickle.dumps(net))
            if t == 20:
                expected = oracle(reference, x_other)[0]
                assert relative(net.outputs(x_other), expected) < ROW_SPACE_RTOL
            inputs = x.copy() if t == 25 else x
            z = net.outputs(inputs)
            kernel = tangent_kernel(oracle(reference, x)[2], net.output_scale)
            assert relative(net.ntk(inputs), kernel) < ROW_SPACE_RTOL
            assert abs(net.weight_norm() / reference.weight_norm() - 1.0) < ROW_SPACE_RTOL
            net.apply_gd_step(inputs, z - y, eta)
            expected = dense_step(reference, oracle, x, y, eta)
            assert relative(z, expected) < ROW_SPACE_RTOL
            losses.append(float((z - y) @ (z - y)))
            # the step ran in the row space, on whichever inputs object it got
            assert net._row_space is not None and net._row_space.inputs is inputs
        for w, e in zip(net.weights(), reference.weights()):
            assert relative(w, e) < ROW_SPACE_RTOL
        assert np.isfinite(losses).all() and losses[-1] < losses[0]
        assert (max(losses) > losses[0]) == (regime == "catapult")

    @pytest.mark.parametrize("family", ROW_SPACE_FAMILIES)
    @pytest.mark.parametrize("shape", [(32, 32), (40, 8)])
    def test_no_fewer_points_than_dimensions_moves_no_bit(self, family, shape):
        net, x, y, oracle, catapult_rate = row_space_case(family, *shape)
        eta = catapult_rate / lambda_max_symmetric(net.ntk(x))
        reference = net.clone()
        for _ in range(30):
            z = net.outputs(x)
            net.apply_gd_step(x, z - y, eta)
            assert bits(z) == bits(dense_step(reference, oracle, x, y, eta))
        assert net._row_space is None
        for w, e in zip(net.weights(), reference.weights()):
            assert bits(w) == bits(e)

    @pytest.mark.parametrize("family", ROW_SPACE_FAMILIES)
    def test_reading_the_first_layer_folds_it_back(self, family):
        # the attribute, weights() and writes through them see one array
        net, x, y, _, _ = row_space_case(family, 8, 32)
        name = net._row_space_name
        net.apply_gd_step(x, net.outputs(x) - y, 0.01)
        net.apply_gd_step(x, net.outputs(x) - y, 0.01)
        norm = net.weight_norm()
        first = getattr(net, name)
        assert net._row_space is None and first.shape == (32, 32)
        assert abs(net.weight_norm() / norm - 1.0) < ROW_SPACE_RTOL
        first[:] = 0.0
        assert np.array_equal(net.weights()[net._weight_names.index(name)], first)
        assert np.array_equal(net.activations(x)[0], np.zeros((8, 32)))


class TestLinearNetWithBiasEmbedding:
    def test_output_matches_explicit_network(self):
        width = 12
        m = linear_net_with_bias_embedding(width, Rng(4), bias0=0.3)
        u = m.theta[:width]
        v = m.theta[width : 2 * width]
        b = m.theta[-1]
        assert b == 0.3
        expected = float(u @ v) / math.sqrt(width) + b
        assert m.outputs()[0] == pytest.approx(expected, rel=1e-12)

    def test_kernel_is_norm_over_width_plus_one(self):
        width = 12
        m = linear_net_with_bias_embedding(width, Rng(4), bias0=0.0)
        u = m.theta[:width]
        v = m.theta[width : 2 * width]
        expected = (u @ u + v @ v) / width + 1.0
        assert float(m.ntk()[0, 0]) == pytest.approx(expected, rel=1e-12)

    def test_is_valid_with_bias_model(self):
        m = linear_net_with_bias_embedding(6, Rng(5))
        assert m.variant == "with_bias"
        assert m.zeta == pytest.approx(1.0 / math.sqrt(6))


class TestKernelSymmetryInvariant:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_symmetry_everywhere(self, seed):
        model, dataset = random_quadratic(16, 4, 2, 6, seed=seed)
        h = model.ntk()
        assert np.array_equal(h, h.T)
        net = HomogenousNet.init_random(16, Rng(seed), 0.5, 1.0, input_dim=2)
        h = net.ntk(dataset.inputs)
        assert np.array_equal(h, h.T)
        evals = np.linalg.eigvalsh(model.ntk())
        assert evals.min() >= -1e-8 * max(1.0, evals.max())
