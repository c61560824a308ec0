import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catapult.numerics import (
    LinearOperator,
    NumericsError,
    Rng,
    expm_antisymmetric,
    lambda_max_symmetric,
    power_iteration_lambda_max,
    random_antisymmetric,
    random_orthogonal,
    sym_eigen,
)


def random_symmetric(order: int, rng: Rng) -> np.ndarray:
    a = rng.normal((order, order))
    return (a + a.T) / 2.0


class TestRng:
    def test_identical_seeds_identical_streams(self):
        a = Rng(7).normal(3)
        b = Rng(7).normal(3)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(0).normal(8), Rng(1).normal(8))

    def test_children_are_independent_of_parent_consumption(self):
        parent = Rng(3)
        child_before = parent.child(5).normal(4)
        parent.normal(100)
        child_after = parent.child(5).normal(4)
        assert np.array_equal(child_before, child_after)

    def test_normal_moments(self):
        draws = Rng(11).normal(100_000)
        assert abs(draws.mean()) < 3.0 / math.sqrt(100_000)
        assert abs(draws.var() - 1.0) < 0.05
        # sign symmetry
        positive_fraction = (draws >= 0).mean()
        assert abs(positive_fraction - 0.5) < 3.0 * 0.5 / math.sqrt(100_000)

    def test_uniform_support(self):
        draws = Rng(2).uniform(-0.5, 0.5, 10_000)
        assert draws.min() >= -0.5 and draws.max() < 0.5


class TestSymEigen:
    def test_diagonal(self):
        w, _ = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [3.0, 2.0, 1.0])

    def test_two_by_two_exchange_matrix(self):
        w, v = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [1.0, -1.0])
        expected = np.array([1.0, 1.0]) / math.sqrt(2)
        # eigenvectors defined up to sign
        assert min(
            np.abs(v[:, 0] - expected).max(), np.abs(v[:, 0] + expected).max()
        ) < 1e-12

    def test_roundtrip_50(self):
        m = random_symmetric(50, Rng(4))
        w, v = sym_eigen(m)
        assert np.abs(v @ np.diag(w) @ v.T - m).max() < 1e-8 * np.abs(m).max()
        assert np.abs(v.T @ v - np.eye(50)).max() < 1e-8

    @pytest.mark.parametrize("order", [2, 17, 200])
    def test_roundtrip_contract(self, order):
        m = random_symmetric(order, Rng(100 + order))
        w, v = sym_eigen(m)
        frob = np.linalg.norm
        assert frob(v.T @ v - np.eye(order)) < 1e-8
        assert frob(v @ np.diag(w) @ v.T - m) / frob(m) < 1e-8
        assert np.all(np.diff(w) <= 0)

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(NumericsError):
            sym_eigen(bad)

    def test_rejects_asymmetric(self):
        with pytest.raises(NumericsError):
            sym_eigen(np.array([[1.0, 2.0], [2.0000001, 1.0]]))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 100))
    @settings(max_examples=25, deadline=None)
    def test_spectral_mapping_of_square(self, seed, order):
        # lambda_max(psi @ psi) equals the squared largest eigenvalue magnitude
        psi = random_symmetric(order, Rng(seed))
        w, _ = sym_eigen(psi)
        square = psi @ psi
        lam = lambda_max_symmetric((square + square.T) / 2.0)
        expected = float(np.abs(w).max()) ** 2
        assert abs(lam - expected) <= 1e-8 * max(expected, 1.0)


class TestPowerIteration:
    def test_diagonal(self):
        op = LinearOperator.from_dense(np.diag([5.0, 1.0, 1.0]))
        result = power_iteration_lambda_max(op, tol=1e-10)
        assert result.converged
        assert abs(result.value - 5.0) < 1e-6 * 5.0

    def test_scalar_operator_is_exact(self):
        # a 1x1 PSD operator, the kernel of a single-datapoint linear model
        phi = Rng(8).normal(12)
        h0 = float(phi @ phi)  # D = 1 so the 1/D factor is trivial
        op = LinearOperator(dim=1, matvec=lambda v: h0 * v)
        result = power_iteration_lambda_max(op)
        assert result.value == pytest.approx(h0, rel=1e-12)

    def test_matches_dense_eigensolver(self):
        a = Rng(9).normal((64, 64))
        psd = a @ a.T
        psd = (psd + psd.T) / 2.0
        dense = lambda_max_symmetric(psd)
        result = power_iteration_lambda_max(
            LinearOperator.from_dense(psd), tol=1e-9, max_iters=50_000
        )
        assert result.converged
        assert abs(result.value - dense) < 1e-6 * dense

    def test_determinism(self):
        a = Rng(10).normal((16, 16))
        psd = a @ a.T
        psd = (psd + psd.T) / 2.0
        op = LinearOperator.from_dense((psd + psd.T) / 2.0)
        r1 = power_iteration_lambda_max(op, rng=Rng(1))
        r2 = power_iteration_lambda_max(op, rng=Rng(1))
        assert r1 == r2

    def test_non_convergence_flag(self):
        # slow spectral ratio and a budget of two steps
        op = LinearOperator.from_dense(np.diag([1.0, 0.999]))
        result = power_iteration_lambda_max(op, tol=1e-15, max_iters=2)
        assert not result.converged
        assert result.iterations == 2

    def test_linear_operator_is_linear(self):
        a = Rng(12).normal((10, 10))
        op = LinearOperator.from_dense((a + a.T) / 2.0)
        u = Rng(13).normal(10)
        v = Rng(14).normal(10)
        lhs = op.matvec(2.0 * u + 3.0 * v)
        rhs = 2.0 * op.matvec(u) + 3.0 * op.matvec(v)
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


class TestExpmAntisymmetric:
    def test_zero_gives_identity(self):
        assert np.array_equal(expm_antisymmetric(np.zeros((4, 4))), np.eye(4))

    def test_two_by_two_rotation(self):
        theta = math.pi / 2.0
        b = theta * np.array([[0.0, 1.0], [-1.0, 0.0]])
        q = expm_antisymmetric(b)
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.abs(q - expected).max() < 1e-10

    def test_block_diagonal_rotation(self):
        # two planes turned by 0.3 and 2.0 radians
        b = np.zeros((4, 4))
        expected = np.zeros((4, 4))
        for start, angle in ((0, 0.3), (2, 2.0)):
            c, s = math.cos(angle), math.sin(angle)
            b[start, start + 1], b[start + 1, start] = angle, -angle
            expected[start : start + 2, start : start + 2] = [[c, s], [-s, c]]
        assert np.abs(expm_antisymmetric(b) - expected).max() < 1e-15

    @pytest.mark.parametrize("order", [10, 100, 300])
    def test_orthogonality_and_determinant(self, order):
        b = random_antisymmetric(order, Rng(order))
        q = expm_antisymmetric(b)
        # the Frobenius norm is at most order * 1e-12 <= 3e-10 under this bound
        assert np.abs(q.T @ q - np.eye(order)).max() < 1e-12
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonality_at_order_1000(self):
        q = expm_antisymmetric(random_antisymmetric(1000, Rng(1000)))
        assert np.abs(q.T @ q - np.eye(1000)).max() < 1e-13

    @pytest.mark.parametrize("order", [10, 100, 300])
    def test_is_the_exponential(self, order):
        # an orthogonal map of A that is not exp(A), such as the Cayley
        # transform, misses the semigroup identity by order one
        b = random_antisymmetric(order, Rng(order))
        q = expm_antisymmetric(b)
        assert np.abs(expm_antisymmetric(2.0 * b) - q @ q).max() < 1e-12
        assert np.abs(q.T - expm_antisymmetric(-b)).max() < 1e-12

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(NumericsError):
            expm_antisymmetric(np.eye(3))

    def test_random_orthogonal_columns_orthonormal(self):
        q = random_orthogonal(64, Rng(5))
        assert np.abs(q.T @ q - np.eye(64)).max() < 1e-8
