"""Seeded randomness and the dense linear-algebra kernels everything else uses.

All state here is deterministic: the random stream is PCG64 behind a recorded
integer seed, symmetric eigenproblems go through LAPACK's symmetric drivers,
and the matrix exponential is plain scaling-and-squaring with a truncated
Taylor series.  All computation is in 64-bit floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NumericsError(ValueError):
    """An input violated a documented numeric precondition."""


class Rng:
    """Deterministic random stream: PCG64 behind a recorded integer seed.

    Identical seeds reproduce identical draw sequences (at a fixed floating
    point width), so experiment artifacts record the seed instead of sampled
    state.  ``child`` derives an independent substream keyed by integers
    without consuming draws from the parent, which keeps subsystem sampling
    order-independent.
    """

    def __init__(self, seed: int, _path: Sequence[int] = ()):
        self.seed = int(seed)
        self._path = tuple(int(p) for p in _path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, *self._path)))
        )

    def child(self, *path: int) -> "Rng":
        return Rng(self.seed, self._path + tuple(path))

    def normal(self, shape) -> np.ndarray:
        """Standard-normal draws; advances the stream deterministically."""
        return self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        """Uniform draws on [low, high); advances the stream deterministically."""
        return self._gen.uniform(low, high, shape)

    def __repr__(self) -> str:
        if self._path:
            return f"Rng(seed={self.seed}, path={self._path})"
        return f"Rng(seed={self.seed})"


def _require_square(a: np.ndarray, what: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericsError(f"{what}: expected a square matrix, got shape {a.shape}")


def sym_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as the matching orthonormal columns, so
    that ``matrix == V @ diag(w) @ V.T`` up to roundoff.

    Raises ``NumericsError`` for non-finite entries or a matrix that is not
    stored exactly symmetric.
    """
    a = np.asarray(matrix, dtype=np.float64)
    _require_square(a, "sym_eigen")
    if not np.isfinite(a).all():
        raise NumericsError("sym_eigen: matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise NumericsError("sym_eigen: matrix is not exactly symmetric as stored")
    w, v = np.linalg.eigh(a)
    return w[::-1].copy(), v[:, ::-1].copy()


def lambda_max_symmetric(matrix) -> float:
    """Top eigenvalue of a symmetric matrix via the dense symmetric solver."""
    a = np.asarray(matrix, dtype=np.float64)
    _require_square(a, "lambda_max_symmetric")
    if a.shape[0] == 1:
        return float(a[0, 0])
    return float(np.linalg.eigvalsh(a)[-1])


# Nothing in the package calls the power iteration below; it stays while
# perfbench/tracing.py patches ``catapult.bounds.power_iteration_lambda_max``.
@dataclass(frozen=True)
class LinearOperator:
    """A symmetric matrix-vector product contract; no materialized matrix.

    ``matvec`` must be linear and, for the power-iteration routine below,
    symmetric positive semi-definite as an operator.
    """

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def from_dense(matrix) -> "LinearOperator":
        a = np.asarray(matrix, dtype=np.float64)
        _require_square(a, "LinearOperator.from_dense")
        return LinearOperator(dim=a.shape[0], matvec=lambda v: a @ v)


@dataclass(frozen=True)
class PowerIterationResult:
    value: float
    converged: bool
    iterations: int


def power_iteration_lambda_max(
    op: LinearOperator,
    rng: Rng | None = None,
    tol: float = 1e-6,
    max_iters: int = 10_000,
) -> PowerIterationResult:
    """Top eigenvalue of a PSD operator by power iteration.

    Deterministic given the rng seed (default ``Rng(0)``).  Convergence is
    declared on the eigen-residual: ``|op(v) - value * v| <= tol * |value|``
    for the unit iterate v, which for a symmetric operator places an exact
    eigenvalue within ``tol * |value|`` of the estimate; since the iteration
    drifts toward the top of the spectrum this brackets the top eigenvalue to
    the requested relative tolerance whenever there is a spectral gap.  If
    the budget runs out the last Rayleigh quotient is returned with
    ``converged=False``.
    """
    if op.dim < 1:
        raise NumericsError("power_iteration_lambda_max: operator dimension must be >= 1")
    rng = rng if rng is not None else Rng(0)
    v = rng.normal(op.dim)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        v = np.ones(op.dim)
        nv = math.sqrt(op.dim)
    v = v / nv

    lam = 0.0
    for it in range(1, max_iters + 1):
        w = op.matvec(v)
        lam = float(v @ w)
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= tol * max(abs(lam), 1e-300):
            return PowerIterationResult(value=lam, converged=True, iterations=it)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # The operator annihilates the iterate; for a PSD operator the
            # top eigenvalue along the explored subspace is 0.
            return PowerIterationResult(value=0.0, converged=True, iterations=it)
        v = w / nw
    return PowerIterationResult(value=lam, converged=False, iterations=max_iters)


def expm_antisymmetric(b) -> np.ndarray:
    """Matrix exponential of an antisymmetric matrix.

    Scaling-and-squaring with a truncated Taylor series.  The input must be
    exactly antisymmetric as stored; the output is then orthogonal (special
    orthogonal, in fact) up to roundoff.  The truncation order and scaling
    rule keep the orthogonality residual below 1e-8 for matrices with
    standard-normal entries up to order ~1000.
    """
    a = np.asarray(b, dtype=np.float64)
    _require_square(a, "expm_antisymmetric")
    if not np.isfinite(a).all():
        raise NumericsError("expm_antisymmetric: matrix has non-finite entries")
    if not np.array_equal(a.T, -a):
        raise NumericsError("expm_antisymmetric: matrix is not exactly antisymmetric")

    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=0).max()) if n else 0.0
    squarings = max(0, math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0)
    t = a / (2.0**squarings)

    # Horner evaluation of the degree-17 Taylor polynomial; with the scaled
    # norm at most 0.5 the truncation error is far below double roundoff.
    order = 17
    result = np.eye(n) / order
    for k in range(order - 1, 0, -1):
        result = t @ result + np.eye(n)
        result /= k
    result = t @ result + np.eye(n)

    for _ in range(squarings):
        result = result @ result
    return result


def random_antisymmetric(dim: int, rng: Rng) -> np.ndarray:
    """Antisymmetric matrix with independent standard-normal upper entries."""
    upper = np.triu(rng.normal((dim, dim)), k=1)
    return upper - upper.T


def random_orthogonal(dim: int, rng: Rng) -> np.ndarray:
    """Orthogonal matrix as the exponential of a random antisymmetric matrix.

    This is the generator construction used by the meta-feature experiments;
    the induced distribution is the exponential-map pushforward of Gaussian
    antisymmetric matrices (deliberately, not Haar).
    """
    return expm_antisymmetric(random_antisymmetric(dim, rng))
