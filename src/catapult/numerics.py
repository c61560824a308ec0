"""Seeded randomness and the dense linear-algebra kernels everything else uses.

All state here is deterministic: the random stream is PCG64 behind a recorded
integer seed, symmetric eigenproblems go through LAPACK's symmetric drivers,
and the exponential of an antisymmetric matrix is taken in closed form from
one symmetric eigendecomposition.  All computation is in 64-bit floats.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class NumericsError(ValueError):
    """An input violated a documented numeric precondition."""


class Rng:
    """Deterministic random stream: PCG64 behind a recorded integer seed.

    Identical seeds reproduce identical draw sequences (at a fixed floating
    point width), so experiment artifacts record the seed instead of sampled
    state.  ``child`` derives a substream keyed by integers without
    consuming draws from the parent, which keeps subsystem sampling
    order-independent.

    A stream is keyed by the 32-bit words of ``(seed, *path)``, which
    ``SeedSequence`` pads with zeros to four words, so two keys that differ
    only by trailing zero words within the first four are one stream:
    ``Rng(s).child(2)`` and ``Rng(s).child(2, 0)`` draw the same numbers, as
    do ``Rng(s)`` and ``Rng(s).child(0)``, and a seed of ``2**32 + s`` spans
    two words, ``(s, 1)``, so it draws what ``Rng(s).child(1)`` does; the
    command line refuses such seeds (``cli._valid_seed``).  Substreams are
    independent only when no two keys that draw share their padded words;
    ``tests/test_numerics.py`` asserts it for the CI configs and the
    ``check`` suite.
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


def expm_antisymmetric(b) -> np.ndarray:
    """Matrix exponential of an antisymmetric matrix, in closed form.

    For antisymmetric A, ``A @ A = -A.T @ A`` is symmetric negative
    semi-definite, so with ``W = sqrt(A.T @ A)`` the exponential series splits
    into its even and odd parts: ``exp(A) = cos(W) + A @ sinc(W)``.  Both are
    functions of ``A.T @ A`` and come from its one eigendecomposition
    ``V diag(s) V.T``.  The input must be exactly antisymmetric as stored;
    the output is then special orthogonal up to roundoff (about 1e-14 for
    matrices with standard-normal entries up to order ~1000).
    """
    a = np.asarray(b, dtype=np.float64)
    _require_square(a, "expm_antisymmetric")
    if not np.isfinite(a).all():
        raise NumericsError("expm_antisymmetric: matrix has non-finite entries")
    if not np.array_equal(a.T, -a):
        raise NumericsError("expm_antisymmetric: matrix is not exactly antisymmetric")

    s, v = np.linalg.eigh(a.T @ a)
    w = np.sqrt(np.clip(s, 0.0, None))
    left = a @ v
    left *= np.sinc(w / np.pi)  # sin(w)/w, and exactly 1 at w = 0
    left += v * np.cos(w)
    return left @ v.T  # (V cos W + A V sinc W) V.T


def random_antisymmetric(dim: int, rng: Rng) -> np.ndarray:
    """Antisymmetric matrix with independent standard-normal upper entries."""
    upper = np.triu(rng.normal((dim, dim)), k=1)
    return upper - upper.T


def random_orthogonal(dim: int, rng: Rng) -> np.ndarray:
    """Orthogonal matrix as the exponential of a random antisymmetric matrix.

    The eigenbasis of a rotated meta-feature generator and the teacher-student
    projectors; the induced distribution is the exponential-map pushforward
    of Gaussian antisymmetric matrices (deliberately, not Haar).
    """
    return expm_antisymmetric(random_antisymmetric(dim, rng))
