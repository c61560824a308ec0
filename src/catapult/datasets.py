"""Data sources: the toy datapoint, random cubes, teacher-student labels,
feature/meta-feature generators, and two-class image ingestion.

Meta-feature matrices are always produced exactly symmetric (an entry and
its mirror are built by the same operations, and a projected block is
symmetrized as it is written), or as diagonals where the map is one
diagonal generator, and with-bias constructions place features and
meta-features on disjoint coordinate blocks so their orthogonality holds by
construction, not by projection.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from catapult.models import QuadraticModel, _as_inputs, _symmetrize
from catapult.numerics import Rng, random_orthogonal

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
IMAGE_CLASSES = 10  # both image formats label the ten classes 0-9
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixel bytes
# Points per block when streaming model outputs on arbitrary inputs.  At
# n_psi = 200 on one BLAS thread, blocks of 4, 8 and 16 points timed within
# 10% of each other on the packed upper triangle, and faster than 32 or 64.
OUTPUTS_AT_CHUNK = 16
EIGEN_KINDS = ("pm_one", "uniform")
ACTIVATIONS = ("identity", "tanh")


class DataFormatError(ValueError):
    """A binary data file violated its declared format."""


def _split(inputs, labels, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """One split's inputs as a (D, d) array and labels as a (D,) array;
    the counts must agree and be positive, and the labels finite."""
    inputs = _as_inputs(inputs)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if inputs.shape[0] != labels.shape[0] or labels.size < 1:
        raise ValueError(f"{prefix}inputs and labels must agree on a positive count")
    if not np.isfinite(labels).all():
        raise ValueError(f"{prefix}labels must be finite")
    return inputs, labels


@dataclass
class Dataset:
    inputs: np.ndarray  # (D, d)
    labels: np.ndarray  # (D,)
    test_inputs: Optional[np.ndarray] = None
    test_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.inputs, self.labels = _split(self.inputs, self.labels, "")
        if (self.test_inputs is None) != (self.test_labels is None):
            raise ValueError("test inputs and labels must be supplied together")
        if self.test_inputs is not None:
            self.test_inputs, self.test_labels = _split(
                self.test_inputs, self.test_labels, "test "
            )
            if self.test_inputs.shape[1] != self.dim:
                raise ValueError(
                    f"test inputs have dimension {self.test_inputs.shape[1]}, "
                    f"train inputs {self.dim}"
                )

    @property
    def size(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def has_test_split(self) -> bool:
        return self.test_inputs is not None


def make_toy() -> Dataset:
    """The single-datapoint toy task (x, y) = (1, 0)."""
    return Dataset(inputs=[[1.0]], labels=[0.0])


def make_toy_relu() -> Dataset:
    """The single-datapoint task (x, y) = (4, 2) with a positive label,
    which keeps the ReLU net away from the trivial all-negative solution."""
    return Dataset(inputs=[[4.0]], labels=[2.0])


def make_random(d: int, size: int, half_width: float, rng: Rng) -> Dataset:
    """Inputs uniform on [-half_width, half_width]^d, labels uniform on the
    same interval, all i.i.d."""
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    x = rng.uniform(-half_width, half_width, (size, d))
    y = rng.uniform(-half_width, half_width, size)
    return Dataset(inputs=x, labels=y)


# ---------------------------------------------------------------------------
# Feature and meta-feature construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenScheme:
    """How meta-feature eigenvalues are drawn.

    Eigenvalues always come in exact +/- pairs so the model output has zero
    mean at initialization.  ``pm_one`` fixes them to +/-1, which its
    ``low`` and ``high`` spell out; ``uniform`` draws the positive half from
    U[low, high) and mirrors it exactly.  ``high`` defaults by kind.
    """

    kind: str = "uniform"  # "pm_one" | "uniform"
    low: float = 1.0
    high: Optional[float] = None  # 2 for uniform, 1 for pm_one

    def __post_init__(self):
        if self.kind not in EIGEN_KINDS:
            raise ValueError(f"kind: must be one of {sorted(EIGEN_KINDS)}")
        if self.high is None:
            object.__setattr__(self, "high", 2.0 if self.kind == "uniform" else 1.0)
        if self.kind == "pm_one":
            for key in ("low", "high"):
                if getattr(self, key) != 1.0:
                    raise ValueError(f"{key}: must be 1 for pm_one")
        elif not self.low < self.high:
            raise ValueError("low: must be below high")

    def draw(self, count: int, rng: Rng) -> np.ndarray:
        if count % 2 != 0:
            raise ValueError("paired eigenvalue schemes require an even count")
        half = count // 2
        if self.kind == "pm_one":
            positive = np.ones(half)
        else:
            positive = rng.uniform(self.low, self.high, half)
        return np.concatenate([positive, -positive])


def _check_activation(activation: str) -> None:
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation: must be one of {sorted(ACTIVATIONS)}")


@dataclass(frozen=True)
class MetaFeatureSpec:
    """Shape of a quadratic model's feature functions.

    The weight space splits into a meta-feature block of size ``n_psi`` and
    a feature block of size ``n_phi`` (zero for the pure model); keeping the
    blocks disjoint enforces the with-bias orthogonality exactly.  Its
    checks are those of a quadratic model config's ``n_psi``, ``n_phi`` and
    ``activation``.
    """

    n_psi: int
    n_phi: int
    d: int
    eigen_scheme: EigenScheme
    activation: str = "identity"  # "identity" | "tanh"

    def __post_init__(self):
        if self.n_psi < 2 or self.n_psi % 2 != 0:
            raise ValueError("n_psi: must be a positive even number")
        if self.n_phi < 0:
            raise ValueError("n_phi: must be non-negative")
        if self.d < 1:
            raise ValueError("d: must be at least 1")
        _check_activation(self.activation)


@dataclass
class QuadraticFeatureMap:
    """Materializes per-datapoint features for arbitrary inputs.

    The meta-feature matrix on input x is ``g(sum_i W^i x_i)`` applied
    entrywise, built from fixed symmetric generators ``W^i`` with a
    hand-tuned spectrum; the feature vector is a fixed linear map of x.
    Optional orthonormal-row projectors map both to a smaller student space.

    A diagonal identity map stores its generators as their (d, m)
    diagonals, the drawn eigenvalues, and without a projector gives its
    meta-features as (D, n) diagonals, ``x_a lam`` on the meta-feature
    block and zeros on the feature block (``QuadraticModel`` reads either
    form); a projected one builds the dense block and then rotates it.
    """

    meta_generators: np.ndarray  # (d, m, m), each exactly symmetric, or (d, m) diagonals
    feature_matrix: Optional[np.ndarray]  # (p, d) or None when n_phi == 0
    activation: str
    psi_projector: Optional[np.ndarray] = None  # (m_out, m)
    phi_projector: Optional[np.ndarray] = None  # (p_out, p)

    @property
    def n_psi(self) -> int:
        if self.psi_projector is not None:
            return self.psi_projector.shape[0]
        return self.meta_generators.shape[1]

    @property
    def n_phi(self) -> int:
        if self.feature_matrix is None:
            return 0
        if self.phi_projector is not None:
            return self.phi_projector.shape[0]
        return self.feature_matrix.shape[0]

    @property
    def n(self) -> int:
        return self.n_psi + self.n_phi

    @property
    def diagonal(self) -> bool:
        """Whether the generators are stored as their diagonals."""
        return self.meta_generators.ndim == 2

    def _activations_at(self, point: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The unprojected meta-feature matrix ``g(sum_i x_i W^i)`` at one
        point x, or its diagonal on a diagonal map, written into ``out``.
        The terms are added entrywise in generator order, so entries
        ``(j, l)`` and ``(l, j)`` see the same operations on the same
        numbers: a dense block is exactly symmetric at any d, and its bits
        do not depend on the BLAS or on the other points.  With one
        generator each entry is the one product ``x W_jl``."""
        generators = self.meta_generators
        np.multiply(generators[0], point[0], out=out)
        for i in range(1, point.shape[0]):
            out += point[i] * generators[i]
        return self._activate(out)

    def _activate(self, a: np.ndarray) -> np.ndarray:
        """The activation g applied entrywise, in place."""
        return np.tanh(a, out=a) if self.activation == "tanh" else a

    def _features_at(self, x: np.ndarray) -> Optional[np.ndarray]:
        if self.feature_matrix is None:
            return None
        phi = x @ self.feature_matrix.T
        if self.phi_projector is not None:
            phi = phi @ self.phi_projector.T
        return phi

    def at(self, inputs) -> tuple[np.ndarray, np.ndarray]:
        """Embedded (features, meta_features) arrays for the given inputs:
        (D, n) and (D, n, n), or (D, n) diagonals on an unprojected diagonal
        map.  The meta-feature block of point a fills
        ``psi[a, :n_psi, :n_psi]``, and the feature block the last n_phi
        coordinates.

        The one-array rule: the build allocates the (D, n) and (D, n, n)
        arrays once and fills them one point at a time, so besides them it
        holds one point's activation block at teacher size (m x m) and, on
        a projected map, that point's ``Q T`` and ``Q T Q^T``.  A projected
        block is symmetrized exactly, ``(P + P^T) / 2``, as it is written;
        an unprojected one is symmetric as built (``_activations_at``)."""
        x = _as_inputs(inputs)
        d_pts, n_psi, n = x.shape[0], self.n_psi, self.n
        phi = np.zeros((d_pts, n))
        features = self._features_at(x)
        if features is not None:
            phi[:, n_psi:] = features
        q = self.psi_projector
        if q is None:
            square = self.meta_generators.ndim - 1  # 1 for diagonals, 2 for matrices
            psi = np.zeros((d_pts,) + (n,) * square)
            for a in range(d_pts):
                self._activations_at(x[a], psi[(a,) + (slice(n_psi),) * square])
            return phi, psi
        psi = np.zeros((d_pts, n, n))
        block = np.empty(self.meta_generators.shape[1:])  # (m, m), or (m,) diagonals
        for a in range(d_pts):
            activations = self._activations_at(x[a], block)
            projected = (q @ (np.diag(activations) if self.diagonal else activations)) @ q.T
            target = psi[a, :n_psi, :n_psi]
            np.add(projected, projected.T, out=target)
            target /= 2.0
        return phi, psi

    def unprojected(self, theta) -> np.ndarray:
        """A weight vector of this map (or a (n, k) matrix of them, one per
        column) in the coordinates of the unprojected map that shares its
        generators: the meta-feature part ``w = Q^T theta_psi`` followed by
        the feature part ``v = P^T theta_phi``.  Since ``theta_psi^T Q T Q^T
        theta_psi = w^T T w`` for the unprojected activation block ``T`` and
        ``theta_phi^T P F x = v^T F x``, the unprojected map's outputs at
        (w, v) are this map's outputs at theta."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape[0] != self.n:
            raise ValueError(
                f"theta: expected {self.n} weights for this feature map, got {theta.shape[0]}"
            )
        w, v = theta[: self.n_psi], theta[self.n_psi :]
        if self.psi_projector is not None:
            w = (w.T @ self.psi_projector).T
        if self.phi_projector is not None:
            v = (v.T @ self.phi_projector).T
        return np.concatenate([w, v])

    def outputs_at(self, theta, zeta, inputs) -> np.ndarray:
        """Model outputs on arbitrary inputs, streamed in blocks of
        ``OUTPUTS_AT_CHUNK`` points so large test splits never materialize
        their meta-feature matrices.

        ``theta`` is one weight vector of length ``n`` with a scalar
        ``zeta``, giving a (D,) array, or a (n, k) matrix of k weight
        columns with k couplings, giving a (D, k) array: the columns share
        every pass over the inputs, and only the final product sees k.

        The weights are first taken to the unprojected coordinates (see
        ``unprojected``), so no projected matrix is ever formed.  T is
        symmetric, so only its packed upper triangle is evaluated: ``w^T T
        w = sum_{j<=l} c_jl g(sum_i x_i W^i_jl)`` with ``c_jj = w_j^2`` and
        ``c_jl = 2 w_j w_l``.  Per block of points that is one product of
        the inputs with the (d, m(m+1)/2) packed generators, the activation
        in place, and one product with the columns ``zeta / 2 * c``.  On a
        diagonal map every off-diagonal entry is ``g(0) = 0`` for both
        ``ACTIVATIONS``, so only the m diagonal terms are packed: its
        outputs agree to roundoff with a dense map of the same generators,
        in O(m) memory per point."""
        theta = self.unprojected(theta)
        single = theta.ndim == 1
        if single:
            theta = theta[:, None]
        scale = 0.5 * np.asarray(zeta, dtype=np.float64).reshape(-1)
        if scale.shape[0] != theta.shape[1]:
            raise ValueError(f"zeta: expected {theta.shape[1]} couplings, got {scale.shape[0]}")
        m = self.meta_generators.shape[1]
        w, v = theta[:m], theta[m:]
        x = _as_inputs(inputs)
        if self.diagonal:
            rows = cols = np.arange(m)
            generators = self.meta_generators
        else:
            rows, cols = np.triu_indices(m)
            generators = self.meta_generators[:, rows, cols]
        c = w[rows] * w[cols]
        c[rows != cols] *= 2.0
        c *= scale
        out = np.empty((x.shape[0], w.shape[1]))
        buf = np.empty((min(x.shape[0], OUTPUTS_AT_CHUNK), rows.shape[0]))
        for start in range(0, x.shape[0], OUTPUTS_AT_CHUNK):
            block = slice(start, start + OUTPUTS_AT_CHUNK)
            points = x[block]
            packed = np.dot(points, generators, out=buf[: points.shape[0]])
            np.matmul(self._activate(packed), c, out=out[block])
            if self.feature_matrix is not None:
                out[block] += (points @ self.feature_matrix.T) @ v
        return out[:, 0] if single else out

    def project(self, psi_projector, phi_projector=None) -> "QuadraticFeatureMap":
        if self.psi_projector is not None or self.phi_projector is not None:
            raise ValueError("feature map is already projected")
        return replace(
            self,
            psi_projector=np.asarray(psi_projector, dtype=np.float64),
            phi_projector=None if phi_projector is None else np.asarray(phi_projector, float),
        )


def build_meta_features(spec: MetaFeatureSpec, rng: Rng) -> QuadraticFeatureMap:
    """Draw the fixed generators of a quadratic model's feature functions
    (exactly-paired eigenvalues) and its standard-normal feature matrix.  One
    identity generator (d = 1) is drawn ``diag(lam)``: the initial weights are
    isotropic and drawn apart from it, so an eigenbasis would pick which
    realization a seed gives, not the law.  It is stored as lam itself, so
    the map's meta-features are (D, n) diagonals and a GD step on them is
    O(n).  Other maps rotate and are stored dense."""
    return _draw_meta_features(spec, rng, rotate=spec.d > 1 or spec.activation != "identity")


def _draw_meta_features(spec: MetaFeatureSpec, rng: Rng, rotate: bool) -> QuadraticFeatureMap:
    """Each generator diagonal, stored as its (d, m) diagonals, or in a
    random orthogonal eigenbasis when ``rotate``.  A teacher always rotates:
    its student's law depends on it."""
    generators = np.empty((spec.d, spec.n_psi, spec.n_psi) if rotate else (spec.d, spec.n_psi))
    for i in range(spec.d):
        lam = spec.eigen_scheme.draw(spec.n_psi, rng.child(0, i))
        if rotate:
            q = random_orthogonal(spec.n_psi, rng.child(1, i))
            # Rows of q are the eigenvectors: W = q.T diag(lam) q, symmetrized
            # so the stored matrix is bitwise symmetric.
            generators[i] = _symmetrize((q.T * lam) @ q)
        else:
            generators[i] = lam
    feature_matrix = None
    if spec.n_phi > 0:
        feature_matrix = rng.child(2).normal((spec.n_phi, spec.d))
    return QuadraticFeatureMap(
        meta_generators=generators,
        feature_matrix=feature_matrix,
        activation=spec.activation,
    )


def zeta_for(rule: str, n_psi: int) -> float:
    """The two conventional scalings of the quadratic coupling."""
    if rule == "2_over_n":
        return math.sqrt(2.0 / n_psi)
    if rule == "1_over_n_psi":
        return math.sqrt(1.0 / n_psi)
    raise ValueError(f"unknown zeta rule {rule!r}")


def assemble_quadratic(
    feature_map: QuadraticFeatureMap,
    dataset: Dataset,
    zeta: float,
    theta_rng: Rng,
) -> QuadraticModel:
    """Quadratic model bound to the dataset's training inputs, with
    standard-normal initial weights.  A diagonal map's meta-features are
    (D, n) diagonals, which the model keeps as they are; on one datapoint it
    reads its spectrum off the diagonal (``QuadraticModel.psi_spectrum``)."""
    phi, psi = feature_map.at(dataset.inputs)
    variant = "pure" if feature_map.n_phi == 0 else "with_bias"
    return QuadraticModel(
        theta=theta_rng.normal(feature_map.n),
        features=phi,
        meta_features=psi,
        zeta=zeta,
        variant=variant,
    )


# ---------------------------------------------------------------------------
# Teacher-student labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TeacherStudentSpec:
    """A wider teacher quadratic model labels data for a projected student.

    Its defaults and checks are those of a config's teacher_student dataset
    section; each check's message starts with the field it names.
    """

    n_psi_teacher: int
    n_psi_student: int
    n_phi_teacher: int = 0
    n_phi_student: int = 0
    d: int = 1
    train_size: int = 32
    test_size: int = 1000
    input_half_width: float = 0.5
    eigen_scheme: EigenScheme = EigenScheme()
    activation: str = "tanh"

    def __post_init__(self):
        _check_activation(self.activation)
        if self.n_psi_teacher < 2 or self.n_psi_teacher % 2:
            raise ValueError("n_psi_teacher: must be a positive even number")
        if not 1 <= self.n_psi_student <= self.n_psi_teacher:
            raise ValueError("n_psi_student: must be between 1 and n_psi_teacher")
        phi_teacher, phi_student = self.n_phi_teacher, self.n_phi_student
        if not (0 < phi_student <= phi_teacher or phi_student == phi_teacher == 0):
            raise ValueError("n_phi_student: must be between 1 and n_phi_teacher, or both 0")
        if self.train_size < 1:
            raise ValueError("train_size: must be at least 1")
        if self.test_size < 0:
            raise ValueError("test_size: must be non-negative")
        if not self.input_half_width > 0:
            raise ValueError("input_half_width: must be positive")
        if self.d < 1:
            raise ValueError("d: must be at least 1")


@dataclass
class TeacherStudentSetup:
    """A teacher, its student feature map, the train split the teacher
    labelled, and the test inputs, which stay unlabelled until a student is
    scored on them (``score_student``)."""

    student_map: QuadraticFeatureMap
    zeta_student: float
    dataset: Dataset  # the train split only
    teacher_map: QuadraticFeatureMap
    zeta_teacher: float
    theta_teacher: np.ndarray
    test_inputs: Optional[np.ndarray]  # (test_size, d), None when test_size == 0

    def score_student(self, model) -> tuple[np.ndarray, np.ndarray]:
        """A student model's outputs on the test split and the teacher's
        labels there, from one pass over the test inputs.

        The student and the teacher share the unprojected generators, so the
        student's weights are folded into the teacher's coordinates and
        both are scored as the two columns of one ``outputs_at`` call.  The
        columns are always the teacher and this one student: the labels'
        bits then do not depend on which other students are scored."""
        if self.test_inputs is None:
            raise ValueError("the teacher-student setup has no test split")
        student = self.student_map.unprojected(model.theta)
        both = self.teacher_map.outputs_at(
            np.column_stack([self.theta_teacher, student]),
            [self.zeta_teacher, model.zeta],
            self.test_inputs,
        )
        return both[:, 1], both[:, 0]


def make_teacher_student(spec: TeacherStudentSpec, rng: Rng) -> TeacherStudentSetup:
    """Draw the teacher, label uniform-cube training data with it, draw the
    test inputs, and project the feature functions down to the student
    dimensions.  The test inputs are labelled only when a student is scored
    on them, in the same pass (``TeacherStudentSetup.score_student``).

    The projectors take the leading rows of a random orthogonal matrix at
    the teacher dimension, so their rows are orthonormal and the student
    meta-feature spectra stay well behaved.  Both couplings follow the
    ``1/n_psi`` scaling of their own block size.
    """
    teacher_spec = MetaFeatureSpec(
        n_psi=spec.n_psi_teacher,
        n_phi=spec.n_phi_teacher,
        d=spec.d,
        eigen_scheme=spec.eigen_scheme,
        activation=spec.activation,
    )
    teacher_map = _draw_meta_features(teacher_spec, rng.child(0), rotate=True)
    zeta_teacher = zeta_for("1_over_n_psi", spec.n_psi_teacher)
    zeta_student = zeta_for("1_over_n_psi", spec.n_psi_student)

    x_train = rng.child(1).uniform(
        -spec.input_half_width, spec.input_half_width, (spec.train_size, spec.d)
    )
    x_test = rng.child(2).uniform(
        -spec.input_half_width, spec.input_half_width, (spec.test_size, spec.d)
    )
    theta_teacher = rng.child(3).normal(teacher_map.n)
    y_train = teacher_map.outputs_at(theta_teacher, zeta_teacher, x_train)

    psi_projector = random_orthogonal(spec.n_psi_teacher, rng.child(4))[
        : spec.n_psi_student
    ]
    phi_projector = None
    if spec.n_phi_teacher > 0:
        phi_projector = random_orthogonal(spec.n_phi_teacher, rng.child(5))[
            : spec.n_phi_student
        ]
    student_map = teacher_map.project(psi_projector, phi_projector)

    return TeacherStudentSetup(
        student_map=student_map,
        zeta_student=zeta_student,
        dataset=Dataset(inputs=x_train, labels=y_train),
        teacher_map=teacher_map,
        zeta_teacher=zeta_teacher,
        theta_teacher=theta_teacher,
        test_inputs=x_test if spec.test_size > 0 else None,
    )


# ---------------------------------------------------------------------------
# Two-class image ingestion
# ---------------------------------------------------------------------------


def _read_exact(data: bytes, offset: int, count: int, path: Path) -> bytes:
    if offset + count > len(data):
        raise DataFormatError(
            f"{path}: truncated file, needed {count} bytes at byte {offset}, "
            f"file has {len(data)}"
        )
    return data[offset : offset + count]


def _class_ids(labels: np.ndarray, path: Path, first_byte: int, stride: int) -> np.ndarray:
    """The labels, once each is one of the ``IMAGE_CLASSES`` class ids.
    Label i sits at byte ``first_byte + i * stride`` of the file, which the
    error for an unknown id names."""
    bad = np.nonzero(labels >= IMAGE_CLASSES)[0]
    if bad.size:
        raise DataFormatError(
            f"{path}: unknown class id {int(labels[bad[0]])} at byte "
            f"{first_byte + int(bad[0]) * stride}"
        )
    return labels


def _read_idx(path: Path, magic: int, what: str) -> tuple[np.ndarray, int]:
    """The unsigned bytes of an IDX file, shaped as its header declares,
    and the byte they start at.  The magic's low byte is the number of
    dimensions; one big-endian 4-byte size per dimension follows it."""
    data = path.read_bytes()
    (found,) = struct.unpack(">I", _read_exact(data, 0, 4, path))
    if found != magic:
        raise DataFormatError(
            f"{path}: {what} magic number mismatch at byte 0: "
            f"got 0x{found:08x}, expected 0x{magic:08x}"
        )
    ndim = magic & 0xFF
    shape = struct.unpack(f">{ndim}I", _read_exact(data, 4, 4 * ndim, path))
    start, size = 4 + 4 * ndim, math.prod(shape)
    values = _read_exact(data, start, size, path)
    if len(data) != start + size:
        raise DataFormatError(
            f"{path}: {len(data) - start - size} trailing bytes after byte {start + size}"
        )
    return np.frombuffer(values, dtype=np.uint8).reshape(shape), start


def read_idx_images(path) -> np.ndarray:
    """Images from a big-endian IDX file as a (count, rows*cols) byte matrix."""
    images, _ = _read_idx(Path(path), IDX_IMAGES_MAGIC, "image")
    count, rows, cols = images.shape
    return images.reshape(count, rows * cols)


def read_idx_labels(path) -> np.ndarray:
    """Class ids from a big-endian IDX label file."""
    path = Path(path)
    labels, start = _read_idx(path, IDX_LABELS_MAGIC, "label")
    return _class_ids(labels.copy(), path, start, 1)


def read_cifar_binary(paths: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Labels and flattened pixels from concatenated 3073-byte records."""
    all_labels: list[np.ndarray] = []
    all_pixels: list[np.ndarray] = []
    for raw_path in paths:
        path = Path(raw_path)
        data = path.read_bytes()
        if len(data) % CIFAR_RECORD_BYTES != 0:
            raise DataFormatError(
                f"{path}: size {len(data)} is not a whole number of "
                f"{CIFAR_RECORD_BYTES}-byte records; trailing data at byte "
                f"{len(data) - len(data) % CIFAR_RECORD_BYTES}"
            )
        records = np.frombuffer(data, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        all_labels.append(_class_ids(records[:, 0].copy(), path, 0, CIFAR_RECORD_BYTES))
        all_pixels.append(records[:, 1:].copy())
    return np.concatenate(all_labels), np.concatenate(all_pixels)


def _two_class_filter(
    images: np.ndarray,
    labels: np.ndarray,
    class_a: int,
    class_b: int,
    limit: Optional[int],
    what: str,
) -> tuple[np.ndarray, np.ndarray]:
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(f"{what} image and label counts disagree")
    mask = (labels == class_a) | (labels == class_b)
    if not mask.any():
        raise DataFormatError(f"{what} set: no images of classes {class_a}/{class_b}")
    selected_images = images[mask]
    selected_labels = labels[mask]
    if limit is not None:
        if selected_labels.shape[0] < limit:
            raise DataFormatError(
                f"{what} set: only {selected_labels.shape[0]} images of classes "
                f"{class_a}/{class_b} available, needed {limit}"
            )
        selected_images = selected_images[:limit]
        selected_labels = selected_labels[:limit]
    signs = np.where(selected_labels == class_a, -1.0, 1.0)
    return selected_images.astype(np.float64) / 255.0, signs


def load_two_class_images(
    fmt: str,
    paths: dict,
    class_a: int,
    class_b: int,
    train_size: int,
) -> Dataset:
    """Two-class regression dataset from local binary image files.

    The first ``train_size`` training images whose label matches either
    class (in file order) become the training set; every matching test image
    becomes the test split.  ``class_a`` maps to label -1.0 and ``class_b``
    to +1.0; pixels are scaled to [0, 1] and flattened row-major.  Both
    splits must have the same number of pixels per image.
    """
    if train_size < 1:
        raise ValueError(f"train_size must be at least 1, got {train_size}")
    if fmt == "idx":
        splits = [
            (read_idx_images(paths[f"{split}_images"]), read_idx_labels(paths[f"{split}_labels"]))
            for split in ("train", "test")
        ]
    elif fmt == "cifar_binary":
        # each file set reads as (labels, images)
        splits = [read_cifar_binary(paths[f"{split}_files"])[::-1] for split in ("train", "test")]
    else:
        raise DataFormatError(f"unknown image format {fmt!r}")

    (x_train, y_train), (x_test, y_test) = (
        _two_class_filter(images, labels, class_a, class_b, limit, what)
        for (images, labels), limit, what in zip(splits, (train_size, None), ("training", "test"))
    )
    if x_test.shape[1] != x_train.shape[1]:
        raise DataFormatError(
            f"test images have {x_test.shape[1]} pixels, training images {x_train.shape[1]}"
        )
    return Dataset(
        inputs=x_train,
        labels=y_train,
        test_inputs=x_test,
        test_labels=y_test,
    )
