"""Data sources: the toy datapoint, random cubes, teacher-student labels,
feature/meta-feature generators, and two-class image ingestion.

Meta-feature matrices are always produced exactly symmetric (symmetrized
after any entrywise nonlinearity) and with-bias constructions place features
and meta-features on disjoint coordinate blocks so their orthogonality holds
by construction, not by projection.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from catapult.models import QuadraticModel, _symmetrize
from catapult.numerics import Rng, random_orthogonal

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
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
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
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
    """

    meta_generators: np.ndarray  # (d, m, m), each exactly symmetric
    feature_matrix: Optional[np.ndarray]  # (p, d) or None when n_phi == 0
    activation: str
    meta_eigenvalues: np.ndarray  # (d, m) as drawn, for inspection
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

    def _activations_at(self, x: np.ndarray) -> np.ndarray:
        """Unprojected meta-feature matrices ``g(sum_i x_i W^i)``, one per
        row of x.  They are exactly symmetric: every generator is, and the
        combination and the activation act entrywise."""
        return self._activate(np.tensordot(x, self.meta_generators, axes=([1], [0])))

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

    def _blocks_at(self, inputs) -> tuple[Optional[np.ndarray], np.ndarray]:
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        psi = self._activations_at(x)
        if self.psi_projector is not None:
            q = self.psi_projector
            psi = np.matmul(np.matmul(q[None, :, :], psi), q.T[None, :, :])
        return self._features_at(x), _symmetrize(psi)

    def at(self, inputs) -> tuple[np.ndarray, np.ndarray]:
        """Embedded (features, meta_features) arrays for the given inputs."""
        phi_block, psi_block = self._blocks_at(inputs)
        d_pts = psi_block.shape[0]
        n = self.n
        phi = np.zeros((d_pts, n))
        psi = np.zeros((d_pts, n, n))
        psi[:, : self.n_psi, : self.n_psi] = psi_block
        if phi_block is not None:
            phi[:, self.n_psi :] = phi_block
        return phi, psi

    def outputs_at(self, theta, zeta: float, inputs) -> np.ndarray:
        """Model outputs on arbitrary inputs, streamed in blocks of
        ``OUTPUTS_AT_CHUNK`` points so large test splits never materialize
        their meta-feature matrices.

        The meta-feature projector is folded into the weights: with
        ``w = Q^T theta_psi`` the quadratic term ``theta_psi^T Q T Q^T
        theta_psi`` is ``w^T T w`` for the unprojected activation block
        ``T = g(sum_i x_i W^i)``, so no projected matrix is ever formed.

        T is symmetric, so only its packed upper triangle is evaluated:
        ``w^T T w = sum_{j<=k} c_jk g(sum_i x_i W^i_jk)`` with weights
        ``c_jj = w_j^2`` and ``c_jk = 2 w_j w_k``.  Per block of points that
        is one product of the inputs with the (d, m(m+1)/2) packed
        generators, the activation in place, and one product with c."""
        theta = np.asarray(theta, dtype=np.float64)
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        w = theta[: self.n_psi]
        if self.psi_projector is not None:
            w = w @ self.psi_projector
        rows, cols = np.triu_indices(w.shape[0])
        generators = self.meta_generators[:, rows, cols]
        c = w[rows] * w[cols]
        c[rows != cols] *= 2.0
        theta_feat = theta[self.n_psi :]
        out = np.empty(x.shape[0])
        buf = np.empty((min(x.shape[0], OUTPUTS_AT_CHUNK), rows.shape[0]))
        for start in range(0, x.shape[0], OUTPUTS_AT_CHUNK):
            block = slice(start, start + OUTPUTS_AT_CHUNK)
            points = x[block]
            packed = np.dot(points, generators, out=buf[: points.shape[0]])
            quad = 0.5 * zeta * (self._activate(packed) @ c)
            phi = self._features_at(points)
            lin = phi @ theta_feat if phi is not None else 0.0
            out[block] = lin + quad
        return out

    def project(self, psi_projector, phi_projector=None) -> "QuadraticFeatureMap":
        if self.psi_projector is not None or self.phi_projector is not None:
            raise ValueError("feature map is already projected")
        return QuadraticFeatureMap(
            meta_generators=self.meta_generators,
            feature_matrix=self.feature_matrix,
            activation=self.activation,
            meta_eigenvalues=self.meta_eigenvalues,
            psi_projector=np.asarray(psi_projector, dtype=np.float64),
            phi_projector=(
                None if phi_projector is None else np.asarray(phi_projector, float)
            ),
        )


def build_meta_features(spec: MetaFeatureSpec, rng: Rng) -> QuadraticFeatureMap:
    """Draw the fixed generators of a quadratic model's feature functions.

    For each input coordinate the symmetric generator is assembled from a
    random orthogonal eigenbasis (exponential of a Gaussian antisymmetric
    matrix) and exactly-paired eigenvalues; the feature matrix has
    standard-normal entries.
    """
    generators = np.empty((spec.d, spec.n_psi, spec.n_psi))
    eigenvalues = np.empty((spec.d, spec.n_psi))
    for i in range(spec.d):
        lam = spec.eigen_scheme.draw(spec.n_psi, rng.child(0, i))
        q = random_orthogonal(spec.n_psi, rng.child(1, i))
        # Rows of q are the eigenvectors: W = q.T diag(lam) q, symmetrized
        # so the stored matrix is bitwise symmetric.
        generators[i] = _symmetrize((q.T * lam) @ q)
        eigenvalues[i] = lam
    feature_matrix = None
    if spec.n_phi > 0:
        feature_matrix = rng.child(2).normal((spec.n_phi, spec.d))
    return QuadraticFeatureMap(
        meta_generators=generators,
        feature_matrix=feature_matrix,
        activation=spec.activation,
        meta_eigenvalues=eigenvalues,
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
    standard-normal initial weights."""
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
    student_map: QuadraticFeatureMap
    zeta_student: float
    dataset: Dataset
    teacher_map: QuadraticFeatureMap
    zeta_teacher: float
    theta_teacher: np.ndarray


def make_teacher_student(spec: TeacherStudentSpec, rng: Rng) -> TeacherStudentSetup:
    """Draw the teacher, label uniform-cube data with it, and project the
    feature functions down to the student dimensions.

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
    teacher_map = build_meta_features(teacher_spec, rng.child(0))
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
    y_test = teacher_map.outputs_at(theta_teacher, zeta_teacher, x_test)

    psi_projector = random_orthogonal(spec.n_psi_teacher, rng.child(4))[
        : spec.n_psi_student
    ]
    phi_projector = None
    if spec.n_phi_teacher > 0:
        phi_projector = random_orthogonal(spec.n_phi_teacher, rng.child(5))[
            : spec.n_phi_student
        ]
    student_map = teacher_map.project(psi_projector, phi_projector)

    dataset = Dataset(
        inputs=x_train,
        labels=y_train,
        test_inputs=x_test if spec.test_size > 0 else None,
        test_labels=y_test if spec.test_size > 0 else None,
    )
    return TeacherStudentSetup(
        student_map=student_map,
        zeta_student=zeta_student,
        dataset=dataset,
        teacher_map=teacher_map,
        zeta_teacher=zeta_teacher,
        theta_teacher=theta_teacher,
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


def read_idx_images(path) -> np.ndarray:
    """Images from a big-endian IDX file as a (count, rows*cols) byte matrix."""
    path = Path(path)
    data = path.read_bytes()
    (magic,) = struct.unpack(">I", _read_exact(data, 0, 4, path))
    if magic != IDX_IMAGES_MAGIC:
        raise DataFormatError(
            f"{path}: image magic number mismatch at byte 0: "
            f"got 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
        )
    count, rows, cols = struct.unpack(">III", _read_exact(data, 4, 12, path))
    pixels = _read_exact(data, 16, count * rows * cols, path)
    if len(data) != 16 + count * rows * cols:
        raise DataFormatError(
            f"{path}: {len(data) - 16 - count * rows * cols} trailing bytes "
            f"after byte {16 + count * rows * cols}"
        )
    return np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols)


def read_idx_labels(path) -> np.ndarray:
    path = Path(path)
    data = path.read_bytes()
    (magic,) = struct.unpack(">I", _read_exact(data, 0, 4, path))
    if magic != IDX_LABELS_MAGIC:
        raise DataFormatError(
            f"{path}: label magic number mismatch at byte 0: "
            f"got 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
        )
    (count,) = struct.unpack(">I", _read_exact(data, 4, 4, path))
    labels = _read_exact(data, 8, count, path)
    if len(data) != 8 + count:
        raise DataFormatError(
            f"{path}: {len(data) - 8 - count} trailing bytes after byte {8 + count}"
        )
    values = np.frombuffer(labels, dtype=np.uint8).copy()
    bad = np.nonzero(values > 9)[0]
    if bad.size:
        raise DataFormatError(
            f"{path}: unknown class id {int(values[bad[0]])} at byte {8 + int(bad[0])}"
        )
    return values


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
        labels = records[:, 0]
        bad = np.nonzero(labels > 9)[0]
        if bad.size:
            raise DataFormatError(
                f"{path}: unknown class id {int(labels[bad[0]])} at byte "
                f"{int(bad[0]) * CIFAR_RECORD_BYTES}"
            )
        all_labels.append(labels.copy())
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
    mask = (labels == class_a) | (labels == class_b)
    selected_images = images[mask]
    selected_labels = labels[mask]
    if limit is not None:
        if selected_labels.shape[0] < limit:
            raise DataFormatError(
                f"{what}: only {selected_labels.shape[0]} images of classes "
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
    to +1.0; pixels are scaled to [0, 1] and flattened row-major.
    """
    if train_size < 1:
        raise ValueError(f"train_size must be at least 1, got {train_size}")
    if fmt == "idx":
        train_images = read_idx_images(paths["train_images"])
        train_labels = read_idx_labels(paths["train_labels"])
        test_images = read_idx_images(paths["test_images"])
        test_labels = read_idx_labels(paths["test_labels"])
        if train_images.shape[0] != train_labels.shape[0]:
            raise DataFormatError("training image and label counts disagree")
        if test_images.shape[0] != test_labels.shape[0]:
            raise DataFormatError("test image and label counts disagree")
    elif fmt == "cifar_binary":
        train_labels, train_images = read_cifar_binary(paths["train_files"])
        test_labels, test_images = read_cifar_binary(paths["test_files"])
    else:
        raise DataFormatError(f"unknown image format {fmt!r}")

    x_train, y_train = _two_class_filter(
        train_images, train_labels, class_a, class_b, train_size, "training set"
    )
    x_test, y_test = _two_class_filter(
        test_images, test_labels, class_a, class_b, None, "test set"
    )
    return Dataset(
        inputs=x_train,
        labels=y_train,
        test_inputs=x_test,
        test_labels=y_test,
    )
