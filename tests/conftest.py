"""Shared builders and oracles for the test suite."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import pytest

from catapult.datasets import (
    Dataset,
    EigenScheme,
    MetaFeatureSpec,
    assemble_quadratic,
    build_meta_features,
    make_toy,
    zeta_for,
)
from catapult.models import QuadraticModel
from catapult.numerics import Rng


# ---------------------------------------------------------------------------
# Parameter flattening and the finite-difference gradient oracle
# ---------------------------------------------------------------------------


def params_vector(model) -> np.ndarray:
    return np.concatenate([w.ravel() for w in model.weights()])


def set_params(model, vec: np.ndarray) -> None:
    offset = 0
    for w in model.weights():
        w[...] = np.reshape(vec[offset : offset + w.size], w.shape)
        offset += w.size


def batch_loss(model, dataset: Dataset) -> float:
    err = model.outputs(dataset.inputs) - dataset.labels
    return float(err @ err) / (2.0 * dataset.size)


def analytic_gradient(model, dataset: Dataset) -> np.ndarray:
    """Full-batch loss gradient recovered exactly from one unit-rate step."""
    work = model.clone()
    before = params_vector(work)
    z = work.outputs(dataset.inputs)
    work.apply_gd_step(dataset.inputs, z - dataset.labels, 1.0)
    return before - params_vector(work)


def finite_difference_gradient(model, dataset: Dataset, h: float = 1e-4) -> np.ndarray:
    work = model.clone()
    base = params_vector(work)
    grad = np.empty_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + h
        set_params(work, bumped)
        plus = batch_loss(work, dataset)
        bumped[i] = base[i] - h
        set_params(work, bumped)
        minus = batch_loss(work, dataset)
        grad[i] = (plus - minus) / (2.0 * h)
    set_params(work, base)
    return grad


def output_series(model, dataset: Dataset, eta: float, steps: int) -> np.ndarray:
    """Outputs of a clone of the model at each of ``steps`` GD steps at rate
    eta and after the last one, one row per step, as ``train`` steps it."""
    work = model.clone()
    rows = [work.outputs(dataset.inputs)]
    for _ in range(steps):
        work.apply_gd_step(dataset.inputs, rows[-1] - dataset.labels, eta)
        rows.append(work.outputs(dataset.inputs))
    return np.array(rows)


# ---------------------------------------------------------------------------
# Standard model builders
# ---------------------------------------------------------------------------


def pure_toy_quadratic(
    n: int,
    seed: int,
    scheme: EigenScheme | None = None,
    zeta_rule: str = "2_over_n",
    activation: str = "identity",
) -> QuadraticModel:
    """Pure quadratic model on the toy datapoint with a linear meta-feature
    generator (or a tanh one), the standard setup for the single-datapoint
    experiments."""
    rng = Rng(seed)
    spec = MetaFeatureSpec(
        n_psi=n,
        n_phi=0,
        d=1,
        eigen_scheme=scheme or EigenScheme("uniform", 1.0, 2.0),
        activation=activation,
    )
    feature_map = build_meta_features(spec, rng.child(1))
    return assemble_quadratic(feature_map, make_toy(), zeta_for(zeta_rule, n), rng.child(2))


def with_bias_toy_quadratic(n_psi: int, n_phi: int, seed: int) -> QuadraticModel:
    rng = Rng(seed)
    spec = MetaFeatureSpec(
        n_psi=n_psi, n_phi=n_phi, d=1, eigen_scheme=EigenScheme("pm_one")
    )
    feature_map = build_meta_features(spec, rng.child(1))
    return assemble_quadratic(
        feature_map, make_toy(), zeta_for("1_over_n_psi", n_psi), rng.child(2)
    )


def random_quadratic(
    n_psi: int,
    n_phi: int,
    d: int,
    num_points: int,
    seed: int,
    activation: str = "identity",
    scheme: EigenScheme | None = None,
) -> tuple[QuadraticModel, Dataset]:
    rng = Rng(seed)
    spec = MetaFeatureSpec(
        n_psi=n_psi,
        n_phi=n_phi,
        d=d,
        eigen_scheme=scheme or EigenScheme("uniform", 1.0, 2.0),
        activation=activation,
    )
    feature_map = build_meta_features(spec, rng.child(1))
    dataset = Dataset(
        inputs=rng.child(3).uniform(-0.5, 0.5, (num_points, d)),
        labels=rng.child(4).uniform(-0.5, 0.5, num_points),
    )
    zeta = zeta_for("1_over_n_psi" if n_phi else "2_over_n", n_psi)
    return assemble_quadratic(feature_map, dataset, zeta, rng.child(2)), dataset


# ---------------------------------------------------------------------------
# Synthetic IDX / CIFAR files
# ---------------------------------------------------------------------------


def write_idx_images(path: Path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path: Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, labels.shape[0]))
        fh.write(labels.tobytes())


def synthetic_two_class_images(
    count_per_class: int, side: int, rng: Rng, separation: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy dark/bright blobs: a linearly separable stand-in for a two-class
    image task, interleaved class 0 / class 1."""
    total = 2 * count_per_class
    images = np.empty((total, side, side), dtype=np.uint8)
    labels = np.empty(total, dtype=np.uint8)
    means = (0.5 - separation / 2.0, 0.5 + separation / 2.0)
    for i in range(total):
        cls = i % 2
        pix = means[cls] + 0.15 * rng.normal((side, side))
        images[i] = np.clip(pix * 255.0, 0, 255).astype(np.uint8)
        labels[i] = cls
    return images, labels


@pytest.fixture
def synthetic_idx_paths(tmp_path):
    rng = Rng(929)
    train_images, train_labels = synthetic_two_class_images(80, 8, rng.child(0))
    test_images, test_labels = synthetic_two_class_images(60, 8, rng.child(1))
    paths = {
        "train_images": tmp_path / "train-images.idx",
        "train_labels": tmp_path / "train-labels.idx",
        "test_images": tmp_path / "test-images.idx",
        "test_labels": tmp_path / "test-labels.idx",
    }
    write_idx_images(paths["train_images"], train_images)
    write_idx_labels(paths["train_labels"], train_labels)
    write_idx_images(paths["test_images"], test_images)
    write_idx_labels(paths["test_labels"], test_labels)
    return {key: str(value) for key, value in paths.items()}
