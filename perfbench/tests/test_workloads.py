"""Synthetic IDX files and workload configs."""

import numpy as np
import pytest

import workloads
from catapult.cli import normalize_config
from catapult.datasets import load_two_class_images, read_idx_images, read_idx_labels


def test_idx_files_are_seeded_and_mnist_shaped(tmp_path):
    first = workloads.write_synthetic_idx(tmp_path / "a", seed=3)
    again = workloads.write_synthetic_idx(tmp_path / "b", seed=3)
    other = workloads.write_synthetic_idx(tmp_path / "c", seed=4)
    for key in first:
        assert first[key].read_bytes() == again[key].read_bytes()
    assert first["train_images"].read_bytes() != other["train_images"].read_bytes()

    images = read_idx_images(first["train_images"])
    labels = read_idx_labels(first["train_labels"])
    assert images.shape == (10 * workloads.TRAIN_PER_CLASS, 28 * 28)
    assert np.bincount(labels).tolist() == [workloads.TRAIN_PER_CLASS] * 10
    assert np.bincount(read_idx_labels(first["test_labels"])).tolist() == [
        workloads.TEST_PER_CLASS
    ] * 10


def test_image_workload_loads_its_files(tmp_path):
    workloads.write_synthetic_idx(tmp_path, seed=0)
    workload = workloads.build("image_two_class", 0, tmp_path)
    (_, raw), = workload.configs
    cfg = normalize_config(raw, tmp_path)
    section = cfg["dataset"]
    paths = {key: section[key] for key in workloads.IMAGE_FILES}
    dataset = load_two_class_images("idx", paths, 0, 1, section["train_size"])
    assert dataset.inputs.shape == (128, 784)
    assert dataset.test_inputs.shape == (2 * workloads.TEST_PER_CLASS, 784)
    assert set(np.unique(dataset.labels)) == {-1.0, 1.0}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_config_normalizes(tmp_path, name):
    workloads.write_synthetic_idx(tmp_path, seed=1)
    for _, raw in workloads.build(name, 1, tmp_path).configs:
        normalize_config(raw, tmp_path)
