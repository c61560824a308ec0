"""Workload definitions: the raw configs each workload sweeps and bounds, and
the synthetic MNIST-shaped IDX files the image workload trains on.

Every config is a raw document in the format `catapult.cli.normalize_config`
accepts.  The configs mirror the experiment scripts under `scripts/`, with
the learning-rate grids (and, for the image workload, width and step limit)
reduced so one repetition fits the benchmark's time window.

This module imports nothing from `catapult`, and numpy only inside the IDX
writer, so worker.py can import it before its set-up clock starts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
IMAGE_SIDE = 28
IMAGE_CLASSES = 10
# Per-digit image counts; fixed so every seed yields the same split sizes
# (200 training and 100 test images of the two chosen classes).
TRAIN_PER_CLASS = 100
TEST_PER_CLASS = 50
IMAGE_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
# The pure-quadratic toy model's init seed is held fixed.  Its omega bound
# runs power iteration whose iteration count is set by the drawn spectrum's
# top gap; across init seeds that count ranges from a few hundred to the
# 10,000 budget, which would make bounds time a property of the seed rather
# than of the code.  At seed 0 with n_psi = 1000 the budget is always used.
QUADRATIC_TOY_INIT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    # (label, raw config) pairs, swept and then bounded in this order.
    configs: tuple
    # cmd_bounds passes per repetition; more than one where a single call is
    # too short to time on its own.
    bounds_passes: int = 1
    # Fresh-process set-up measurements per run (median reported).
    setup_repeats: int = 3
    needs_images: bool = False


def _quadratic_toy() -> dict:
    # scripts/quadratic_toy_sweep.py at its default n = 1000; the grid keeps
    # one lazy, one catapult and one divergent rate.
    return {
        "model": {
            "family": "pure_quadratic",
            "n_psi": 1000,
            "zeta_rule": "2_over_n",
            "init_seed": QUADRATIC_TOY_INIT_SEED,
            "eigen_scheme": {"kind": "uniform", "low": 1.0, "high": 2.0},
        },
        "dataset": {"kind": "toy"},
        "training": {"eta_lambda0_grid": [1.0, 3.0, 4.5], "ntk_eval_interval": 1_000_000},
        "output": {"per_eta_trajectories": True},
    }


def _homogenous_toy(seed: int) -> dict:
    # scripts/homogenous_toy_sweep.py: slopes (0.5, 1), width 1024.
    return {
        "model": {
            "family": "homogenous",
            "width": 1024,
            "a_minus": 0.5,
            "a_plus": 1.0,
            "init_seed": seed,
        },
        "dataset": {"kind": "toy"},
        "training": {
            "eta_lambda0_grid": [0.5, 1.5, 2.5, 3.5, 4.5],
            "max_steps": 300_000,
            "ntk_eval_interval": 1_000_000,
        },
        "output": {"per_eta_trajectories": True},
    }


def _relu_single_datapoint(seed: int) -> dict:
    # scripts/relu_single_datapoint.py: ReLU net on (x, y) = (4, 2).
    return {
        "model": {
            "family": "homogenous",
            "width": 1024,
            "a_minus": 0.0,
            "a_plus": 1.0,
            "init_seed": seed,
        },
        "dataset": {"kind": "toy_relu"},
        "training": {
            "eta_lambda0_grid": [0.5, 1.5, 2.5, 3.5, 4.5],
            "max_steps": 300_000,
            "ntk_eval_interval": 1_000_000,
        },
        "output": {"per_eta_trajectories": True},
    }


def _teacher_student(seed: int) -> dict:
    # scripts/teacher_student_sweep.py, default with-bias setup.
    return {
        "model": {"family": "quadratic_with_bias", "init_seed": seed},
        "dataset": {
            "kind": "teacher_student",
            "seed": seed,
            "d": 1,
            "train_size": 32,
            "test_size": 1000,
            "activation": "tanh",
            "eigen_scheme": {"kind": "pm_one"},
            "n_psi_teacher": 200,
            "n_psi_student": 150,
            "n_phi_teacher": 20,
            "n_phi_student": 10,
        },
        # The catapult window's upper edge moves with the seed (some seeds
        # still catapult at 2.4, for 80-800 steps) and its step counts swing
        # up to the 100,000-step limit, so the grid keeps one lazy rate and
        # one rate that diverged, within 20 steps, at each of 86 seeds tried.
        "training": {
            "eta_lambda0_grid": [1.0, 3.0],
            "ntk_eval_interval": 1_000_000,
        },
    }


def _image_two_class(seed: int, image_dir: Path) -> dict:
    # scripts/mnist_two_class_sweep.py with width 256, one hidden matrix and
    # a 150-step limit, on the synthetic IDX files written for this seed.
    return {
        "model": {"family": "deep_relu", "width": 256, "depth": 1, "init_seed": seed},
        "dataset": {
            "kind": "image_two_class",
            "format": "idx",
            "class_a": 0,
            "class_b": 1,
            "train_size": 128,
            **{key: str(image_dir / name) for key, name in IMAGE_FILES.items()},
        },
        "training": {
            "eta_lambda0_grid": [0.5, 1.5, 2.5],
            "max_steps": 150,
            "ntk_eval_interval": 50,
        },
    }


WHY = {
    "toy_sweeps": (
        "one datapoint, so GD is cheap: time goes to the 1000x1000 expm "
        "redone per rate and to the omega power iteration in bounds"
    ),
    "teacher_student": (
        "32 train and 1000 test points: time goes to outputs_at building "
        "meta-feature matrices to label and score data, redone per rate"
    ),
    "image_two_class": (
        "784-pixel synthetic IDX images, no feature build and no bound: time "
        "goes to the deep ReLU GD step loop and kernel eigensolves"
    ),
}
NAMES = tuple(WHY)


def build(name: str, seed: int, image_dir: Path) -> Workload:
    """The workload's configs for one seed."""
    if name == "toy_sweeps":
        configs = (
            ("quadratic_toy", _quadratic_toy()),
            ("homogenous_toy", _homogenous_toy(seed)),
            ("relu_single_datapoint", _relu_single_datapoint(seed)),
        )
        return Workload(name, configs)
    if name == "teacher_student":
        return Workload(
            name,
            (("teacher_student", _teacher_student(seed)),),
            bounds_passes=2,
            setup_repeats=5,
        )
    return Workload(
        name,
        (("image_two_class", _image_two_class(seed, image_dir)),),
        bounds_passes=10,
        setup_repeats=7,
        needs_images=True,
    )


# ---------------------------------------------------------------------------
# Synthetic IDX files
# ---------------------------------------------------------------------------


def _idx_images(images) -> bytes:
    count = images.shape[0]
    header = struct.pack(">IIII", IDX_IMAGES_MAGIC, count, IMAGE_SIDE, IMAGE_SIDE)
    return header + images.astype("uint8").tobytes()


def _idx_labels(labels) -> bytes:
    return struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]) + labels.astype(
        "uint8"
    ).tobytes()


def _draw_split(rng, templates, per_class: int):
    import numpy as np

    labels = rng.permutation(np.repeat(np.arange(IMAGE_CLASSES), per_class))
    noise = rng.uniform(0.0, 96.0, (labels.shape[0], IMAGE_SIDE * IMAGE_SIDE))
    gain = rng.uniform(0.6, 1.0, (labels.shape[0], 1))
    pixels = np.clip(gain * templates[labels] + noise, 0.0, 255.0)
    return np.rint(pixels), labels


def write_synthetic_idx(directory: Path, seed: int) -> dict:
    """Write MNIST-shaped train/test IDX image and label files drawn from `seed`.

    Each digit class gets a template of a few Gaussian strokes; an image is
    its class template at a random gain plus uniform noise.  Every class
    appears exactly `TRAIN_PER_CLASS` (train) or `TEST_PER_CLASS` (test)
    times, in a seeded random order.  Returns the four paths by config key.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0x1D8])
    grid = np.arange(IMAGE_SIDE, dtype=np.float64)
    rows, cols = np.meshgrid(grid, grid, indexing="ij")
    templates = np.zeros((IMAGE_CLASSES, IMAGE_SIDE * IMAGE_SIDE))
    for k in range(IMAGE_CLASSES):
        canvas = np.zeros((IMAGE_SIDE, IMAGE_SIDE))
        for cy, cx, width in zip(
            rng.uniform(6, 22, 4), rng.uniform(6, 22, 4), rng.uniform(1.5, 4.0, 4)
        ):
            canvas += np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2 * width**2))
        templates[k] = 255.0 * (canvas / canvas.max()).ravel()

    directory.mkdir(parents=True, exist_ok=True)
    train_x, train_y = _draw_split(rng, templates, TRAIN_PER_CLASS)
    test_x, test_y = _draw_split(rng, templates, TEST_PER_CLASS)
    blobs = {
        "train_images": _idx_images(train_x),
        "train_labels": _idx_labels(train_y),
        "test_images": _idx_images(test_x),
        "test_labels": _idx_labels(test_y),
    }
    paths = {}
    for key, payload in blobs.items():
        path = directory / IMAGE_FILES[key]
        path.write_bytes(payload)
        paths[key] = path
    return paths
