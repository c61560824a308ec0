"""Each reproduction script in scripts/ runs end to end at a reduced size,
builds its experiment once, and writes a sweep whose every rate succeeded."""

import csv
import json
import runpy
import shutil
import sys
from pathlib import Path

import pytest

import catapult.cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# MNIST's own file names, which the image script looks for
IDX_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def run_script(monkeypatch, name: str, *args: str) -> None:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


@pytest.mark.parametrize(
    "name, args, writes_bounds",
    [
        ("quadratic_toy_sweep.py", ["--n", "32"], True),
        ("homogenous_toy_sweep.py", ["--width", "32"], True),
        ("relu_single_datapoint.py", ["--width", "32"], True),
        ("teacher_student_sweep.py", ["--test-size", "50"], True),
        ("mnist_two_class_sweep.py", ["--width", "32", "--train-size", "16"], False),
    ],
)
def test_script_runs_at_reduced_size(
    monkeypatch, tmp_path, synthetic_idx_paths, name, args, writes_bounds
):
    resolve = catapult.cli.resolve_experiment
    builds = []

    def counting(cfg):
        builds.append(cfg)
        return resolve(cfg)

    monkeypatch.setattr(catapult.cli, "resolve_experiment", counting)
    out = tmp_path / "out"
    if name == "mnist_two_class_sweep.py":
        data = tmp_path / "mnist"
        data.mkdir()
        for key, target in IDX_NAMES.items():
            shutil.copy(synthetic_idx_paths[key], data / target)
        args = [str(data), *args]
    run_script(monkeypatch, name, *args, "--out", str(out))
    with (out / "sweep.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    meta = json.loads((out / "sweep.meta.json").read_text())
    assert len(rows) == len(meta["eta_grid"]) > 1
    assert {row["status"] for row in rows} == {"ok"}
    assert (out / "bounds.json").is_file() == writes_bounds
    # the sweep and the bounds share one initialization and one lambda0
    assert len(builds) == 1
